//===- DratTest.cpp - DRUP proof checking tests ---------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the proof-reconstruction layer (paper §6.4's future-work item):
/// UNSAT answers of the CDCL solver must come with DRUP proofs that the one
/// RUP checker, cert::StreamChecker, accepts; bogus proofs must be
/// rejected; and the certifying solver must carry a full
/// equivalence-checking run.
///
//===----------------------------------------------------------------------===//

#include "cert/StreamCheck.h"

#include "core/Checker.h"
#include "parsers/CaseStudies.h"
#include "smt/ProofLog.h"
#include "smt/Solver.h"

#include <gtest/gtest.h>

using namespace leapfrog;
using namespace leapfrog::smt;

namespace {

Lit pos(Var V) { return Lit::mk(V, false); }
Lit neg(Var V) { return Lit::mk(V, true); }

/// A one-shot DRUP proof in DIMACS literals: the input clauses, then the
/// derived lemmas in derivation order.
struct Proof {
  std::vector<std::vector<int>> Inputs;
  std::vector<std::vector<int>> Lemmas;

  bool claimsUnsat() const {
    for (const std::vector<int> &L : Lemmas)
      if (L.empty())
        return true;
    return false;
  }
};

std::vector<int> dimacs(const std::vector<Lit> &C) {
  std::vector<int> Out;
  for (Lit L : C)
    Out.push_back(L.negated() ? -(L.var() + 1) : L.var() + 1);
  return Out;
}

/// Checks \p P the way a one-shot certified solve is checked: one
/// unguarded goal holding the inputs and the lemmas, closed UNSAT with an
/// empty core. Returns "" on acceptance, else the first diagnostic.
std::string check(const Proof &P, cert::StreamChecker &C) {
  std::string Why = C.goalBegin(1, 0);
  for (size_t I = 0; Why.empty() && I < P.Inputs.size(); ++I)
    Why = C.input(P.Inputs[I]);
  for (size_t I = 0; Why.empty() && I < P.Lemmas.size(); ++I)
    Why = C.lemma(P.Lemmas[I]);
  if (Why.empty())
    Why = C.goalUnsat(1, {});
  if (Why.empty())
    Why = C.finish();
  return Why;
}

std::string check(const Proof &P) {
  cert::StreamChecker C;
  return check(P, C);
}

/// Solves \p Clauses with a proof sink attached; returns the solver's
/// answer and, in \p P, the recorded inputs and lemmas.
bool solveLogged(size_t NumVars, const std::vector<std::vector<Lit>> &Clauses,
                 Proof &P) {
  SatSolver S;
  ProofStream Stream;
  S.setProofSink(&Stream);
  for (size_t I = 0; I < NumVars; ++I)
    (void)S.newVar();
  bool Ok = true;
  for (const auto &C : Clauses)
    Ok = S.addClause(C) && Ok;
  bool IsSat = Ok && S.solve();
  for (const ProofEvent &E : Stream.Events) {
    if (E.K == ProofEvent::Kind::Input)
      P.Inputs.push_back(dimacs(E.Lits));
    else if (E.K == ProofEvent::Kind::Lemma)
      P.Lemmas.push_back(dimacs(E.Lits));
  }
  return IsSat;
}

Proof proveUnsat(size_t NumVars, const std::vector<std::vector<Lit>> &Clauses) {
  Proof P;
  EXPECT_FALSE(solveLogged(NumVars, Clauses, P))
      << "instance is unexpectedly satisfiable";
  return P;
}

TEST(Drat, ContradictoryUnitsProduceCheckingProof) {
  Proof P = proveUnsat(1, {{pos(0)}, {neg(0)}});
  EXPECT_TRUE(P.claimsUnsat());
  EXPECT_EQ(check(P), "");
}

TEST(Drat, PropagationConflictProducesCheckingProof) {
  // a; a->b; a->~b — conflict is reached by pure propagation.
  Proof P = proveUnsat(2, {{pos(0)}, {neg(0), pos(1)}, {neg(0), neg(1)}});
  EXPECT_TRUE(P.claimsUnsat());
  EXPECT_EQ(check(P), "");
}

TEST(Drat, PigeonHoleProofChecks) {
  // PHP(4,3): needs genuine clause learning, so the proof has real lemmas.
  std::vector<std::vector<Lit>> Clauses;
  auto P = [](int I, int H) { return Var(I * 3 + H); };
  for (int I = 0; I < 4; ++I)
    Clauses.push_back({pos(P(I, 0)), pos(P(I, 1)), pos(P(I, 2))});
  for (int H = 0; H < 3; ++H)
    for (int I = 0; I < 4; ++I)
      for (int J = I + 1; J < 4; ++J)
        Clauses.push_back({neg(P(I, H)), neg(P(J, H))});
  Proof Pr = proveUnsat(12, Clauses);
  EXPECT_TRUE(Pr.claimsUnsat());
  EXPECT_GT(Pr.Lemmas.size(), 1u) << "expected learnt clauses";
  cert::StreamChecker C;
  EXPECT_EQ(check(Pr, C), "");
  EXPECT_EQ(C.stats().Lemmas, Pr.Lemmas.size());
  EXPECT_EQ(C.stats().UnsatGoals, 1u);
}

TEST(Drat, SatInstanceClaimsNoUnsat) {
  Proof P;
  EXPECT_TRUE(solveLogged(2, {{pos(0), pos(1)}, {neg(0), pos(1)}}, P));
  EXPECT_FALSE(P.claimsUnsat());
  // Presenting its log as an UNSAT proof anyway must fail.
  EXPECT_NE(check(P), "");
}

TEST(Drat, ProofWithoutEmptyClauseIsRejected) {
  Proof P;
  P.Inputs = {{1, 2}};
  std::string Why = check(P);
  EXPECT_NE(Why.find("claims root unsatisfiability"), std::string::npos)
      << Why;
}

TEST(Drat, NonRupLemmaIsRejected) {
  // {a ∨ b} does not entail {a}; a proof asserting it must fail.
  Proof P;
  P.Inputs = {{1, 2}};
  P.Lemmas = {{1}, {}};
  std::string Why = check(P);
  EXPECT_NE(Why.find("lemma is not a reverse-unit-propagation"),
            std::string::npos)
      << Why;
}

TEST(Drat, UnjustifiedEmptyClauseIsRejected) {
  // The database is satisfiable; claiming the empty clause is bogus.
  Proof P;
  P.Inputs = {{1, 2}};
  P.Lemmas = {{}};
  std::string Why = check(P);
  EXPECT_NE(Why.find("empty lemma"), std::string::npos) << Why;
}

TEST(Drat, TamperedLemmaLiteralIsCaught) {
  // Take a genuine proof and replace its first real lemma with an
  // unjustified unit over a fresh variable; it must fail RUP.
  std::vector<std::vector<Lit>> Clauses = {
      {pos(0), pos(1)}, {pos(0), neg(1)}, {neg(0), pos(1)}, {neg(0), neg(1)}};
  Proof P = proveUnsat(2, Clauses);
  ASSERT_TRUE(P.claimsUnsat());
  ASSERT_EQ(check(P), "");

  Proof Tampered = P;
  bool Mutated = false;
  for (auto &L : Tampered.Lemmas) {
    if (!L.empty()) {
      L = {8};
      Mutated = true;
      break;
    }
  }
  if (!Mutated)
    GTEST_SKIP() << "proof has only the empty clause; nothing to tamper";
  EXPECT_NE(check(Tampered), "");
}

TEST(Drat, TautologicalLemmaIsAccepted) {
  // x ∨ ¬x is vacuously RUP (assuming its negation is itself a conflict);
  // accepting it must not corrupt the remaining replay.
  Proof P;
  P.Inputs = {{1}, {-1}};
  P.Lemmas = {{2, -2}, {}};
  EXPECT_EQ(check(P), "");
}

TEST(Drat, DeletedClauseNoLongerJustifiesLemmas) {
  // {a ∨ b}, {¬b ∨ c}: the lemma {a ∨ c} is RUP. After deleting {a ∨ b}
  // it is not — deletions really shrink the working database.
  for (bool Delete : {false, true}) {
    cert::StreamChecker C;
    ASSERT_EQ(C.input({1, 2}), "");
    ASSERT_EQ(C.input({-2, 3}), "");
    if (Delete) {
      EXPECT_EQ(C.erase({2, 1}), ""); // matched as a literal multiset
      EXPECT_EQ(C.stats().DeletionsSkipped, 0u);
    }
    EXPECT_EQ(C.lemma({1, 3}).empty(), !Delete);
  }
}

TEST(Drat, RestartResetsTheDatabase) {
  cert::StreamChecker C;
  ASSERT_EQ(C.input({1}), "");
  ASSERT_EQ(C.lemma({1, 2}), "");
  ASSERT_EQ(C.restart(), "");
  EXPECT_NE(C.lemma({1, 2}), "");
}

TEST(Drat, HugeVariableIndicesCostOnlyTheirNumber) {
  // Two variables at the top of the DIMACS range: the database renames
  // them to dense indices, so checking this stream allocates for two
  // variables, not for a billion (which aborted with std::bad_alloc).
  const int V = int(cert::StreamChecker::MaxDimacsVar), W = V - 1;
  Proof P;
  P.Inputs = {{V, W}, {-V, W}, {V, -W}, {-V, -W}};
  P.Lemmas = {{W}, {}};
  EXPECT_EQ(check(P), "");

  // Renaming keeps the semantics: a non-RUP lemma is still rejected, and
  // deletions still match literal multisets.
  cert::StreamChecker NotRup;
  ASSERT_EQ(NotRup.input({V, W}), "");
  EXPECT_NE(NotRup.lemma({V}), "");

  cert::StreamChecker C;
  ASSERT_EQ(C.input({V, W}), "");
  EXPECT_EQ(C.erase({-V, 7}), "");
  EXPECT_EQ(C.stats().DeletionsSkipped, 1u); // variable 7 was never seen
  EXPECT_EQ(C.erase({W, V}), "");
  EXPECT_EQ(C.stats().DeletionsSkipped, 1u);
  EXPECT_NE(C.lemma({V, W}), ""); // the deleted clause no longer helps
}

TEST(Drat, CertifyingOneShotSolveChecksItsProof) {
  // The one-shot CertifyUnsat path: an UNSAT checkSat is checked as one
  // unguarded goal; a SAT answer certifies nothing.
  BitBlastSolver S;
  S.CertifyUnsat = true;
  BvTermRef X = BvTerm::mkVar("x", 2);
  BvFormulaRef Eq =
      BvFormula::mkEq(X, BvTerm::mkConst(Bitvector::fromString("01")));
  BvFormulaRef Other =
      BvFormula::mkEq(X, BvTerm::mkConst(Bitvector::fromString("10")));
  EXPECT_EQ(S.checkSat(BvFormula::mkAnd(Eq, Other), nullptr),
            SatResult::Unsat);
  EXPECT_EQ(S.stats().CertifiedUnsat, 1u);
  EXPECT_EQ(S.checkSat(Eq, nullptr), SatResult::Sat);
  EXPECT_EQ(S.stats().CertifiedUnsat, 1u);
}

//===----------------------------------------------------------------------===//
// Randomized: every UNSAT verdict must come with a checking proof
//===----------------------------------------------------------------------===//

struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  size_t below(size_t N) { return size_t(next() % N); }
};

class DratFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DratFuzz, UnsatAnswersCarryCheckingProofs) {
  Rng R{uint64_t(GetParam())};
  int NumVars = 4 + int(R.below(8));
  // Denser than the phase transition so a good share comes out UNSAT.
  size_t NumClauses = size_t(NumVars) * (4 + R.below(3));
  std::vector<std::vector<Lit>> Clauses;
  for (size_t I = 0; I < NumClauses; ++I) {
    std::vector<Lit> C;
    size_t Len = 1 + R.below(3);
    for (size_t K = 0; K < Len; ++K)
      C.push_back(Lit::mk(Var(R.below(NumVars)), R.below(2)));
    Clauses.push_back(std::move(C));
  }

  Proof P;
  if (solveLogged(size_t(NumVars), Clauses, P))
    return; // SAT: model correctness is covered by SatTest.
  ASSERT_TRUE(P.claimsUnsat())
      << "UNSAT answer without an empty-clause lemma, seed " << GetParam();
  std::string Why = check(P);
  EXPECT_EQ(Why, "") << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Random, DratFuzz, ::testing::Range(0, 300));

//===----------------------------------------------------------------------===//
// End-to-end: a certifying solver underneath the equivalence checker
//===----------------------------------------------------------------------===//

TEST(Drat, CertifyingSolverCarriesEquivalenceRun) {
  BitBlastSolver Solver;
  Solver.CertifyUnsat = true;
  core::CheckOptions O;
  O.Solver = &Solver;
  core::CheckResult Res = core::checkLanguageEquivalence(
      parsers::mplsReference(), "q1", parsers::mplsVectorized(), "q3", O);
  EXPECT_TRUE(Res.equivalent());
  // Every validity answer is an UNSAT answer underneath, so certification
  // must have fired and every proof must have checked (a failure aborts).
  EXPECT_GT(Solver.stats().CertifiedUnsat, 0u);
  EXPECT_EQ(Solver.stats().CertifiedUnsat, Solver.stats().UnsatAnswers);
}

TEST(Drat, CertifyingSolverAgreesOnInequivalence) {
  BitBlastSolver Solver;
  Solver.CertifyUnsat = true;
  core::CheckOptions O;
  O.Solver = &Solver;
  core::CheckResult Res = core::checkLanguageEquivalence(
      parsers::sloppyEthernetIp(), "parse_eth", parsers::strictEthernetIp(),
      "parse_eth", O);
  EXPECT_EQ(Res.V, core::Verdict::NotEquivalent);
}

} // namespace
