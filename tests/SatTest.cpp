//===- SatTest.cpp - CDCL SAT solver tests --------------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests and randomized differential tests for the CDCL solver. The
/// reference oracle is a tiny recursive DPLL over the same clause set, so
/// any divergence (wrong SAT/UNSAT, bogus model) is caught on thousands
/// of random instances around the phase-transition clause density.
///
//===----------------------------------------------------------------------===//

#include "smt/Sat.h"

#include "smt/ProofLog.h"

#include "FuzzSupport.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace leapfrog {
namespace smt {

/// See the friend declaration in Sat.h.
class SatSolverTestAccess {
public:
  /// Stores \p C as conflict analysis stores a learnt clause (watching
  /// its first two literals, logged as a lemma), with LBD \p Lbd and
  /// activity \p Act.
  static void addLearnt(SatSolver &S, const std::vector<Lit> &C,
                        uint32_t Lbd, float Act) {
    S.logLemma(C);
    SatSolver::ClauseRef CR =
        S.storeClause(C.data(), C.size(), /*IsLearnt=*/true, Lbd);
    ++S.LearntCount;
    S.setActivity(CR, Act);
  }
  static void reduceDB(SatSolver &S) { S.reduceDB(); }
};

} // namespace smt
} // namespace leapfrog

using namespace leapfrog;
using namespace leapfrog::smt;
using leapfrog::testing::fuzzIters;

namespace {

Lit pos(Var V) { return Lit::mk(V, false); }
Lit neg(Var V) { return Lit::mk(V, true); }

TEST(Sat, EmptyInstanceIsSat) {
  SatSolver S;
  EXPECT_TRUE(S.solve());
}

TEST(Sat, SingleUnit) {
  SatSolver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause(pos(A)));
  EXPECT_TRUE(S.solve());
  EXPECT_TRUE(S.modelValue(A));
}

TEST(Sat, ContradictoryUnitsAreUnsat) {
  SatSolver S;
  Var A = S.newVar();
  S.addClause(pos(A));
  EXPECT_FALSE(S.addClause(neg(A)));
  EXPECT_FALSE(S.solve());
}

TEST(Sat, EmptyClauseIsUnsat) {
  SatSolver S;
  (void)S.newVar();
  EXPECT_FALSE(S.addClause(std::vector<Lit>{}));
  EXPECT_FALSE(S.solve());
}

TEST(Sat, TautologicalClauseIgnored) {
  SatSolver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause(std::vector<Lit>{pos(A), neg(A)}));
  EXPECT_TRUE(S.solve());
}

TEST(Sat, DuplicateLiteralsCollapse) {
  SatSolver S;
  Var A = S.newVar();
  Var B = S.newVar();
  EXPECT_TRUE(S.addClause(std::vector<Lit>{pos(A), pos(A), pos(B)}));
  S.addClause(neg(A));
  S.addClause(neg(B));
  EXPECT_FALSE(S.solve());
}

TEST(Sat, PropagationChain) {
  // a, a->b, b->c, c->d: all forced true without a single decision.
  SatSolver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), D = S.newVar();
  S.addClause(pos(A));
  S.addClause(neg(A), pos(B));
  S.addClause(neg(B), pos(C));
  S.addClause(neg(C), pos(D));
  ASSERT_TRUE(S.solve());
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  EXPECT_TRUE(S.modelValue(C));
  EXPECT_TRUE(S.modelValue(D));
  EXPECT_EQ(S.stats().Decisions, 0u);
}

TEST(Sat, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): classic small UNSAT instance requiring real search.
  SatSolver S;
  Var P[3][2];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < 3; ++I)
    S.addClause(pos(P[I][0]), pos(P[I][1]));
  for (int H = 0; H < 2; ++H)
    for (int I = 0; I < 3; ++I)
      for (int J = I + 1; J < 3; ++J)
        S.addClause(neg(P[I][H]), neg(P[J][H]));
  EXPECT_FALSE(S.solve());
}

TEST(Sat, XorChainForcesManyConflicts) {
  // x1 xor x2 xor ... xor x10 = 1 together with all-equal constraints is
  // satisfiable only with all-true for odd chain lengths; checks learning
  // across restarts (this shape triggered the Luby regression).
  SatSolver S;
  constexpr int N = 9;
  Var X[N];
  for (Var &V : X)
    V = S.newVar();
  // Equality chain.
  for (int I = 0; I + 1 < N; ++I) {
    S.addClause(neg(X[I]), pos(X[I + 1]));
    S.addClause(pos(X[I]), neg(X[I + 1]));
  }
  S.addClause(pos(X[0]));
  ASSERT_TRUE(S.solve());
  for (Var V : X)
    EXPECT_TRUE(S.modelValue(V));
}

//===----------------------------------------------------------------------===//
// Incremental solving under assumptions
//===----------------------------------------------------------------------===//

/// True iff \p L occurs in \p Lits.
bool contains(const std::vector<Lit> &Lits, Lit L) {
  for (Lit X : Lits)
    if (X == L)
      return true;
  return false;
}

TEST(SatAssumptions, SolveUnderAssumptionsBasic) {
  SatSolver S;
  Var X = S.newVar(), Y = S.newVar();
  S.addClause(pos(X), pos(Y));
  ASSERT_TRUE(S.solveUnderAssumptions({neg(X)}));
  EXPECT_FALSE(S.modelValue(X));
  EXPECT_TRUE(S.modelValue(Y));
  ASSERT_FALSE(S.solveUnderAssumptions({neg(X), neg(Y)}));
  // The failed set is a subset of the assumptions that is jointly
  // unsatisfiable with the clauses — here it must name both.
  EXPECT_TRUE(contains(S.failedAssumptions(), neg(X)));
  EXPECT_TRUE(contains(S.failedAssumptions(), neg(Y)));
  // Assumptions are transient: the instance itself is still satisfiable.
  EXPECT_TRUE(S.solve());
}

TEST(SatAssumptions, FailedSetOmitsIrrelevantAssumptions) {
  SatSolver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(neg(A), pos(B)); // a → b
  ASSERT_FALSE(S.solveUnderAssumptions({pos(A), neg(B), pos(C)}));
  const std::vector<Lit> &Failed = S.failedAssumptions();
  EXPECT_EQ(Failed.size(), 2u);
  EXPECT_TRUE(contains(Failed, pos(A)));
  EXPECT_TRUE(contains(Failed, neg(B)));
  EXPECT_FALSE(contains(Failed, pos(C)));
}

TEST(SatAssumptions, GloballyUnsatReportsEmptyFailedSet) {
  SatSolver S;
  Var X = S.newVar(), Y = S.newVar();
  S.addClause(pos(X));
  EXPECT_FALSE(S.addClause(neg(X)));
  EXPECT_FALSE(S.solveUnderAssumptions({pos(Y)}));
  // Empty set: the clauses alone are unsatisfiable, no assumption needed.
  EXPECT_TRUE(S.failedAssumptions().empty());
}

TEST(SatAssumptions, ContradictoryAssumptionsFail) {
  SatSolver S;
  Var X = S.newVar();
  ASSERT_FALSE(S.solveUnderAssumptions({pos(X), neg(X)}));
  EXPECT_TRUE(contains(S.failedAssumptions(), pos(X)));
  EXPECT_TRUE(contains(S.failedAssumptions(), neg(X)));
  EXPECT_TRUE(S.solve());
}

// The next three suites pin edge-case behavior the parallel frontier
// engine now exercises from every worker thread: each worker's sessions
// drive solveUnderAssumptions through exactly these shapes (no
// assumptions on premise-only solves, repeated activation literals,
// assumptions colliding with level-0 retirement facts), so the contract
// is frozen here before it runs under N schedules.

TEST(SatAssumptions, EmptyAssumptionSetBehavesLikeSolve) {
  SatSolver S;
  Var X = S.newVar(), Y = S.newVar();
  S.addClause(pos(X), pos(Y));
  S.addClause(neg(X));
  ASSERT_TRUE(S.solveUnderAssumptions({}));
  EXPECT_FALSE(S.modelValue(X));
  EXPECT_TRUE(S.modelValue(Y));
  // On an unsatisfiable instance the failed set is empty — there is no
  // assumption to blame, the clauses alone conflict.
  S.addClause(neg(Y));
  EXPECT_FALSE(S.solveUnderAssumptions({}));
  EXPECT_TRUE(S.failedAssumptions().empty());
  // And the instance-level UNSAT is sticky, exactly as with solve().
  EXPECT_FALSE(S.solve());
}

TEST(SatAssumptions, DuplicatedAssumptionsAreHarmless) {
  // MiniSat's planting scheme gives assumption k decision level k+1; a
  // duplicate is already true when its turn comes and must open a dummy
  // level, not conflict with itself or shift later assumptions.
  SatSolver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(neg(A), pos(B)); // a → b
  ASSERT_TRUE(S.solveUnderAssumptions({pos(A), pos(A), pos(A)}));
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  // Duplicates interleaved with a conflicting tail: the failed set still
  // names the genuinely conflicting assumptions.
  ASSERT_FALSE(S.solveUnderAssumptions({pos(A), pos(A), neg(B)}));
  EXPECT_TRUE(contains(S.failedAssumptions(), neg(B)));
  EXPECT_TRUE(S.solve());
}

TEST(SatAssumptions, AssumptionAgreeingWithLevel0FactIsSatisfied) {
  // The session retirement pattern plants unit clauses (¬act); a later
  // assumption equal to such a level-0 fixed literal is already true at
  // plant time and must cost nothing.
  SatSolver S;
  Var X = S.newVar(), Y = S.newVar();
  S.addClause(pos(X)); // x fixed at level 0.
  S.addClause(neg(X), pos(Y));
  ASSERT_TRUE(S.solveUnderAssumptions({pos(X)}));
  EXPECT_TRUE(S.modelValue(X));
  EXPECT_TRUE(S.modelValue(Y));
}

TEST(SatAssumptions, AssumptionContradictingLevel0FactFailsAlone) {
  // The flip side: assuming the negation of a level-0 fixed literal is
  // doomed before any search. Current (pinned) behavior: the failed set
  // is exactly {assumption} — analyzeFinal sees the conflict at level 0
  // and blames no other assumption — and the instance stays usable.
  SatSolver S;
  Var X = S.newVar(), Y = S.newVar();
  S.addClause(pos(X)); // x fixed at level 0 (a retired activation, say).
  S.addClause(pos(Y), neg(Y)); // Keep Y mentioned but unconstrained.
  ASSERT_FALSE(S.solveUnderAssumptions({neg(X)}));
  ASSERT_EQ(S.failedAssumptions().size(), 1u);
  EXPECT_TRUE(contains(S.failedAssumptions(), neg(X)));
  // Order independence: buried in the middle, the verdict is the same
  // and the failed set still pins the level-0 contradiction.
  ASSERT_FALSE(S.solveUnderAssumptions({pos(Y), neg(X), neg(Y)}));
  EXPECT_TRUE(contains(S.failedAssumptions(), neg(X)));
  // The contradiction was assumption-local, not clause-level: no UNSAT
  // stickiness.
  EXPECT_TRUE(S.solve());
  EXPECT_TRUE(S.solveUnderAssumptions({pos(X)}));
}

TEST(SatAssumptions, AssumptionImpliedByPropagationIsSkipped) {
  // An assumption already true when planted opens a dummy decision level;
  // the remaining assumptions must still line up correctly.
  SatSolver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(pos(A));           // a holds at level 0.
  S.addClause(neg(B), pos(C));   // b → c
  ASSERT_TRUE(S.solveUnderAssumptions({pos(A), pos(B)}));
  EXPECT_TRUE(S.modelValue(B));
  EXPECT_TRUE(S.modelValue(C));
  ASSERT_FALSE(S.solveUnderAssumptions({pos(A), pos(B), neg(C)}));
  EXPECT_FALSE(contains(S.failedAssumptions(), pos(A)));
}

/// Gates PHP(\p Pigeons, \p Pigeons - 1) behind an activation literal so
/// the hard UNSAT core is reusable across queries.
Var addGatedPigeonHole(SatSolver &S, int Pigeons) {
  int Holes = Pigeons - 1;
  Var Act = S.newVar();
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < Pigeons; ++I) {
    std::vector<Lit> C{neg(Act)};
    for (int H = 0; H < Holes; ++H)
      C.push_back(pos(P[I][H]));
    S.addClause(C);
  }
  for (int H = 0; H < Holes; ++H)
    for (int I = 0; I < Pigeons; ++I)
      for (int J = I + 1; J < Pigeons; ++J)
        S.addClause(std::vector<Lit>{neg(Act), neg(P[I][H]), neg(P[J][H])});
  return Act;
}

TEST(SatAssumptions, LearnedClausesSpeedUpRepeatedQueries) {
  SatSolver S;
  Var Act = addGatedPigeonHole(S, 5);
  size_t ClausesBefore = S.numClauses();

  ASSERT_FALSE(S.solveUnderAssumptions({pos(Act)}));
  EXPECT_EQ(S.failedAssumptions(), std::vector<Lit>{pos(Act)});
  uint64_t FirstConflicts = S.stats().Conflicts;
  EXPECT_GT(FirstConflicts, 0u);
  // Learned clauses were retained across the call.
  EXPECT_GT(S.numClauses(), ClausesBefore);

  // The same query again: the learned clauses (and eventually a level-0
  // unit ¬act) make the rerun strictly cheaper than the first solve.
  ASSERT_FALSE(S.solveUnderAssumptions({pos(Act)}));
  uint64_t SecondConflicts = S.stats().Conflicts - FirstConflicts;
  EXPECT_LT(SecondConflicts, FirstConflicts);

  // Without the activation literal the instance stays satisfiable.
  EXPECT_TRUE(S.solve());
}

TEST(SatAssumptions, SurvivesRestartsAndPhaseSaving) {
  // PHP(6,5) forces well over the 64-conflict restart threshold, so the
  // assumption-planting loop must re-plant across restarts; afterwards the
  // solver must still answer fresh queries on the same instance.
  SatSolver S;
  Var Act = addGatedPigeonHole(S, 6);
  ASSERT_FALSE(S.solveUnderAssumptions({pos(Act)}));
  EXPECT_GT(S.stats().Restarts, 0u);
  EXPECT_EQ(S.failedAssumptions(), std::vector<Lit>{pos(Act)});
  EXPECT_TRUE(S.solveUnderAssumptions({neg(Act)}));
  EXPECT_FALSE(S.modelValue(Act));
}

TEST(SatIncremental, ClausesMayBeAddedBetweenSolves) {
  // Enumerate the three models of (x ∨ y) by blocking each in turn — the
  // activation-free form of the checker's retire-and-continue pattern.
  SatSolver S;
  Var X = S.newVar(), Y = S.newVar();
  S.addClause(pos(X), pos(Y));
  int Models = 0;
  while (S.solve()) {
    std::vector<Lit> Block{Lit::mk(X, S.modelValue(X)),
                           Lit::mk(Y, S.modelValue(Y))};
    ++Models;
    ASSERT_LE(Models, 3);
    S.addClause(Block);
  }
  EXPECT_EQ(Models, 3);
}

TEST(SatIncremental, RetiredActivationLiteralFreesLaterQueries) {
  SatSolver S;
  Var X = S.newVar();
  Var Act = S.newVar();
  S.addClause(neg(Act), pos(X)); // act → x
  ASSERT_TRUE(S.solveUnderAssumptions({pos(Act)}));
  EXPECT_TRUE(S.modelValue(X));
  S.addClause(neg(Act)); // Retire.
  // x is unconstrained again: both phases must be satisfiable.
  EXPECT_TRUE(S.solveUnderAssumptions({neg(X)}));
  EXPECT_TRUE(S.solveUnderAssumptions({pos(X)}));
}

TEST(SatAssumptions, AnalyzeFinalLeavesNoStaleSeenBits) {
  // Regression: analyzeFinal must not re-mark a propagated variable via
  // its own literal in its reason clause. A leaked Seen bit makes a later
  // analyze() skip that variable during resolution and learn an unsound
  // clause, turning a satisfiable assumption query UNSAT.
  SatSolver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(neg(A), pos(B)); // a → b
  S.addClause(neg(B), pos(C)); // b → c
  // UNSAT under {a, ¬c}; the analyzeFinal walk resolves through b.
  ASSERT_FALSE(S.solveUnderAssumptions({pos(A), neg(C)}));
  EXPECT_TRUE(contains(S.failedAssumptions(), pos(A)));
  EXPECT_TRUE(contains(S.failedAssumptions(), neg(C)));

  Var X = S.newVar(), Y = S.newVar();
  S.addClause(neg(B), neg(X), pos(Y)); // b ∧ x → y
  S.addClause(neg(B), neg(X), neg(Y)); // b ∧ x → ¬y
  // Forces a conflict whose learned clause must retain ¬b.
  ASSERT_FALSE(S.solveUnderAssumptions({pos(A), pos(X)}));
  // x alone is satisfiable (x = 1, b = 0); a stale Seen[b] bit made this
  // wrongly UNSAT before the fix.
  EXPECT_TRUE(S.solveUnderAssumptions({pos(X)}));
  EXPECT_TRUE(S.solve());
}

TEST(SatIncremental, NewVarsMayBeAddedBetweenSolves) {
  SatSolver S;
  Var X = S.newVar();
  S.addClause(pos(X));
  ASSERT_TRUE(S.solve());
  Var Y = S.newVar();
  S.addClause(neg(Y));
  ASSERT_TRUE(S.solve());
  EXPECT_TRUE(S.modelValue(X));
  EXPECT_FALSE(S.modelValue(Y));
}

//===----------------------------------------------------------------------===//
// Clause-database management: reduceDB and simplify
//===----------------------------------------------------------------------===//

SatSolver::ReducePolicy aggressivePolicy() {
  // Reduce at every opportunity: first run after a single learnt, no
  // geometric growth. The production default would almost never fire on
  // test-sized instances; this schedule fires constantly, which is the
  // point — any unsoundness in deletion shows up immediately.
  SatSolver::ReducePolicy P;
  P.Enabled = true;
  P.FirstReduce = 1;
  P.Growth = 1.0;
  return P;
}

SatSolver::ReducePolicy disabledPolicy() {
  SatSolver::ReducePolicy P;
  P.Enabled = false;
  return P;
}

TEST(SatReduce, DeletesColdLearntsAndStaysCorrect) {
  SatSolver S;
  SatSolver::ReducePolicy P;
  P.FirstReduce = 16; // PHP(7,6) learns far more than 16 clauses.
  P.Growth = 1.1;
  S.setReducePolicy(P);
  Var Act = addGatedPigeonHole(S, 7);
  ASSERT_FALSE(S.solveUnderAssumptions({pos(Act)}));
  EXPECT_EQ(S.failedAssumptions(), std::vector<Lit>{pos(Act)});
  EXPECT_GT(S.stats().ReduceDbRuns, 0u);
  EXPECT_GT(S.stats().ClausesDeleted, 0u);
  EXPECT_GT(S.stats().ArenaBytesPeak, 0u);
  EXPECT_GE(S.stats().LearntPeak, S.numLearntClauses());
  // The instance (without the activation) is still satisfiable, and the
  // hard core is still UNSAT on a rerun over the reduced database.
  EXPECT_TRUE(S.solveUnderAssumptions({neg(Act)}));
  EXPECT_FALSE(S.solveUnderAssumptions({pos(Act)}));
}

TEST(SatReduce, ScheduleGatesOnThreshold) {
  // PHP(6,5) restarts several times (the reduce opportunity) and learns
  // hundreds of clauses — but a threshold it never reaches must keep
  // reduceDB idle, while the aggressive schedule must fire.
  auto RunWith = [](SatSolver::ReducePolicy P) {
    SatSolver S;
    S.setReducePolicy(P);
    Var Act = addGatedPigeonHole(S, 6);
    EXPECT_FALSE(S.solveUnderAssumptions({pos(Act)}));
    EXPECT_GT(S.stats().Restarts, 0u);
    return S.stats().ReduceDbRuns;
  };
  SatSolver::ReducePolicy Never;
  Never.FirstReduce = 1u << 30;
  EXPECT_EQ(RunWith(Never), 0u);
  EXPECT_EQ(RunWith(disabledPolicy()), 0u);
  EXPECT_GT(RunWith(aggressivePolicy()), 0u);
}

TEST(SatReduce, SimplifyRemovesRetiredActivationGroup) {
  SatSolver S;
  S.setReducePolicy(disabledPolicy());
  Var X = S.newVar(), Y = S.newVar();
  S.addClause(pos(X), pos(Y));
  size_t Base = S.numClauses();
  Var Act = S.newVar();
  S.addClause(neg(Act), pos(X));
  S.addClause(neg(Act), neg(Y), pos(X));
  ASSERT_TRUE(S.solveUnderAssumptions({pos(Act)}));
  EXPECT_TRUE(S.modelValue(X));
  // Retire and hard-delete: the database returns to its pre-goal size and
  // X is unconstrained again.
  S.addClause(neg(Act));
  S.simplify();
  EXPECT_EQ(S.numClauses(), Base);
  EXPECT_EQ(S.stats().ClausesDeleted, 2u);
  EXPECT_TRUE(S.solveUnderAssumptions({neg(X), pos(Y)}));
  EXPECT_TRUE(S.solveUnderAssumptions({pos(X)}));
}

TEST(SatReduce, SimplifyDropsLearntsDerivedFromRetiredGroup) {
  // Lemmas whose derivation used an act-guarded clause contain ¬act (act
  // never occurs positively in any clause, so resolution cannot remove
  // it); after retirement simplify() must delete them too, leaving no
  // clause that mentions the goal's variables.
  SatSolver S;
  S.setReducePolicy(disabledPolicy());
  Var Act = addGatedPigeonHole(S, 5);
  ASSERT_FALSE(S.solveUnderAssumptions({pos(Act)}));
  EXPECT_GT(S.numLearntClauses(), 0u);
  S.addClause(neg(Act));
  S.simplify();
  // Every clause of the gated group contained ¬act, and every lemma the
  // UNSAT proof learned resolved through the group: nothing survives.
  EXPECT_EQ(S.numClauses(), 0u);
  EXPECT_EQ(S.numLearntClauses(), 0u);
  EXPECT_TRUE(S.solve());
}

TEST(SatReduce, ArenaBytesTrackLiveClauses) {
  SatSolver S;
  EXPECT_EQ(S.arenaBytes(), 0u);
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  // A stored clause costs its 4 header words plus its literals, 4 bytes
  // each.
  S.addClause(pos(A), pos(B), pos(C));
  EXPECT_EQ(S.arenaBytes(), (4u + 3u) * 4u);
  S.addClause(neg(A), pos(B));
  EXPECT_EQ(S.arenaBytes(), (4u + 3u) * 4u + (4u + 2u) * 4u);
  EXPECT_EQ(S.stats().ArenaBytesPeak, S.arenaBytes());
  // Unit clauses are enqueued, not stored: no arena growth.
  uint64_t BeforeUnit = S.arenaBytes();
  S.addClause(pos(A));
  EXPECT_EQ(S.arenaBytes(), BeforeUnit);
  // Deleting the now-satisfied clauses returns their bytes; the peak
  // stays where it was.
  uint64_t Peak = S.stats().ArenaBytesPeak;
  S.simplify();
  EXPECT_EQ(S.arenaBytes(), 0u);
  EXPECT_EQ(S.stats().ArenaBytesPeak, Peak);
}

TEST(SatReduce, CountersAreMonotoneAcrossQueries) {
  SatSolver S;
  S.setReducePolicy(aggressivePolicy());
  Var Act = addGatedPigeonHole(S, 6);
  uint64_t Deleted = 0, Runs = 0, Arena = 0, Learnts = 0;
  for (int I = 0; I < 4; ++I) {
    EXPECT_FALSE(S.solveUnderAssumptions({pos(Act)}));
    const SatSolver::Stats &St = S.stats();
    EXPECT_GE(St.ClausesDeleted, Deleted);
    EXPECT_GE(St.ReduceDbRuns, Runs);
    EXPECT_GE(St.ArenaBytesPeak, Arena);
    EXPECT_GE(St.LearntPeak, Learnts);
    Deleted = St.ClausesDeleted;
    Runs = St.ReduceDbRuns;
    Arena = St.ArenaBytesPeak;
    Learnts = St.LearntPeak;
  }
  EXPECT_GT(Runs, 0u);
  EXPECT_GT(Deleted, 0u);
}

/// The clauses of every Delete event in \p Events, each sorted.
std::vector<std::vector<Lit>> deletedClauses(
    const std::vector<ProofEvent> &Events) {
  std::vector<std::vector<Lit>> Out;
  for (const ProofEvent &E : Events) {
    if (E.K != ProofEvent::Kind::Delete)
      continue;
    std::vector<Lit> C = E.Lits;
    std::sort(C.begin(), C.end(),
              [](Lit A, Lit B) { return A.X < B.X; });
    Out.push_back(C);
  }
  return Out;
}

/// Sorted copy of a clause, to compare with deletedClauses().
std::vector<Lit> sorted(std::vector<Lit> C) {
  std::sort(C.begin(), C.end(), [](Lit A, Lit B) { return A.X < B.X; });
  return C;
}

/// A learnt clause that is the reason of a level-0 assignment while it is
/// a reduceDB candidate (learnt, ternary, LBD above the glue bound) is
/// kept, however cold, in every reduction; the cold half is taken from
/// the others.
TEST(SatReduce, LevelZeroReasonIsLockedAgainstDeletion) {
  SatSolver S;
  ProofStream Proof;
  S.setProofSink(&Proof);
  S.setReducePolicy(disabledPolicy());
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), X = S.newVar();
  Var P = S.newVar(), Q = S.newVar();
  // (c ∨ ¬a ∨ x) and (c ∨ ¬b ∨ ¬x) resolve to the reason below; (p ∨ q)
  // subsumes the three other learnt clauses.
  S.addClause(pos(C), neg(A), pos(X));
  S.addClause(pos(C), neg(B), neg(X));
  S.addClause(pos(P), pos(Q));
  std::vector<Lit> Reason{pos(C), neg(A), neg(B)};
  std::vector<std::vector<Lit>> Others;
  for (int I = 0; I < 3; ++I)
    Others.push_back({pos(P), pos(Q), Lit::mk(S.newVar(), false)});
  // The reason is the coldest candidate: lowest activity.
  SatSolverTestAccess::addLearnt(S, Reason, 3, 0.5f);
  for (size_t I = 0; I < Others.size(); ++I)
    SatSolverTestAccess::addLearnt(S, Others[I], 3, float(I + 1));
  // Level-0 units a and b make the learnt clause the reason for c.
  S.addClause(pos(A));
  S.addClause(pos(B));

  // Three unlocked candidates: the coldest one goes.
  SatSolverTestAccess::reduceDB(S);
  EXPECT_EQ(deletedClauses(Proof.Events),
            std::vector<std::vector<Lit>>{sorted(Others[0])});
  // The lock is re-established on the compacted arena: of the two
  // unlocked candidates left, the colder goes, and the reason stays.
  SatSolverTestAccess::reduceDB(S);
  EXPECT_EQ(deletedClauses(Proof.Events),
            (std::vector<std::vector<Lit>>{sorted(Others[0]),
                                           sorted(Others[1])}));
  EXPECT_EQ(S.stats().ClausesDeleted, 2u);
  EXPECT_EQ(S.numLearntClauses(), 2u);
  ASSERT_TRUE(S.solve());
  EXPECT_TRUE(S.modelValue(C));
}

/// reduceDB's order: highest LBD first, then lowest activity, then the
/// older clause (lower arena offset); the first half of that order is
/// deleted. Each case plants four ternary learnt clauses and names the
/// two that must go.
TEST(SatReduce, ColdOrderBreaksLbdAndActivityTiesByAge) {
  struct Case {
    const char *Name;
    uint32_t Lbd[4];
    float Act[4];
    size_t Deleted[2];
  };
  const Case Cases[] = {
      {"LBD and activity tie: the two oldest go", {3, 3, 3, 3},
       {1.f, 1.f, 1.f, 1.f}, {0, 1}},
      {"activity tie at the half boundary", {4, 4, 4, 4},
       {1.f, 2.f, 1.f, 1.f}, {0, 2}},
      {"LBD tie, activity decides", {3, 3, 3, 3}, {4.f, 1.f, 3.f, 2.f},
       {1, 3}},
      {"LBD decides before activity", {3, 5, 4, 3}, {0.1f, 9.f, 1.f, 5.f},
       {1, 2}},
  };
  for (const Case &K : Cases) {
    SatSolver S;
    ProofStream Proof;
    S.setProofSink(&Proof);
    S.setReducePolicy(disabledPolicy());
    Var P = S.newVar(), Q = S.newVar();
    S.addClause(pos(P), pos(Q));
    std::vector<std::vector<Lit>> Learnts;
    for (int I = 0; I < 4; ++I) {
      Learnts.push_back({pos(P), pos(Q), Lit::mk(S.newVar(), false)});
      SatSolverTestAccess::addLearnt(S, Learnts.back(), K.Lbd[I], K.Act[I]);
    }
    SatSolverTestAccess::reduceDB(S);
    // Delete events follow arena order.
    std::vector<std::vector<Lit>> Expected{
        sorted(Learnts[std::min(K.Deleted[0], K.Deleted[1])]),
        sorted(Learnts[std::max(K.Deleted[0], K.Deleted[1])])};
    EXPECT_EQ(deletedClauses(Proof.Events), Expected) << K.Name;
    EXPECT_TRUE(S.solve()) << K.Name;
  }
}

//===----------------------------------------------------------------------===//
// Differential fuzzing against a reference DPLL
//===----------------------------------------------------------------------===//

/// Minimal, obviously-correct DPLL with unit propagation.
class Dpll {
public:
  Dpll(std::vector<std::vector<Lit>> Clauses, int NumVars)
      : Clauses(std::move(Clauses)), Assign(NumVars, -1) {}

  bool solve() { return search(); }

private:
  enum ClauseState { Satisfied, Falsified, UnitAt, Unresolved };

  ClauseState classify(const std::vector<Lit> &C, Lit &Unit) const {
    size_t Free = 0;
    for (Lit L : C) {
      int V = Assign[L.var()];
      if (V < 0) {
        ++Free;
        Unit = L;
        continue;
      }
      if (bool(V) != L.negated())
        return Satisfied; // Literal true.
    }
    if (Free == 0)
      return Falsified;
    return Free == 1 ? UnitAt : Unresolved;
  }

  bool search() {
    // Propagate to fixpoint.
    std::vector<int> Trail;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const auto &C : Clauses) {
        Lit Unit = Lit::undef();
        switch (classify(C, Unit)) {
        case Falsified:
          for (int V : Trail)
            Assign[V] = -1;
          return false;
        case UnitAt:
          Assign[Unit.var()] = Unit.negated() ? 0 : 1;
          Trail.push_back(Unit.var());
          Changed = true;
          break;
        case Satisfied:
        case Unresolved:
          break;
        }
      }
    }
    int Branch = -1;
    for (size_t V = 0; V < Assign.size(); ++V)
      if (Assign[V] < 0) {
        Branch = int(V);
        break;
      }
    if (Branch < 0) {
      for (int V : Trail)
        Assign[V] = -1;
      return true;
    }
    for (int Value : {0, 1}) {
      Assign[Branch] = Value;
      if (search()) {
        for (int V : Trail)
          Assign[V] = -1;
        Assign[Branch] = -1;
        return true;
      }
    }
    Assign[Branch] = -1;
    for (int V : Trail)
      Assign[V] = -1;
    return false;
  }

  std::vector<std::vector<Lit>> Clauses;
  std::vector<int> Assign; ///< -1 unassigned, else 0/1.
};

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

class SatFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SatFuzz, MatchesDpllAndModelsCheck) {
  leapfrog::testing::reportFuzzConfig("SatFuzz", fuzzIters(400),
                                      uint64_t(GetParam()));
  Rng R{uint64_t(GetParam())};
  int NumVars = 4 + int(R.below(9));
  // Around the 3-SAT phase transition (ratio ~4.3) plus denser instances.
  size_t NumClauses = size_t(NumVars) * (3 + R.below(3));
  std::vector<std::vector<Lit>> Clauses;
  for (size_t I = 0; I < NumClauses; ++I) {
    std::vector<Lit> C;
    size_t Len = 1 + R.below(3);
    for (size_t K = 0; K < Len; ++K)
      C.push_back(Lit::mk(Var(R.below(NumVars)), R.below(2)));
    Clauses.push_back(std::move(C));
  }

  SatSolver S;
  for (int V = 0; V < NumVars; ++V)
    (void)S.newVar();
  bool AddOk = true;
  for (const auto &C : Clauses)
    AddOk &= S.addClause(C);
  bool Cdcl = AddOk && S.solve();
  bool Reference = Dpll(Clauses, NumVars).solve();
  ASSERT_EQ(Cdcl, Reference) << "CDCL disagrees with DPLL on seed "
                             << GetParam();
  if (!Cdcl)
    return;
  // The model must satisfy every clause.
  for (const auto &C : Clauses) {
    bool Satisfied = false;
    for (Lit L : C)
      Satisfied |= S.modelValue(L.var()) != L.negated();
    EXPECT_TRUE(Satisfied) << "model does not satisfy a clause, seed "
                           << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SatFuzz,
                         ::testing::Range(0, fuzzIters(400)));

/// Incremental differential fuzz: one long-lived CDCL instance answers a
/// sequence of assumption queries interleaved with clause additions; every
/// answer is checked against a fresh DPLL run on (clauses + assumptions as
/// units), and every UNSAT failed-assumption set is re-validated to be
/// genuinely unsatisfiable with the clauses. This is exactly the usage
/// profile of the entailment sessions in smt/Solver.h.
class SatIncrementalFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SatIncrementalFuzz, MatchesDpllAcrossQuerySequence) {
  leapfrog::testing::reportFuzzConfig("SatIncrementalFuzz", fuzzIters(200),
                                      uint64_t(GetParam()) + 12345);
  Rng R{uint64_t(GetParam()) + 12345};
  int NumVars = 5 + int(R.below(8));
  SatSolver S;
  for (int V = 0; V < NumVars; ++V)
    (void)S.newVar();
  std::vector<std::vector<Lit>> Clauses;
  bool AddOk = true;

  auto AddRandomClauses = [&](size_t Count) {
    for (size_t I = 0; I < Count; ++I) {
      std::vector<Lit> C;
      size_t Len = 1 + R.below(3);
      for (size_t K = 0; K < Len; ++K)
        C.push_back(Lit::mk(Var(R.below(NumVars)), R.below(2)));
      Clauses.push_back(C);
      AddOk &= S.addClause(C);
    }
  };

  AddRandomClauses(size_t(NumVars) * 2);
  for (int Round = 0; Round < 10; ++Round) {
    // A random assumption set (possibly with duplicates/contradictions);
    // always ≥1 so every round exercises the multi-assumption machinery,
    // including analyzeFinal's Seen-bit hygiene across calls.
    std::vector<Lit> Assumptions;
    for (size_t K = 1 + R.below(4); K > 0; --K)
      Assumptions.push_back(Lit::mk(Var(R.below(NumVars)), R.below(2)));

    std::vector<std::vector<Lit>> WithUnits = Clauses;
    for (Lit A : Assumptions)
      WithUnits.push_back({A});
    bool Reference = Dpll(WithUnits, NumVars).solve();
    bool Cdcl = AddOk && S.solveUnderAssumptions(Assumptions);
    ASSERT_EQ(Cdcl, Reference)
        << "incremental CDCL disagrees with DPLL, seed " << GetParam()
        << " round " << Round;

    if (Cdcl) {
      for (const auto &C : Clauses) {
        bool Satisfied = false;
        for (Lit L : C)
          Satisfied |= S.modelValue(L.var()) != L.negated();
        EXPECT_TRUE(Satisfied) << "model violates a clause, seed "
                               << GetParam() << " round " << Round;
      }
      for (Lit A : Assumptions)
        EXPECT_TRUE(S.modelValue(A.var()) != A.negated())
            << "model violates an assumption, seed " << GetParam();
    } else if (AddOk && !S.failedAssumptions().empty()) {
      // The failed set must (a) be a subset of the assumptions and
      // (b) be jointly unsatisfiable with the clauses.
      std::vector<std::vector<Lit>> Core = Clauses;
      for (Lit F : S.failedAssumptions()) {
        bool IsAssumption = false;
        for (Lit A : Assumptions)
          IsAssumption |= A == F;
        EXPECT_TRUE(IsAssumption)
            << "failed set contains a non-assumption, seed " << GetParam();
        Core.push_back({F});
      }
      EXPECT_FALSE(Dpll(Core, NumVars).solve())
          << "failed-assumption set is not an unsat core, seed "
          << GetParam() << " round " << Round;
    }
    // Grow the instance between queries (the checker's R keeps growing).
    AddRandomClauses(1 + R.below(3));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SatIncrementalFuzz,
                         ::testing::Range(0, fuzzIters(200)));

/// Clause-DB management differential fuzz: the same random incremental
/// workload — clause additions, assumption queries, activation-guarded
/// clause groups that get retired and hard-deleted — is solved by one
/// solver with reduceDB forced onto the aggressive schedule and one with
/// reduction disabled. Both must agree with each other and with a DPLL
/// run over the full logical clause set (retired groups stay in the DPLL
/// set: their guards are falsified by the retirement units, so agreement
/// proves deletion changed no answer); every UNSAT failed-assumption set
/// is re-validated as a genuine core, and every model is checked against
/// every clause ever added — including ones the solvers deleted.
class SatReduceFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SatReduceFuzz, ReductionAndPurgeChangeNoAnswer) {
  leapfrog::testing::reportFuzzConfig("SatReduceFuzz", fuzzIters(200),
                                      uint64_t(GetParam()) + 424242);
  Rng R{uint64_t(GetParam()) + 424242};
  int NumVars = 6 + int(R.below(8));
  SatSolver Reducing, Plain;
  Reducing.setReducePolicy(aggressivePolicy());
  Plain.setReducePolicy(disabledPolicy());
  // Variable allocation must stay aligned between the two solvers.
  auto NewVar = [&]() {
    Var V = Reducing.newVar();
    Var V2 = Plain.newVar();
    EXPECT_EQ(V, V2);
    return V;
  };
  for (int V = 0; V < NumVars; ++V)
    (void)NewVar();

  std::vector<std::vector<Lit>> AllClauses; ///< The logical clause set.
  bool AddOk = true;
  auto Add = [&](std::vector<Lit> C) {
    AllClauses.push_back(C);
    AddOk &= Reducing.addClause(C);
    AddOk &= Plain.addClause(std::move(C));
  };
  auto RandomLit = [&]() {
    return Lit::mk(Var(R.below(size_t(NumVars))), R.below(2));
  };
  auto AddRandomClauses = [&](size_t Count, Lit Guard) {
    for (size_t I = 0; I < Count; ++I) {
      std::vector<Lit> C;
      if (Guard != Lit::undef())
        C.push_back(~Guard);
      for (size_t K = 1 + R.below(3); K > 0; --K)
        C.push_back(RandomLit());
      Add(std::move(C));
    }
  };

  AddRandomClauses(size_t(NumVars) * 2, Lit::undef());
  std::vector<Lit> LiveGroups; ///< Activation literals not yet retired.
  int TotalVars = NumVars;
  for (int Round = 0; Round < 12; ++Round) {
    // Open a fresh activation-guarded group some rounds; its clauses are
    // only in force while its activation literal is assumed.
    if (R.below(2) == 0) {
      Lit Act = Lit::mk(NewVar(), false);
      ++TotalVars;
      AddRandomClauses(1 + R.below(4), Act);
      LiveGroups.push_back(Act);
    }

    // Query under random assumptions plus every live group's activation.
    std::vector<Lit> Assumptions = LiveGroups;
    for (size_t K = R.below(3); K > 0; --K)
      Assumptions.push_back(RandomLit());

    std::vector<std::vector<Lit>> WithUnits = AllClauses;
    for (Lit A : Assumptions)
      WithUnits.push_back({A});
    bool Reference = Dpll(WithUnits, TotalVars).solve();
    bool GotReducing = AddOk && Reducing.solveUnderAssumptions(Assumptions);
    bool GotPlain = AddOk && Plain.solveUnderAssumptions(Assumptions);
    ASSERT_EQ(GotReducing, Reference)
        << "reduceDB solver diverges from DPLL, seed " << GetParam()
        << " round " << Round;
    ASSERT_EQ(GotPlain, Reference)
        << "reduce-off solver diverges from DPLL, seed " << GetParam()
        << " round " << Round;

    for (SatSolver *S : {&Reducing, &Plain}) {
      if (Reference) {
        // The model must satisfy every clause ever added — deleted ones
        // included, which is precisely what makes deletion sound: they
        // are all satisfied by the retirement units the model contains.
        for (const auto &C : AllClauses) {
          bool Satisfied = false;
          for (Lit L : C)
            Satisfied |= S->modelValue(L.var()) != L.negated();
          EXPECT_TRUE(Satisfied)
              << "model violates a clause, seed " << GetParam() << " round "
              << Round;
        }
        for (Lit A : Assumptions)
          EXPECT_TRUE(S->modelValue(A.var()) != A.negated())
              << "model violates an assumption, seed " << GetParam();
      } else if (AddOk && !S->failedAssumptions().empty()) {
        std::vector<std::vector<Lit>> Core = AllClauses;
        for (Lit F : S->failedAssumptions()) {
          bool IsAssumption = false;
          for (Lit A : Assumptions)
            IsAssumption |= A == F;
          EXPECT_TRUE(IsAssumption)
              << "failed set contains a non-assumption, seed " << GetParam();
          Core.push_back({F});
        }
        EXPECT_FALSE(Dpll(Core, TotalVars).solve())
            << "failed-assumption set is not an unsat core, seed "
            << GetParam() << " round " << Round;
      }
    }

    // Retire a group now and then: both solvers hard-delete everything
    // the activation literal guarded; the logical set keeps the clauses
    // and gains the retirement unit.
    if (!LiveGroups.empty() && R.below(3) == 0) {
      size_t Pick = R.below(LiveGroups.size());
      Lit Act = LiveGroups[Pick];
      LiveGroups.erase(LiveGroups.begin() + long(Pick));
      Add({~Act});
      Reducing.simplify();
      Plain.simplify();
    }
    AddRandomClauses(R.below(3), Lit::undef());
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SatReduceFuzz,
                         ::testing::Range(0, fuzzIters(200)));

//===----------------------------------------------------------------------===//
// Decision flags: a retired scope's variables leave the search.
//===----------------------------------------------------------------------===//

TEST(SatDecision, UndecidedVariableReadsFalse) {
  SatSolver S;
  Var X = S.newVar(), Y = S.newVar(), Z = S.newVar();
  ASSERT_TRUE(S.addClause(pos(X), pos(Y)));
  // Z occurs in no clause; with its flag off it is never decided.
  S.setDecisionVar(Z, false);
  ASSERT_TRUE(S.solve());
  EXPECT_TRUE(S.modelValue(X) || S.modelValue(Y));
  EXPECT_FALSE(S.modelValue(Z)); // Free, unassigned, and no assert.
}

TEST(SatDecision, RetiredGroupVariablesAreNotDecided) {
  SatSolver S;
  (void)S.newVar(); // One live variable, in no clause.
  Var Act = S.newVar();
  std::vector<Var> Local;
  for (int I = 0; I < 20; ++I) {
    Local.push_back(S.newVar());
    ASSERT_TRUE(S.addClause(neg(Act), pos(Local.back())));
  }
  ASSERT_TRUE(S.solveUnderAssumptions({pos(Act)}));
  for (Var V : Local)
    EXPECT_TRUE(S.modelValue(V));
  // Retire: ¬act at level 0 satisfies every group clause, so the group's
  // variables may leave the search.
  ASSERT_TRUE(S.addClause(neg(Act)));
  for (Var V = Act; V < Var(S.numVars()); ++V)
    S.setDecisionVar(V, false);
  uint64_t Before = S.stats().Decisions;
  ASSERT_TRUE(S.solve());
  // Only the one live variable is decided.
  EXPECT_EQ(S.stats().Decisions - Before, 1u);
  for (Var V : Local)
    EXPECT_FALSE(S.modelValue(V));
  EXPECT_FALSE(S.modelValue(Act));
}

TEST(SatDecision, NewClauseReenablesItsVariables) {
  SatSolver S;
  Var G1 = S.newVar(), G2 = S.newVar();
  S.setDecisionVar(G1, false);
  S.setDecisionVar(G2, false);
  // Both variables were switched off; the clause brings them back, or the
  // solver would answer SAT with the clause unassigned.
  ASSERT_TRUE(S.addClause(pos(G1), pos(G2)));
  ASSERT_TRUE(S.solve());
  EXPECT_TRUE(S.modelValue(G1) || S.modelValue(G2));
}

/// Differential fence for decision flags. One long-lived solver runs a
/// random incremental workload — unguarded clauses, activation-guarded
/// groups with variables of their own, retirements that clear the flags
/// of everything the group allocated, and interleaved simplify() — while
/// later clauses keep mentioning variables first used inside a retired
/// group. After every solve the answer must equal a fresh SatSolver built
/// from the live clauses alone (unguarded ones plus the unretired
/// groups'), and every model must satisfy every clause ever added: the
/// live ones by construction, the retired ones through their retirement
/// units.
class SatDecisionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SatDecisionFuzz, ClearedFlagsChangeNoAnswer) {
  leapfrog::testing::reportFuzzConfig("SatDecisionFuzz", fuzzIters(300),
                                      uint64_t(GetParam()) + 777);
  Rng R{uint64_t(GetParam()) + 777};
  SatSolver S;
  if (R.below(2) == 0)
    S.setReducePolicy(aggressivePolicy());
  int NumShared = 4 + int(R.below(6));
  for (int V = 0; V < NumShared; ++V)
    (void)S.newVar();

  struct Group {
    Lit Act;
    Var End; ///< One past the group's last variable.
    std::vector<std::vector<Lit>> Clauses;
  };
  std::vector<std::vector<Lit>> Unguarded; ///< Live forever.
  std::vector<Group> LiveGroups;
  std::vector<std::vector<Lit>> AllClauses; ///< Retired ones too.
  std::vector<Var> RetiredLocals; ///< Variables first used in a retired
                                  ///< group; later clauses reuse them.
  bool AddOk = true;
  auto Add = [&](std::vector<Lit> C) {
    AllClauses.push_back(C);
    AddOk &= S.addClause(std::move(C));
  };
  auto SharedLit = [&]() {
    return Lit::mk(Var(R.below(size_t(NumShared))), R.below(2));
  };
  // Up to two literals over variables of retired groups. A clause made of
  // two of them alone is never unit, so only its decision flags get its
  // variables assigned.
  auto AppendRetired = [&](std::vector<Lit> &C) {
    if (RetiredLocals.empty())
      return;
    for (size_t K = R.below(3); K > 0; --K)
      C.push_back(Lit::mk(RetiredLocals[R.below(RetiredLocals.size())],
                          R.below(2)));
  };
  // An unguarded clause over shared variables, often reaching back to
  // retired groups' variables.
  auto AddUnguarded = [&]() {
    std::vector<Lit> C;
    AppendRetired(C);
    for (size_t K = (C.empty() ? 1 : 0) + R.below(3); K > 0; --K)
      C.push_back(SharedLit());
    Unguarded.push_back(C);
    Add(std::move(C));
  };

  for (size_t I = size_t(NumShared); I > 0; --I)
    AddUnguarded();
  for (int Round = 0; Round < 14; ++Round) {
    // Open a group: an activation variable plus local variables of its
    // own, allocated after it (the session's scope layout).
    if (R.below(3) != 0) {
      Group G;
      G.Act = Lit::mk(S.newVar(), false);
      std::vector<Var> Local;
      for (size_t K = 1 + R.below(4); K > 0; --K)
        Local.push_back(S.newVar());
      G.End = Var(S.numVars());
      for (size_t I = 1 + R.below(5); I > 0; --I) {
        std::vector<Lit> C{~G.Act};
        for (size_t K = 1 + R.below(3); K > 0; --K)
          C.push_back(R.below(2) == 0
                          ? SharedLit()
                          : Lit::mk(Local[R.below(Local.size())],
                                    R.below(2)));
        AppendRetired(C);
        G.Clauses.push_back(C);
        Add(std::move(C));
      }
      LiveGroups.push_back(std::move(G));
    }

    std::vector<Lit> Assumptions;
    for (const Group &G : LiveGroups)
      if (R.below(4) != 0)
        Assumptions.push_back(G.Act);
    for (size_t K = R.below(3); K > 0; --K)
      Assumptions.push_back(SharedLit());

    SatSolver Fresh;
    for (size_t V = 0; V < S.numVars(); ++V)
      (void)Fresh.newVar();
    bool FreshOk = true;
    for (const auto &C : Unguarded)
      FreshOk &= Fresh.addClause(C);
    for (const Group &G : LiveGroups)
      for (const auto &C : G.Clauses)
        FreshOk &= Fresh.addClause(C);
    bool Reference = FreshOk && Fresh.solveUnderAssumptions(Assumptions);
    bool Got = AddOk && S.solveUnderAssumptions(Assumptions);
    ASSERT_EQ(Got, Reference)
        << "decision flags changed an answer, seed " << GetParam()
        << " round " << Round;
    if (Got) {
      for (const auto &C : AllClauses) {
        bool Satisfied = false;
        for (Lit L : C)
          Satisfied |= S.modelValue(L.var()) != L.negated();
        EXPECT_TRUE(Satisfied) << "model violates a clause, seed "
                               << GetParam() << " round " << Round;
      }
      for (Lit A : Assumptions)
        EXPECT_TRUE(S.modelValue(A.var()) != A.negated())
            << "model violates an assumption, seed " << GetParam();
    }

    // Retire a group: ¬act at level 0, then every variable the group
    // allocated leaves the search.
    if (!LiveGroups.empty() && R.below(2) == 0) {
      size_t Pick = R.below(LiveGroups.size());
      Var First = LiveGroups[Pick].Act.var();
      Var End = LiveGroups[Pick].End;
      Add({~LiveGroups[Pick].Act});
      LiveGroups.erase(LiveGroups.begin() + long(Pick));
      for (Var V = First; V < End; ++V) {
        S.setDecisionVar(V, false);
        if (V != First)
          RetiredLocals.push_back(V);
      }
    }
    if (R.below(3) == 0)
      S.simplify();
    for (size_t I = R.below(3); I > 0; --I)
      AddUnguarded();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SatDecisionFuzz,
                         ::testing::Range(0, fuzzIters(300)));


//===----------------------------------------------------------------------===//
// Clause arena: compaction moves clauses, never the search.
//===----------------------------------------------------------------------===//

/// A random clause of 1–3 literals over variables [0, NumVars).
std::vector<Lit> randomClause(Rng &R, size_t NumVars) {
  std::vector<Lit> C;
  for (size_t K = 1 + R.below(3); K > 0; --K)
    C.push_back(Lit::mk(Var(R.below(NumVars)), R.below(2)));
  return C;
}

/// Differential fence for the clause arena. One long-lived solver on a
/// reduceDB schedule that fires at every restart (FirstReduce 1–4, no
/// growth, glue 0–2) answers a random incremental workload near the
/// 3-SAT threshold — hard enough to restart within a solve — made of
/// activation-guarded groups with variables of their own, retirements
/// that clear their flags and compact the arena with simplify(), and
/// units taken from the last model. A unit can turn learnt clauses into
/// reasons of level-0 assignments, which reduceDB must lock and every
/// compaction must forward. After every solve the answer must equal a
/// fresh solver's over the live clauses; every model must satisfy every
/// clause ever added, and every failed-assumption set must be a core.
class SatArenaFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SatArenaFuzz, CompactionChangesNoAnswer) {
  leapfrog::testing::reportFuzzConfig("SatArenaFuzz", fuzzIters(60),
                                      uint64_t(GetParam()) + 9090);
  Rng R{uint64_t(GetParam()) + 9090};
  SatSolver S;
  SatSolver::ReducePolicy P;
  P.FirstReduce = 1 + R.below(4);
  P.Growth = 1.0;
  P.GlueLbd = uint32_t(R.below(3));
  S.setReducePolicy(P);
  size_t NumShared = 90 + R.below(40);
  for (size_t V = 0; V < NumShared; ++V)
    (void)S.newVar();

  struct Group {
    Lit Act;
    Var End; ///< One past the group's last variable.
    std::vector<std::vector<Lit>> Clauses;
  };
  std::vector<std::vector<Lit>> Unguarded; ///< Live forever.
  std::vector<Group> LiveGroups;
  std::vector<std::vector<Lit>> AllClauses; ///< Retired ones too.
  bool AddOk = true;
  auto Add = [&](std::vector<Lit> C) {
    AllClauses.push_back(C);
    AddOk &= S.addClause(C);
  };
  auto AddUnguarded = [&](std::vector<Lit> C) {
    Unguarded.push_back(C);
    Add(std::move(C));
  };
  // About 4.2 3-literal clauses per variable: at the threshold.
  for (size_t I = NumShared * 21 / 5; I > 0; --I) {
    std::vector<Lit> C;
    for (int K = 0; K < 3; ++K)
      C.push_back(Lit::mk(Var(R.below(NumShared)), R.below(2)));
    AddUnguarded(std::move(C));
  }
  std::vector<Lit> LastModel; ///< Shared literals true in the last model.
  for (int Round = 0; Round < 10 && AddOk; ++Round) {
    if (R.below(3) != 0) {
      Group G;
      G.Act = Lit::mk(S.newVar(), false);
      Var FirstLocal = Var(S.numVars());
      for (size_t K = 2 + R.below(6); K > 0; --K)
        (void)S.newVar();
      G.End = Var(S.numVars());
      for (size_t I = 2 + R.below(8); I > 0; --I) {
        std::vector<Lit> C = randomClause(R, NumShared);
        C.push_back(~G.Act);
        C.push_back(Lit::mk(FirstLocal + Var(R.below(size_t(G.End -
                                                            FirstLocal))),
                            R.below(2)));
        G.Clauses.push_back(C);
        Add(std::move(C));
      }
      LiveGroups.push_back(std::move(G));
    }
    // A unit agreeing with the last model keeps the shared clauses
    // satisfiable while fixing facts at level 0.
    for (size_t K = LastModel.empty() ? 0 : R.below(4); K > 0; --K)
      AddUnguarded({LastModel[R.below(LastModel.size())]});

    std::vector<Lit> Assumptions;
    for (const Group &G : LiveGroups)
      if (R.below(4) != 0)
        Assumptions.push_back(G.Act);
    for (size_t K = R.below(3); K > 0; --K)
      Assumptions.push_back(Lit::mk(Var(R.below(NumShared)), R.below(2)));

    std::vector<std::vector<Lit>> Live = Unguarded;
    for (const Group &G : LiveGroups)
      Live.insert(Live.end(), G.Clauses.begin(), G.Clauses.end());
    SatSolver Fresh;
    for (size_t V = 0; V < S.numVars(); ++V)
      (void)Fresh.newVar();
    bool FreshOk = true;
    for (const auto &C : Live)
      FreshOk &= Fresh.addClause(C);
    bool Reference = FreshOk && Fresh.solveUnderAssumptions(Assumptions);
    bool Got = AddOk && S.solveUnderAssumptions(Assumptions);
    ASSERT_EQ(Got, Reference) << "the arena solver diverges, seed "
                              << GetParam() << " round " << Round;
    if (Got) {
      for (const auto &C : AllClauses) {
        bool Satisfied = false;
        for (Lit L : C)
          Satisfied |= S.modelValue(L.var()) != L.negated();
        EXPECT_TRUE(Satisfied) << "model violates a clause, seed "
                               << GetParam() << " round " << Round;
      }
      for (Lit A : Assumptions)
        EXPECT_TRUE(S.modelValue(A.var()) != A.negated())
            << "model violates an assumption, seed " << GetParam();
      LastModel.clear();
      for (size_t V = 0; V < NumShared; ++V)
        LastModel.push_back(Lit::mk(Var(V), !S.modelValue(Var(V))));
    } else if (AddOk && !S.failedAssumptions().empty()) {
      SatSolver Core;
      for (size_t V = 0; V < S.numVars(); ++V)
        (void)Core.newVar();
      bool CoreOk = true;
      for (const auto &C : Live)
        CoreOk &= Core.addClause(C);
      EXPECT_FALSE(CoreOk &&
                   Core.solveUnderAssumptions(S.failedAssumptions()))
          << "failed-assumption set is not a core, seed " << GetParam()
          << " round " << Round;
    }

    // Retire a group the way a session does: ¬act at level 0, its
    // variables out of the search, then a compaction.
    if (!LiveGroups.empty() && R.below(2) == 0) {
      size_t Pick = R.below(LiveGroups.size());
      Var First = LiveGroups[Pick].Act.var();
      Var End = LiveGroups[Pick].End;
      Add({~LiveGroups[Pick].Act});
      LiveGroups.erase(LiveGroups.begin() + long(Pick));
      for (Var V = First; V < End; ++V)
        S.setDecisionVar(V, false);
      S.simplify();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SatArenaFuzz,
                         ::testing::Range(0, fuzzIters(60)));

/// The fixed workload of SatPinned: random 3-SAT near the threshold plus
/// guarded groups, retired and purged one per round, with a model unit
/// after every SAT answer and reduceDB at every restart. Returns the
/// answers, one bit per round.
uint64_t runPinnedWorkload(SatSolver &S) {
  Rng R{2022};
  SatSolver::ReducePolicy P;
  P.FirstReduce = 2;
  P.Growth = 1.0;
  P.GlueLbd = 1;
  S.setReducePolicy(P);
  const size_t NumShared = 200;
  for (size_t V = 0; V < NumShared; ++V)
    (void)S.newVar();
  for (size_t I = 0; I < 820; ++I) {
    std::vector<Lit> C;
    for (int K = 0; K < 3; ++K)
      C.push_back(Lit::mk(Var(R.below(NumShared)), R.below(2)));
    S.addClause(C);
  }
  uint64_t Answers = 0;
  for (int Round = 0; Round < 12; ++Round) {
    Lit Act = Lit::mk(S.newVar(), false);
    Var FirstLocal = Var(S.numVars());
    for (int K = 0; K < 8; ++K)
      (void)S.newVar();
    for (int I = 0; I < 16; ++I) {
      std::vector<Lit> C = randomClause(R, NumShared);
      C.push_back(~Act);
      C.push_back(Lit::mk(FirstLocal + Var(R.below(8)), R.below(2)));
      S.addClause(C);
    }
    std::vector<Lit> Assumptions{Act};
    for (int K = 0; K < 2; ++K)
      Assumptions.push_back(Lit::mk(Var(R.below(NumShared)), R.below(2)));
    bool Sat = S.solveUnderAssumptions(Assumptions);
    Answers |= uint64_t(Sat) << Round;
    Lit Unit = Lit::undef();
    if (Sat) {
      Var V = Var(R.below(NumShared));
      Unit = Lit::mk(V, !S.modelValue(V));
    }
    S.addClause(~Act);
    for (Var V = Act.var(); V < Var(S.numVars()); ++V)
      S.setDecisionVar(V, false);
    S.simplify();
    if (Unit != Lit::undef())
      S.addClause(Unit);
  }
  return Answers;
}

/// FNV-1a over a proof stream: each event's kind, length and literals.
uint64_t hashEvents(const std::vector<ProofEvent> &Events) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t X) {
    H ^= X;
    H *= 1099511628211ull;
  };
  for (const ProofEvent &E : Events) {
    Mix(uint64_t(E.K));
    Mix(E.Lits.size());
    for (Lit L : E.Lits)
      Mix(uint64_t(uint32_t(L.X)));
  }
  return H;
}

/// Pins the search itself. The clause store may change layout, but the
/// clause order, the literal order inside each clause (watch swaps
/// included) and the watch order decide every propagation; a change to
/// any of them moves these counters or the proof stream (deletions carry
/// the literal order). The figures are those of the solver before the
/// clause arena, run on this same workload.
TEST(SatPinned, SearchIsBitIdentical) {
  SatSolver S;
  ProofStream Proof;
  S.setProofSink(&Proof);
  uint64_t Answers = runPinnedWorkload(S);
  const SatSolver::Stats &St = S.stats();
  EXPECT_EQ(Answers, 0xfffu);
  EXPECT_EQ(St.Decisions, 2240u);
  EXPECT_EQ(St.Propagations, 58950u);
  EXPECT_EQ(St.Conflicts, 1306u);
  EXPECT_EQ(St.Restarts, 15u);
  EXPECT_EQ(St.ClausesDeleted, 1480u);
  EXPECT_EQ(St.ReduceDbRuns, 15u);
  EXPECT_EQ(St.LearntPeak, 213u);
  EXPECT_EQ(Proof.Events.size(), 3831u);
  EXPECT_EQ(hashEvents(Proof.Events), 7465264720428061951ull);
}

} // namespace
