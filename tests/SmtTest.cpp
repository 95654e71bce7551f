//===- SmtTest.cpp - FOL(BV), bit-blasting, SMT-LIB tests -----------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the FOL(BV) layer: term/formula smart constructors, the solver
/// facade (SAT with model validation / UNSAT), a randomized differential
/// test of the bit-blaster against brute-force evaluation, and the
/// SMT-LIB2 printer (including the MSB/LSB index translation and symbol
/// sanitization).
///
//===----------------------------------------------------------------------===//

#include "smt/BitBlast.h"
#include "smt/BvFormula.h"
#include "smt/ProofLog.h"
#include "smt/SmtLib.h"
#include "smt/Solver.h"

#include "FuzzSupport.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace leapfrog;
using namespace leapfrog::smt;
using leapfrog::testing::fuzzIters;

namespace {

BvTermRef var(const std::string &N, size_t W) { return BvTerm::mkVar(N, W); }
BvTermRef lit(const std::string &Bits) {
  return BvTerm::mkConst(Bitvector::fromString(Bits));
}

//===----------------------------------------------------------------------===//
// Smart constructors
//===----------------------------------------------------------------------===//

TEST(BvTerm, ConcatFoldsConstants) {
  BvTermRef T = BvTerm::mkConcat(lit("10"), lit("01"));
  ASSERT_EQ(T->kind(), BvTerm::Kind::Const);
  EXPECT_EQ(T->constValue().str(), "1001");
}

TEST(BvTerm, ConcatDropsEpsilon) {
  BvTermRef X = var("x", 3);
  EXPECT_EQ(BvTerm::mkConcat(lit(""), X), X);
  EXPECT_EQ(BvTerm::mkConcat(X, lit("")), X);
}

TEST(BvTerm, ExtractFullWidthIsIdentity) {
  BvTermRef X = var("x", 5);
  EXPECT_EQ(BvTerm::mkExtract(X, 0, 4), X);
}

TEST(BvTerm, ExtractOfConstFolds) {
  BvTermRef T = BvTerm::mkExtract(lit("110101"), 1, 3);
  ASSERT_EQ(T->kind(), BvTerm::Kind::Const);
  EXPECT_EQ(T->constValue().str(), "101");
}

TEST(BvTerm, ExtractOfExtractComposes) {
  BvTermRef X = var("x", 10);
  BvTermRef T = BvTerm::mkExtract(BvTerm::mkExtract(X, 2, 8), 1, 3);
  ASSERT_EQ(T->kind(), BvTerm::Kind::Extract);
  EXPECT_EQ(T->extractOperand(), X);
  EXPECT_EQ(T->extractLo(), 3u);
  EXPECT_EQ(T->extractHi(), 5u);
}

TEST(BvTerm, ExtractDistributesOverConcat) {
  BvTermRef X = var("x", 4), Y = var("y", 4);
  BvTermRef C = BvTerm::mkConcat(X, Y);
  // Fully inside the left operand.
  BvTermRef L = BvTerm::mkExtract(C, 1, 3);
  ASSERT_EQ(L->kind(), BvTerm::Kind::Extract);
  EXPECT_EQ(L->extractOperand(), X);
  // Fully inside the right operand.
  BvTermRef R = BvTerm::mkExtract(C, 5, 7);
  ASSERT_EQ(R->kind(), BvTerm::Kind::Extract);
  EXPECT_EQ(R->extractOperand(), Y);
  // Straddling: becomes a concat of two extracts.
  BvTermRef M = BvTerm::mkExtract(C, 2, 5);
  ASSERT_EQ(M->kind(), BvTerm::Kind::Concat);
}

TEST(BvFormula, EqFoldsConstants) {
  EXPECT_EQ(BvFormula::mkEq(lit("101"), lit("101"))->kind(),
            BvFormula::Kind::True);
  EXPECT_EQ(BvFormula::mkEq(lit("101"), lit("100"))->kind(),
            BvFormula::Kind::False);
  EXPECT_EQ(BvFormula::mkEq(lit(""), lit(""))->kind(),
            BvFormula::Kind::True);
}

TEST(BvFormula, ConnectiveIdentities) {
  BvFormulaRef P = BvFormula::mkEq(var("x", 2), lit("10"));
  EXPECT_EQ(BvFormula::mkAnd(BvFormula::mkTrue(), P), P);
  EXPECT_EQ(BvFormula::mkOr(BvFormula::mkFalse(), P), P);
  EXPECT_EQ(BvFormula::mkImplies(P, BvFormula::mkTrue())->kind(),
            BvFormula::Kind::True);
  EXPECT_EQ(BvFormula::mkNot(BvFormula::mkNot(P)), P);
}

//===----------------------------------------------------------------------===//
// Solver facade
//===----------------------------------------------------------------------===//

TEST(Solver, SatWithModel) {
  // x ++ y = 1001 with |x|=|y|=2 forces x=10, y=01.
  BitBlastSolver S;
  BvFormulaRef F = BvFormula::mkEq(
      BvTerm::mkConcat(var("x", 2), var("y", 2)), lit("1001"));
  Model M;
  ASSERT_EQ(S.checkSat(F, &M), SatResult::Sat);
  ASSERT_EQ(M.size(), 2u);
  EXPECT_TRUE(evalFormula(F, M));
}

TEST(Solver, UnsatSliceConflict) {
  // x[0:0] = 1 and x[0:0] = 0 cannot both hold.
  BitBlastSolver S;
  BvTermRef X = var("x", 3);
  BvFormulaRef F = BvFormula::mkAnd(
      BvFormula::mkEq(BvTerm::mkExtract(X, 0, 0), lit("1")),
      BvFormula::mkEq(BvTerm::mkExtract(X, 0, 0), lit("0")));
  EXPECT_EQ(S.checkSat(F, nullptr), SatResult::Unsat);
}

TEST(Solver, ValidityOfSelfEquality) {
  BitBlastSolver S;
  BvTermRef X = var("x", 64);
  EXPECT_TRUE(S.isValid(BvFormula::mkEq(X, X)));
  EXPECT_FALSE(S.isValid(BvFormula::mkEq(X, var("y", 64))));
}

TEST(Solver, ConcatSliceRoundTripIsValid) {
  // (x ++ y)[0:|x|-1] = x is valid for all x, y.
  BitBlastSolver S;
  BvTermRef X = var("x", 5), Y = var("y", 3);
  BvFormulaRef F = BvFormula::mkEq(
      BvTerm::mkExtract(BvTerm::mkConcat(X, Y), 0, 4), X);
  EXPECT_TRUE(S.isValid(F));
}

TEST(Solver, CountsQueries) {
  BitBlastSolver S;
  BvTermRef X = var("x", 4);
  S.isValid(BvFormula::mkEq(X, X));
  S.checkSat(BvFormula::mkEq(X, lit("1010")), nullptr);
  EXPECT_EQ(S.stats().Queries, 2u);
  EXPECT_EQ(S.stats().SatAnswers + S.stats().UnsatAnswers, 2u);
}

//===----------------------------------------------------------------------===//
// Differential fuzz: bit-blasting vs brute-force evaluation
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

/// Variables a random term may mention: name and width.
using VarPool = std::vector<std::pair<std::string, size_t>>;

const VarPool &defaultPool() {
  static const VarPool Pool = {{"x", 3}, {"y", 2}};
  return Pool;
}

/// Random term over the variables of \p Pool (by default x, 3 bits, and
/// y, 2 bits).
BvTermRef randomTerm(Rng &R, int Depth, const VarPool &Pool = defaultPool()) {
  if (Depth == 0 || R.below(3) == 0) {
    size_t Pick = R.below(Pool.size() + 1);
    if (Pick < Pool.size())
      return var(Pool[Pick].first, Pool[Pick].second);
    Bitvector BV;
    size_t Len = 1 + R.below(3);
    for (size_t I = 0; I < Len; ++I)
      BV.pushBack(R.below(2));
    return BvTerm::mkConst(BV);
  }
  if (R.below(2) == 0)
    return BvTerm::mkConcat(randomTerm(R, Depth - 1, Pool),
                            randomTerm(R, Depth - 1, Pool));
  BvTermRef Op = randomTerm(R, Depth - 1, Pool);
  if (Op->width() == 0)
    return Op;
  size_t Lo = R.below(Op->width());
  size_t Hi = Lo + R.below(Op->width() - Lo);
  return BvTerm::mkExtract(Op, Lo, Hi);
}

BvFormulaRef randomFormula(Rng &R, int Depth,
                           const VarPool &Pool = defaultPool()) {
  if (Depth == 0 || R.below(4) == 0) {
    BvTermRef A = randomTerm(R, 2, Pool);
    // Force matching widths by slicing both to the min width, or comparing
    // to a constant of the right width.
    Bitvector BV;
    for (size_t I = 0; I < A->width(); ++I)
      BV.pushBack(R.below(2));
    return BvFormula::mkEq(A, BvTerm::mkConst(BV));
  }
  switch (R.below(4)) {
  case 0:
    return BvFormula::mkNot(randomFormula(R, Depth - 1, Pool));
  case 1:
    return BvFormula::mkAnd(randomFormula(R, Depth - 1, Pool),
                            randomFormula(R, Depth - 1, Pool));
  case 2:
    return BvFormula::mkOr(randomFormula(R, Depth - 1, Pool),
                           randomFormula(R, Depth - 1, Pool));
  default:
    return BvFormula::mkImplies(randomFormula(R, Depth - 1, Pool),
                                randomFormula(R, Depth - 1, Pool));
  }
}

class BlastFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BlastFuzz, AgreesWithEnumeration) {
  leapfrog::testing::reportFuzzConfig("BlastFuzz", fuzzIters(300),
                                      uint64_t(GetParam()));
  Rng R{uint64_t(GetParam())};
  BvFormulaRef F = randomFormula(R, 3);

  // Brute force over all assignments of x (3 bits) and y (2 bits). Note
  // the formula may mention neither, either, or both.
  bool AnySat = false;
  for (uint64_t X = 0; X < 8; ++X)
    for (uint64_t Y = 0; Y < 4; ++Y) {
      std::vector<std::pair<std::string, Bitvector>> Assign{
          {"x", Bitvector::fromUint(X, 3)}, {"y", Bitvector::fromUint(Y, 2)}};
      AnySat |= evalFormula(F, Assign);
    }

  BitBlastSolver S;
  Model M;
  SatResult Res = S.checkSat(F, &M);
  ASSERT_EQ(Res == SatResult::Sat, AnySat) << F->str();
  if (Res == SatResult::Sat) {
    // Extend the model with defaults for unconstrained variables and
    // check it truly satisfies F.
    auto Has = [&M](const std::string &N) {
      for (auto &[Name, V] : M)
        if (Name == N)
          return true;
      return false;
    };
    if (!Has("x"))
      M.emplace_back("x", Bitvector(3));
    if (!Has("y"))
      M.emplace_back("y", Bitvector(2));
    EXPECT_TRUE(evalFormula(F, M)) << F->str();
  }
}

/// Wide variables w (256 bits) and v (320 bits), read only through two
/// 2-bit windows each, at random offsets: the blaster allocates all of
/// each variable, but the eight window bits decide every formula.
struct WideWindows {
  struct Window {
    const char *Name;
    size_t Width, Lo; ///< The window is bits [Lo, Lo + 1].
  };
  std::vector<Window> Ws;

  explicit WideWindows(Rng &R) {
    for (auto [Name, Width] : {std::pair<const char *, size_t>{"w", 256},
                               std::pair<const char *, size_t>{"v", 320}})
      for (int I = 0; I < 2; ++I)
        Ws.push_back(Window{Name, Width, R.below(Width - 1)});
  }

  /// An extract of one to two bits of one window.
  BvTermRef slice(Rng &R) const {
    const Window &W = Ws[R.below(Ws.size())];
    size_t Lo = W.Lo + R.below(2);
    size_t Hi = Lo + R.below(W.Lo + 2 - Lo);
    return BvTerm::mkExtract(var(W.Name, W.Width), Lo, Hi);
  }

  /// Slices, concats of slices, extracts of those concats, constants.
  BvTermRef term(Rng &R, int Depth) const {
    if (Depth == 0 || R.below(3) == 0)
      return R.below(4) == 0 ? lit(R.below(2) ? "1" : "01") : slice(R);
    BvTermRef Cat = BvTerm::mkConcat(term(R, Depth - 1), term(R, Depth - 1));
    if (R.below(2) == 0)
      return Cat;
    size_t Lo = R.below(Cat->width());
    return BvTerm::mkExtract(Cat, Lo, Lo + R.below(Cat->width() - Lo));
  }

  /// An equality of a term with a constant or with single window bits.
  BvFormulaRef eq(Rng &R) const {
    BvTermRef A = term(R, 2);
    BvTermRef B;
    for (size_t I = 0; I < A->width(); ++I) {
      BvTermRef Bit = lit(R.below(2) ? "1" : "0");
      if (R.below(2) == 0) {
        const Window &W = Ws[R.below(Ws.size())];
        size_t P = W.Lo + R.below(2);
        Bit = BvTerm::mkExtract(var(W.Name, W.Width), P, P);
      }
      B = B ? BvTerm::mkConcat(B, Bit) : Bit;
    }
    return BvFormula::mkEq(A, B);
  }

  BvFormulaRef formula(Rng &R, int Depth) const {
    if (Depth == 0 || R.below(4) == 0)
      return eq(R);
    BvFormulaRef L = formula(R, Depth - 1);
    switch (R.below(4)) {
    case 0:
      return BvFormula::mkNot(L);
    case 1:
      return BvFormula::mkAnd(L, formula(R, Depth - 1));
    case 2:
      return BvFormula::mkOr(L, formula(R, Depth - 1));
    default:
      return BvFormula::mkImplies(L, formula(R, Depth - 1));
    }
  }

  /// Satisfiability by enumerating the window bits (all others zero).
  bool anyModel(const BvFormulaRef &F) const {
    for (unsigned Mask = 0; Mask < (1u << (2 * Ws.size())); ++Mask) {
      std::vector<std::pair<std::string, Bitvector>> Assign{
          {"w", Bitvector(256)}, {"v", Bitvector(320)}};
      for (size_t I = 0; I < Ws.size(); ++I)
        for (size_t B = 0; B < 2; ++B)
          if (Mask >> (2 * I + B) & 1)
            Assign[Ws[I].Name == std::string("w") ? 0 : 1]
                .second.setBit(Ws[I].Lo + B, true);
      if (evalFormula(F, Assign))
        return true;
    }
    return false;
  }
};

TEST_P(BlastFuzz, WideVariablesThroughNarrowExtracts) {
  leapfrog::testing::reportFuzzConfig("BlastFuzz.Wide", fuzzIters(300),
                                      uint64_t(GetParam()) + 4242);
  Rng R{uint64_t(GetParam()) + 4242};
  WideWindows Win(R);
  // Goals are blasted inside guarded scopes, so a variable a goal
  // mentions first is allocated inside one; later premises and goals
  // must read the same bits after the scope pops.
  BitBlastSolver Incremental, OneShot;
  auto Sess = Incremental.openSession();
  BvFormulaRef Premises = BvFormula::mkTrue();
  for (int Round = 0; Round < 6; ++Round) {
    if (Round > 0 && R.below(2) == 0) {
      BvFormulaRef P = Win.formula(R, 2);
      Sess->assertPremise(P);
      Premises = BvFormula::mkAnd(Premises, P);
    }
    BvFormulaRef Goal = Win.formula(R, 2);
    BvFormulaRef Conj = BvFormula::mkAnd(Premises, Goal);
    bool AnySat = Win.anyModel(Conj);
    Model M;
    ASSERT_EQ(Sess->checkSatUnderPremises(Goal, &M) == SatResult::Sat,
              AnySat)
        << "round " << Round << ": " << Conj->str();
    ASSERT_EQ(OneShot.checkSat(Conj, nullptr) == SatResult::Sat, AnySat)
        << Conj->str();
    if (!AnySat)
      continue;
    for (const char *N : {"w", "v"})
      if (std::none_of(M.begin(), M.end(),
                       [N](const auto &KV) { return KV.first == N; }))
        M.emplace_back(N, Bitvector(N[0] == 'w' ? 256 : 320));
    EXPECT_TRUE(evalFormula(Conj, M)) << Conj->str();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BlastFuzz,
                         ::testing::Range(0, fuzzIters(300)));

//===----------------------------------------------------------------------===//
// Incremental sessions
//===----------------------------------------------------------------------===//

TEST(Session, EntailmentAgainstGrowingPremises) {
  BitBlastSolver S;
  auto Sess = S.openSession();
  BvTermRef X = var("x", 4);
  // No premises yet: x = 1010 is not entailed.
  EXPECT_FALSE(Sess->isEntailed(BvFormula::mkEq(X, lit("1010"))));
  Sess->assertPremise(BvFormula::mkEq(X, lit("1010")));
  EXPECT_TRUE(Sess->isEntailed(BvFormula::mkEq(X, lit("1010"))));
  // And a consequence via slicing, not syntactic identity.
  EXPECT_TRUE(
      Sess->isEntailed(BvFormula::mkEq(BvTerm::mkExtract(X, 0, 1), lit("10"))));
  EXPECT_FALSE(
      Sess->isEntailed(BvFormula::mkEq(BvTerm::mkExtract(X, 0, 1), lit("11"))));
}

TEST(Session, PremiseCacheDeduplicatesStructurally) {
  BitBlastSolver S;
  auto Sess = S.openSession();
  BvTermRef X = var("x", 4);
  // Structurally identical premises built as distinct nodes.
  Sess->assertPremise(BvFormula::mkEq(var("x", 4), lit("1010")));
  Sess->assertPremise(BvFormula::mkEq(var("x", 4), lit("1010")));
  EXPECT_EQ(S.stats().SessionPremises, 1u);
  EXPECT_EQ(S.stats().PremiseCacheHits, 1u);
  EXPECT_TRUE(Sess->isEntailed(BvFormula::mkEq(X, lit("1010"))));
  EXPECT_EQ(S.stats().SessionQueries, 1u);
  EXPECT_EQ(S.stats().SessionsOpened, 1u);
}

TEST(Session, UnsatPremisesEntailEverything) {
  BitBlastSolver S;
  auto Sess = S.openSession();
  BvTermRef X = var("x", 2);
  Sess->assertPremise(BvFormula::mkEq(X, lit("00")));
  Sess->assertPremise(BvFormula::mkEq(X, lit("11")));
  EXPECT_TRUE(Sess->isEntailed(BvFormula::mkEq(var("y", 2), lit("01"))));
  EXPECT_TRUE(Sess->isEntailed(BvFormula::mkFalse()));
}

//===----------------------------------------------------------------------===//
// Batched goals (IncrementalSession::checkSatBatch)
//===----------------------------------------------------------------------===//

TEST(SessionBatch, AnswersMatchPerGoalQueries) {
  // The contract: Out[i] == checkSatUnderPremises(Goals[i], nullptr),
  // independent of batch composition. Pose the same goals to a batched
  // and an unbatched session over identical premises and compare.
  BvTermRef X = var("x", 4);
  std::vector<BvFormulaRef> Goals = {
      BvFormula::mkNot(BvFormula::mkEq(X, lit("1010"))), // Unsat (entailed)
      BvFormula::mkNot(
          BvFormula::mkEq(BvTerm::mkExtract(X, 0, 1), lit("10"))), // Unsat
      BvFormula::mkEq(var("y", 4), lit("0001")),                   // Sat
      BvFormula::mkNot(
          BvFormula::mkEq(BvTerm::mkExtract(X, 2, 3), lit("10"))), // Unsat
  };
  BitBlastSolver Batched, PerGoal;
  auto BS = Batched.openSession();
  auto PS = PerGoal.openSession();
  BS->assertPremise(BvFormula::mkEq(X, lit("1010")));
  PS->assertPremise(BvFormula::mkEq(X, lit("1010")));
  std::vector<SatResult> Out;
  BS->checkSatBatch(Goals, Out);
  ASSERT_EQ(Out.size(), Goals.size());
  for (size_t I = 0; I < Goals.size(); ++I)
    EXPECT_EQ(Out[I], PS->checkSatUnderPremises(Goals[I], nullptr))
        << "batched answer diverges at goal " << I;
  // Three entailed goals and one satisfiable one: the batch needs at
  // most one SAT refinement round plus one closing UNSAT round, strictly
  // fewer than the four physical solves the per-goal session paid.
  EXPECT_LT(Batched.stats().RoundTrips, PerGoal.stats().RoundTrips);
}

TEST(SessionBatch, AllEntailedGoalsShareOneRoundTrip) {
  BvTermRef X = var("x", 4);
  BitBlastSolver S;
  auto Sess = S.openSession();
  Sess->assertPremise(BvFormula::mkEq(X, lit("1010")));
  uint64_t Before = S.stats().RoundTrips;
  std::vector<BvFormulaRef> Goals;
  for (size_t Lo = 0; Lo < 4; ++Lo)
    Goals.push_back(BvFormula::mkNot(BvFormula::mkEq(
        BvTerm::mkExtract(X, Lo, Lo), lit(Lo % 2 ? "0" : "1"))));
  std::vector<SatResult> Out;
  Sess->checkSatBatch(Goals, Out);
  for (size_t I = 0; I < Goals.size(); ++I)
    EXPECT_EQ(Out[I], SatResult::Unsat) << "goal " << I;
  // One failed-assumption round attributes Unsat to all four goals.
  EXPECT_EQ(S.stats().RoundTrips - Before, 1u);
}

TEST(SessionBatch, GoalsFailingForDifferentPremiseSubsetsAttributeRight) {
  // Two batched goals each refuted by a *different* premise (and one
  // satisfiable bystander): attribution must be per-goal, not whichever
  // core the shared round happens to surface.
  BvTermRef A = var("a", 2), B = var("b", 2);
  BitBlastSolver S;
  auto Sess = S.openSession();
  Sess->assertPremise(BvFormula::mkEq(A, lit("01")));
  Sess->assertPremise(BvFormula::mkEq(B, lit("10")));
  std::vector<BvFormulaRef> Goals = {
      BvFormula::mkNot(BvFormula::mkEq(A, lit("01"))), // needs premise 1
      BvFormula::mkEq(var("c", 2), lit("11")),         // Sat bystander
      BvFormula::mkNot(BvFormula::mkEq(B, lit("10"))), // needs premise 2
  };
  std::vector<SatResult> Out;
  Sess->checkSatBatch(Goals, Out);
  EXPECT_EQ(Out[0], SatResult::Unsat);
  EXPECT_EQ(Out[1], SatResult::Sat);
  EXPECT_EQ(Out[2], SatResult::Unsat);
}

TEST(SessionBatch, AnswersAreOrderIndependent) {
  BvTermRef X = var("x", 4);
  std::vector<BvFormulaRef> Goals = {
      BvFormula::mkNot(BvFormula::mkEq(X, lit("1010"))),
      BvFormula::mkEq(var("y", 4), lit("0001")),
      BvFormula::mkNot(BvFormula::mkEq(BvTerm::mkExtract(X, 0, 1), lit("11"))),
      BvFormula::mkEq(var("z", 2), lit("10")),
  };
  std::vector<size_t> Perm = {2, 0, 3, 1};
  BitBlastSolver SA, SB;
  auto SessA = SA.openSession();
  auto SessB = SB.openSession();
  SessA->assertPremise(BvFormula::mkEq(X, lit("1010")));
  SessB->assertPremise(BvFormula::mkEq(X, lit("1010")));
  std::vector<SatResult> OutA;
  SessA->checkSatBatch(Goals, OutA);
  std::vector<BvFormulaRef> Permuted;
  for (size_t I : Perm)
    Permuted.push_back(Goals[I]);
  std::vector<SatResult> OutB;
  SessB->checkSatBatch(Permuted, OutB);
  for (size_t K = 0; K < Perm.size(); ++K)
    EXPECT_EQ(OutB[K], OutA[Perm[K]])
        << "permuted batch diverges at position " << K;
}

TEST(SessionBatch, SingletonBatchMatchesDirectQuery) {
  BvTermRef X = var("x", 4);
  BitBlastSolver S;
  auto Sess = S.openSession();
  Sess->assertPremise(BvFormula::mkEq(X, lit("1010")));
  std::vector<BvFormulaRef> One = {
      BvFormula::mkNot(BvFormula::mkEq(X, lit("1010")))};
  std::vector<SatResult> Out;
  Sess->checkSatBatch(One, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], SatResult::Unsat);
  // A size-1 batch degrades to the plain per-goal path: exactly one
  // physical solve, no selector machinery.
  EXPECT_EQ(S.stats().RoundTrips, 1u);
}

TEST(Session, ModelCoversPremiseAndGoalVariables) {
  BitBlastSolver S;
  auto Sess = S.openSession();
  Sess->assertPremise(BvFormula::mkEq(var("x", 3), lit("101")));
  Model M;
  ASSERT_EQ(Sess->checkSatUnderPremises(
                BvFormula::mkEq(var("y", 2), lit("01")), &M),
            SatResult::Sat);
  ASSERT_EQ(M.size(), 2u);
  std::vector<std::pair<std::string, Bitvector>> Assign(M.begin(), M.end());
  EXPECT_TRUE(evalFormula(BvFormula::mkEq(var("x", 3), lit("101")), Assign));
  EXPECT_TRUE(evalFormula(BvFormula::mkEq(var("y", 2), lit("01")), Assign));
}

TEST(Session, CertifyingSessionChecksEntailmentSlice) {
  BitBlastSolver S;
  S.CertifyUnsat = true;
  auto Sess = S.openSession();
  BvTermRef X = var("x", 4);
  Sess->assertPremise(BvFormula::mkEq(X, lit("1010")));
  EXPECT_TRUE(Sess->isEntailed(BvFormula::mkEq(X, lit("1010"))));
  // The UNSAT answer behind the entailment was proof-checked in-process:
  // the session's goal slice went through cert::StreamChecker before the
  // answer returned. The premise blasts to units, which live on the root
  // trail rather than in the clause database, so no clauses were reused.
  EXPECT_GE(S.stats().CertifiedUnsat, 1u);
  EXPECT_EQ(S.stats().ReusedClauses, 0u);
}

TEST(Session, GoalReusedAsPremiseRecordsTheSameInputs) {
  // The checker hands an extended goal's own formula object to its
  // guard's session as a premise. The goal was blasted in a guarded
  // scope whose cache entries popped with it, so asserting that object
  // must record exactly the input clauses a fresh, structurally equal
  // copy records — Tseitin connectives included.
  auto Build = [] {
    BvTermRef W = var("w", 256);
    return BvFormula::mkOr(
        BvFormula::mkEq(BvTerm::mkExtract(W, 3, 5), lit("101")),
        BvFormula::mkImplies(
            BvFormula::mkEq(BvTerm::mkConcat(BvTerm::mkExtract(W, 200, 200),
                                             BvTerm::mkExtract(W, 7, 7)),
                            lit("11")),
            BvFormula::mkNot(BvFormula::mkEq(BvTerm::mkExtract(W, 250, 251),
                                             BvTerm::mkExtract(W, 4, 5)))));
  };
  auto Inputs = [&](bool Reuse) {
    BitBlastSolver S;
    ProofLog Log;
    EXPECT_TRUE(S.attachProofLog(&Log));
    {
      auto Sess = S.openSession();
      Sess->assertPremise(
          BvFormula::mkEq(BvTerm::mkExtract(var("w", 256), 0, 1), lit("10")));
      BvFormulaRef Goal = Build();
      EXPECT_FALSE(Sess->isEntailed(Goal));
      Sess->assertPremise(Reuse ? Goal : Build());
      EXPECT_TRUE(Sess->isEntailed(Build()));
    }
    S.detachProofLog();
    std::vector<std::vector<int>> In;
    for (size_t I = 0; I < Log.streamCount(); ++I)
      for (const ProofEvent &E : Log.stream(I).Events)
        if (E.K == ProofEvent::Kind::Input) {
          In.emplace_back();
          for (Lit L : E.Lits)
            In.back().push_back(L.X);
        }
    return In;
  };
  std::vector<std::vector<int>> Reused = Inputs(true);
  EXPECT_FALSE(Reused.empty());
  EXPECT_EQ(Reused, Inputs(false));
}

TEST(Session, TwoSolverInstancesShareNoState) {
  // Regression for the Solver.h threading contract: explicit instances
  // must be fully independent — premises asserted into one must never
  // leak into the other, and statistics are per-instance.
  BitBlastSolver A, B;
  auto SessA = A.openSession();
  auto SessB = B.openSession();
  BvTermRef X = var("x", 2);
  SessA->assertPremise(BvFormula::mkEq(X, lit("10")));
  // B has no premises: nothing non-trivial is entailed there.
  EXPECT_FALSE(SessB->isEntailed(BvFormula::mkEq(X, lit("10"))));
  EXPECT_TRUE(SessA->isEntailed(BvFormula::mkEq(X, lit("10"))));
  // B can even assert the contradictory premise without affecting A.
  SessB->assertPremise(BvFormula::mkEq(X, lit("01")));
  EXPECT_TRUE(SessB->isEntailed(BvFormula::mkEq(X, lit("01"))));
  EXPECT_FALSE(SessA->isEntailed(BvFormula::mkEq(X, lit("01"))));
  EXPECT_EQ(A.stats().SessionPremises, 1u);
  EXPECT_EQ(B.stats().SessionPremises, 1u);
  EXPECT_EQ(A.stats().SessionsOpened, 1u);
  EXPECT_EQ(B.stats().SessionsOpened, 1u);
}

//===----------------------------------------------------------------------===//
// Session memory management: retirement purges, limits, restarts
//===----------------------------------------------------------------------===//

TEST(SessionMemory, RetiredGoalsAreHardDeleted) {
  // Each goal's guard + Tseitin clauses are physically removed at
  // retirement, so a long query sequence shows up in ClausesDeleted
  // while the premise CNF alone persists.
  BitBlastSolver S;
  S.SessionPurgeBatch = 1; // Purge at every opportunity.
  auto Sess = S.openSession();
  BvTermRef X = var("x", 8);
  Sess->assertPremise(BvFormula::mkEq(BvTerm::mkExtract(X, 0, 3),
                                      lit("1010")));
  for (int I = 0; I < 10; ++I) {
    EXPECT_TRUE(Sess->isEntailed(
        BvFormula::mkEq(BvTerm::mkExtract(X, 0, 1), lit("10"))));
    EXPECT_FALSE(Sess->isEntailed(
        BvFormula::mkEq(BvTerm::mkExtract(X, 4, 7), lit("0000"))));
  }
  EXPECT_GT(S.stats().ClausesDeleted, 0u);
  EXPECT_GT(S.stats().ArenaBytesPeak, 0u);
  EXPECT_EQ(S.stats().SessionRestarts, 0u); // No limits set.
  EXPECT_EQ(S.stats().PremisesGcd, 0u);
}

TEST(SessionMemory, LimitsTripRestartsWithoutChangingAnswers) {
  // A one-byte arena bound trips after every query: the session is torn
  // down and rebuilt from its premises each time, and the answers must
  // be exactly those of an unlimited session.
  BitBlastSolver Limited, Unlimited;
  SessionLimits Tight;
  Tight.MaxArenaBytes = 1;
  auto SessL = Limited.openSession(Tight);
  auto SessU = Unlimited.openSession();
  BvTermRef X = var("x", 6);
  auto Premise = BvFormula::mkEq(BvTerm::mkExtract(X, 0, 2), lit("101"));
  SessL->assertPremise(Premise);
  SessU->assertPremise(Premise);
  for (int I = 0; I < 6; ++I) {
    Bitvector Probe = Bitvector::fromUint(uint64_t(I), 3);
    BvFormulaRef Goal = BvFormula::mkEq(BvTerm::mkExtract(X, 3, 5),
                                        BvTerm::mkConst(Probe));
    EXPECT_EQ(SessL->isEntailed(Goal), SessU->isEntailed(Goal)) << I;
    // Entailed consequences of the premise survive every rebuild.
    EXPECT_TRUE(SessL->isEntailed(
        BvFormula::mkEq(BvTerm::mkExtract(X, 0, 0), lit("1"))));
  }
  EXPECT_GT(Limited.stats().SessionRestarts, 0u);
  EXPECT_GT(Limited.stats().PremisesGcd, 0u);
  EXPECT_EQ(Unlimited.stats().SessionRestarts, 0u);
  EXPECT_EQ(Unlimited.stats().PremisesGcd, 0u);
  // Restarts re-blast premises but never re-count them: both backends
  // report the same single distinct premise conjunct.
  EXPECT_EQ(Limited.stats().SessionPremises,
            Unlimited.stats().SessionPremises);
  EXPECT_EQ(Limited.stats().SessionPremises, 1u);
}

TEST(SessionMemory, MaxLearntsLimitTrips) {
  // A peak of more than one simultaneous learned clause trips the
  // MaxLearnts = 1 backstop. Pairwise-distinct variables force real
  // search — unit propagation alone cannot refute a wrong probe of this
  // premise set, so conflicts (and therefore learned clauses) happen.
  BitBlastSolver S;
  SessionLimits Tight;
  Tight.MaxLearnts = 1;
  auto Sess = S.openSession(Tight);
  BvTermRef A = var("a", 2), B = var("b", 2), C = var("c", 2),
            D = var("d", 2);
  const BvTermRef Vars[] = {A, B, C, D};
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = I + 1; J < 4; ++J)
      Sess->assertPremise(BvFormula::mkNot(BvFormula::mkEq(Vars[I], Vars[J])));
  // Four pairwise-distinct 2-bit values use up the whole domain, so 'a'
  // can take any value but the assignment of the rest is forced around
  // it; probing all combinations of two variables forces conflicts.
  for (int I = 0; I < 4; ++I)
    for (int J = 0; J < 4; ++J) {
      BvFormulaRef Goal = BvFormula::mkAnd(
          BvFormula::mkEq(A, BvTerm::mkConst(
                                 Bitvector::fromUint(uint64_t(I), 2))),
          BvFormula::mkEq(B, BvTerm::mkConst(
                                 Bitvector::fromUint(uint64_t(J), 2))));
      (void)Sess->checkSatUnderPremises(Goal, nullptr);
    }
  EXPECT_GT(S.stats().SessionRestarts, 0u);
  // Each restart collects every premise group's blast state.
  EXPECT_GE(S.stats().PremisesGcd, 6 * S.stats().SessionRestarts);
}

TEST(SessionMemory, StatsMonotoneAcrossQueriesAndRestarts) {
  BitBlastSolver S;
  S.SessionPurgeBatch = 1; // Purge at every opportunity.
  SessionLimits Tight;
  Tight.MaxArenaBytes = 1;
  auto Sess = S.openSession(Tight);
  BvTermRef X = var("x", 5);
  Sess->assertPremise(BvFormula::mkEq(BvTerm::mkExtract(X, 0, 1),
                                      lit("01")));
  uint64_t Deleted = 0, Gcd = 0, Restarts = 0, Arena = 0, Learnts = 0;
  for (int I = 0; I < 6; ++I) {
    Bitvector Probe = Bitvector::fromUint(uint64_t(I), 3);
    (void)Sess->checkSatUnderPremises(
        BvFormula::mkEq(BvTerm::mkExtract(X, 2, 4), BvTerm::mkConst(Probe)),
        nullptr);
    const SolverStats &St = S.stats();
    EXPECT_GE(St.ClausesDeleted, Deleted);
    EXPECT_GE(St.PremisesGcd, Gcd);
    EXPECT_GE(St.SessionRestarts, Restarts);
    EXPECT_GE(St.ArenaBytesPeak, Arena);
    EXPECT_GE(St.PeakLearnts, Learnts);
    Deleted = St.ClausesDeleted;
    Gcd = St.PremisesGcd;
    Restarts = St.SessionRestarts;
    Arena = St.ArenaBytesPeak;
    Learnts = St.PeakLearnts;
  }
  EXPECT_GT(Deleted, 0u);
  EXPECT_GT(Restarts, 0u);
}

TEST(SessionMemory, CertifyingSessionsStayIncremental) {
  // Regression: CertifyUnsat used to force openSession onto the
  // stateless monolithic fallback, silently discarding every session
  // benefit the moment certification was requested. A certifying
  // session must be a *real* session — session counters move, arena
  // state exists — while every UNSAT answer is still proof-validated.
  BitBlastSolver Certifying;
  Certifying.CertifyUnsat = true;
  auto Sess = Certifying.openSession();
  BvTermRef X = var("x", 4);
  Sess->assertPremise(BvFormula::mkEq(X, lit("1010")));
  EXPECT_TRUE(Sess->isEntailed(BvFormula::mkEq(X, lit("1010"))));
  EXPECT_FALSE(Sess->isEntailed(BvFormula::mkEq(var("y", 4), lit("1010"))));
  const SolverStats &St = Certifying.stats();
  EXPECT_EQ(St.SessionsOpened, 1u);
  EXPECT_EQ(St.SessionQueries, 2u);
  EXPECT_GT(St.SessionPremises, 0u);
  EXPECT_GT(St.ArenaBytesPeak, 0u);
  // isEntailed(goal) asks UNSAT(premises & !goal); the entailed goal's
  // UNSAT answer must have been replayed through the validator.
  EXPECT_GT(St.CertifiedUnsat, 0u);
}

TEST(SessionMemory, AggressiveReductionKeepsAnswers) {
  // Force reduceDB onto the aggressive schedule inside one session's
  // CDCL solver, disable all clause-DB management (no reduction, no
  // retired-goal purge — the grow-only PR-2 baseline) in another, and
  // diff a query sequence across them.
  BitBlastSolver Reducing, Plain;
  Reducing.SessionReduce.FirstReduce = 1;
  Reducing.SessionReduce.Growth = 1.0;
  Plain.SessionReduce.Enabled = false;
  Plain.SessionHardRetire = false;
  auto SessR = Reducing.openSession();
  auto SessP = Plain.openSession();
  BvTermRef A = var("a", 10), B = var("b", 10);
  for (const auto &P :
       {BvFormula::mkEq(A, B),
        BvFormula::mkEq(BvTerm::mkExtract(A, 0, 4), lit("11010"))}) {
    SessR->assertPremise(P);
    SessP->assertPremise(P);
  }
  for (int I = 0; I < 16; ++I) {
    Bitvector Probe = Bitvector::fromUint(uint64_t(I * 3), 5);
    BvFormulaRef Goal = BvFormula::mkEq(BvTerm::mkExtract(B, 5, 9),
                                        BvTerm::mkConst(Probe));
    EXPECT_EQ(SessR->isEntailed(Goal), SessP->isEntailed(Goal)) << I;
  }
  EXPECT_EQ(Plain.stats().ReduceDbRuns, 0u);
  EXPECT_EQ(Plain.stats().ClausesDeleted, 0u);
}

/// Differential fuzz: a session posed a random premise/goal sequence must
/// agree query-for-query with monolithic checkSat on the conjunction.
class SessionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SessionFuzz, AgreesWithMonolithicConjunction) {
  leapfrog::testing::reportFuzzConfig("SessionFuzz", fuzzIters(200),
                                      uint64_t(GetParam()) + 777);
  Rng R{uint64_t(GetParam()) + 777};
  BitBlastSolver Incremental, Monolithic;
  auto Sess = Incremental.openSession();
  std::vector<BvFormulaRef> Premises;
  for (int Round = 0; Round < 8; ++Round) {
    if (R.below(2) == 0) {
      BvFormulaRef P = randomFormula(R, 2);
      Premises.push_back(P);
      Sess->assertPremise(P);
    }
    BvFormulaRef Goal = randomFormula(R, 2);
    BvFormulaRef Conj = Goal;
    for (size_t I = Premises.size(); I > 0; --I)
      Conj = BvFormula::mkAnd(Premises[I - 1], Conj);
    Model M;
    SatResult Inc = Sess->checkSatUnderPremises(Goal, &M);
    SatResult Mono = Monolithic.checkSat(Conj, nullptr);
    ASSERT_EQ(Inc == SatResult::Sat, Mono == SatResult::Sat)
        << "session diverges from monolithic, seed " << GetParam()
        << " round " << Round << " goal " << Goal->str();
    if (Inc == SatResult::Sat) {
      auto Has = [&M](const std::string &N) {
        for (auto &[Name, V] : M)
          if (Name == N)
            return true;
        return false;
      };
      if (!Has("x"))
        M.emplace_back("x", Bitvector(3));
      if (!Has("y"))
        M.emplace_back("y", Bitvector(2));
      EXPECT_TRUE(evalFormula(Conj, M))
          << "session model violates premises∧goal, seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SessionFuzz,
                         ::testing::Range(0, fuzzIters(200)));

/// Limits fuzz: the same random premise/goal sequences, but the session
/// runs under deliberately tiny memory limits (restarting constantly)
/// and an aggressive in-solver reduction schedule, and must still agree
/// query-for-query with the monolithic conjunction.
class SessionLimitsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SessionLimitsFuzz, AgreesWithMonolithicUnderTinyLimits) {
  leapfrog::testing::reportFuzzConfig("SessionLimitsFuzz", fuzzIters(100),
                                      uint64_t(GetParam()) + 31337);
  Rng R{uint64_t(GetParam()) + 31337};
  BitBlastSolver Incremental, Monolithic;
  Incremental.SessionReduce.FirstReduce = 1;
  Incremental.SessionReduce.Growth = 1.0;
  SessionLimits Tight;
  // Alternate which limit bites; both paths end in the same rebuild.
  if (GetParam() % 2 == 0)
    Tight.MaxArenaBytes = 1 + R.below(4096);
  else
    Tight.MaxLearnts = 1 + R.below(4);
  auto Sess = Incremental.openSession(Tight);
  std::vector<BvFormulaRef> Premises;
  for (int Round = 0; Round < 8; ++Round) {
    if (R.below(2) == 0) {
      BvFormulaRef P = randomFormula(R, 2);
      Premises.push_back(P);
      Sess->assertPremise(P);
    }
    BvFormulaRef Goal = randomFormula(R, 2);
    BvFormulaRef Conj = Goal;
    for (size_t I = Premises.size(); I > 0; --I)
      Conj = BvFormula::mkAnd(Premises[I - 1], Conj);
    SatResult Inc = Sess->checkSatUnderPremises(Goal, nullptr);
    SatResult Mono = Monolithic.checkSat(Conj, nullptr);
    ASSERT_EQ(Inc == SatResult::Sat, Mono == SatResult::Sat)
        << "limited session diverges from monolithic, seed " << GetParam()
        << " round " << Round << " goal " << Goal->str();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SessionLimitsFuzz,
                         ::testing::Range(0, fuzzIters(100)));

/// Retired-scope fuzz: random premise and goal sequences, posed through
/// per-goal queries and batches alike, over a variable pool that grows as
/// the session runs. A fresh variable first appears in a goal — its bits
/// are allocated inside that goal's scope and leave the search when the
/// scope retires — and later premises and goals mention it again, which
/// must bring its bits back. Every answer must equal one-shot checkSat on
/// premises ∧ goal, and every per-goal model must satisfy premises ∧ goal.
class SessionRetireFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SessionRetireFuzz, AgreesWithOneShotAcrossRetiredScopes) {
  leapfrog::testing::reportFuzzConfig("SessionRetireFuzz", fuzzIters(150),
                                      uint64_t(GetParam()) + 4242);
  Rng R{uint64_t(GetParam()) + 4242};
  BitBlastSolver Incremental, OneShot;
  // Purge at every opportunity on half the seeds, so retired scopes are
  // deleted as well as switched off.
  if (R.below(2) == 0)
    Incremental.SessionPurgeBatch = 1;
  auto Sess = Incremental.openSession();
  VarPool Pool = defaultPool();
  std::vector<BvFormulaRef> Premises;
  auto Conjoin = [&](const BvFormulaRef &Goal) {
    BvFormulaRef Conj = Goal;
    for (size_t I = Premises.size(); I > 0; --I)
      Conj = BvFormula::mkAnd(Premises[I - 1], Conj);
    return Conj;
  };
  // A goal that introduces a fresh variable: it mentions the variable
  // directly, so the first blast of its bits happens in the goal scope.
  auto FreshGoal = [&]() {
    std::string Name = "v" + std::to_string(Pool.size());
    size_t Width = 1 + R.below(3);
    Bitvector BV;
    for (size_t I = 0; I < Width; ++I)
      BV.pushBack(R.below(2));
    BvFormulaRef Eq = BvFormula::mkEq(var(Name, Width), BvTerm::mkConst(BV));
    Pool.emplace_back(Name, Width);
    return BvFormula::mkAnd(Eq, randomFormula(R, 1, Pool));
  };
  for (int Round = 0; Round < 10; ++Round) {
    if (R.below(2) == 0) {
      BvFormulaRef P = randomFormula(R, 2, Pool);
      Premises.push_back(P);
      Sess->assertPremise(P);
    }
    std::vector<BvFormulaRef> Goals;
    for (size_t K = R.below(2) == 0 ? 1 : 2 + R.below(4); K > 0; --K)
      Goals.push_back(R.below(3) == 0 ? FreshGoal()
                                      : randomFormula(R, 2, Pool));
    if (Goals.size() == 1) {
      Model M;
      SatResult Got = Sess->checkSatUnderPremises(Goals[0], &M);
      BvFormulaRef Conj = Conjoin(Goals[0]);
      ASSERT_EQ(Got, OneShot.checkSat(Conj, nullptr))
          << "session diverges from one-shot, seed " << GetParam()
          << " round " << Round << " goal " << Goals[0]->str();
      if (Got == SatResult::Sat) {
        for (const auto &[Name, Width] : Pool) {
          bool Has = false;
          for (const auto &Entry : M)
            Has |= Entry.first == Name;
          if (!Has)
            M.emplace_back(Name, Bitvector(Width));
        }
        EXPECT_TRUE(evalFormula(Conj, M))
            << "session model violates premises∧goal, seed " << GetParam()
            << " round " << Round;
      }
    } else {
      std::vector<SatResult> Out;
      Sess->checkSatBatch(Goals, Out);
      ASSERT_EQ(Out.size(), Goals.size());
      for (size_t I = 0; I < Goals.size(); ++I)
        ASSERT_EQ(Out[I], OneShot.checkSat(Conjoin(Goals[I]), nullptr))
            << "batch diverges from one-shot, seed " << GetParam()
            << " round " << Round << " goal " << Goals[I]->str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SessionRetireFuzz,
                         ::testing::Range(0, fuzzIters(150)));

//===----------------------------------------------------------------------===//
// SMT-LIB printing
//===----------------------------------------------------------------------===//

TEST(SmtLib, TermSyntax) {
  BvTermRef X = var("x", 8);
  EXPECT_EQ(toSmtLibTerm(X), "x");
  EXPECT_EQ(toSmtLibTerm(lit("1010")), "#b1010");
  EXPECT_EQ(toSmtLibTerm(BvTerm::mkConcat(X, var("y", 4))),
            "(concat x y)");
}

TEST(SmtLib, ExtractTranslatesMsbFirstToLsbIndices) {
  // Our [1:3] on an 8-bit term covers bits 1..3 from the MSB; SMT-LIB
  // indexes from the LSB, so that is (_ extract 6 4).
  BvTermRef X = var("x", 8);
  EXPECT_EQ(toSmtLibTerm(BvTerm::mkExtract(X, 1, 3)),
            "((_ extract 6 4) x)");
}

TEST(SmtLib, FormulaSyntax) {
  // mkImplies(P, False) folds to (not P) — the §6.2 simplifications apply
  // before printing, so the emitted script is already reduced.
  BvFormulaRef P = BvFormula::mkEq(var("a", 2), lit("01"));
  EXPECT_EQ(toSmtLibFormula(BvFormula::mkImplies(P, BvFormula::mkFalse())),
            "(not (= a #b01))");
  BvFormulaRef Q = BvFormula::mkEq(var("b", 2), lit("10"));
  EXPECT_EQ(toSmtLibFormula(BvFormula::mkImplies(P, Q)),
            "(=> (= a #b01) (= b #b10))");
  EXPECT_EQ(toSmtLibFormula(BvFormula::mkAnd(P, Q)),
            "(and (= a #b01) (= b #b10))");
  EXPECT_EQ(toSmtLibFormula(BvFormula::mkOr(P, Q)),
            "(or (= a #b01) (= b #b10))");
}

TEST(SmtLib, ScriptDeclaresAllVarsOnce) {
  BvFormulaRef F = BvFormula::mkAnd(
      BvFormula::mkEq(var("a", 2), var("b", 2)),
      BvFormula::mkEq(var("a", 2), lit("11")));
  std::string Script = toSmtLibScript(F);
  EXPECT_NE(Script.find("(set-logic QF_BV)"), std::string::npos);
  EXPECT_NE(Script.find("(declare-const a (_ BitVec 2))"),
            std::string::npos);
  EXPECT_NE(Script.find("(declare-const b (_ BitVec 2))"),
            std::string::npos);
  EXPECT_NE(Script.find("(check-sat)"), std::string::npos);
  // 'a' is declared exactly once.
  size_t First = Script.find("declare-const a");
  EXPECT_EQ(Script.find("declare-const a", First + 1), std::string::npos);
}

TEST(SmtLib, SanitizesStoreEliminationNames) {
  // The store-elimination pass produces names like "h<mpls" and "buf>".
  std::string S1 = sanitizeSymbol("h<mpls");
  std::string S2 = sanitizeSymbol("h>mpls");
  std::string S3 = sanitizeSymbol("buf<");
  EXPECT_NE(S1, S2);
  for (char C : S1 + S2 + S3)
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
                C == '.' || C == '-' || C == '!')
        << C;
  // Leading digits are guarded.
  EXPECT_FALSE(std::isdigit(
      static_cast<unsigned char>(sanitizeSymbol("0weird")[0])));
}

TEST(SmtLib, DesanitizeInvertsSanitize) {
  // The external backend maps model symbols back through this inverse, so
  // it must hold on exactly the names this project mints: store-
  // elimination names, fresh-variable counters, session/query prefixes.
  const std::string Names[] = {"h<mpls", "h>mpls", "buf<",       "buf>",
                               "x",      "_wp!17", "0weird",     "s3!h<udp",
                               "q12!y",  "a!b!c",  "weird name", "3cx",
                               "",       "!",      "v!x"};
  for (const std::string &Name : Names)
    EXPECT_EQ(desanitizeSymbol(sanitizeSymbol(Name)), Name) << Name;
  // Distinct names stay distinct through the round trip (spot-check the
  // classic guard-collision pair).
  EXPECT_NE(sanitizeSymbol("3cx"), sanitizeSymbol("v<x"));
}

//===----------------------------------------------------------------------===//
// Model-reply parsing (the receive side of the solver pipe)
//===----------------------------------------------------------------------===//

TEST(SmtLibModel, ParsesZ3AndSpecShapes) {
  std::vector<std::pair<std::string, Bitvector>> M;
  // z3's (model …) wrapper.
  ASSERT_TRUE(parseModelReply("(model\n"
                              "  (define-fun x () (_ BitVec 4) #b1010)\n"
                              "  (define-fun y () (_ BitVec 8) #x2a)\n"
                              ")",
                              M));
  ASSERT_EQ(M.size(), 2u);
  EXPECT_EQ(M[0].first, "x");
  EXPECT_EQ(M[0].second.str(), "1010");
  EXPECT_EQ(M[1].second.str(), "00101010");
  // The bare-list shape (the SMT-LIB standard, cvc5), with the indexed
  // decimal value form.
  ASSERT_TRUE(parseModelReply("((define-fun z () (_ BitVec 6) (_ bv5 6)))",
                              M));
  ASSERT_EQ(M.size(), 1u);
  EXPECT_EQ(M[0].second.str(), "000101");
}

TEST(SmtLibModel, SkipsBoolEntries) {
  // Sessions multiplex through Bool activation constants; their model
  // entries are not bit-vectors and must be skipped, not rejected.
  std::vector<std::pair<std::string, Bitvector>> M;
  ASSERT_TRUE(parseModelReply("((define-fun act-s0 () Bool true)\n"
                              " (define-fun x () (_ BitVec 2) #b01))",
                              M));
  ASSERT_EQ(M.size(), 1u);
  EXPECT_EQ(M[0].first, "x");
}

TEST(SmtLibModel, RejectsMalformedReplies) {
  std::vector<std::pair<std::string, Bitvector>> M;
  std::string Err;
  // Not an s-expression at all.
  EXPECT_FALSE(parseModelReply("sat", M, &Err));
  EXPECT_FALSE(Err.empty());
  // Unbalanced parens.
  EXPECT_FALSE(parseModelReply("((define-fun x () (_ BitVec 2) #b01)", M));
  // A bare atom where an entry belongs.
  EXPECT_FALSE(parseModelReply("(model garbage)", M, &Err));
  // Wrong arity / not define-fun.
  EXPECT_FALSE(parseModelReply("((define-fun x (_ BitVec 2) #b01))", M));
  EXPECT_FALSE(parseModelReply("((definitely-fun x () (_ BitVec 2) #b01))",
                               M));
  // Nonzero arity (a function, not a constant).
  EXPECT_FALSE(parseModelReply(
      "((define-fun f ((a (_ BitVec 2))) (_ BitVec 2) #b01))", M, &Err));
  EXPECT_NE(Err.find("arguments"), std::string::npos);
}

TEST(SmtLibModel, RejectsNegativeAndOverlongLiterals) {
  std::vector<std::pair<std::string, Bitvector>> M;
  std::string Err;
  // Overlong binary literal for the declared sort.
  EXPECT_FALSE(parseModelReply(
      "((define-fun x () (_ BitVec 4) #b10100))", M, &Err));
  EXPECT_NE(Err.find("bits"), std::string::npos);
  // Too-short binary literal.
  EXPECT_FALSE(parseModelReply(
      "((define-fun x () (_ BitVec 4) #b101))", M));
  // Hex on a width not divisible by four.
  EXPECT_FALSE(parseModelReply(
      "((define-fun x () (_ BitVec 6) #x2a))", M));
  // Negative decimal value.
  EXPECT_FALSE(parseModelReply(
      "((define-fun x () (_ BitVec 4) (_ bv-5 4)))", M, &Err));
  // Decimal value that does not fit the width.
  EXPECT_FALSE(parseModelReply(
      "((define-fun x () (_ BitVec 3) (_ bv9 3)))", M));
  // Decimal value whose own width index disagrees with the sort.
  EXPECT_FALSE(parseModelReply(
      "((define-fun x () (_ BitVec 4) (_ bv5 3)))", M));
  // Garbage literal kinds.
  EXPECT_FALSE(parseModelReply(
      "((define-fun x () (_ BitVec 4) #o17))", M));
  EXPECT_FALSE(parseModelReply(
      "((define-fun x () (_ BitVec 4) twelve))", M));
}

TEST(SmtLibModel, DeeplyNestedReplyFailsInsteadOfOverflowing) {
  // A hostile/corrupt reply nested hundreds of thousands deep must fail
  // the parse (→ protocol-error fallback in the backend), not blow the
  // recursion stack.
  std::string Bomb(500000, '(');
  Bomb += std::string(500000, ')');
  std::vector<std::pair<std::string, Bitvector>> M;
  std::string Err;
  EXPECT_FALSE(parseModelReply(Bomb, M, &Err));
}

TEST(SmtLibModel, BvLiteralEdgeCases) {
  Bitvector BV;
  ASSERT_TRUE(parseBvLiteral("#b0", BV));
  EXPECT_EQ(BV.str(), "0");
  ASSERT_TRUE(parseBvLiteral("#xFf", BV));
  EXPECT_EQ(BV.str(), "11111111");
  EXPECT_FALSE(parseBvLiteral("#b", BV));
  EXPECT_FALSE(parseBvLiteral("#b012", BV));
  EXPECT_FALSE(parseBvLiteral("#xg", BV));
  EXPECT_FALSE(parseBvLiteral("1010", BV));
  EXPECT_FALSE(parseBvLiteral("", BV));
}

TEST(SmtLibModel, RoundTripCounterexampleRefalsifiesFormula) {
  // The full export/import pin: print a validity query, let a "solver"
  // (the in-repo backend standing in for the mock) produce the model,
  // echo it in SMT-LIB syntax, parse it back, desanitize the names — and
  // the reconstructed counterexample must re-falsify the original
  // formula. This is the exact loop SmtLibSolver runs over its pipe.
  BvTermRef X = var("x", 4);
  BvTermRef Y = var("y<odd", 4); // Needs sanitization both ways.
  BvFormulaRef G = BvFormula::mkEq(X, Y); // Not valid.
  BvFormulaRef Query = BvFormula::mkNot(G);
  // The printed script must carry the sanitized name.
  std::string Script = toSmtLibScript(Query, /*GetModel=*/true);
  EXPECT_NE(Script.find(sanitizeSymbol("y<odd")), std::string::npos);
  EXPECT_NE(Script.find("(get-model)"), std::string::npos);
  // "Solver side": solve the query and typeset the model as a reply.
  BitBlastSolver S;
  Model SolverModel;
  ASSERT_EQ(S.checkSat(Query, &SolverModel), SatResult::Sat);
  std::string Reply = "(model\n";
  for (const auto &[Name, Value] : SolverModel)
    Reply += "  (define-fun " + sanitizeSymbol(Name) + " () (_ BitVec " +
             std::to_string(Value.size()) + ") #b" + Value.str() + ")\n";
  Reply += ")";
  // "Checker side": parse, desanitize, and re-evaluate.
  std::vector<std::pair<std::string, Bitvector>> Parsed;
  ASSERT_TRUE(parseModelReply(Reply, Parsed));
  Model Counterexample;
  for (const auto &[Sym, Value] : Parsed)
    Counterexample.emplace_back(desanitizeSymbol(Sym), Value);
  ASSERT_EQ(Counterexample.size(), 2u);
  EXPECT_TRUE(evalFormula(Query, Counterexample));
  EXPECT_FALSE(evalFormula(G, Counterexample)); // Re-falsifies ∀x⃗.G.
}

} // namespace
