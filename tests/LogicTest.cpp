//===- LogicTest.cpp - ConfRel and lowering chain tests -------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the configuration-relation logic (Figure 3 / Definition 4.3) and
/// the full Figure 6 lowering chain: context-dependent widths, concrete
/// evaluation, substitution, the frontier keys (the printer in its
/// canonical-naming mode, fuzzed against a rename-then-print reference),
/// the ctx-aware smart constructors, template filtering, FOL(Conf) compilation, and store
/// elimination. Lowering correctness is also checked by a randomized
/// round trip: a pure formula's concrete truth value on random
/// configuration pairs must equal its lowered FOL(BV) evaluation under
/// the corresponding flat-variable assignment.
///
//===----------------------------------------------------------------------===//

#include "logic/Lower.h"

#include "core/FrontierKey.h"
#include "p4a/Parser.h"

#include "FuzzSupport.h"

#include <algorithm>
#include <functional>
#include <gtest/gtest.h>

using namespace leapfrog;
using namespace leapfrog::logic;

namespace {

Bitvector bv(const std::string &S) { return Bitvector::fromString(S); }

/// Fixture: left automaton has headers a(4), b(2); right has c(3).
/// Guard: left in (s, 2) — buffer width 2 — right in (t, 0).
class ConfRelFixture : public ::testing::Test {
protected:
  void SetUp() override {
    Left = p4a::parseAutomatonOrDie(R"(
      state s { extract(a, 4); extract(b, 2); goto accept }
    )");
    Right = p4a::parseAutomatonOrDie(R"(
      state t { extract(c, 3); goto accept }
    )");
    TP = TemplatePair{
        Template{p4a::StateRef::normal(0), 2},
        Template{p4a::StateRef::normal(0), 0},
    };
    C = Ctx{&Left, &Right, TP};

    CL.Q = p4a::StateRef::normal(0);
    CL.S = p4a::Store(Left);
    CL.S.set(*Left.findHeader("a"), bv("1010"));
    CL.S.set(*Left.findHeader("b"), bv("01"));
    CL.Buf = bv("11");

    CR.Q = p4a::StateRef::normal(0);
    CR.S = p4a::Store(Right);
    CR.S.set(*Right.findHeader("c"), bv("110"));
    CR.Buf = Bitvector();
  }

  p4a::Automaton Left, Right;
  TemplatePair TP;
  Ctx C;
  p4a::Config CL, CR;
};

//===----------------------------------------------------------------------===//
// Widths and evaluation (Definition 4.3)
//===----------------------------------------------------------------------===//

TEST_F(ConfRelFixture, WidthsFollowTheGuard) {
  EXPECT_EQ(widthUnder(C, BitExpr::mkBuf(Side::Left)), 2u);
  EXPECT_EQ(widthUnder(C, BitExpr::mkBuf(Side::Right)), 0u);
  EXPECT_EQ(widthUnder(C, BitExpr::mkHdr(Side::Left, 0)), 4u);
  EXPECT_EQ(widthUnder(C, BitExpr::mkHdr(Side::Right, 0)), 3u);
  EXPECT_EQ(widthUnder(C, BitExpr::mkVar("x", 5)), 5u);
  // Clamped slice width.
  EXPECT_EQ(
      widthUnder(C, BitExpr::mkSlice(BitExpr::mkHdr(Side::Left, 0), 2, 99)),
      2u);
}

TEST_F(ConfRelFixture, EvalReadsBothSides) {
  Valuation Sigma{{"x", bv("0")}};
  EXPECT_EQ(evalBitExpr(C, BitExpr::mkBuf(Side::Left), CL, CR, Sigma),
            bv("11"));
  EXPECT_EQ(evalBitExpr(C, BitExpr::mkHdr(Side::Right, 0), CL, CR, Sigma),
            bv("110"));
  auto E = BitExpr::mkConcat(BitExpr::mkVar("x", 1),
                             BitExpr::mkSlice(BitExpr::mkHdr(Side::Left, 0),
                                              0, 1));
  EXPECT_EQ(evalBitExpr(C, E, CL, CR, Sigma), bv("010"));
}

TEST_F(ConfRelFixture, PureEvalConnectives) {
  Valuation Sigma;
  PureRef Eq = Pure::mkEq(BitExpr::mkSlice(BitExpr::mkHdr(Side::Left, 0), 0,
                                           2),
                          BitExpr::mkHdr(Side::Right, 0));
  // a[0:2] = 101, c = 110: not equal.
  EXPECT_FALSE(evalPure(C, Eq, CL, CR, Sigma));
  EXPECT_TRUE(evalPure(C, Pure::mkNot(Eq), CL, CR, Sigma));
  EXPECT_TRUE(evalPure(C, Pure::mkImplies(Eq, Pure::mkFalse()), CL, CR,
                       Sigma));
}

TEST_F(ConfRelFixture, HoldsConcretelyRespectsGuard) {
  GuardedFormula G{TP, Pure::mkFalse()};
  // Matching configurations: ⊥ fails.
  EXPECT_FALSE(holdsConcretely(Left, Right, G, CL, CR));
  // Non-matching buffer length: guard false, formula holds vacuously.
  p4a::Config CLShort = CL;
  CLShort.Buf = bv("1");
  EXPECT_TRUE(holdsConcretely(Left, Right, G, CLShort, CR));
}

TEST_F(ConfRelFixture, HoldsConcretelyQuantifiesRigidVars) {
  // x = buf< is not true for every x; x = x is.
  GuardedFormula G1{TP, Pure::mkEq(BitExpr::mkVar("x", 2),
                                   BitExpr::mkBuf(Side::Left))};
  EXPECT_FALSE(holdsConcretely(Left, Right, G1, CL, CR));
  auto X = BitExpr::mkVar("x", 2);
  GuardedFormula G2{TP, Pure::mkEq(X, X)};
  EXPECT_TRUE(holdsConcretely(Left, Right, G2, CL, CR));
}

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

TEST_F(ConfRelFixture, SubstitutionRewritesBufAndHeaders) {
  // F: buf< = a<[0:1]. Substitute buf< -> x ++ buf<, a -> 0b0000.
  PureRef F = Pure::mkEq(BitExpr::mkBuf(Side::Left),
                         BitExpr::mkSlice(BitExpr::mkHdr(Side::Left, 0), 0,
                                          1));
  SideSubst L;
  L.Buf = BitExpr::mkConcat(BitExpr::mkVar("x", 1),
                            BitExpr::mkBuf(Side::Left));
  L.Headers = {BitExpr::mkLit(bv("0000")),
               BitExpr::mkHdr(Side::Left, 1)};
  SideSubst R;
  R.Buf = BitExpr::mkBuf(Side::Right);
  R.Headers = {BitExpr::mkHdr(Side::Right, 0)};
  PureRef F2 = substitute(F, L, R);
  EXPECT_EQ(F2->str(),
            Pure::mkEq(L.Buf, BitExpr::mkSlice(BitExpr::mkLit(bv("0000")),
                                               0, 1))
                ->str());
}

TEST_F(ConfRelFixture, SubstitutionLeavesRigidVarsAlone) {
  PureRef F = Pure::mkEq(BitExpr::mkVar("x", 3),
                         BitExpr::mkHdr(Side::Right, 0));
  SideSubst L{BitExpr::mkBuf(Side::Left),
              {BitExpr::mkHdr(Side::Left, 0), BitExpr::mkHdr(Side::Left, 1)}};
  SideSubst R{BitExpr::mkBuf(Side::Right), {BitExpr::mkLit(bv("000"))}};
  PureRef F2 = substitute(F, L, R);
  auto Vars = collectRigidVars(F2);
  ASSERT_EQ(Vars.size(), 1u);
  EXPECT_EQ(Vars[0].first, "x");
}

//===----------------------------------------------------------------------===//
// Frontier keys: the printer in canonical-naming mode
//===----------------------------------------------------------------------===//

TEST_F(ConfRelFixture, FrontierKeyIsAlphaInvariant) {
  auto Mk = [&](const std::string &N1, const std::string &N2) {
    return GuardedFormula{
        TP, Pure::mkAnd(Pure::mkEq(BitExpr::mkVar(N1, 2),
                                   BitExpr::mkBuf(Side::Left)),
                        Pure::mkEq(BitExpr::mkVar(N2, 2),
                                   BitExpr::mkSlice(
                                       BitExpr::mkHdr(Side::Right, 0), 0,
                                       1)))};
  };
  using core::detail::frontierKey;
  GuardedFormula A = Mk("x7", "x9");
  EXPECT_EQ(frontierKey(A), frontierKey(Mk("y1", "zz")));
  // Canonical names are positional, so swapping the two names is an
  // α-renaming too.
  EXPECT_EQ(frontierKey(A), frontierKey(Mk("x9", "x7")));
  // Different structure ⇒ different key: one variable used twice is not
  // two variables.
  EXPECT_NE(frontierKey(A), frontierKey(Mk("x7", "x7")));
  // The guard is part of the key.
  GuardedFormula Moved = A;
  Moved.TP.R.N = 1;
  EXPECT_NE(frontierKey(A), frontierKey(Moved));
}

TEST_F(ConfRelFixture, FrontierKeyNamesEncodeWidths) {
  auto Mk = [&](const std::string &Name, size_t Width) {
    return GuardedFormula{TP, Pure::mkEq(BitExpr::mkVar(Name, Width),
                                         BitExpr::mkBuf(Side::Left))};
  };
  EXPECT_EQ(core::detail::frontierKey(Mk("a", 2)),
            core::detail::formulaKey(Mk("v0w2", 2)));
  EXPECT_EQ(core::detail::frontierKey(Mk("a", 3)),
            core::detail::formulaKey(Mk("v0w3", 3)));
}

//===----------------------------------------------------------------------===//
// Smart constructors (§6.2 stage 1)
//===----------------------------------------------------------------------===//

TEST_F(ConfRelFixture, SmartSliceClampsAndFolds) {
  auto A = BitExpr::mkHdr(Side::Left, 0); // 4 bits.
  // Full width → identity.
  EXPECT_EQ(mkSliceS(C, A, 0, 3), A);
  EXPECT_EQ(mkSliceS(C, A, 0, 99), A);
  // Slice of literal folds.
  auto L = mkSliceS(C, BitExpr::mkLit(bv("1100")), 1, 2);
  ASSERT_EQ(L->kind(), BitExpr::Kind::Lit);
  EXPECT_EQ(L->literal(), bv("10"));
  // Inverted bounds → ε.
  EXPECT_EQ(widthUnder(C, mkSliceS(C, A, 3, 1)), 0u);
}

TEST_F(ConfRelFixture, SmartSlicePushesThroughConcat) {
  auto A = BitExpr::mkHdr(Side::Left, 0); // 4 bits.
  auto B = BitExpr::mkHdr(Side::Left, 1); // 2 bits.
  auto AB = mkConcatS(C, A, B);
  // Inside left.
  EXPECT_EQ(mkSliceS(C, AB, 1, 3)->str(), mkSliceS(C, A, 1, 3)->str());
  // Inside right.
  EXPECT_EQ(mkSliceS(C, AB, 4, 5)->str(), B->str());
  // Straddling → concat of slices.
  auto S = mkSliceS(C, AB, 3, 4);
  ASSERT_EQ(S->kind(), BitExpr::Kind::Concat);
}

TEST_F(ConfRelFixture, SmartConcatDropsEpsilonBuffer) {
  // buf> has width 0 under this guard: it vanishes from concatenations.
  auto E = mkConcatS(C, BitExpr::mkBuf(Side::Right),
                     BitExpr::mkHdr(Side::Right, 0));
  EXPECT_EQ(E->kind(), BitExpr::Kind::Hdr);
}

TEST_F(ConfRelFixture, SmartConstructorsPreserveSemantics) {
  // mkSliceS/mkConcatS must be semantics-preserving under the same ctx.
  Valuation Sigma;
  auto A = BitExpr::mkHdr(Side::Left, 0);
  auto B = BitExpr::mkBuf(Side::Left);
  auto Plain = BitExpr::mkSlice(BitExpr::mkConcat(A, B), 2, 5);
  auto Smart = mkSliceS(C, mkConcatS(C, A, B), 2, 5);
  EXPECT_EQ(evalBitExpr(C, Plain, CL, CR, Sigma),
            evalBitExpr(C, Smart, CL, CR, Sigma));
}

//===----------------------------------------------------------------------===//
// The Figure 6 chain
//===----------------------------------------------------------------------===//

TEST_F(ConfRelFixture, TemplateFilteringDiscardsOtherGuards) {
  TemplatePair OtherTP{Template::accept(), Template::accept()};
  std::vector<GuardedFormula> Premises{
      {TP, Pure::mkEq(BitExpr::mkBuf(Side::Left), BitExpr::mkLit(bv("11")))},
      {OtherTP, Pure::mkFalse()},
      {TP, Pure::mkEq(BitExpr::mkHdr(Side::Right, 0),
                      BitExpr::mkLit(bv("110")))},
  };
  GuardedFormula Goal{TP, Pure::mkFalse()};
  LowerResult Res = lowerEntailment(Left, Right, Premises, Goal);
  EXPECT_EQ(Res.PremisesTotal, 3u);
  EXPECT_EQ(Res.PremisesKept, 2u);
}

TEST_F(ConfRelFixture, FolConfExactifiesSlices) {
  // buf<[0:99] clamps to [0:1] under the guard; the FOL(Conf) term must
  // carry the exact bounds.
  PureRef F = Pure::mkEq(
      BitExpr::mkSlice(BitExpr::mkBuf(Side::Left), 0, 99),
      BitExpr::mkLit(bv("11")));
  folconf::FormulaRef FC = folconf::fromPure(C, F);
  ASSERT_EQ(FC->kind(), folconf::Formula::Kind::Eq);
  EXPECT_EQ(FC->eqLhs()->width(), 2u);
}

TEST_F(ConfRelFixture, StoreEliminationNamesSidesDistinctly) {
  PureRef F = Pure::mkEq(
      BitExpr::mkSlice(BitExpr::mkHdr(Side::Left, 0), 0, 2),
      BitExpr::mkHdr(Side::Right, 0));
  smt::BvFormulaRef Q = lowerPure(Left, Right, TP, F);
  auto Vars = smt::collectVars(Q);
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Vars[0].first, "h<a");
  EXPECT_EQ(Vars[1].first, "h>c");
}

TEST_F(ConfRelFixture, EpsilonBufferLowersToEmptyConstant) {
  // buf> (width 0) = ε must lower to True rather than a 0-width variable.
  PureRef F = Pure::mkEq(BitExpr::mkBuf(Side::Right),
                         BitExpr::mkLit(Bitvector()));
  smt::BvFormulaRef Q = lowerPure(Left, Right, TP, F);
  EXPECT_EQ(Q->kind(), smt::BvFormula::Kind::True);
}

//===----------------------------------------------------------------------===//
// Randomized lowering round trip
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

class LoweringRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LoweringRoundTrip, ConcreteEvalMatchesLoweredEval) {
  Rng R{uint64_t(GetParam())};
  p4a::Automaton Left = p4a::parseAutomatonOrDie(
      "state s { extract(a, 4); extract(b, 2); goto accept }");
  p4a::Automaton Right =
      p4a::parseAutomatonOrDie("state t { extract(c, 3); goto accept }");
  TemplatePair TP{Template{p4a::StateRef::normal(0), 1 + R.below(5)},
                  Template{p4a::StateRef::normal(0), R.below(3)}};
  Ctx C{&Left, &Right, TP};

  // Random pure formula over both sides' headers, buffers, and one var.
  std::function<BitExprRef(int)> RandExpr = [&](int Depth) -> BitExprRef {
    switch (Depth == 0 ? R.below(4) : R.below(6)) {
    case 0:
      return BitExpr::mkHdr(Side::Left, p4a::HeaderId(R.below(2)));
    case 1:
      return BitExpr::mkHdr(Side::Right, 0);
    case 2:
      return BitExpr::mkBuf(R.below(2) ? Side::Left : Side::Right);
    case 3:
      return BitExpr::mkVar("x", 2);
    case 4:
      return BitExpr::mkConcat(RandExpr(Depth - 1), RandExpr(Depth - 1));
    default:
      return BitExpr::mkSlice(RandExpr(Depth - 1), R.below(4), R.below(8));
    }
  };
  BitExprRef A = RandExpr(2);
  BitExprRef B = RandExpr(2);
  size_t WA = widthUnder(C, A), WB = widthUnder(C, B);
  // Make widths equal by slicing the wider one (clamped slice semantics).
  if (WA < WB)
    B = WA == 0 ? BitExpr::mkLit(Bitvector()) : mkSliceS(C, B, 0, WA - 1);
  else if (WB < WA)
    A = WB == 0 ? BitExpr::mkLit(Bitvector()) : mkSliceS(C, A, 0, WB - 1);
  PureRef F = Pure::mkEq(A, B);
  if (R.below(2))
    F = Pure::mkNot(F);

  smt::BvFormulaRef Lowered = lowerPure(Left, Right, TP, F);

  // Random configurations matching the guard, random valuation.
  for (int Trial = 0; Trial < 8; ++Trial) {
    p4a::Config CL{p4a::StateRef::normal(0),
                   p4a::Store::fromBits(Left,
                                        Bitvector::fromUint(R.next(), 6)),
                   Bitvector::fromUint(R.next(), TP.L.N)};
    p4a::Config CR{p4a::StateRef::normal(0),
                   p4a::Store::fromBits(Right,
                                        Bitvector::fromUint(R.next(), 3)),
                   Bitvector::fromUint(R.next(), TP.R.N)};
    Valuation Sigma{{"x", Bitvector::fromUint(R.next(), 2)}};
    bool Concrete = evalPure(C, F, CL, CR, Sigma);

    // Corresponding flat assignment for the lowered formula.
    std::vector<std::pair<std::string, Bitvector>> Flat{
        {"h<a", CL.S.get(0)}, {"h<b", CL.S.get(1)}, {"h>c", CR.S.get(0)},
        {"$x", Sigma[0].second}};
    if (TP.L.N > 0)
      Flat.emplace_back("buf<", CL.Buf);
    if (TP.R.N > 0)
      Flat.emplace_back("buf>", CR.Buf);
    bool Low = smt::evalFormula(Lowered, Flat);
    ASSERT_EQ(Concrete, Low)
        << "lowering changed the meaning of " << F->str() << " (seed "
        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Random, LoweringRoundTrip, ::testing::Range(0, 80));

//===----------------------------------------------------------------------===//
// Frontier-key fuzz: one-pass key vs rename-then-print reference
//===----------------------------------------------------------------------===//

using Renaming = std::vector<std::pair<std::string, std::string>>;

/// Reference renaming for the fuzz below: rebuilds ψ through the smart
/// constructors with every rigid variable renamed per \p Map.
BitExprRef renameExprRef(const BitExprRef &E, const Renaming &Map) {
  switch (E->kind()) {
  case BitExpr::Kind::Lit:
  case BitExpr::Kind::Buf:
  case BitExpr::Kind::Hdr:
    return E;
  case BitExpr::Kind::Var:
    for (const auto &[From, To] : Map)
      if (From == E->varName())
        return BitExpr::mkVar(To, E->varWidth());
    return E;
  case BitExpr::Kind::Slice:
    return BitExpr::mkSlice(renameExprRef(E->sliceOperand(), Map),
                            E->sliceLo(), E->sliceHi());
  case BitExpr::Kind::Concat:
    return BitExpr::mkConcat(renameExprRef(E->concatLhs(), Map),
                             renameExprRef(E->concatRhs(), Map));
  }
  return E;
}

PureRef renamePureRef(const PureRef &F, const Renaming &Map) {
  switch (F->kind()) {
  case Pure::Kind::True:
  case Pure::Kind::False:
    return F;
  case Pure::Kind::Eq:
    return Pure::mkEq(renameExprRef(F->eqLhs(), Map),
                      renameExprRef(F->eqRhs(), Map));
  case Pure::Kind::Not:
    return Pure::mkNot(renamePureRef(F->sub(), Map));
  case Pure::Kind::And:
    return Pure::mkAnd(renamePureRef(F->lhs(), Map),
                       renamePureRef(F->rhs(), Map));
  case Pure::Kind::Or:
    return Pure::mkOr(renamePureRef(F->lhs(), Map),
                      renamePureRef(F->rhs(), Map));
  case Pure::Kind::Implies:
    return Pure::mkImplies(renamePureRef(F->lhs(), Map),
                           renamePureRef(F->rhs(), Map));
  }
  return F;
}

/// The frontier key as it was first defined, in three passes: collect
/// the rigid variables, rename them v<i>w<width> in first-occurrence
/// order, render the renamed copy.
std::string referenceFrontierKey(const GuardedFormula &G) {
  Renaming Map;
  for (const auto &[Name, Width] : collectRigidVars(G.Phi))
    Map.emplace_back(Name, "v" + std::to_string(Map.size()) + "w" +
                               std::to_string(Width));
  return core::detail::formulaKey(
      GuardedFormula{G.TP, renamePureRef(G.Phi, Map)});
}

/// Random guarded formulas for the key fuzz: ≥ 12 distinct rigid
/// variables (so canonical indices reach two digits) of widths 1–64,
/// repeated variables, shared subtrees, empty and long literals, slices,
/// concats and every connective, under a random guard.
struct KeyFuzzGen {
  Rng R;
  std::vector<std::pair<std::string, size_t>> Vars;
  std::vector<BitExprRef> SharedExprs;
  std::vector<PureRef> SharedPures;

  explicit KeyFuzzGen(uint64_t Seed) : R(Seed) {
    size_t N = 12 + R.below(8);
    for (size_t I = 0; I < N; ++I) {
      // Some names look like canonical names, so a key that mixed
      // original and canonical names would collide.
      std::string Name = R.below(3) == 0
                             ? "v" + std::to_string(R.below(20)) + "w" +
                                   std::to_string(1 + R.below(64))
                             : "x" + std::to_string(I);
      if (std::any_of(Vars.begin(), Vars.end(),
                      [&](const auto &V) { return V.first == Name; }))
        Name = "y" + std::to_string(I);
      Vars.emplace_back(Name, 1 + R.below(64));
    }
  }

  BitExprRef var() {
    const auto &[Name, Width] = Vars[R.below(Vars.size())];
    return BitExpr::mkVar(Name, Width);
  }

  BitExprRef expr(int Depth) {
    if (!SharedExprs.empty() && R.below(6) == 0)
      return SharedExprs[R.below(SharedExprs.size())];
    BitExprRef E;
    switch (Depth == 0 ? R.below(4) : R.below(6)) {
    case 0: {
      // Empty, short and long (multi-word) literals.
      size_t W = R.below(4) == 0 ? 0 : R.below(3) == 0 ? 65 + R.below(80)
                                                       : 1 + R.below(16);
      std::string Bits;
      for (size_t I = 0; I < W; ++I)
        Bits.push_back(R.below(2) ? '1' : '0');
      E = BitExpr::mkLit(Bitvector::fromString(Bits));
      break;
    }
    case 1:
      E = BitExpr::mkBuf(R.below(2) ? Side::Left : Side::Right);
      break;
    case 2:
      E = BitExpr::mkHdr(R.below(2) ? Side::Left : Side::Right,
                         p4a::HeaderId(R.below(12)));
      break;
    case 3:
      E = var();
      break;
    case 4:
      E = BitExpr::mkConcat(expr(Depth - 1), expr(Depth - 1));
      break;
    default:
      E = BitExpr::mkSlice(expr(Depth - 1), R.below(70), R.below(140));
      break;
    }
    SharedExprs.push_back(E);
    return E;
  }

  PureRef pure(int Depth) {
    if (!SharedPures.empty() && R.below(6) == 0)
      return SharedPures[R.below(SharedPures.size())];
    PureRef F;
    switch (Depth == 0 ? R.below(3) : R.below(7)) {
    case 0:
      F = R.below(8) == 0 ? Pure::mkTrue() : Pure::mkEq(expr(3), expr(3));
      break;
    case 1:
      F = R.below(8) == 0 ? Pure::mkFalse() : Pure::mkEq(var(), expr(2));
      break;
    case 2:
      F = Pure::mkEq(expr(2), var());
      break;
    case 3:
      F = Pure::mkNot(pure(Depth - 1));
      break;
    case 4:
      F = Pure::mkAnd(pure(Depth - 1), pure(Depth - 1));
      break;
    case 5:
      F = Pure::mkOr(pure(Depth - 1), pure(Depth - 1));
      break;
    default:
      F = Pure::mkImplies(pure(Depth - 1), pure(Depth - 1));
      break;
    }
    SharedPures.push_back(F);
    return F;
  }

  Template templ() {
    size_t K = R.below(4);
    return Template{K == 0   ? p4a::StateRef::accept()
                    : K == 1 ? p4a::StateRef::reject()
                             : p4a::StateRef::normal(R.below(30)),
                    R.below(200)};
  }

  GuardedFormula formula() {
    // Every variable occurs at least once, in a random order, between
    // two random subformulas.
    std::vector<size_t> Order(Vars.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    PureRef All = nonConstant(pure(4));
    for (size_t I : Order)
      All = Pure::mkAnd(
          All, Pure::mkEq(BitExpr::mkVar(Vars[I].first, Vars[I].second),
                          expr(1)));
    return GuardedFormula{TemplatePair{templ(), templ()},
                          Pure::mkAnd(All, nonConstant(pure(4)))};
  }

  /// A constant conjunct would fold the whole formula away.
  PureRef nonConstant(PureRef F) {
    if (F->kind() == Pure::Kind::True || F->kind() == Pure::Kind::False)
      return Pure::mkEq(var(), expr(1));
    return F;
  }
};

TEST(FrontierKeyFuzz, OnePassKeyMatchesRenameThenPrint) {
  int Iters = leapfrog::testing::fuzzIters(300);
  leapfrog::testing::reportFuzzConfig("FrontierKeyFuzz", Iters, 1);
  size_t TwoDigit = 0;
  for (int Seed = 1; Seed <= Iters; ++Seed) {
    KeyFuzzGen Gen{uint64_t(Seed)};
    GuardedFormula G = Gen.formula();
    std::string Key = core::detail::frontierKey(G);
    ASSERT_EQ(Key, referenceFrontierKey(G)) << "seed " << Seed;
    if (Key.find("$v11w") != std::string::npos)
      ++TwoDigit;

    // Invariant under a random injective renaming of the variables.
    Renaming Map;
    for (size_t I = 0; I < Gen.Vars.size(); ++I)
      Map.emplace_back(Gen.Vars[I].first,
                       "r" + std::to_string(Gen.R.below(1000)) + "_" +
                           std::to_string(I));
    GuardedFormula Renamed{G.TP, renamePureRef(G.Phi, Map)};
    ASSERT_NE(core::detail::formulaKey(Renamed), core::detail::formulaKey(G))
        << "seed " << Seed;
    ASSERT_EQ(core::detail::frontierKey(Renamed), Key) << "seed " << Seed;
  }
  EXPECT_EQ(TwoDigit, size_t(Iters)) << "canonical indices reach 11";
}

} // namespace
