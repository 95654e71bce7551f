//===- WpTest.cpp - Weakest precondition and reachability tests -----------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the two pillars under Algorithm 1: the template abstraction of
/// §5.1 (leap sizes, abstract successors, reachability) and the symbolic
/// weakest precondition of Lemmas 4.8/4.9 and Theorem 5.7. The central
/// property test is the WP characterization itself, checked concretely:
///
///   c1 ⟦⋀WP(ψ)⟧ c2   ⟺   ∀w ∈ {0,1}^♯(c1,c2): δ*(c1,w) ⟦ψ⟧ δ*(c2,w)
///
/// on random configurations of small automata, in both leap and bit-level
/// modes. The predecessor index that narrows each WP call to the goal
/// guard's predecessors has its own differential fence: over every
/// registry study and corpus pair, WP over the index list must equal WP
/// over the whole domain, formula for formula.
///
//===----------------------------------------------------------------------===//

#include "core/WeakestPrecondition.h"

#include "frontend/Elaborate.h"
#include "frontend/Text.h"
#include "p4a/Parser.h"
#include "parsers/CaseStudies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace leapfrog;
using namespace leapfrog::core;
using namespace leapfrog::logic;

namespace {

//===----------------------------------------------------------------------===//
// Templates and leap sizes (Definitions 4.7, 5.3)
//===----------------------------------------------------------------------===//

TEST(Templates, EnumerationCoversBufferLengths) {
  p4a::Automaton A = p4a::parseAutomatonOrDie(R"(
    state s { extract(h, 3); goto t }
    state t { extract(g, 2); goto accept }
  )");
  auto Ts = allTemplates(A);
  // 3 (s) + 2 (t) + accept + reject.
  EXPECT_EQ(Ts.size(), 7u);
}

TEST(Templates, LeapSizeCases) {
  p4a::Automaton A = p4a::parseAutomatonOrDie(
      "state s { extract(h, 5); goto accept }");
  p4a::Automaton B = p4a::parseAutomatonOrDie(
      "state t { extract(g, 3); goto accept }");
  auto NS = [](size_t N) { return Template{p4a::StateRef::normal(0), N}; };

  // Both running: min of deficits.
  EXPECT_EQ(leapSize(A, B, {NS(0), NS(0)}), 3u);
  EXPECT_EQ(leapSize(A, B, {NS(4), NS(0)}), 1u);
  EXPECT_EQ(leapSize(A, B, {NS(2), NS(2)}), 1u);
  // One side terminal: the other side's deficit.
  EXPECT_EQ(leapSize(A, B, {Template::accept(), NS(1)}), 2u);
  EXPECT_EQ(leapSize(A, B, {NS(1), Template::reject()}), 4u);
  // Both terminal: one step.
  EXPECT_EQ(leapSize(A, B, {Template::accept(), Template::reject()}), 1u);
}

TEST(Templates, SuccessorsBufferOrTransition) {
  p4a::Automaton A = p4a::parseAutomatonOrDie(R"(
    state s { extract(h, 3); select(h[0:0]) { 0 => s  1 => accept } }
  )");
  Template S0{p4a::StateRef::normal(0), 0};
  // Buffering: one deterministic successor.
  auto Buf = templateSuccessors(A, S0, 2);
  ASSERT_EQ(Buf.size(), 1u);
  EXPECT_EQ(Buf[0].N, 2u);
  // Filling: all syntactic successors at buffer 0 (incl. fall-through
  // reject suppressed? h[0:0] covers 0/1 but select fall-through is only
  // suppressed by a wildcard case, so reject appears).
  auto Fill = templateSuccessors(A, S0, 3);
  EXPECT_EQ(Fill.size(), 3u);
  // Terminal: collapses to reject.
  auto Term = templateSuccessors(A, Template::accept(), 1);
  ASSERT_EQ(Term.size(), 1u);
  EXPECT_TRUE(Term[0].Q.isReject());
}

TEST(Templates, ReachSoundOnConcreteRuns) {
  // Every concrete joint run's template pair must appear in reach.
  p4a::Automaton A = p4a::parseAutomatonOrDie(R"(
    state s { extract(h, 2); select(h[0:0]) { 0 => s  1 => accept } }
  )");
  p4a::Automaton B = p4a::parseAutomatonOrDie(R"(
    state t { extract(g, 1); goto u }
    state u { extract(f, 1); select(f[0:0]) { 0 => t  _ => accept } }
  )");
  TemplatePair Start{Template{p4a::StateRef::normal(0), 0},
                     Template{p4a::StateRef::normal(0), 0}};
  for (bool Leaps : {false, true}) {
    auto Reach = computeReach(A, B, Start, Leaps);
    auto Contains = [&Reach](TemplatePair TP) {
      for (TemplatePair P : Reach)
        if (P == TP)
          return true;
      return false;
    };
    // Walk all packets of length ≤ 6 from zero stores; at leap boundaries
    // the joint floor must be in the reach set. (Bit-level reach covers
    // every intermediate floor, so check each step in that mode.)
    for (uint64_t Raw = 0; Raw < 64; ++Raw) {
      Bitvector W = Bitvector::fromUint(Raw, 6);
      p4a::Config C1 = p4a::initialConfig(p4a::StateRef::normal(0),
                                          p4a::Store(A));
      p4a::Config C2 = p4a::initialConfig(p4a::StateRef::normal(0),
                                          p4a::Store(B));
      size_t I = 0;
      while (I < W.size()) {
        size_t K = Leaps ? leapSize(A, B, TemplatePair{
                                              Template::ofConfig(C1),
                                              Template::ofConfig(C2)})
                         : 1;
        for (size_t J = 0; J < K && I < W.size(); ++J, ++I) {
          C1 = p4a::step(A, C1, W.bit(I));
          C2 = p4a::step(B, C2, W.bit(I));
        }
        if (I <= W.size()) {
          EXPECT_TRUE(Contains(TemplatePair{Template::ofConfig(C1),
                                            Template::ofConfig(C2)}))
              << "missing floor after " << I << " bits of " << W.str()
              << (Leaps ? " (leaps)" : " (bit)");
        }
      }
    }
  }
}

TEST(Templates, AllPairsIsFullProduct) {
  p4a::Automaton A = p4a::parseAutomatonOrDie(
      "state s { extract(h, 2); goto accept }");
  EXPECT_EQ(allPairs(A, A).size(), 16u); // (2+2)^2 templates.
}

//===----------------------------------------------------------------------===//
// Symbolic execution helpers
//===----------------------------------------------------------------------===//

TEST(SymExec, PostStoreReflectsExtractsAndAssigns) {
  p4a::Automaton A = p4a::parseAutomatonOrDie(R"(
    header c : 4;
    state s { extract(a, 2); extract(b, 2); c := b ++ a; goto accept }
  )");
  Ctx C{&A, &A, TemplatePair{Template{p4a::StateRef::normal(0), 0},
                             Template{p4a::StateRef::normal(0), 0}}};
  BitExprRef Input = BitExpr::mkVar("in", 4);
  auto Post = symExecOps(C, Side::Left, A, 0, Input);
  // a = in[0:1], b = in[2:3], c = b ++ a = in[2:3] ++ in[0:1].
  EXPECT_EQ(Post[*A.findHeader("a")]->str(), "$in[0:1]");
  EXPECT_EQ(Post[*A.findHeader("b")]->str(), "$in[2:3]");
  EXPECT_EQ(Post[*A.findHeader("c")]->str(), "($in[2:3] ++ $in[0:1])");
}

TEST(SymExec, TransitionConditionFirstMatch) {
  p4a::Automaton A = p4a::parseAutomatonOrDie(R"(
    state s {
      extract(h, 2);
      select(h[0:0]) { 0 => accept  _ => s }
    }
  )");
  Ctx C{&A, &A, TemplatePair{Template{p4a::StateRef::normal(0), 0},
                             Template{p4a::StateRef::normal(0), 0}}};
  std::vector<BitExprRef> Post{
      BitExpr::mkSlice(BitExpr::mkVar("in", 2), 0, 1)};
  PureRef ToAccept =
      transitionCondition(C, Side::Left, A, 0, Post, p4a::StateRef::accept());
  PureRef ToS = transitionCondition(C, Side::Left, A, 0, Post,
                                    p4a::StateRef::normal(0));
  PureRef ToReject =
      transitionCondition(C, Side::Left, A, 0, Post, p4a::StateRef::reject());
  // The wildcard catch-all makes fall-through unreachable.
  EXPECT_EQ(ToReject->kind(), Pure::Kind::False);
  // First-match: s is reached only when the first case does NOT match.
  EXPECT_NE(ToAccept->kind(), Pure::Kind::False);
  EXPECT_NE(ToS->kind(), Pure::Kind::True);
}

TEST(SymExec, GotoConditionIsConstant) {
  p4a::Automaton A = p4a::parseAutomatonOrDie(
      "state s { extract(h, 2); goto accept }");
  Ctx C{&A, &A, TemplatePair{Template{p4a::StateRef::normal(0), 0},
                             Template{p4a::StateRef::normal(0), 0}}};
  std::vector<BitExprRef> Post{BitExpr::mkVar("in", 2)};
  EXPECT_EQ(transitionCondition(C, Side::Left, A, 0, Post,
                                p4a::StateRef::accept())
                ->kind(),
            Pure::Kind::True);
  EXPECT_EQ(transitionCondition(C, Side::Left, A, 0, Post,
                                p4a::StateRef::reject())
                ->kind(),
            Pure::Kind::False);
}

//===----------------------------------------------------------------------===//
// The WP characterization, checked concretely (Lemma 4.9 / Theorem 5.7)
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

class WpCharacterization
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(WpCharacterization, MatchesMultiStepSemantics) {
  auto [Seed, UseLeaps] = GetParam();
  Rng R{uint64_t(Seed)};

  p4a::Automaton A = p4a::parseAutomatonOrDie(R"(
    state s { extract(a, 2); select(a[0:0]) { 0 => s  1 => accept } }
  )");
  p4a::Automaton B = p4a::parseAutomatonOrDie(R"(
    header d : 1;
    state t { extract(c, 1); d := c; select(d[0:0]) { 1 => accept  _ => t } }
  )");

  // A random goal over a random guard.
  auto TemplatesA = allTemplates(A);
  auto TemplatesB = allTemplates(B);
  TemplatePair GoalTP{TemplatesA[R.below(TemplatesA.size())],
                      TemplatesB[R.below(TemplatesB.size())]};
  // Goal: either ⊥ or an equation between a left-header slice and a
  // right-header (padded), both meaningful under any guard.
  PureRef Phi;
  if (R.below(3) == 0) {
    Phi = Pure::mkFalse();
  } else {
    Phi = Pure::mkEq(
        BitExpr::mkSlice(BitExpr::mkHdr(Side::Left, 0), 0, 0),
        BitExpr::mkHdr(Side::Right, *B.findHeader("d")));
  }
  GuardedFormula Goal{GoalTP, Phi};

  std::vector<TemplatePair> Sources = allPairs(A, B);
  size_t Fresh = 0;
  std::vector<GuardedFormula> Wp =
      weakestPrecondition(A, B, Goal, Sources, UseLeaps, Fresh);

  // Concrete check on random configurations.
  for (int Trial = 0; Trial < 40; ++Trial) {
    // Random configuration pair (uniform over templates, stores, buffers).
    Template TL = TemplatesA[R.below(TemplatesA.size())];
    Template TR = TemplatesB[R.below(TemplatesB.size())];
    p4a::Config C1{TL.Q, p4a::Store::fromBits(
                             A, Bitvector::fromUint(R.next(), 2)),
                   Bitvector::fromUint(R.next(), TL.N)};
    p4a::Config C2{TR.Q, p4a::Store::fromBits(
                             B, Bitvector::fromUint(R.next(), 2)),
                   Bitvector::fromUint(R.next(), TR.N)};

    size_t K = UseLeaps ? leapSize(A, B, TemplatePair{TL, TR}) : 1;

    // Right side of the characterization: all K-bit continuations land in
    // ψ-satisfying pairs.
    bool AllSteps = true;
    for (uint64_t W = 0; W < (uint64_t(1) << K); ++W) {
      Bitvector Word = Bitvector::fromUint(W, K);
      p4a::Config D1 = p4a::multiStep(A, C1, Word);
      p4a::Config D2 = p4a::multiStep(B, C2, Word);
      AllSteps &= holdsConcretely(A, B, Goal, D1, D2);
    }

    // Left side: the configuration pair satisfies every WP formula.
    bool AllWp = true;
    for (const GuardedFormula &G : Wp)
      AllWp &= holdsConcretely(A, B, G, C1, C2);

    ASSERT_EQ(AllWp, AllSteps)
        << "WP characterization violated (seed " << Seed << ", leaps "
        << UseLeaps << ", trial " << Trial << ") at guard ["
        << A.refName(TL.Q) << "," << TL.N << "]x[" << B.refName(TR.Q) << ","
        << TR.N << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, WpCharacterization,
    ::testing::Combine(::testing::Range(0, 40), ::testing::Bool()),
    [](const ::testing::TestParamInfo<WpCharacterization::ParamType> &Info) {
      return "seed" + std::to_string(std::get<0>(Info.param)) +
             (std::get<1>(Info.param) ? "_leaps" : "_bit");
    });

//===----------------------------------------------------------------------===//
// The predecessor index (Reachability.h): WP over PredecessorIndex::of(ψ.TP)
// is WP over the whole domain
//===----------------------------------------------------------------------===//

/// A conjunct for goal guard \p TP that touches a header on each side and,
/// when the left buffer is non-empty, the buffer too — so both the store
/// and the buffer substitutions show in the rendered WP formulas.
GuardedFormula generatedConjunct(const p4a::Automaton &L,
                                 const p4a::Automaton &R, TemplatePair TP,
                                 size_t Salt) {
  BitExprRef HL = BitExpr::mkSlice(
      BitExpr::mkHdr(Side::Left, p4a::HeaderId(Salt % L.numHeaders())), 0,
      0);
  BitExprRef HR = BitExpr::mkSlice(
      BitExpr::mkHdr(Side::Right, p4a::HeaderId(Salt % R.numHeaders())), 0,
      0);
  PureRef Phi = Pure::mkEq(HL, HR);
  if (TP.L.N > 0)
    Phi = Pure::mkAnd(
        Phi, Pure::mkEq(BitExpr::mkSlice(BitExpr::mkBuf(Side::Left), 0, 0),
                        HR));
  return GuardedFormula{TP, Phi};
}

std::vector<std::string> rendered(const p4a::Automaton &L,
                                  const p4a::Automaton &R,
                                  const std::vector<GuardedFormula> &Fs) {
  std::vector<std::string> Out;
  for (const GuardedFormula &F : Fs)
    Out.push_back(F.str(L, R));
  return Out;
}

std::string guardStr(const p4a::Automaton &L, const p4a::Automaton &R,
                     TemplatePair TP) {
  return "[" + L.refName(TP.L.Q) + "," + std::to_string(TP.L.N) + "]x[" +
         R.refName(TP.R.Q) + "," + std::to_string(TP.R.N) + "]";
}

/// Budgets that keep the fence affordable on the large rows. A full scan
/// costs one WP source visit per (goal, domain pair): bit-level reach sets
/// reach 43 324 pairs (Datacenter) and template products 3.7M, so a leg
/// over budget poses every k-th reachable goal guard instead of all of
/// them, and the product leg is skipped above MaxProductPairs (its index
/// alone would hold millions of lists).
constexpr size_t MaxScanVisits = 400000;
constexpr size_t MaxProductPairs = 300000;

/// For every reachable goal guard (every k-th on the large legs), WP of a
/// generated conjunct over the index list and over the whole domain must
/// render the same formulas in the same order and leave the same
/// FreshCounter — in both leap modes, over the reach set and over the
/// full product. Adds the number of legs it ran to \p Legs.
void expectIndexMatchesFullScan(const std::string &Label,
                                const p4a::Automaton &L,
                                const p4a::Automaton &R, TemplatePair Start,
                                size_t &Legs) {
  for (bool UseLeaps : {false, true}) {
    std::vector<TemplatePair> Goals = computeReach(L, R, Start, UseLeaps);
    for (bool UseReach : {true, false}) {
      std::vector<TemplatePair> Domain = UseReach ? Goals : allPairs(L, R);
      if (Domain.size() > MaxProductPairs)
        continue;
      size_t Stride = 1 + Goals.size() * Domain.size() / MaxScanVisits;
      ++Legs;
      const PredecessorIndex Preds(L, R, Domain, UseLeaps);
      std::string Leg = Label + (UseLeaps ? " leaps" : " bit") +
                        (UseReach ? " reach" : " allPairs");
      size_t FreshIndexed = 0, FreshFull = 0;
      size_t Emitted = 0;
      for (size_t G = 0; G < Goals.size(); G += Stride) {
        GuardedFormula Goal = generatedConjunct(L, R, Goals[G], G);
        std::vector<GuardedFormula> Indexed = weakestPrecondition(
            L, R, Goal, Preds.of(Goal.TP), UseLeaps, FreshIndexed);
        std::vector<GuardedFormula> Full = weakestPrecondition(
            L, R, Goal, Domain, UseLeaps, FreshFull);
        ASSERT_EQ(rendered(L, R, Indexed), rendered(L, R, Full))
            << Leg << ": goal guard " << guardStr(L, R, Goal.TP);
        ASSERT_EQ(FreshIndexed, FreshFull)
            << Leg << ": goal guard " << guardStr(L, R, Goal.TP);
        Emitted += Full.size();
      }
      // Non-vacuity: the reach set is closed under the step, so some goal
      // has a predecessor and WP emitted something.
      EXPECT_GT(Emitted, 0u) << Leg;
    }
  }
}

TEST(PredecessorIndex, ListsEveryCompatibleSourceInDomainOrder) {
  // The WpCharacterization pair: a select loop with fall-through to
  // reject on one side, a wildcard catch-all (no fall-through) on the
  // other, so successor over-approximation is exercised both ways.
  p4a::Automaton A = p4a::parseAutomatonOrDie(R"(
    state s { extract(a, 2); select(a[0:0]) { 0 => s  1 => accept } }
  )");
  p4a::Automaton B = p4a::parseAutomatonOrDie(R"(
    header d : 1;
    state t { extract(c, 1); d := c; select(d[0:0]) { 1 => accept  _ => t } }
  )");
  for (bool UseLeaps : {false, true}) {
    std::vector<TemplatePair> Domain = allPairs(A, B);
    const PredecessorIndex Preds(A, B, Domain, UseLeaps);
    for (size_t G = 0; G < Domain.size(); ++G) {
      GuardedFormula Goal = generatedConjunct(A, B, Domain[G], G);
      const std::vector<TemplatePair> &List = Preds.of(Goal.TP);
      // Every source whose two sides are compatible with the goal guard
      // (WP over it alone emits a formula) is listed.
      for (TemplatePair Source : Domain) {
        size_t Fresh = 0;
        bool Compatible =
            !weakestPrecondition(A, B, Goal, {Source}, UseLeaps, Fresh)
                 .empty();
        bool Listed =
            std::find(List.begin(), List.end(), Source) != List.end();
        if (Compatible) {
          EXPECT_TRUE(Listed) << "compatible source "
                              << guardStr(A, B, Source)
                              << " missing from the predecessors of "
                              << guardStr(A, B, Goal.TP)
                              << (UseLeaps ? " (leaps)" : " (bit)");
        }
      }
      // Lists are duplicate-free and in domain order.
      size_t Last = 0;
      for (size_t I = 0; I < List.size(); ++I) {
        size_t Pos = size_t(
            std::find(Domain.begin(), Domain.end(), List[I]) - Domain.begin());
        ASSERT_LT(Pos, Domain.size()) << "listed source outside the domain";
        if (I > 0) {
          EXPECT_GT(Pos, Last) << "list out of domain order";
        }
        Last = Pos;
      }
    }
  }
}

TEST(PredecessorIndex, ListsFollowTheAbstractStep) {
  p4a::Automaton A = p4a::parseAutomatonOrDie(R"(
    state s { extract(h, 3); select(h[0:0]) { 0 => s  1 => accept } }
  )");
  Template S0{p4a::StateRef::normal(0), 0};
  Template S2{p4a::StateRef::normal(0), 2};
  std::vector<TemplatePair> Domain = allPairs(A, A);
  // Bit-level: ⟨s,2⟩ fills after one bit, so ⟨s,0⟩×⟨s,0⟩ is reached from
  // ⟨s,2⟩×⟨s,2⟩ only; with leaps the start pair fills in one leap of 3.
  const PredecessorIndex Bit(A, A, Domain, false);
  ASSERT_EQ(Bit.of({S0, S0}).size(), 1u);
  EXPECT_EQ(Bit.of({S0, S0})[0], (TemplatePair{S2, S2}));
  const PredecessorIndex Leap(A, A, Domain, true);
  const std::vector<TemplatePair> &FromLeap = Leap.of({S0, S0});
  EXPECT_NE(std::find(FromLeap.begin(), FromLeap.end(), TemplatePair{S0, S0}),
            FromLeap.end());
  // No leap lands on ⟨s,1⟩×⟨s,1⟩: from ⟨s,0⟩×⟨s,0⟩ the leap is 3, and a
  // leap of 1 needs a side that fills, which lands at buffer 0. Bit by
  // bit, ⟨s,0⟩×⟨s,0⟩ gets there.
  Template S1{p4a::StateRef::normal(0), 1};
  EXPECT_TRUE(Leap.of({S1, S1}).empty());
  ASSERT_EQ(Bit.of({S1, S1}).size(), 1u);
  EXPECT_EQ(Bit.of({S1, S1})[0], (TemplatePair{S0, S0}));
}

TEST(PredecessorIndex, MatchesFullScanOnRegistryStudies) {
  size_t Legs = 0;
  for (const parsers::CaseStudy &Study : parsers::allCaseStudies()) {
    TemplatePair Start{
        Template{p4a::StateRef::normal(*Study.Left.findState(Study.LeftStart)),
                 0},
        Template{
            p4a::StateRef::normal(*Study.Right.findState(Study.RightStart)),
            0}};
    expectIndexMatchesFullScan(Study.Name, Study.Left, Study.Right, Start,
                               Legs);
  }
  // Both reach legs ran for every study, the product legs for the six
  // Utility rows.
  EXPECT_GE(Legs, 2 * parsers::allCaseStudies().size() + 12);
}

std::string corpusDir() {
  const char *Env = std::getenv("LEAPFROG_CORPUS_DIR");
  return Env && *Env ? Env : "";
}

frontend::ElaborationResult loadLfp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  frontend::TextParseResult Parsed = frontend::parseSurface(Ss.str());
  EXPECT_TRUE(Parsed.ok()) << Path;
  frontend::ElaborationResult Elab = frontend::elaborate(Parsed.Program);
  EXPECT_TRUE(Elab.ok()) << Path;
  return Elab;
}

TEST(PredecessorIndex, MatchesFullScanOnCorpusPairs) {
  std::string Dir = corpusDir();
  if (Dir.empty())
    GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";
  // The hand-written protocol studies: each original against its
  // optimized and its buggy variant (the registry twins are the
  // registry studies above, elaborated bit-identically — CorpusTest).
  const char *Protocols[] = {"ipv6_chain", "vlan_qinq", "tunnel",
                             "quic_varint", "tlv_fanin"};
  for (const char *P : Protocols) {
    frontend::ElaborationResult Base = loadLfp(Dir + "/" + P + ".lfp");
    for (const char *Variant : {"_opt", "_bug"}) {
      frontend::ElaborationResult Other =
          loadLfp(Dir + "/" + P + Variant + ".lfp");
      ASSERT_TRUE(Base.ok() && Other.ok()) << P << Variant;
      TemplatePair Start{
          Template{p4a::StateRef::normal(*Base.Aut.findState(Base.Entry)), 0},
          Template{p4a::StateRef::normal(*Other.Aut.findState(Other.Entry)),
                   0}};
      size_t Legs = 0;
      expectIndexMatchesFullScan(std::string(P) + Variant, Base.Aut,
                                 Other.Aut, Start, Legs);
      EXPECT_GE(Legs, 2u) << P << Variant;
    }
  }
}

} // namespace
