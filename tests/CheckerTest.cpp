//===- CheckerTest.cpp - End-to-end equivalence checker tests -------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates Algorithm 1 end to end: the utility case studies of §7.1 (on
/// the real parsers), hand-built toy automata cross-checked against the
/// concrete Hopcroft–Karp oracle, deliberate inequivalences (the paper's
/// §7.1 "sanity check"), and a parameterized sweep over all optimization
/// configurations (leaps × reachability, §5.3) asserting identical
/// verdicts.
///
//===----------------------------------------------------------------------===//

#include "core/Checker.h"

#include "core/FrontierKey.h"
#include "frontend/Elaborate.h"
#include "frontend/Text.h"
#include "obs/Metrics.h"
#include "p4a/Concrete.h"
#include "p4a/Parser.h"
#include "p4a/Typing.h"
#include "parsers/CaseStudies.h"
#include "pgen/TranslationValidation.h"

#include "FuzzSupport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace leapfrog;
using namespace leapfrog::core;

namespace {

CheckOptions fastOptions() {
  CheckOptions O;
  O.MaxIterations = 1u << 16;
  return O;
}

/// Runs both the symbolic checker and the concrete oracle and asserts
/// they agree; returns the symbolic verdict.
bool checkAgainstOracle(const p4a::Automaton &L, const std::string &QL,
                        const p4a::Automaton &R, const std::string &QR,
                        const CheckOptions &Options = fastOptions()) {
  CheckResult Res = checkLanguageEquivalence(L, QL, R, QR, Options);
  EXPECT_NE(Res.V, Verdict::ResourceLimit) << Res.FailureReason;
  bool Oracle = p4a::concrete::stateEquivAllStores(
      L, p4a::StateRef::normal(*L.findState(QL)), R,
      p4a::StateRef::normal(*R.findState(QR)));
  EXPECT_EQ(Res.equivalent(), Oracle)
      << "symbolic checker disagrees with concrete oracle: "
      << Res.FailureReason;
  return Res.equivalent();
}

//===----------------------------------------------------------------------===//
// Paper case studies (§7.1)
//===----------------------------------------------------------------------===//

TEST(CheckerCaseStudies, SpeculativeLoopMpls) {
  // Figure 1: the running example. Too many store bits for the oracle;
  // the verdict is validated by the paper and by certificate replay.
  p4a::Automaton L = parsers::mplsReference();
  p4a::Automaton R = parsers::mplsVectorized();
  CheckResult Res = checkLanguageEquivalence(L, "q1", R, "q3");
  EXPECT_TRUE(Res.equivalent()) << Res.FailureReason;
  EXPECT_GT(Res.Stats.FinalConjuncts, 0u);
}

TEST(CheckerCaseStudies, StateRearrangement) {
  p4a::Automaton L = parsers::rearrangeReference();
  p4a::Automaton R = parsers::rearrangeCombined();
  CheckResult Res =
      checkLanguageEquivalence(L, "parse_ip", R, "parse_combined");
  EXPECT_TRUE(Res.equivalent()) << Res.FailureReason;
}

TEST(CheckerCaseStudies, HeaderInitializationSelfEquivalence) {
  // Self-comparison with independently chosen initial stores proves the
  // accepted language does not depend on uninitialized headers.
  p4a::Automaton P = parsers::vlanParser();
  p4a::Automaton P2 = parsers::vlanParser();
  CheckResult Res = checkLanguageEquivalence(P, "parse_eth", P2, "parse_eth");
  EXPECT_TRUE(Res.equivalent()) << Res.FailureReason;
}

TEST(CheckerCaseStudies, HeaderInitializationCatchesBug) {
  // The buggy variant branches on the uninitialized vlan header on the
  // default path, so acceptance depends on the initial store and the
  // self-comparison must fail.
  p4a::Automaton P = parsers::vlanParserBuggy();
  p4a::Automaton P2 = parsers::vlanParserBuggy();
  CheckResult Res = checkLanguageEquivalence(P, "parse_eth", P2, "parse_eth");
  EXPECT_EQ(Res.V, Verdict::NotEquivalent) << "uninitialized-header bug "
                                              "was not detected";
}

TEST(CheckerCaseStudies, SloppyVsStrictNotEquivalent) {
  // The paper's sanity check: inequivalent parsers must not be "proved".
  // The proof search must terminate and fail at the final (Done) check.
  p4a::Automaton L = parsers::sloppyEthernetIp();
  p4a::Automaton R = parsers::strictEthernetIp();
  CheckResult Res = checkLanguageEquivalence(L, "parse_eth", R, "parse_eth");
  EXPECT_EQ(Res.V, Verdict::NotEquivalent);
  EXPECT_FALSE(Res.FailureReason.empty());
}

TEST(CheckerCaseStudies, ExternalFiltering) {
  // §7.1: the lenient parser composed with an external filter that drops
  // packets whose final Ethernet type is neither IPv4 nor IPv6 accepts
  // exactly the strict parser's packets. Acceptance on the sloppy side is
  // qualified by the filter predicate.
  p4a::Automaton L = parsers::sloppyEthernetIp();
  p4a::Automaton R = parsers::strictEthernetIp();

  auto TypeField = [](logic::Side S, const p4a::Automaton &Aut) {
    auto H = Aut.findHeader("ether");
    return logic::BitExpr::mkSlice(logic::BitExpr::mkHdr(S, *H), 96, 111);
  };
  auto LitV6 = logic::BitExpr::mkLit(Bitvector::fromUint(0x86dd, 16));
  auto LitV4 = logic::BitExpr::mkLit(Bitvector::fromUint(0x8600, 16));

  InitialSpec Spec = languageEquivalenceSpec(
      L, p4a::StateRef::normal(*L.findState("parse_eth")), R,
      p4a::StateRef::normal(*R.findState("parse_eth")));
  Spec.Mode = AcceptanceMode::Qualified;
  Spec.LeftQualifier = logic::Pure::mkOr(
      logic::Pure::mkEq(TypeField(logic::Side::Left, L), LitV6),
      logic::Pure::mkEq(TypeField(logic::Side::Left, L), LitV4));
  Spec.RightQualifier = logic::Pure::mkTrue();

  CheckResult Res = checkWithSpec(L, R, Spec);
  EXPECT_TRUE(Res.equivalent()) << Res.FailureReason;
}

TEST(CheckerCaseStudies, RelationalStoreCorrespondence) {
  // §7.1 relational verification: whenever sloppy and strict both accept,
  // their ether headers agree (custom initial relation; languages differ,
  // so Standard mode would refute).
  p4a::Automaton L = parsers::sloppyEthernetIp();
  p4a::Automaton R = parsers::strictEthernetIp();

  InitialSpec Spec = languageEquivalenceSpec(
      L, p4a::StateRef::normal(*L.findState("parse_eth")), R,
      p4a::StateRef::normal(*R.findState("parse_eth")));
  Spec.Mode = AcceptanceMode::Custom;
  logic::TemplatePair AccAcc{logic::Template::accept(),
                             logic::Template::accept()};
  auto HL = logic::BitExpr::mkHdr(logic::Side::Left, *L.findHeader("ether"));
  auto HR = logic::BitExpr::mkHdr(logic::Side::Right,
                                  *R.findHeader("ether"));
  Spec.ExtraInitial.push_back(
      logic::GuardedFormula{AccAcc, logic::Pure::mkEq(HL, HR)});

  CheckResult Res = checkWithSpec(L, R, Spec);
  EXPECT_TRUE(Res.equivalent()) << Res.FailureReason;
}

//===----------------------------------------------------------------------===//
// Toy automata cross-checked against the concrete oracle
//===----------------------------------------------------------------------===//

TEST(CheckerOracle, IdenticalTinyParsers) {
  const char *Src = R"(
    state s {
      extract(a, 2);
      select(a[0:0]) { 0 => accept  1 => reject }
    }
  )";
  p4a::Automaton L = p4a::parseAutomatonOrDie(Src);
  p4a::Automaton R = p4a::parseAutomatonOrDie(Src);
  EXPECT_TRUE(checkAgainstOracle(L, "s", R, "s"));
}

TEST(CheckerOracle, ChunkingDifference) {
  // One state reading 2 bits vs two states reading 1 bit each: equivalent
  // languages reached through different buffering.
  p4a::Automaton L = p4a::parseAutomatonOrDie(R"(
    state s { extract(a, 2); goto accept }
  )");
  p4a::Automaton R = p4a::parseAutomatonOrDie(R"(
    state t1 { extract(b, 1); goto t2 }
    state t2 { extract(c, 1); goto accept }
  )");
  EXPECT_TRUE(checkAgainstOracle(L, "s", R, "t1"));
}

TEST(CheckerOracle, AcceptVsReject) {
  p4a::Automaton L = p4a::parseAutomatonOrDie(R"(
    state s { extract(a, 1); goto accept }
  )");
  p4a::Automaton R = p4a::parseAutomatonOrDie(R"(
    state s { extract(a, 1); goto reject }
  )");
  EXPECT_FALSE(checkAgainstOracle(L, "s", R, "s"));
}

TEST(CheckerOracle, PatternOverlapFirstMatchWins) {
  // First-match semantics: the wildcard case below shadows nothing here,
  // but the second parser lists cases in the opposite order, changing the
  // language.
  p4a::Automaton L = p4a::parseAutomatonOrDie(R"(
    state s {
      extract(a, 2);
      select(a[0:1]) { 00 => accept  _ => reject }
    }
  )");
  p4a::Automaton R = p4a::parseAutomatonOrDie(R"(
    state s {
      extract(a, 2);
      select(a[0:1]) { _ => reject  00 => accept }
    }
  )");
  EXPECT_FALSE(checkAgainstOracle(L, "s", R, "s"));
}

TEST(CheckerOracle, AssignmentRewiring) {
  // The second parser stores the two packet bits in swapped headers but
  // branches on the swapped copy, accepting the same language.
  p4a::Automaton L = p4a::parseAutomatonOrDie(R"(
    state s {
      extract(a, 1);
      extract(b, 1);
      select(a[0:0]) { 0 => accept  1 => reject }
    }
  )");
  p4a::Automaton R = p4a::parseAutomatonOrDie(R"(
    header c : 2;
    state s {
      extract(b, 1);
      extract(a, 1);
      c := b ++ a;
      select(c[0:0]) { 0 => accept  1 => reject }
    }
  )");
  EXPECT_TRUE(checkAgainstOracle(L, "s", R, "s"));
}

TEST(CheckerOracle, LoopUnrolling) {
  // A 1-bit loop vs its 2-unrolled form; mirrors Figure 1 in miniature.
  p4a::Automaton L = p4a::parseAutomatonOrDie(R"(
    state s {
      extract(a, 1);
      select(a[0:0]) { 0 => s  1 => accept }
    }
  )");
  p4a::Automaton R = p4a::parseAutomatonOrDie(R"(
    state t {
      extract(a, 1);
      extract(b, 1);
      select(a[0:0], b[0:0]) {
        (0, 0) => t
        (0, 1) => accept
        (1, _) => u
      }
    }
    state u {
      extract(c, 1);
      goto accept
    }
  )");
  // Not equivalent: L accepts "1" (odd length) which R cannot accept at
  // that length... except R's (1,_) path accepts 1xc of length 3. L
  // accepts 0^k 1; R accepts even-prefixed forms only. The oracle decides.
  checkAgainstOracle(L, "s", R, "t");
}

//===----------------------------------------------------------------------===//
// Optimization sweep: all four configurations agree (§5.3)
//===----------------------------------------------------------------------===//

struct SweepCase {
  const char *Name;
  const char *LeftSrc;
  const char *LeftStart;
  const char *RightSrc;
  const char *RightStart;
};

class OptimizationSweep
    : public ::testing::TestWithParam<std::tuple<SweepCase, bool, bool>> {};

TEST_P(OptimizationSweep, VerdictMatchesOracle) {
  const auto &[Case, UseLeaps, UseReach] = GetParam();
  p4a::Automaton L = p4a::parseAutomatonOrDie(Case.LeftSrc);
  p4a::Automaton R = p4a::parseAutomatonOrDie(Case.RightSrc);
  CheckOptions O = fastOptions();
  O.UseLeaps = UseLeaps;
  O.UseReachability = UseReach;
  CheckResult Res =
      checkLanguageEquivalence(L, Case.LeftStart, R, Case.RightStart, O);
  ASSERT_NE(Res.V, Verdict::ResourceLimit) << Res.FailureReason;
  bool Oracle = p4a::concrete::stateEquivAllStores(
      L, p4a::StateRef::normal(*L.findState(Case.LeftStart)), R,
      p4a::StateRef::normal(*R.findState(Case.RightStart)));
  EXPECT_EQ(Res.equivalent(), Oracle) << Case.Name;
}

const SweepCase SweepCases[] = {
    {"chunking", "state s { extract(a, 2); goto accept }", "s",
     "state t1 { extract(b, 1); goto t2 }\n"
     "state t2 { extract(c, 1); goto accept }",
     "t1"},
    {"branch_equal",
     "state s { extract(a, 2); select(a[0:0]) { 0 => accept 1 => reject } }",
     "s",
     "state s { extract(a, 2); select(a[0:0]) { 1 => reject _ => accept } }",
     "s"},
    {"branch_diff",
     "state s { extract(a, 2); select(a[0:0]) { 0 => accept 1 => reject } }",
     "s",
     "state s { extract(a, 2); select(a[1:1]) { 0 => accept 1 => reject } }",
     "s"},
    {"assign_loop",
     "state s { extract(a, 1); select(a[0:0]) { 1 => accept 0 => s } }", "s",
     "header c : 1;\n"
     "state s { extract(b, 1); c := b; select(c[0:0]) { 0 => s 1 => accept "
     "} }",
     "s"},
    {"store_dependent",
     "state s { extract(a, 1); select(init[0:0]) { 0 => accept 1 => reject "
     "} }\nheader init : 1;",
     "s", "state s { extract(a, 1); goto accept }", "s"},
};

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, OptimizationSweep,
    ::testing::Combine(::testing::ValuesIn(SweepCases), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<OptimizationSweep::ParamType> &Info) {
      return std::string(std::get<0>(Info.param).Name) +
             (std::get<1>(Info.param) ? "_leaps" : "_bits") +
             (std::get<2>(Info.param) ? "_reach" : "_full");
    });

//===----------------------------------------------------------------------===//
// Randomized sweep against the oracle
//===----------------------------------------------------------------------===//

/// Deterministic xorshift generator so failures reproduce.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 2654435761u + 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  size_t below(size_t N) { return size_t(next() % N); }
};

/// Builds a random well-typed automaton with 1–3 states over 1–2 headers
/// of 1–2 bits. Small enough for the concrete oracle, rich enough to
/// exercise loops, selects and assignments.
p4a::Automaton randomAutomaton(Rng &R) {
  p4a::Automaton Aut;
  size_t NumHeaders = 1 + R.below(2);
  std::vector<p4a::HeaderId> Hs;
  for (size_t H = 0; H < NumHeaders; ++H)
    Hs.push_back(
        Aut.addHeader("h" + std::to_string(H), 1 + R.below(2)));
  size_t NumStates = 1 + R.below(3);
  std::vector<p4a::StateId> Qs;
  for (size_t Q = 0; Q < NumStates; ++Q)
    Qs.push_back(Aut.declareState("q" + std::to_string(Q)));

  auto RandomTarget = [&]() -> p4a::StateRef {
    size_t Pick = R.below(NumStates + 2);
    if (Pick < NumStates)
      return p4a::StateRef::normal(Qs[Pick]);
    return Pick == NumStates ? p4a::StateRef::accept()
                             : p4a::StateRef::reject();
  };

  for (size_t Q = 0; Q < NumStates; ++Q) {
    std::vector<p4a::Op> Ops;
    // At least one extract (⊢A).
    Ops.push_back(p4a::Op::extract(Hs[R.below(NumHeaders)]));
    if (R.below(2))
      Ops.push_back(p4a::Op::extract(Hs[R.below(NumHeaders)]));
    if (R.below(2)) {
      // Random width-correct assignment: target := slice of some header
      // padded with literal bits as needed.
      p4a::HeaderId Target = Hs[R.below(NumHeaders)];
      p4a::HeaderId Source = Hs[R.below(NumHeaders)];
      size_t TW = Aut.headerSize(Target);
      size_t SW = Aut.headerSize(Source);
      p4a::ExprRef E;
      if (SW >= TW) {
        E = p4a::Expr::mkSlice(p4a::Expr::mkHeader(Source), 0, TW - 1);
      } else {
        E = p4a::Expr::mkConcat(
            p4a::Expr::mkHeader(Source),
            p4a::Expr::mkLiteral(Bitvector(TW - SW)));
      }
      Ops.push_back(p4a::Op::assign(Target, E));
    }

    p4a::Transition Tz;
    if (R.below(3) == 0) {
      Tz = p4a::Transition::mkGoto(RandomTarget());
    } else {
      p4a::HeaderId D = Hs[R.below(NumHeaders)];
      auto Discr = p4a::Expr::mkSlice(p4a::Expr::mkHeader(D), 0, 0);
      std::vector<p4a::SelectCase> Cases;
      size_t NumCases = 1 + R.below(2);
      for (size_t I = 0; I < NumCases; ++I) {
        p4a::SelectCase C;
        C.Pats.push_back(R.below(3) == 0
                             ? p4a::Pattern::wildcard()
                             : p4a::Pattern::exact(
                                   Bitvector::fromUint(R.below(2), 1)));
        C.Target = RandomTarget();
        Cases.push_back(std::move(C));
      }
      Tz = p4a::Transition::mkSelect({Discr}, std::move(Cases));
    }
    Aut.setState(Qs[Q], std::move(Ops), std::move(Tz));
  }
  return Aut;
}

class RandomAutomataSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomAutomataSweep, AgreesWithOracle) {
  leapfrog::testing::reportFuzzConfig(
      "RandomAutomataSweep", leapfrog::testing::fuzzIters(60),
      uint64_t(GetParam()));
  Rng R{uint64_t(GetParam())};
  p4a::Automaton A = randomAutomaton(R);
  p4a::Automaton B = randomAutomaton(R);
  ASSERT_TRUE(p4a::isWellTyped(A));
  ASSERT_TRUE(p4a::isWellTyped(B));
  if (A.totalHeaderBits() + B.totalHeaderBits() > 8)
    GTEST_SKIP() << "oracle would enumerate too many stores";
  CheckResult Res = checkLanguageEquivalence(
      A, p4a::StateRef::normal(0), B, p4a::StateRef::normal(0),
      fastOptions());
  ASSERT_NE(Res.V, Verdict::ResourceLimit) << Res.FailureReason;
  bool Oracle = p4a::concrete::stateEquivAllStores(
      A, p4a::StateRef::normal(0), B, p4a::StateRef::normal(0));
  EXPECT_EQ(Res.equivalent(), Oracle)
      << "seed " << GetParam() << ": " << Res.FailureReason << "\nleft:\n"
      << A.print() << "right:\n"
      << B.print();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAutomataSweep,
                         ::testing::Range(0, leapfrog::testing::fuzzIters(60)));

//===----------------------------------------------------------------------===//
// Incremental vs monolithic entailment (differential over the registry)
//===----------------------------------------------------------------------===//

/// Every registered case study, run through the checker twice — once with
/// the incremental solver sessions (the default) and once with per-query
/// monolithic lowering — must take the identical Skip/Extend decision
/// sequence and reach the identical verdict. A modest iteration cap keeps
/// the applicability self-comparisons affordable while still diffing
/// hundreds of live entailment queries per study; with a shared cap,
/// identical decisions imply identical stats, so any divergence in a
/// single entailment answer is caught.
class IncrementalDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(IncrementalDifferential, DecisionsMatchMonolithic) {
  std::vector<parsers::CaseStudy> Studies = parsers::allCaseStudies();
  ASSERT_LT(GetParam(), Studies.size());
  const parsers::CaseStudy &Study = Studies[GetParam()];

  CheckOptions O;
  O.MaxIterations = 500;

  smt::BitBlastSolver IncrementalSolver, MonolithicSolver;
  O.Solver = &IncrementalSolver;
  O.UseIncremental = true;
  CheckResult Inc = checkLanguageEquivalence(
      Study.Left, Study.LeftStart, Study.Right, Study.RightStart, O);

  O.Solver = &MonolithicSolver;
  O.UseIncremental = false;
  CheckResult Mono = checkLanguageEquivalence(
      Study.Left, Study.LeftStart, Study.Right, Study.RightStart, O);

  EXPECT_EQ(Inc.V, Mono.V) << Study.Name << ": " << Inc.FailureReason
                           << " vs " << Mono.FailureReason;
  EXPECT_EQ(Inc.Stats.Iterations, Mono.Stats.Iterations) << Study.Name;
  EXPECT_EQ(Inc.Stats.Extends, Mono.Stats.Extends) << Study.Name;
  EXPECT_EQ(Inc.Stats.Skips, Mono.Stats.Skips) << Study.Name;
  EXPECT_EQ(Inc.Stats.FinalConjuncts, Mono.Stats.FinalConjuncts)
      << Study.Name;
  // The incremental run really went through sessions (unless every
  // entailment folded to a constant before reaching the solver).
  if (Inc.Stats.SmtQueries > 0) {
    EXPECT_GT(IncrementalSolver.stats().SessionQueries, 0u) << Study.Name;
  }
  EXPECT_EQ(MonolithicSolver.stats().SessionQueries, 0u) << Study.Name;
}

INSTANTIATE_TEST_SUITE_P(Registry, IncrementalDifferential,
                         ::testing::Range<size_t>(0, 10));

//===----------------------------------------------------------------------===//
// Iteration budget accounting
//===----------------------------------------------------------------------===//

/// A run stopped by an iteration budget of N reports exactly the N
/// iterations it ran — each one a Skip or an Extend — not N + 1 for the
/// pop the budget refused. The Applicability rows never finish under
/// these budgets, so every run here is a budget stop.
TEST(CheckerBudget, StoppedRunReportsExactlyTheBudget) {
  size_t Rows = 0;
  for (const parsers::CaseStudy &Study : parsers::allCaseStudies()) {
    if (Study.Category != "Applicability")
      continue;
    ++Rows;
    for (size_t Budget : {size_t(1), size_t(50)}) {
      CheckOptions O;
      O.MaxIterations = Budget;
      smt::BitBlastSolver Solver;
      O.Solver = &Solver;
      CheckResult Res = checkLanguageEquivalence(
          Study.Left, Study.LeftStart, Study.Right, Study.RightStart, O);
      ASSERT_EQ(Res.V, Verdict::ResourceLimit)
          << Study.Name << " budget " << Budget << ": " << Res.FailureReason;
      EXPECT_EQ(Res.Stats.Iterations, Budget) << Study.Name;
      EXPECT_EQ(Res.Stats.Extends + Res.Stats.Skips, Budget) << Study.Name;
    }
  }
  EXPECT_GT(Rows, 0u);
}

//===----------------------------------------------------------------------===//
// Frontier deduplication must use exact identity, not hashes
//===----------------------------------------------------------------------===//

TEST(CheckerDedup, HashCollisionPairsStayDistinct) {
  // Found by the deep run of RandomAutomataSweep (seed 4257): the
  // template pairs ⟨q0,2⟩·⟨q0,0⟩ and ⟨q0,3⟩·⟨q1,0⟩ collide under
  // TemplatePair::hash() (boost-style hashCombine cancels on correlated
  // small-int deltas). The frontier dedup key used to embed that hash,
  // so the WP chain propagating "false" back to the spec pair was
  // silently swallowed at the collision and the checker reported these
  // inequivalent parsers equivalent. The left parser accepts every
  // 6-bit word; the right one loops q0 ↔ q1 forever and accepts
  // nothing.
  using logic::Template;
  using logic::TemplatePair;
  TemplatePair A{Template{p4a::StateRef::normal(0), 2},
                 Template{p4a::StateRef::normal(0), 0}};
  TemplatePair B{Template{p4a::StateRef::normal(0), 3},
                 Template{p4a::StateRef::normal(1), 0}};
  ASSERT_FALSE(A == B);
  // The collision that triggered the bug. If a hash change makes these
  // distinct again, this assert goes first — replace the pair with a
  // fresh collision (search small K/Id/N combos) rather than deleting
  // the test: the property under test is that dedup survives *some*
  // collision, and the checker run below keeps proving that end to end.
  ASSERT_EQ(A.hash(), B.hash());

  p4a::Automaton L = p4a::parseAutomatonOrDie(R"(
    state q0 { extract(h0, 2); extract(h0, 2); h0 := h0[0:1]; goto q2 }
    state q1 { extract(h0, 2); extract(h0, 2); goto q2 }
    state q2 { extract(h0, 2); h0 := h0[0:1]; select(h0[0:0]) { _ => accept } }
  )");
  p4a::Automaton R = p4a::parseAutomatonOrDie(R"(
    state q0 { extract(h1, 1); h0 := h0[0:1]; goto q1 }
    state q1 { extract(h1, 1); select(h0[0:0]) { _ => q0 } }
    header h0 : 2;
  )");
  EXPECT_FALSE(checkAgainstOracle(L, "q0", R, "q0"));
}

//===----------------------------------------------------------------------===//
// Session-restart equivalence (bounded-memory sessions, differential)
//===----------------------------------------------------------------------===//

/// Every registered case study, run once with unlimited sessions and once
/// with a deliberately tiny MaxLearnts — small enough that the
/// session-restart backstop trips constantly — must take the identical
/// Skip/Extend decision sequence and reach the identical verdict. With a
/// shared iteration cap, identical decisions imply identical stats, so
/// one divergent entailment answer anywhere in the run fails the test.
/// This is the regression fence around session teardown/rebuild: a
/// restart may change memory, never answers.
class SessionRestartDifferential : public ::testing::TestWithParam<size_t> {
};

TEST_P(SessionRestartDifferential, DecisionsMatchUnlimited) {
  std::vector<parsers::CaseStudy> Studies = parsers::allCaseStudies();
  ASSERT_LT(GetParam(), Studies.size());
  const parsers::CaseStudy &Study = Studies[GetParam()];

  CheckOptions O;
  O.MaxIterations = 400;

  smt::BitBlastSolver UnlimitedSolver, LimitedSolver;
  O.Solver = &UnlimitedSolver;
  CheckResult Unlimited = checkLanguageEquivalence(
      Study.Left, Study.LeftStart, Study.Right, Study.RightStart, O);

  O.Solver = &LimitedSolver;
  O.Limits.MaxLearnts = 4;
  CheckResult Limited = checkLanguageEquivalence(
      Study.Left, Study.LeftStart, Study.Right, Study.RightStart, O);

  EXPECT_EQ(Limited.V, Unlimited.V)
      << Study.Name << ": " << Limited.FailureReason << " vs "
      << Unlimited.FailureReason;
  EXPECT_EQ(Limited.Stats.Iterations, Unlimited.Stats.Iterations)
      << Study.Name;
  EXPECT_EQ(Limited.Stats.Extends, Unlimited.Stats.Extends) << Study.Name;
  EXPECT_EQ(Limited.Stats.Skips, Unlimited.Stats.Skips) << Study.Name;
  EXPECT_EQ(Limited.Stats.FinalConjuncts, Unlimited.Stats.FinalConjuncts)
      << Study.Name;
  EXPECT_EQ(Limited.Stats.SmtQueries, Unlimited.Stats.SmtQueries)
      << Study.Name;

  // The bound really bit whenever the unlimited run's sessions ever held
  // more learned clauses than the cap — self-calibrating, so studies
  // whose queries never learn past the cap don't fail spuriously.
  EXPECT_EQ(UnlimitedSolver.stats().SessionRestarts, 0u) << Study.Name;
  if (UnlimitedSolver.stats().PeakLearnts > O.Limits.MaxLearnts) {
    EXPECT_GT(LimitedSolver.stats().SessionRestarts, 0u) << Study.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, SessionRestartDifferential,
                         ::testing::Range<size_t>(0, 10));

//===----------------------------------------------------------------------===//
// Lowering accounting
//===----------------------------------------------------------------------===//

frontend::ElaborationResult loadLfp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  frontend::TextParseResult Parsed = frontend::parseSurface(Ss.str());
  EXPECT_TRUE(Parsed.ok()) << Path;
  return frontend::elaborate(Parsed.Program);
}

/// Every conjunct is lowered once as a goal, and an extended goal is its
/// own premise, so with one goal per query an equivalent run lowers
/// Iterations goals plus each spec-guard conjunct of R twice: once for
/// early refutation and once for the Done check. No premise is lowered.
TEST(CheckerLowering, EachConjunctIsLoweredOnce) {
  const char *Env = std::getenv("LEAPFROG_CORPUS_DIR");
  if (!Env || !*Env)
    GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";
  auto Expect = [](const std::string &Name, const p4a::Automaton &L,
                   const p4a::Automaton &R, const InitialSpec &Spec) {
    smt::BitBlastSolver Solver;
    CheckOptions O;
    O.Solver = &Solver;
    uint64_t Before = obs::metrics().snapshot().counter("check.lowerings");
    CheckResult Res = checkWithSpec(L, R, Spec, O);
    uint64_t Lowerings =
        obs::metrics().snapshot().counter("check.lowerings") - Before;
    EXPECT_EQ(Res.V, Verdict::Equivalent) << Name << ": "
                                          << Res.FailureReason;
    const EquivalenceCertificate &Cert = Res.Certificate;
    size_t AtSpec = size_t(std::count_if(
        Cert.Relation.begin(), Cert.Relation.end(),
        [&](const GuardedFormula &G) { return G.TP == Cert.Spec.TP; }));
    EXPECT_EQ(Lowerings, Res.Stats.Iterations + 2 * AtSpec) << Name;
    return AtSpec;
  };
  for (const char *P :
       {"ipv6_chain", "vlan_qinq", "tunnel", "quic_varint", "tlv_fanin"}) {
    frontend::ElaborationResult L = loadLfp(std::string(Env) + "/" + P +
                                            ".lfp");
    frontend::ElaborationResult R = loadLfp(std::string(Env) + "/" + P +
                                            "_opt.lfp");
    ASSERT_TRUE(L.ok() && R.ok()) << P;
    InitialSpec Spec = languageEquivalenceSpec(
        L.Aut, p4a::StateRef::normal(*L.Aut.findState(L.Entry)), R.Aut,
        p4a::StateRef::normal(*R.Aut.findState(R.Entry)));
    EXPECT_EQ(Expect(P, L.Aut, R.Aut, Spec), 0u) << P;
  }
  // Under a true premise an extend at the spec guard is always refuted,
  // so an equivalent run needs a premise to exercise the refutation and
  // Done terms: here a select reads the initial store, and the premise
  // equates the two initial stores.
  p4a::Automaton A = p4a::parseAutomatonOrDie(
      "header h : 2; state s { extract(a, 1); "
      "select(h[0:1]) { 00 => accept  _ => reject } }");
  InitialSpec Spec = languageEquivalenceSpec(
      A, p4a::StateRef::normal(*A.findState("s")), A,
      p4a::StateRef::normal(*A.findState("s")));
  Spec.Premise = logic::Pure::mkEq(
      logic::BitExpr::mkHdr(logic::Side::Left, *A.findHeader("h")),
      logic::BitExpr::mkHdr(logic::Side::Right, *A.findHeader("h")));
  EXPECT_GT(Expect("store premise", A, A, Spec), 0u);
}

//===----------------------------------------------------------------------===//
// Pinned search shape
//===----------------------------------------------------------------------===//

/// The shape of one run's search: its decision counters and an FNV-1a
/// digest of R's formulaKey sequence in extension order. The digest is a
/// test pin, not a dedup key.
struct SearchPin {
  size_t Iterations, Extends, Skips, SmtQueries, PeakFrontier,
      FinalConjuncts, RNodes;
  uint64_t RDigest;

  bool operator==(const SearchPin &O) const {
    return Iterations == O.Iterations && Extends == O.Extends &&
           Skips == O.Skips && SmtQueries == O.SmtQueries &&
           PeakFrontier == O.PeakFrontier &&
           FinalConjuncts == O.FinalConjuncts && RNodes == O.RNodes &&
           RDigest == O.RDigest;
  }

  /// Rendered as the initializer of a golden row, so a deliberate change
  /// of search is re-pinned by pasting the printed rows.
  std::string str() const {
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "{%zu, %zu, %zu, %zu, %zu, %zu, %zu, 0x%016" PRIx64 "ull}",
                  Iterations, Extends, Skips, SmtQueries, PeakFrontier,
                  FinalConjuncts, RNodes, RDigest);
    return Buf;
  }
};

SearchPin pinSearch(const p4a::Automaton &L, const std::string &QL,
                    const p4a::Automaton &R, const std::string &QR,
                    size_t MaxIterations, Verdict &V) {
  smt::BitBlastSolver Solver;
  CheckOptions O;
  O.Solver = &Solver;
  O.MaxIterations = MaxIterations;
  O.RecordTrace = true;
  CheckResult Res = checkLanguageEquivalence(L, QL, R, QR, O);
  V = Res.V;
  SearchPin Pin{Res.Stats.Iterations,   Res.Stats.Extends,
                Res.Stats.Skips,        Res.Stats.SmtQueries,
                Res.Stats.PeakFrontier, Res.Stats.FinalConjuncts,
                0,                      14695981039346656037ull};
  // R is the trace's extended conjuncts, in order, on every verdict path.
  for (const TraceStep &Step : Res.Trace) {
    if (Step.K != TraceStep::Kind::Extend)
      continue;
    Pin.RNodes += Step.Psi.Phi->size();
    for (char C : detail::formulaKey(Step.Psi) + "\n") {
      Pin.RDigest ^= uint8_t(C);
      Pin.RDigest *= 1099511628211ull;
    }
  }
  if (Res.equivalent()) {
    EXPECT_EQ(Res.Stats.FormulaNodes, Pin.RNodes);
  }
  return Pin;
}

/// Golden search shapes, recorded from the checker before frontier keys
/// became one-pass renderings. Every other decision-count test compares
/// two configurations of the same tree, so a dedup change that hits both
/// sides (a key that drops the guard, or merges two α-distinct
/// conjuncts) goes unseen there; here it changes the counters or R.
/// Columns: iterations, extends, skips, SMT queries, peak frontier, final
/// conjuncts, Σ|ψ| over R, R digest.
TEST(CheckerPinned, SearchShapeMatchesGolden) {
  const char *Env = std::getenv("LEAPFROG_CORPUS_DIR");
  if (!Env || !*Env)
    GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";
  struct Golden {
    const char *Left, *Right;
    Verdict V;
    SearchPin Pin;
  };
  const Golden Corpus[] = {
      {"ipv6_chain", "ipv6_chain_opt", Verdict::Equivalent,
       {67, 27, 40, 67, 35, 27, 57, 0xb497e2e07f3d7484ull}},
      {"ipv6_chain", "ipv6_chain_bug", Verdict::NotEquivalent,
       {44, 23, 21, 45, 32, 23, 58, 0x443cb133b0845f1bull}},
      {"vlan_qinq", "vlan_qinq_opt", Verdict::Equivalent,
       {21, 15, 6, 21, 8, 15, 17, 0xf91c4208a8e04032ull}},
      {"vlan_qinq", "vlan_qinq_bug", Verdict::NotEquivalent,
       {30, 22, 8, 31, 10, 22, 30, 0x982e5ecb6c5256b8ull}},
      {"tunnel", "tunnel_opt", Verdict::Equivalent,
       {50, 26, 24, 50, 18, 26, 58, 0x98eb53115be0c07aull}},
      {"tunnel", "tunnel_bug", Verdict::NotEquivalent,
       {38, 22, 16, 39, 15, 22, 46, 0xf30041cbe63aa005ull}},
      {"quic_varint", "quic_varint_opt", Verdict::Equivalent,
       {16, 10, 6, 16, 6, 10, 10, 0x246052346ccc555dull}},
      {"quic_varint", "quic_varint_bug", Verdict::NotEquivalent,
       {9, 9, 0, 10, 6, 9, 8, 0x466309d061ce24b5ull}},
      {"tlv_fanin", "tlv_fanin_opt", Verdict::Equivalent,
       {198, 72, 126, 198, 61, 72, 1551, 0xcec50090de2dff2aull}},
      {"tlv_fanin", "tlv_fanin_bug", Verdict::NotEquivalent,
       {73, 41, 32, 74, 49, 41, 126, 0x3411ac58e01599a4ull}},
      {"service_provider_left", "service_provider_right", Verdict::Equivalent,
       {2320, 1724, 596, 2320, 428, 1724, 18496, 0x3d7f0fae0a9e2564ull}},
  };
  for (const Golden &G : Corpus) {
    frontend::ElaborationResult L =
        loadLfp(std::string(Env) + "/" + G.Left + ".lfp");
    frontend::ElaborationResult R =
        loadLfp(std::string(Env) + "/" + G.Right + ".lfp");
    ASSERT_TRUE(L.ok() && R.ok()) << G.Right;
    Verdict V;
    SearchPin Pin = pinSearch(L.Aut, L.Entry, R.Aut, R.Entry, 1u << 16, V);
    EXPECT_EQ(V, G.V) << G.Right;
    EXPECT_TRUE(Pin == G.Pin) << "{\"" << G.Left << "\", \"" << G.Right
                              << "\", ..., " << Pin.str() << "}";
  }

  // Translation Validation, to the 1000-iteration budget the benchmark's
  // tv-prefix workload runs.
  pgen::TranslationValidation TV = pgen::buildEdgeTranslationValidation();
  ASSERT_TRUE(TV.ok());
  Verdict V;
  SearchPin Pin = pinSearch(TV.Original, TV.OriginalStart, TV.Reconstructed,
                            TV.ReconstructedStart, 1000, V);
  EXPECT_EQ(V, Verdict::ResourceLimit);
  const SearchPin TvGolden = {1000, 889, 111, 1000,
                              1801, 889, 47542, 0x791050dd2e57fad6ull};
  EXPECT_TRUE(Pin == TvGolden) << "translation validation: " << Pin.str();
}

} // namespace
