//===- P4aTest.cpp - P4 automaton model tests ------------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the parser model of §3: expression/operation/transition semantics
/// (Definitions 3.1–3.3), the configuration dynamics (Definitions
/// 3.4–3.6), the typing judgements, the textual front-end (round trip),
/// and the concrete-language behaviour of the Figure 1 parsers.
///
//===----------------------------------------------------------------------===//

#include "frontend/Elaborate.h"
#include "frontend/Generate.h"
#include "frontend/Text.h"
#include "p4a/Concrete.h"
#include "p4a/Fingerprint.h"
#include "p4a/Parser.h"
#include "p4a/Semantics.h"
#include "p4a/Typing.h"
#include "parsers/CaseStudies.h"

#include <gtest/gtest.h>

using namespace leapfrog;
using namespace leapfrog::p4a;

namespace {

Bitvector bv(const std::string &S) { return Bitvector::fromString(S); }

//===----------------------------------------------------------------------===//
// Expression semantics (Definition 3.1)
//===----------------------------------------------------------------------===//

class ExprFixture : public ::testing::Test {
protected:
  void SetUp() override {
    A = Aut.addHeader("a", 4);
    B = Aut.addHeader("b", 2);
    S = Store(Aut);
    S.set(A, bv("1010"));
    S.set(B, bv("11"));
  }
  Automaton Aut;
  HeaderId A = 0, B = 0;
  Store S;
};

TEST_F(ExprFixture, HeaderReadsStore) {
  EXPECT_EQ(evalExpr(Aut, S, Expr::mkHeader(A)), bv("1010"));
}

TEST_F(ExprFixture, LiteralIsItself) {
  EXPECT_EQ(evalExpr(Aut, S, Expr::mkLiteral(bv("001"))), bv("001"));
}

TEST_F(ExprFixture, SliceClampsLikeThePaper) {
  auto H = Expr::mkHeader(A);
  EXPECT_EQ(evalExpr(Aut, S, Expr::mkSlice(H, 1, 2)), bv("01"));
  EXPECT_EQ(evalExpr(Aut, S, Expr::mkSlice(H, 2, 99)), bv("10"));
  EXPECT_EQ(evalExpr(Aut, S, Expr::mkSlice(H, 99, 99)), bv("0"));
}

TEST_F(ExprFixture, ConcatJoins) {
  auto E = Expr::mkConcat(Expr::mkHeader(B), Expr::mkHeader(A));
  EXPECT_EQ(evalExpr(Aut, S, E), bv("111010"));
}

TEST_F(ExprFixture, WidthMatchesEval) {
  auto E = Expr::mkConcat(Expr::mkSlice(Expr::mkHeader(A), 1, 3),
                          Expr::mkLiteral(bv("0")));
  auto W = exprWidth(Aut, E);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(*W, evalExpr(Aut, S, E).size());
}

//===----------------------------------------------------------------------===//
// Operation semantics (Definition 3.2)
//===----------------------------------------------------------------------===//

TEST_F(ExprFixture, ExtractSplitsInput) {
  std::vector<Op> Ops{Op::extract(B), Op::extract(A)};
  Store S2 = evalOps(Aut, Ops, S, bv("011100"));
  EXPECT_EQ(S2.get(B), bv("01"));
  EXPECT_EQ(S2.get(A), bv("1100"));
}

TEST_F(ExprFixture, AssignSeesEarlierExtracts) {
  // extract(b); a := b ++ b — the assignment reads the just-extracted b.
  std::vector<Op> Ops{
      Op::extract(B),
      Op::assign(A, Expr::mkConcat(Expr::mkHeader(B), Expr::mkHeader(B)))};
  Store S2 = evalOps(Aut, Ops, S, bv("01"));
  EXPECT_EQ(S2.get(A), bv("0101"));
}

TEST_F(ExprFixture, AssignThenExtractOverwrites) {
  std::vector<Op> Ops{Op::assign(B, Expr::mkLiteral(bv("00"))),
                      Op::extract(B)};
  Store S2 = evalOps(Aut, Ops, S, bv("11"));
  EXPECT_EQ(S2.get(B), bv("11"));
}

//===----------------------------------------------------------------------===//
// Transition semantics (Definition 3.3)
//===----------------------------------------------------------------------===//

TEST_F(ExprFixture, SelectFirstMatchWins) {
  StateId Q1 = Aut.declareState("q1");
  StateId Q2 = Aut.declareState("q2");
  std::vector<SelectCase> Cases;
  Cases.push_back({{Pattern::exact(bv("10"))}, StateRef::normal(Q1)});
  Cases.push_back({{Pattern::wildcard()}, StateRef::normal(Q2)});
  Transition Tz = Transition::mkSelect(
      {Expr::mkSlice(Expr::mkHeader(A), 0, 1)}, Cases);
  // a = 1010, slice [0:1] = "10": first case matches.
  EXPECT_EQ(evalTransition(Aut, Tz, S), StateRef::normal(Q1));
  S.set(A, bv("0110"));
  EXPECT_EQ(evalTransition(Aut, Tz, S), StateRef::normal(Q2));
}

TEST_F(ExprFixture, SelectFallsThroughToReject) {
  Transition Tz = Transition::mkSelect(
      {Expr::mkHeader(B)},
      {{{Pattern::exact(bv("00"))}, StateRef::accept()}});
  // b = 11: no case matches.
  EXPECT_EQ(evalTransition(Aut, Tz, S), StateRef::reject());
}

TEST_F(ExprFixture, SelectTupleNeedsAllPatterns) {
  Transition Tz = Transition::mkSelect(
      {Expr::mkHeader(B), Expr::mkSlice(Expr::mkHeader(A), 0, 0)},
      {{{Pattern::exact(bv("11")), Pattern::exact(bv("1"))},
        StateRef::accept()}});
  EXPECT_EQ(evalTransition(Aut, Tz, S), StateRef::accept());
  S.set(A, bv("0010"));
  EXPECT_EQ(evalTransition(Aut, Tz, S), StateRef::reject());
}

//===----------------------------------------------------------------------===//
// Configuration dynamics (Definitions 3.4–3.6)
//===----------------------------------------------------------------------===//

TEST(Dynamics, BuffersUntilBlockFills) {
  Automaton Aut = parseAutomatonOrDie(R"(
    state s { extract(h, 3); goto accept }
  )");
  Config C = initialConfig(StateRef::normal(0), Store(Aut));
  C = step(Aut, C, true);
  EXPECT_TRUE(C.Q.isNormal());
  EXPECT_EQ(C.Buf.size(), 1u);
  C = step(Aut, C, false);
  EXPECT_EQ(C.Buf.size(), 2u);
  // The third bit fills ||op|| = 3: the block runs and accept is reached
  // with an empty buffer.
  C = step(Aut, C, true);
  EXPECT_TRUE(C.Q.isAccept());
  EXPECT_TRUE(C.Buf.empty());
  EXPECT_EQ(C.S.get(0), bv("101"));
}

TEST(Dynamics, AcceptStepsToReject) {
  // "Accepting states should not parse any further input."
  Automaton Aut = parseAutomatonOrDie(R"(
    state s { extract(h, 1); goto accept }
  )");
  Config C = initialConfig(StateRef::accept(), Store(Aut));
  EXPECT_TRUE(C.accepting());
  C = step(Aut, C, false);
  EXPECT_TRUE(C.Q.isReject());
  C = step(Aut, C, true);
  EXPECT_TRUE(C.Q.isReject());
}

TEST(Dynamics, AcceptanceRequiresExactLength) {
  Automaton Aut = parseAutomatonOrDie(R"(
    state s { extract(h, 2); goto accept }
  )");
  Store S(Aut);
  StateRef Q = StateRef::normal(0);
  EXPECT_FALSE(accepts(Aut, Q, S, bv("1")));
  EXPECT_TRUE(accepts(Aut, Q, S, bv("10")));
  EXPECT_FALSE(accepts(Aut, Q, S, bv("101")));
}

TEST(Dynamics, Figure1ReferenceLanguage) {
  // L(q1) = B0* B1 U64 where B0/B1 are 32-bit labels with bit 23 clear/set
  // — checked here on representative packets.
  Automaton Aut = parsers::mplsReference();
  Store S(Aut);
  StateRef Q = StateRef::normal(*Aut.findState("q1"));

  auto Label = [](bool Bottom) {
    Bitvector L(32);
    L.setBit(23, Bottom);
    return L;
  };
  Bitvector Udp(64);

  EXPECT_TRUE(accepts(Aut, Q, S, Label(true).concat(Udp)));
  EXPECT_TRUE(
      accepts(Aut, Q, S, Label(false).concat(Label(true)).concat(Udp)));
  // Missing UDP payload.
  EXPECT_FALSE(accepts(Aut, Q, S, Label(true)));
  // No bottom-of-stack marker.
  EXPECT_FALSE(accepts(Aut, Q, S, Label(false).concat(Udp)));
  // Wrong UDP length.
  EXPECT_FALSE(accepts(Aut, Q, S, Label(true).concat(Bitvector(63))));
}

TEST(Dynamics, Figure1VectorizedMarshalsUdp) {
  // In q5 the overshot label plus the next 32 bits land in udp.
  Automaton Aut = parsers::mplsVectorized();
  Store S(Aut);
  StateRef Q = StateRef::normal(*Aut.findState("q3"));

  Bitvector First(32);
  First.setBit(23, true); // Bottom-of-stack in the first label.
  Bitvector Second = Bitvector::fromUint(0xdeadbeef, 32);
  Bitvector Tail = Bitvector::fromUint(0xcafef00d, 32);
  Config C = multiStep(Aut, initialConfig(Q, S),
                       First.concat(Second).concat(Tail));
  ASSERT_TRUE(C.accepting());
  EXPECT_EQ(C.S.get(*Aut.findHeader("udp")), Second.concat(Tail));
}

//===----------------------------------------------------------------------===//
// Typing (⊢A)
//===----------------------------------------------------------------------===//

TEST(Typing, AcceptsTheCaseStudies) {
  EXPECT_TRUE(isWellTyped(parsers::mplsReference()));
  EXPECT_TRUE(isWellTyped(parsers::mplsVectorized()));
  EXPECT_TRUE(isWellTyped(parsers::vlanParser()));
  EXPECT_TRUE(isWellTyped(parsers::ipOptionsGeneric(2)));
  EXPECT_TRUE(isWellTyped(parsers::ipOptionsTimestamp(2)));
  EXPECT_TRUE(isWellTyped(parsers::gibbEdge()));
  EXPECT_TRUE(isWellTyped(parsers::gibbServiceProvider()));
  EXPECT_TRUE(isWellTyped(parsers::gibbDatacenter()));
  EXPECT_TRUE(isWellTyped(parsers::gibbEnterprise()));
}

TEST(Typing, RejectsZeroExtractState) {
  // A state with no extract cannot actuate its transition (footnote 4).
  Automaton Aut;
  HeaderId H = Aut.addHeader("h", 2);
  StateId Q = Aut.declareState("q");
  Aut.setState(Q, {Op::assign(H, Expr::mkLiteral(bv("00")))},
               Transition::mkGoto(StateRef::accept()));
  EXPECT_FALSE(isWellTyped(Aut));
}

TEST(Typing, RejectsWidthMismatchedAssignment) {
  Automaton Aut;
  HeaderId H = Aut.addHeader("h", 3);
  StateId Q = Aut.declareState("q");
  Aut.setState(Q,
               {Op::extract(H), Op::assign(H, Expr::mkLiteral(bv("1")))},
               Transition::mkGoto(StateRef::accept()));
  EXPECT_FALSE(isWellTyped(Aut));
}

TEST(Typing, RejectsWidthMismatchedPattern) {
  Automaton Aut;
  HeaderId H = Aut.addHeader("h", 3);
  StateId Q = Aut.declareState("q");
  Aut.setState(Q, {Op::extract(H)},
               Transition::mkSelect({Expr::mkHeader(H)},
                                    {{{Pattern::exact(bv("1"))},
                                      StateRef::accept()}}));
  EXPECT_FALSE(isWellTyped(Aut));
}

TEST(Typing, RejectsSelectArityMismatch) {
  Automaton Aut;
  HeaderId H = Aut.addHeader("h", 1);
  StateId Q = Aut.declareState("q");
  Aut.setState(
      Q, {Op::extract(H)},
      Transition::mkSelect({Expr::mkHeader(H)},
                           {{{Pattern::exact(bv("1")),
                              Pattern::exact(bv("0"))},
                             StateRef::accept()}}));
  EXPECT_FALSE(isWellTyped(Aut));
}

//===----------------------------------------------------------------------===//
// Textual front-end
//===----------------------------------------------------------------------===//

TEST(Parser, RoundTripsThroughPrint) {
  Automaton A = parsers::mplsVectorized();
  ParseResult Re = parseAutomaton(A.print());
  ASSERT_TRUE(Re.ok()) << (Re.Errors.empty() ? "" : Re.Errors[0]);
  // Same shape...
  ASSERT_EQ(Re.Aut.numStates(), A.numStates());
  ASSERT_EQ(Re.Aut.numHeaders(), A.numHeaders());
  // ...and the same language on sample packets.
  Store S1(A), S2(Re.Aut);
  for (uint64_t Raw = 0; Raw < 16; ++Raw) {
    Bitvector First = Bitvector::fromUint(Raw, 32);
    Bitvector Pkt = First.concat(Bitvector::fromUint(~Raw, 32))
                        .concat(Bitvector(64));
    EXPECT_EQ(
        accepts(A, StateRef::normal(0), S1, Pkt),
        accepts(Re.Aut, StateRef::normal(0), S2, Pkt));
  }
}

TEST(Parser, HexAndBinaryLiterals) {
  Automaton A = parseAutomatonOrDie(R"(
    state s {
      extract(h, 16);
      select(h[0:15]) {
        0x86dd => accept
        0b1000011000000000 => reject
        _ => s
      }
    }
  )");
  const State &St = A.state(0);
  ASSERT_FALSE(St.Tz.IsGoto);
  ASSERT_EQ(St.Tz.Cases.size(), 3u);
  EXPECT_EQ(St.Tz.Cases[0].Pats[0].Exact->toUint(), 0x86ddu);
  EXPECT_EQ(St.Tz.Cases[1].Pats[0].Exact->toUint(), 0x8600u);
  EXPECT_TRUE(St.Tz.Cases[2].Pats[0].isWildcard());
}

TEST(Parser, ReportsUnknownHeaderInExpression) {
  ParseResult R = parseAutomaton(R"(
    state s { extract(a, 2); b := nope; goto accept }
  )");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, ReportsMissingTransition) {
  ParseResult R = parseAutomaton("state s { extract(a, 2); }");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, ReportsConflictingHeaderSizes) {
  ParseResult R = parseAutomaton(R"(
    state s { extract(a, 2); goto t }
    state t { extract(a, 3); goto accept }
  )");
  EXPECT_FALSE(R.ok());
}

/// \p Unit repeated \p N times.
std::string repeated(const std::string &Unit, size_t N) {
  std::string S;
  for (size_t I = 0; I < N; ++I)
    S += Unit;
  return S;
}

TEST(Parser, HostileNestingIsOneLocatedError) {
  // 100 000 parentheses around a select discriminant overflowed the
  // stack; so did an equally long '++' or slice chain (later passes
  // recurse once per operator). Each is now one located diagnostic.
  const size_t N = 100000;
  const std::string Inputs[] = {
      "state s { extract(h, 8); select(" + repeated("(", N) + "h" +
          repeated(")", N) + ") { 0 => accept } }",
      "state s { extract(h, 8); h := h" + repeated(" ++ h", N) +
          "; goto accept }",
      "state s { extract(h, 8); select(h" + repeated("[0:7]", N) +
          ") { 0 => accept } }"};
  for (const std::string &In : Inputs) {
    ParseResult R = parseAutomaton(In);
    ASSERT_EQ(R.Errors.size(), 1u) << R.Errors.front();
    EXPECT_EQ(R.Errors[0].find("line 1: expression nests deeper than 256"),
              0u)
        << R.Errors[0];
  }
  // The limit is per expression, not per file.
  EXPECT_TRUE(parseAutomaton("state s { extract(h, 8);" +
                             repeated(" h := (h[0:7]);", 300) +
                             " goto accept }")
                  .ok());
}

//===----------------------------------------------------------------------===//
// Structural metrics used by the Table 2 harness
//===----------------------------------------------------------------------===//

TEST(Metrics, Figure1Counts) {
  Automaton L = parsers::mplsReference();
  EXPECT_EQ(L.numStates(), 2u);
  EXPECT_EQ(L.totalHeaderBits(), 96u); // mpls 32 + udp 64.
  EXPECT_EQ(L.branchedBits(), 1u);     // select on mpls[23:23].
  EXPECT_EQ(L.opBits(*L.findState("q1")), 32u);
  EXPECT_EQ(L.opBits(*L.findState("q2")), 64u);
}

TEST(Metrics, SuccessorsIncludeFallThrough) {
  Automaton L = parsers::mplsReference();
  auto Succs = L.successors(*L.findState("q1"));
  // q1, q2, and the implicit fall-through reject.
  EXPECT_EQ(Succs.size(), 3u);
}

TEST(Metrics, CatchAllSuppressesFallThrough) {
  Automaton A = parseAutomatonOrDie(R"(
    state s { extract(h, 1); select(h[0:0]) { 0 => accept  _ => s } }
  )");
  auto Succs = A.successors(0);
  ASSERT_EQ(Succs.size(), 2u); // accept and s; no reject.
  for (StateRef R : Succs)
    EXPECT_FALSE(R.isReject());
}

//===----------------------------------------------------------------------===//
// Concrete oracle self-checks
//===----------------------------------------------------------------------===//

TEST(Concrete, AcceptedWordsMatchAccepts) {
  Automaton A = parseAutomatonOrDie(R"(
    state s { extract(h, 2); select(h[0:0]) { 1 => accept  0 => s } }
  )");
  Store S(A);
  auto Words = p4a::concrete::acceptedWords(A, StateRef::normal(0), S, 6);
  // Accepted words: 1x, 0x1y, 0x0y1z... of even length with last pair
  // starting in 1.
  EXPECT_FALSE(Words.empty());
  for (const Bitvector &W : Words)
    EXPECT_TRUE(accepts(A, StateRef::normal(0), S, W)) << W.str();
  // Count: lengths 2,4,6 contribute 2, 4, 8 words.
  EXPECT_EQ(Words.size(), 2u + 4u + 8u);
}

//===----------------------------------------------------------------------===//
// Canonical fingerprints (the service cache key; p4a/Fingerprint.h)
//===----------------------------------------------------------------------===//

// Elaborates a surface program and returns (automaton, rooted entry).
std::pair<Automaton, StateRef>
elaborated(const frontend::SurfaceProgram &P) {
  frontend::ElaborationResult E = frontend::elaborate(P);
  EXPECT_TRUE(E.Errors.empty())
      << (E.Errors.empty() ? "" : E.Errors.front());
  auto Id = E.Aut.findState(E.Entry);
  EXPECT_TRUE(Id.has_value()) << E.Entry;
  return {std::move(E.Aut), StateRef::normal(Id.value_or(0))};
}

TEST(Fingerprint, StableAcrossPrintParseRoundTrips) {
  // The key property the cache depends on: the same parser resubmitted
  // as text — printed, reparsed, re-elaborated, any number of times —
  // keys to the same fingerprint.
  const Automaton Cases[] = {parsers::mplsReference(),
                             parsers::mplsVectorized(),
                             parsers::vlanParser(), parsers::gibbEdge()};
  for (const Automaton &A : Cases) {
    ASSERT_GT(A.numStates(), 0u);
    StateRef Root = StateRef::normal(0);
    Fingerprint Orig = fingerprint(A, Root);

    frontend::SurfaceProgram P =
        frontend::surfaceFromP4a(A, A.state(0).Name);
    auto First = elaborated(frontend::parseSurfaceOrDie(
        frontend::printSurface(P)));
    EXPECT_EQ(canonicalForm(First.first, First.second),
              canonicalForm(A, Root));
    EXPECT_EQ(fingerprint(First.first, First.second), Orig);

    // And once more around the loop.
    auto Second = elaborated(frontend::parseSurfaceOrDie(
        frontend::printSurface(frontend::surfaceFromP4a(
            First.first, First.first.state(First.second.Id).Name))));
    EXPECT_EQ(fingerprint(Second.first, Second.second), Orig);
  }
}

TEST(Fingerprint, InsensitiveToStateAndHeaderNumbering) {
  // renameStates() twins elaborate to automata whose states (and, in
  // elaboration order, headers) are numbered differently — yet they are
  // the same parser, so they must key identically.
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    frontend::SurfaceProgram P = frontend::generateProgram(Seed);
    frontend::SurfaceProgram Twin = frontend::renameStates(P, "_renamed");
    auto A = elaborated(P);
    auto B = elaborated(Twin);
    EXPECT_EQ(canonicalForm(A.first, A.second),
              canonicalForm(B.first, B.second))
        << "seed " << Seed;
    EXPECT_EQ(fingerprint(A.first, A.second),
              fingerprint(B.first, B.second))
        << "seed " << Seed;
    EXPECT_EQ(fingerprint(A.first), fingerprint(B.first))
        << "seed " << Seed;
  }
}

TEST(Fingerprint, SensitiveToEverySemanticMutation) {
  // Every mutation kind mutateProgram() can produce (flipped pattern
  // bits, swapped/dropped cases, retargeted transitions, shifted
  // slices) must move the fingerprint whenever it moves the canonical
  // form — a fingerprint that missed a mutation would let the cache
  // serve a stale verdict for an edited parser.
  size_t Changed = 0, Checked = 0;
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    frontend::SurfaceProgram P = frontend::generateProgram(Seed);
    auto Base = elaborated(P);
    std::string BaseForm = canonicalForm(Base.first, Base.second);
    for (uint64_t M = 1; M <= 8; ++M) {
      auto Mut = elaborated(frontend::mutateProgram(P, Seed * 1000 + M));
      std::string MutForm = canonicalForm(Mut.first, Mut.second);
      ++Checked;
      if (MutForm == BaseForm) {
        // The mutation landed in an unreachable fragment (or cancelled
        // out): equal forms must mean equal fingerprints.
        EXPECT_EQ(fingerprint(Mut.first, Mut.second),
                  fingerprint(Base.first, Base.second));
      } else {
        ++Changed;
        EXPECT_NE(fingerprint(Mut.first, Mut.second),
                  fingerprint(Base.first, Base.second))
            << "seed " << Seed << " mutation " << M
            << ": canonical forms differ but fingerprints collide";
      }
    }
  }
  // The sweep must actually have exercised the sensitive direction.
  EXPECT_GT(Changed, Checked / 2);
}

TEST(Fingerprint, TerminalEntriesAndUnreachableStates) {
  // Terminal roots have canonical forms too (the service accepts
  // degenerate parsers), and unreachable states never affect the key.
  Automaton A = parseAutomatonOrDie(R"(
    state s { extract(h, 1); goto accept }
    state dead { extract(h, 1); goto reject }
  )");
  Automaton B = parseAutomatonOrDie(R"(
    state s { extract(h, 1); goto accept }
  )");
  EXPECT_EQ(fingerprint(A, StateRef::normal(*A.findState("s"))),
            fingerprint(B, StateRef::normal(0)));
  EXPECT_EQ(fingerprint(A, StateRef::accept()),
            fingerprint(B, StateRef::accept()));
  EXPECT_NE(fingerprint(A, StateRef::accept()),
            fingerprint(A, StateRef::reject()));
}

TEST(Fingerprint, CombineIsOrderSensitive) {
  Fingerprint L = fingerprintBytes("left parser");
  Fingerprint R = fingerprintBytes("right parser");
  EXPECT_NE(combineFingerprints(L, R), combineFingerprints(R, L));
  EXPECT_NE(combineFingerprints(L, R), L);
  EXPECT_NE(combineFingerprints(L, R), R);
}

TEST(Fingerprint, BytesAndHex) {
  Fingerprint A = fingerprintBytes("abc");
  Fingerprint B = fingerprintBytes("abd");
  Fingerprint Empty = fingerprintBytes("");
  EXPECT_NE(A, B);
  EXPECT_NE(A, Empty);
  EXPECT_EQ(A, fingerprintBytes("abc"));
  EXPECT_EQ(A.hex().size(), 32u);
  EXPECT_EQ(A.hex().find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_NE(A.hex(), B.hex());
}

TEST(Concrete, ReachableConfigCountIsFinite) {
  Automaton A = parseAutomatonOrDie(R"(
    state s { extract(h, 2); select(h[0:0]) { 1 => accept  0 => s } }
  )");
  size_t N = p4a::concrete::reachableConfigCount(A, StateRef::normal(0),
                                                 Store(A));
  // s with buffers ε/0/1 × store values reached, plus accept/reject sinks.
  EXPECT_GT(N, 3u);
  EXPECT_LT(N, 40u);
}

} // namespace
