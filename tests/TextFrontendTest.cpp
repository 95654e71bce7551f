//===- TextFrontendTest.cpp - Textual front-end tests ---------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The `.lfp` front-end's promise is that text is as good as C++: a parser
// written (or printed) as a data file elaborates to the *same* automaton
// — same header ids, same state ids — as its C++-built original, so the
// checker's verdict and decision stream are bit-identical. Three
// batteries lock that in:
//
//   - golden round trips: every registry study is printed to text,
//     re-parsed, elaborated, and compared against the original both
//     structurally (print + headers id-by-id) and behaviorally (full
//     decision-stream comparison, the ParallelTest idiom);
//   - grammar coverage: stacks, subparser calls, and lookahead survive a
//     print→parse→print fixpoint and still elaborate correctly;
//   - diagnostics: a table of malformed inputs pinning exact line:col
//     positions and message substrings, so no diagnostic regresses
//     silently.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "core/FrontierKey.h"
#include "frontend/Elaborate.h"
#include "frontend/Text.h"
#include "parsers/CaseStudies.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::frontend;

namespace {

//===----------------------------------------------------------------------===//
// Golden round trips over the registry
//===----------------------------------------------------------------------===//

std::string traceKey(const core::TraceStep &T) {
  const char *Kind = T.K == core::TraceStep::Kind::Skip     ? "skip"
                     : T.K == core::TraceStep::Kind::Extend ? "extend"
                                                            : "done";
  return std::string(Kind) + "/" + std::to_string(T.WpCount) + " " +
         core::detail::formulaKey(T.Psi);
}

void expectIdenticalDecisions(const char *Name, const core::CheckResult &A,
                              const core::CheckResult &B) {
  EXPECT_EQ(A.V, B.V) << Name << ": " << A.FailureReason << " vs "
                      << B.FailureReason;
  EXPECT_EQ(A.FailureReason, B.FailureReason) << Name;
  EXPECT_EQ(A.Stats.Iterations, B.Stats.Iterations) << Name;
  EXPECT_EQ(A.Stats.Extends, B.Stats.Extends) << Name;
  EXPECT_EQ(A.Stats.Skips, B.Stats.Skips) << Name;
  EXPECT_EQ(A.Stats.FinalConjuncts, B.Stats.FinalConjuncts) << Name;
  EXPECT_EQ(A.Stats.PeakFrontier, B.Stats.PeakFrontier) << Name;
  EXPECT_EQ(A.Stats.FormulaNodes, B.Stats.FormulaNodes) << Name;

  ASSERT_EQ(A.Trace.size(), B.Trace.size()) << Name;
  for (size_t I = 0; I < A.Trace.size(); ++I)
    ASSERT_EQ(traceKey(A.Trace[I]), traceKey(B.Trace[I]))
        << Name << ": decision stream diverges at step " << I;

  ASSERT_EQ(A.Certificate.Relation.size(), B.Certificate.Relation.size())
      << Name;
  for (size_t I = 0; I < A.Certificate.Relation.size(); ++I)
    ASSERT_EQ(core::detail::formulaKey(A.Certificate.Relation[I]),
              core::detail::formulaKey(B.Certificate.Relation[I]))
        << Name << ": relation diverges at conjunct " << I;
}

/// Round-trips \p Aut through print→parse→elaborate and requires the
/// result to be structurally identical: same textual rendering AND the
/// same header table id-by-id (the print does not show ids, but the
/// decision stream renders them, so both must hold).
p4a::Automaton roundTrip(const p4a::Automaton &Aut,
                         const std::string &Start) {
  SurfaceProgram P = surfaceFromP4a(Aut, Start);
  std::string Text = printSurface(P);
  TextParseResult R = parseSurface(Text);
  EXPECT_TRUE(R.ok());
  for (const std::string &E : R.Errors)
    ADD_FAILURE() << "parse error: " << E << "\nsource:\n" << Text;
  ElaborationResult E = elaborate(R.Program);
  EXPECT_TRUE(E.ok());
  for (const std::string &Err : E.Errors)
    ADD_FAILURE() << "elaboration error: " << Err;
  EXPECT_EQ(E.Entry, Start);

  EXPECT_EQ(E.Aut.print(), Aut.print());
  EXPECT_EQ(E.Aut.numHeaders(), Aut.numHeaders());
  if (E.Aut.numHeaders() == Aut.numHeaders())
    for (size_t H = 0; H < Aut.numHeaders(); ++H) {
      EXPECT_EQ(E.Aut.headerName(p4a::HeaderId(H)),
                Aut.headerName(p4a::HeaderId(H)));
      EXPECT_EQ(E.Aut.headerSize(p4a::HeaderId(H)),
                Aut.headerSize(p4a::HeaderId(H)));
    }
  EXPECT_EQ(E.Aut.numStates(), Aut.numStates());
  if (E.Aut.numStates() == Aut.numStates())
    for (size_t S = 0; S < Aut.numStates(); ++S)
      EXPECT_EQ(E.Aut.stateName(p4a::StateId(S)),
                Aut.stateName(p4a::StateId(S)));
  return std::move(E.Aut);
}

class RegistryRoundTrip
    : public ::testing::TestWithParam<parsers::CaseStudy> {};

/// Both sides of every registry study survive the textual round trip
/// with identical structure.
TEST_P(RegistryRoundTrip, PrintParseElaborateIsIdentity) {
  const parsers::CaseStudy &Study = GetParam();
  roundTrip(Study.Left, Study.LeftStart);
  roundTrip(Study.Right, Study.RightStart);
}

/// The checker, run on the round-tripped pair, takes the same decisions
/// bit for bit as on the C++-built pair. The iteration cap keeps the
/// expensive studies bounded — comparing a 300-step prefix of the
/// decision stream is as sensitive as comparing a full run, and verdicts
/// under the cap must match too (both runs hit the same wall).
TEST_P(RegistryRoundTrip, CheckerDecisionStreamIsBitIdentical) {
  const parsers::CaseStudy &Study = GetParam();
  p4a::Automaton Left = roundTrip(Study.Left, Study.LeftStart);
  p4a::Automaton Right = roundTrip(Study.Right, Study.RightStart);
  if (::testing::Test::HasFailure())
    return;

  core::CheckOptions Options;
  Options.MaxIterations = 300;
  Options.RecordTrace = true;
  core::CheckResult Orig = core::checkLanguageEquivalence(
      Study.Left, p4a::StateRef::normal(*Study.Left.findState(Study.LeftStart)),
      Study.Right,
      p4a::StateRef::normal(*Study.Right.findState(Study.RightStart)),
      Options);
  core::CheckResult Twin = core::checkLanguageEquivalence(
      Left, p4a::StateRef::normal(*Left.findState(Study.LeftStart)), Right,
      p4a::StateRef::normal(*Right.findState(Study.RightStart)), Options);
  expectIdenticalDecisions(Study.Name.c_str(), Orig, Twin);
}

INSTANTIATE_TEST_SUITE_P(
    AllStudies, RegistryRoundTrip,
    ::testing::ValuesIn(parsers::allCaseStudies()),
    [](const ::testing::TestParamInfo<parsers::CaseStudy> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Grammar coverage: the full surface feature set as text
//===----------------------------------------------------------------------===//

/// An MPLS-style parser using every surface feature: a header stack, a
/// subparser with an explicit continuation, and lookahead.
const char *FullFeatureSource = R"(
// Full surface feature set in one program.
header bos : 1;
header peek : 4;
header payload : 8;
stack lbl[2] : 4;
entry start;

state start {
  peek := lookahead;
  extract(lbl.next);
  bos := lbl.last[0:0];
  select(bos, peek[1:2]) {
    (0b1, _) => call tail -> done;
    (0b0, 0b11) => reject;
    (_, _) => start;
  }
}

state done {
  extract(payload);
  goto accept;
}

subparser tail {
  entry t0;
  state t0 {
    extract(payload);
    select(payload[0:3], lbl[0]) {
      (0x0, _) => reject;
      (_, _) => accept;
    }
  }
}
)";

TEST(TextFrontend, FullFeatureProgramElaborates) {
  TextParseResult R = parseSurface(FullFeatureSource);
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  ElaborationResult E = elaborate(R.Program);
  ASSERT_TRUE(E.ok()) << (E.Errors.empty() ? "" : E.Errors[0]);
  // Stack unrolling renames states; the entry must track the renaming.
  EXPECT_NE(E.Aut.findState(E.Entry), std::nullopt);
}

/// printSurface is a fixpoint: parse(print(parse(text))) produces the
/// same text. This pins the printer to the grammar without depending on
/// the original file's whitespace.
TEST(TextFrontend, PrintParseFixpoint) {
  TextParseResult R1 = parseSurface(FullFeatureSource);
  ASSERT_TRUE(R1.ok());
  std::string Printed = printSurface(R1.Program);
  TextParseResult R2 = parseSurface(Printed);
  ASSERT_TRUE(R2.ok()) << (R2.Errors.empty() ? "" : R2.Errors[0])
                       << "\nprinted:\n"
                       << Printed;
  EXPECT_EQ(printSurface(R2.Program), Printed);
  // And both elaborate to the same automaton.
  ElaborationResult E1 = elaborate(R1.Program);
  ElaborationResult E2 = elaborate(R2.Program);
  ASSERT_TRUE(E1.ok() && E2.ok());
  EXPECT_EQ(E1.Aut.print(), E2.Aut.print());
  EXPECT_EQ(E1.Entry, E2.Entry);
}

/// Textual parsers flow through the checker end to end: a two-state
/// splitter is equivalent to a one-state parser of the same language.
TEST(TextFrontend, TextualPairChecksEquivalent) {
  SurfaceProgram Left = parseSurfaceOrDie(R"(
    header a : 4;
    header b : 4;
    entry one;
    state one {
      extract(a);
      extract(b);
      goto accept;
    }
  )");
  SurfaceProgram Right = parseSurfaceOrDie(R"(
    header a : 4;
    header b : 4;
    entry two_hi;
    state two_hi {
      extract(a);
      goto two_lo;
    }
    state two_lo {
      extract(b);
      goto accept;
    }
  )");
  ElaborationResult L = elaborate(Left);
  ElaborationResult R = elaborate(Right);
  ASSERT_TRUE(L.ok() && R.ok());
  core::CheckResult Res = core::checkLanguageEquivalence(
      L.Aut, p4a::StateRef::normal(*L.Aut.findState(L.Entry)), R.Aut,
      p4a::StateRef::normal(*R.Aut.findState(R.Entry)));
  EXPECT_EQ(Res.V, core::Verdict::Equivalent);
}

TEST(TextFrontend, InequivalentPairProducesCounterexample) {
  SurfaceProgram Left = parseSurfaceOrDie(R"(
    header t : 2;
    entry q;
    state q {
      extract(t);
      select(t) {
        (0b00) => accept;
        _ => reject;
      }
    }
  )");
  SurfaceProgram Right = parseSurfaceOrDie(R"(
    header t : 2;
    entry q;
    state q {
      extract(t);
      select(t) {
        (0b01) => accept;
        _ => reject;
      }
    }
  )");
  ElaborationResult L = elaborate(Left);
  ElaborationResult R = elaborate(Right);
  ASSERT_TRUE(L.ok() && R.ok());
  core::CheckResult Res = core::checkLanguageEquivalence(
      L.Aut, p4a::StateRef::normal(*L.Aut.findState(L.Entry)), R.Aut,
      p4a::StateRef::normal(*R.Aut.findState(R.Entry)));
  EXPECT_EQ(Res.V, core::Verdict::NotEquivalent);
  EXPECT_FALSE(Res.FailureReason.empty());
}

//===----------------------------------------------------------------------===//
// Diagnostics battery
//===----------------------------------------------------------------------===//

struct DiagCase {
  const char *Label;
  const char *Source;
  const char *Position; ///< "line:col:" prefix the diagnostic must carry.
  const char *Message;  ///< Substring the diagnostic must contain.
};

class Diagnostics : public ::testing::TestWithParam<DiagCase> {};

TEST_P(Diagnostics, PinsPositionAndMessage) {
  const DiagCase &C = GetParam();
  TextParseResult R = parseSurface(C.Source);
  ASSERT_FALSE(R.ok()) << C.Label << ": expected a parse error";
  bool Found = false;
  for (const std::string &E : R.Errors)
    if (E.find(C.Position) == 0 && E.find(C.Message) != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found) << C.Label << ": no diagnostic at '" << C.Position
                     << "' containing '" << C.Message << "'; got:\n"
                     << [&] {
                          std::string All;
                          for (const std::string &E : R.Errors)
                            All += "  " + E + "\n";
                          return All;
                        }();
}

// Sources are written with explicit \n so the expected line:col positions
// are easy to count; line 1 is the first line of the string.
const DiagCase DiagCases[] = {
    {"UnterminatedSelect",
     "header h : 4;\n"
     "entry q;\n"
     "state q {\n"
     "  extract(h);\n"
     "  select(h) {\n"
     "    (0b0000) => accept;\n",
     "5:3:", "unterminated select"},
    {"SliceLowerAboveUpper",
     "header h : 8;\n"
     "entry q;\n"
     "state q {\n"
     "  extract(h);\n"
     "  h := h[5:2];\n"
     "  goto accept;\n"
     "}\n",
     "5:9:", "lower bound above its upper bound"},
    {"SliceUpperOutOfRange",
     "header h : 8;\n"
     "entry q;\n"
     "state q {\n"
     "  extract(h);\n"
     "  h := h[0:8];\n"
     "  goto accept;\n"
     "}\n",
     "5:9:", "out of range (operand is 8 bits wide)"},
    {"UnknownHeaderInExtract",
     "header h : 4;\n"
     "entry q;\n"
     "state q {\n"
     "  extract(ipv6);\n"
     "  goto accept;\n"
     "}\n",
     "4:11:", "unknown header 'ipv6'"},
    {"UnknownHeaderInExpr",
     "header h : 4;\n"
     "entry q;\n"
     "state q {\n"
     "  extract(h);\n"
     "  h := vlan;\n"
     "  goto accept;\n"
     "}\n",
     "5:8:", "unknown header 'vlan'"},
    {"StackIndexPastCapacity",
     "header h : 4;\n"
     "stack s[3] : 4;\n"
     "entry q;\n"
     "state q {\n"
     "  extract(s.next);\n"
     "  h := s[3];\n"
     "  goto accept;\n"
     "}\n",
     "6:10:", "stack element s[3] is out of range (stack has 3 slots)"},
    {"RecursiveSubparserCall",
     "header h : 4;\n"
     "entry q;\n"
     "state q {\n"
     "  extract(h);\n"
     "  goto call p;\n"
     "}\n"
     "subparser p {\n"
     "  entry e;\n"
     "  state e {\n"
     "    extract(h);\n"
     "    select(h) {\n"
     "      (0b0000) => accept;\n"
     "      _ => call p -> e;\n"
     "    }\n"
     "  }\n"
     "}\n",
     "13:12:", "recursive subparser call"},
    {"MissingEntry",
     "header h : 4;\n"
     "state q {\n"
     "  extract(h);\n"
     "  goto accept;\n"
     "}\n",
     "", "missing entry declaration"},
    {"HeaderStackClash",
     "header s : 4;\n"
     "stack s[2] : 4;\n"
     "entry q;\n"
     "state q {\n"
     "  extract(s.next);\n"
     "  goto accept;\n"
     "}\n",
     "2:7:", "declared both as header and stack"},
    {"AssignToStack",
     "header h : 4;\n"
     "stack s[2] : 4;\n"
     "entry q;\n"
     "state q {\n"
     "  extract(s.next);\n"
     "  s := h;\n"
     "  goto accept;\n"
     "}\n",
     "6:3:", "cannot assign to stack 's'"},
};

INSTANTIATE_TEST_SUITE_P(Battery, Diagnostics,
                         ::testing::ValuesIn(DiagCases),
                         [](const ::testing::TestParamInfo<DiagCase> &Info) {
                           return Info.param.Label;
                         });

//===----------------------------------------------------------------------===//
// Parse-level details
//===----------------------------------------------------------------------===//

TEST(TextFrontend, CommentsAndLiteralFormsLex) {
  TextParseResult R = parseSurface(R"(
    # hash comment
    header h : 8; // line comment
    entry q;
    state q {
      extract(h);
      select(h[0:3]) {
        (0b0101) => accept;
        (0x6) => accept;
        (1111) => reject;
        _ => reject;
      }
    }
  )");
  EXPECT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
}

TEST(TextFrontend, ErrorsAreCappedAndParserTerminates) {
  // A pathological input must neither loop nor flood: the parser caps
  // diagnostics at 20.
  std::string Bad = "entry q;\n";
  for (int I = 0; I < 100; ++I)
    Bad += "state s" + std::to_string(I) + " { extract(x" +
           std::to_string(I) + "); goto accept; }\n";
  TextParseResult R = parseSurface(Bad);
  EXPECT_FALSE(R.ok());
  EXPECT_LE(R.Errors.size(), 24u);
}

/// A one-state program whose select discriminant is \p Discriminant.
std::string selectOn(const std::string &Discriminant) {
  return "header h : 8;\nentry start;\nstate start {\n  extract(h);\n"
         "  select(" +
         Discriminant +
         ") {\n    (0b00000000) => accept;\n    (_) => reject;\n  }\n}\n";
}

std::string repeated(const std::string &Unit, size_t N) {
  std::string S;
  for (size_t I = 0; I < N; ++I)
    S += Unit;
  return S;
}

TEST(TextFrontend, HostileNestingIsOneLocatedError) {
  // A select discriminant inside 100 000 parentheses killed
  // `leapfrog-cli --file` with SIGSEGV, and so did a 100 000-long '++' or
  // slice chain (later passes recurse once per operator). Each is now one
  // diagnostic at the token that crossed the limit: the discriminant
  // starts at column 10, so the 257th '(' sits at 10 + 256 and the 257th
  // '[' at 11 + 256 * 5, with the 257th '++' one column further.
  const size_t N = 100000;
  const struct {
    std::string Text;
    const char *Position;
  } Cases[] = {
      {selectOn(repeated("(", N) + "h" + repeated(")", N)), "5:266: "},
      {selectOn("h" + repeated(" ++ h", N)), "5:1292: "},
      {selectOn("h" + repeated("[0:7]", N)), "5:1291: "},
  };
  for (const auto &C : Cases) {
    TextParseResult R = parseSurface(C.Text);
    ASSERT_EQ(R.Errors.size(), 1u) << R.Errors.front();
    EXPECT_EQ(R.Errors[0].find(std::string(C.Position) +
                               "expression nests deeper than 256"),
              0u)
        << R.Errors[0];
  }
  // At the limit the program still parses and elaborates.
  TextParseResult AtLimit =
      parseSurface(selectOn(repeated("(", 256) + "h" + repeated(")", 256)));
  ASSERT_TRUE(AtLimit.ok()) << AtLimit.Errors.front();
  EXPECT_TRUE(elaborate(AtLimit.Program).ok());
}

TEST(TextFrontend, TailRecursiveSubparserCallIsAccepted) {
  // Recursion with an *inherited* continuation elaborates to a loop
  // (memoized instance), so it must parse cleanly.
  TextParseResult R = parseSurface(R"(
    header h : 4;
    entry q;
    state q {
      extract(h);
      goto call p;
    }
    subparser p {
      entry e;
      state e {
        extract(h);
        select(h) {
          (0b0000) => accept;
          _ => call p;
        }
      }
    }
  )");
  EXPECT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  ElaborationResult E = elaborate(R.Program);
  EXPECT_TRUE(E.ok()) << (E.Errors.empty() ? "" : E.Errors[0]);
}

} // namespace
