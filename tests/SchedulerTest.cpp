//===- SchedulerTest.cpp - Scheduler-adversarial batching battery ---------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Entailment-query batching (CheckOptions::GoalBatch) folds upcoming
// same-template-pair goals into shared solver round-trips and answers
// some goals ahead of their turn. It promises not to move a single
// decision. This battery attacks that promise:
//
//  - a batched-vs-classic differential over every registry study AND
//    every corpus pair, comparing verdict, failure text, stats, the full
//    decision stream, the relation conjunct by conjunct, and the
//    *serialized certificate bytes*;
//
//  - batched-vs-unbatched differentials pinning that RoundTrips (the
//    physical solve-call counter) strictly drops while every decision
//    byte stays put — on the in-repo bit-blaster and, for the ≥30%
//    acceptance bar, on the external SMT-LIB shim;
//
//  - a seeded schedule-perturbation fuzz over batch sizes and racing
//    portfolio backends, scaled 100x by the nightly LEAPFROG_FUZZ_ITERS
//    setting.
//
//===----------------------------------------------------------------------===//

#include "FuzzSupport.h"
#include "core/CertificateIo.h"
#include "core/Checker.h"
#include "core/FrontierKey.h"
#include "frontend/Elaborate.h"
#include "frontend/Text.h"
#include "parsers/CaseStudies.h"
#include "smt/SmtLibSolver.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::core;

namespace {

//===----------------------------------------------------------------------===//
// Shared comparison helpers
//===----------------------------------------------------------------------===//

std::string traceKey(const TraceStep &T) {
  const char *Kind = T.K == TraceStep::Kind::Skip     ? "skip"
                     : T.K == TraceStep::Kind::Extend ? "extend"
                                                      : "done";
  return std::string(Kind) + "/" + std::to_string(T.WpCount) + " " +
         detail::formulaKey(T.Psi);
}

/// Everything that must be bit-identical across schedules. SmtQueries and
/// the times are deliberately absent: batching changes how many physical
/// queries answer the same decisions.
void expectIdenticalDecisions(const std::string &Name, const CheckResult &A,
                              const CheckResult &B) {
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
    ASSERT_EQ(detail::formulaKey(A.Certificate.Relation[I]),
              detail::formulaKey(B.Certificate.Relation[I]))
        << Name << ": relation diverges at conjunct " << I;
}

/// The serialized relation certificate — byte-for-byte (the relation text;
/// proof streams are not captured here).
std::string certBytes(const p4a::Automaton &L, const p4a::Automaton &R,
                      const CheckResult &Res) {
  return serializeCertificate(L, R, Res.Certificate, nullptr, "");
}

struct RunConfig {
  size_t GoalBatch = 1;
  size_t MaxIterations = 300;
};

CheckResult runPair(const p4a::Automaton &L, const std::string &LS,
                    const p4a::Automaton &R, const std::string &RS,
                    smt::SmtSolver &Solver, const RunConfig &C) {
  CheckOptions O;
  O.MaxIterations = C.MaxIterations;
  O.Solver = &Solver;
  O.GoalBatch = C.GoalBatch;
  O.RecordTrace = true;
  return checkLanguageEquivalence(L, LS, R, RS, O);
}

CheckResult runStudy(const parsers::CaseStudy &S, smt::SmtSolver &Solver,
                     const RunConfig &C) {
  return runPair(S.Left, S.LeftStart, S.Right, S.RightStart, Solver, C);
}

//===----------------------------------------------------------------------===//
// Registry differential: batched vs one goal per query
//===----------------------------------------------------------------------===//

class BatchedDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchedDifferential, BatchedMatchesClassic) {
  std::vector<parsers::CaseStudy> Studies = parsers::allCaseStudies();
  ASSERT_LT(GetParam(), Studies.size());
  const parsers::CaseStudy &Study = Studies[GetParam()];

  smt::BitBlastSolver SeqSolver;
  RunConfig Seq;
  CheckResult Baseline = runStudy(Study, SeqSolver, Seq);
  std::string BaselineCert;
  if (Baseline.equivalent())
    BaselineCert = certBytes(Study.Left, Study.Right, Baseline);

  RunConfig Batched;
  Batched.GoalBatch = 8;
  smt::BitBlastSolver Solver;
  CheckResult Res = runStudy(Study, Solver, Batched);
  expectIdenticalDecisions(Study.Name, Baseline, Res);
  if (Baseline.equivalent()) {
    EXPECT_EQ(BaselineCert, certBytes(Study.Left, Study.Right, Res))
        << Study.Name << ": certificate bytes diverge (goal-batch=8)";
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, BatchedDifferential,
                         ::testing::Range<size_t>(0, 10));

//===----------------------------------------------------------------------===//
// Corpus differential: every .lfp pair, batched vs one goal per query
//===----------------------------------------------------------------------===//

std::string corpusDir() {
  const char *Env = std::getenv("LEAPFROG_CORPUS_DIR");
  return Env && *Env ? Env : "";
}

/// Must match tools/corpus-gen.cpp (and CorpusTest), which name the files.
std::string slugify(const std::string &Name) {
  std::string Slug;
  for (char C : Name) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      Slug += char(std::tolower(static_cast<unsigned char>(C)));
    else if (!Slug.empty() && Slug.back() != '_')
      Slug += '_';
  }
  while (!Slug.empty() && Slug.back() == '_')
    Slug.pop_back();
  return Slug;
}

frontend::ElaborationResult loadLfp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  frontend::TextParseResult Parsed = frontend::parseSurface(Ss.str());
  for (const std::string &E : Parsed.Errors)
    ADD_FAILURE() << Path << ":" << E;
  frontend::ElaborationResult Elab = frontend::elaborate(Parsed.Program);
  for (const std::string &E : Elab.Errors)
    ADD_FAILURE() << Path << ": " << E;
  return Elab;
}

/// The 20 corpus pairs: the 10 registry twin pairs (left vs right file)
/// plus the 5 protocol studies' opt and bug comparisons.
struct CorpusPair {
  std::string Name;
  std::string LeftFile, RightFile;
  size_t MaxIterations;
};

std::vector<CorpusPair> corpusPairs() {
  std::vector<CorpusPair> Pairs;
  for (const parsers::CaseStudy &S : parsers::allCaseStudies()) {
    std::string Slug = slugify(S.Name);
    // The registry twins mirror the registry studies; the same modest
    // iteration cap keeps the applicability self-comparisons affordable
    // (a ResourceLimit run diffs exactly like a completed one).
    Pairs.push_back(
        {Slug, Slug + "_left.lfp", Slug + "_right.lfp", 300});
  }
  for (const char *Stem :
       {"ipv6_chain", "vlan_qinq", "tunnel", "quic_varint", "tlv_fanin"}) {
    Pairs.push_back({std::string(Stem) + "_opt", std::string(Stem) + ".lfp",
                     std::string(Stem) + "_opt.lfp", 20000});
    Pairs.push_back({std::string(Stem) + "_bug", std::string(Stem) + ".lfp",
                     std::string(Stem) + "_bug.lfp", 20000});
  }
  return Pairs;
}

class CorpusScheduling : public ::testing::TestWithParam<size_t> {};

TEST_P(CorpusScheduling, BatchedMatchesClassic) {
  std::string Dir = corpusDir();
  if (Dir.empty())
    GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";
  std::vector<CorpusPair> Pairs = corpusPairs();
  ASSERT_LT(GetParam(), Pairs.size());
  const CorpusPair &P = Pairs[GetParam()];

  frontend::ElaborationResult L = loadLfp(Dir + "/" + P.LeftFile);
  frontend::ElaborationResult R = loadLfp(Dir + "/" + P.RightFile);
  ASSERT_TRUE(L.ok() && R.ok());

  RunConfig Seq;
  Seq.MaxIterations = P.MaxIterations;
  smt::BitBlastSolver SeqSolver;
  CheckResult Baseline = runPair(L.Aut, L.Entry, R.Aut, R.Entry, SeqSolver, Seq);
  std::string BaselineCert;
  if (Baseline.equivalent())
    BaselineCert = certBytes(L.Aut, R.Aut, Baseline);

  RunConfig C;
  C.MaxIterations = P.MaxIterations;
  C.GoalBatch = 4;
  smt::BitBlastSolver Solver;
  CheckResult Res = runPair(L.Aut, L.Entry, R.Aut, R.Entry, Solver, C);
  expectIdenticalDecisions(P.Name, Baseline, Res);
  if (Baseline.equivalent()) {
    EXPECT_EQ(BaselineCert, certBytes(L.Aut, R.Aut, Res))
        << P.Name << ": certificate bytes diverge at goal-batch=4";
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusScheduling,
                         ::testing::Range<size_t>(0, 20),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return corpusPairs()[Info.param].Name;
                         });

//===----------------------------------------------------------------------===//
// Batching: identical decisions, strictly fewer physical round-trips
//===----------------------------------------------------------------------===//

TEST(BatchingDifferential, WindowedMatchesClassicAndCutsRoundTrips) {
  uint64_t Unbatched = 0, Batched = 0;
  for (const parsers::CaseStudy &Study : parsers::allCaseStudies()) {
    smt::BitBlastSolver A, B;
    RunConfig Plain;
    CheckResult ResA = runStudy(Study, A, Plain);
    RunConfig Windowed;
    Windowed.GoalBatch = 8;
    CheckResult ResB = runStudy(Study, B, Windowed);
    expectIdenticalDecisions(Study.Name, ResA, ResB);
    Unbatched += A.stats().RoundTrips;
    Batched += B.stats().RoundTrips;
  }
  // The aggregate pin: batching may locally re-query (a stale frozen
  // answer), but across the registry the shared round-trips must win
  // outright.
  RecordProperty("round_trips_unbatched", std::to_string(Unbatched));
  RecordProperty("round_trips_batched", std::to_string(Batched));
  EXPECT_LT(Batched, Unbatched);
}

/// The acceptance bar: on the external SMT-LIB pipeline (where a
/// round-trip is a real wire exchange) batching must cut external
/// round-trips by at least 30% across the fast registry studies.
TEST(BatchingDifferential, ShimExternalRoundTripsDropThirtyPercent) {
  const char *Env = std::getenv("LEAPFROG_SMTLIB_SHIM");
  if (!Env || !*Env)
    GTEST_SKIP() << "LEAPFROG_SMTLIB_SHIM not set (run under ctest)";

  auto MakeSolver = [&] {
    smt::SmtLibConfig C;
    C.Argv = smt::SmtLibSolver::splitCommand(Env);
    C.QueryTimeoutMs = 20000;
    C.WarnOnFallback = false;
    return std::make_unique<smt::SmtLibSolver>(C);
  };
  // One probe so a broken shim skips rather than mis-measures fallbacks.
  {
    auto Probe = MakeSolver();
    smt::BvTermRef X = smt::BvTerm::mkVar("probe", 2);
    (void)Probe->checkSat(smt::BvFormula::mkEq(X, X), nullptr);
    if (Probe->extStats().ExternalQueries != 1)
      GTEST_SKIP() << "shim not runnable";
  }

  std::string Dir = corpusDir();
  if (Dir.empty())
    GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";

  // The acceptance workload: skip-heavy protocol pairs, run to
  // completion. Batching folds entailed (Skip) goals of one guard into
  // shared check-sat rounds, so the drop scales with the Skip fraction
  // and the same-guard frontier density — tlv_fanin is built to maximize
  // both (fourteen option states merging into one), and the chain-shaped
  // pairs ride along to keep the number from resting on a single parser
  // shape. Extend-heavy pairs (the capped registry twins, edge/
  // datacenter) are covered by WindowedMatchesClassicAndCutsRoundTrips
  // above: batching still wins there, but no fixed percentage is honest.
  uint64_t Unbatched = 0, Batched = 0;
  for (const char *Stem : {"tlv_fanin", "ipv6_chain", "quic_varint"}) {
    std::string Name(Stem);
    frontend::ElaborationResult L = loadLfp(Dir + "/" + Name + ".lfp");
    frontend::ElaborationResult R = loadLfp(Dir + "/" + Name + "_opt.lfp");
    ASSERT_TRUE(L.ok() && R.ok());
    auto A = MakeSolver();
    auto B = MakeSolver();
    RunConfig Plain;
    Plain.MaxIterations = 20000;
    CheckResult ResA = runPair(L.Aut, L.Entry, R.Aut, R.Entry, *A, Plain);
    RunConfig Windowed;
    Windowed.MaxIterations = 20000;
    Windowed.GoalBatch = 8;
    CheckResult ResB = runPair(L.Aut, L.Entry, R.Aut, R.Entry, *B, Windowed);
    expectIdenticalDecisions(Name, ResA, ResB);
    EXPECT_EQ(A->extStats().FallbackQueries, 0u) << Name;
    EXPECT_EQ(B->extStats().FallbackQueries, 0u) << Name;
    Unbatched += A->stats().RoundTrips;
    Batched += B->stats().RoundTrips;
  }
  RecordProperty("round_trips_unbatched", std::to_string(Unbatched));
  RecordProperty("round_trips_batched", std::to_string(Batched));
  ASSERT_GT(Unbatched, 0u);
  EXPECT_LE(Batched * 10, Unbatched * 7)
      << "batched external round-trips (" << Batched
      << ") did not drop >=30% vs unbatched (" << Unbatched << ")";
}

//===----------------------------------------------------------------------===//
// Seeded schedule-perturbation fuzz (nightly runs it 100x deeper)
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

TEST(ScheduleFuzz, PerturbedSchedulesMatchSequential) {
  const uint64_t Seed = 0x5EEDC0DE;
  int Iters = leapfrog::testing::fuzzIters(8);
  leapfrog::testing::reportFuzzConfig("ScheduleFuzz", Iters, Seed);

  std::vector<parsers::CaseStudy> Studies = parsers::allCaseStudies();
  const size_t Cap = 150;
  std::map<size_t, CheckResult> Baselines;
  Rng R(Seed);
  for (int I = 0; I < Iters; ++I) {
    size_t Idx = R.below(Studies.size());
    const parsers::CaseStudy &Study = Studies[Idx];
    if (!Baselines.count(Idx)) {
      smt::BitBlastSolver S;
      RunConfig Seq;
      Seq.MaxIterations = Cap;
      Baselines.emplace(Idx, runStudy(Study, S, Seq));
    }

    RunConfig C;
    C.MaxIterations = Cap;
    C.GoalBatch = 1 + R.below(8); // 1..8 goals per shared round-trip.
    // Every fourth schedule also swaps in a portfolio backend — racing
    // legs must be as decision-invisible as batching. The shim
    // leg joins when the env provides it (the nightly fuzz entry does).
    std::string Backend;
    if (R.below(4) == 0) {
      const char *Shim = std::getenv("LEAPFROG_SMTLIB_SHIM");
      Backend = Shim && *Shim && R.below(2) == 0
                    ? std::string("portfolio:bitblast,smtlib:") + Shim
                    : std::string("portfolio:bitblast,bitblast");
    }
    SCOPED_TRACE("iter " + std::to_string(I) + ": " + Study.Name +
                 " goal-batch=" + std::to_string(C.GoalBatch) +
                 (Backend.empty() ? "" : " backend=" + Backend));
    std::unique_ptr<smt::SmtSolver> Racing;
    smt::BitBlastSolver Plain;
    smt::SmtSolver *S = &Plain;
    if (!Backend.empty()) {
      std::string Err;
      Racing = smt::createSolverBackend(Backend, &Err);
      ASSERT_NE(Racing, nullptr) << Err;
      S = Racing.get();
    }
    CheckResult Res = runStudy(Study, *S, C);
    expectIdenticalDecisions(Study.Name, Baselines.at(Idx), Res);
  }
}

} // namespace
