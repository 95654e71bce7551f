//===- bench_table2.cpp - Reproduces Table 2 ------------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's Table 2: every Utility and Applicability case
// study, with the same columns (States, Branched bits, Total bits,
// Runtime, Memory) plus this implementation's search statistics. The
// paper's absolute numbers come from Coq running proof search with
// 400 GB-class memory; ours come from a native C++ checker, so the
// comparable signal is the *shape*: which studies verify, and the
// relative cost ordering. docs/EXPERIMENTS.md records paper-vs-measured.
//
// The External filtering and Relational verification rows use the
// qualified/custom initial relations of §7.1; the Translation Validation
// row runs the full Figure 8 pipeline (compile → tables → back-translate
// → equivalence). Two negative rows reproduce the §7.1 sanity check: the
// checker must *fail* on inequivalent inputs.
//
//===----------------------------------------------------------------------===//

#include "core/CertificateIo.h"
#include "core/Checker.h"
#include "obs/Trace.h"
#include "parsers/CaseStudies.h"
#include "pgen/TranslationValidation.h"
#include "smt/ProofLog.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sys/resource.h>

using namespace leapfrog;
using namespace leapfrog::core;

namespace {

double maxRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0;
}

struct Row {
  std::string Name;
  std::string Category;
  size_t States = 0;
  size_t Branched = 0;
  size_t Total = 0;
  bool ExpectEquivalent = true;
  CheckResult Result;
  smt::SolverStats Solver; ///< Per-row backend stats (fresh instance).
};

void printHeader() {
  std::printf("%-28s %-14s %7s %9s %7s %9s %10s %9s %8s %9s %8s %s\n",
              "Name", "Category", "States", "Branched", "Total", "Reach",
              "Conjuncts", "Queries", "Time(s)", "Solve(s)", "RSS(MB)",
              "Verdict");
  std::printf("%s\n", std::string(142, '-').c_str());
}

void printRow(const Row &R) {
  const char *Verdict =
      R.Result.V == Verdict::Equivalent
          ? "equivalent"
          : (R.Result.V == Verdict::NotEquivalent ? "NOT equivalent"
                                                  : "DNF (budget)");
  // DNF on the large applicability studies mirrors the paper's own
  // out-of-memory outcome on Service Provider (Table 2's asterisk): the
  // proof search is sound but resource-hungry on self-comparisons with
  // many spurious template pairs.
  bool AsExpected = R.Result.V == Verdict::ResourceLimit
                        ? R.Category == "Applicability"
                        : (R.Result.V == Verdict::Equivalent) ==
                              R.ExpectEquivalent;
  std::printf(
      "%-28s %-14s %7zu %9zu %7zu %9zu %10zu %9zu %8.2f %9.2f %8.1f %s%s\n",
      R.Name.c_str(), R.Category.c_str(), R.States, R.Branched, R.Total,
      R.Result.Stats.ReachPairs, R.Result.Stats.FinalConjuncts,
      R.Result.Stats.SmtQueries, double(R.Result.Stats.WallMicros) / 1e6,
      double(R.Result.Stats.SolverMicros) / 1e6, maxRssMb(), Verdict,
      AsExpected ? "" : "  ** UNEXPECTED **");
  if (R.Solver.SessionQueries > 0) {
    std::printf("%-28s %-14s sessions=%zu premises-blasted=%zu "
                "cache-hits=%zu reused-clauses=%zu\n",
                "", "  (incremental)", size_t(R.Solver.SessionsOpened),
                size_t(R.Solver.SessionPremises),
                size_t(R.Solver.PremiseCacheHits),
                size_t(R.Solver.ReusedClauses));
    std::printf("%-28s %-14s peak-learnts=%zu deleted=%zu reduce-runs=%zu "
                "arena-peak=%.1fMB restarts=%zu\n",
                "", "  (memory)", size_t(R.Solver.PeakLearnts),
                size_t(R.Solver.ClausesDeleted),
                size_t(R.Solver.ReduceDbRuns),
                double(R.Solver.ArenaBytesPeak) / (1024.0 * 1024.0),
                size_t(R.Solver.SessionRestarts));
  }
}

/// --unbounded: disable session clause-DB management entirely (no
/// reduceDB, no retired-goal deletion) — the grow-only PR-2 session
/// behavior, kept as the before-side of the memory A/B.
bool Unbounded = false;

/// --certify: after each sequential row, rerun it with streaming DRUP
/// certificates on and print the certified-vs-uncertified overhead line
/// (the docs/EXPERIMENTS.md certified column). Off by default so the
/// classic table's timings stay comparable across revisions.
bool CertifyColumn = false;

/// --goal-batch N: share one solver round-trip across up to N same-guard
/// entailment goals in every row (CheckOptions::GoalBatch; see
/// docs/SOLVERS.md). Decisions are identical at any N; the round-trip
/// column of the stats line is what moves. Default 1 so the classic
/// table's query accounting stays comparable across revisions.
size_t GoalBatch = 1;

/// --trace-out FILE: record every instrumented span of the whole table
/// run and write Chrome trace_event JSON at exit (docs/OBSERVABILITY.md).
const char *TraceOutPath = nullptr;

Row runStudy(const parsers::CaseStudy &Study, const InitialSpec &Spec,
             bool ExpectEquivalent, size_t MaxIterations = 1u << 20,
             uint64_t MaxWallMicros = 0, bool Certify = false) {
  Row R;
  R.Name = Study.Name;
  R.Category = Study.Category;
  R.States = Study.Left.numStates() + Study.Right.numStates();
  R.Branched = Study.Left.branchedBits() + Study.Right.branchedBits();
  R.Total = Study.Left.totalHeaderBits() + Study.Right.totalHeaderBits();
  R.ExpectEquivalent = ExpectEquivalent;
  smt::BitBlastSolver Solver; // Fresh backend per row: isolated stats.
  Solver.SessionReduce.Enabled = !Unbounded;
  Solver.SessionHardRetire = !Unbounded;
  CheckOptions O;
  O.Solver = &Solver;
  O.MaxIterations = MaxIterations;
  O.MaxWallMicros = MaxWallMicros;
  O.Certify = Certify;
  O.GoalBatch = GoalBatch;
  R.Result = checkWithSpec(Study.Left, Study.Right, Spec, O);
  R.Solver = Solver.stats();
  return R;
}

/// The certified line under a row: same study, same budgets, streaming
/// DRUP slices on. Overhead is certified/uncertified wall; the decisions
/// check pins that recording proofs never changes the search. Exactness
/// only holds run-to-run when the budget is deterministic: a wall-clock
/// trip lands on whatever iteration the clock says, in *either* run, so
/// wall-limited rows report "n/a (wall-limited)" rather than a spurious
/// divergence. The
/// certificate is serialized exactly as --emit-cert/the service store
/// would, so Cert(MB) is the real artifact size.
void printCertifiedRow(const parsers::CaseStudy &Study, const Row &Seq,
                       const Row &Cert) {
  auto WallLimited = [](const Row &R) {
    return R.Result.V == Verdict::ResourceLimit &&
           R.Result.FailureReason.rfind("wall-clock", 0) == 0;
  };
  const char *Decisions;
  if (WallLimited(Seq) || WallLimited(Cert)) {
    Decisions = "n/a (wall-limited)";
  } else {
    bool Identical =
        Cert.Result.V == Seq.Result.V &&
        Cert.Result.Stats.FinalConjuncts == Seq.Result.Stats.FinalConjuncts &&
        Cert.Result.Stats.Iterations == Seq.Result.Stats.Iterations &&
        Cert.Result.Stats.Extends == Seq.Result.Stats.Extends;
    Decisions = Identical ? "identical" : "** DIVERGED **";
  }
  double Overhead = double(Cert.Result.Stats.WallMicros) /
                    double(std::max<uint64_t>(Seq.Result.Stats.WallMicros, 1));
  size_t CertBytes = 0, Streams = 0;
  if (Cert.Result.V == Verdict::Equivalent && Cert.Result.Proof) {
    CertBytes = serializeCertificate(Study.Left, Study.Right,
                                     Cert.Result.Certificate,
                                     Cert.Result.Proof.get(), "-")
                    .size();
    Streams = Cert.Result.Proof->streamCount();
  }
  std::printf("%-28s %-14s time=%.2fs overhead=%.2fx cert=%.2fMB "
              "streams=%zu decisions=%s\n",
              "", "  (certified)", double(Cert.Result.Stats.WallMicros) / 1e6,
              Overhead, double(CertBytes) / (1024.0 * 1024.0), Streams,
              Decisions);
}

/// Runs + prints one study: the row, then (with --certify) the certified
/// line.
void runAndPrint(const parsers::CaseStudy &Study, const InitialSpec &Spec,
                 bool ExpectEquivalent, size_t MaxIterations = 1u << 20,
                 uint64_t MaxWallMicros = 0) {
  Row Seq = runStudy(Study, Spec, ExpectEquivalent, MaxIterations,
                     MaxWallMicros);
  printRow(Seq);
  if (CertifyColumn) {
    Row Cert = runStudy(Study, Spec, ExpectEquivalent, MaxIterations,
                        MaxWallMicros, /*Certify=*/true);
    printCertifiedRow(Study, Seq, Cert);
  }
}

InitialSpec plainSpec(const parsers::CaseStudy &Study) {
  return languageEquivalenceSpec(
      Study.Left, p4a::StateRef::normal(*Study.Left.findState(Study.LeftStart)),
      Study.Right,
      p4a::StateRef::normal(*Study.Right.findState(Study.RightStart)));
}

/// ether[96:111] ∈ {IPv4, IPv6} over the given side's store — the §7.1
/// external filter predicate.
logic::PureRef goodEthertype(logic::Side S, const p4a::Automaton &Aut) {
  auto Field = logic::BitExpr::mkSlice(
      logic::BitExpr::mkHdr(S, *Aut.findHeader("ether")), 96, 111);
  auto V6 = logic::BitExpr::mkLit(Bitvector::fromUint(0x86dd, 16));
  auto V4 = logic::BitExpr::mkLit(Bitvector::fromUint(0x8600, 16));
  return logic::Pure::mkOr(logic::Pure::mkEq(Field, V6),
                           logic::Pure::mkEq(Field, V4));
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--unbounded")) {
      Unbounded = true;
    } else if (!std::strcmp(argv[I], "--certify")) {
      CertifyColumn = true;
    } else if (!std::strcmp(argv[I], "--trace-out") && I + 1 < argc) {
      TraceOutPath = argv[++I];
    } else if (!std::strcmp(argv[I], "--goal-batch") && I + 1 < argc) {
      GoalBatch = size_t(std::strtoull(argv[++I], nullptr, 10));
      if (GoalBatch < 1)
        GoalBatch = 1;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--unbounded] [--certify] "
                   "[--goal-batch N] [--trace-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  // Perfetto timeline of the whole table (docs/OBSERVABILITY.md), on
  // the main track. Passive — the rows print identically with or
  // without it.
  std::unique_ptr<obs::TraceSink> Trace;
  if (TraceOutPath) {
    Trace = std::make_unique<obs::TraceSink>();
    obs::setTraceSink(Trace.get());
    obs::nameCurrentThread("bench-main");
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("Table 2 reproduction (paper §7; see docs/EXPERIMENTS.md for "
              "the paper-vs-measured discussion)%s\n\n",
              Unbounded ? "  [--unbounded: session clause-DB management "
                          "disabled]"
                        : "");
  if (CertifyColumn)
    std::printf("[--certify: each row is followed by a streaming-certificate "
                "rerun; overhead is certified/uncertified wall]\n\n");
  printHeader();

  for (parsers::CaseStudy &Study : parsers::allCaseStudies()) {
    InitialSpec Spec = plainSpec(Study);
    bool Expect = true;
    if (Study.Name == "External filtering") {
      Spec.Mode = AcceptanceMode::Qualified;
      Spec.LeftQualifier = goodEthertype(logic::Side::Left, Study.Left);
      Spec.RightQualifier = logic::Pure::mkTrue();
    } else if (Study.Name == "Relational verification") {
      Spec.Mode = AcceptanceMode::Custom;
      logic::TemplatePair AccAcc{logic::Template::accept(),
                                 logic::Template::accept()};
      auto HL = logic::BitExpr::mkHdr(logic::Side::Left,
                                      *Study.Left.findHeader("ether"));
      auto HR = logic::BitExpr::mkHdr(logic::Side::Right,
                                      *Study.Right.findHeader("ether"));
      Spec.ExtraInitial.push_back(
          logic::GuardedFormula{AccAcc, logic::Pure::mkEq(HL, HR)});
    }
    // The applicability self-comparisons get a budget: the spurious
    // off-diagonal template pairs of the leap-level reach abstraction
    // make their refutation chains long (see DESIGN.md §5) — the paper's
    // experience at Coq scale (hundreds of GB / many hours). With the
    // incremental solver sessions each iteration is ~3× cheaper, so the
    // old 10000-iteration cap (which kept Edge and Datacenter DNF) is
    // now a 50000-iteration cap with a 15-minute wall-clock valve: Edge
    // converges around 34k iterations and Datacenter around 18k — see
    // docs/EXPERIMENTS.md for the measured before/after.
    bool Big = Study.Category == "Applicability";
    size_t Budget = Big ? 50000 : (1u << 20);
    uint64_t WallBudget = Big ? 900u * 1000u * 1000u : 0;
    runAndPrint(Study, Spec, Expect, Budget, WallBudget);
  }

  // Translation Validation (Figure 8): compile Edge to TCAM tables,
  // back-translate, prove equivalence of original and reconstruction.
  {
    pgen::TranslationValidation TV = pgen::buildEdgeTranslationValidation();
    if (!TV.ok()) {
      for (const std::string &D : TV.Diagnostics)
        std::printf("translation validation FAILED to build: %s\n",
                    D.c_str());
      return 1;
    }
    parsers::CaseStudy Study{"Translation Validation",
                             "Applicability",
                             TV.Original,
                             TV.OriginalStart,
                             TV.Reconstructed,
                             TV.ReconstructedStart};
    // Still DNF even incrementally (does not converge within 22k
    // iterations / 12 minutes — see docs/EXPERIMENTS.md), so a tighter
    // wall valve keeps the row from dominating the whole table's runtime.
    runAndPrint(Study, plainSpec(Study), true, 50000,
                300u * 1000u * 1000u);
  }

  // §7.1 sanity checks: inequivalent inputs must be rejected, with the
  // search still terminating.
  {
    parsers::CaseStudy Study{"Sanity: sloppy vs strict",
                             "Negative",
                             parsers::sloppyEthernetIp(),
                             "parse_eth",
                             parsers::strictEthernetIp(),
                             "parse_eth"};
    runAndPrint(Study, plainSpec(Study), false);
  }
  {
    parsers::CaseStudy Study{"Sanity: uninit vlan header",
                             "Negative",
                             parsers::vlanParserBuggy(),
                             "parse_eth",
                             parsers::vlanParserBuggy(),
                             "parse_eth"};
    runAndPrint(Study, plainSpec(Study), false);
  }

  std::printf("\nNote: RSS is the process max so far (monotone across "
              "rows); Reach counts template pairs after §5.1 pruning.\n");
  if (Trace) {
    obs::setTraceSink(nullptr);
    std::string Err;
    if (!Trace->writeChromeJson(TraceOutPath, &Err)) {
      std::fprintf(stderr, "bench_table2: %s\n", Err.c_str());
      return 2;
    }
    std::printf("trace written to %s (%zu events); open in "
                "ui.perfetto.dev or summarize with leapfrog-trace\n",
                TraceOutPath, Trace->eventCount());
  }
  return 0;
}
