//===- bench_smt.cpp - SMT query latency distribution (§7.3) --------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Reproduces the §7.3 "SMT Solver Performance" paragraph:
//
//   "Overall we found that all of the queries were solved in at most 10
//    seconds, with 99% taking at most 5 seconds."
//
// We run the utility case studies through the checker against a fresh
// solver instance and report the per-query latency distribution (min /
// p50 / p90 / p99 / max), plus aggregate SAT/UNSAT counts and average
// bit-blasted problem sizes. The reproducible shape is the heavy skew:
// the p99 sits far below the max, and the overwhelming majority of
// queries are trivial for the solver. It also exercises the SMT-LIB
// printer on a live query, mirroring the paper's plugin (Figure 6).
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "logic/Lower.h"
#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "parsers/CaseStudies.h"
#include "smt/SmtLib.h"
#include "smt/SmtLibSolver.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace leapfrog;
using namespace leapfrog::core;

namespace {

/// Times every query the checker poses through it and forwards it to the
/// real backend, which keeps every other statistic.
class LatencyRecorder : public smt::SmtSolver {
public:
  explicit LatencyRecorder(smt::SmtSolver &Inner) : Inner(Inner) {}

  std::vector<uint64_t> Micros; ///< One entry per query.

  smt::SatResult checkSat(const smt::BvFormulaRef &F,
                          smt::Model *M) override {
    obs::StopWatch Watch;
    smt::SatResult R = Inner.checkSat(F, M);
    Micros.push_back(Watch.elapsedMicros());
    return R;
  }

  std::unique_ptr<IncrementalSession>
  openSession(const smt::SessionLimits &Limits) override {
    return std::make_unique<Session>(Inner.openSession(Limits), Micros);
  }

private:
  class Session : public IncrementalSession {
  public:
    Session(std::unique_ptr<IncrementalSession> Inner,
            std::vector<uint64_t> &Micros)
        : Inner(std::move(Inner)), Micros(Micros) {}
    void assertPremise(const smt::BvFormulaRef &F) override {
      Inner->assertPremise(F);
    }
    smt::SatResult checkSatUnderPremises(const smt::BvFormulaRef &Goal,
                                         smt::Model *M) override {
      obs::StopWatch Watch;
      smt::SatResult R = Inner->checkSatUnderPremises(Goal, M);
      Micros.push_back(Watch.elapsedMicros());
      return R;
    }
    /// One physical call answers the batch: each goal gets an equal share
    /// of it, so percentiles stay per query.
    void checkSatBatch(const std::vector<smt::BvFormulaRef> &Goals,
                       std::vector<smt::SatResult> &Out) override {
      obs::StopWatch Watch;
      Inner->checkSatBatch(Goals, Out);
      uint64_t Total = Watch.elapsedMicros();
      Micros.insert(Micros.end(), Goals.size(),
                    Total / std::max<size_t>(Goals.size(), 1));
    }

  private:
    std::unique_ptr<IncrementalSession> Inner;
    std::vector<uint64_t> &Micros;
  };

  smt::SmtSolver &Inner;
};

uint64_t percentile(std::vector<uint64_t> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Idx = size_t(P * double(Sorted.size() - 1));
  return Sorted[Idx];
}

/// One JSON record per (study, mode) pair, written with --json so CI can
/// archive the numbers as an artifact without parsing the human table.
struct JsonRecord {
  std::string Study;
  std::string Mode; ///< "incremental" or "monolithic".
  uint64_t Queries = 0;
  uint64_t P50 = 0, P99 = 0, Max = 0;
  uint64_t TotalMicros = 0;
  uint64_t SessionPremises = 0, PremiseCacheHits = 0, ReusedClauses = 0;
  /// Session memory footprint (zero in monolithic mode). peak_learnts is
  /// the CI perf gate's subject: tools/check_perf_baseline.py fails the
  /// perf-smoke job when it regresses more than 2x over the committed
  /// baseline (bench/baselines/bench_smt_smoke.json).
  uint64_t PeakLearnts = 0, ArenaPeakBytes = 0;
  uint64_t ClausesDeleted = 0, ReduceDbRuns = 0, SessionRestarts = 0;
  /// Physical check-sat round-trips. Deterministic (answers decide the
  /// refinement layers, and answers are schedule-independent), so the
  /// perf gate checks the batched mode's value exactly: round_trips <
  /// queries is the whole point of --goal-batch (docs/SOLVERS.md).
  uint64_t RoundTrips = 0;
  /// CDCL work split by the answer of the physical solve that did it
  /// (SolverStats::OnSat / OnUnsat; zero for external backends). The
  /// perf gate holds decisions per SAT solve to the baseline.
  smt::SolverStats::SatWork OnSat, OnUnsat;
};

/// Writes `{"records": [...], "metrics": <snapshot>}`: the per-study
/// records CI archives plus the process-wide obs::Metrics snapshot, whose
/// smt.solve_micros histogram p95 tools/check_perf_baseline.py gates on
/// (the script still accepts the older bare-array form for old baselines).
void writeJson(const char *Path, const std::vector<JsonRecord> &Records) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "bench_smt: cannot open %s for writing\n", Path);
    return;
  }
  std::fprintf(F, "{\"records\": [\n");
  for (size_t I = 0; I < Records.size(); ++I) {
    const JsonRecord &R = Records[I];
    std::fprintf(F,
                 "  {\"study\": \"%s\", \"mode\": \"%s\", \"queries\": %zu, "
                 "\"p50_us\": %zu, \"p99_us\": %zu, \"max_us\": %zu, "
                 "\"total_us\": %zu, \"session_premises\": %zu, "
                 "\"premise_cache_hits\": %zu, \"reused_clauses\": %zu, "
                 "\"peak_learnts\": %zu, \"arena_peak_bytes\": %zu, "
                 "\"clauses_deleted\": %zu, \"reduce_db_runs\": %zu, "
                 "\"session_restarts\": %zu, \"round_trips\": %zu, "
                 "\"sat_solves\": %zu, \"sat_decisions\": %zu, "
                 "\"sat_propagations\": %zu, \"sat_conflicts\": %zu, "
                 "\"unsat_solves\": %zu, \"unsat_decisions\": %zu, "
                 "\"unsat_propagations\": %zu, \"unsat_conflicts\": %zu}%s\n",
                 R.Study.c_str(), R.Mode.c_str(), size_t(R.Queries),
                 size_t(R.P50), size_t(R.P99), size_t(R.Max),
                 size_t(R.TotalMicros), size_t(R.SessionPremises),
                 size_t(R.PremiseCacheHits), size_t(R.ReusedClauses),
                 size_t(R.PeakLearnts), size_t(R.ArenaPeakBytes),
                 size_t(R.ClausesDeleted), size_t(R.ReduceDbRuns),
                 size_t(R.SessionRestarts), size_t(R.RoundTrips),
                 size_t(R.OnSat.Solves), size_t(R.OnSat.Decisions),
                 size_t(R.OnSat.Propagations), size_t(R.OnSat.Conflicts),
                 size_t(R.OnUnsat.Solves), size_t(R.OnUnsat.Decisions),
                 size_t(R.OnUnsat.Propagations),
                 size_t(R.OnUnsat.Conflicts),
                 I + 1 < Records.size() ? "," : "");
  }
  std::fprintf(F, "],\n\"metrics\": %s}\n",
               obs::metrics().snapshot().toJson().c_str());
  std::fclose(F);
}

} // namespace

int main(int argc, char **argv) {
  // --smoke: only the fast studies, no certification rerun — the CI perf
  // smoke step runs this and uploads --json as an artifact, seeding a
  // longitudinal record without gating on noisy thresholds.
  bool Smoke = false;
  const char *JsonPath = nullptr;
  // --backend SPEC: adds a per-study A/B mode solving through the given
  // backend (smtlib:<cmd> for an external SMT-LIB2 solver, crosscheck for
  // both with divergence checking — see smt/SmtLibSolver.h). Off by
  // default, so the smoke JSON keys stay stable; the external wall-clock
  // line is the §6.3 solver-comparison signal.
  std::string Backend;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke")) {
      Smoke = true;
    } else if (!std::strcmp(argv[I], "--json") && I + 1 < argc) {
      JsonPath = argv[++I];
    } else if (!std::strcmp(argv[I], "--backend") && I + 1 < argc) {
      Backend = argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json FILE] [--backend SPEC]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<JsonRecord> Json;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("SMT query latency distribution (paper §7.3)\n");
  if (!Backend.empty())
    std::printf("external backend A/B: --backend '%s'\n", Backend.c_str());
  std::printf("\n");
  std::printf("%-26s %-12s %8s %8s %8s %8s %8s %8s %6s %6s\n", "Study",
              "Mode", "queries", "min(us)", "p50(us)", "p90(us)", "p99(us)",
              "max(us)", "sat%", "unsat%");

  struct {
    const char *Name;
    p4a::Automaton L, R;
    const char *QL, *QR;
  } Studies[] = {
      {"State Rearrangement", parsers::rearrangeReference(),
       parsers::rearrangeCombined(), "parse_ip", "parse_combined"},
      {"Speculative loop", parsers::mplsReference(),
       parsers::mplsVectorized(), "q1", "q3"},
      {"Header initialization", parsers::vlanParser(), parsers::vlanParser(),
       "parse_eth", "parse_eth"},
      {"Variable-length parsing", parsers::ipOptionsGeneric(2),
       parsers::ipOptionsTimestamp(2), "parse_0", "parse_0"},
  };

  // Each study runs through the incremental sessions (the checker's
  // default) and through per-query monolithic solving — the
  // incrementality ablation for §7.3.
  struct ModeSpec {
    const char *Name;
    bool Incremental;
    const char *Backend;     ///< Factory spec; "" = in-repo bitblast.
    size_t GoalBatch = 1;    ///< CheckOptions::GoalBatch for the mode.
  };
  // "batched" is the --goal-batch economics row: same incremental
  // sessions, up to 8 same-guard goals per physical round-trip. Its
  // round_trips column is what tools/check_perf_baseline.py gates —
  // deterministic, so a lost batch (round_trips creeping back toward
  // queries) is a hard CI failure, not noise.
  std::vector<ModeSpec> Modes = {{"incremental", true, ""},
                                 {"monolithic", false, ""},
                                 {"batched", true, "", 8}};
  if (!Backend.empty()) {
    // Validate the spec eagerly so a typo is a usage error here, not a
    // crash in the per-study loop.
    std::string Err;
    if (!smt::createSolverBackend(Backend, &Err)) {
      std::fprintf(stderr, "bench_smt: %s\n", Err.c_str());
      return 2;
    }
    // Label the A/B row by backend family; the full command was printed
    // under the title line.
    const char *Label = Backend.rfind("crosscheck", 0) == 0 ? "crosscheck"
                                                            : "smtlib";
    Modes.push_back(ModeSpec{Label, true, Backend.c_str()});
  }
  std::vector<uint64_t> All;
  for (auto &Study : Studies) {
    if (Smoke && !std::strcmp(Study.Name, "Variable-length parsing"))
      continue; // The one slow utility study; smoke stays seconds-fast.
    for (const ModeSpec &M : Modes) {
      // Fresh backend (and stats) per (study, mode). Factory spec "" is
      // the in-repo bit-blaster.
      std::unique_ptr<smt::SmtSolver> SolverPtr =
          smt::createSolverBackend(M.Backend, nullptr);
      smt::SmtSolver &Solver = *SolverPtr;
      LatencyRecorder Recorder(Solver);
      CheckOptions O;
      O.Solver = &Recorder;
      O.UseIncremental = M.Incremental;
      O.GoalBatch = M.GoalBatch;
      CheckResult Res =
          checkLanguageEquivalence(Study.L, Study.QL, Study.R, Study.QR, O);
      (void)Res;
      std::vector<uint64_t> &Micros = Recorder.Micros;
      std::sort(Micros.begin(), Micros.end());
      bool Incremental =
          M.Incremental && !*M.Backend && M.GoalBatch == 1;
      if (Incremental)
        All.insert(All.end(), Micros.begin(), Micros.end());
      double N = double(std::max<uint64_t>(Solver.stats().Queries, 1));
      const char *Mode = M.Name;
      std::printf(
          "%-26s %-12s %8zu %8zu %8zu %8zu %8zu %8zu %5.1f%% %5.1f%%\n",
          Study.Name, Mode, size_t(Solver.stats().Queries),
          size_t(Micros.empty() ? 0 : Micros.front()),
          size_t(percentile(Micros, 0.50)),
          size_t(percentile(Micros, 0.90)),
          size_t(percentile(Micros, 0.99)),
          size_t(Micros.empty() ? 0 : Micros.back()),
          100.0 * double(Solver.stats().SatAnswers) / N,
          100.0 * double(Solver.stats().UnsatAnswers) / N);
      Json.push_back(JsonRecord{
          Study.Name, Mode, Solver.stats().Queries,
          percentile(Micros, 0.50), percentile(Micros, 0.99),
          Micros.empty() ? 0 : Micros.back(), Solver.stats().TotalMicros,
          Solver.stats().SessionPremises, Solver.stats().PremiseCacheHits,
          Solver.stats().ReusedClauses, Solver.stats().PeakLearnts,
          Solver.stats().ArenaBytesPeak, Solver.stats().ClausesDeleted,
          Solver.stats().ReduceDbRuns, Solver.stats().SessionRestarts,
          Solver.stats().RoundTrips, Solver.stats().OnSat,
          Solver.stats().OnUnsat});
      if (M.GoalBatch > 1) {
        // The batching economics line: logical queries vs physical
        // round-trips under --goal-batch (see docs/SOLVERS.md).
        std::printf("%-26s %-12s round-trips=%zu/%zu queries "
                    "(goal-batch %zu)\n",
                    "", "", size_t(Solver.stats().RoundTrips),
                    size_t(Solver.stats().Queries), M.GoalBatch);
      }
      if (*M.Backend) {
        // The external A/B line: how much of the mode's wall went to the
        // external process vs in-repo fallbacks, and — in crosscheck —
        // the agreement count (§6.3's solver comparison, measured).
        auto *Ext = dynamic_cast<smt::SmtLibSolver *>(&Solver);
        auto *Cross = dynamic_cast<smt::CrossCheckSolver *>(&Solver);
        if (Cross)
          Ext = dynamic_cast<smt::SmtLibSolver *>(&Cross->external());
        if (Ext)
          std::printf("%-26s %-12s external=%zu fallback=%zu timeouts=%zu "
                      "spawns=%zu wall=%.1fms\n",
                      "", "", size_t(Ext->extStats().ExternalQueries),
                      size_t(Ext->extStats().FallbackQueries),
                      size_t(Ext->extStats().Timeouts),
                      size_t(Ext->extStats().Spawns),
                      double(Res.Stats.WallMicros) / 1e3);
        if (Cross)
          std::printf("%-26s %-12s crosscheck: %zu compared, %zu "
                      "divergences\n",
                      "", "", size_t(Cross->crossStats().Checked),
                      size_t(Cross->crossStats().Divergences));
      }
      if (Incremental) {
        std::printf("%-26s %-12s premises=%zu cache-hits=%zu "
                    "reused-clauses=%zu sessions=%zu\n",
                    "", "", size_t(Solver.stats().SessionPremises),
                    size_t(Solver.stats().PremiseCacheHits),
                    size_t(Solver.stats().ReusedClauses),
                    size_t(Solver.stats().SessionsOpened));
        std::printf("%-26s %-12s peak-learnts=%zu arena-peak=%.1fKB "
                    "deleted=%zu reduce-runs=%zu restarts=%zu\n",
                    "", "", size_t(Solver.stats().PeakLearnts),
                    double(Solver.stats().ArenaBytesPeak) / 1024.0,
                    size_t(Solver.stats().ClausesDeleted),
                    size_t(Solver.stats().ReduceDbRuns),
                    size_t(Solver.stats().SessionRestarts));
        const smt::SolverStats::SatWork &W = Solver.stats().OnSat;
        double Solves = double(std::max<uint64_t>(W.Solves, 1));
        std::printf("%-26s %-12s sat-solves=%zu decisions/sat=%.1f "
                    "propagations/sat=%.1f conflicts/sat=%.2f\n",
                    "", "", size_t(W.Solves), double(W.Decisions) / Solves,
                    double(W.Propagations) / Solves,
                    double(W.Conflicts) / Solves);
      }
    }
  }

  std::sort(All.begin(), All.end());
  std::printf("%-26s %-12s %8zu %8zu %8zu %8zu %8zu %8zu\n", "ALL",
              "incremental", All.size(),
              size_t(All.empty() ? 0 : All.front()),
              size_t(percentile(All, 0.50)), size_t(percentile(All, 0.90)),
              size_t(percentile(All, 0.99)),
              size_t(All.empty() ? 0 : All.back()));
  if (!All.empty())
    std::printf("\npaper shape check: p99/max = %.2f (paper: 5s/10s "
                "= 0.50; heavily skewed either way)\n",
                double(percentile(All, 0.99)) / double(All.back()));
  if (Smoke) {
    if (JsonPath)
      writeJson(JsonPath, Json);
    return 0;
  }

  // Proof-reconstruction overhead (the §6.4 future-work item, implemented
  // here as DRUP logging + independent replay): rerun each study with a
  // certifying solver and report the cost of removing the solver from the
  // trusted base.
  std::printf("\nDRUP certification overhead (every UNSAT answer proved "
              "and replayed):\n");
  std::printf("%-26s %8s %9s %10s %10s %9s\n", "Study", "unsat", "lemmas",
              "solve(us)", "proof(us)", "overhead");
  for (auto &Study : Studies) {
    smt::BitBlastSolver Plain, Certifying;
    Certifying.CertifyUnsat = true;
    CheckOptions O;
    O.Solver = &Plain;
    (void)checkLanguageEquivalence(Study.L, Study.QL, Study.R, Study.QR, O);
    O.Solver = &Certifying;
    CheckResult Res =
        checkLanguageEquivalence(Study.L, Study.QL, Study.R, Study.QR, O);
    if (!Res.equivalent())
      std::printf("%-26s (unexpected verdict)\n", Study.Name);
    const smt::SolverStats &S = Certifying.stats();
    std::printf("%-26s %8zu %9zu %10zu %10zu %8.1f%%\n", Study.Name,
                size_t(S.CertifiedUnsat), size_t(S.ProofLemmas),
                size_t(Plain.stats().TotalMicros), size_t(S.ProofMicros),
                100.0 * double(S.ProofMicros) /
                    double(std::max<uint64_t>(Plain.stats().TotalMicros,
                                              1)));
  }

  // One live query exported through the SMT-LIB printer (Figure 6's
  // plugin path), so external solvers can cross-check when available.
  {
    p4a::Automaton L = parsers::mplsReference();
    p4a::Automaton R = parsers::mplsVectorized();
    logic::TemplatePair TP{
        logic::Template{p4a::StateRef::normal(*L.findState("q2")), 0},
        logic::Template{p4a::StateRef::normal(*R.findState("q5")), 0}};
    auto U = logic::BitExpr::mkHdr(logic::Side::Left, *L.findHeader("udp"));
    auto V = logic::BitExpr::mkHdr(logic::Side::Right, *R.findHeader("udp"));
    smt::BvFormulaRef Q =
        logic::lowerPure(L, R, TP, logic::Pure::mkEq(U, V));
    std::printf("\nsample SMT-LIB export of a lowered query:\n%s",
                smt::toSmtLibScript(Q).c_str());
  }
  if (JsonPath)
    writeJson(JsonPath, Json);
  return 0;
}
