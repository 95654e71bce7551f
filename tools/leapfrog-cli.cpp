//===- leapfrog-cli.cpp - Command-line equivalence checker -----------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The push-button interface the paper's §7.3 envisions for downstream users
// ("parser equivalence proofs in Leapfrog are fully automatic and
// push-button"): point the tool at two parsers in the textual DSL and it
// decides language equivalence, optionally replaying the certificate and
// certifying every solver answer with DRUP proofs.
//
//   leapfrog-cli left.p4a q1 right.p4a q3 [options]
//   leapfrog-cli --file left.lfp right.lfp [options]
//
// The --file form takes two surface-syntax parsers (docs/FRONTEND.md):
// each file's `entry` declaration names the start state, and the programs
// are elaborated (subparser inlining, stack unrolling, lookahead
// lowering) before the same checker runs. Every option works identically
// in both forms.
//
// Structurally, the tool is a one-shot client of the same API the
// long-running service (leapfrog-serve) uses: build a core::CheckRequest,
// run it through a core::Engine. The --file path in particular is
// byte-for-byte the service's request path — checkRequestFromSurface —
// so a pair that checks here answers identically over the wire.
//
// Exit codes: 0 equivalent, 1 not equivalent, 2 resource limit, 3 usage or
// input error (including an unresolvable --backend spec).
//
//===----------------------------------------------------------------------===//

#include "core/CertificateIo.h"
#include "core/Engine.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "p4a/Parser.h"
#include "serve/Json.h"
#include "smt/SmtLibSolver.h"
#include "smt/Solver.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace leapfrog;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: leapfrog-cli <left.p4a> <left-state> <right.p4a> "
      "<right-state> [options]\n"
      "       leapfrog-cli --file <left.lfp> <right.lfp> [options]\n"
      "\n"
      "Decides whether the two start states accept the same packets for\n"
      "every initial store (paper §4), printing the verdict and search\n"
      "statistics. With --file, both parsers are written in the surface\n"
      "syntax (docs/FRONTEND.md) — header stacks, subparser calls and\n"
      "lookahead included — and each file's `entry` declaration names\n"
      "the start state; the programs are elaborated to plain automata\n"
      "before the same checker runs.\n"
      "\n"
      "search options:\n"
      "  --no-leaps         disable multi-step weakest preconditions "
      "(§5.2)\n"
      "  --no-reach         disable template reachability pruning (§5.1)\n"
      "  --replay           re-validate the equivalence certificate after\n"
      "                     the search (independent of the search code)\n"
      "  --goal-batch N     share one solver round-trip across up to N\n"
      "                     same-guard entailment goals (default 1 =\n"
      "                     one query per goal). Answers are identical;\n"
      "                     only the round-trip count drops — see the\n"
      "                     round_trips stat and docs/SOLVERS.md\n"
      "\n"
      "backend options (see docs/SOLVERS.md):\n"
      "  --backend SPEC     solver backend: 'bitblast' (in-repo, the\n"
      "                     default), 'smtlib:CMD' (external SMT-LIB2\n"
      "                     process, e.g. 'smtlib:z3 -in'), or\n"
      "                     'crosscheck[:CMD]' (run both, abort on any\n"
      "                     sat/unsat divergence; CMD defaults to\n"
      "                     'z3 -in'), or 'portfolio:LEG,LEG[,...]'\n"
      "                     (race the legs per query, first answer wins,\n"
      "                     losers cancelled; e.g.\n"
      "                     'portfolio:bitblast,smtlib:z3 -in').\n"
      "                     --backend=SPEC also accepted. An\n"
      "                     unrecognized SPEC is a usage error (exit 3);\n"
      "                     a parseable SPEC whose binary is missing or\n"
      "                     failing degrades to bitblast per query, with\n"
      "                     a warning; external sat answers are\n"
      "                     model-validated, external unsat answers are\n"
      "                     trusted unless crosscheck is used (see the\n"
      "                     docs)\n"
      "  --ext-timeout N    per-reply deadline for the external solver,\n"
      "                     seconds (default 60); on expiry the process\n"
      "                     is killed and the query answered in-repo\n"
      "  --certify-smt      require a DRUP proof for every UNSAT solver\n"
      "                     answer, checked in-process before the answer\n"
      "                     is used by the checker leapfrog-certcheck\n"
      "                     runs; combines with --emit-cert, whose\n"
      "                     streams are then the ones checked.\n"
      "                     With an smtlib backend the run is promoted to\n"
      "                     crosscheck so the in-repo reference leg\n"
      "                     produces the proofs the external solver\n"
      "                     cannot\n"
      "\n"
      "budget options:\n"
      "  --max-iterations N worklist budget (default 1048576)\n"
      "  --max-seconds N    wall-clock budget (default unlimited)\n"
      "\n"
      "memory options (per incremental solver session):\n"
      "  --max-learnts N    peak learned-clause bound; over it the\n"
      "                     session restarts from its premises\n"
      "  --max-arena-mb N   peak clause-arena bound (MB)\n"
      "\n"
      "output options:\n"
      "  --print            echo both parsers back (parsed form)\n"
      "  --dump-cert        print the certificate (the conjuncts of the\n"
      "                     symbolic bisimulation) on success\n"
      "  --emit-cert FILE   run with proof capture and write a complete\n"
      "                     LFCERT certificate (relation + per-goal DRUP\n"
      "                     slices, pinned to the pair fingerprint) to\n"
      "                     FILE on an equivalent verdict; verify it with\n"
      "                     leapfrog-certcheck, which shares no code with\n"
      "                     the checker ('-' writes to stdout)\n"
      "  --trace            print every Skip/Extend step of the search\n"
      "                     (the paper's Figure 4 derivation)\n"
      "  --json             print one machine-readable JSON object on\n"
      "                     stdout (verdict, exit code, stats, metrics\n"
      "                     snapshot) instead of the human-format block;\n"
      "                     the exit code is unchanged\n"
      "  --trace-out FILE   record a Chrome/Perfetto trace_event timeline\n"
      "                     of the run (checker phases, solver queries)\n"
      "                     and write it to FILE; open it at\n"
      "                     https://ui.perfetto.dev or summarize it\n"
      "                     with leapfrog-trace. Purely observational:\n"
      "                     verdict, stats and certificate bytes are\n"
      "                     identical with or without it\n"
      "  --quiet            verdict only\n");
}

bool readFile(const char *Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  Out = Ss.str();
  return true;
}

/// The classic .p4a path: parse the core DSL, resolve the named state.
bool loadP4a(const char *Path, const char *StateName, p4a::Automaton &Aut,
             p4a::StateRef &Start) {
  std::string Source;
  if (!readFile(Path, Source)) {
    std::fprintf(stderr, "leapfrog-cli: cannot read '%s'\n", Path);
    return false;
  }
  p4a::ParseResult Parsed = p4a::parseAutomaton(Source);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "leapfrog-cli: errors in '%s':\n", Path);
    for (const std::string &E : Parsed.Errors)
      std::fprintf(stderr, "  %s\n", E.c_str());
    return false;
  }
  Aut = std::move(Parsed.Aut);
  auto Id = Aut.findState(StateName);
  if (!Id) {
    std::fprintf(stderr, "leapfrog-cli: '%s' has no state named '%s'\n",
                 Path, StateName);
    return false;
  }
  Start = p4a::StateRef::normal(*Id);
  return true;
}

const char *verdictName(core::Verdict V) {
  switch (V) {
  case core::Verdict::Equivalent:
    return "equivalent";
  case core::Verdict::NotEquivalent:
    return "not_equivalent";
  case core::Verdict::ResourceLimit:
    return "resource_limit";
  case core::Verdict::BadRequest:
    return "bad_request";
  }
  return "bad_request";
}

/// The --json result block: verdict + exit code, the full CheckStats
/// (field names match the serve protocol's stats object, so a script can
/// consume either source with one decoder), the metrics-registry
/// snapshot, and the replay outcome when --replay ran.
std::string resultJson(const core::CheckResult &Res, int ExitCode,
                       bool ReplayRan, bool ReplayValid,
                       size_t ReplayObligations,
                       const std::string &ReplayFailure) {
  serve::Json J = serve::Json::object();
  J.set("verdict", serve::Json::str(verdictName(Res.V)));
  J.set("exit_code", serve::Json::integer(ExitCode));
  if (!Res.FailureReason.empty())
    J.set("failure_reason", serve::Json::str(Res.FailureReason));

  const core::CheckStats &S = Res.Stats;
  serve::Json Stats = serve::Json::object();
  Stats.set("iterations", serve::Json::unsignedInt(S.Iterations));
  Stats.set("extends", serve::Json::unsignedInt(S.Extends));
  Stats.set("skips", serve::Json::unsignedInt(S.Skips));
  Stats.set("smt_queries", serve::Json::unsignedInt(S.SmtQueries));
  Stats.set("reach_pairs", serve::Json::unsignedInt(S.ReachPairs));
  Stats.set("templates_left", serve::Json::unsignedInt(S.TemplatesLeft));
  Stats.set("templates_right", serve::Json::unsignedInt(S.TemplatesRight));
  Stats.set("final_conjuncts", serve::Json::unsignedInt(S.FinalConjuncts));
  Stats.set("peak_frontier", serve::Json::unsignedInt(S.PeakFrontier));
  Stats.set("formula_nodes", serve::Json::unsignedInt(S.FormulaNodes));
  Stats.set("wall_micros", serve::Json::unsignedInt(S.WallMicros));
  Stats.set("solver_micros", serve::Json::unsignedInt(S.SolverMicros));
  J.set("stats", Stats);

  serve::Json Metrics;
  std::string SnapErr;
  if (serve::Json::parse(obs::metrics().snapshot().toJson(), Metrics,
                         &SnapErr))
    J.set("metrics", Metrics);

  if (ReplayRan) {
    serve::Json R = serve::Json::object();
    R.set("valid", serve::Json::boolean(ReplayValid));
    R.set("obligations", serve::Json::unsignedInt(ReplayObligations));
    if (!ReplayValid)
      R.set("failure_reason", serve::Json::str(ReplayFailure));
    J.set("replay", R);
  }
  return J.serialize();
}

} // namespace

int main(int Argc, char **Argv) {
  const bool FileMode = Argc >= 2 && !std::strcmp(Argv[1], "--file");
  if (FileMode ? Argc < 4 : Argc < 5) {
    usage();
    return 3;
  }
  const char *LeftPath = FileMode ? Argv[2] : Argv[1];
  const char *RightPath = FileMode ? Argv[3] : Argv[3];

  core::CheckOptions Options;
  bool Replay = false, Print = false, Quiet = false, DumpCert = false;
  bool CertifySmt = false;
  bool JsonOut = false;
  const char *EmitCertPath = nullptr;
  const char *TraceOutPath = nullptr;
  core::EngineConfig EngineCfg; // Backend spec: engine-level.
  int ExtTimeoutSec = 0;
  for (int I = FileMode ? 4 : 5; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (!std::strcmp(Arg, "--no-leaps")) {
      Options.UseLeaps = false;
    } else if (!std::strcmp(Arg, "--no-reach")) {
      Options.UseReachability = false;
    } else if (!std::strcmp(Arg, "--certify-smt")) {
      CertifySmt = true;
    } else if (!std::strcmp(Arg, "--backend") && I + 1 < Argc) {
      EngineCfg.Backend = Argv[++I];
    } else if (!std::strncmp(Arg, "--backend=", 10)) {
      EngineCfg.Backend = Arg + 10;
    } else if (!std::strcmp(Arg, "--ext-timeout") && I + 1 < Argc) {
      char *End = nullptr;
      long Val = std::strtol(Argv[++I], &End, 10);
      // Strict: a deadline the user typed must apply or the run must not
      // start. 86400 s also keeps the ms conversion far from overflow.
      if (!End || *End != '\0' || Val < 1 || Val > 86400) {
        std::fprintf(stderr,
                     "leapfrog-cli: --ext-timeout needs a whole number of "
                     "seconds in [1, 86400], got '%s'\n",
                     Argv[I]);
        return 3;
      }
      ExtTimeoutSec = int(Val);
    } else if (!std::strcmp(Arg, "--replay")) {
      Replay = true;
    } else if (!std::strcmp(Arg, "--print")) {
      Print = true;
    } else if (!std::strcmp(Arg, "--dump-cert")) {
      DumpCert = true;
    } else if (!std::strcmp(Arg, "--emit-cert") && I + 1 < Argc) {
      EmitCertPath = Argv[++I];
      Options.Certify = true;
    } else if (!std::strcmp(Arg, "--trace")) {
      Options.RecordTrace = true;
    } else if (!std::strcmp(Arg, "--json")) {
      JsonOut = true;
    } else if (!std::strcmp(Arg, "--trace-out") && I + 1 < Argc) {
      TraceOutPath = Argv[++I];
    } else if (!std::strcmp(Arg, "--quiet")) {
      Quiet = true;
    } else if (!std::strcmp(Arg, "--max-iterations") && I + 1 < Argc) {
      Options.MaxIterations = size_t(std::strtoull(Argv[++I], nullptr, 10));
    } else if (!std::strcmp(Arg, "--max-seconds") && I + 1 < Argc) {
      Options.MaxWallMicros =
          uint64_t(std::strtoull(Argv[++I], nullptr, 10)) * 1000000u;
    } else if (!std::strcmp(Arg, "--max-learnts") && I + 1 < Argc) {
      Options.Limits.MaxLearnts =
          size_t(std::strtoull(Argv[++I], nullptr, 10));
    } else if (!std::strcmp(Arg, "--max-arena-mb") && I + 1 < Argc) {
      Options.Limits.MaxArenaBytes =
          size_t(std::strtoull(Argv[++I], nullptr, 10)) * 1024u * 1024u;
    } else if (!std::strcmp(Arg, "--goal-batch") && I + 1 < Argc) {
      Options.GoalBatch = size_t(std::strtoull(Argv[++I], nullptr, 10));
      if (Options.GoalBatch < 1)
        Options.GoalBatch = 1;
    } else {
      std::fprintf(stderr, "leapfrog-cli: unknown option '%s'\n", Arg);
      usage();
      return 3;
    }
  }

  // DRUP certification needs the in-repo solver in the loop: a bare
  // external backend is promoted to the cross-checking pair, whose
  // reference leg produces (and checks) the proofs.
  if (CertifySmt && !EngineCfg.Backend.compare(0, 7, "smtlib:"))
    EngineCfg.Backend = "crosscheck:" + EngineCfg.Backend.substr(7);
  EngineCfg.Certify = Options.Certify;

  // Resolve the backend once, through the engine. A typo in the spec is
  // a usage error here (exit 3), never a silent bitblast run — the same
  // structured rejection leapfrog-serve hands its clients.
  std::string EngineErr;
  std::unique_ptr<core::Engine> Engine =
      core::Engine::create(EngineCfg, &EngineErr);
  if (!Engine) {
    std::fprintf(stderr, "leapfrog-cli: %s\n", EngineErr.c_str());
    usage();
    return 3;
  }
  smt::SmtSolver *Solver = &Engine->solver();
  auto *BitBlast = dynamic_cast<smt::BitBlastSolver *>(Solver);
  auto *External = dynamic_cast<smt::SmtLibSolver *>(Solver);
  auto *Cross = dynamic_cast<smt::CrossCheckSolver *>(Solver);
  if (Cross) {
    External = dynamic_cast<smt::SmtLibSolver *>(&Cross->external());
    if (!BitBlast)
      BitBlast = dynamic_cast<smt::BitBlastSolver *>(&Cross->reference());
  }
  if (CertifySmt) {
    if (!BitBlast) {
      // Unreachable through the spec grammar (every crosscheck reference
      // leg is bitblast), but a caller-supplied exotic backend should
      // fail loudly rather than run uncertified.
      std::fprintf(stderr,
                   "leapfrog-cli: --certify-smt found no in-repo solver to "
                   "produce DRUP proofs\n");
      return 3;
    }
    BitBlast->CertifyUnsat = true;
  }
  if (ExtTimeoutSec > 0) {
    if (!External) {
      std::fprintf(stderr, "leapfrog-cli: --ext-timeout needs an external "
                           "backend (--backend smtlib:... or "
                           "crosscheck...)\n");
      return 3;
    }
    External->config().QueryTimeoutMs = ExtTimeoutSec * 1000;
  }

  // Build the request. The --file path is the exact front door
  // leapfrog-serve uses for wire requests (checkRequestFromSurface);
  // the .p4a path assembles the same request struct from the core DSL.
  core::CheckRequest Req;
  if (FileMode) {
    std::string LeftText, RightText;
    if (!readFile(LeftPath, LeftText)) {
      std::fprintf(stderr, "leapfrog-cli: cannot read '%s'\n", LeftPath);
      return 3;
    }
    if (!readFile(RightPath, RightText)) {
      std::fprintf(stderr, "leapfrog-cli: cannot read '%s'\n", RightPath);
      return 3;
    }
    std::vector<std::string> Errors;
    if (!core::checkRequestFromSurface(LeftText, RightText, Options, Req,
                                       Errors, LeftPath, RightPath)) {
      std::fprintf(stderr, "leapfrog-cli: input rejected:\n");
      for (const std::string &E : Errors)
        std::fprintf(stderr, "  %s\n", E.c_str());
      return 3;
    }
  } else {
    p4a::Automaton Left, Right;
    p4a::StateRef LeftStart = p4a::StateRef::reject();
    p4a::StateRef RightStart = p4a::StateRef::reject();
    if (!loadP4a(LeftPath, Argv[2], Left, LeftStart) ||
        !loadP4a(RightPath, Argv[4], Right, RightStart))
      return 3;
    Req = core::makeLanguageEquivalenceRequest(
        std::move(Left), LeftStart, std::move(Right), RightStart, Options);
  }

  if (Print) {
    // In file mode this echoes the *elaborated* automata — the parsers
    // the checker actually compares, with stacks, calls and lookahead
    // compiled away.
    std::printf("-- %s --\n%s\n-- %s --\n%s\n", LeftPath,
                Req.Left.print().c_str(), RightPath,
                Req.Right.print().c_str());
  }

  // Tracing is installed just around the check (and the optional replay
  // below): the timeline answers "where did this run spend its time",
  // not "what did main() do". Decisions are unaffected — the sink only
  // records.
  std::unique_ptr<obs::TraceSink> Trace;
  if (TraceOutPath) {
    Trace = std::make_unique<obs::TraceSink>();
    obs::setTraceSink(Trace.get());
    obs::nameCurrentThread("main");
  }

  core::CheckResult Res = Engine->check(Req);

  if (Options.RecordTrace) {
    for (const core::TraceStep &T : Res.Trace) {
      const char *Kind = T.K == core::TraceStep::Kind::Skip ? "skip"
                         : T.K == core::TraceStep::Kind::Extend
                             ? "extend"
                             : "done";
      std::printf("%-6s %s\n", Kind,
                  T.Psi.str(Req.Left, Req.Right).c_str());
    }
  }
  if (DumpCert && Res.V == core::Verdict::Equivalent)
    std::printf("%s", Res.Certificate.str(Req.Left, Req.Right).c_str());

  if (EmitCertPath && Res.V == core::Verdict::Equivalent) {
    std::string CertText = core::serializeCertificate(
        Req.Left, Req.Right, Res.Certificate, Res.Proof.get(),
        core::requestFingerprint(Req).hex());
    if (!std::strcmp(EmitCertPath, "-")) {
      std::fwrite(CertText.data(), 1, CertText.size(), stdout);
    } else {
      std::ofstream CertOut(EmitCertPath,
                            std::ios::binary | std::ios::trunc);
      CertOut.write(CertText.data(), std::streamsize(CertText.size()));
      if (!CertOut) {
        std::fprintf(stderr, "leapfrog-cli: cannot write '%s'\n",
                     EmitCertPath);
        return 3;
      }
      if (!Quiet)
        std::printf("  certificate: %s (%zu bytes, %zu proof streams)\n",
                    EmitCertPath, CertText.size(),
                    Res.Proof ? Res.Proof->streamCount() : size_t(0));
    }
  }

  if (!JsonOut) {
    switch (Res.V) {
    case core::Verdict::Equivalent:
      std::printf("EQUIVALENT\n");
      break;
    case core::Verdict::NotEquivalent:
      std::printf("NOT EQUIVALENT\n");
      if (!Quiet)
        std::printf("  %s\n", Res.FailureReason.c_str());
      break;
    case core::Verdict::ResourceLimit:
      std::printf("RESOURCE LIMIT\n");
      if (!Quiet)
        std::printf("  %s\n", Res.FailureReason.c_str());
      break;
    case core::Verdict::BadRequest:
      std::printf("BAD REQUEST\n");
      if (!Quiet)
        std::printf("  %s\n", Res.FailureReason.c_str());
      break;
    }
  }

  if (!Quiet && !JsonOut) {
    std::printf(
        "  iterations %zu, conjuncts %zu, SMT queries %zu (%zu certified "
        "UNSAT, %zu solver round-trips), %.2f s\n",
        Res.Stats.Iterations, Res.Stats.FinalConjuncts,
        Res.Stats.SmtQueries,
        // DRUP certification lives in the in-repo solver; behind
        // crosscheck that is the reference leg, not the facade.
        size_t((BitBlast ? BitBlast->stats() : Solver->stats())
                   .CertifiedUnsat),
        size_t(Solver->stats().RoundTrips),
        double(Res.Stats.WallMicros) / 1e6);
    if (External) {
      const smt::SmtLibSolver::ExtStats &E = External->extStats();
      std::printf("  external solver '%s': %zu queries answered "
                  "externally, %zu in-repo fallbacks (%zu timeouts, %zu "
                  "EOFs, %zu protocol errors), %zu process spawns\n",
                  External->config().Argv.empty()
                      ? "<none>"
                      : External->config().Argv[0].c_str(),
                  size_t(E.ExternalQueries), size_t(E.FallbackQueries),
                  size_t(E.Timeouts), size_t(E.Eofs),
                  size_t(E.ProtocolErrors), size_t(E.Spawns));
    }
    if (Cross)
      std::printf("  cross-check: %zu queries compared, %zu divergences\n",
                  size_t(Cross->crossStats().Checked),
                  size_t(Cross->crossStats().Divergences));
  }

  bool ReplayRan = false, ReplayValid = true;
  size_t ReplayObligations = 0;
  std::string ReplayFailure;
  if (Replay && Res.V == core::Verdict::Equivalent) {
    core::ReplayResult R = core::replayCertificate(
        Req.Left, Req.Right, Res.Certificate, Solver);
    ReplayRan = true;
    ReplayValid = R.Valid;
    ReplayObligations = R.ObligationsChecked;
    ReplayFailure = R.FailureReason;
    if (!Quiet && !JsonOut)
      std::printf("  certificate replay: %s (%zu obligations)\n",
                  R.Valid ? "valid" : R.FailureReason.c_str(),
                  R.ObligationsChecked);
  }

  if (Trace) {
    obs::setTraceSink(nullptr);
    std::string TraceErr;
    if (!Trace->writeChromeJson(TraceOutPath, &TraceErr)) {
      std::fprintf(stderr, "leapfrog-cli: %s\n", TraceErr.c_str());
      return 3;
    }
  }

  int ExitCode = 2;
  switch (Res.V) {
  case core::Verdict::Equivalent:
    ExitCode = 0;
    break;
  case core::Verdict::NotEquivalent:
    ExitCode = 1;
    break;
  case core::Verdict::ResourceLimit:
    ExitCode = 2;
    break;
  case core::Verdict::BadRequest:
    ExitCode = 3;
    break;
  }
  if (!ReplayValid)
    ExitCode = 2;

  if (JsonOut)
    std::printf("%s\n",
                resultJson(Res, ExitCode, ReplayRan, ReplayValid,
                           ReplayObligations, ReplayFailure)
                    .c_str());

  return ExitCode;
}
