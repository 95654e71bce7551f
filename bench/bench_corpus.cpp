//===- bench_corpus.cpp - Textual corpus timing ---------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Times the full textual pipeline — parse .lfp, elaborate, decide — over
// every pair in examples/corpus/: the ten registry twins (corpus-gen's
// output for Table 2's studies) and the four hand-written protocol
// studies, each as its equivalent (base, opt) and refuted (base, bug)
// pair. The point of the table: front-end cost (parse + elaborate) is
// microseconds against checker seconds, i.e. the textual front-end is
// free, and the corpus studies are small enough to gate in CI.
//
//   bench_corpus [corpus-dir]
//
// corpus-dir defaults to examples/corpus (run from the repo root). The
// big Applicability self-pairs get the same iteration budget treatment
// as bench_table2 — DNF there mirrors the paper's own resource story.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "frontend/Elaborate.h"
#include "frontend/Text.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace leapfrog;
using Clock = std::chrono::steady_clock;

namespace {

uint64_t microsSince(Clock::time_point Start) {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - Start)
                      .count());
}

struct LoadedSide {
  frontend::ElaborationResult Elab;
  uint64_t ParseMicros = 0;
  uint64_t ElabMicros = 0;
  bool Ok = false;
};

LoadedSide loadSide(const std::string &Path) {
  LoadedSide Out;
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "bench_corpus: cannot read '%s'\n", Path.c_str());
    return Out;
  }
  std::ostringstream Ss;
  Ss << In.rdbuf();

  Clock::time_point T0 = Clock::now();
  frontend::TextParseResult Parsed = frontend::parseSurface(Ss.str());
  Out.ParseMicros = microsSince(T0);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "bench_corpus: '%s' has parse errors\n",
                 Path.c_str());
    return Out;
  }
  T0 = Clock::now();
  Out.Elab = frontend::elaborate(Parsed.Program);
  Out.ElabMicros = microsSince(T0);
  if (!Out.Elab.ok()) {
    std::fprintf(stderr, "bench_corpus: '%s' does not elaborate\n",
                 Path.c_str());
    return Out;
  }
  Out.Ok = true;
  return Out;
}

struct PairSpec {
  const char *Label;
  const char *LeftFile;
  const char *RightFile;
  const char *Expect; ///< "equivalent", "refuted", or "either" (budgeted).
};

} // namespace

int main(int Argc, char **Argv) {
  std::string Dir = "examples/corpus";
  for (int I = 1; I < Argc; ++I) {
    if (Argv[I][0] != '-') {
      Dir = Argv[I];
    } else {
      std::fprintf(stderr, "usage: %s [corpus-dir]\n", Argv[0]);
      return 2;
    }
  }

  // The registry twins, named as corpus-gen writes them, then the
  // hand-written protocol studies. "either" marks the Applicability
  // self-pairs whose convergence needs bench_table2-scale budgets.
  const std::vector<PairSpec> Pairs = {
      {"state_rearrangement", "state_rearrangement_left.lfp",
       "state_rearrangement_right.lfp", "equivalent"},
      {"variable_length_parsing", "variable_length_parsing_left.lfp",
       "variable_length_parsing_right.lfp", "equivalent"},
      {"header_initialization", "header_initialization_left.lfp",
       "header_initialization_right.lfp", "equivalent"},
      {"speculative_loop", "speculative_loop_left.lfp",
       "speculative_loop_right.lfp", "equivalent"},
      {"relational_verification", "relational_verification_left.lfp",
       "relational_verification_right.lfp", "either"},
      {"external_filtering", "external_filtering_left.lfp",
       "external_filtering_right.lfp", "either"},
      {"edge", "edge_left.lfp", "edge_right.lfp", "either"},
      {"service_provider", "service_provider_left.lfp",
       "service_provider_right.lfp", "either"},
      {"datacenter", "datacenter_left.lfp", "datacenter_right.lfp",
       "either"},
      {"enterprise", "enterprise_left.lfp", "enterprise_right.lfp",
       "either"},
      {"ipv6_chain vs opt", "ipv6_chain.lfp", "ipv6_chain_opt.lfp",
       "equivalent"},
      {"ipv6_chain vs bug", "ipv6_chain.lfp", "ipv6_chain_bug.lfp",
       "refuted"},
      {"vlan_qinq vs opt", "vlan_qinq.lfp", "vlan_qinq_opt.lfp",
       "equivalent"},
      {"vlan_qinq vs bug", "vlan_qinq.lfp", "vlan_qinq_bug.lfp", "refuted"},
      {"tunnel vs opt", "tunnel.lfp", "tunnel_opt.lfp", "equivalent"},
      {"tunnel vs bug", "tunnel.lfp", "tunnel_bug.lfp", "refuted"},
      {"quic_varint vs opt", "quic_varint.lfp", "quic_varint_opt.lfp",
       "equivalent"},
      {"quic_varint vs bug", "quic_varint.lfp", "quic_varint_bug.lfp",
       "refuted"},
  };
  // Note: relational_verification and external_filtering twins compare
  // under the *plain* language-equivalence spec here (the CLI's spec),
  // not the qualified/custom §7.1 specs bench_table2 uses — so their
  // verdicts may differ from Table 2 and they run under "either".

  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("Textual corpus pipeline timings (dir: %s)\n\n", Dir.c_str());
  std::printf("%-26s %10s %10s %9s %9s %10s %s\n", "Pair", "Parse(us)",
              "Elab(us)", "Iters", "Queries", "Check(s)", "Verdict");
  std::printf("%s\n", std::string(92, '-').c_str());

  bool AllAsExpected = true;
  for (const PairSpec &P : Pairs) {
    LoadedSide L = loadSide(Dir + "/" + P.LeftFile);
    LoadedSide R = loadSide(Dir + "/" + P.RightFile);
    if (!L.Ok || !R.Ok) {
      AllAsExpected = false;
      continue;
    }
    core::CheckOptions O;
    bool Budgeted = !std::strcmp(P.Expect, "either");
    O.MaxIterations = Budgeted ? 20000 : (1u << 20);
    O.MaxWallMicros = Budgeted ? 120u * 1000u * 1000u : 0;
    core::CheckResult Res = core::checkLanguageEquivalence(
        L.Elab.Aut,
        p4a::StateRef::normal(*L.Elab.Aut.findState(L.Elab.Entry)),
        R.Elab.Aut,
        p4a::StateRef::normal(*R.Elab.Aut.findState(R.Elab.Entry)), O);

    const char *Verdict = Res.V == core::Verdict::Equivalent
                              ? "equivalent"
                              : (Res.V == core::Verdict::NotEquivalent
                                     ? "NOT equivalent"
                                     : "DNF (budget)");
    bool AsExpected =
        Budgeted ||
        (!std::strcmp(P.Expect, "equivalent")
             ? Res.V == core::Verdict::Equivalent
             : Res.V == core::Verdict::NotEquivalent);
    AllAsExpected &= AsExpected;
    std::printf("%-26s %10zu %10zu %9zu %9zu %10.3f %s%s\n", P.Label,
                size_t(L.ParseMicros + R.ParseMicros),
                size_t(L.ElabMicros + R.ElabMicros), Res.Stats.Iterations,
                Res.Stats.SmtQueries,
                double(Res.Stats.WallMicros) / 1e6, Verdict,
                AsExpected ? "" : "  ** UNEXPECTED **");
  }

  std::printf("\n%s\n", AllAsExpected
                            ? "all verdicts as documented"
                            : "** some verdicts deviated from the corpus "
                              "documentation **");
  return AllAsExpected ? 0 : 1;
}
