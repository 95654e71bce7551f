//===- bench_serve.cpp - Warm-service cache benchmark and CI smoke --------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The economics the service exists for, measured: replay the full textual
// corpus against a warm CheckService — one cold pass that computes every
// pair, one warm pass that must answer every pair from the cache — and
// report per-pair cold-check vs cache-hit latency. The run FAILS (exit 1)
// unless every warm answer is a cache hit with verdict and statistics
// bit-identical to the cold record, and the aggregate speedup clears 100x.
//
//   bench_serve [corpus-dir] [--json FILE]
//   bench_serve --smoke [corpus-dir] [--serve-bin PATH]
//
// corpus-dir defaults to examples/corpus (run from the repo root).
//
// --smoke is the CI end-to-end: fork/exec the real leapfrog-serve binary
// (--serve-bin, or $LEAPFROG_SERVE_BIN, or ./leapfrog-serve) in --stdio
// mode over pipes, fire three corpus requests, assert the repeat of the
// first is answered as a cache hit with identical stats, send the
// shutdown op, and require a clean exit 0.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "serve/Cache.h"
#include "serve/Json.h"
#include "serve/Service.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace leapfrog;
using Clock = std::chrono::steady_clock;

namespace {

uint64_t microsSince(Clock::time_point Start) {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - Start)
                      .count());
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  Out = Ss.str();
  return true;
}

struct PairSpec {
  const char *Label;
  const char *LeftFile;
  const char *RightFile;
  bool Budgeted; ///< Applicability self-pairs: bench_table2 budgets.
};

// The bench_corpus pair table (see bench_corpus.cpp for provenance).
const std::vector<PairSpec> &corpusPairs() {
  static const std::vector<PairSpec> Pairs = {
      {"state_rearrangement", "state_rearrangement_left.lfp",
       "state_rearrangement_right.lfp", false},
      {"variable_length_parsing", "variable_length_parsing_left.lfp",
       "variable_length_parsing_right.lfp", false},
      {"header_initialization", "header_initialization_left.lfp",
       "header_initialization_right.lfp", false},
      {"speculative_loop", "speculative_loop_left.lfp",
       "speculative_loop_right.lfp", false},
      {"relational_verification", "relational_verification_left.lfp",
       "relational_verification_right.lfp", true},
      {"external_filtering", "external_filtering_left.lfp",
       "external_filtering_right.lfp", true},
      {"edge", "edge_left.lfp", "edge_right.lfp", true},
      {"service_provider", "service_provider_left.lfp",
       "service_provider_right.lfp", true},
      {"datacenter", "datacenter_left.lfp", "datacenter_right.lfp", true},
      {"enterprise", "enterprise_left.lfp", "enterprise_right.lfp", true},
      {"ipv6_chain vs opt", "ipv6_chain.lfp", "ipv6_chain_opt.lfp", false},
      {"ipv6_chain vs bug", "ipv6_chain.lfp", "ipv6_chain_bug.lfp", false},
      {"vlan_qinq vs opt", "vlan_qinq.lfp", "vlan_qinq_opt.lfp", false},
      {"vlan_qinq vs bug", "vlan_qinq.lfp", "vlan_qinq_bug.lfp", false},
      {"tunnel vs opt", "tunnel.lfp", "tunnel_opt.lfp", false},
      {"tunnel vs bug", "tunnel.lfp", "tunnel_bug.lfp", false},
      {"quic_varint vs opt", "quic_varint.lfp", "quic_varint_opt.lfp",
       false},
      {"quic_varint vs bug", "quic_varint.lfp", "quic_varint_bug.lfp",
       false},
  };
  return Pairs;
}

const char *verdictName(core::Verdict V) {
  switch (V) {
  case core::Verdict::Equivalent:
    return "equivalent";
  case core::Verdict::NotEquivalent:
    return "NOT equivalent";
  case core::Verdict::ResourceLimit:
    return "DNF (budget)";
  case core::Verdict::BadRequest:
    return "bad request";
  }
  return "?";
}

bool statsIdentical(const core::CheckStats &A, const core::CheckStats &B) {
  return A.Iterations == B.Iterations && A.Extends == B.Extends &&
         A.Skips == B.Skips && A.SmtQueries == B.SmtQueries &&
         A.ReachPairs == B.ReachPairs &&
         A.TemplatesLeft == B.TemplatesLeft &&
         A.TemplatesRight == B.TemplatesRight &&
         A.FinalConjuncts == B.FinalConjuncts &&
         A.PeakFrontier == B.PeakFrontier &&
         A.FormulaNodes == B.FormulaNodes &&
         A.WallMicros == B.WallMicros && A.SolverMicros == B.SolverMicros;
}

//===----------------------------------------------------------------------===//
// Default mode: warm-service replay.
//===----------------------------------------------------------------------===//

int runReplay(const std::string &Dir, const std::string &JsonPath) {
  serve::ServiceConfig Config;
  std::string Err;
  std::unique_ptr<serve::CheckService> Svc =
      serve::CheckService::create(Config, &Err);
  if (!Svc) {
    std::fprintf(stderr, "bench_serve: %s\n", Err.c_str());
    return 2;
  }

  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("Warm-service corpus replay (dir: %s)\n\n", Dir.c_str());
  std::printf("%-26s %12s %10s %9s %s\n", "Pair", "Cold(us)", "Hit(us)",
              "Speedup", "Verdict");
  std::printf("%s\n", std::string(78, '-').c_str());

  struct Row {
    std::string Label;
    const char *Verdict = "?";
    uint64_t ColdMicros = 0;
    uint64_t HitMicros = 0;
    bool Hit = false;
    bool Identical = false;
  };
  std::vector<Row> Rows;
  bool Ok = true;
  uint64_t ColdTotal = 0, HitTotal = 0;
  // Some corpus entries are the same request under different names
  // (relational_verification / external_filtering commit the same
  // parsers; their §7.1 specs are not part of this pipeline), so a
  // "cold" pass may legitimately hit — track keys to tell.
  std::set<std::string> Seen;

  for (const PairSpec &P : corpusPairs()) {
    std::string LeftText, RightText;
    if (!readFile(Dir + "/" + P.LeftFile, LeftText) ||
        !readFile(Dir + "/" + P.RightFile, RightText)) {
      std::fprintf(stderr, "bench_serve: cannot read pair '%s' in '%s'\n",
                   P.Label, Dir.c_str());
      return 2;
    }
    core::CheckOptions Options;
    Options.MaxIterations = P.Budgeted ? 20000 : (1u << 20);
    Options.MaxWallMicros = P.Budgeted ? 120u * 1000u * 1000u : 0;

    core::CheckRequest Req;
    std::vector<std::string> Errors;
    if (!core::checkRequestFromSurface(LeftText, RightText, Options, Req,
                                       Errors, P.LeftFile, P.RightFile)) {
      std::fprintf(stderr, "bench_serve: '%s' rejected: %s\n", P.Label,
                   Errors.empty() ? "?" : Errors.front().c_str());
      return 2;
    }

    bool Dup = !Seen.insert(serve::makeCacheKey(Req).Canonical).second;
    Clock::time_point T0 = Clock::now();
    serve::CheckService::Outcome Cold = Svc->submit(Req);
    uint64_t ColdMicros = microsSince(T0);
    T0 = Clock::now();
    serve::CheckService::Outcome Warm = Svc->submit(Req);
    uint64_t HitMicros = microsSince(T0);

    Row R;
    R.Label = P.Label;
    R.Verdict = verdictName(Cold.Result.V);
    R.ColdMicros = ColdMicros;
    R.HitMicros = HitMicros;
    R.Hit = !Warm.rejected() && Warm.CacheHit && Cold.CacheHit == Dup &&
            !Cold.rejected();
    R.Identical = R.Hit && Warm.Result.V == Cold.Result.V &&
                  Warm.Result.FailureReason == Cold.Result.FailureReason &&
                  Warm.CertificateText == Cold.CertificateText &&
                  statsIdentical(Warm.Result.Stats, Cold.Result.Stats);
    Ok &= R.Identical;
    ColdTotal += ColdMicros;
    HitTotal += HitMicros;
    Rows.push_back(R);

    double Speedup =
        HitMicros ? double(ColdMicros) / double(HitMicros)
                  : double(ColdMicros); // Sub-microsecond hit: lower bound.
    std::printf("%-26s %12zu %10zu %8.0fx %s%s\n", P.Label,
                size_t(ColdMicros), size_t(HitMicros), Speedup, R.Verdict,
                R.Identical ? "" : "  ** NOT BIT-IDENTICAL / NOT A HIT **");
  }

  serve::CheckService::Stats S = Svc->stats();
  double Overall = HitTotal ? double(ColdTotal) / double(HitTotal)
                            : double(ColdTotal);
  bool FastEnough = Overall >= 100.0;
  Ok &= FastEnough;
  std::printf("\ncold total %.3fs, warm total %.3fs, aggregate speedup "
              "%.0fx (required >= 100x)\n",
              double(ColdTotal) / 1e6, double(HitTotal) / 1e6, Overall);
  std::printf("service: %zu submitted, %zu computed, cache %zu hits / %zu "
              "misses / %zu collisions\n",
              S.Submitted, S.Computed, S.Cache.Hits, S.Cache.Misses,
              S.Cache.Collisions);
  std::printf("%s\n", Ok ? "every repeat answered from cache, bit-identical"
                         : "** replay FAILED the cache contract **");

  if (!JsonPath.empty()) {
    serve::Json Doc = serve::Json::object();
    Doc.set("bench", serve::Json::str("serve_replay"));
    Doc.set("cold_total_micros", serve::Json::unsignedInt(ColdTotal));
    Doc.set("hit_total_micros", serve::Json::unsignedInt(HitTotal));
    Doc.set("aggregate_speedup", serve::Json::number(Overall));
    Doc.set("ok", serve::Json::boolean(Ok));
    serve::Json Arr = serve::Json::array();
    for (const Row &R : Rows) {
      serve::Json O = serve::Json::object();
      O.set("pair", serve::Json::str(R.Label));
      O.set("verdict", serve::Json::str(R.Verdict));
      O.set("cold_micros", serve::Json::unsignedInt(R.ColdMicros));
      O.set("hit_micros", serve::Json::unsignedInt(R.HitMicros));
      O.set("cache_hit", serve::Json::boolean(R.Hit));
      O.set("bit_identical", serve::Json::boolean(R.Identical));
      Arr.push(O);
    }
    Doc.set("pairs", Arr);
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "bench_serve: cannot write '%s'\n",
                   JsonPath.c_str());
      return 2;
    }
    Out << Doc.serialize() << "\n";
    std::printf("wrote %s\n", JsonPath.c_str());
  }
  return Ok ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// --smoke: drive the real binary over pipes.
//===----------------------------------------------------------------------===//

struct ServeProcess {
  pid_t Pid = -1;
  int In = -1;  ///< Write end: the daemon's stdin.
  int Out = -1; ///< Read end: the daemon's stdout.
  FILE *OutFile = nullptr;
};

bool spawnServe(const std::string &Bin, ServeProcess &P) {
  int ToChild[2], FromChild[2];
  if (pipe(ToChild) != 0 || pipe(FromChild) != 0)
    return false;
  P.Pid = fork();
  if (P.Pid < 0)
    return false;
  if (P.Pid == 0) {
    dup2(ToChild[0], STDIN_FILENO);
    dup2(FromChild[1], STDOUT_FILENO);
    close(ToChild[0]);
    close(ToChild[1]);
    close(FromChild[0]);
    close(FromChild[1]);
    execl(Bin.c_str(), Bin.c_str(), "--stdio", (char *)nullptr);
    std::fprintf(stderr, "bench_serve: cannot exec '%s'\n", Bin.c_str());
    _exit(127);
  }
  close(ToChild[0]);
  close(FromChild[1]);
  P.In = ToChild[1];
  P.Out = FromChild[0];
  P.OutFile = fdopen(P.Out, "r");
  return P.OutFile != nullptr;
}

bool roundTrip(ServeProcess &P, const serve::Json &Request,
               serve::Json &Response) {
  std::string Line = Request.serialize() + "\n";
  if (::write(P.In, Line.data(), Line.size()) != ssize_t(Line.size()))
    return false;
  char *Buf = nullptr;
  size_t Cap = 0;
  ssize_t Len = getline(&Buf, &Cap, P.OutFile);
  if (Len <= 0) {
    free(Buf);
    return false;
  }
  std::string Text(Buf, size_t(Len));
  free(Buf);
  std::string Err;
  if (!serve::Json::parse(Text, Response, &Err)) {
    std::fprintf(stderr, "bench_serve: bad response: %s: %s\n", Err.c_str(),
                 Text.c_str());
    return false;
  }
  return true;
}

int runSmoke(const std::string &Dir, const std::string &Bin) {
  std::printf("serve smoke: %s --stdio (corpus: %s)\n", Bin.c_str(),
              Dir.c_str());
  ServeProcess P;
  if (!spawnServe(Bin, P)) {
    std::fprintf(stderr, "bench_serve: failed to start '%s'\n", Bin.c_str());
    return 2;
  }

  auto fail = [&](const char *Why) {
    std::fprintf(stderr, "bench_serve: smoke FAILED: %s\n", Why);
    kill(P.Pid, SIGKILL);
    int Status = 0;
    waitpid(P.Pid, &Status, 0);
    return 1;
  };

  serve::Json Pong;
  if (!roundTrip(P, [] {
        serve::Json R = serve::Json::object();
        R.set("op", serve::Json::str("ping"));
        return R;
      }(), Pong) ||
      !Pong.getBool("pong", false))
    return fail("no pong");

  // Three fast corpus pairs, then the first again: that repeat must be a
  // cache hit with the same stats object.
  const PairSpec Smoke[] = {
      {"ipv6_chain vs opt", "ipv6_chain.lfp", "ipv6_chain_opt.lfp", false},
      {"ipv6_chain vs bug", "ipv6_chain.lfp", "ipv6_chain_bug.lfp", false},
      {"vlan_qinq vs opt", "vlan_qinq.lfp", "vlan_qinq_opt.lfp", false},
  };
  serve::Json FirstResponse;
  for (const PairSpec &Pair : Smoke) {
    std::string LeftText, RightText;
    if (!readFile(Dir + "/" + Pair.LeftFile, LeftText) ||
        !readFile(Dir + "/" + Pair.RightFile, RightText))
      return fail("cannot read corpus pair (pass the corpus dir)");
    serve::Json Req = serve::Json::object();
    Req.set("op", serve::Json::str("check"));
    Req.set("id", serve::Json::str(Pair.Label));
    Req.set("left", serve::Json::str(LeftText));
    Req.set("right", serve::Json::str(RightText));
    serve::Json Res;
    if (!roundTrip(P, Req, Res))
      return fail("no response to check");
    if (!Res.getBool("ok", false))
      return fail(("check not ok: " + Res.serialize()).c_str());
    if (Res.getString("cache") != "miss")
      return fail("first submission was not a miss");
    std::printf("  %-24s %s (%s, %s us)\n", Pair.Label,
                Res.getString("verdict").c_str(),
                Res.getString("cache").c_str(),
                std::to_string(Res.getUnsigned("micros", 0)).c_str());
    if (&Pair == &Smoke[0])
      FirstResponse = Res;
  }

  {
    std::string LeftText, RightText;
    readFile(Dir + "/" + Smoke[0].LeftFile, LeftText);
    readFile(Dir + "/" + Smoke[0].RightFile, RightText);
    serve::Json Req = serve::Json::object();
    Req.set("op", serve::Json::str("check"));
    Req.set("id", serve::Json::str("repeat"));
    Req.set("left", serve::Json::str(LeftText));
    Req.set("right", serve::Json::str(RightText));
    serve::Json Res;
    if (!roundTrip(P, Req, Res))
      return fail("no response to repeat");
    if (Res.getString("cache") != "hit")
      return fail("repeat submission was not a cache hit");
    if (Res.getString("verdict") != FirstResponse.getString("verdict"))
      return fail("repeat verdict differs");
    if (Res.get("stats").serialize() !=
        FirstResponse.get("stats").serialize())
      return fail("repeat stats are not bit-identical");
    std::printf("  %-24s %s (%s)\n", "repeat of first",
                Res.getString("verdict").c_str(),
                Res.getString("cache").c_str());
  }

  serve::Json Bye;
  if (!roundTrip(P, [] {
        serve::Json R = serve::Json::object();
        R.set("op", serve::Json::str("shutdown"));
        return R;
      }(), Bye) ||
      !Bye.getBool("bye", false))
    return fail("no shutdown acknowledgement");

  close(P.In);
  fclose(P.OutFile);
  int Status = 0;
  if (waitpid(P.Pid, &Status, 0) != P.Pid)
    return fail("waitpid");
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    std::fprintf(stderr, "bench_serve: smoke FAILED: daemon exit status %d\n",
                 Status);
    return 1;
  }
  std::printf("smoke ok: 3 misses, 1 hit, clean shutdown\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Dir = "examples/corpus";
  std::string JsonPath;
  std::string ServeBin;
  bool Smoke = false;

  if (const char *Env = std::getenv("LEAPFROG_SERVE_BIN"))
    ServeBin = Env;

  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--smoke")) {
      Smoke = true;
    } else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--serve-bin") && I + 1 < Argc) {
      ServeBin = Argv[++I];
    } else if (Argv[I][0] != '-') {
      Dir = Argv[I];
    } else {
      std::fprintf(stderr,
                   "usage: %s [corpus-dir] [--json FILE]\n"
                   "       %s --smoke [corpus-dir] [--serve-bin PATH]\n",
                   Argv[0], Argv[0]);
      return 2;
    }
  }

  if (Smoke)
    return runSmoke(Dir, ServeBin.empty() ? "./leapfrog-serve" : ServeBin);
  return runReplay(Dir, JsonPath);
}
