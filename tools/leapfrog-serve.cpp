//===- leapfrog-serve.cpp - Long-running equivalence-checking daemon ------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The daemon form of the checker: start once, keep the solver backend
// warm, answer any number of equivalence requests over a
// line-oriented JSON protocol (docs/SERVICE.md), and serve repeats from a
// fingerprint-keyed result cache. Where leapfrog-cli pays backend
// construction and a full search per invocation, the
// service pays them once — the economics CI fleets and editor integrations
// need.
//
//   leapfrog-serve --stdio [options]          # serve stdin/stdout
//   leapfrog-serve --socket PATH [options]    # serve an AF_UNIX socket
//
// Exit codes: 0 clean shutdown (shutdown op or stdin EOF), 1 transport
// failure, 3 usage error or unresolvable --backend spec.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "serve/Server.h"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

using namespace leapfrog;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: leapfrog-serve (--stdio | --socket PATH) [options]\n"
      "\n"
      "Runs the equivalence checker as a long-lived service: newline-\n"
      "delimited JSON requests in, one JSON response per line out (the\n"
      "protocol reference is docs/SERVICE.md). Completed results are\n"
      "cached under a canonical parser-pair fingerprint, so resubmitting\n"
      "an unchanged pair answers in microseconds with the identical\n"
      "verdict and statistics.\n"
      "\n"
      "transport:\n"
      "  --stdio            serve stdin/stdout (one client; exits on EOF)\n"
      "  --socket PATH      bind an AF_UNIX socket at PATH; one thread\n"
      "                     per connection, shared cache and lanes\n"
      "\n"
      "engine (fixed for the server's lifetime; per-request budgets and\n"
      "ablation switches travel in each request's \"options\"):\n"
      "  --backend SPEC     'bitblast' (default), 'smtlib:CMD', or\n"
      "                     'crosscheck[:CMD]' — an unrecognized SPEC is\n"
      "                     a startup error, never a silent fallback\n"
      "  --lanes N          concurrent checks, one thread each (default\n"
      "                     1); an external backend keeps one warm\n"
      "                     solver process per lane\n"
      "\n"
      "certificates:\n"
      "  --certify          run every check with proof capture; the cert\n"
      "                     op then serves full LFCERT certificates that\n"
      "                     leapfrog-certcheck verifies independently\n"
      "                     (an smtlib backend is cross-checked so the\n"
      "                     in-process proof covers its verdicts)\n"
      "  --cert-store DIR   persist compressed certificates to DIR keyed\n"
      "                     by fingerprint (implies --certify); a\n"
      "                     restarted server serves them from disk\n"
      "\n"
      "admission control:\n"
      "  --max-queue N      submissions allowed to wait for a lane before\n"
      "                     new ones are rejected (default 64)\n"
      "  --cap-iterations N ceiling on per-request worklist budgets\n"
      "                     (default: none); larger requests are clamped\n"
      "  --cap-seconds N    ceiling on per-request wall budgets, seconds\n"
      "                     (default: none); larger requests are clamped\n"
      "\n"
      "observability (docs/OBSERVABILITY.md):\n"
      "  --slow-ms N        log every submission whose end-to-end wall\n"
      "                     time reaches N milliseconds as one structured\n"
      "                     JSON line on stderr (0 = off, the default)\n"
      "  --trace-out FILE   record a Chrome/Perfetto trace_event timeline\n"
      "                     of the server's lifetime (requests, checker\n"
      "                     phases, solver queries) and write\n"
      "                     it to FILE on clean shutdown; the metrics op\n"
      "                     is independent of this flag and always\n"
      "                     available\n");
}

bool parseCount(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (!End || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  serve::ServiceConfig Config;
  bool Stdio = false;
  std::string SocketPath;
  std::string TraceOutPath;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    uint64_t N = 0;
    if (!std::strcmp(Arg, "--stdio")) {
      Stdio = true;
    } else if (!std::strcmp(Arg, "--socket") && I + 1 < Argc) {
      SocketPath = Argv[++I];
    } else if (!std::strcmp(Arg, "--backend") && I + 1 < Argc) {
      Config.Engine.Backend = Argv[++I];
    } else if (!std::strncmp(Arg, "--backend=", 10)) {
      Config.Engine.Backend = Arg + 10;
    } else if (!std::strcmp(Arg, "--lanes") && I + 1 < Argc &&
               parseCount(Argv[++I], N)) {
      Config.Lanes = size_t(N ? N : 1);
    } else if (!std::strcmp(Arg, "--certify")) {
      Config.Engine.Certify = true;
    } else if (!std::strcmp(Arg, "--cert-store") && I + 1 < Argc) {
      Config.CertStoreDir = Argv[++I];
    } else if (!std::strcmp(Arg, "--max-queue") && I + 1 < Argc &&
               parseCount(Argv[++I], N)) {
      Config.MaxQueue = size_t(N);
    } else if (!std::strcmp(Arg, "--cap-iterations") && I + 1 < Argc &&
               parseCount(Argv[++I], N)) {
      Config.MaxIterationsCap = size_t(N);
    } else if (!std::strcmp(Arg, "--cap-seconds") && I + 1 < Argc &&
               parseCount(Argv[++I], N)) {
      Config.MaxWallMicrosCap = N * 1000000u;
    } else if (!std::strcmp(Arg, "--slow-ms") && I + 1 < Argc &&
               parseCount(Argv[++I], N)) {
      Config.SlowMicros = N * 1000u;
    } else if (!std::strcmp(Arg, "--trace-out") && I + 1 < Argc) {
      TraceOutPath = Argv[++I];
    } else {
      std::fprintf(stderr, "leapfrog-serve: bad or incomplete option '%s'\n",
                   Arg);
      usage();
      return 3;
    }
  }

  if (Stdio == !SocketPath.empty()) {
    std::fprintf(stderr,
                 "leapfrog-serve: exactly one of --stdio / --socket PATH "
                 "is required\n");
    usage();
    return 3;
  }

  std::string Error;
  std::unique_ptr<serve::Server> Server = serve::Server::create(Config, &Error);
  if (!Server) {
    std::fprintf(stderr, "leapfrog-serve: %s\n", Error.c_str());
    return 3;
  }

  // Tracing covers the server's whole lifetime; the file is written once,
  // after the transport loop drains, so a crash loses the trace but never
  // a response. Tracing is passive: answers are bit-identical with or
  // without it.
  std::unique_ptr<obs::TraceSink> Trace;
  if (!TraceOutPath.empty()) {
    Trace = std::make_unique<obs::TraceSink>();
    obs::setTraceSink(Trace.get());
    obs::nameCurrentThread("serve-main");
  }

  int Rc = Stdio ? Server->runStdio(std::cin, std::cout)
                 : Server->runSocket(SocketPath);

  if (Trace) {
    obs::setTraceSink(nullptr);
    std::string TraceErr;
    if (!Trace->writeChromeJson(TraceOutPath, &TraceErr))
      std::fprintf(stderr, "leapfrog-serve: %s\n", TraceErr.c_str());
  }
  return Rc;
}
