//===- leapfrog-trace.cpp - Trace-file summarizer --------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Reads a Chrome/Perfetto trace_event JSON file — the format leapfrog-cli
// and leapfrog-serve write via --trace-out (docs/OBSERVABILITY.md) — and
// prints the terminal-side summary a timeline viewer cannot: per-category
// phase totals, the hottest span names, and solve-latency percentiles.
//
//   leapfrog-trace t.json                # summarize
//   leapfrog-trace --top N t.json        # widen/narrow the span table
//
// Span durations are reconstructed from B/E pairs per thread (the emitter
// guarantees balanced, same-thread nesting; unbalanced files are reported,
// not guessed at). 'X' complete events with a "dur" field are accepted too,
// so traces from other tools summarize as well.
//
// Exit codes: 0 ok, 1 malformed trace, 2 usage.
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace leapfrog;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: leapfrog-trace [--top N] <trace.json>\n"
               "\n"
               "Summarizes a Chrome/Perfetto trace_event file written by\n"
               "leapfrog-cli --trace-out or leapfrog-serve --trace-out:\n"
               "per-category totals, the top span names by total time, and\n"
               "p50/p95/p99 solver-query latency.\n");
}

struct SpanAgg {
  uint64_t Count = 0;
  uint64_t TotalMicros = 0;
  uint64_t MaxMicros = 0;
};

/// An open 'B' event waiting for its same-thread 'E'.
struct OpenSpan {
  std::string Name;
  std::string Category;
  uint64_t TsMicros = 0;
};

uint64_t percentile(const std::vector<uint64_t> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Rank = size_t(Q * double(Sorted.size() - 1) + 0.5);
  if (Rank >= Sorted.size())
    Rank = Sorted.size() - 1;
  return Sorted[Rank];
}

} // namespace

int main(int Argc, char **Argv) {
  size_t TopN = 10;
  const char *Path = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--top") && I + 1 < Argc) {
      TopN = size_t(std::strtoull(Argv[++I], nullptr, 10));
    } else if (!Path) {
      Path = Argv[I];
    } else {
      usage();
      return 2;
    }
  }
  if (!Path) {
    usage();
    return 2;
  }

  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "leapfrog-trace: cannot read '%s'\n", Path);
    return 2;
  }
  std::ostringstream Ss;
  Ss << In.rdbuf();

  serve::Json Doc;
  std::string Err;
  if (!serve::Json::parse(Ss.str(), Doc, &Err)) {
    std::fprintf(stderr, "leapfrog-trace: '%s' is not valid JSON: %s\n",
                 Path, Err.c_str());
    return 1;
  }
  // Both container forms are standard: {"traceEvents":[...]} and a bare
  // top-level array.
  const serve::Json &Events = Doc.isObject() ? Doc.get("traceEvents") : Doc;
  if (!Events.isArray()) {
    std::fprintf(stderr, "leapfrog-trace: '%s' has no traceEvents array\n",
                 Path);
    return 1;
  }

  std::map<uint64_t, std::vector<OpenSpan>> Open; // tid -> span stack
  std::map<uint64_t, std::string> ThreadNames;
  std::map<std::string, SpanAgg> ByName;
  std::map<std::string, SpanAgg> ByCategory;
  std::vector<uint64_t> SolveMicros;
  size_t Unbalanced = 0;
  uint64_t FirstTs = ~uint64_t(0), LastTs = 0;

  auto RecordSpan = [&](const std::string &Name, const std::string &Cat,
                        uint64_t Micros) {
    SpanAgg &N = ByName[Name];
    ++N.Count;
    N.TotalMicros += Micros;
    N.MaxMicros = std::max(N.MaxMicros, Micros);
    SpanAgg &C = ByCategory[Cat.empty() ? "(none)" : Cat];
    ++C.Count;
    C.TotalMicros += Micros;
    C.MaxMicros = std::max(C.MaxMicros, Micros);
    if (Name == "solver.query")
      SolveMicros.push_back(Micros);
  };

  for (const serve::Json &E : Events.items()) {
    if (!E.isObject())
      continue;
    const std::string Ph = E.getString("ph");
    const uint64_t Tid = E.getUnsigned("tid", 0);
    const uint64_t Ts = E.getUnsigned("ts", 0);
    if (Ph == "B" || Ph == "E" || Ph == "X" || Ph == "i") {
      FirstTs = std::min(FirstTs, Ts);
      LastTs = std::max(LastTs, Ts);
    }
    if (Ph == "M") {
      if (E.getString("name") == "thread_name")
        ThreadNames[Tid] = E.get("args").getString("name");
    } else if (Ph == "B") {
      OpenSpan S;
      S.Name = E.getString("name");
      S.Category = E.getString("cat");
      S.TsMicros = Ts;
      Open[Tid].push_back(std::move(S));
    } else if (Ph == "E") {
      std::vector<OpenSpan> &Stack = Open[Tid];
      if (Stack.empty()) {
        ++Unbalanced;
        continue;
      }
      OpenSpan S = std::move(Stack.back());
      Stack.pop_back();
      RecordSpan(S.Name, S.Category, Ts >= S.TsMicros ? Ts - S.TsMicros : 0);
    } else if (Ph == "X") {
      RecordSpan(E.getString("name"), E.getString("cat"),
                 E.getUnsigned("dur", 0));
    }
  }
  for (const auto &KV : Open)
    Unbalanced += KV.second.size();

  if (FirstTs > LastTs)
    FirstTs = LastTs = 0;
  std::printf("trace: %s\n", Path);
  std::printf("  wall span: %.3f ms, threads: %zu\n",
              double(LastTs - FirstTs) / 1e3, Open.size());
  if (!ThreadNames.empty()) {
    std::printf("  tracks:");
    for (const auto &KV : ThreadNames)
      std::printf(" %llu=%s", (unsigned long long)KV.first,
                  KV.second.c_str());
    std::printf("\n");
  }
  if (Unbalanced) {
    std::fprintf(stderr, "leapfrog-trace: %zu unbalanced begin/end events\n",
                 Unbalanced);
    return 1;
  }

  std::printf("\nper-category totals:\n");
  std::printf("  %-12s %10s %14s %14s\n", "category", "spans", "total ms",
              "max ms");
  for (const auto &KV : ByCategory)
    std::printf("  %-12s %10llu %14.3f %14.3f\n", KV.first.c_str(),
                (unsigned long long)KV.second.Count,
                double(KV.second.TotalMicros) / 1e3,
                double(KV.second.MaxMicros) / 1e3);

  std::printf("\ntop spans by total time:\n");
  std::printf("  %-24s %10s %14s %12s %12s\n", "name", "count", "total ms",
              "mean us", "max us");
  std::vector<std::pair<std::string, SpanAgg>> Ranked(ByName.begin(),
                                                      ByName.end());
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
    return A.second.TotalMicros > B.second.TotalMicros;
  });
  for (size_t I = 0; I < Ranked.size() && I < TopN; ++I) {
    const SpanAgg &A = Ranked[I].second;
    std::printf("  %-24s %10llu %14.3f %12.1f %12llu\n",
                Ranked[I].first.c_str(), (unsigned long long)A.Count,
                double(A.TotalMicros) / 1e3,
                A.Count ? double(A.TotalMicros) / double(A.Count) : 0.0,
                (unsigned long long)A.MaxMicros);
  }

  if (!SolveMicros.empty()) {
    std::sort(SolveMicros.begin(), SolveMicros.end());
    std::printf("\nsolver-query latency (%zu queries):\n",
                SolveMicros.size());
    std::printf("  p50 %llu us, p95 %llu us, p99 %llu us, max %llu us\n",
                (unsigned long long)percentile(SolveMicros, 0.50),
                (unsigned long long)percentile(SolveMicros, 0.95),
                (unsigned long long)percentile(SolveMicros, 0.99),
                (unsigned long long)SolveMicros.back());
  }

  return 0;
}
