//===- ObservabilityTest.cpp - Metrics, tracing, slow-query log -----------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the observability layer's one hard invariant and its surfaces:
///
///  * Passivity. Installing a TraceSink changes *nothing* the engine
///    decides: verdict, decision stream, certificate text and every
///    deterministic stat are bit-identical traced vs. untraced, across
///    the registry case studies, with and without goal batching.
///  * The emitted trace is valid Chrome trace_event JSON with balanced
///    begin/end spans per thread.
///  * MetricsSnapshot: counters are
///    monotone across runs, merge is associative, gauges are last-wins
///    with maxed peaks.
///  * The serve `metrics` op round-trips through the line-JSON protocol
///    in both JSON and Prometheus forms.
///  * The slow-query log fires deterministically (GateSolver holds the
///    request over the threshold) and stays silent when disabled.
///
//===----------------------------------------------------------------------===//

#include "core/CertificateIo.h"
#include "core/Checker.h"
#include "core/Engine.h"
#include "core/FrontierKey.h"
#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "parsers/CaseStudies.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "smt/Solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::core;

namespace {

//===----------------------------------------------------------------------===//
// Shared helpers.
//===----------------------------------------------------------------------===//

// The ServeTest twin pair: equivalent two-state parsers differing only in
// state names, cheap enough to check many times in one test.
const char *LfpA = "header h : 8;\n"
                   "entry start;\n"
                   "state start {\n"
                   "  extract(h);\n"
                   "  select(h[0:7]) {\n"
                   "    (0b00000000) => accept;\n"
                   "    (_) => next;\n"
                   "  }\n"
                   "}\n"
                   "state next {\n"
                   "  extract(h);\n"
                   "  goto accept;\n"
                   "}\n";

const char *LfpB = "header h : 8;\n"
                   "entry s0;\n"
                   "state s0 {\n"
                   "  extract(h);\n"
                   "  select(h[0:7]) {\n"
                   "    (0b00000000) => accept;\n"
                   "    (_) => s1;\n"
                   "  }\n"
                   "}\n"
                   "state s1 {\n"
                   "  extract(h);\n"
                   "  goto accept;\n"
                   "}\n";

CheckRequest requestFor(const char *Left, const char *Right,
                        CheckOptions Options = {}) {
  CheckRequest Req;
  std::vector<std::string> Errors;
  bool Ok = checkRequestFromSurface(Left, Right, Options, Req, Errors);
  EXPECT_TRUE(Ok) << (Errors.empty() ? "?" : Errors.front());
  return Req;
}

CheckRequest registryRequest(const parsers::CaseStudy &Study,
                             CheckOptions Options) {
  return makeLanguageEquivalenceRequest(
      Study.Left, p4a::StateRef::normal(*Study.Left.findState(Study.LeftStart)),
      Study.Right,
      p4a::StateRef::normal(*Study.Right.findState(Study.RightStart)),
      std::move(Options));
}

/// Renders a trace step so failures show the first diverging decision.
std::string traceKey(const TraceStep &T) {
  const char *Kind = T.K == TraceStep::Kind::Skip     ? "skip"
                     : T.K == TraceStep::Kind::Extend ? "extend"
                                                      : "done";
  return std::string(Kind) + "/" + std::to_string(T.WpCount) + " " +
         detail::formulaKey(T.Psi);
}

struct CertifiedRun {
  CheckResult Res;
  std::string CertText;
};

/// One certified engine check; serializes the certificate on Equivalent so
/// bit-identity is pinned over the full artifact, proof log included.
CertifiedRun runCertified(const CheckRequest &Req) {
  EngineConfig Cfg;
  Cfg.Backend = "bitblast";
  Cfg.Certify = true;
  std::string Err;
  std::unique_ptr<Engine> E = Engine::create(Cfg, &Err);
  EXPECT_NE(E, nullptr) << Err;
  CertifiedRun Run;
  if (!E)
    return Run;
  Run.Res = E->check(Req);
  if (Run.Res.V == Verdict::Equivalent) {
    EXPECT_NE(Run.Res.Proof, nullptr);
    Run.CertText = serializeCertificate(Req.Left, Req.Right,
                                        Run.Res.Certificate,
                                        Run.Res.Proof.get(),
                                        requestFingerprint(Req).hex());
  }
  return Run;
}

/// RAII: installs a sink for the scope, restores the previous one after.
struct SinkGuard {
  explicit SinkGuard(obs::TraceSink *Sink) : Prev(obs::traceSink()) {
    obs::setTraceSink(Sink);
  }
  ~SinkGuard() { obs::setTraceSink(Prev); }
  obs::TraceSink *Prev;
};

/// Asserts A and B decided identically: verdict, decision stream,
/// certificate bytes, and the deterministic stat columns.
void expectDecisionIdentical(const std::string &Label, const CertifiedRun &A,
                             const CertifiedRun &B) {
  ASSERT_EQ(A.Res.V, B.Res.V) << Label;
  EXPECT_EQ(A.Res.FailureReason, B.Res.FailureReason) << Label;
  ASSERT_EQ(A.Res.Trace.size(), B.Res.Trace.size()) << Label;
  for (size_t I = 0; I < A.Res.Trace.size(); ++I)
    ASSERT_EQ(traceKey(A.Res.Trace[I]), traceKey(B.Res.Trace[I]))
        << Label << ": decision stream diverges at step " << I;
  EXPECT_EQ(A.CertText, B.CertText) << Label;
  const CheckStats &SA = A.Res.Stats, &SB = B.Res.Stats;
  EXPECT_EQ(SA.Iterations, SB.Iterations) << Label;
  EXPECT_EQ(SA.Extends, SB.Extends) << Label;
  EXPECT_EQ(SA.Skips, SB.Skips) << Label;
  EXPECT_EQ(SA.ReachPairs, SB.ReachPairs) << Label;
  EXPECT_EQ(SA.TemplatesLeft, SB.TemplatesLeft) << Label;
  EXPECT_EQ(SA.TemplatesRight, SB.TemplatesRight) << Label;
  EXPECT_EQ(SA.FinalConjuncts, SB.FinalConjuncts) << Label;
  EXPECT_EQ(SA.PeakFrontier, SB.PeakFrontier) << Label;
  EXPECT_EQ(SA.FormulaNodes, SB.FormulaNodes) << Label;
  EXPECT_EQ(SA.SmtQueries, SB.SmtQueries) << Label;
}

/// Parses a Chrome trace and checks structural validity: traceEvents is
/// an array, every E has a same-thread open B, nothing stays open.
/// Returns the parsed document for further inspection.
serve::Json parseBalancedTrace(const std::string &ChromeJson) {
  serve::Json Doc;
  std::string Err;
  EXPECT_TRUE(serve::Json::parse(ChromeJson, Doc, &Err)) << Err;
  const serve::Json &Events = Doc.get("traceEvents");
  EXPECT_TRUE(Events.isArray());
  std::map<uint64_t, int> Depth; // tid -> open span count
  for (const serve::Json &E : Events.items()) {
    const std::string Ph = E.getString("ph");
    const uint64_t Tid = E.getUnsigned("tid", 0);
    if (Ph == "B") {
      ++Depth[Tid];
    } else if (Ph == "E") {
      EXPECT_GT(Depth[Tid], 0) << "E without same-thread B on tid " << Tid;
      --Depth[Tid];
    }
  }
  for (const auto &KV : Depth)
    EXPECT_EQ(KV.second, 0) << "unclosed span on tid " << KV.first;
  return Doc;
}

//===----------------------------------------------------------------------===//
// Passivity: tracing changes nothing the engine decides.
//===----------------------------------------------------------------------===//

/// Number of Extend steps in a recorded decision stream: each one is one
/// weakest-precondition call (an early refutation stops before it and
/// records no Extend).
size_t extendSteps(const CheckResult &Res) {
  return size_t(std::count_if(
      Res.Trace.begin(), Res.Trace.end(),
      [](const TraceStep &T) { return T.K == TraceStep::Kind::Extend; }));
}

/// Number of B events named \p Name in a parsed Chrome trace.
size_t spanCount(const serve::Json &Doc, const std::string &Name) {
  size_t N = 0;
  for (const serve::Json &E : Doc.get("traceEvents").items())
    if (E.getString("ph") == "B" && E.getString("name") == Name)
      ++N;
  return N;
}

/// Number of B events named \p Child whose innermost open span on the
/// same thread is named \p Parent.
size_t spansNestedIn(const serve::Json &Doc, const std::string &Child,
                     const std::string &Parent) {
  size_t N = 0;
  std::map<uint64_t, std::vector<std::string>> Open; // tid -> span stack
  for (const serve::Json &E : Doc.get("traceEvents").items()) {
    std::vector<std::string> &Stack = Open[E.getUnsigned("tid", 0)];
    if (E.getString("ph") == "B") {
      if (E.getString("name") == Child && !Stack.empty() &&
          Stack.back() == Parent)
        ++N;
      Stack.push_back(E.getString("name"));
    } else if (E.getString("ph") == "E" && !Stack.empty()) {
      Stack.pop_back();
    }
  }
  return N;
}

/// The goal-blast and lowering spans: every goal blast sits directly in
/// a solver query, and a traced run has one lowering span per counted
/// lowering.
void expectBlastAndLowerSpans(const serve::Json &Doc, uint64_t Lowerings) {
  size_t Blasts = spanCount(Doc, "solver.blast_goal");
  EXPECT_GT(Blasts, 0u);
  EXPECT_EQ(spansNestedIn(Doc, "solver.blast_goal", "solver.query"), Blasts);
  EXPECT_GT(Lowerings, 0u);
  EXPECT_EQ(spanCount(Doc, "check.lower"), Lowerings);
}

uint64_t lowerings() {
  return obs::metrics().snapshot().counter("check.lowerings");
}

uint64_t histogramCount(const std::string &Name) {
  obs::MetricsSnapshot Snap = obs::metrics().snapshot();
  auto It = Snap.Histograms.find(Name);
  return It == Snap.Histograms.end() ? 0 : It->second.Count;
}

uint64_t simplifies() { return histogramCount("session.simplify_micros"); }

/// The session purge: one span per observed session.simplify_micros, each
/// directly inside the solver call whose retirement triggered it.
void expectSimplifySpans(const serve::Json &Doc, uint64_t Simplifies) {
  EXPECT_GT(Simplifies, 0u);
  EXPECT_EQ(spanCount(Doc, "session.simplify"), Simplifies);
  EXPECT_EQ(spansNestedIn(Doc, "session.simplify", "solver.query") +
                spansNestedIn(Doc, "session.simplify", "solver.batch"),
            Simplifies);
}

uint64_t releases() { return histogramCount("check.release_micros"); }

/// The run-state release: every traced check ends in one check.release,
/// directly inside its check.run, and each is one observed
/// check.release_micros.
void expectReleaseSpans(const serve::Json &Doc, uint64_t Releases) {
  EXPECT_GT(Releases, 0u);
  EXPECT_EQ(spanCount(Doc, "check.run"), Releases);
  EXPECT_EQ(spanCount(Doc, "check.release"), Releases);
  EXPECT_EQ(spansNestedIn(Doc, "check.release", "check.run"), Releases);
}

uint64_t frontierKeys() { return histogramCount("frontier.key_micros"); }

/// The frontier keys: every key built (and offered to the dedup set) is
/// one observed frontier.key_micros and, when traced, one frontier.key
/// span directly inside its check.run.
void expectKeySpans(const serve::Json &Doc, uint64_t Keys) {
  EXPECT_GT(Keys, 0u);
  EXPECT_EQ(spanCount(Doc, "frontier.key"), Keys);
  EXPECT_EQ(spansNestedIn(Doc, "frontier.key", "check.run"), Keys);
}

TEST(Observability, TracingIsPassiveAcrossRegistryStudies) {
  obs::TraceSink Sink;
  // Every WP call is timed (check.wp_micros, traced or not) and, when
  // traced, spanned (check.wp): exactly one observation and one span
  // per Extend.
  uint64_t WpObservedBefore = histogramCount("check.wp_micros");
  size_t ExtendsAll = 0, ExtendsTraced = 0;
  uint64_t LoweringsTraced = 0, SimplifiesTraced = 0, ReleasesTraced = 0;
  uint64_t KeysTraced = 0;
  for (const parsers::CaseStudy &Study : parsers::allCaseStudies()) {
    CheckOptions Options;
    // The CertificateTest sweep budgets: Applicability rows only need to
    // demonstrate the engine runs (they exceed any test budget), Utility
    // rows must finish.
    Options.MaxIterations = Study.Category == "Applicability" ? 300 : 20000;
    Options.RecordTrace = true;
    CheckRequest Req = registryRequest(Study, Options);

    uint64_t BaselineFrom = simplifies(), BaselineReleasesFrom = releases();
    uint64_t BaselineKeysFrom = frontierKeys();
    CertifiedRun Baseline = runCertified(Req);
    uint64_t BaselineSimplifies = simplifies() - BaselineFrom;
    uint64_t BaselineReleases = releases() - BaselineReleasesFrom;
    uint64_t BaselineKeys = frontierKeys() - BaselineKeysFrom;
    ExtendsAll += extendSteps(Baseline.Res);

    // Traced runs share one sink across studies so the final trace also
    // exercises multi-run accumulation.
    {
      SinkGuard Guard(&Sink);
      uint64_t Before = lowerings();
      uint64_t SimplifiesFrom = simplifies(), ReleasesFrom = releases();
      uint64_t KeysFrom = frontierKeys();
      CertifiedRun Traced = runCertified(Req);
      LoweringsTraced += lowerings() - Before;
      EXPECT_EQ(simplifies() - SimplifiesFrom, BaselineSimplifies)
          << Study.Name;
      SimplifiesTraced += simplifies() - SimplifiesFrom;
      EXPECT_EQ(releases() - ReleasesFrom, BaselineReleases) << Study.Name;
      ReleasesTraced += releases() - ReleasesFrom;
      EXPECT_EQ(frontierKeys() - KeysFrom, BaselineKeys) << Study.Name;
      KeysTraced += frontierKeys() - KeysFrom;
      expectDecisionIdentical(Study.Name, Baseline, Traced);
      ExtendsTraced += extendSteps(Traced.Res);
    }
  }
  ASSERT_GT(Sink.eventCount(), 0u);
  ExtendsAll += ExtendsTraced;
  EXPECT_GT(ExtendsTraced, 0u);
  EXPECT_EQ(histogramCount("check.wp_micros") - WpObservedBefore,
            ExtendsAll);

  // The accumulated trace must be structurally valid Chrome JSON with
  // balanced spans — through the file path tools consume.
  std::string Path = ::testing::TempDir() + "obs_registry_trace.json";
  std::string Err;
  ASSERT_TRUE(Sink.writeChromeJson(Path, &Err)) << Err;
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good());
  std::ostringstream Ss;
  Ss << In.rdbuf();
  serve::Json Doc = parseBalancedTrace(Ss.str());
  EXPECT_EQ(spanCount(Doc, "check.wp"), ExtendsTraced);
  expectBlastAndLowerSpans(Doc, LoweringsTraced);
  expectSimplifySpans(Doc, SimplifiesTraced);
  expectReleaseSpans(Doc, ReleasesTraced);
  expectKeySpans(Doc, KeysTraced);
  std::remove(Path.c_str());
}

// Passivity at the batching knob: the batched entailment window poses
// goals ahead of their turn through shared session calls, so it gets its
// own traced-vs-untraced pin rather than inheriting the default-knob
// test above.
TEST(Observability, TracingIsPassiveAtBatchedKnobs) {
  obs::TraceSink Sink;
  size_t ExtendsTraced = 0;
  uint64_t LoweringsTraced = 0, SimplifiesTraced = 0, ReleasesTraced = 0;
  uint64_t KeysTraced = 0;
  for (const parsers::CaseStudy &Study : parsers::allCaseStudies()) {
    // The cheap registry rows only: this test is about knob coverage,
    // not corpus breadth (the study sweep above owns that). The budget
    // keeps the big rows affordable — a deterministic budget trip is as
    // good a decision stream to pin as a full run.
    if (Study.Category == "Applicability")
      continue;
    CheckOptions Options;
    Options.MaxIterations = 2000;
    Options.RecordTrace = true;
    Options.GoalBatch = 8;
    CheckRequest Req = registryRequest(Study, Options);

    uint64_t BaselineFrom = simplifies(), BaselineReleasesFrom = releases();
    uint64_t BaselineKeysFrom = frontierKeys();
    CertifiedRun Baseline = runCertified(Req);
    uint64_t BaselineSimplifies = simplifies() - BaselineFrom;
    uint64_t BaselineReleases = releases() - BaselineReleasesFrom;
    uint64_t BaselineKeys = frontierKeys() - BaselineKeysFrom;
    {
      SinkGuard Guard(&Sink);
      uint64_t Before = lowerings();
      uint64_t SimplifiesFrom = simplifies(), ReleasesFrom = releases();
      uint64_t KeysFrom = frontierKeys();
      CertifiedRun Traced = runCertified(Req);
      LoweringsTraced += lowerings() - Before;
      EXPECT_EQ(simplifies() - SimplifiesFrom, BaselineSimplifies)
          << Study.Name;
      SimplifiesTraced += simplifies() - SimplifiesFrom;
      EXPECT_EQ(releases() - ReleasesFrom, BaselineReleases) << Study.Name;
      ReleasesTraced += releases() - ReleasesFrom;
      EXPECT_EQ(frontierKeys() - KeysFrom, BaselineKeys) << Study.Name;
      KeysTraced += frontierKeys() - KeysFrom;
      expectDecisionIdentical(Study.Name + " batched", Baseline, Traced);
      ExtendsTraced += extendSteps(Traced.Res);
    }
  }
  ASSERT_GT(Sink.eventCount(), 0u);

  // Every check must have hit the trace, and the accumulated file must
  // stay structurally valid.
  std::string Path = ::testing::TempDir() + "obs_batched_trace.json";
  std::string Err;
  ASSERT_TRUE(Sink.writeChromeJson(Path, &Err)) << Err;
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good());
  std::ostringstream Ss;
  Ss << In.rdbuf();
  serve::Json Doc = parseBalancedTrace(Ss.str());
  EXPECT_GT(spanCount(Doc, "check.run"), 0u);
  EXPECT_EQ(spanCount(Doc, "check.wp"), ExtendsTraced);
  expectBlastAndLowerSpans(Doc, LoweringsTraced);
  expectSimplifySpans(Doc, SimplifiesTraced);
  expectReleaseSpans(Doc, ReleasesTraced);
  expectKeySpans(Doc, KeysTraced);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// TraceSink: event forms render to spec-shaped JSON.
//===----------------------------------------------------------------------===//

TEST(Observability, TraceSinkEmitsSpecShapedEvents) {
  obs::TraceSink Sink;
  {
    SinkGuard Guard(&Sink);
    obs::nameCurrentThread("unit-main");
    {
      obs::ScopedSpan Outer("outer", "test",
                            obs::TraceArgs().add("n", uint64_t(7)).add(
                                "s", std::string("a\"b\\c")));
      obs::ScopedSpan Inner("inner", "test");
      Sink.instant("tick", "test");
      Sink.counterValue("depth", "test", 3);
    }
  }
  ASSERT_EQ(Sink.eventCount(), 7u); // M + 2*(B+E) + i + C

  serve::Json Doc = parseBalancedTrace(Sink.toChromeJson());
  bool SawMeta = false, SawInstant = false, SawCounter = false,
       SawArgs = false;
  for (const serve::Json &E : Doc.get("traceEvents").items()) {
    const std::string Ph = E.getString("ph");
    if (Ph == "M") {
      EXPECT_EQ(E.getString("name"), "thread_name");
      EXPECT_EQ(E.get("args").getString("name"), "unit-main");
      SawMeta = true;
    } else if (Ph == "i") {
      EXPECT_EQ(E.getString("name"), "tick");
      EXPECT_EQ(E.getString("s"), "t"); // instant scope is required
      SawInstant = true;
    } else if (Ph == "C") {
      EXPECT_EQ(E.get("args").getUnsigned("value", 0), 3u);
      SawCounter = true;
    } else if (Ph == "B" && E.getString("name") == "outer") {
      EXPECT_EQ(E.getString("cat"), "test");
      EXPECT_EQ(E.get("args").getUnsigned("n", 0), 7u);
      EXPECT_EQ(E.get("args").getString("s"), "a\"b\\c");
      SawArgs = true;
    }
  }
  EXPECT_TRUE(SawMeta);
  EXPECT_TRUE(SawInstant);
  EXPECT_TRUE(SawCounter);
  EXPECT_TRUE(SawArgs);
}

//===----------------------------------------------------------------------===//
// Metrics: monotone counters, associative merge, last-wins gauges.
//===----------------------------------------------------------------------===//

TEST(Observability, GlobalCountersAreMonotoneAcrossRuns) {
  obs::MetricsSnapshot Before = obs::metrics().snapshot();

  EngineConfig Cfg;
  std::string Err;
  std::unique_ptr<Engine> E = Engine::create(Cfg, &Err);
  ASSERT_NE(E, nullptr) << Err;
  CheckResult Res = E->check(requestFor(LfpA, LfpB));
  ASSERT_EQ(Res.V, Verdict::Equivalent) << Res.FailureReason;

  obs::MetricsSnapshot After = obs::metrics().snapshot();
  EXPECT_EQ(After.counter("check.runs"), Before.counter("check.runs") + 1);
  EXPECT_EQ(After.counter("check.iterations"),
            Before.counter("check.iterations") + Res.Stats.Iterations);
  EXPECT_EQ(After.counter("check.smt_queries"),
            Before.counter("check.smt_queries") + Res.Stats.SmtQueries);
  // Every name present before must be no smaller after — monotone, no
  // resets, no lost names.
  for (const auto &KV : Before.Counters)
    EXPECT_GE(After.counter(KV.first), KV.second) << KV.first;
  // Solve-latency histogram grew with the run's queries.
  ASSERT_TRUE(After.Histograms.count("smt.solve_micros"));
  const auto &H = After.Histograms.at("smt.solve_micros");
  if (Before.Histograms.count("smt.solve_micros")) {
    EXPECT_GE(H.Count, Before.Histograms.at("smt.solve_micros").Count);
  }
  EXPECT_GT(H.Count, 0u);
}

TEST(Observability, SnapshotMergeIsAssociative) {
  obs::Registry A, B, C;
  A.counter("shared").add(1);
  A.counter("only_a").add(10);
  A.gauge("depth").set(4);
  A.histogram("lat").observe(3);
  A.histogram("lat").observe(70);
  B.counter("shared").add(2);
  B.gauge("depth").set(2);
  B.histogram("lat").observe(4096);
  C.counter("shared").add(4);
  C.counter("only_c").add(20);
  C.gauge("depth").set(9);
  C.histogram("other").observe(1);

  obs::MetricsSnapshot SA = A.snapshot(), SB = B.snapshot(),
                       SC = C.snapshot();

  obs::MetricsSnapshot Left = SA; // (a + b) + c
  Left.merge(SB);
  Left.merge(SC);
  obs::MetricsSnapshot BC = SB; // a + (b + c)
  BC.merge(SC);
  obs::MetricsSnapshot Right = SA;
  Right.merge(BC);
  EXPECT_EQ(Left.toJson(), Right.toJson());

  EXPECT_EQ(Left.counter("shared"), 7u);
  EXPECT_EQ(Left.counter("only_a"), 10u);
  EXPECT_EQ(Left.counter("only_c"), 20u);
  // Gauge: last writer wins the value, peaks max.
  EXPECT_EQ(Left.Gauges.at("depth").Value, 9);
  EXPECT_EQ(Left.Gauges.at("depth").Peak, 9);
  obs::MetricsSnapshot AB = SA;
  AB.merge(SB);
  EXPECT_EQ(AB.Gauges.at("depth").Value, 2);
  EXPECT_EQ(AB.Gauges.at("depth").Peak, 4);
  // Histogram buckets added, max maxed, quantile bounds ordered.
  const auto &Lat = Left.Histograms.at("lat");
  EXPECT_EQ(Lat.Count, 3u);
  EXPECT_EQ(Lat.Max, 4096u);
  EXPECT_LE(Lat.quantileUpperBoundMicros(0.50),
            Lat.quantileUpperBoundMicros(0.95));
  EXPECT_LE(Lat.quantileUpperBoundMicros(0.95),
            Lat.quantileUpperBoundMicros(0.99));

  // Both render forms stay parseable / well-formed on the merged view.
  serve::Json Parsed;
  std::string Err;
  ASSERT_TRUE(serve::Json::parse(Left.toJson(), Parsed, &Err)) << Err;
  EXPECT_TRUE(Parsed.get("counters").isObject());
  std::string Prom = Left.toPrometheus();
  EXPECT_NE(Prom.find("leapfrog_shared 7"), std::string::npos) << Prom;
  EXPECT_NE(Prom.find("leapfrog_lat_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << Prom;
}

//===----------------------------------------------------------------------===//
// Serve: the metrics op over the line protocol.
//===----------------------------------------------------------------------===//

serve::Json handle(serve::Server &S, const std::string &Line) {
  serve::Json R;
  std::string Err;
  EXPECT_TRUE(serve::Json::parse(S.handleLine(Line), R, &Err)) << Err;
  return R;
}

TEST(Observability, ServeMetricsOpRoundTrips) {
  serve::ServiceConfig Cfg;
  Cfg.Lanes = 1;
  std::string Err;
  auto S = serve::Server::create(Cfg, &Err);
  ASSERT_NE(S, nullptr) << Err;

  // Run one real check so the registry provably has engine counters.
  serve::Json Req = serve::Json::object();
  Req.set("op", serve::Json::str("check"));
  Req.set("left", serve::Json::str(LfpA));
  Req.set("right", serve::Json::str(LfpB));
  serve::Json Checked = handle(*S, Req.serialize());
  ASSERT_TRUE(Checked.getBool("ok", false)) << Checked.serialize();

  serve::Json R = handle(*S, "{\"op\":\"metrics\"}");
  ASSERT_TRUE(R.getBool("ok", false)) << R.serialize();
  const serve::Json &M = R.get("metrics");
  ASSERT_TRUE(M.isObject());
  EXPECT_GE(M.get("counters").get("check.runs").asUnsigned(), 1u);
  EXPECT_GE(M.get("counters").get("serve.cache_misses").asUnsigned(), 1u);
  ASSERT_TRUE(M.get("histograms").get("serve.request_micros").isObject());
  EXPECT_GE(M.get("histograms")
                .get("serve.request_micros")
                .getUnsigned("count", 0),
            1u);

  const std::string Prom = R.getString("prometheus");
  EXPECT_NE(Prom.find("# TYPE leapfrog_check_runs counter"),
            std::string::npos)
      << Prom;
  EXPECT_NE(Prom.find("leapfrog_serve_request_micros_count"),
            std::string::npos)
      << Prom;
}

//===----------------------------------------------------------------------===//
// Slow-query log: deterministic firing, silent when disabled.
//===----------------------------------------------------------------------===//

/// Blocks every checkSat until release(), so a submission provably spends
/// longer than any microsecond-scale threshold inside the service.
class GateSolver : public smt::SmtSolver {
public:
  smt::SatResult checkSat(const smt::BvFormulaRef &F,
                          smt::Model *M) override {
    Entered.fetch_add(1);
    std::unique_lock<std::mutex> Lock(Mu);
    CV.wait(Lock, [&] { return Open; });
    return Inner.checkSat(F, M);
  }
  void release() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Open = true;
    }
    CV.notify_all();
  }
  std::atomic<size_t> Entered{0};

private:
  smt::BitBlastSolver Inner;
  std::mutex Mu;
  std::condition_variable CV;
  bool Open = false;
};

TEST(Observability, SlowQueryLogFiresDeterministically) {
  GateSolver Gate;
  std::ostringstream Log;
  serve::ServiceConfig Cfg;
  Cfg.Lanes = 1;
  Cfg.Engine.Solver = &Gate;
  Cfg.SlowMicros = 2000;
  Cfg.SlowLog = &Log;
  std::string Err;
  auto Svc = serve::CheckService::create(Cfg, &Err);
  ASSERT_NE(Svc, nullptr) << Err;

  serve::CheckService::Outcome Held;
  std::thread Runner([&] { Held = Svc->submit(requestFor(LfpA, LfpB)); });
  // The request is on the lane, inside the solver. Hold it past the
  // threshold on the steady clock — firing is now deterministic, not a
  // scheduling accident.
  while (Gate.Entered.load() == 0)
    std::this_thread::yield();
  obs::StopWatch Hold;
  while (Hold.elapsedMicros() < Cfg.SlowMicros)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Gate.release();
  Runner.join();
  ASSERT_FALSE(Held.rejected());
  ASSERT_EQ(Held.Result.V, Verdict::Equivalent);

  // Exactly one line, and it is structured: parseable JSON with the
  // documented fields (docs/SERVICE.md).
  std::string LogText = Log.str();
  ASSERT_FALSE(LogText.empty());
  ASSERT_EQ(LogText.back(), '\n');
  ASSERT_EQ(std::count(LogText.begin(), LogText.end(), '\n'), 1);
  serve::Json Line;
  ASSERT_TRUE(serve::Json::parse(LogText, Line, &Err)) << Err;
  EXPECT_TRUE(Line.getBool("slow_query", false));
  EXPECT_GE(Line.getUnsigned("micros", 0), Cfg.SlowMicros);
  EXPECT_EQ(Line.getUnsigned("threshold_micros", 0), Cfg.SlowMicros);
  EXPECT_EQ(Line.getString("source"), "computed");
  EXPECT_EQ(Line.getString("fingerprint"), Held.FP.hex());
  EXPECT_EQ(Line.getString("verdict"), "equivalent");
  EXPECT_EQ(Line.getUnsigned("iterations", 0), Held.Result.Stats.Iterations);
  EXPECT_EQ(Line.getUnsigned("smt_queries", 0),
            Held.Result.Stats.SmtQueries);

  // Whatever the latency of a request, a service with the log disabled
  // must write nothing.
  serve::ServiceConfig Quiet;
  Quiet.Lanes = 1;
  std::ostringstream QuietLog;
  Quiet.SlowMicros = 0; // Disabled: even a slow request logs nothing.
  Quiet.SlowLog = &QuietLog;
  auto Svc2 = serve::CheckService::create(Quiet, &Err);
  ASSERT_NE(Svc2, nullptr) << Err;
  serve::CheckService::Outcome O = Svc2->submit(requestFor(LfpA, LfpB));
  ASSERT_FALSE(O.rejected());
  EXPECT_TRUE(QuietLog.str().empty());
}

} // namespace
