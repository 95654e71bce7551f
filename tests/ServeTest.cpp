//===- ServeTest.cpp - The leapfrog-serve service layer -------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Tier-1 coverage for the service stack, bottom up:
//
//  * serve::Json — parse/serialize round trips, escapes, error paths.
//  * serve::ResultCache — the never-hash-only probe discipline, pinned
//    with a *forced* fingerprint collision (equal 128-bit hash, distinct
//    canonical text): the collision must read as a miss, not a hit.
//  * core::Engine — structured rejection of unresolvable backend specs
//    (and of uncertifiable backends on the checkWithSpec path), warm
//    solver reuse: N requests through an engine over the external shim
//    leave exactly one solver process.
//  * serve::CheckService — cache hits bit-identical to the cold check,
//    concurrent submissions of the same pair computing exactly once,
//    budget clamping keying on effective options, queue-full rejection.
//  * Lanes — two clients checking different corpus pairs at the same
//    time on a two-lane service get records bit-identical to a one-lane
//    service's: the only place two checks run on two threads at once.
//  * serve::Server — the JSON protocol as a function (handleLine), plus
//    one AF_UNIX end-to-end with a real client socket.
//  * The corpus sweep: every bench_corpus pair submitted cold then warm;
//    the warm answer must be a cache hit with verdict and every stat
//    field identical.
//
//===----------------------------------------------------------------------===//

#include "cert/CertVerify.h"
#include "core/Engine.h"
#include "frontend/Elaborate.h"
#include "frontend/Text.h"
#include "serve/Cache.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "smt/SmtLibSolver.h"
#include "support/Compress.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace leapfrog;

namespace {

//===----------------------------------------------------------------------===//
// Shared fixtures: tiny .lfp programs and environment probes.
//===----------------------------------------------------------------------===//

// A pair of obviously equivalent two-state parsers that differ only in
// state names (the checker still needs real SMT queries to decide them).
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

// Refuted twin: the wildcard arm rejects instead of extending.
const char *LfpBug = "header h : 8;\n"
                     "entry s0;\n"
                     "state s0 {\n"
                     "  extract(h);\n"
                     "  select(h[0:7]) {\n"
                     "    (0b00000000) => accept;\n"
                     "    (_) => reject;\n"
                     "  }\n"
                     "}\n";

std::string corpusDir() {
  const char *Env = std::getenv("LEAPFROG_CORPUS_DIR");
  return Env && *Env ? Env : "";
}

std::string shimPath() {
  const char *Env = std::getenv("LEAPFROG_SMTLIB_SHIM");
  return Env && *Env ? Env : "";
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

core::CheckRequest requestFor(const char *Left, const char *Right,
                              core::CheckOptions Options = {}) {
  core::CheckRequest Req;
  std::vector<std::string> Errors;
  bool Ok =
      core::checkRequestFromSurface(Left, Right, Options, Req, Errors);
  EXPECT_TRUE(Ok) << (Errors.empty() ? "?" : Errors.front());
  return Req;
}

void expectStatsEqual(const core::CheckStats &A, const core::CheckStats &B) {
  EXPECT_EQ(A.Iterations, B.Iterations);
  EXPECT_EQ(A.Extends, B.Extends);
  EXPECT_EQ(A.Skips, B.Skips);
  EXPECT_EQ(A.SmtQueries, B.SmtQueries);
  EXPECT_EQ(A.ReachPairs, B.ReachPairs);
  EXPECT_EQ(A.TemplatesLeft, B.TemplatesLeft);
  EXPECT_EQ(A.TemplatesRight, B.TemplatesRight);
  EXPECT_EQ(A.FinalConjuncts, B.FinalConjuncts);
  EXPECT_EQ(A.PeakFrontier, B.PeakFrontier);
  EXPECT_EQ(A.FormulaNodes, B.FormulaNodes);
  // WallMicros/SolverMicros intentionally included: a cache hit returns
  // the cached record verbatim, clocks and all.
  EXPECT_EQ(A.WallMicros, B.WallMicros);
  EXPECT_EQ(A.SolverMicros, B.SolverMicros);
}

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(Json, ScalarRoundTrips) {
  serve::Json V;
  std::string Err;
  ASSERT_TRUE(serve::Json::parse("  {\"a\": [1, -2, 3.5, true, false, "
                                 "null, \"x\\n\\\"y\\\"\"]}  ",
                                 V, &Err))
      << Err;
  ASSERT_TRUE(V.isObject());
  const serve::Json &A = V.get("a");
  ASSERT_TRUE(A.isArray());
  ASSERT_EQ(A.items().size(), 7u);
  EXPECT_TRUE(A.items()[0].isInt());
  EXPECT_EQ(A.items()[0].asInt(), 1);
  EXPECT_EQ(A.items()[1].asInt(), -2);
  EXPECT_TRUE(A.items()[2].isNumber());
  EXPECT_DOUBLE_EQ(A.items()[2].asDouble(), 3.5);
  EXPECT_TRUE(A.items()[3].asBool());
  EXPECT_FALSE(A.items()[4].asBool());
  EXPECT_TRUE(A.items()[5].isNull());
  EXPECT_EQ(A.items()[6].asString(), "x\n\"y\"");

  // serialize(parse(x)) must re-parse to the same structure.
  serve::Json Again;
  ASSERT_TRUE(serve::Json::parse(V.serialize(), Again, &Err)) << Err;
  EXPECT_EQ(V.serialize(), Again.serialize());
}

TEST(Json, IntegersSurviveExactly) {
  // A 2^60-scale counter must not decay to a double on the way through.
  serve::Json V = serve::Json::object();
  V.set("micros", serve::Json::unsignedInt(1152921504606846975ull));
  serve::Json Back;
  ASSERT_TRUE(serve::Json::parse(V.serialize(), Back, nullptr));
  EXPECT_TRUE(Back.get("micros").isInt());
  EXPECT_EQ(Back.get("micros").asUnsigned(), 1152921504606846975ull);
}

TEST(Json, EscapesAndUnicode) {
  serve::Json V;
  ASSERT_TRUE(serve::Json::parse("\"a\\u0041\\u00e9\\ud83d\\ude00b\"", V,
                                 nullptr));
  EXPECT_EQ(V.asString(), "aA\xc3\xa9\xf0\x9f\x98\x80"
                          "b");
  // Control characters esc on the way out, reparse cleanly.
  serve::Json S = serve::Json::str(std::string("x\x01y\n", 4));
  serve::Json Back;
  ASSERT_TRUE(serve::Json::parse(S.serialize(), Back, nullptr));
  EXPECT_EQ(Back.asString(), S.asString());
  EXPECT_EQ(S.serialize().find('\n'), std::string::npos);
}

TEST(Json, MalformedInputsAreErrorsNotCrashes) {
  const char *Bad[] = {"",       "{",        "[1,",      "{\"a\"}",
                       "trve",   "\"unterm", "{\"a\":}", "[1 2]",
                       "{} {}",  "nul",      "--3",      "\"\\q\""};
  for (const char *Text : Bad) {
    serve::Json V;
    std::string Err;
    EXPECT_FALSE(serve::Json::parse(Text, V, &Err)) << Text;
    EXPECT_FALSE(Err.empty()) << Text;
  }
}

TEST(Json, NestingPastMaxDepthIsAnErrorNotAStackOverflow) {
  auto Nested = [](size_t N) {
    return std::string(N, '[') + std::string(N, ']');
  };
  serve::Json V;
  std::string Err;
  EXPECT_TRUE(serve::Json::parse(Nested(serve::Json::MaxDepth), V, &Err))
      << Err;
  EXPECT_FALSE(serve::Json::parse(Nested(serve::Json::MaxDepth + 1), V, &Err));
  EXPECT_NE(Err.find("nest deeper"), std::string::npos) << Err;
  // Objects count too, and mixed nesting counts every level.
  std::string Mixed;
  for (size_t I = 0; I <= serve::Json::MaxDepth; ++I)
    Mixed += I % 2 ? "[" : "{\"k\":";
  EXPECT_FALSE(serve::Json::parse(Mixed, V, &Err));
  EXPECT_NE(Err.find("nest deeper"), std::string::npos) << Err;
  // The reproducer: 50 000 '[' used to overflow the parser's stack.
  EXPECT_FALSE(serve::Json::parse(std::string(50000, '['), V, &Err));
  EXPECT_NE(Err.find("nest deeper"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// ResultCache: the never-hash-only discipline.
//===----------------------------------------------------------------------===//

TEST(ResultCache, HitRequiresCanonicalEquality) {
  serve::ResultCache Cache;
  auto Entry = std::make_shared<serve::CacheEntry>();
  Entry->Key.FP = p4a::fingerprintBytes("the real request");
  Entry->Key.Canonical = "the real request";
  Entry->Result.V = core::Verdict::Equivalent;
  Cache.insert(Entry);

  // Same canonical text: hit.
  serve::CacheKey Probe = Entry->Key;
  EXPECT_NE(Cache.find(Probe), nullptr);

  // FORCED collision: identical fingerprint, different canonical text —
  // exactly the situation PR 3's dedup bug served a wrong answer in.
  // The cache must treat it as a miss and count the collision.
  serve::CacheKey Forged;
  Forged.FP = Entry->Key.FP;
  Forged.Canonical = "a different request that happens to share the hash";
  EXPECT_EQ(Cache.find(Forged), nullptr);

  serve::ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_GE(S.Collisions, 1u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(ResultCache, CollidingEntriesCoexist) {
  // Both sides of a forced collision can live in the cache at once, each
  // served only to its own canonical text.
  serve::ResultCache Cache;
  auto A = std::make_shared<serve::CacheEntry>();
  A->Key.FP = p4a::fingerprintBytes("key");
  A->Key.Canonical = "request A";
  A->Result.V = core::Verdict::Equivalent;
  auto B = std::make_shared<serve::CacheEntry>();
  B->Key.FP = A->Key.FP;
  B->Key.Canonical = "request B";
  B->Result.V = core::Verdict::NotEquivalent;
  Cache.insert(A);
  Cache.insert(B);

  auto HitA = Cache.find(A->Key);
  auto HitB = Cache.find(B->Key);
  ASSERT_NE(HitA, nullptr);
  ASSERT_NE(HitB, nullptr);
  EXPECT_EQ(HitA->Result.V, core::Verdict::Equivalent);
  EXPECT_EQ(HitB->Result.V, core::Verdict::NotEquivalent);
}

TEST(ResultCache, KeySeparatesOptionsButNotSolver) {
  core::CheckRequest Req = requestFor(LfpA, LfpB);
  serve::CacheKey Base = serve::makeCacheKey(Req);

  core::CheckRequest Budgeted = requestFor(LfpA, LfpB);
  Budgeted.Options.MaxIterations = 7;
  EXPECT_NE(serve::makeCacheKey(Budgeted).Canonical, Base.Canonical);

  core::CheckRequest Ablated = requestFor(LfpA, LfpB);
  Ablated.Options.UseLeaps = false;
  EXPECT_NE(serve::makeCacheKey(Ablated).Canonical, Base.Canonical);

  // The solver changes performance, never verdicts or deterministic
  // stats — it must NOT split the key.
  smt::BitBlastSolver Other;
  core::CheckRequest OtherSolver = requestFor(LfpA, LfpB);
  OtherSolver.Options.Solver = &Other;
  EXPECT_EQ(serve::makeCacheKey(OtherSolver).Canonical, Base.Canonical);
  EXPECT_EQ(serve::makeCacheKey(OtherSolver).FP, Base.FP);
}

//===----------------------------------------------------------------------===//
// Engine: structured rejection + a warm backend.
//===----------------------------------------------------------------------===//

TEST(Engine, UnresolvableBackendIsAStructuredError) {
  core::EngineConfig Cfg;
  Cfg.Backend = "quantum-annealer";
  std::string Err;
  EXPECT_EQ(core::Engine::create(Cfg, &Err), nullptr);
  EXPECT_NE(Err.find("quantum-annealer"), std::string::npos) << Err;
}

TEST(Engine, CheckWithSpecRejectsUncertifiableSolverInline) {
  // The one-shot path rejects a request it cannot honor with the same
  // structured BadRequest — here, proof capture on a backend that has
  // none — instead of returning an uncertified verdict.
  smt::SmtLibConfig Ext;
  Ext.Argv = {"leapfrog-no-such-solver"};
  smt::SmtLibSolver External(Ext);
  core::CheckRequest Req = requestFor(LfpA, LfpB);
  Req.Options.Solver = &External;
  Req.Options.Certify = true;
  core::CheckResult Res =
      core::checkWithSpec(Req.Left, Req.Right, Req.Spec, Req.Options);
  EXPECT_EQ(Res.V, core::Verdict::BadRequest);
  EXPECT_NE(Res.FailureReason.find("cannot capture"), std::string::npos)
      << Res.FailureReason;
  EXPECT_EQ(Res.Stats.SmtQueries, 0u) << "the search must never have run";
}

TEST(Engine, MatchesOneShotCheckerBitForBit) {
  core::CheckRequest Req = requestFor(LfpA, LfpB);
  std::unique_ptr<core::Engine> Engine =
      core::Engine::create(core::EngineConfig(), nullptr);
  ASSERT_NE(Engine, nullptr);
  core::CheckResult Warm1 = Engine->check(Req);
  core::CheckResult Warm2 = Engine->check(Req);
  core::CheckResult Cold =
      core::checkWithSpec(Req.Left, Req.Right, Req.Spec, Req.Options);
  EXPECT_EQ(Warm1.V, core::Verdict::Equivalent);
  EXPECT_EQ(Warm1.V, Cold.V);
  EXPECT_EQ(Warm2.V, Cold.V);
  // Deterministic stats agree between engine runs and the free function
  // (clocks excluded — they are wall time, not decisions).
  EXPECT_EQ(Warm1.Stats.Iterations, Cold.Stats.Iterations);
  EXPECT_EQ(Warm1.Stats.FinalConjuncts, Cold.Stats.FinalConjuncts);
  EXPECT_EQ(Warm2.Stats.Iterations, Cold.Stats.Iterations);
  EXPECT_EQ(Warm1.Certificate.str(Req.Left, Req.Right),
            Cold.Certificate.str(Req.Left, Req.Right));
}

TEST(Engine, WarmBackendSpawnsOneSolverProcess) {
  std::string Shim = shimPath();
  if (Shim.empty())
    GTEST_SKIP() << "LEAPFROG_SMTLIB_SHIM unset (run under ctest)";

  core::EngineConfig Cfg;
  Cfg.Backend = "smtlib:" + Shim;
  std::string Err;
  std::unique_ptr<core::Engine> Engine = core::Engine::create(Cfg, &Err);
  ASSERT_NE(Engine, nullptr) << Err;

  // Three different requests through the same engine: the backend (and
  // its external process) must be spawned once and reused, not
  // respawned per request.
  core::CheckResult R1 = Engine->check(requestFor(LfpA, LfpB));
  core::CheckResult R2 = Engine->check(requestFor(LfpA, LfpBug));
  core::CheckResult R3 = Engine->check(requestFor(LfpB, LfpBug));
  EXPECT_EQ(R1.V, core::Verdict::Equivalent);
  EXPECT_EQ(R2.V, core::Verdict::NotEquivalent);
  EXPECT_EQ(R3.V, core::Verdict::NotEquivalent);

  auto *Ext = dynamic_cast<smt::SmtLibSolver *>(&Engine->solver());
  ASSERT_NE(Ext, nullptr);
  EXPECT_EQ(size_t(Ext->extStats().Spawns), 1u)
      << "the engine respawned its solver process";
  EXPECT_GT(size_t(Ext->extStats().ExternalQueries), 0u)
      << "the engine never reached the external solver";
}

//===----------------------------------------------------------------------===//
// CheckService
//===----------------------------------------------------------------------===//

serve::ServiceConfig basicConfig() {
  serve::ServiceConfig Cfg;
  Cfg.Lanes = 1;
  return Cfg;
}

TEST(CheckService, CacheHitIsBitIdenticalToColdCheck) {
  std::string Err;
  auto Svc = serve::CheckService::create(basicConfig(), &Err);
  ASSERT_NE(Svc, nullptr) << Err;

  core::CheckRequest Req = requestFor(LfpA, LfpB);
  serve::CheckService::Outcome Cold = Svc->submit(Req);
  ASSERT_FALSE(Cold.rejected());
  EXPECT_FALSE(Cold.CacheHit);
  EXPECT_EQ(Cold.Result.V, core::Verdict::Equivalent);
  EXPECT_FALSE(Cold.CertificateText.empty());

  serve::CheckService::Outcome Warm = Svc->submit(Req);
  ASSERT_FALSE(Warm.rejected());
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.Result.V, Cold.Result.V);
  EXPECT_EQ(Warm.FP, Cold.FP);
  EXPECT_EQ(Warm.CertificateText, Cold.CertificateText);
  expectStatsEqual(Warm.Result.Stats, Cold.Result.Stats);

  serve::CheckService::Stats S = Svc->stats();
  EXPECT_EQ(S.Submitted, 2u);
  EXPECT_EQ(S.Computed, 1u);
  EXPECT_EQ(S.Cache.Hits, 1u);
  EXPECT_EQ(S.Cache.Entries, 1u);
}

TEST(CheckService, EquivalentTextsWithDifferentNamesShareOneEntry) {
  // LfpA and LfpB differ only in state names; canonicalization erases
  // names, so (A, B) and (B, A)... are different ordered pairs — but
  // (A, B) submitted via *different textual spellings of A* must hit.
  std::string Renamed(LfpA);
  // A textual variant of LfpA: rename 'start'/'next' to 'p'/'q'.
  size_t Pos;
  while ((Pos = Renamed.find("start")) != std::string::npos)
    Renamed.replace(Pos, 5, "p");
  while ((Pos = Renamed.find("next")) != std::string::npos)
    Renamed.replace(Pos, 4, "q");

  std::string Err;
  auto Svc = serve::CheckService::create(basicConfig(), &Err);
  ASSERT_NE(Svc, nullptr) << Err;
  serve::CheckService::Outcome First =
      Svc->submit(requestFor(LfpA, LfpBug));
  serve::CheckService::Outcome Second =
      Svc->submit(requestFor(Renamed.c_str(), LfpBug));
  ASSERT_FALSE(First.rejected());
  ASSERT_FALSE(Second.rejected());
  EXPECT_FALSE(First.CacheHit);
  EXPECT_TRUE(Second.CacheHit) << "renaming states must not split the key";
  EXPECT_EQ(First.FP, Second.FP);
}

TEST(CheckService, BudgetClampKeysOnEffectiveOptions) {
  serve::ServiceConfig Cfg = basicConfig();
  Cfg.MaxIterationsCap = 50;
  std::string Err;
  auto Svc = serve::CheckService::create(Cfg, &Err);
  ASSERT_NE(Svc, nullptr) << Err;

  // An over-budget request is clamped to the cap...
  core::CheckRequest Greedy = requestFor(LfpA, LfpB);
  Greedy.Options.MaxIterations = 1u << 20;
  serve::CheckService::Outcome First = Svc->submit(Greedy);
  ASSERT_FALSE(First.rejected());

  // ...so a request asking for exactly the cap is the same key: hit.
  core::CheckRequest Exact = requestFor(LfpA, LfpB);
  Exact.Options.MaxIterations = 50;
  serve::CheckService::Outcome Second = Svc->submit(Exact);
  ASSERT_FALSE(Second.rejected());
  EXPECT_TRUE(Second.CacheHit);
  expectStatsEqual(Second.Result.Stats, First.Result.Stats);
}

TEST(CheckService, ConcurrentSameRequestComputesOnce) {
  std::string Err;
  auto Svc = serve::CheckService::create(basicConfig(), &Err);
  ASSERT_NE(Svc, nullptr) << Err;

  const size_t N = 8;
  std::vector<serve::CheckService::Outcome> Outcomes(N);
  {
    std::vector<std::thread> Threads;
    for (size_t T = 0; T < N; ++T)
      Threads.emplace_back([&, T] {
        core::CheckRequest Req = requestFor(LfpA, LfpB);
        Outcomes[T] = Svc->submit(Req);
      });
    for (std::thread &T : Threads)
      T.join();
  }

  // However the schedule fell out, the check ran exactly once: every
  // other submission either coalesced onto the in-flight computation or
  // hit the completed cache entry, and all answers are the same record.
  serve::CheckService::Stats S = Svc->stats();
  EXPECT_EQ(S.Computed, 1u);
  EXPECT_EQ(S.Cache.Entries, 1u);
  EXPECT_EQ(S.Submitted, N);
  EXPECT_EQ(S.Coalesced + S.Cache.Hits, N - 1);
  for (const serve::CheckService::Outcome &O : Outcomes) {
    ASSERT_FALSE(O.rejected());
    EXPECT_EQ(O.Result.V, core::Verdict::Equivalent);
    expectStatsEqual(O.Result.Stats, Outcomes[0].Result.Stats);
  }
}

/// A backend whose first checkSat blocks until released — how the tests
/// hold a lane busy deterministically.
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

TEST(CheckService, QueueFullRejectsInsteadOfQueueingUnboundedly) {
  GateSolver Gate;
  serve::ServiceConfig Cfg = basicConfig();
  Cfg.Engine.Solver = &Gate;
  Cfg.MaxQueue = 0; // Reject unless a lane is free right now.
  std::string Err;
  auto Svc = serve::CheckService::create(Cfg, &Err);
  ASSERT_NE(Svc, nullptr) << Err;

  serve::CheckService::Outcome Held;
  std::thread Holder([&] { Held = Svc->submit(requestFor(LfpA, LfpB)); });
  // Wait until the check owns the lane (it is inside the solver).
  while (Gate.Entered.load() == 0)
    std::this_thread::yield();

  // A *different* request now finds the one lane busy and zero queue
  // capacity: structured rejection, not a hang.
  serve::CheckService::Outcome Turned =
      Svc->submit(requestFor(LfpA, LfpBug));
  EXPECT_TRUE(Turned.rejected());
  EXPECT_NE(Turned.Error.find("queue full"), std::string::npos)
      << Turned.Error;

  Gate.release();
  Holder.join();
  ASSERT_FALSE(Held.rejected());
  EXPECT_EQ(Held.Result.V, core::Verdict::Equivalent);
  EXPECT_EQ(Svc->stats().RejectedQueueFull, 1u);
}

//===----------------------------------------------------------------------===//
// Server: the protocol as a function.
//===----------------------------------------------------------------------===//

serve::Json handle(serve::Server &S, const std::string &Line) {
  serve::Json R;
  std::string Err;
  EXPECT_TRUE(serve::Json::parse(S.handleLine(Line), R, &Err)) << Err;
  return R;
}

std::unique_ptr<serve::Server> basicServer() {
  std::string Err;
  auto S = serve::Server::create(basicConfig(), &Err);
  EXPECT_NE(S, nullptr) << Err;
  return S;
}

serve::Json checkRequestLine(const char *Left, const char *Right,
                             const char *Id = "t1") {
  serve::Json Req = serve::Json::object();
  Req.set("op", serve::Json::str("check"));
  Req.set("left", serve::Json::str(Left));
  Req.set("right", serve::Json::str(Right));
  Req.set("id", serve::Json::str(Id));
  return Req;
}

TEST(Server, PingStatsAndUnknownOps) {
  auto S = basicServer();
  serve::Json Pong = handle(*S, "{\"op\":\"ping\"}");
  EXPECT_TRUE(Pong.getBool("ok", false));
  EXPECT_TRUE(Pong.getBool("pong", false));

  serve::Json Stats = handle(*S, "{\"op\":\"stats\"}");
  EXPECT_TRUE(Stats.getBool("ok", false));
  EXPECT_TRUE(Stats.get("cache").isObject());
  EXPECT_EQ(Stats.get("config").getUnsigned("lanes", 0), 1u);

  serve::Json Bad = handle(*S, "{\"op\":\"transmogrify\"}");
  EXPECT_FALSE(Bad.getBool("ok", true));
  EXPECT_NE(Bad.getString("error").find("unknown op"), std::string::npos);

  serve::Json Garbage = handle(*S, "this is not json");
  EXPECT_FALSE(Garbage.getBool("ok", true));
}

TEST(Server, CheckMissThenHitWithCertificate) {
  auto S = basicServer();
  serve::Json First = handle(*S, checkRequestLine(LfpA, LfpB).serialize());
  ASSERT_TRUE(First.getBool("ok", false)) << First.serialize();
  EXPECT_EQ(First.getString("verdict"), "equivalent");
  EXPECT_EQ(First.getString("cache"), "miss");
  EXPECT_EQ(First.getString("id"), "t1");
  EXPECT_EQ(First.getString("fingerprint").size(), 32u);

  serve::Json Second =
      handle(*S, checkRequestLine(LfpA, LfpB, "t2").serialize());
  ASSERT_TRUE(Second.getBool("ok", false));
  EXPECT_EQ(Second.getString("cache"), "hit");
  EXPECT_EQ(Second.getString("id"), "t2");
  EXPECT_EQ(Second.getString("fingerprint"), First.getString("fingerprint"));
  // Bit-identical stats over the wire.
  EXPECT_EQ(Second.get("stats").serialize(), First.get("stats").serialize());

  // The certificate is retrievable under the returned handle.
  std::string Key = First.getString("certificate_key");
  ASSERT_EQ(Key.size(), 32u);
  serve::Json Cert =
      handle(*S, "{\"op\":\"cert\",\"key\":\"" + Key + "\"}");
  ASSERT_TRUE(Cert.getBool("ok", false)) << Cert.serialize();
  EXPECT_FALSE(Cert.getString("certificate").empty());

  serve::Json NoCert =
      handle(*S, "{\"op\":\"cert\",\"key\":\"00000000000000000000000000000000\"}");
  EXPECT_FALSE(NoCert.getBool("ok", true));
}

TEST(Server, RefutedPairReportsFailureReason) {
  auto S = basicServer();
  serve::Json R = handle(*S, checkRequestLine(LfpA, LfpBug).serialize());
  ASSERT_TRUE(R.getBool("ok", false));
  EXPECT_EQ(R.getString("verdict"), "not_equivalent");
  EXPECT_FALSE(R.getString("failure_reason").empty());
  EXPECT_FALSE(R.has("certificate_key"));
}

TEST(Server, ParserDiagnosticsComeBackStructured) {
  auto S = basicServer();
  serve::Json Req = checkRequestLine("header h : 8;\nentry nowhere;\n", LfpB);
  serve::Json R = handle(*S, Req.serialize());
  EXPECT_FALSE(R.getBool("ok", true));
  ASSERT_TRUE(R.get("diagnostics").isArray());
  EXPECT_GT(R.get("diagnostics").items().size(), 0u);
  // Diagnostics carry the side name ("left:"), so a client knows which
  // text to fix.
  EXPECT_NE(R.get("diagnostics").items()[0].asString().find("left"),
            std::string::npos);
}

TEST(Server, EngineLevelOptionsAreRejectedPerRequest) {
  auto S = basicServer();
  serve::Json Req = checkRequestLine(LfpA, LfpB);
  serve::Json Opts = serve::Json::object();
  Opts.set("jobs", serve::Json::integer(4));
  Req.set("options", Opts);
  serve::Json R = handle(*S, Req.serialize());
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_NE(R.getString("error").find("engine-level"), std::string::npos);
}

TEST(Server, PerRequestOptionsSplitTheKey) {
  auto S = basicServer();
  serve::Json Plain = checkRequestLine(LfpA, LfpB);
  serve::Json First = handle(*S, Plain.serialize());
  ASSERT_TRUE(First.getBool("ok", false));

  serve::Json Budgeted = checkRequestLine(LfpA, LfpB);
  serve::Json Opts = serve::Json::object();
  Opts.set("max_iterations", serve::Json::integer(3));
  Budgeted.set("options", Opts);
  serve::Json R = handle(*S, Budgeted.serialize());
  ASSERT_TRUE(R.getBool("ok", false));
  EXPECT_EQ(R.getString("cache"), "miss")
      << "a different budget must not reuse the unbudgeted result";
  EXPECT_EQ(R.getString("verdict"), "resource_limit");
}

TEST(Server, ShutdownAcknowledgesAndSetsFlag) {
  auto S = basicServer();
  EXPECT_FALSE(S->shutdownRequested());
  serve::Json R = handle(*S, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_TRUE(S->shutdownRequested());
}

TEST(Server, HostileNestingIsAStructuredError) {
  // One request line of 50 000 '[' overflowed the stack and killed the
  // daemon; now it is answered like any malformed line, and the loop
  // goes on serving.
  auto S = basicServer();
  std::istringstream In(std::string(50000, '[') + "\n{\"op\":\"ping\"}\n");
  std::ostringstream Out;
  EXPECT_EQ(S->runStdio(In, Out), 0);
  std::istringstream Lines(Out.str());
  std::string L1, L2;
  ASSERT_TRUE(std::getline(Lines, L1));
  ASSERT_TRUE(std::getline(Lines, L2));
  serve::Json R1, R2;
  ASSERT_TRUE(serve::Json::parse(L1, R1, nullptr)) << L1;
  EXPECT_FALSE(R1.getBool("ok", true));
  EXPECT_NE(R1.getString("error").find("nest deeper"), std::string::npos)
      << L1;
  ASSERT_TRUE(serve::Json::parse(L2, R2, nullptr)) << L2;
  EXPECT_TRUE(R2.getBool("pong", false));
}

TEST(Server, StdioLoopServesUntilEof) {
  auto S = basicServer();
  std::istringstream In("{\"op\":\"ping\"}\n" +
                        checkRequestLine(LfpA, LfpBug).serialize() + "\n");
  std::ostringstream Out;
  EXPECT_EQ(S->runStdio(In, Out), 0);
  std::istringstream Lines(Out.str());
  std::string L1, L2;
  ASSERT_TRUE(std::getline(Lines, L1));
  ASSERT_TRUE(std::getline(Lines, L2));
  serve::Json R1, R2;
  ASSERT_TRUE(serve::Json::parse(L1, R1, nullptr));
  ASSERT_TRUE(serve::Json::parse(L2, R2, nullptr));
  EXPECT_TRUE(R1.getBool("pong", false));
  EXPECT_EQ(R2.getString("verdict"), "not_equivalent");
}

TEST(Server, SocketEndToEnd) {
  auto S = basicServer();
  const std::string Path = "servetest.sock";
  std::thread ServerThread([&] { EXPECT_EQ(S->runSocket(Path), 0); });

  // Connects a client (retrying while the listener comes up); -1 on
  // failure.
  auto connectClient = [&] {
    for (int Attempt = 0; Attempt < 200; ++Attempt) {
      int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (Fd < 0)
        return -1;
      sockaddr_un Addr;
      std::memset(&Addr, 0, sizeof(Addr));
      Addr.sun_family = AF_UNIX;
      std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
          0)
        return Fd;
      ::close(Fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  };
  int Fd = connectClient();
  ASSERT_GE(Fd, 0) << "could not connect to " << Path;

  auto roundTripOn = [&](int Client, const std::string &Line) {
    std::string Out = Line + "\n";
    EXPECT_EQ(::write(Client, Out.data(), Out.size()), ssize_t(Out.size()));
    std::string Buf;
    char C;
    while (::read(Client, &C, 1) == 1 && C != '\n')
      Buf += C;
    serve::Json R;
    std::string Err;
    EXPECT_TRUE(serve::Json::parse(Buf, R, &Err)) << Err << ": " << Buf;
    return R;
  };
  auto roundTrip = [&](const std::string &Line) {
    return roundTripOn(Fd, Line);
  };

  // A hostile line gets a structured error; its connection keeps
  // serving, and so does the daemon every other client shares.
  serve::Json Hostile = roundTrip(std::string(50000, '['));
  EXPECT_FALSE(Hostile.getBool("ok", true));
  EXPECT_NE(Hostile.getString("error").find("nest deeper"),
            std::string::npos);
  // So does a check whose left text nests a select discriminant 100 000
  // parentheses deep (it overflowed the parser's stack): the answer is
  // the parser's located diagnostic.
  const std::string DeepLfp = "header h : 8;\nentry start;\nstate start {\n"
                              "  extract(h);\n  select(" +
                              std::string(100000, '(') + "h[0:7]" +
                              std::string(100000, ')') +
                              ") {\n    (_) => accept;\n  }\n}\n";
  serve::Json Deep =
      roundTrip(checkRequestLine(DeepLfp.c_str(), LfpB).serialize());
  EXPECT_FALSE(Deep.getBool("ok", true));
  ASSERT_TRUE(Deep.get("diagnostics").isArray());
  ASSERT_EQ(Deep.get("diagnostics").items().size(), 1u);
  EXPECT_NE(Deep.get("diagnostics").items()[0].asString().find(
                "5:266: expression nests deeper than 256"),
            std::string::npos);
  int Other = connectClient();
  ASSERT_GE(Other, 0) << "second client could not connect to " << Path;
  EXPECT_TRUE(roundTripOn(Other, "{\"op\":\"ping\"}").getBool("pong", false));
  ::close(Other);
  serve::Json Pong = roundTrip("{\"op\":\"ping\"}");
  EXPECT_TRUE(Pong.getBool("pong", false));
  serve::Json Check = roundTrip(checkRequestLine(LfpA, LfpB).serialize());
  EXPECT_EQ(Check.getString("verdict"), "equivalent");
  serve::Json Again = roundTrip(checkRequestLine(LfpA, LfpB).serialize());
  EXPECT_EQ(Again.getString("cache"), "hit");
  serve::Json Bye = roundTrip("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(Bye.getBool("bye", false));

  ::close(Fd);
  ServerThread.join();
}

//===----------------------------------------------------------------------===//
// The corpus sweep: warm answers bit-identical to cold, pair by pair.
//===----------------------------------------------------------------------===//

struct CorpusPair {
  const char *Label;
  const char *LeftFile;
  const char *RightFile;
  bool Budgeted; ///< Applicability self-pairs: tight budget, any verdict.
};

// The bench_corpus table (bench/bench_corpus.cpp), with the big
// Applicability self-pairs under a deliberately tiny budget: a fast,
// deterministic ResourceLimit exercises cache bit-identity just as well
// as a decided verdict.
const CorpusPair CorpusPairs[] = {
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
    {"quic_varint vs opt", "quic_varint.lfp", "quic_varint_opt.lfp", false},
    {"quic_varint vs bug", "quic_varint.lfp", "quic_varint_bug.lfp", false},
};

TEST(CorpusSweep, EveryPairHitsWarmWithIdenticalResults) {
  std::string Dir = corpusDir();
  if (Dir.empty())
    GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";

  std::string Err;
  auto Svc = serve::CheckService::create(basicConfig(), &Err);
  ASSERT_NE(Svc, nullptr) << Err;

  // Corpus entries are distinct *files* but not necessarily distinct
  // *requests*: relational_verification and external_filtering commit the
  // same parsers (they differ in their §7.1 specs, which the plain
  // language-equivalence pipeline does not consult), so the service is
  // right to serve the later entry from the earlier one's cache line.
  // Track keys so the test asserts exactly that.
  std::set<std::string> Seen;
  size_t Pairs = 0, Duplicates = 0;
  for (const CorpusPair &P : CorpusPairs) {
    std::string LeftText, RightText;
    ASSERT_TRUE(readFile(Dir + "/" + P.LeftFile, LeftText)) << P.Label;
    ASSERT_TRUE(readFile(Dir + "/" + P.RightFile, RightText)) << P.Label;

    core::CheckOptions Options;
    Options.MaxIterations = P.Budgeted ? 500 : 20000;
    core::CheckRequest Req;
    std::vector<std::string> Errors;
    ASSERT_TRUE(core::checkRequestFromSurface(LeftText, RightText, Options,
                                              Req, Errors, P.LeftFile,
                                              P.RightFile))
        << P.Label << ": " << (Errors.empty() ? "?" : Errors.front());

    bool Dup = !Seen.insert(serve::makeCacheKey(Req).Canonical).second;
    Duplicates += Dup;
    serve::CheckService::Outcome Cold = Svc->submit(Req);
    ASSERT_FALSE(Cold.rejected()) << P.Label;
    EXPECT_EQ(Cold.CacheHit, Dup) << P.Label;

    serve::CheckService::Outcome Warm = Svc->submit(Req);
    ASSERT_FALSE(Warm.rejected()) << P.Label;
    EXPECT_TRUE(Warm.CacheHit) << P.Label;
    EXPECT_EQ(Warm.Result.V, Cold.Result.V) << P.Label;
    EXPECT_EQ(Warm.Result.FailureReason, Cold.Result.FailureReason)
        << P.Label;
    EXPECT_EQ(Warm.CertificateText, Cold.CertificateText) << P.Label;
    expectStatsEqual(Warm.Result.Stats, Cold.Result.Stats);
    ++Pairs;
  }
  ASSERT_EQ(Pairs, sizeof(CorpusPairs) / sizeof(CorpusPairs[0]));

  serve::CheckService::Stats S = Svc->stats();
  EXPECT_EQ(S.Computed, Pairs - Duplicates);
  EXPECT_EQ(S.Cache.Hits, Pairs + Duplicates);
  EXPECT_EQ(S.Cache.Collisions, 0u);
}

//===----------------------------------------------------------------------===//
// Lanes: two checks on two threads at once.
//===----------------------------------------------------------------------===//

/// A check response with the fields that may differ between two runs of
/// the same request removed: the cache disposition and the clocks. What
/// is left — verdict, key fingerprint, deterministic stats, failure text,
/// certificate key — must be bit-identical however the service is laned.
std::string stableRecord(const std::string &Line) {
  serve::Json R;
  std::string Err;
  EXPECT_TRUE(serve::Json::parse(Line, R, &Err)) << Err;
  serve::Json Out = serve::Json::object();
  for (const auto &KV : R.fields()) {
    if (KV.first == "cache" || KV.first == "micros")
      continue;
    if (KV.first != "stats") {
      Out.set(KV.first, KV.second);
      continue;
    }
    serve::Json Stats = serve::Json::object();
    for (const auto &Stat : KV.second.fields())
      if (Stat.first != "wall_micros" && Stat.first != "solver_micros")
        Stats.set(Stat.first, Stat.second);
    Out.set("stats", Stats);
  }
  return Out.serialize();
}

TEST(Lanes, ConcurrentClientsMatchOneLaneRecords) {
  std::string Dir = corpusDir();
  if (Dir.empty())
    GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";

  // Two clients, each with its own corpus pairs (equivalent and refuted
  // alike), so the two lanes run different checks at the same time.
  const std::vector<std::pair<const char *, const char *>> Client[2] = {
      {{"tunnel.lfp", "tunnel_opt.lfp"},
       {"ipv6_chain.lfp", "ipv6_chain_bug.lfp"},
       {"quic_varint.lfp", "quic_varint_opt.lfp"},
       {"state_rearrangement_left.lfp", "state_rearrangement_right.lfp"}},
      {{"vlan_qinq.lfp", "vlan_qinq_opt.lfp"},
       {"tunnel.lfp", "tunnel_bug.lfp"},
       {"ipv6_chain.lfp", "ipv6_chain_opt.lfp"},
       {"header_initialization_left.lfp",
        "header_initialization_right.lfp"}},
  };
  std::vector<std::string> Lines[2];
  for (size_t C = 0; C < 2; ++C)
    for (const auto &Pair : Client[C]) {
      std::string Left, Right;
      ASSERT_TRUE(readFile(Dir + "/" + Pair.first, Left)) << Pair.first;
      ASSERT_TRUE(readFile(Dir + "/" + Pair.second, Right)) << Pair.second;
      serve::Json Req = serve::Json::object();
      Req.set("op", serve::Json::str("check"));
      Req.set("left", serve::Json::str(Left));
      Req.set("right", serve::Json::str(Right));
      Lines[C].push_back(Req.serialize());
    }

  serve::ServiceConfig Laned = basicConfig();
  Laned.Lanes = 2;
  std::string Err;
  auto Two = serve::Server::create(Laned, &Err);
  ASSERT_NE(Two, nullptr) << Err;
  std::vector<std::string> Records[2];
  std::atomic<int> Ready{0};
  auto RunClient = [&](size_t C) {
    // Start both clients together so their first checks overlap.
    ++Ready;
    while (Ready.load() < 2)
      std::this_thread::yield();
    for (const std::string &Line : Lines[C])
      Records[C].push_back(Two->handleLine(Line));
  };
  std::thread Second(RunClient, 1);
  RunClient(0);
  Second.join();

  auto One = basicServer();
  ASSERT_NE(One, nullptr);
  for (size_t C = 0; C < 2; ++C) {
    ASSERT_EQ(Records[C].size(), Lines[C].size());
    for (size_t I = 0; I < Lines[C].size(); ++I) {
      std::string Got = stableRecord(Records[C][I]);
      EXPECT_NE(Got.find("\"ok\":true"), std::string::npos) << Got;
      EXPECT_EQ(Got, stableRecord(One->handleLine(Lines[C][I])))
          << "client " << C << " request " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Streaming certificates through the service: the `cert` op end to end
// over a real socket, structured misses, and the on-disk store surviving
// a daemon restart.
//===----------------------------------------------------------------------===//

std::string certcheckPath() {
  const char *Env = std::getenv("LEAPFROG_CERTCHECK");
  return Env && *Env ? Env : "";
}

/// Pipes \p CertText through the standalone leapfrog-certcheck binary,
/// pinned to \p ExpectFp; returns its exit status or -1 when CTest did
/// not export the binary's path.
int pipeThroughCertcheck(const std::string &CertText,
                         const std::string &ExpectFp) {
  std::string Bin = certcheckPath();
  if (Bin.empty())
    return -1;
  std::string TmpFile = ::testing::TempDir() + "servetest_cert.lfc";
  {
    std::ofstream Out(TmpFile, std::ios::binary | std::ios::trunc);
    Out.write(CertText.data(), std::streamsize(CertText.size()));
  }
  std::string Cmd =
      Bin + " --quiet --fingerprint " + ExpectFp + " " + TmpFile +
      " 2>/dev/null";
  int Status = std::system(Cmd.c_str());
  std::remove(TmpFile.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : 127;
}

TEST(Server, CertifiedCheckServesVerifiableCertificateOverSocket) {
  serve::ServiceConfig Cfg = basicConfig();
  Cfg.Engine.Certify = true;
  std::string Err;
  auto S = serve::Server::create(Cfg, &Err);
  ASSERT_NE(S, nullptr) << Err;

  const std::string Path = "servetest-cert.sock";
  std::thread ServerThread([&] { EXPECT_EQ(S->runSocket(Path), 0); });

  int Fd = -1;
  for (int Attempt = 0; Attempt < 200; ++Attempt) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      break;
    ::close(Fd);
    Fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(Fd, 0) << "could not connect to " << Path;

  auto roundTrip = [&](const std::string &Line) {
    std::string Out = Line + "\n";
    EXPECT_EQ(::write(Fd, Out.data(), Out.size()), ssize_t(Out.size()));
    std::string Buf;
    char C;
    while (::read(Fd, &C, 1) == 1 && C != '\n')
      Buf += C;
    serve::Json R;
    std::string ParseErr;
    EXPECT_TRUE(serve::Json::parse(Buf, R, &ParseErr)) << ParseErr;
    return R;
  };

  serve::Json Check = roundTrip(checkRequestLine(LfpA, LfpB).serialize());
  ASSERT_TRUE(Check.getBool("ok", false)) << Check.serialize();
  EXPECT_EQ(Check.getString("verdict"), "equivalent");
  std::string Key = Check.getString("certificate_key");
  ASSERT_EQ(Key.size(), 32u);

  // Fetch the certificate over the same connection; the wire carries the
  // raw LFCERT text, which the engine-free verifier must accept pinned
  // to the key it was fetched under.
  serve::Json Cert = roundTrip("{\"op\":\"cert\",\"key\":\"" + Key + "\"}");
  ASSERT_TRUE(Cert.getBool("ok", false)) << Cert.serialize();
  std::string Text = Cert.getString("certificate");
  ASSERT_FALSE(Text.empty());
  EXPECT_EQ(Text.compare(0, 7, "LFCERT "), 0);
  cert::VerifyOptions Pin;
  Pin.ExpectFingerprintHex = Key;
  cert::VerifyResult V = cert::verifyCertificate(Text, Pin);
  EXPECT_TRUE(V.Ok) << V.Diagnostic;
  EXPECT_GT(V.Stats.Goals, 0u);

  // And through the standalone binary, when CTest exported it.
  int Exit = pipeThroughCertcheck(Text, Key);
  if (Exit >= 0) {
    EXPECT_EQ(Exit, 0) << "leapfrog-certcheck rejected the served cert";
  }

  // Structured misses keep the connection alive: an unknown key and a
  // refuted pair (which caches a result but never a certificate).
  serve::Json Unknown = roundTrip(
      "{\"op\":\"cert\",\"key\":\"00000000000000000000000000000000\"}");
  EXPECT_FALSE(Unknown.getBool("ok", true));
  EXPECT_NE(Unknown.getString("error").find("no certificate cached"),
            std::string::npos);

  serve::Json Refuted = roundTrip(checkRequestLine(LfpA, LfpBug).serialize());
  ASSERT_TRUE(Refuted.getBool("ok", false));
  EXPECT_EQ(Refuted.getString("verdict"), "not_equivalent");
  EXPECT_FALSE(Refuted.has("certificate_key"));
  std::string RefutedFp = Refuted.getString("fingerprint");
  ASSERT_EQ(RefutedFp.size(), 32u);
  serve::Json RefutedCert =
      roundTrip("{\"op\":\"cert\",\"key\":\"" + RefutedFp + "\"}");
  EXPECT_FALSE(RefutedCert.getBool("ok", true));
  EXPECT_NE(RefutedCert.getString("error").find("no certificate cached"),
            std::string::npos);

  serve::Json Bye = roundTrip("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(Bye.getBool("bye", false));
  ::close(Fd);
  ServerThread.join();
}

TEST(CheckService, RestartedServiceServesStoredCertificate) {
  std::string StoreDir = ::testing::TempDir() + "servetest-certstore";
  serve::ServiceConfig Cfg = basicConfig();
  Cfg.CertStoreDir = StoreDir;

  core::CheckRequest Req = requestFor(LfpA, LfpB);
  std::string FpHex, FirstText;
  {
    std::string Err;
    auto Svc = serve::CheckService::create(Cfg, &Err);
    ASSERT_NE(Svc, nullptr) << Err;
    serve::CheckService::Outcome O = Svc->submit(Req);
    ASSERT_FALSE(O.rejected()) << O.Error;
    ASSERT_EQ(O.Result.V, core::Verdict::Equivalent);
    // A store dir implies certified checks even with Engine.Certify
    // left off in the config.
    ASSERT_FALSE(O.CertificateText.empty());
    FpHex = O.FP.hex();
    FirstText = Svc->certificateByHex(FpHex);
    ASSERT_EQ(FirstText, O.CertificateText);

    // The store holds the LFCZ1-compressed form under <fp>.lfc.
    std::string OnDisk;
    ASSERT_TRUE(readFile(StoreDir + "/" + FpHex + ".lfc", OnDisk));
    EXPECT_TRUE(support::looksCompressed(OnDisk));
    EXPECT_LT(OnDisk.size(), FirstText.size());
  } // daemon goes down; only the store survives

  std::string Err;
  auto Restarted = serve::CheckService::create(Cfg, &Err);
  ASSERT_NE(Restarted, nullptr) << Err;
  // No check ran in this incarnation — the certificate comes off disk,
  // decompressed, bit-identical to what the first daemon served.
  std::string SecondText = Restarted->certificateByHex(FpHex);
  ASSERT_FALSE(SecondText.empty());
  EXPECT_EQ(SecondText, FirstText);

  cert::VerifyOptions Pin;
  Pin.ExpectFingerprintHex = FpHex;
  cert::VerifyResult V = cert::verifyCertificate(SecondText, Pin);
  EXPECT_TRUE(V.Ok) << V.Diagnostic;

  // Unknown keys miss the store too (and never touch the filesystem
  // with anything but a 32-hex-digit name).
  EXPECT_TRUE(
      Restarted->certificateByHex(std::string(32, '0')).empty());
  EXPECT_TRUE(Restarted->certificateByHex("../../etc/passwd").empty());
}

} // namespace
