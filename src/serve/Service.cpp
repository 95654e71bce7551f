//===- Service.cpp - The equivalence-checking service ---------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "core/CertificateIo.h"
#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Json.h"
#include "support/Compress.h"

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <sys/stat.h>
#include <unordered_map>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::serve;

namespace {

/// Store keys come off the wire; only a canonical fingerprint hex (32
/// lowercase hex digits, see p4a::Fingerprint::hex) may touch the
/// filesystem.
bool isStoreKey(const std::string &Hex) {
  if (Hex.size() != 32)
    return false;
  for (char C : Hex)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}

std::string storePath(const std::string &Dir, const std::string &Hex) {
  return Dir + "/" + Hex + ".lfc";
}

bool readFileAll(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// tmp + rename so a concurrent reader (or a crash mid-write) never
/// observes a torn certificate; last write wins, which is fine — every
/// writer under one key serializes the same check.
void writeFileAtomic(const std::string &Path, const std::string &Data) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return;
    Out.write(Data.data(), std::streamsize(Data.size()));
    if (!Out)
      return;
  }
  std::rename(Tmp.c_str(), Path.c_str());
}

/// A computation in progress: late arrivals with the same canonical key
/// park here instead of running their own copy.
struct InFlight {
  std::condition_variable CV;
  bool Finished = false;
  /// The completed entry (null if the computing thread died without
  /// finishing — waiters then resubmit is not attempted; they surface a
  /// rejection, which cannot happen in the current single-process
  /// lifecycle but keeps the wait loop total).
  std::shared_ptr<const CacheEntry> Entry;
};

} // namespace

struct CheckService::Impl {
  ServiceConfig Config;
  ResultCache Cache;

  mutable std::mutex M;
  std::condition_variable LaneCV;
  /// Lane engines; Busy[i] marks lane i as running a check. Engines are
  /// only ever driven by the thread that marked their lane busy, which
  /// is core::Engine's single-threaded contract.
  std::vector<std::unique_ptr<core::Engine>> Lanes;
  std::vector<bool> Busy;
  size_t WaitingForLane = 0;
  /// Serializes slow-query log lines (never nested with M).
  std::mutex SlowLogM;
  /// Single-flight table, keyed by the full canonical text (not the
  /// fingerprint — the same never-hash-only discipline as the cache).
  std::unordered_map<std::string, std::shared_ptr<InFlight>> Running;

  Stats St;

  size_t acquireLaneLocked(std::unique_lock<std::mutex> &Lock) {
    static obs::Gauge &QueueDepth =
        obs::metrics().gauge("serve.lane_queue_depth");
    ++WaitingForLane;
    QueueDepth.set(int64_t(WaitingForLane));
    for (;;) {
      for (size_t L = 0; L < Lanes.size(); ++L) {
        if (!Busy[L]) {
          Busy[L] = true;
          --WaitingForLane;
          QueueDepth.set(int64_t(WaitingForLane));
          return L;
        }
      }
      LaneCV.wait(Lock);
    }
  }

  void releaseLane(size_t Lane) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Busy[Lane] = false;
    }
    LaneCV.notify_one();
  }
};

CheckService::CheckService() : I(std::make_unique<Impl>()) {}
CheckService::~CheckService() = default;

std::unique_ptr<CheckService> CheckService::create(const ServiceConfig &Config,
                                                   std::string *Error) {
  std::unique_ptr<CheckService> S(new CheckService());
  S->I->Config = Config;
  if (S->I->Config.Lanes == 0)
    S->I->Config.Lanes = 1;
  if (!S->I->Config.CertStoreDir.empty()) {
    // A store without certified checks would have nothing to put in it.
    S->I->Config.Engine.Certify = true;
    ::mkdir(S->I->Config.CertStoreDir.c_str(), 0755);
  }
  for (size_t L = 0; L < S->I->Config.Lanes; ++L) {
    std::unique_ptr<core::Engine> E =
        core::Engine::create(S->I->Config.Engine, Error);
    if (!E)
      return nullptr; // Error already carries the resolver diagnostic.
    S->I->Lanes.push_back(std::move(E));
  }
  S->I->Busy.assign(S->I->Config.Lanes, false);
  return S;
}

CheckService::Outcome CheckService::submit(const core::CheckRequest &Req) {
  obs::ScopedSpan Span("serve.request", "serve");
  obs::StopWatch Watch;
  auto finish = [&](Outcome O) {
    O.TotalMicros = Watch.elapsedMicros();
    recordOutcome(O);
    return O;
  };

  // 1. Clamp budgets to the service ceilings BEFORE keying: the key must
  // describe the check that actually runs.
  const ServiceConfig &C = I->Config;
  bool ClampIter =
      C.MaxIterationsCap != 0 && (Req.Options.MaxIterations == 0 ||
                                  Req.Options.MaxIterations > C.MaxIterationsCap);
  bool ClampWall =
      C.MaxWallMicrosCap != 0 && (Req.Options.MaxWallMicros == 0 ||
                                  Req.Options.MaxWallMicros > C.MaxWallMicrosCap);
  core::CheckOptions Opts = Req.Options;
  if (ClampIter)
    Opts.MaxIterations = C.MaxIterationsCap;
  if (ClampWall)
    Opts.MaxWallMicros = C.MaxWallMicrosCap;

  // 2. Key on the effective request (outside any lock; canonicalization
  // walks both automata). The automaton copies are cheap relative to any
  // check and keep makeCacheKey's signature simple.
  CacheKey Key;
  {
    core::CheckRequest Probe;
    Probe.Left = Req.Left;
    Probe.Right = Req.Right;
    Probe.LeftStart = Req.LeftStart;
    Probe.RightStart = Req.RightStart;
    Probe.Options = Opts;
    Key = makeCacheKey(Probe);
  }

  std::shared_ptr<InFlight> Flight;
  size_t Lane = 0;
  {
    std::unique_lock<std::mutex> Lock(I->M);
    ++I->St.Submitted;

    // 3. Cache probe.
    if (std::shared_ptr<const CacheEntry> Hit = I->Cache.find(Key)) {
      Outcome O;
      O.CacheHit = true;
      O.FP = Key.FP;
      O.Result = Hit->Result;
      O.CertificateText = Hit->CertificateText;
      return finish(O);
    }

    // 4. Single-flight: park on a computation already running this key.
    auto It = I->Running.find(Key.Canonical);
    if (It != I->Running.end()) {
      std::shared_ptr<InFlight> F = It->second;
      ++I->St.Coalesced;
      F->CV.wait(Lock, [&] { return F->Finished; });
      Outcome O;
      O.Shared = true;
      O.FP = Key.FP;
      if (F->Entry) {
        O.Result = F->Entry->Result;
        O.CertificateText = F->Entry->CertificateText;
      } else {
        O.S = Outcome::Status::Rejected;
        O.Error = "shared computation aborted";
      }
      return finish(O);
    }

    // 5. Admission: bounded waiting room.
    if (I->WaitingForLane >= I->Config.MaxQueue) {
      bool LaneFree = false;
      for (size_t L = 0; L < I->Lanes.size(); ++L)
        LaneFree = LaneFree || !I->Busy[L];
      if (!LaneFree) {
        ++I->St.RejectedQueueFull;
        Outcome O;
        O.S = Outcome::Status::Rejected;
        O.FP = Key.FP;
        O.Error = "queue full: " + std::to_string(I->WaitingForLane) +
                  " requests already waiting for " +
                  std::to_string(I->Lanes.size()) + " lanes";
        return finish(O);
      }
    }

    Flight = std::make_shared<InFlight>();
    I->Running.emplace(Key.Canonical, Flight);
    Lane = I->acquireLaneLocked(Lock);
    ++I->St.Computed;
  }

  // 6. Compute, outside every lock, on the lane's warm engine.
  core::CheckResult Result =
      I->Lanes[Lane]->check(Req.Left, Req.Right, Req.Spec, Opts);
  I->releaseLane(Lane);

  auto Entry = std::make_shared<CacheEntry>();
  Entry->Key = Key;
  Entry->Result = Result;
  if (Result.V == core::Verdict::Equivalent) {
    if (I->Config.Engine.Certify) {
      // The checkable artifact: full LFCERT text, streams included,
      // pinned to the cache-key fingerprint the `cert` op looks up.
      Entry->CertificateText = core::serializeCertificate(
          Req.Left, Req.Right, Result.Certificate, Result.Proof.get(),
          Key.FP.hex());
      if (!I->Config.CertStoreDir.empty())
        writeFileAtomic(storePath(I->Config.CertStoreDir, Key.FP.hex()),
                        core::compressCertificate(Entry->CertificateText));
    } else {
      Entry->CertificateText = Result.Certificate.str(Req.Left, Req.Right);
    }
  }

  {
    std::lock_guard<std::mutex> Lock(I->M);
    // BadRequest means the request never ran — nothing worth caching,
    // and admitting it to the cache would let a transient misconfig
    // shadow a later valid run under the same key.
    if (Result.V != core::Verdict::BadRequest)
      I->Cache.insert(Entry);
    Flight->Entry = Entry;
    Flight->Finished = true;
    I->Running.erase(Key.Canonical);
  }
  Flight->CV.notify_all();

  Outcome O;
  O.FP = Key.FP;
  O.Result = std::move(Result);
  O.CertificateText = Entry->CertificateText;
  return finish(O);
}

void CheckService::recordOutcome(const Outcome &O) {
  obs::Registry &M = obs::metrics();
  static obs::Histogram &RequestLatency =
      M.histogram("serve.request_micros");
  static obs::Counter &CacheHits = M.counter("serve.cache_hits");
  static obs::Counter &CacheMisses = M.counter("serve.cache_misses");
  static obs::Counter &Coalesced = M.counter("serve.coalesced");
  static obs::Counter &Rejected = M.counter("serve.rejected");
  static obs::Counter &SlowQueries = M.counter("serve.slow_queries");
  RequestLatency.observe(O.TotalMicros);
  if (O.rejected())
    Rejected.add();
  else if (O.CacheHit)
    CacheHits.add();
  else if (O.Shared)
    Coalesced.add();
  else
    CacheMisses.add();

  if (I->Config.SlowMicros == 0 || O.TotalMicros < I->Config.SlowMicros)
    return;
  SlowQueries.add();
  // One structured line per slow submission (docs/SERVICE.md). The write
  // is serialized under its own mutex (finish() runs with the service
  // mutex held on the cache-hit and coalesced paths) so concurrent lanes
  // cannot interleave bytes within a line.
  Json Line = Json::object();
  Line.set("slow_query", Json::boolean(true));
  Line.set("micros", Json::unsignedInt(O.TotalMicros));
  Line.set("threshold_micros", Json::unsignedInt(I->Config.SlowMicros));
  Line.set("source", Json::str(O.rejected()   ? "rejected"
                               : O.CacheHit   ? "cache_hit"
                               : O.Shared     ? "coalesced"
                                              : "computed"));
  Line.set("fingerprint", Json::str(O.FP.hex()));
  if (!O.rejected()) {
    const char *V = "bad_request";
    switch (O.Result.V) {
    case core::Verdict::Equivalent:
      V = "equivalent";
      break;
    case core::Verdict::NotEquivalent:
      V = "not_equivalent";
      break;
    case core::Verdict::ResourceLimit:
      V = "resource_limit";
      break;
    case core::Verdict::BadRequest:
      V = "bad_request";
      break;
    }
    Line.set("verdict", Json::str(V));
    Line.set("iterations", Json::unsignedInt(O.Result.Stats.Iterations));
    Line.set("smt_queries", Json::unsignedInt(O.Result.Stats.SmtQueries));
  } else {
    Line.set("error", Json::str(O.Error));
  }
  std::ostream &Out = I->Config.SlowLog ? *I->Config.SlowLog : std::cerr;
  std::lock_guard<std::mutex> Lock(I->SlowLogM);
  Out << Line.serialize() << "\n";
  Out.flush();
}

std::string CheckService::certificateByHex(const std::string &Hex) {
  std::shared_ptr<const CacheEntry> E = I->Cache.findByHex(Hex);
  if (E && !E->CertificateText.empty())
    return E->CertificateText;
  // Disk fallback: a restarted daemon has an empty cache but a full
  // store. Serve the decompressed text — the wire is always textual.
  if (!I->Config.CertStoreDir.empty() && isStoreKey(Hex)) {
    std::string Blob;
    if (readFileAll(storePath(I->Config.CertStoreDir, Hex), Blob)) {
      if (!support::looksCompressed(Blob))
        return Blob;
      std::string Raw;
      if (support::decompress(Blob, Raw, nullptr))
        return Raw;
    }
  }
  return std::string();
}

CheckService::Stats CheckService::stats() const {
  std::lock_guard<std::mutex> Lock(I->M);
  Stats S = I->St;
  S.Cache = I->Cache.stats();
  return S;
}

const ServiceConfig &CheckService::config() const { return I->Config; }

