//===- Service.h - The equivalence-checking service -------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer between the wire protocol (serve/Server.h) and the
/// engine API (core/Engine.h): a CheckService owns a fixed set of warm
/// engine *lanes*, the result cache, and the single-flight table, and
/// turns concurrent submit() calls into at-most-one computation per
/// canonical request.
///
/// The submit() pipeline, in order:
///
///   1. Budget clamping — per-request budgets are capped by the service
///      configuration *before* the cache key is built, so a request
///      asking for more than the service allows keys on what it will
///      actually get.
///   2. Cache probe — full canonical comparison (serve/Cache.h).
///   3. Single-flight — a second submission of a request already being
///      computed parks on the in-flight entry's condition variable and
///      shares its result ("computed once" is observable: the entry is
///      inserted into the cache exactly once).
///   4. Admission — if more submissions are waiting for a lane than
///      MaxQueue allows, reject now with a structured error rather than
///      queue without bound; a rejected request costs the client a
///      resubmit, an unbounded queue costs the operator the process.
///   5. Lane acquisition + compute — one engine per lane, each with its
///      warm backend; the check runs outside every lock.
///
/// Thread-safety: submit() may be called from any number of threads
/// (the socket server runs one per connection); each *lane* is single-
/// threaded by construction, which is exactly the threading contract
/// core::Engine demands. One check runs on one thread; independent
/// checks run at the same time only on different lanes.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SERVE_SERVICE_H
#define LEAPFROG_SERVE_SERVICE_H

#include "core/Engine.h"
#include "serve/Cache.h"

#include <iosfwd>
#include <memory>
#include <string>

namespace leapfrog {
namespace serve {

struct ServiceConfig {
  /// Backend spec for every lane engine (lanes are homogeneous; an
  /// unresolvable backend fails CheckService::create, structured).
  core::EngineConfig Engine;
  /// Concurrent computations (one warm engine each). Each lane of an
  /// external backend holds one resident solver process.
  size_t Lanes = 1;
  /// Service-side ceilings on per-request budgets; 0 = no ceiling. A
  /// request asking for 0 (= unlimited) or more than the cap is clamped
  /// *down* to the cap before keying and running.
  size_t MaxIterationsCap = 0;
  uint64_t MaxWallMicrosCap = 0;
  /// Admission bound: maximum submissions allowed to wait for a lane
  /// (excludes the ones running and the ones sharing an in-flight
  /// computation, which hold no lane). 0 = reject unless a lane is free.
  size_t MaxQueue = 64;
  /// Slow-query log threshold: a submit() whose end-to-end wall time
  /// reaches this many microseconds is reported as one structured JSON
  /// line (docs/SERVICE.md). 0 disables the log entirely.
  uint64_t SlowMicros = 0;
  /// Where slow-query lines go; nullptr means stderr. Tests point this
  /// at a string stream to pin the line format deterministically.
  std::ostream *SlowLog = nullptr;
  /// On-disk certificate store. Non-empty implies certified checks
  /// (Engine.Certify is forced on): every Equivalent verdict is rendered
  /// to LFCERT text pinned to its cache-key fingerprint, compressed to
  /// LFCZ1 and written to `<CertStoreDir>/<fphex>.lfc` (tmp + rename, so
  /// readers never see a torn file). certificateByHex falls back to this
  /// store when the in-memory cache misses — a restarted daemon serves
  /// the bit-identical certificate it wrote before going down.
  std::string CertStoreDir;
};

class CheckService {
public:
  /// What one submission came back with.
  struct Outcome {
    enum class Status {
      Done,    ///< Result is meaningful (any verdict, BadRequest included).
      Rejected ///< Admission control refused to run it; Error says why.
    };
    Status S = Status::Done;
    std::string Error;
    /// Served from the completed-result cache (full canonical match).
    bool CacheHit = false;
    /// Coalesced onto a computation another submission started.
    bool Shared = false;
    /// The cache-key fingerprint — the wire handle for `cert` lookups.
    p4a::Fingerprint FP;
    core::CheckResult Result;
    std::string CertificateText;
    /// Wall time of this submit() call end to end (the cache-hit latency
    /// the acceptance criteria compare against cold checks).
    uint64_t TotalMicros = 0;

    bool rejected() const { return S == Status::Rejected; }
  };

  struct Stats {
    ResultCache::Stats Cache;
    size_t Submitted = 0;
    size_t Computed = 0; ///< Ran on a lane (== cache inserts attempted).
    size_t Coalesced = 0;
    size_t RejectedQueueFull = 0;
  };

  /// Builds the lanes (resolving the backend Lanes times — each lane
  /// owns its engine). Fails with a structured error on an unresolvable
  /// backend spec; never warns-and-degrades.
  static std::unique_ptr<CheckService> create(const ServiceConfig &Config,
                                              std::string *Error);

  ~CheckService();

  /// Decides \p Req (or serves it from cache / an in-flight twin).
  /// Blocks until the result is available or admission rejects it.
  Outcome submit(const core::CheckRequest &Req);

  /// Certificate text by cache-key fingerprint hex; empty when unknown
  /// (or the cached verdict carries no certificate). With a CertStoreDir
  /// configured, an in-memory miss falls back to the on-disk store and
  /// returns the decompressed LFCERT text — the wire always carries the
  /// textual form; only the store is compressed.
  std::string certificateByHex(const std::string &Hex);

  Stats stats() const;
  const ServiceConfig &config() const;

private:
  CheckService();
  /// Metrics + slow-query log for one finished submission (every submit
  /// exit path funnels through here). Purely observational.
  void recordOutcome(const Outcome &O);
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace serve
} // namespace leapfrog

#endif // LEAPFROG_SERVE_SERVICE_H
