//===- Cache.h - Fingerprint-keyed result cache -----------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's result cache: completed CheckResults keyed by the
/// canonical identity of (parser pair, effective options). Equivalence
/// checks cost seconds to minutes; a repeat submission — a CI job
/// re-verifying an unchanged parser, a client retrying after a timeout —
/// should cost a hash probe and a string compare.
///
/// The key is two-layered, and the layering is the collision-safety
/// argument:
///
///  1. A 128-bit pair fingerprint (p4a/Fingerprint.h: rooted canonical
///     forms of both sides, combined order-sensitively) selects the
///     bucket. This is the fast path and the wire-visible handle.
///  2. The *full canonical text* — both canonical forms plus a rendering
///     of every verdict-relevant option — is stored beside each entry
///     and compared byte-for-byte on every probe. A hash match with a
///     text mismatch is a detected collision (counted, never served),
///     not a wrong answer.
///
/// Layer 2 is not optional paranoia. PR 3's frontier dedup served a
/// stale decision off a 64-bit hash equality and produced a wrong
/// verdict on a generated pair; the fix — compare the real key, always —
/// is cheap (the canonical text is already in memory, and mismatching
/// texts diverge within a few bytes) and turns a correctness bug into a
/// counter increment. A service that answers "equivalent" from a cache
/// must never let a hash stand in for the equality it approximates.
///
/// Verdict-relevant options in the key: the ablation switches (UseLeaps,
/// UseReachability — they change what ResourceLimit budgets mean and
/// which pairs terminate), the budgets themselves (MaxIterations,
/// MaxWallMicros — a ResourceLimit under a small budget says nothing
/// about a larger one), UseIncremental and the session Limits (answers
/// are identical by contract, but stats are not, and the cache promises
/// bit-identical stats), RecordTrace, and GoalBatch (verdict-identical
/// by construction, but it folds adjacent goals into shared solver calls
/// and so shifts the SmtQueries stat). Excluded: the backend (backends
/// change performance, never verdicts; and the backend is engine-level,
/// fixed for the service's lifetime). MaxWallMicros is a key component
/// *and* inherently racy —
/// the same pair under the same wall budget can finish or not on a
/// loaded machine; the cache makes repeat answers deterministic, which
/// is strictly better than re-racing the clock.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SERVE_CACHE_H
#define LEAPFROG_SERVE_CACHE_H

#include "core/Engine.h"
#include "p4a/Fingerprint.h"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace leapfrog {
namespace serve {

/// The two-layer cache key (see the file comment). FP is always the
/// fingerprint *of Canonical* — makeCacheKey maintains this; tests
/// constructing keys by hand to force collisions deliberately break it.
struct CacheKey {
  p4a::Fingerprint FP;
  std::string Canonical;
};

/// Builds the canonical key of \p Req: both sides' rooted canonical
/// forms plus the verdict-relevant option rendering, fingerprinted as
/// one byte string. Pure; call it outside any lock.
CacheKey makeCacheKey(const core::CheckRequest &Req);

/// A completed check, immutable once inserted. Shared out to concurrent
/// readers by pointer, so a hit never copies the (possibly large) trace
/// or certificate.
struct CacheEntry {
  CacheKey Key;
  core::CheckResult Result;
  /// The certificate rendered once at insert time (empty unless the
  /// verdict is Equivalent) — what the `cert` protocol op returns.
  std::string CertificateText;
};

/// Thread-safe fingerprint-keyed store. Unbounded: an entry is a few
/// kilobytes and the service's working set is a corpus, not the
/// internet; an eviction policy can bolt on later without touching the
/// probe discipline.
class ResultCache {
public:
  struct Stats {
    size_t Hits = 0;
    size_t Misses = 0;
    /// Probes whose fingerprint matched an entry but whose canonical
    /// text did not — detected collisions, never served.
    size_t Collisions = 0;
    size_t Entries = 0;
  };

  /// Probes for \p Key. A hit requires fingerprint equality AND full
  /// canonical-text equality — never hash-only.
  std::shared_ptr<const CacheEntry> find(const CacheKey &Key);

  /// Inserts a completed entry (no-op if an entry with the same
  /// canonical text is already present — the single-flight layer above
  /// makes that rare but shutdown races make it possible).
  void insert(std::shared_ptr<const CacheEntry> Entry);

  /// First entry whose pair fingerprint renders as \p Hex (the wire
  /// handle of the `cert` op). Null when absent.
  std::shared_ptr<const CacheEntry> findByHex(const std::string &Hex);

  Stats stats() const;

private:
  mutable std::mutex M;
  /// Buckets: fingerprint -> entries whose keys share it. More than one
  /// entry per bucket means a live collision.
  std::unordered_map<p4a::Fingerprint,
                     std::vector<std::shared_ptr<const CacheEntry>>,
                     p4a::FingerprintHasher>
      Map;
  Stats St;
};

} // namespace serve
} // namespace leapfrog

#endif // LEAPFROG_SERVE_CACHE_H
