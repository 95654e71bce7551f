//===- Cache.cpp - Fingerprint-keyed result cache -------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "serve/Cache.h"

using namespace leapfrog;
using namespace leapfrog::serve;

CacheKey serve::makeCacheKey(const core::CheckRequest &Req) {
  // One byte string: left canonical form, right canonical form, then the
  // verdict-relevant options (see the header comment for what is in and
  // what is deliberately out). Each section is delimited so no
  // concatenation of a different split can render identically.
  std::string Canonical;
  Canonical += "=left\n";
  Canonical += p4a::canonicalForm(Req.Left, Req.LeftStart);
  Canonical += "=right\n";
  Canonical += p4a::canonicalForm(Req.Right, Req.RightStart);
  const core::CheckOptions &O = Req.Options;
  Canonical += "=options\n";
  Canonical += "leaps=" + std::to_string(O.UseLeaps ? 1 : 0);
  Canonical += ";reach=" + std::to_string(O.UseReachability ? 1 : 0);
  Canonical += ";incremental=" + std::to_string(O.UseIncremental ? 1 : 0);
  Canonical += ";max_iterations=" + std::to_string(O.MaxIterations);
  Canonical += ";max_wall_micros=" + std::to_string(O.MaxWallMicros);
  Canonical += ";max_learnts=" + std::to_string(O.Limits.MaxLearnts);
  Canonical += ";max_arena_bytes=" + std::to_string(O.Limits.MaxArenaBytes);
  Canonical += ";trace=" + std::to_string(O.RecordTrace ? 1 : 0);
  // GoalBatch is verdict-identical by construction, but it changes
  // SmtQueries and the cache promises bit-identical stats.
  Canonical += ";goal_batch=" + std::to_string(O.GoalBatch);
  Canonical += "\n";

  CacheKey Key;
  Key.FP = p4a::fingerprintBytes(Canonical);
  Key.Canonical = std::move(Canonical);
  return Key;
}

std::shared_ptr<const CacheEntry> ResultCache::find(const CacheKey &Key) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(Key.FP);
  if (It == Map.end()) {
    ++St.Misses;
    return nullptr;
  }
  bool SawCollision = false;
  for (const std::shared_ptr<const CacheEntry> &E : It->second) {
    // The load-bearing line: fingerprint equality alone never serves an
    // answer — the full canonical text must match too.
    if (E->Key.Canonical == Key.Canonical) {
      if (SawCollision)
        ++St.Collisions;
      ++St.Hits;
      return E;
    }
    SawCollision = true;
  }
  ++St.Collisions;
  ++St.Misses;
  return nullptr;
}

void ResultCache::insert(std::shared_ptr<const CacheEntry> Entry) {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::shared_ptr<const CacheEntry>> &Bucket = Map[Entry->Key.FP];
  for (const std::shared_ptr<const CacheEntry> &E : Bucket)
    if (E->Key.Canonical == Entry->Key.Canonical)
      return; // Lost a benign race; the existing entry is equivalent.
  Bucket.push_back(std::move(Entry));
  ++St.Entries;
}

std::shared_ptr<const CacheEntry>
ResultCache::findByHex(const std::string &Hex) {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &KV : Map)
    for (const std::shared_ptr<const CacheEntry> &E : KV.second)
      if (E->Key.FP.hex() == Hex)
        return E;
  return nullptr;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return St;
}
