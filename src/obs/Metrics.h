//===- obs/Metrics.h - Process-wide metrics registry ----------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A dependency-free registry of named counters, gauges and fixed-bucket
// latency histograms, shared by every layer of the engine (SAT core, SMT
// sessions, external backends, checker, service). Design
// rules, in priority order:
//
//  1. Passive. Nothing here feeds back into the search: metrics are written,
//     never read, on the hot path. Snapshots are for humans and tools.
//  2. Cheap. The record path is a relaxed atomic add (histograms: a bucket
//     index computation plus three relaxed adds and a CAS max). Name lookup
//     happens once per call site — callers cache the returned handle in a
//     function-local static — so the registry mutex is off the hot path.
//  3. Mergeable: counters and histogram buckets add, gauges take the last
//     value, peaks max. Merge is associative, which the ObservabilityTest
//     suite pins.
//
// Rendering is deterministic (names sorted, integers only) so snapshots can
// be compared byte-wise in tests; toJson() emits a single-line JSON object
// and toPrometheus() the text exposition format.
//
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_OBS_METRICS_H
#define LEAPFROG_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace leapfrog {
namespace obs {

/// Monotone event count. Relaxed increments; readers see a consistent value
/// only through Registry::snapshot().
class Counter {
public:
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }

  uint64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Instantaneous level (queue depth, live sessions). set/add are relaxed; the
/// snapshot records the current level plus the high-water mark.
class Gauge {
public:
  void set(int64_t V) {
    Value.store(V, std::memory_order_relaxed);
    maxPeak(V);
  }

  void add(int64_t Delta) {
    int64_t Now = Value.fetch_add(Delta, std::memory_order_relaxed) + Delta;
    maxPeak(Now);
  }

  int64_t value() const { return Value.load(std::memory_order_relaxed); }

  int64_t peak() const { return Peak.load(std::memory_order_relaxed); }

private:
  void maxPeak(int64_t V) {
    int64_t Cur = Peak.load(std::memory_order_relaxed);
    while (V > Cur &&
           !Peak.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> Value{0};
  std::atomic<int64_t> Peak{0};
};

/// Fixed-bucket latency histogram. Buckets are powers of two from 1us up to
/// 2^(NumBuckets-2) us, with the last bucket catching everything beyond —
/// exponential resolution matches how solve latencies actually spread (most
/// queries finish in tens of microseconds, stragglers in seconds). Fixed
/// geometry is what makes snapshots mergeable bucket-wise.
class Histogram {
public:
  static constexpr size_t NumBuckets = 28;

  /// Upper bound (inclusive) of bucket I in microseconds; the final bucket
  /// is unbounded.
  static uint64_t bucketBound(size_t I) { return uint64_t(1) << I; }

  void observe(uint64_t Micros) {
    Buckets[bucketIndex(Micros)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Micros, std::memory_order_relaxed);
    uint64_t Cur = Max.load(std::memory_order_relaxed);
    while (Micros > Cur &&
           !Max.compare_exchange_weak(Cur, Micros, std::memory_order_relaxed)) {
    }
  }

  static size_t bucketIndex(uint64_t Micros) {
    size_t I = 0;
    while (I + 1 < NumBuckets && Micros > bucketBound(I))
      ++I;
    return I;
  }

private:
  friend class Registry;
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
};

/// A point-in-time copy of a registry, detached from the atomics. Snapshots
/// are plain data: mergeable, comparable, renderable.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<uint64_t> Buckets; // size Histogram::NumBuckets
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Max = 0;

    /// Smallest bucket upper bound B with cumulative count >= Q*Count.
    /// Returns 0 on an empty histogram.
    uint64_t quantileUpperBoundMicros(double Q) const;
  };

  struct GaugeData {
    int64_t Value = 0;
    int64_t Peak = 0;
  };

  std::map<std::string, uint64_t> Counters;
  std::map<std::string, GaugeData> Gauges;
  std::map<std::string, HistogramData> Histograms;

  /// Counters and histogram buckets add; gauges take the other side's value
  /// (last writer wins) and max peaks. Associative and commutative except
  /// for the gauge value, which is last-wins by construction.
  void merge(const MetricsSnapshot &Other);

  uint64_t counter(const std::string &Name) const;

  /// Deterministic single-line JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string toJson() const;

  /// Prometheus text exposition (counters, gauges, cumulative histogram
  /// buckets with +Inf, _sum and _count series). Metric names have '.'
  /// mapped to '_' to satisfy the Prometheus grammar.
  std::string toPrometheus() const;
};

/// Named-handle registry. Handles are stable for the registry's lifetime
/// (nodes are heap-allocated behind the map), so call sites cache them:
///
///   static obs::Counter &Restarts = obs::metrics().counter("sat.restarts");
///   Restarts.add();
///
/// The process-wide instance from obs::metrics() lives forever; tests build
/// private registries to exercise snapshot/merge in isolation.
class Registry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  MetricsSnapshot snapshot() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// The process-wide registry (never destroyed, safe from static destructors
/// and detached threads alike).
Registry &metrics();

} // namespace obs
} // namespace leapfrog

#endif // LEAPFROG_OBS_METRICS_H
