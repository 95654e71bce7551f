//===- obs/Metrics.cpp - Process-wide metrics registry --------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <sstream>

namespace leapfrog {
namespace obs {

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Counter &Registry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot.reset(new Counter());
  return *Slot;
}

Gauge &Registry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot.reset(new Gauge());
  return *Slot;
}

Histogram &Registry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot.reset(new Histogram());
  return *Slot;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  MetricsSnapshot Snap;
  for (const auto &KV : Counters)
    Snap.Counters[KV.first] = KV.second->value();
  for (const auto &KV : Gauges) {
    MetricsSnapshot::GaugeData G;
    G.Value = KV.second->value();
    G.Peak = KV.second->peak();
    Snap.Gauges[KV.first] = G;
  }
  for (const auto &KV : Histograms) {
    MetricsSnapshot::HistogramData H;
    H.Buckets.resize(Histogram::NumBuckets);
    for (size_t I = 0; I < Histogram::NumBuckets; ++I)
      H.Buckets[I] = KV.second->Buckets[I].load(std::memory_order_relaxed);
    H.Count = KV.second->Count.load(std::memory_order_relaxed);
    H.Sum = KV.second->Sum.load(std::memory_order_relaxed);
    H.Max = KV.second->Max.load(std::memory_order_relaxed);
    Snap.Histograms[KV.first] = std::move(H);
  }
  return Snap;
}

Registry &metrics() {
  static Registry *Global = new Registry();
  return *Global;
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

uint64_t
MetricsSnapshot::HistogramData::quantileUpperBoundMicros(double Q) const {
  if (Count == 0)
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  // Ceiling, not rounding: the p95 of 1 sample is that sample's bucket.
  uint64_t Target = static_cast<uint64_t>(Q * static_cast<double>(Count));
  if (Target * 1.0 < Q * static_cast<double>(Count))
    ++Target;
  if (Target == 0)
    Target = 1;
  uint64_t Cumulative = 0;
  for (size_t I = 0; I < Buckets.size(); ++I) {
    Cumulative += Buckets[I];
    if (Cumulative >= Target)
      return I + 1 == Buckets.size() ? Max : Histogram::bucketBound(I);
  }
  return Max;
}

void MetricsSnapshot::merge(const MetricsSnapshot &Other) {
  for (const auto &KV : Other.Counters)
    Counters[KV.first] += KV.second;
  for (const auto &KV : Other.Gauges) {
    GaugeData &G = Gauges[KV.first];
    G.Value = KV.second.Value;
    G.Peak = std::max(G.Peak, KV.second.Peak);
  }
  for (const auto &KV : Other.Histograms) {
    HistogramData &H = Histograms[KV.first];
    if (H.Buckets.empty())
      H.Buckets.resize(Histogram::NumBuckets);
    for (size_t I = 0; I < KV.second.Buckets.size() && I < H.Buckets.size();
         ++I)
      H.Buckets[I] += KV.second.Buckets[I];
    H.Count += KV.second.Count;
    H.Sum += KV.second.Sum;
    H.Max = std::max(H.Max, KV.second.Max);
  }
}

uint64_t MetricsSnapshot::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

namespace {

std::string prometheusName(const std::string &Name) {
  std::string Out = "leapfrog_";
  for (char C : Name)
    Out += (C == '.' || C == '-') ? '_' : C;
  return Out;
}

} // namespace

std::string MetricsSnapshot::toJson() const {
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &KV : Counters) {
    if (!First)
      Out += ',';
    First = false;
    appendJsonString(Out, KV.first);
    Out += ':' + std::to_string(KV.second);
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &KV : Gauges) {
    if (!First)
      Out += ',';
    First = false;
    appendJsonString(Out, KV.first);
    Out += ":{\"value\":" + std::to_string(KV.second.Value) +
           ",\"peak\":" + std::to_string(KV.second.Peak) + "}";
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &KV : Histograms) {
    if (!First)
      Out += ',';
    First = false;
    appendJsonString(Out, KV.first);
    Out += ":{\"count\":" + std::to_string(KV.second.Count) +
           ",\"sum\":" + std::to_string(KV.second.Sum) +
           ",\"max\":" + std::to_string(KV.second.Max) +
           ",\"p50\":" +
           std::to_string(KV.second.quantileUpperBoundMicros(0.50)) +
           ",\"p95\":" +
           std::to_string(KV.second.quantileUpperBoundMicros(0.95)) +
           ",\"p99\":" +
           std::to_string(KV.second.quantileUpperBoundMicros(0.99)) +
           ",\"buckets\":[";
    for (size_t I = 0; I < KV.second.Buckets.size(); ++I) {
      if (I)
        Out += ',';
      Out += std::to_string(KV.second.Buckets[I]);
    }
    Out += "]}";
  }
  Out += "}}";
  return Out;
}

std::string MetricsSnapshot::toPrometheus() const {
  std::ostringstream Out;
  for (const auto &KV : Counters) {
    std::string Name = prometheusName(KV.first);
    Out << "# TYPE " << Name << " counter\n";
    Out << Name << " " << KV.second << "\n";
  }
  for (const auto &KV : Gauges) {
    std::string Name = prometheusName(KV.first);
    Out << "# TYPE " << Name << " gauge\n";
    Out << Name << " " << KV.second.Value << "\n";
    Out << "# TYPE " << Name << "_peak gauge\n";
    Out << Name << "_peak " << KV.second.Peak << "\n";
  }
  for (const auto &KV : Histograms) {
    std::string Name = prometheusName(KV.first);
    Out << "# TYPE " << Name << " histogram\n";
    uint64_t Cumulative = 0;
    for (size_t I = 0; I < KV.second.Buckets.size(); ++I) {
      Cumulative += KV.second.Buckets[I];
      if (I + 1 == KV.second.Buckets.size())
        Out << Name << "_bucket{le=\"+Inf\"} " << Cumulative << "\n";
      else
        Out << Name << "_bucket{le=\"" << Histogram::bucketBound(I) << "\"} "
            << Cumulative << "\n";
    }
    Out << Name << "_sum " << KV.second.Sum << "\n";
    Out << Name << "_count " << KV.second.Count << "\n";
  }
  return Out.str();
}

} // namespace obs
} // namespace leapfrog
