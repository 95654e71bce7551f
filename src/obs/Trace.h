//===- obs/Trace.h - Structured span/event tracing ------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Span/event recording for the whole engine, emitted as Chrome/Perfetto
// trace_event JSON (the `{"traceEvents":[...]}` array format; open the file
// at https://ui.perfetto.dev). The contract mirrors Metrics.h:
//
//  * Passive: spans record what happened, nothing reads them back. With a
//    sink installed, the verdict, decision stream and certificate bytes are
//    bit-identical to an uninstrumented run — timestamps exist only in the
//    trace output. ObservabilityTest pins this over the study registry.
//  * Cheap when off: the global sink pointer is one relaxed atomic load, so
//    a disabled ScopedSpan is a null check and nothing else. No memory is
//    touched, no clock is read.
//  * Thread-aware: each thread gets a stable small tid from a thread-local
//    counter; nameCurrentThread() emits the `thread_name` metadata event
//    that labels a thread's track on the Perfetto timeline.
//
// Event phases follow the trace_event spec: B/E span pairs (begin/end on the
// same thread), i instants, C counter tracks, M metadata.
//
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_OBS_TRACE_H
#define LEAPFROG_OBS_TRACE_H

#include "obs/Clock.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace leapfrog {
namespace obs {

/// Small pre-rendered argument payload for a span or instant: a flat list of
/// key/value pairs rendered into the event's "args" object. Values are either
/// strings (escaped at serialization time) or integers.
class TraceArgs {
public:
  TraceArgs() = default;

  TraceArgs &add(const char *Key, const std::string &Value) {
    Pairs.push_back({Key, Value, /*IsInt=*/false});
    return *this;
  }

  TraceArgs &add(const char *Key, uint64_t Value) {
    Pairs.push_back({Key, std::to_string(Value), /*IsInt=*/true});
    return *this;
  }

  bool empty() const { return Pairs.empty(); }

private:
  friend class TraceSink;
  struct Pair {
    std::string Key;
    std::string Value;
    bool IsInt;
  };
  std::vector<Pair> Pairs;
};

/// In-memory event log with a single epoch, serialized to Chrome trace_event
/// JSON on demand. Recording takes a mutex — tracing is an explicitly-enabled
/// diagnostic mode, and the lock keeps the format code trivial; the always-on
/// fast path is the *disabled* one (see traceSink()).
class TraceSink {
public:
  TraceSink();

  void begin(const char *Name, const char *Category,
             const TraceArgs &Args = TraceArgs());
  void end();
  void instant(const char *Name, const char *Category,
               const TraceArgs &Args = TraceArgs());
  /// A 'C' counter event: plots Value as a stepped track named Name.
  void counterValue(const char *Name, const char *Category, uint64_t Value);
  /// Emits the thread_name metadata event for the calling thread.
  void nameCurrentThread(const std::string &Name);

  size_t eventCount() const;

  /// The full {"traceEvents":[...]} document (deterministic field order).
  std::string toChromeJson() const;

  /// Writes toChromeJson() to Path; false + Error on I/O failure.
  bool writeChromeJson(const std::string &Path, std::string *Error) const;

private:
  struct Event {
    char Phase; // 'B', 'E', 'i', 'C', 'M'
    const char *Name;
    const char *Category;
    std::string DynamicName; // used when Name is nullptr (metadata payloads)
    uint64_t TsMicros;
    uint32_t Tid;
    TraceArgs Args;
  };

  void record(Event E);

  Clock::TimePoint Epoch;
  mutable std::mutex Mutex;
  std::vector<Event> Events;
};

/// The installed sink, or nullptr when tracing is off. One relaxed load.
TraceSink *traceSink();

/// Installs (or, with nullptr, removes) the process-wide sink. Not
/// synchronized against in-flight spans: install before starting work,
/// remove after it drains — the CLI/daemon lifecycle does exactly that.
void setTraceSink(TraceSink *Sink);

/// Stable per-thread id (1-based, in thread-creation order).
uint32_t currentThreadId();

/// Names the calling thread's track if a sink is installed; no-op otherwise.
void nameCurrentThread(const std::string &Name);

/// RAII B/E span. Captures the sink pointer once at construction, so a span
/// never straddles an install/remove.
class ScopedSpan {
public:
  ScopedSpan(const char *Name, const char *Category)
      : Sink(traceSink()) {
    if (Sink)
      Sink->begin(Name, Category);
  }

  ScopedSpan(const char *Name, const char *Category, const TraceArgs &Args)
      : Sink(traceSink()) {
    if (Sink)
      Sink->begin(Name, Category, Args);
  }

  ~ScopedSpan() {
    if (Sink)
      Sink->end();
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  TraceSink *Sink;
};

} // namespace obs
} // namespace leapfrog

#endif // LEAPFROG_OBS_TRACE_H
