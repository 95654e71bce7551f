//===- obs/Trace.cpp - Structured span/event tracing ----------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "support/StringUtils.h"

#include <fstream>

namespace leapfrog {
namespace obs {

namespace {

std::atomic<TraceSink *> GlobalSink{nullptr};

uint32_t nextThreadId() {
  static std::atomic<uint32_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

TraceSink *traceSink() { return GlobalSink.load(std::memory_order_relaxed); }

void setTraceSink(TraceSink *Sink) {
  GlobalSink.store(Sink, std::memory_order_release);
}

uint32_t currentThreadId() {
  static thread_local uint32_t Id = nextThreadId();
  return Id;
}

void nameCurrentThread(const std::string &Name) {
  if (TraceSink *Sink = traceSink())
    Sink->nameCurrentThread(Name);
}

TraceSink::TraceSink() : Epoch(Clock::now()) {}

void TraceSink::record(Event E) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.push_back(std::move(E));
}

void TraceSink::begin(const char *Name, const char *Category,
                      const TraceArgs &Args) {
  Event E;
  E.Phase = 'B';
  E.Name = Name;
  E.Category = Category;
  E.TsMicros = Clock::microsSince(Epoch);
  E.Tid = currentThreadId();
  E.Args = Args;
  record(std::move(E));
}

void TraceSink::end() {
  Event E;
  E.Phase = 'E';
  E.Name = nullptr;
  E.Category = nullptr;
  E.TsMicros = Clock::microsSince(Epoch);
  E.Tid = currentThreadId();
  record(std::move(E));
}

void TraceSink::instant(const char *Name, const char *Category,
                        const TraceArgs &Args) {
  Event E;
  E.Phase = 'i';
  E.Name = Name;
  E.Category = Category;
  E.TsMicros = Clock::microsSince(Epoch);
  E.Tid = currentThreadId();
  E.Args = Args;
  record(std::move(E));
}

void TraceSink::counterValue(const char *Name, const char *Category,
                             uint64_t Value) {
  Event E;
  E.Phase = 'C';
  E.Name = Name;
  E.Category = Category;
  E.TsMicros = Clock::microsSince(Epoch);
  E.Tid = currentThreadId();
  E.Args.add("value", Value);
  record(std::move(E));
}

void TraceSink::nameCurrentThread(const std::string &Name) {
  Event E;
  E.Phase = 'M';
  E.Name = nullptr;
  E.Category = nullptr;
  E.DynamicName = Name;
  E.TsMicros = Clock::microsSince(Epoch);
  E.Tid = currentThreadId();
  record(std::move(E));
}

size_t TraceSink::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.size();
}

std::string TraceSink::toChromeJson() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  for (const Event &E : Events) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"ph\":\"";
    Out += E.Phase;
    Out += "\",\"pid\":1,\"tid\":" + std::to_string(E.Tid) +
           ",\"ts\":" + std::to_string(E.TsMicros);
    if (E.Phase == 'M') {
      // Thread-name metadata: the name lives in args, per the spec.
      Out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
      appendJsonString(Out, E.DynamicName);
      Out += "}}";
      continue;
    }
    if (E.Name) {
      Out += ",\"name\":";
      appendJsonString(Out, E.Name);
    }
    if (E.Category) {
      Out += ",\"cat\":";
      appendJsonString(Out, E.Category);
    }
    if (E.Phase == 'i')
      Out += ",\"s\":\"t\"";
    if (!E.Args.Pairs.empty()) {
      Out += ",\"args\":{";
      bool FirstArg = true;
      for (const TraceArgs::Pair &P : E.Args.Pairs) {
        if (!FirstArg)
          Out += ',';
        FirstArg = false;
        appendJsonString(Out, P.Key);
        Out += ':';
        if (P.IsInt)
          Out += P.Value;
        else
          appendJsonString(Out, P.Value);
      }
      Out += '}';
    }
    Out += '}';
  }
  Out += "]}";
  return Out;
}

bool TraceSink::writeChromeJson(const std::string &Path,
                                std::string *Error) const {
  std::ofstream OutFile(Path, std::ios::binary);
  if (!OutFile) {
    if (Error)
      *Error = "cannot open trace output file: " + Path;
    return false;
  }
  OutFile << toChromeJson() << "\n";
  OutFile.flush();
  if (!OutFile) {
    if (Error)
      *Error = "short write to trace output file: " + Path;
    return false;
  }
  return true;
}

} // namespace obs
} // namespace leapfrog
