//===- lfbench.cpp - Runs the perfbench workloads -------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Runs one perfbench workload and prints one JSON object per line: an
// "op" line per decided operation (run.py checks each verdict against
// perfbench/expected.txt) and a final "summary" line with every figure.
//
//   lfbench table2-seq    --corpus DIR --manifest FILE --seed N --seconds S
//   lfbench tv-prefix     --manifest FILE --seed N --seconds S
//   lfbench serve-certify --corpus DIR --manifest FILE --seed N --seconds S
//                         --serve BIN --certcheck BIN --out DIR
//   common: [--trace-out FILE] [--quick]
//
// Every layer is measured from outside: lfbench times calls into the
// public functions of frontend, p4a, pgen, core and the service protocol,
// and reads the counters, histograms and spans the program already emits.
//
// Times are CPU seconds scaled to a nominal host. A timed figure is a
// median over many operations of a run (per pair, then summed), never one
// interval.
//
// Host speed. On a shared virtual machine the hypervisor takes a varying
// share of the run for other guests (steal time), and the speed of the
// host core drifts by tens of percent within seconds. CPU time (of the
// checking thread, or of the daemon process) leaves steal out. For the
// drift, lfbench times a fixed reference unit of its own work (no program
// code) about every 20 ms of the run, interleaved with the workload on
// one pinned CPU, and scales each timed interval by the nominal unit time
// over the median of the units nearest to it. The reference is hash-map
// and allocation work because the checker's time follows it (slope about
// 1 on a log-log fit over a run's operations); a pure arithmetic loop
// moved only a quarter as much. The run's median unit time is reported
// as host.unit_us.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "core/Engine.h"
#include "core/Reachability.h"
#include "frontend/Elaborate.h"
#include "frontend/Generate.h"
#include "frontend/Text.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "p4a/Fingerprint.h"
#include "p4a/Semantics.h"
#include "p4a/Typing.h"
#include "pgen/TranslationValidation.h"
#include "serve/Json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace leapfrog;
using serve::Json;

namespace {

// ===------------------------------------------------------------------=== //
// Time, statistics, output
// ===------------------------------------------------------------------=== //

using SteadyClock = std::chrono::steady_clock;
const SteadyClock::time_point Epoch = SteadyClock::now();

/// Seconds since lfbench started.
double now() {
  return std::chrono::duration<double>(SteadyClock::now() - Epoch).count();
}

double seconds(const timespec &T) { return double(T.tv_sec) + T.tv_nsec * 1e-9; }

/// CPU seconds of the calling thread. Unlike wall time, CPU time leaves
/// out the time the hypervisor gives to other guests (steal time).
double cpuNow() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return seconds(T);
}

/// CPU seconds of process \p Pid so far, over all its threads.
double processCpu(pid_t Pid) {
  clockid_t Clock;
  timespec T;
  if (clock_getcpuclockid(Pid, &Clock) != 0 || clock_gettime(Clock, &T) != 0)
    return 0;
  return seconds(T);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(Q * double(V.size()) + 0.999999);
  Rank = std::min(std::max<size_t>(Rank, 1), V.size());
  return V[Rank - 1];
}

void emit(const Json &J) {
  std::string S = J.serialize();
  std::fwrite(S.data(), 1, S.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// The running leapfrog-serve, if any: die() must not leave it behind.
std::atomic<pid_t> LiveDaemon{-1};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "lfbench: %s\n", Msg.c_str());
  pid_t Pid = LiveDaemon.exchange(-1);
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }
  std::exit(2);
}

double peakRssMb(pid_t Pid = 0) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : "/proc/self/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return double(std::strtoull(Line.c_str() + 6, nullptr, 10)) / 1024.0;
  return 0;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Deterministic Fisher-Yates (std::shuffle's algorithm is unspecified).
template <typename T> void shuffle(std::vector<T> &V, std::mt19937_64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng() % I]);
}

// ===------------------------------------------------------------------=== //
// Host speed
// ===------------------------------------------------------------------=== //

/// One reference unit: hash-map inserts into growing vectors, the
/// allocation- and pointer-heavy shape of the checker's own work. Fixed
/// work, never touches program code.
uint64_t referenceUnit() {
  std::unordered_map<uint64_t, std::vector<uint32_t>> M;
  uint64_t X = 0x9e3779b97f4a7c15ull, Sum = 0;
  for (int I = 0; I < 8000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    std::vector<uint32_t> &V = M[X % 4096];
    V.push_back(uint32_t(X));
    Sum += V.size();
  }
  for (const auto &KV : M)
    for (uint32_t Y : KV.second)
      Sum += Y;
  return Sum;
}

/// A timed interval: where it lies in the run (wall seconds since lfbench
/// started), which places it among the reference units, and the CPU
/// seconds it took.
struct Span {
  double T0 = 0, T1 = 0;
  double Cpu = 0;
};

/// The host's speed through the run, from reference units interleaved
/// with the workload, and intervals scaled to a nominal host.
class HostClock {
public:
  /// Nominal CPU time of one reference unit; a scaled interval is what
  /// it would have taken on a host that runs the unit in this time.
  static constexpr double NominalUnit = 1e-3;
  /// Keeps the units at one per Interval of run time: runs the ones owed
  /// (at most Burst), so that a long operation gets units on both sides.
  static constexpr double Interval = 0.02;
  static constexpr size_t Burst = 5;

  void tick() {
    std::lock_guard<std::mutex> L(M);
    size_t Owed = size_t(now() / Interval) + 1;
    for (size_t I = 0; I < Burst && Units.size() < Owed; ++I) {
      double T0 = now(), C0 = cpuNow();
      Sink = Sink + referenceUnit();
      double C1 = cpuNow(), T1 = now();
      Units.push_back({0.5 * (T0 + T1), C1 - C0});
    }
  }

  /// Runs \p Work while a thread of its own keeps timing units, for work
  /// done outside the calling thread (by the daemon).
  template <typename Fn> void alongside(Fn Work) {
    std::atomic<bool> Stop{false};
    std::thread Sampler([&] {
      while (!Stop) {
        tick();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    Work();
    Stop = true;
    Sampler.join();
  }

  /// How much faster [T0, T1] would have run on the nominal host: the
  /// nominal unit over the median of the 2 * Burst units nearest to the
  /// interval (and of every unit inside it).
  double scale(double T0, double T1) const {
    return NominalUnit / localUnit(T0, T1);
  }

  double scaled(const Span &S) const { return S.Cpu * scale(S.T0, S.T1); }

  /// Scale for figures without an interval of their own: the nominal unit
  /// over the run's median unit.
  double runScale() const { return NominalUnit / medianUnit(); }

  double medianUnit() const {
    std::lock_guard<std::mutex> L(M);
    std::vector<double> V;
    for (const Unit &U : Units)
      V.push_back(U.Time);
    return median(V);
  }

private:
  struct Unit {
    double Mid, Time;
  };

  double localUnit(double T0, double T1) const {
    std::lock_guard<std::mutex> L(M);
    if (Units.empty())
      die("no reference units were timed");
    // Units are timed in order, so their midpoints ascend.
    auto ByMid = [](const Unit &U, double T) { return U.Mid < T; };
    size_t Lo = std::lower_bound(Units.begin(), Units.end(), T0, ByMid) -
                Units.begin();
    size_t Hi = Lo;
    while (Hi < Units.size() && Units[Hi].Mid <= T1)
      ++Hi;
    // [Lo, Hi) lies inside; widen to the nearest on either side.
    while (Hi - Lo < 2 * Burst && (Lo > 0 || Hi < Units.size())) {
      bool Left = Hi == Units.size() ||
                  (Lo > 0 && T0 - Units[Lo - 1].Mid < Units[Hi].Mid - T1);
      Left ? --Lo : ++Hi;
    }
    std::vector<double> V;
    for (size_t I = Lo; I < Hi; ++I)
      V.push_back(Units[I].Time);
    return median(V);
  }

  mutable std::mutex M;
  std::vector<Unit> Units;
  volatile uint64_t Sink = 0;
};

HostClock Host;

/// Each interval's length at nominal host speed.
std::vector<double> scaledAll(const std::vector<Span> &V) {
  std::vector<double> Out;
  for (const Span &S : V)
    Out.push_back(Host.scaled(S));
  return Out;
}

// ===------------------------------------------------------------------=== //
// Arguments and the manifest
// ===------------------------------------------------------------------=== //

struct Args {
  std::string Workload;
  std::string Corpus = "examples/corpus";
  std::string Manifest = "perfbench/expected.txt";
  std::string TraceOut;
  std::string ServeBin, CertcheckBin, OutDir;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Quick = false;
};

/// The seconds-scale Table 2 row of table2-seq and serve-certify; left
/// out of the reduced self-test size.
const char *const SlowRow = "service_provider";

struct PairLine {
  std::string Name, Left, Right, Spec;
  size_t Reps = 1;
  std::string Expected;
};

std::vector<PairLine> readManifest(const Args &A) {
  std::ifstream In(A.Manifest);
  if (!In)
    die("cannot read manifest " + A.Manifest);
  std::vector<PairLine> Out;
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream SS(Line);
    std::string Workload;
    PairLine P;
    if (!(SS >> Workload) || Workload[0] == '#' || Workload != A.Workload)
      continue;
    if (!(SS >> P.Name >> P.Left >> P.Right >> P.Spec >> P.Reps >>
          P.Expected))
      die("malformed manifest line: " + Line);
    Out.push_back(P);
  }
  return Out;
}

// ===------------------------------------------------------------------=== //
// Front-end layer: parse, elaborate, type, fingerprint
// ===------------------------------------------------------------------=== //

struct Loaded {
  p4a::Automaton Aut;
  p4a::StateRef Start = p4a::StateRef::reject();
};

/// Per-layer seconds accumulated over one pass of loads.
struct FrontTimes {
  double Parse = 0, Elaborate = 0, Type = 0, Fingerprint = 0;
};

Loaded loadText(const std::string &Text, const std::string &What,
                FrontTimes &FT) {
  double T0 = cpuNow();
  frontend::TextParseResult P = frontend::parseSurface(Text);
  double T1 = cpuNow();
  if (!P.ok())
    die(What + ": " + P.Errors.front());
  frontend::ElaborationResult E = frontend::elaborate(P.Program);
  double T2 = cpuNow();
  if (!E.ok())
    die(What + ": " + E.Errors.front());
  std::vector<std::string> TypeErrors = p4a::typeCheck(E.Aut);
  double T3 = cpuNow();
  if (!TypeErrors.empty())
    die(What + ": " + TypeErrors.front());
  Loaded L;
  L.Start = p4a::StateRef::normal(*E.Aut.findState(E.Entry));
  L.Aut = std::move(E.Aut);
  FT.Parse += T1 - T0;
  FT.Elaborate += T2 - T1;
  FT.Type += T3 - T2;
  return L;
}

void timeFingerprint(const Loaded &L, FrontTimes &FT) {
  double T0 = cpuNow();
  volatile uint64_t Sink = p4a::fingerprint(L.Aut, L.Start).Lo;
  (void)Sink;
  FT.Fingerprint += cpuNow() - T0;
}

// ===------------------------------------------------------------------=== //
// Packet oracle: seeded packets and stores through p4a::accepts
// ===------------------------------------------------------------------=== //

Bitvector randomBits(size_t N, std::mt19937_64 &Rng) {
  std::vector<uint64_t> Raw((N + 63) / 64 + 1);
  for (uint64_t &W : Raw)
    W = Rng();
  return Bitvector::fromWords(Raw, N);
}

/// The bits of \p E that a state's own extracts determine: for a header
/// extracted in the state (or a slice of one), where those bits sit in
/// the state's input chunk. Returns false for anything else.
bool chunkPosition(const p4a::Automaton &Aut, const p4a::State &S,
                   const p4a::ExprRef &E, size_t &Begin, size_t &Width) {
  size_t Lo = 0, Hi = 0;
  const p4a::Expr *Base = E.get();
  if (Base->kind() == p4a::Expr::Kind::Slice) {
    Lo = Base->sliceLo();
    Hi = Base->sliceHi();
    Base = Base->sliceOperand().get();
  }
  if (Base->kind() != p4a::Expr::Kind::Header)
    return false;
  size_t Off = 0;
  for (const p4a::Op &O : S.Ops) {
    if (O.K != p4a::Op::Kind::Extract)
      continue;
    size_t Sz = Aut.headerSize(O.Target);
    if (O.Target == Base->header()) {
      if (E->kind() != p4a::Expr::Kind::Slice) {
        Lo = 0;
        Hi = Sz - 1;
      }
      if (Hi >= Sz || Lo > Hi)
        return false;
      Begin = Off + Lo;
      Width = Hi - Lo + 1;
      return true;
    }
    Off += Sz;
  }
  return false;
}

/// A packet drawn by walking \p Aut from \p Start a state at a time: each
/// state's input chunk is random, except that with probability 3/4 the
/// bits its select inspects are set to one of its case patterns, so the
/// walk reaches accept far more often than uniform bits would.
Bitvector walkPacket(const p4a::Automaton &Aut, p4a::StateRef Start,
                     std::mt19937_64 &Rng) {
  p4a::Config C = p4a::initialConfig(
      Start, p4a::Store::fromBits(Aut, randomBits(Aut.totalHeaderBits(), Rng)));
  Bitvector Word;
  for (int Depth = 0; Depth < 64 && C.Q.isNormal(); ++Depth) {
    const p4a::State &S = Aut.state(C.Q.Id);
    size_t N = Aut.opBits(C.Q.Id);
    Bitvector Chunk;
    p4a::Config Next;
    for (int Try = 0; Try < 8; ++Try) {
      Chunk = randomBits(N, Rng);
      const p4a::Transition &Tz = S.Tz;
      if (!Tz.IsGoto && !Tz.Cases.empty() && Rng() % 4 != 0) {
        const p4a::SelectCase &Case = Tz.Cases[Rng() % Tz.Cases.size()];
        for (size_t D = 0; D < Tz.Discriminants.size(); ++D) {
          size_t Begin = 0, Width = 0;
          if (D >= Case.Pats.size() || !Case.Pats[D].Exact ||
              !chunkPosition(Aut, S, Tz.Discriminants[D], Begin, Width) ||
              Case.Pats[D].Exact->size() != Width)
            continue;
          for (size_t B = 0; B < Width; ++B)
            Chunk.setBit(Begin + B, Case.Pats[D].Exact->bit(B));
        }
      }
      Next = p4a::multiStep(Aut, C, Chunk);
      if (!Next.Q.isReject())
        break;
    }
    Word = Word.concat(Chunk);
    C = Next;
    if (C.Q.isAccept() && Rng() % 4 != 0)
      break;
  }
  // Sometimes cut or extend the packet, so prefixes and overlong packets
  // are compared too.
  switch (Rng() % 4) {
  case 0:
    if (Word.size() > 1)
      Word = Word.takeFront(Rng() % Word.size());
    break;
  case 1:
    Word = Word.concat(randomBits(1 + Rng() % 16, Rng));
    break;
  default:
    break;
  }
  return Word;
}

struct OracleResult {
  size_t Packets = 0, Accepted = 0, Disagreements = 0;
};

/// Both sides of an equivalent pair must accept exactly the same packets
/// from any initial stores: draws packets by walking either side and
/// compares p4a::accepts under independent random stores.
OracleResult packetOracle(const Loaded &L, const Loaded &R, size_t Count,
                          std::mt19937_64 &Rng) {
  OracleResult O;
  for (size_t I = 0; I < Count; ++I) {
    bool FromLeft = I % 2 == 0;
    Bitvector W = FromLeft ? walkPacket(L.Aut, L.Start, Rng)
                           : walkPacket(R.Aut, R.Start, Rng);
    p4a::Store SL =
        p4a::Store::fromBits(L.Aut, randomBits(L.Aut.totalHeaderBits(), Rng));
    p4a::Store SR =
        p4a::Store::fromBits(R.Aut, randomBits(R.Aut.totalHeaderBits(), Rng));
    bool AL = p4a::accepts(L.Aut, L.Start, SL, W);
    bool AR = p4a::accepts(R.Aut, R.Start, SR, W);
    ++O.Packets;
    O.Accepted += AL;
    O.Disagreements += AL != AR;
  }
  return O;
}

// ===------------------------------------------------------------------=== //
// Checker layer
// ===------------------------------------------------------------------=== //

const char *verdictName(core::Verdict V) {
  switch (V) {
  case core::Verdict::Equivalent:
    return "equivalent";
  case core::Verdict::NotEquivalent:
    return "not_equivalent";
  case core::Verdict::ResourceLimit:
    return "budget";
  default:
    return "bad_request";
  }
}

/// ether[96:111] in {IPv6, IPv4-as-written-in-bench_table2}: the section
/// 7.1 external filter, as bench_table2 states it.
logic::PureRef goodEthertype(logic::Side S, const p4a::Automaton &Aut) {
  auto Field = logic::BitExpr::mkSlice(
      logic::BitExpr::mkHdr(S, *Aut.findHeader("ether")), 96, 111);
  auto V6 = logic::BitExpr::mkLit(Bitvector::fromUint(0x86dd, 16));
  auto V4 = logic::BitExpr::mkLit(Bitvector::fromUint(0x8600, 16));
  return logic::Pure::mkOr(logic::Pure::mkEq(Field, V6),
                           logic::Pure::mkEq(Field, V4));
}

core::InitialSpec makeSpec(const std::string &Kind, const Loaded &L,
                           const Loaded &R) {
  core::InitialSpec Spec =
      core::languageEquivalenceSpec(L.Aut, L.Start, R.Aut, R.Start);
  if (Kind == "qualified") {
    Spec.Mode = core::AcceptanceMode::Qualified;
    Spec.LeftQualifier = goodEthertype(logic::Side::Left, L.Aut);
    Spec.RightQualifier = logic::Pure::mkTrue();
  } else if (Kind == "relational") {
    Spec.Mode = core::AcceptanceMode::Custom;
    logic::TemplatePair AccAcc{logic::Template::accept(),
                               logic::Template::accept()};
    auto HL = logic::BitExpr::mkHdr(logic::Side::Left,
                                    *L.Aut.findHeader("ether"));
    auto HR = logic::BitExpr::mkHdr(logic::Side::Right,
                                    *R.Aut.findHeader("ether"));
    Spec.ExtraInitial.push_back(
        logic::GuardedFormula{AccAcc, logic::Pure::mkEq(HL, HR)});
  } else if (Kind != "plain") {
    die("unknown spec kind " + Kind);
  }
  return Spec;
}

/// Solve-latency percentiles from the smt.solve_micros histogram (bucket
/// upper bounds, as the registry keeps them).
void addSolveQuantiles(Json &Summary) {
  obs::MetricsSnapshot Snap = obs::metrics().snapshot();
  auto It = Snap.Histograms.find("smt.solve_micros");
  if (It == Snap.Histograms.end())
    return;
  Summary.set("smt.solve_p50_us",
              Json::number(double(It->second.quantileUpperBoundMicros(0.5))));
  Summary.set("smt.solve_p99_us",
              Json::number(double(It->second.quantileUpperBoundMicros(0.99))));
}


/// Everything one decided operation contributes to the summary.
struct CheckSample {
  Span At;
  double Time = 0;   // CPU seconds
  double WallS = 0, SolverS = 0; // the checker's own clocks (CheckStats)
  bool Traced = false;
};

/// Accumulates per-pair samples and prints the op lines.
struct CheckLog {
  std::map<std::string, std::vector<CheckSample>> ByPair;
  std::map<std::string, core::CheckStats> Stats;

  void add(const std::string &Pair, const core::CheckResult &R,
           const CheckSample &S, const std::string &Extra) {
    ByPair[Pair].push_back(S);
    Stats[Pair] = R.Stats;
    Json Op = Json::object();
    Op.set("op", Json::str("check"));
    Op.set("pair", Json::str(Pair));
    Op.set("verdict", Json::str(verdictName(R.V)));
    Op.set("iterations", Json::unsignedInt(R.Stats.Iterations));
    if (!Extra.empty())
      Op.set("error", Json::str(Extra));
    emit(Op);
  }

  /// Σ over pairs of the median of \p F over that pair's samples with
  /// Traced == \p Traced, each sample scaled to the nominal host.
  template <typename Fn> double sumOfMedians(Fn F, bool Traced) const {
    double Sum = 0;
    for (const auto &KV : ByPair) {
      std::vector<double> V;
      for (const CheckSample &S : KV.second)
        if (S.Traced == Traced)
          V.push_back(F(S) * Host.scale(S.At.T0, S.At.T1));
      Sum += median(V);
    }
    return Sum;
  }

  void summarize(Json &Out, bool TracedRun) const {
    // End-to-end: untraced samples only.
    double Verdict =
        sumOfMedians([](const CheckSample &S) { return S.Time; }, false);
    double Wall =
        sumOfMedians([](const CheckSample &S) { return S.WallS; }, false);
    double Solver =
        sumOfMedians([](const CheckSample &S) { return S.SolverS; }, false);
    Out.set("verdict_s", Json::number(Verdict));
    // Decisions per second in the run's mix: each pair's median time
    // weighted by its count of untraced operations.
    double Ops = 0, OpsTime = 0;
    for (const auto &KV : ByPair) {
      std::vector<double> V;
      for (const CheckSample &S : KV.second)
        if (!S.Traced)
          V.push_back(Host.scaled(S.At));
      Ops += double(V.size());
      OpsTime += double(V.size()) * median(V);
    }
    Out.set("req_per_s", Json::number(OpsTime > 0 ? Ops / OpsTime : 0));
    Out.set("check.wall_s", Json::number(Wall));
    Out.set("check.solver_s", Json::number(Solver));
    Out.set("check.self_s", Json::number(Wall - Solver));
    Out.set("check.wall_share",
            Json::number(Verdict > 0 ? Wall / Verdict : 0));
    core::CheckStats Sum;
    for (const auto &KV : Stats) {
      const core::CheckStats &S = KV.second;
      Sum.Iterations += S.Iterations;
      Sum.Extends += S.Extends;
      Sum.Skips += S.Skips;
      Sum.SmtQueries += S.SmtQueries;
      Sum.FinalConjuncts += S.FinalConjuncts;
      Sum.FormulaNodes += S.FormulaNodes;
      Sum.PeakFrontier = std::max(Sum.PeakFrontier, S.PeakFrontier);
      Sum.ReachPairs += S.ReachPairs;
    }
    Out.set("check.iterations", Json::unsignedInt(Sum.Iterations));
    Out.set("check.extends", Json::unsignedInt(Sum.Extends));
    Out.set("check.skips", Json::unsignedInt(Sum.Skips));
    Out.set("check.smt_queries", Json::unsignedInt(Sum.SmtQueries));
    Out.set("check.final_conjuncts", Json::unsignedInt(Sum.FinalConjuncts));
    Out.set("check.formula_nodes", Json::unsignedInt(Sum.FormulaNodes));
    Out.set("check.peak_frontier", Json::unsignedInt(Sum.PeakFrontier));
    Out.set("check.reach_pairs", Json::unsignedInt(Sum.ReachPairs));
    if (TracedRun) {
      double Traced =
          sumOfMedians([](const CheckSample &S) { return S.Time; }, true);
      Out.set("trace.verdict_s", Json::number(Traced));
      Out.set("trace.overhead",
              Json::number(Verdict > 0 ? Traced / Verdict : 0));
    }
  }
};

/// Decides one pair on \p E and records it. Traced samples run with the
/// trace sink installed.
core::CheckResult decide(core::Engine &E, const Loaded &L, const Loaded &R,
                         const core::InitialSpec &Spec,
                         const core::CheckOptions &O, CheckSample &S) {
  Host.tick();
  double T0 = now(), C0 = cpuNow();
  core::CheckResult Res = E.check(L.Aut, R.Aut, Spec, O);
  double C1 = cpuNow(), T1 = now();
  S.At = {T0, T1, C1 - C0};
  S.Time = C1 - C0;
  S.WallS = double(Res.Stats.WallMicros) / 1e6;
  S.SolverS = double(Res.Stats.SolverMicros) / 1e6;
  return Res;
}

/// Median of each front-end layer over the set-up repetitions.
void addFrontTimes(Json &Out, const std::vector<FrontTimes> &V) {
  std::vector<double> P, E, T, F;
  double K = Host.runScale();
  for (const FrontTimes &X : V) {
    P.push_back(X.Parse * K);
    E.push_back(X.Elaborate * K);
    T.push_back(X.Type * K);
    F.push_back(X.Fingerprint * K);
  }
  Out.set("frontend.parse_s", Json::number(median(P)));
  Out.set("frontend.elaborate_s", Json::number(median(E)));
  Out.set("p4a.typecheck_s", Json::number(median(T)));
  Out.set("p4a.fingerprint_s", Json::number(median(F)));
}

/// core.reach_s: Σ over pairs of the median of three computeReach calls.
double timeReach(const std::vector<std::pair<const Loaded *, const Loaded *>> &Pairs) {
  double Sum = 0;
  for (const auto &P : Pairs) {
    logic::TemplatePair Start{logic::Template{P.first->Start, 0},
                              logic::Template{P.second->Start, 0}};
    std::vector<double> V;
    for (int I = 0; I < 3; ++I) {
      double T0 = cpuNow();
      volatile size_t N =
          core::computeReach(P.first->Aut, P.second->Aut, Start, true).size();
      (void)N;
      V.push_back(cpuNow() - T0);
    }
    Sum += median(V);
  }
  return Sum * Host.runScale();
}

/// The sink of a traced run; installed only around the traced copies.
std::unique_ptr<obs::TraceSink> traceSink(const Args &A) {
  return A.TraceOut.empty() ? nullptr : std::make_unique<obs::TraceSink>();
}

void writeTrace(const obs::TraceSink *Sink, const std::string &Path) {
  std::string Err;
  if (Sink && !Sink->writeChromeJson(Path, &Err))
    die(Err);
}

// ===------------------------------------------------------------------=== //
// table2-seq
// ===------------------------------------------------------------------=== //

Json runTable2(const Args &A) {
  std::vector<PairLine> Pairs = readManifest(A);
  if (A.Quick) // Reduced size: no seconds-scale rows, one repetition.
    Pairs.erase(std::remove_if(Pairs.begin(), Pairs.end(),
                               [](const PairLine &P) {
                                 return P.Name == SlowRow;
                               }),
                Pairs.end());
  std::map<std::string, std::string> Texts; // file -> text, read untimed
  for (const PairLine &P : Pairs)
    for (const std::string &F : {P.Left, P.Right})
      if (!Texts.count(F))
        Texts[F] = readFile(A.Corpus + "/" + F);

  // Set-up: parse, elaborate and type every input, create the engine.
  // Repeated in every round, so that the samples span the whole run like
  // every other figure; the median is reported.
  std::map<std::string, Loaded> Auts;
  std::unique_ptr<core::Engine> Engine;
  std::vector<Span> Setups;
  std::vector<FrontTimes> Fronts;
  auto setUp = [&] {
    Host.tick();
    FrontTimes FT;
    std::map<std::string, Loaded> Fresh;
    double T0 = now(), C0 = cpuNow();
    for (const auto &KV : Texts)
      Fresh[KV.first] = loadText(KV.second, KV.first, FT);
    core::EngineConfig Config;
    std::string Err;
    std::unique_ptr<core::Engine> E = core::Engine::create(Config, &Err);
    double C1 = cpuNow(), T1 = now();
    if (!E)
      die(Err);
    Setups.push_back({T0, T1, C1 - C0});
    for (const auto &KV : Fresh)
      timeFingerprint(KV.second, FT);
    Fronts.push_back(FT);
    if (!Engine) {
      Auts = std::move(Fresh);
      Engine = std::move(E);
    }
  };
  setUp();

  std::vector<core::InitialSpec> Specs;
  for (const PairLine &P : Pairs)
    Specs.push_back(makeSpec(P.Spec, Auts[P.Left], Auts[P.Right]));

  // Oracle, untimed: seeded packets and stores on every equivalent pair.
  std::mt19937_64 Rng(A.Seed * 0x9E3779B97F4A7C15ull + 1);
  std::map<std::string, OracleResult> Oracle;
  for (const PairLine &P : Pairs)
    if (P.Spec == "plain" && P.Expected == "equivalent")
      Oracle[P.Name] =
          packetOracle(Auts[P.Left], Auts[P.Right], A.Quick ? 64 : 256, Rng);

  // One round: every pair Reps times, in a seeded interleaved order.
  std::vector<size_t> Round;
  for (size_t I = 0; I < Pairs.size(); ++I)
    for (size_t R = 0; R < (A.Quick ? 1 : Pairs[I].Reps); ++R)
      Round.push_back(I);

  bool TracedRun = !A.TraceOut.empty();
  std::unique_ptr<obs::TraceSink> Sink = traceSink(A);
  CheckLog Log;
  core::CheckOptions Opts;
  double Start = now(), LastRound = 0;
  size_t Rounds = 0;
  do {
    double R0 = now();
    for (int I = 0; I < 5; ++I)
      setUp();
    shuffle(Round, Rng);
    for (size_t I : Round) {
      const PairLine &P = Pairs[I];
      // A traced run decides every operation twice, untraced and traced,
      // in seeded order; the untraced one feeds the figures shared with
      // untraced runs.
      std::vector<bool> Modes{false};
      if (TracedRun)
        Modes.insert(Rng() % 2 ? Modes.end() : Modes.begin(), true);
      for (bool Traced : Modes) {
        obs::setTraceSink(Traced ? Sink.get() : nullptr);
        CheckSample S;
        S.Traced = Traced;
        core::CheckResult Res =
            decide(*Engine, Auts[P.Left], Auts[P.Right], Specs[I], Opts, S);
        obs::setTraceSink(nullptr);
        std::string Err;
        auto O = Oracle.find(P.Name);
        if (O != Oracle.end() && O->second.Disagreements)
          Err = "packet oracle: " + std::to_string(O->second.Disagreements) +
                " of " + std::to_string(O->second.Packets) +
                " packets accepted by one side only";
        Log.add(P.Name, Res, S, Err);
      }
    }
    ++Rounds;
    LastRound = now() - R0;
  } while (!A.Quick && now() - Start + LastRound <= A.Seconds);
  Host.tick(); // units after the last operation

  std::vector<std::pair<const Loaded *, const Loaded *>> ReachPairs;
  for (const PairLine &P : Pairs)
    ReachPairs.push_back({&Auts[P.Left], &Auts[P.Right]});
  double ReachS = timeReach(ReachPairs);

  Json Out = Json::object();
  Out.set("op", Json::str("summary"));
  Out.set("setup_s", Json::number(median(scaledAll(Setups))));
  Out.set("peak_rss_mb", Json::number(peakRssMb()));
  Out.set("rounds", Json::unsignedInt(Rounds));
  Log.summarize(Out, TracedRun);
  addFrontTimes(Out, Fronts);
  addSolveQuantiles(Out);
  Out.set("core.reach_s", Json::number(ReachS));
  size_t Packets = 0, Accepted = 0;
  for (const auto &KV : Oracle) {
    Packets += KV.second.Packets;
    Accepted += KV.second.Accepted;
  }
  Out.set("oracle.packets", Json::unsignedInt(Packets));
  Out.set("oracle.accepted", Json::unsignedInt(Accepted));
  writeTrace(Sink.get(), A.TraceOut);
  return Out;
}

// ===------------------------------------------------------------------=== //
// tv-prefix
// ===------------------------------------------------------------------=== //

Json runTv(const Args &A) {
  std::vector<PairLine> Pairs = readManifest(A);
  if (Pairs.size() != 1)
    die("tv-prefix expects exactly one manifest line");
  const PairLine &P = Pairs.front();
  // Iterations the check may run before it must stop.
  const size_t Budget = A.Quick ? 50 : 1000;

  // Set-up: build the pgen pair (compile Edge to TCAM tables and
  // back-translate it) and create the engine. Repeated in every round;
  // median reported.
  std::vector<Span> Setups, Builds;
  pgen::TranslationValidation TV;
  std::unique_ptr<core::Engine> Engine;
  auto setUp = [&] {
    Host.tick();
    double T0 = now(), C0 = cpuNow();
    pgen::TranslationValidation Fresh = pgen::buildEdgeTranslationValidation();
    double C1 = cpuNow(), T1 = now();
    core::EngineConfig Config;
    std::string Err;
    std::unique_ptr<core::Engine> E = core::Engine::create(Config, &Err);
    double C2 = cpuNow(), T2 = now();
    if (!Fresh.ok())
      die("pgen: " + Fresh.Diagnostics.front());
    if (!E)
      die(Err);
    Setups.push_back({T0, T2, C2 - C0});
    Builds.push_back({T0, T1, C1 - C0});
    if (!Engine) {
      TV = std::move(Fresh);
      Engine = std::move(E);
    }
  };
  setUp();
  Loaded L, R;
  L.Aut = TV.Original;
  L.Start = p4a::StateRef::normal(*L.Aut.findState(TV.OriginalStart));
  R.Aut = TV.Reconstructed;
  R.Start = p4a::StateRef::normal(*R.Aut.findState(TV.ReconstructedStart));

  // The front-end layers on the same pair, printed to .lfp and read back.
  std::vector<FrontTimes> Fronts;
  {
    std::string LT = frontend::printSurface(
        frontend::surfaceFromP4a(L.Aut, TV.OriginalStart));
    std::string RT = frontend::printSurface(
        frontend::surfaceFromP4a(R.Aut, TV.ReconstructedStart));
    for (int Rep = 0; Rep < 5; ++Rep) {
      FrontTimes FT;
      Loaded LL = loadText(LT, "tv-left", FT), RR = loadText(RT, "tv-right", FT);
      timeFingerprint(LL, FT);
      timeFingerprint(RR, FT);
      Fronts.push_back(FT);
    }
  }

  std::mt19937_64 Rng(A.Seed * 0x9E3779B97F4A7C15ull + 2);
  OracleResult Oracle = packetOracle(L, R, A.Quick ? 64 : 256, Rng);
  core::InitialSpec Spec = makeSpec(P.Spec, L, R);
  core::CheckOptions Opts;
  Opts.MaxIterations = Budget;

  bool TracedRun = !A.TraceOut.empty();
  std::unique_ptr<obs::TraceSink> Sink = traceSink(A);
  CheckLog Log;
  double Start = now(), LastRound = 0;
  size_t Rounds = 0;
  do {
    double R0 = now();
    for (int I = 0; I < 5; ++I)
      setUp();
    std::vector<bool> Modes{false};
    if (TracedRun)
      Modes.insert(Rng() % 2 ? Modes.end() : Modes.begin(), true);
    for (bool Traced : Modes) {
      obs::setTraceSink(Traced ? Sink.get() : nullptr);
      CheckSample S;
      S.Traced = Traced;
      core::CheckResult Res = decide(*Engine, L, R, Spec, Opts, S);
      obs::setTraceSink(nullptr);
      std::string Err;
      // Stopping at the budget means Budget iterations ran, each one an
      // extend or a skip.
      size_t Ran = Res.Stats.Extends + Res.Stats.Skips;
      if (Res.V == core::Verdict::ResourceLimit && Ran != Budget)
        Err = "stopped after " + std::to_string(Ran) +
              " iterations, budget " + std::to_string(Budget);
      if (Oracle.Disagreements)
        Err = "packet oracle: " + std::to_string(Oracle.Disagreements) +
              " packets accepted by one side only";
      Log.add(P.Name, Res, S, Err);
    }
    ++Rounds;
    LastRound = now() - R0;
  } while (!A.Quick && now() - Start + LastRound <= A.Seconds);
  Host.tick(); // units after the last operation

  Json Out = Json::object();
  Out.set("op", Json::str("summary"));
  Out.set("setup_s", Json::number(median(scaledAll(Setups))));
  Out.set("pgen.build_s", Json::number(median(scaledAll(Builds))));
  Out.set("peak_rss_mb", Json::number(peakRssMb()));
  Out.set("rounds", Json::unsignedInt(Rounds));
  Out.set("budget", Json::unsignedInt(Budget));
  Log.summarize(Out, TracedRun);
  addFrontTimes(Out, Fronts);
  addSolveQuantiles(Out);
  Out.set("core.reach_s", Json::number(timeReach({{&L, &R}})));
  Out.set("oracle.packets", Json::unsignedInt(Oracle.Packets));
  Out.set("oracle.accepted", Json::unsignedInt(Oracle.Accepted));
  writeTrace(Sink.get(), A.TraceOut);
  return Out;
}

// ===------------------------------------------------------------------=== //
// serve-certify
// ===------------------------------------------------------------------=== //

/// A line-oriented AF_UNIX client connection to leapfrog-serve.
class Conn {
public:
  bool open(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      die("socket path too long: " + Path);
    std::strcpy(Addr.sun_path, Path.c_str());
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      ::close(Fd);
      Fd = -1;
      return false;
    }
    return true;
  }
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Sends one request line and returns the response line.
  std::string call(const std::string &Line) {
    std::string Out = Line + "\n";
    size_t Off = 0;
    while (Off < Out.size()) {
      ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        die("send to leapfrog-serve failed");
      Off += size_t(N);
    }
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Resp = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Resp;
      }
      char Tmp[1 << 16];
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N <= 0)
        die("leapfrog-serve closed the connection");
      Buf.append(Tmp, size_t(N));
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

Json parseJson(const std::string &Text) {
  Json J;
  std::string Err;
  if (!Json::parse(Text, J, &Err))
    die("bad JSON from leapfrog-serve: " + Err);
  return J;
}

/// The response with the fields a hit may change removed (cache, micros,
/// id): what must be bit-identical between a miss and every later answer.
std::string recordOf(const Json &Resp) {
  Json J = Json::object();
  for (const auto &KV : Resp.fields())
    if (KV.first != "cache" && KV.first != "micros" && KV.first != "id")
      J.set(KV.first, KV.second);
  return J.serialize();
}

struct Daemon {
  pid_t Pid = -1;
  std::string Socket;
};

/// Starts leapfrog-serve and waits for its first answered ping; the
/// interval, with the daemon's CPU time up to the answer, is one set-up
/// sample.
Daemon startDaemon(const Args &A, const std::string &Socket,
                   const std::string &Store, const std::string &TraceOut,
                   Span &Setup) {
  std::vector<std::string> Argv{A.ServeBin, "--socket", Socket, "--lanes", "2",
                                "--cert-store", Store};
  if (!TraceOut.empty()) {
    Argv.push_back("--trace-out");
    Argv.push_back(TraceOut);
  }
  std::vector<char *> CArgv;
  for (std::string &S : Argv)
    CArgv.push_back(&S[0]);
  CArgv.push_back(nullptr);
  ::unlink(Socket.c_str());
  Daemon D;
  D.Socket = Socket;
  // The daemon's stdout must not hold lfbench's result pipe open.
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_addopen(&Fa, 1, "/dev/null", O_WRONLY, 0);
  double T0 = now();
  int Rc = posix_spawn(&D.Pid, A.ServeBin.c_str(), &Fa, nullptr, CArgv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Fa);
  if (Rc != 0)
    die("cannot start " + A.ServeBin);
  LiveDaemon = D.Pid;
  for (;;) {
    Conn C;
    if (C.open(Socket)) {
      Json R = parseJson(C.call("{\"op\":\"ping\"}"));
      Setup = {T0, now(), processCpu(D.Pid)};
      if (!R.getBool("pong", false))
        die("leapfrog-serve did not answer ping");
      break;
    }
    int Status = 0;
    if (::waitpid(D.Pid, &Status, WNOHANG) == D.Pid) {
      LiveDaemon = -1;
      die("leapfrog-serve exited during start-up");
    }
    if (now() - T0 > 30)
      die("leapfrog-serve did not start within 30 s");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return D;
}

void stopDaemon(Daemon &D) {
  {
    Conn C;
    if (C.open(D.Socket))
      C.call("{\"op\":\"shutdown\"}");
  }
  int Status = 0;
  ::waitpid(D.Pid, &Status, 0);
  LiveDaemon = -1;
  D.Pid = -1;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    die("leapfrog-serve did not shut down cleanly");
}

double dirMb(const std::string &Dir) {
  double Bytes = 0;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      struct stat St;
      std::string P = Dir + "/" + E->d_name;
      if (E->d_name[0] != '.' && ::stat(P.c_str(), &St) == 0)
        Bytes += double(St.st_size);
    }
    ::closedir(D);
  }
  return Bytes / (1024.0 * 1024.0);
}

void removeDir(const std::string &Dir) {
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D))
      if (E->d_name[0] != '.')
        ::unlink((Dir + "/" + E->d_name).c_str());
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

std::string jsonString(const std::string &S) { return Json::str(S).serialize(); }

/// Runs leapfrog-certcheck on one certificate file; returns its
/// "ACCEPTED …" line, or an empty string when it rejects.
std::string certcheck(const Args &A, const std::string &Key,
                      const std::string &File, double &T) {
  std::string OutFile = File + ".out";
  std::vector<std::string> Argv{A.CertcheckBin, "--fingerprint", Key, File};
  std::vector<char *> CArgv;
  for (std::string &S : Argv)
    CArgv.push_back(&S[0]);
  CArgv.push_back(nullptr);
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_addopen(&Fa, 1, OutFile.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t Pid;
  if (posix_spawn(&Pid, A.CertcheckBin.c_str(), &Fa, nullptr, CArgv.data(),
                  environ) != 0)
    die("cannot start " + A.CertcheckBin);
  int Status = 0;
  rusage Ru{};
  ::wait4(Pid, &Status, 0, &Ru);
  T = seconds({Ru.ru_utime.tv_sec, Ru.ru_utime.tv_usec * 1000}) +
      seconds({Ru.ru_stime.tv_sec, Ru.ru_stime.tv_usec * 1000});
  posix_spawn_file_actions_destroy(&Fa);
  std::string Out = readFile(OutFile);
  ::unlink(OutFile.c_str());
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      Out.find("ACCEPTED") == std::string::npos)
    return "";
  return Out;
}

/// The count after "Key=" in a certcheck ACCEPTED line.
uint64_t fieldOf(const std::string &Line, const std::string &Key) {
  size_t P = Line.find(" " + Key + "=");
  return P == std::string::npos
             ? 0
             : std::strtoull(Line.c_str() + P + Key.size() + 2, nullptr, 10);
}

Json runServe(const Args &A) {
  std::vector<PairLine> Pool = readManifest(A);
  if (A.Quick)
    Pool.erase(std::remove_if(Pool.begin(), Pool.end(),
                              [](const PairLine &P) {
                                return P.Name == SlowRow;
                              }),
               Pool.end());
  std::mt19937_64 Rng(A.Seed * 0x9E3779B97F4A7C15ull + 3);
  std::string Suffix = "_r" + std::to_string(Rng() % 100000);

  // Inputs: each pool pair and its state-renamed twin, the twin printed
  // back to .lfp. The front-end layers are timed on the originals.
  struct Entry {
    PairLine P;
    std::string Left, Right, TwinLeft, TwinRight;
    std::string Key;    // the fingerprint the daemon reported
    std::string Record; // the record of this round's miss
    size_t Hits = 0, Certs = 0;
  };
  std::vector<Entry> Entries;
  std::vector<FrontTimes> Fronts(5);
  std::vector<std::pair<Loaded, Loaded>> Loads;
  for (const PairLine &P : Pool) {
    Entry E;
    E.P = P;
    E.Left = readFile(A.Corpus + "/" + P.Left);
    E.Right = readFile(A.Corpus + "/" + P.Right);
    E.TwinLeft = frontend::printSurface(frontend::renameStates(
        frontend::parseSurface(E.Left).Program, Suffix));
    E.TwinRight = frontend::printSurface(frontend::renameStates(
        frontend::parseSurface(E.Right).Program, Suffix));
    Loaded L, R;
    for (FrontTimes &FT : Fronts) {
      L = loadText(E.Left, P.Left, FT);
      R = loadText(E.Right, P.Right, FT);
      timeFingerprint(L, FT);
      timeFingerprint(R, FT);
    }
    // Renaming must not move the canonical fingerprint: twins hit.
    FrontTimes Unused;
    Loaded TL = loadText(E.TwinLeft, "twin of " + P.Left, Unused);
    Loaded TR = loadText(E.TwinRight, "twin of " + P.Right, Unused);
    if (p4a::fingerprint(TL.Aut, TL.Start) != p4a::fingerprint(L.Aut, L.Start) ||
        p4a::fingerprint(TR.Aut, TR.Start) != p4a::fingerprint(R.Aut, R.Start))
      die("renamed twin of " + P.Name + " changed its fingerprint");
    Loads.push_back({std::move(L), std::move(R)});
    Entries.push_back(std::move(E));
  }

  // The zipf shape of one round: entry i (rank i+1) gets a share of the
  // hits proportional to 1/(i+1); every equivalent entry's certificate is
  // fetched in proportion too (at least once). The seconds-scale row is a
  // write and one certificate fetch only. The counts are fixed, so every
  // round and every seed does the same work; the seed fixes the order, the
  // twin choices and the renaming.
  const size_t HitsPerRound = A.Quick ? 60 : 4000, CertsPerRound = A.Quick ? 10 : 40;
  double Harmonic = 0;
  for (size_t I = 0; I < Entries.size(); ++I)
    Harmonic += 1.0 / double(I + 1);
  for (size_t I = 0; I < Entries.size(); ++I) {
    double Share = 1.0 / double(I + 1) / Harmonic;
    if (Entries[I].P.Name == SlowRow) {
      Entries[I].Certs = 1;
      continue;
    }
    Entries[I].Hits = std::max<size_t>(1, size_t(HitsPerRound * Share + 0.5));
    if (Entries[I].P.Expected == "equivalent")
      Entries[I].Certs = std::max<size_t>(1, size_t(CertsPerRound * Share + 0.5));
  }

  enum class Kind { Miss, Hit, Cert };
  struct Request {
    Kind K;
    size_t E;
    bool Twin;
  };

  ::mkdir(A.OutDir.c_str(), 0755);
  bool TracedRun = !A.TraceOut.empty();
  // The daemon's CPU time: up to its first answer (set-up), over the
  // write phase of untraced and traced rounds, over the read phase.
  std::vector<Span> Setups, Writes, WritesTraced, ReadPhases;
  std::vector<double> Rss, StoreMb, CertMb, ReadWallRate;
  // Client-side wall latencies.
  std::vector<double> HitLatency, CertLatency, MissLatency;
  size_t ReadsPerRound = 0;
  std::map<std::string, double> MissStats; // Σ of the last round's miss stats
  std::vector<Json> LastStats, LastMetrics;
  size_t Rounds = 0;
  // Certificates are valid but not canonical: the proof a lane records
  // depends on what its warm engine decided before, which the seeded
  // miss order changes from round to round. Within a round every fetch
  // of a key must return the same bytes; every distinct certificate is
  // written out once and verified at the end.
  std::map<size_t, std::string> CertFirst; // entry -> this round's text
  std::map<size_t, std::vector<std::string>> CertFiles; // entry -> variants
  std::map<size_t, std::vector<size_t>> CertHashes;
  Host.tick();
  double Start = now(), LastRound = 0;
  do {
    double R0 = now();
    std::string Tag = std::to_string(Rounds);
    // Set-up samples beyond the one of the round's own daemon: daemons
    // started, pinged and shut down.
    for (int I = 0; I < 2; ++I) {
      Span Setup;
      std::string Store = A.OutDir + "/setup-store";
      Daemon D = startDaemon(A, A.OutDir + "/setup.sock", Store,
                             std::string(), Setup);
      Setups.push_back(Setup);
      stopDaemon(D);
      removeDir(Store);
    }
    std::string Socket = A.OutDir + "/s" + Tag + ".sock";
    std::string Store = A.OutDir + "/store" + Tag;
    // A traced run alternates untraced and traced daemons; the untraced
    // rounds feed the figures shared with untraced runs.
    bool Traced = TracedRun && Rounds % 2 == 1;
    Span Setup;
    Daemon D = startDaemon(A, Socket, Store,
                           Traced ? A.TraceOut : std::string(), Setup);
    if (!Traced)
      Setups.push_back(Setup);
    MissStats.clear();

    // The round's streams, in two phases of two clients each. Writes: one
    // client sends the seconds-scale row's miss while the other sends
    // every other entry's miss (seeded order), each on its own lane.
    // Reads: once every entry is computed, both clients share the hits
    // and certificate fetches, shuffled together; every one must hit.
    std::vector<Request> SlowMiss, Misses, Reads;
    for (size_t I = 0; I < Entries.size(); ++I) {
      bool Slow = Entries[I].P.Name == SlowRow;
      (Slow ? SlowMiss : Misses).push_back({Kind::Miss, I, bool(Rng() % 2)});
      for (size_t H = 0; H < Entries[I].Hits; ++H)
        Reads.push_back({Kind::Hit, I, bool(Rng() % 2)});
      for (size_t C = 0; C < Entries[I].Certs; ++C)
        Reads.push_back({Kind::Cert, I, false});
      Entries[I].Record.clear();
      CertFirst.erase(I);
    }
    shuffle(Misses, Rng);
    shuffle(Reads, Rng);

    std::mutex M;
    std::atomic<size_t> NextId{0};
    auto send = [&](Conn &C, const Request &Q) {
      Entry &E = Entries[Q.E];
      std::string Line;
      if (Q.K == Kind::Cert)
        Line = "{\"op\":\"cert\",\"key\":" + jsonString(E.Key) + "}";
      else
        Line = "{\"op\":\"check\",\"id\":" + std::to_string(NextId++) +
               ",\"left\":" + jsonString(Q.Twin ? E.TwinLeft : E.Left) +
               ",\"right\":" + jsonString(Q.Twin ? E.TwinRight : E.Right) +
               "}";
      double T0 = now();
      std::string Text = C.call(Line);
      double T = now() - T0;
      Json Resp = parseJson(Text);
      std::string Err;
      std::string Cache = Resp.getString("cache");
      std::string Verdict = Resp.getString("verdict");
      if (!Resp.getBool("ok", false))
        Err = "request failed: " + Resp.getString("error");
      std::lock_guard<std::mutex> L(M);
      if (Err.empty() && Q.K == Kind::Cert) {
        const std::string &Cert = Resp.getString("certificate");
        std::string &First = CertFirst[Q.E];
        if (First.empty()) {
          First = Cert;
          size_t H = std::hash<std::string>()(Cert);
          std::vector<size_t> &Seen = CertHashes[Q.E];
          if (std::find(Seen.begin(), Seen.end(), H) == Seen.end()) {
            Seen.push_back(H);
            std::string File = A.OutDir + "/" + E.P.Name + "-" +
                               std::to_string(Seen.size()) + ".lfc";
            std::ofstream Out(File, std::ios::binary);
            Out << Cert;
            CertFiles[Q.E].push_back(File);
          }
        } else if (First != Cert) {
          Err = "certificate differs from the one fetched before";
        }
        if (!Traced)
          CertLatency.push_back(T);
        CertMb.back() += double(Cert.size()) / (1024.0 * 1024.0);
      } else if (Err.empty() && Q.K == Kind::Miss) {
        if (Cache != "miss")
          Err = "first request answered from the cache (" + Cache + ")";
        E.Record = recordOf(Resp);
        E.Key = Resp.getString("fingerprint");
        if (!Traced)
          MissLatency.push_back(T);
        for (const auto &KV : Resp.get("stats").fields()) {
          double V = KV.second.asDouble();
          double &Acc = MissStats[KV.first];
          Acc = KV.first == "peak_frontier" ? std::max(Acc, V) : Acc + V;
        }
      } else if (Err.empty()) {
        if (Cache != "hit")
          Err = "repeated request was not a cache hit (" + Cache + ")";
        else if (recordOf(Resp) != E.Record)
          Err = "cached record differs from the miss";
        if (!Traced)
          HitLatency.push_back(T);
      }
      Json Op = Json::object();
      Op.set("op", Json::str(Q.K == Kind::Cert ? "cert" : "check"));
      Op.set("pair", Json::str(E.P.Name));
      Op.set("kind", Json::str(Q.K == Kind::Miss ? "miss"
                               : Q.K == Kind::Hit ? "hit" : "cert"));
      if (Q.K != Kind::Cert)
        Op.set("verdict", Json::str(Verdict));
      if (!Err.empty())
        Op.set("error", Json::str(Err));
      emit(Op);
    };
    /// One client: sends the requests of \p Stream not yet taken by
    /// another client, on a connection of its own.
    auto drain = [&](const std::vector<Request> &Stream,
                     std::atomic<size_t> &Next) {
      Conn C;
      if (!C.open(Socket))
        die("cannot connect to leapfrog-serve");
      for (size_t N; (N = Next++) < Stream.size();)
        send(C, Stream[N]);
    };
    /// Runs \p Phase and returns it with the daemon's CPU time over it.
    auto phase = [&](auto Phase) {
      double T0 = now(), C0 = processCpu(D.Pid);
      Host.alongside(Phase);
      double C1 = processCpu(D.Pid);
      return Span{T0, now(), C1 - C0};
    };
    CertMb.push_back(0);
    std::atomic<size_t> NextSlow{0}, NextMiss{0}, NextRead{0};
    Span Write = phase([&] {
      std::thread Writer([&] { drain(SlowMiss, NextSlow); });
      drain(Misses, NextMiss);
      Writer.join();
    });
    (Traced ? WritesTraced : Writes).push_back(Write);
    Span Read = phase([&] {
      std::thread Reader([&] { drain(Reads, NextRead); });
      drain(Reads, NextRead);
      Reader.join();
    });
    if (!Traced) {
      ReadPhases.push_back(Read);
      ReadWallRate.push_back(double(Reads.size()) / (Read.T1 - Read.T0));
    }
    ReadsPerRound = Reads.size();
    {
      Conn C;
      if (!C.open(Socket))
        die("cannot connect to leapfrog-serve");
      LastStats = {parseJson(C.call("{\"op\":\"stats\"}"))};
      LastMetrics = {parseJson(C.call("{\"op\":\"metrics\"}"))};
    }
    if (!Traced)
      Rss.push_back(peakRssMb(D.Pid));
    stopDaemon(D);
    StoreMb.push_back(dirMb(Store));
    removeDir(Store);
    Host.tick(); // between rounds, with no daemon running
    ++Rounds;
    LastRound = now() - R0;
  } while (!A.Quick && now() - Start + LastRound <= A.Seconds);
  Host.tick(); // units after the last operation

  // Every distinct certificate goes through the independent verifier,
  // pinned to its request key. Per entry, the median over its variants.
  double Certcheck = 0;
  uint64_t Streams = 0, Goals = 0, Lemmas = 0, Inputs = 0, Deletions = 0;
  for (const auto &KV : CertFiles) {
    const Entry &E = Entries[KV.first];
    std::vector<double> Times, St, Go, Le, In, De;
    for (const std::string &File : KV.second) {
      double T = 0;
      Host.tick();
      std::string Accepted = certcheck(A, E.Key, File, T);
      ::unlink(File.c_str());
      Json Op = Json::object();
      Op.set("op", Json::str("certcheck"));
      Op.set("pair", Json::str(E.P.Name));
      if (Accepted.empty())
        Op.set("error", Json::str("leapfrog-certcheck rejected the certificate"));
      emit(Op);
      Times.push_back(T);
      St.push_back(double(fieldOf(Accepted, "streams")));
      Go.push_back(double(fieldOf(Accepted, "goals")));
      Le.push_back(double(fieldOf(Accepted, "lemmas")));
      In.push_back(double(fieldOf(Accepted, "inputs")));
      De.push_back(double(fieldOf(Accepted, "deletions")));
    }
    Certcheck += median(Times) * Host.runScale();
    Streams += uint64_t(median(St));
    Goals += uint64_t(median(Go));
    Lemmas += uint64_t(median(Le));
    Inputs += uint64_t(median(In));
    Deletions += uint64_t(median(De));
  }
  ::rmdir(A.OutDir.c_str());

  // verdict_s: the daemon's CPU time to decide, certify and store every
  // pair of the pool once (a round's write phase). req_per_s: reads
  // served per CPU second of the daemon. Both medians over the rounds.
  double Verdict = median(scaledAll(Writes));
  double VerdictTraced = median(scaledAll(WritesTraced));
  std::vector<double> ReadRate;
  for (double T : scaledAll(ReadPhases))
    ReadRate.push_back(double(ReadsPerRound) / T);
  // The daemon's peak RSS takes one of a few levels per round (how the
  // lanes' allocations interleave); their mean over the rounds is
  // steadier than their median.
  double RssMean = 0;
  for (double R : Rss)
    RssMean += R / double(Rss.size());

  Json Out = Json::object();
  Out.set("op", Json::str("summary"));
  Out.set("setup_s", Json::number(median(scaledAll(Setups))));
  Out.set("verdict_s", Json::number(Verdict));
  Out.set("peak_rss_mb", Json::number(RssMean));
  Out.set("req_per_s", Json::number(median(ReadRate)));
  Out.set("serve.read_per_s", Json::number(median(ReadWallRate)));
  Out.set("serve.hit_p50_ms", Json::number(median(HitLatency) * 1e3));
  Out.set("serve.hit_p99_ms", Json::number(quantile(HitLatency, 0.99) * 1e3));
  Out.set("serve.cert_p50_ms", Json::number(median(CertLatency) * 1e3));
  Out.set("serve.miss_p50_ms", Json::number(median(MissLatency) * 1e3));
  Out.set("cert.fetched_mb", Json::number(median(CertMb)));
  Out.set("cert.store_mb", Json::number(median(StoreMb)));
  Out.set("cert.check_s", Json::number(Certcheck));
  Out.set("cert.streams", Json::unsignedInt(Streams));
  Out.set("cert.goals", Json::unsignedInt(Goals));
  Out.set("cert.lemmas", Json::unsignedInt(Lemmas));
  Out.set("cert.inputs", Json::unsignedInt(Inputs));
  Out.set("cert.deletions", Json::unsignedInt(Deletions));
  if (TracedRun && VerdictTraced > 0) {
    Out.set("trace.verdict_s", Json::number(VerdictTraced));
    Out.set("trace.overhead", Json::number(VerdictTraced / Verdict));
  }
  // The checker figures of the last round's misses, from their responses.
  for (const char *K : {"iterations", "extends", "skips", "smt_queries",
                        "final_conjuncts", "formula_nodes", "peak_frontier",
                        "reach_pairs"})
    Out.set(std::string("check.") + K, Json::number(MissStats[K]));
  double Wall = MissStats["wall_micros"] / 1e6;
  double Solver = MissStats["solver_micros"] / 1e6;
  Out.set("check.wall_s", Json::number(Wall));
  Out.set("check.solver_s", Json::number(Solver));
  Out.set("check.self_s", Json::number(Wall - Solver));
  Out.set("rounds", Json::unsignedInt(Rounds));
  if (!LastStats.empty())
    Out.set("daemon_stats", LastStats.front());
  if (!LastMetrics.empty())
    Out.set("daemon_metrics", LastMetrics.front().get("metrics"));
  addFrontTimes(Out, Fronts);
  std::vector<std::pair<const Loaded *, const Loaded *>> ReachPairs;
  for (const auto &LR : Loads)
    ReachPairs.push_back({&LR.first, &LR.second});
  Out.set("core.reach_s", Json::number(timeReach(ReachPairs)));
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: lfbench table2-seq|tv-prefix|serve-certify "
                         "[options]; see the file comment\n");
    return 2;
  }
  Args A;
  A.Workload = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string K = Argv[I];
    auto value = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + K);
      return Argv[++I];
    };
    if (K == "--corpus")
      A.Corpus = value();
    else if (K == "--manifest")
      A.Manifest = value();
    else if (K == "--trace-out")
      A.TraceOut = value();
    else if (K == "--serve")
      A.ServeBin = value();
    else if (K == "--certcheck")
      A.CertcheckBin = value();
    else if (K == "--out")
      A.OutDir = value();
    else if (K == "--seed")
      A.Seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(value().c_str(), nullptr);
    else if (K == "--quick")
      A.Quick = true;
    else
      die("unknown option " + K);
  }
  // One CPU for lfbench, its threads and the daemon it starts: the
  // reference units then run on the core whose speed the workload gets.
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(std::max(0, sched_getcpu()), &One);
  if (sched_setaffinity(0, sizeof(One), &One) != 0)
    die("cannot pin lfbench to one CPU");
  Json Out;
  if (A.Workload == "table2-seq")
    Out = runTable2(A);
  else if (A.Workload == "tv-prefix")
    Out = runTv(A);
  else if (A.Workload == "serve-certify")
    Out = runServe(A);
  else
    die("unknown workload " + A.Workload);
  Out.set("host.unit_us", Json::number(Host.medianUnit() * 1e6));
  emit(Out);
  return 0;
}
