//===- ExtProcess.h - Pipe-managed external solver process ------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line/s-expression-oriented REPL over a child process's stdin/stdout —
/// the transport under SmtLibSolver (SmtLibSolver.h), playing the role of
/// the pipe between the paper's Coq plugin and Z3/CVC4/Boolector (§6.3).
///
/// The class owns exactly one child process at a time. Every read carries a
/// deadline; a timeout, EOF, or write failure leaves the process in a state
/// the caller must treat as dead (kill() + restart or give up). Destruction
/// kills and reaps the child, so a leaked solver process cannot outlive the
/// backend that spawned it. The threading contract matches the rest of
/// smt/: one ExtProcess belongs to exactly one backend instance, and
/// backend instances never cross threads (docs/ARCHITECTURE.md, "Threading
/// contract" — one external process per lane).
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SMT_EXTPROCESS_H
#define LEAPFROG_SMT_EXTPROCESS_H

#include <string>
#include <vector>

namespace leapfrog {
namespace smt {

/// One child process speaking a textual REPL over pipes.
class ExtProcess {
public:
  /// Outcome of a read/write against the child.
  enum class IoResult {
    Ok,      ///< The operation completed.
    Timeout, ///< The deadline expired before a complete reply arrived.
    Eof,     ///< The child closed its stdout (it exited or crashed).
    Error,   ///< An OS-level pipe error (EPIPE on write, read failure).
    Interrupted, ///< requestInterrupt() fired while the operation waited.
  };

  ExtProcess();
  ~ExtProcess();

  ExtProcess(const ExtProcess &) = delete;
  ExtProcess &operator=(const ExtProcess &) = delete;

  /// Spawns \p Argv (argv[0] resolved through PATH). Returns false — with
  /// a diagnostic in \p Error if non-null — when the pipes or the fork
  /// fail, or when the child dies before writing anything *and* exec
  /// failed (a child that execs successfully but exits at once is only
  /// discovered by the first read returning Eof). A process is already
  /// running: returns false.
  bool start(const std::vector<std::string> &Argv, std::string *Error);

  /// True while a child has been started and not yet reaped. This is the
  /// caller-side view: a child that crashed is still "running" here until
  /// a read reports Eof and the caller kills it.
  bool started() const { return Pid > 0; }

  /// SIGKILLs and reaps the child, closing both pipes. Idempotent.
  void kill();

  /// Writes \p Line plus a newline to the child's stdin, within
  /// \p TimeoutMs milliseconds — a child that stops draining its stdin
  /// fills the pipe, and an undeadlined write would hang the caller with
  /// no fallback (the read-side timeout can never fire first).
  IoResult writeLine(const std::string &Line, int TimeoutMs);

  /// Reads one reply: either a bare atom ("sat", "success", …) or one
  /// complete parenthesis-balanced s-expression (which may span lines —
  /// get-model replies do), skipping leading whitespace. String literals
  /// inside the reply may contain parentheses; they are tracked. The
  /// whole reply must arrive within \p TimeoutMs milliseconds.
  IoResult readReply(std::string &Out, int TimeoutMs);

  /// Cooperative cancellation via a self-pipe: requestInterrupt() may be
  /// called from ANY thread (a single-byte pipe write is async-signal and
  /// thread safe) and makes the blocked read/write on the owning thread
  /// return IoResult::Interrupted promptly. The self-pipe is created once
  /// in the constructor and lives for the whole object — kill()/start()
  /// cycles don't disturb it, so a concurrent requestInterrupt() never
  /// races a closing fd. A request posted while nothing is blocked stays
  /// pending and would trip the next operation; callers re-arming for a
  /// fresh query must clearInterruptRequest() first (the portfolio leg
  /// pickup protocol does).
  void requestInterrupt();
  void clearInterruptRequest();

private:
  /// Refills Buffer from the child's stdout; respects \p DeadlineMs as an
  /// absolute monotonic deadline.
  IoResult fill(long long DeadlineMs);

  int Pid = -1;
  int InFd = -1;  ///< Write end: the child's stdin.
  int OutFd = -1; ///< Read end: the child's stdout.
  int IntR = -1;  ///< Self-pipe read end, polled alongside the child fds.
  int IntW = -1;  ///< Self-pipe write end: requestInterrupt() posts here.
  std::string Buffer; ///< Bytes read but not yet consumed by readReply.
};

} // namespace smt
} // namespace leapfrog

#endif // LEAPFROG_SMT_EXTPROCESS_H
