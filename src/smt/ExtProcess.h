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
  };

  ExtProcess() = default;
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

private:
  /// Refills Buffer from the child's stdout; respects \p DeadlineMs as an
  /// absolute monotonic deadline.
  IoResult fill(long long DeadlineMs);

  int Pid = -1;
  int InFd = -1;  ///< Write end: the child's stdin.
  int OutFd = -1; ///< Read end: the child's stdout.
  std::string Buffer; ///< Bytes read but not yet consumed by readReply.
};

} // namespace smt
} // namespace leapfrog

#endif // LEAPFROG_SMT_EXTPROCESS_H
