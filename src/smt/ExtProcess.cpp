//===- ExtProcess.cpp - Pipe-managed external solver process --------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/ExtProcess.h"

#include "obs/Clock.h"
#include "smt/SmtLib.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace leapfrog;
using namespace leapfrog::smt;

namespace {

// Deadline arithmetic is purely relative, so any fixed epoch works; pinning
// one here keeps the values small and the clock source in obs::Clock.
long long nowMs() {
  static const obs::Clock::TimePoint Epoch = obs::Clock::now();
  return static_cast<long long>(obs::Clock::microsSince(Epoch) / 1000);
}

/// A solver that exits mid-query turns our next write into SIGPIPE, which
/// would kill the whole checker; writeLine wants EPIPE instead so it can
/// report Error and let the backend fall back. Installed once, process
/// wide — SIG_IGN is inherited and composes with any later handler the
/// embedding application installs (we never un-ignore).
void ignoreSigpipeOnce() {
  static std::once_flag Once;
  std::call_once(Once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

} // namespace

ExtProcess::ExtProcess() {
  // The cancellation self-pipe lives for the whole object, across any
  // number of start()/kill() cycles, so requestInterrupt() from another
  // thread never races a closing fd. Both ends non-blocking: a full pipe
  // on request just means an interrupt is already pending, and draining
  // must never block the owning thread.
  int P[2] = {-1, -1};
  if (::pipe2(P, O_CLOEXEC) == 0) {
    ::fcntl(P[0], F_SETFL, O_NONBLOCK);
    ::fcntl(P[1], F_SETFL, O_NONBLOCK);
    IntR = P[0];
    IntW = P[1];
  }
}

ExtProcess::~ExtProcess() {
  kill();
  if (IntR >= 0)
    ::close(IntR);
  if (IntW >= 0)
    ::close(IntW);
}

void ExtProcess::requestInterrupt() {
  if (IntW < 0)
    return;
  char Byte = 1;
  // EAGAIN means the pipe already holds a pending request — equivalent.
  ssize_t Ignored = ::write(IntW, &Byte, 1);
  (void)Ignored;
}

void ExtProcess::clearInterruptRequest() {
  if (IntR < 0)
    return;
  char Sink[64];
  while (::read(IntR, Sink, sizeof(Sink)) > 0)
    ;
}

bool ExtProcess::start(const std::vector<std::string> &Argv,
                       std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (Pid > 0)
    return Fail("a child process is already running");
  if (Argv.empty())
    return Fail("empty command");
  ignoreSigpipeOnce();

  // O_CLOEXEC atomically: backends on different service lanes (one
  // thread each) fork concurrently, and a pipe end leaked into a
  // sibling's child would keep this child's stdout open after it dies —
  // EOF detection would then stall for the full reply timeout instead of
  // failing over instantly. dup2 below clears the flag on exactly the
  // two fds the child must keep.
  int ToChild[2] = {-1, -1}, FromChild[2] = {-1, -1};
  if (::pipe2(ToChild, O_CLOEXEC) != 0)
    return Fail(std::string("pipe2: ") + std::strerror(errno));
  if (::pipe2(FromChild, O_CLOEXEC) != 0) {
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    return Fail(std::string("pipe2: ") + std::strerror(errno));
  }
  // Writes must honor deadlines too (a wedged solver stops draining its
  // stdin, and a large query overfills the pipe): non-blocking end plus
  // poll(POLLOUT) in writeLine.
  ::fcntl(ToChild[1], F_SETFL, O_NONBLOCK);

  std::vector<char *> Cargv;
  Cargv.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Cargv.push_back(const_cast<char *>(A.c_str()));
  Cargv.push_back(nullptr);

  int Child = ::fork();
  if (Child < 0) {
    for (int Fd : {ToChild[0], ToChild[1], FromChild[0], FromChild[1]})
      ::close(Fd);
    return Fail(std::string("fork: ") + std::strerror(errno));
  }
  if (Child == 0) {
    // Child: wire the pipes to stdin/stdout; stderr is inherited so solver
    // diagnostics land next to ours. dup2 clears O_CLOEXEC on the new
    // fds; the originals close themselves at exec. The child's stdin
    // must block normally — the O_NONBLOCK above was set on the file
    // *description* of the write end only, which the child does not keep.
    ::dup2(ToChild[0], STDIN_FILENO);
    ::dup2(FromChild[1], STDOUT_FILENO);
    ::execvp(Cargv[0], Cargv.data());
    // exec failed: exit without running any parent-inherited atexit state.
    ::_exit(127);
  }

  ::close(ToChild[0]);
  ::close(FromChild[1]);
  Pid = Child;
  InFd = ToChild[1];
  OutFd = FromChild[0];
  Buffer.clear();
  return true;
}

void ExtProcess::kill() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGKILL);
  int Status = 0;
  // SIGKILL cannot be caught, so the blocking reap terminates promptly
  // (EINTR excepted, hence the loop).
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  if (InFd >= 0)
    ::close(InFd);
  if (OutFd >= 0)
    ::close(OutFd);
  Pid = -1;
  InFd = -1;
  OutFd = -1;
  Buffer.clear();
}

ExtProcess::IoResult ExtProcess::writeLine(const std::string &Line,
                                           int TimeoutMs) {
  if (Pid <= 0)
    return IoResult::Error;
  std::string Out = Line;
  Out.push_back('\n');
  long long Deadline = nowMs() + TimeoutMs;
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::write(InFd, Out.data() + Off, Out.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // The pipe is full because the child stopped draining its stdin
        // (wedged solver + a query larger than the pipe capacity). Wait
        // under the same deadline discipline as reads — a blocked write
        // would otherwise hang the checker with no fallback.
        long long Remaining = Deadline - nowMs();
        if (Remaining <= 0)
          return IoResult::Timeout;
        struct pollfd Pfds[2];
        Pfds[0].fd = InFd;
        Pfds[0].events = POLLOUT;
        Pfds[1].fd = IntR;
        Pfds[1].events = POLLIN;
        int PollRes = ::poll(Pfds, IntR >= 0 ? 2 : 1,
                             int(Remaining > 0x7fffffff ? 0x7fffffff
                                                        : Remaining));
        if (PollRes == 0)
          return IoResult::Timeout;
        if (PollRes < 0 && errno != EINTR)
          return IoResult::Error;
        if (PollRes > 0 && IntR >= 0 && (Pfds[1].revents & POLLIN)) {
          clearInterruptRequest();
          return IoResult::Interrupted;
        }
        continue;
      }
      return errno == EPIPE ? IoResult::Eof : IoResult::Error;
    }
    Off += size_t(N);
  }
  return IoResult::Ok;
}

ExtProcess::IoResult ExtProcess::fill(long long DeadlineMs) {
  long long Remaining = DeadlineMs - nowMs();
  if (Remaining < 0)
    Remaining = 0;
  struct pollfd Pfds[2];
  Pfds[0].fd = OutFd;
  Pfds[0].events = POLLIN;
  Pfds[1].fd = IntR;
  Pfds[1].events = POLLIN;
  int PollRes = ::poll(Pfds, IntR >= 0 ? 2 : 1,
                       int(Remaining > 0x7fffffff ? 0x7fffffff : Remaining));
  if (PollRes == 0)
    return IoResult::Timeout;
  if (PollRes < 0)
    return errno == EINTR ? IoResult::Ok : IoResult::Error;
  // Cancellation beats data: a decided race needs the leg released now,
  // and any reply bytes become moot once the process is restarted.
  if (IntR >= 0 && (Pfds[1].revents & POLLIN)) {
    clearInterruptRequest();
    return IoResult::Interrupted;
  }
  struct pollfd &Pfd = Pfds[0];
  if (!(Pfd.revents & (POLLIN | POLLHUP | POLLERR)))
    return IoResult::Ok;
  char Chunk[4096];
  ssize_t N = ::read(OutFd, Chunk, sizeof(Chunk));
  if (N == 0)
    return IoResult::Eof;
  if (N < 0)
    return errno == EINTR ? IoResult::Ok : IoResult::Error;
  Buffer.append(Chunk, size_t(N));
  return IoResult::Ok;
}

ExtProcess::IoResult ExtProcess::readReply(std::string &Out, int TimeoutMs) {
  if (Pid <= 0)
    return IoResult::Error;
  Out.clear();
  long long Deadline = nowMs() + TimeoutMs;
  // The lexical definition of "one reply" lives in SExprScanner
  // (SmtLib.h), shared with the shim's command reader so both ends of
  // the pipe frame messages identically.
  SExprScanner Scanner;
  size_t Pos = 0;   ///< Scan position within Buffer.
  size_t Start = 0; ///< First non-whitespace byte of the reply.
  for (;;) {
    while (Pos < Buffer.size()) {
      switch (Scanner.feed(Buffer[Pos])) {
      case SExprScanner::Step::Skip:
        Start = ++Pos;
        break;
      case SExprScanner::Step::Continue:
        ++Pos;
        break;
      case SExprScanner::Step::Done:
        Out = Buffer.substr(Start, Pos + 1 - Start);
        Buffer.erase(0, Pos + 1);
        return IoResult::Ok;
      case SExprScanner::Step::DoneBefore:
        Out = Buffer.substr(Start, Pos - Start);
        Buffer.erase(0, Pos);
        return IoResult::Ok;
      }
    }
    // A bare atom terminated by EOF (no trailing newline) is still a
    // complete reply; detect that before asking for more bytes.
    IoResult R = fill(Deadline);
    if (R == IoResult::Eof && Scanner.atomInProgress() &&
        Start < Buffer.size()) {
      Out = Buffer.substr(Start);
      Buffer.clear();
      return IoResult::Ok;
    }
    if (R != IoResult::Ok)
      return R;
  }
}
