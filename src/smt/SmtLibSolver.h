//===- SmtLibSolver.h - External SMT-LIB2 backends --------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Out-of-process SMT solving behind the SmtSolver facade — the role
/// Z3/CVC4/Boolector play in the paper (§6.3), reached over a pipe-based
/// SMT-LIB2 REPL (ExtProcess.h + the SmtLib.h printer/reply parser).
/// Three pieces:
///
///  - SmtLibSolver: drives one external solver process. One-shot queries
///    are posed in a push/pop scope; incremental sessions mirror
///    SmtSolver::IncrementalSession onto the same process by guarding
///    each session's premises with a Boolean activation constant and
///    posing goals via push / assert / (check-sat-assuming (act)) / pop —
///    the same activation-literal discipline BitBlastSolver's sessions
///    use natively. Sat answers can read counterexample bit-vectors back
///    through get-model. Every external failure mode (binary not found,
///    crash/EOF, timeout, malformed reply) degrades gracefully: the query
///    is re-answered by an embedded in-repo BitBlastSolver and counted in
///    extStats(), so a missing solver binary never changes any verdict —
///    it only forfeits the cross-checking value.
///
///  - CrossCheckSolver: runs a reference backend and an external backend
///    on every query and hard-fails (configurable) on any sat/unsat
///    divergence — the end-to-end cross-check of the in-repo bit-blaster
///    that the ROADMAP's external-backend item asks for.
///
///  - createSolverBackend(): the backend factory behind
///    core::Engine::create and the CLI's --backend flag
///    ("bitblast" | "smtlib:<cmd>" | "crosscheck[:<cmd>]").
///
/// Threading contract (docs/ARCHITECTURE.md): one external process
/// belongs to exactly one backend instance, and one backend instance to
/// one thread (the service builds one per lane). Processes, pipes and
/// sessions never cross threads.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SMT_SMTLIBSOLVER_H
#define LEAPFROG_SMT_SMTLIBSOLVER_H

#include "smt/ExtProcess.h"
#include "smt/Solver.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace leapfrog {
namespace smt {

/// How to reach and talk to one external solver.
struct SmtLibConfig {
  /// The solver command; argv[0] is resolved through PATH. The solver
  /// must read SMT-LIB2 from stdin and reply on stdout (z3 needs "-in",
  /// cvc5 "--incremental"; see docs/SOLVERS.md for known-good lines).
  std::vector<std::string> Argv;
  /// Per-reply deadline. A check-sat that exceeds it kills the process
  /// and answers through the fallback — the facade has no "unknown".
  int QueryTimeoutMs = 60000;
  /// After this many process-level failures (spawn failure, crash,
  /// timeout, protocol error) the backend stops respawning and answers
  /// everything through the fallback.
  int MaxProcessFailures = 3;
  /// Fetch a model for *every* external sat answer (one extra get-model
  /// round-trip when the caller did not ask for one) and check it
  /// satisfies the query via evalFormula; a failing check demotes the
  /// answer to a protocol error and the in-repo fallback. This makes the
  /// sat direction trustless. Unsat answers have no cheap witness — use
  /// CrossCheckSolver (or the bitblast backend's DRUP certification) to
  /// remove trust there.
  bool ValidateModels = true;
  /// Print one stderr notice the first time a query falls back.
  bool WarnOnFallback = true;
};

/// An SmtSolver backend answering through an external SMT-LIB2 process.
class SmtLibSolver : public SmtSolver {
public:
  explicit SmtLibSolver(SmtLibConfig Config);
  ~SmtLibSolver() override;

  SatResult checkSat(const BvFormulaRef &F, Model *M) override;

  /// Incremental sessions share this backend's one process, namespaced by
  /// a per-session variable prefix and a per-session Boolean activation
  /// constant; see the file comment. Falls back per query — through a
  /// mirrored in-repo incremental session, so even permanent-fallback
  /// operation keeps session-grade performance.
  std::unique_ptr<IncrementalSession>
  openSession(const SessionLimits &Limits) override;
  using SmtSolver::openSession;

  /// External-transport counters, separate from SolverStats (which keeps
  /// the same backend-agnostic meaning as everywhere else).
  struct ExtStats {
    uint64_t Spawns = 0;          ///< Processes started, respawns included.
    uint64_t ExternalQueries = 0; ///< Queries the external solver answered.
    uint64_t FallbackQueries = 0; ///< Queries the in-repo solver answered.
    uint64_t Timeouts = 0;        ///< Replies that missed QueryTimeoutMs.
    uint64_t Eofs = 0;            ///< Process exits/crashes mid-dialogue.
    uint64_t ProtocolErrors = 0;  ///< Unparseable / error / unknown replies.
  };
  const ExtStats &extStats() const { return Ext; }
  const SmtLibConfig &config() const { return Config; }
  /// Mutable knobs (timeout, failure budget) for tool frontends; takes
  /// effect from the next query. Changing Argv after the first spawn is
  /// not supported.
  SmtLibConfig &config() { return Config; }
  /// True once MaxProcessFailures was reached and the backend stopped
  /// respawning; every later query is answered in-repo.
  bool permanentFallback() const { return Permanent; }

  /// Splits a command line on whitespace into argv (no quoting rules —
  /// solver invocations are flag lists, not shell scripts).
  static std::vector<std::string> splitCommand(const std::string &Cmd);

  /// Cooperative cancellation (see SmtSolver::interrupt): posts to the
  /// process's self-pipe so a blocked pipe read/write returns promptly,
  /// and interrupts the embedded fallback solver so a query answered
  /// in-repo abandons just as fast. An interrupted wire exchange kills
  /// the process (the dialogue is desynced mid-query) but does NOT charge
  /// the failure budget — cancellation is the portfolio working as
  /// intended, not the solver misbehaving; the next query respawns and
  /// sessions resync their premises through the epoch mechanism.
  void interrupt() override {
    IntRequested.store(true, std::memory_order_relaxed);
    Fallback.interrupt();
    Proc.requestInterrupt();
  }
  bool interrupted() const override {
    return IntRequested.load(std::memory_order_relaxed);
  }
  void clearInterrupt() override {
    IntRequested.store(false, std::memory_order_relaxed);
    Fallback.clearInterrupt();
    Proc.clearInterruptRequest();
  }

private:
  class ExtSession;

  /// Ensures a live, handshaken process (spawning or respawning if
  /// allowed); returns false when the backend is (or just became)
  /// fallback-only.
  bool ensureProcess();
  /// Records a process-level failure: kills the process, counts it, and
  /// flips Permanent when the failure budget is exhausted.
  void processFailure(const char *What);
  void warnFallback(const char *Why);
  /// Sends a command whose only acceptable replies are "success" (or
  /// "unsupported", which set-option may legitimately draw); anything
  /// else is a process failure.
  bool command(const std::string &Line);
  /// Sends a command and returns its reply verbatim; classifies
  /// timeout/EOF into processFailure.
  bool exchange(const std::string &Line, std::string &Reply);
  /// Declares \p Vars (sanitized-name → width) not yet known to the live
  /// process; \p Record=false keeps them out of the declared set (used
  /// inside one-shot push scopes, where the solver pops them again).
  bool declareVars(const std::vector<std::pair<std::string, size_t>> &Vars,
                   bool Record);
  /// The external one-shot path; false = answer via fallback.
  bool tryExternalCheckSat(const BvFormulaRef &F, Model *M, SatResult &R);
  /// Reads and parses a get-model reply for \p Original (renamed by
  /// \p Prefix) into \p M under the *original* variable names; vars the
  /// solver omitted default to zero.
  bool readModel(const std::vector<BvFormulaRef> &Originals,
                 const std::string &Prefix, Model *M);
  /// The fetch/parse half of readModel without the satisfaction check:
  /// batched rounds are *disjunctive*, so the model legitimately
  /// falsifies some of the scope's formulas and the caller validates the
  /// ones it attributes answers to.
  bool readModelRaw(const std::vector<BvFormulaRef> &Scope,
                    const std::string &Prefix, Model *M);
  /// Tears the process down after an interrupted exchange: the dialogue
  /// is desynced, but no failure is charged (see interrupt()).
  void interruptedTeardown();

  SmtLibConfig Config;
  ExtProcess Proc;
  ExtStats Ext;
  bool Permanent = false;  ///< No more respawn attempts.
  bool Warned = false;     ///< The one-time fallback notice fired.
  int Failures = 0;        ///< Process-level failures so far.
  uint64_t Epoch = 0;      ///< Incremented per (re)spawn; sessions resync
                           ///< their premises when it moves.
  uint64_t QueryCounter = 0;   ///< One-shot variable-prefix source.
  uint64_t SessionCounter = 0; ///< Session id / prefix source.
  /// Sanitized symbol → width, declared at the live process's base level.
  std::unordered_map<std::string, size_t> Declared;
  /// Set by interrupt() (any thread), cleared by clearInterrupt().
  std::atomic<bool> IntRequested{false};
  /// In-repo answers for everything the external process cannot provide.
  BitBlastSolver Fallback;
};

/// Runs every query on two backends and compares sat/unsat answers; the
/// reference backend's answers (and models) are what callers see. On
/// divergence the offending query is dumped as a complete SMT-LIB script
/// and — with AbortOnDivergence, the default — the process aborts, the
/// same policy as a failed DRUP replay: an unexplained solver
/// disagreement means a soundness bug somewhere, and there is no
/// meaningful recovery.
class CrossCheckSolver : public SmtSolver {
public:
  CrossCheckSolver(std::unique_ptr<SmtSolver> Reference,
                   std::unique_ptr<SmtSolver> External);
  ~CrossCheckSolver() override;

  SatResult checkSat(const BvFormulaRef &F, Model *M) override;
  std::unique_ptr<IncrementalSession>
  openSession(const SessionLimits &Limits) override;
  using SmtSolver::openSession;

  bool AbortOnDivergence = true;

  /// Proof capture routes to the reference backend: every query — session
  /// or one-shot — is answered by the reference and merely *compared*
  /// against the external solver, so the reference's per-goal DRUP slices
  /// cover externally cross-checked verdicts without any get-proof
  /// support. This is how certified checks use external solvers: the
  /// checker rewrites "smtlib:<cmd>" to "crosscheck:<cmd>" when
  /// certification is requested (see core::CheckOptions::Certify).
  bool attachProofLog(ProofLog *Log) override {
    return Ref->attachProofLog(Log);
  }
  void detachProofLog() override { Ref->detachProofLog(); }
  bool supportsProofCapture() const override {
    return Ref->supportsProofCapture();
  }

  /// Cancellation fans out to both legs; either leg reporting an
  /// abandoned query makes the whole cross-checked answer garbage.
  void interrupt() override {
    Ref->interrupt();
    Extern->interrupt();
  }
  bool interrupted() const override {
    return Ref->interrupted() || Extern->interrupted();
  }
  void clearInterrupt() override {
    Ref->clearInterrupt();
    Extern->clearInterrupt();
  }

  struct XStats {
    uint64_t Checked = 0;     ///< Queries posed to both backends.
    uint64_t Divergences = 0; ///< sat/unsat disagreements observed.
  };
  const XStats &crossStats() const { return X; }
  SmtSolver &reference() { return *Ref; }
  SmtSolver &external() { return *Extern; }

private:
  class CrossSession;

  /// Reports one divergence on \p Query (premises folded in by the
  /// session path) and aborts if configured to.
  void diverged(const BvFormulaRef &Query, SatResult RefR, SatResult ExtR);

  std::unique_ptr<SmtSolver> Ref, Extern;
  XStats X;
};

/// The backend factory behind core::Engine::create and the CLI's
/// --backend flag. Specs:
///
///   "" / "bitblast"      — the in-repo bit-blasting backend (default)
///   "smtlib:<cmd line>"  — external SMT-LIB2 process, e.g.
///                          "smtlib:z3 -in", "smtlib:cvc5 --incremental"
///   "crosscheck"         — bitblast vs "z3 -in", hard-fail on divergence
///   "crosscheck:<cmd>"   — bitblast vs the given solver command
///   "portfolio:<leg>,…"  — race the comma-separated leg specs per query,
///                          first answer wins, losers are cancelled; e.g.
///                          "portfolio:bitblast,smtlib:z3 -in". Legs may
///                          be any non-portfolio spec (crosscheck legs
///                          compose). No proof capture (see Portfolio.h).
///
/// Returns nullptr and fills \p Error on a malformed spec. A well-formed
/// spec whose binary turns out to be missing still succeeds here: the
/// failure is discovered at the first query and degrades to the in-repo
/// solver (see SmtLibSolver), keeping external solvers an optional
/// dependency everywhere.
std::unique_ptr<SmtSolver> createSolverBackend(const std::string &Spec,
                                               std::string *Error = nullptr);

} // namespace smt
} // namespace leapfrog

#endif // LEAPFROG_SMT_SMTLIBSOLVER_H
