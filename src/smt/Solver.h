//===- Solver.h - SMT solving facade ----------------------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver interface the equivalence checker programs against — the role
/// of the paper's Coq plugin plus external solver (Figure 6, the trusted
/// "Plugin" and "Solver" boxes). The default backend bit-blasts to the
/// in-repo CDCL solver; the interface is virtual so tests can inject a
/// deliberately unsound backend and demonstrate that certificate replay
/// (core/Certificate.h) catches it, mirroring the paper's TCB discussion
/// in §6.4.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SMT_SOLVER_H
#define LEAPFROG_SMT_SOLVER_H

#include "smt/BvFormula.h"
#include "smt/Sat.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace leapfrog {
namespace smt {

class ProofLog;

/// Outcome of a satisfiability query.
enum class SatResult { Sat, Unsat };

/// A satisfying assignment: variable name → value.
using Model = std::vector<std::pair<std::string, Bitvector>>;

/// Cumulative statistics across queries, reported by the bench harness
/// (the paper's §7.3 "SMT Solver Performance" discussion).
struct SolverStats {
  uint64_t Queries = 0;
  uint64_t SatAnswers = 0;
  uint64_t UnsatAnswers = 0;
  /// Physical solver round-trips: actual CDCL solve calls, or — for the
  /// external backend — check-sat wire exchanges with the child process.
  /// Equals Queries for unbatched solving; batched sessions
  /// (IncrementalSession::checkSatBatch) answer several goals per
  /// round-trip, so RoundTrips < Queries is the direct measure of the
  /// batching win (check_perf_baseline.py gates on it).
  uint64_t RoundTrips = 0;
  uint64_t TotalSatVars = 0;
  uint64_t TotalSatClauses = 0;
  uint64_t TotalMicros = 0;
  uint64_t MaxMicros = 0;
  /// Proof-certification counters (BitBlastSolver with CertifyUnsat).
  uint64_t CertifiedUnsat = 0; ///< UNSAT answers checked in-process by
                               ///< cert::StreamChecker.
  uint64_t ProofLemmas = 0;    ///< Lemma events it checked.
  uint64_t ProofMicros = 0;    ///< Time spent checking them.
  /// Incremental-session counters (SmtSolver::openSession).
  uint64_t SessionsOpened = 0;
  uint64_t SessionQueries = 0;   ///< Queries answered through a session.
  uint64_t SessionPremises = 0;  ///< Premise conjuncts blasted into sessions.
  uint64_t PremiseCacheHits = 0; ///< Premises deduplicated by the
                                 ///< structural-hash cache instead of
                                 ///< being re-blasted.
  uint64_t ReusedClauses = 0;    ///< Σ over session queries of the clauses
                                 ///< (premise CNF + learned) already live
                                 ///< in the solver when the query started —
                                 ///< work a monolithic solver would redo.
  /// Session memory-management counters (BitBlastSolver sessions only;
  /// all zero on the monolithic fallback, which holds no solver state).
  /// The totals are monotone across queries and session restarts.
  uint64_t ClausesDeleted = 0;  ///< Clauses hard-deleted by reduceDB and
                                ///< by retired-goal purges, summed over
                                ///< every session CDCL instance.
  uint64_t ReduceDbRuns = 0;    ///< Learned-DB reductions across sessions.
  uint64_t ArenaBytesPeak = 0;  ///< Max live clause-arena bytes any single
                                ///< session CDCL instance ever reached.
  uint64_t PeakLearnts = 0;     ///< Max simultaneous learned clauses in
                                ///< any single session CDCL instance.
  uint64_t SessionRestarts = 0; ///< SessionLimits trips: the session was
                                ///< torn down and rebuilt from premises.
  uint64_t PremisesGcd = 0;     ///< Premise groups (structural-hash cache
                                ///< entries + their blasted CNF) collected
                                ///< when a session restart dropped its
                                ///< solver; the premises themselves are
                                ///< re-blasted from the cached formulas.
  /// CDCL work inside the solve calls that answered one way (BitBlastSolver
  /// only): deltas of SatSolver::Stats around each physical solve, split by
  /// its answer. Deterministic for a given query sequence, so the perf gate
  /// can hold decisions per SAT answer tight (check_perf_baseline.py).
  struct SatWork {
    uint64_t Solves = 0;
    uint64_t Decisions = 0;
    uint64_t Propagations = 0;
    uint64_t Conflicts = 0;
  };
  SatWork OnSat;   ///< Solves that answered SAT.
  SatWork OnUnsat; ///< Solves that answered UNSAT.
};

/// Memory bounds for an incremental session (0 = unlimited). Checked
/// after every query against the session solver's *peak* footprint since
/// it was (re)built — memory is consumed at the peak, not at the
/// post-query residue, so the peak is what a bound must bound. A session
/// over either limit is torn down and rebuilt from its cached premise
/// formulas — correct by construction, since the rebuilt solver answers
/// from exactly the same premise set — trading the accumulated learned
/// clauses for a bounded footprint. Retired-goal deletion and the
/// in-solver reduceDB keep sessions under sane bounds on their own, so
/// restarts are the backstop, not the steady state.
struct SessionLimits {
  size_t MaxLearnts = 0;    ///< Peak simultaneous learned clauses.
  size_t MaxArenaBytes = 0; ///< Peak live clause-arena bytes.
};

/// Abstract satisfiability backend for FOL(BV).
class SmtSolver {
public:
  virtual ~SmtSolver() = default;

  /// An incremental solving session: persistent *premises* asserted once,
  /// then many per-query *goals* posed against their conjunction. This is
  /// the shape of the checker's entailment loop (⋀R ⊨ ψ with R growing
  /// monotonically): each conjunct of R is asserted exactly once per
  /// session, and each popped ψ becomes one goal query.
  ///
  /// Contract: checkSatUnderPremises(G, M) must answer exactly like
  /// checkSat(P₁ ∧ … ∧ Pₙ ∧ G, M) on the premises asserted so far — the
  /// default implementation *is* that conjunction (correct for any
  /// backend); BitBlastSolver overrides it with a long-lived CDCL
  /// instance, activation literals and a premise bit-blast cache.
  ///
  /// A session must not outlive the solver that opened it. Sessions are
  /// not thread-safe, and share the owning solver's statistics.
  class IncrementalSession {
  public:
    virtual ~IncrementalSession() = default;

    /// Asserts \p F as a persistent premise for all later queries.
    virtual void assertPremise(const BvFormulaRef &F) = 0;

    /// Decides satisfiability of (asserted premises) ∧ \p Goal; fills
    /// \p M with a witness when satisfiable (nullptr to skip).
    virtual SatResult checkSatUnderPremises(const BvFormulaRef &Goal,
                                            Model *M) = 0;

    /// Batched form: decides every goal independently against the same
    /// premise set, resizing \p Out so Out[i] equals what
    /// checkSatUnderPremises(Goals[i], nullptr) would have answered. No
    /// models are produced. The base implementation loops the per-goal
    /// query (correct for any backend); session backends override it to
    /// share one activation scope and answer several goals per physical
    /// round-trip — a SAT round's model resolves every goal it satisfies,
    /// and an UNSAT round's failed-assumption core licenses attributing
    /// Unsat to all goals still pending, so the worst case is one
    /// round-trip per goal and the entailment-heavy typical case is one
    /// round-trip total. Answers must not depend on batch composition.
    virtual void checkSatBatch(const std::vector<BvFormulaRef> &Goals,
                               std::vector<SatResult> &Out) {
      Out.resize(Goals.size(), SatResult::Sat);
      for (size_t I = 0; I < Goals.size(); ++I)
        Out[I] = checkSatUnderPremises(Goals[I], nullptr);
    }

    /// Entailment of \p F by the asserted premises, decided as
    /// UNSAT(premises ∧ ¬F) — the session analogue of isValid().
    bool isEntailed(const BvFormulaRef &F) {
      return checkSatUnderPremises(BvFormula::mkNot(F), nullptr) ==
             SatResult::Unsat;
    }
  };

  /// Opens an incremental session against this backend. The base
  /// implementation returns a monolithic fallback that replays the
  /// premise conjunction through checkSat() on every query — no state is
  /// carried over, but the answers are correct by construction for any
  /// backend (and inherit per-query certification when the backend
  /// certifies checkSat). \p Limits bounds the session's solver-side
  /// memory; backends without long-lived solver state (the fallback)
  /// ignore it.
  virtual std::unique_ptr<IncrementalSession>
  openSession(const SessionLimits &Limits);

  /// Shorthand for an unlimited session.
  std::unique_ptr<IncrementalSession> openSession() {
    return openSession(SessionLimits());
  }

  /// Attaches a proof log (see ProofLog.h): sessions opened while a log is
  /// attached record one per-goal DRUP slice stream each, and one-shot
  /// UNSAT answers record one-shot streams, so every UNSAT this backend
  /// reports afterwards is covered by a replayable proof slice in \p Log.
  /// Returns false when the backend cannot capture proofs (the base
  /// default; also SmtLibSolver, which has no access to the external
  /// solver's reasoning — route it through CrossCheckSolver instead, whose
  /// bit-blasting reference leg records the proof). The log must outlive
  /// the attachment; detach before destroying it. Attaching does not
  /// change answers or decision order — capture is passive.
  virtual bool attachProofLog(ProofLog *Log) {
    (void)Log;
    return false;
  }
  virtual void detachProofLog() {}
  /// True when attachProofLog() would succeed on this backend.
  virtual bool supportsProofCapture() const { return false; }

  /// Decides satisfiability of \p F over its free variables; fills \p M
  /// with a witness when satisfiable (pass nullptr to skip).
  ///
  /// Precondition: \p F must be well-sorted — every variable occurrence
  /// agrees on width and every operator's operand widths are consistent
  /// (guaranteed by the logic/Lower.h chain; asserted by the default
  /// backend's bit-blaster). The query is decided exactly: no unknowns,
  /// no timeouts at this layer (callers budget wall-clock above, see
  /// core::CheckOptions::MaxWallMicros).
  ///
  /// Complexity: FOL(BV) satisfiability is NP-complete. The default
  /// backend emits a CNF of O(nodes × width) variables and clauses and
  /// runs CDCL over it — exponential worst case, fast on the checker's
  /// entailment queries in practice (§7.3 reports median solver times in
  /// the milliseconds).
  virtual SatResult checkSat(const BvFormulaRef &F, Model *M) = 0;

  /// Validity of the universal closure: ∀x⃗. F, decided as UNSAT(¬F).
  /// On invalidity, fills \p Counterexample if non-null with a falsifying
  /// assignment. This is the only operation the equivalence checker and
  /// the certificate replayer need, which is why UNSAT answers are the
  /// certified direction (see BitBlastSolver::CertifyUnsat).
  bool isValid(const BvFormulaRef &F, Model *Counterexample = nullptr);

  const SolverStats &stats() const { return Stats; }

protected:
  SolverStats Stats;

private:
  class MonolithicSession; ///< The openSession() fallback (Solver.cpp).
};

/// The default backend: bit-blasting + CDCL (see BitBlast.h, Sat.h).
class BitBlastSolver : public SmtSolver {
public:
  SatResult checkSat(const BvFormulaRef &F, Model *M) override;

  /// Incremental sessions backed by one long-lived SatSolver: premises
  /// are bit-blasted once (deduplicated by a structural-hash cache) and
  /// goals are guarded by fresh activation literals solved under
  /// assumptions, so learned clauses, watch lists and VSIDS/phase state
  /// carry over between queries. With CertifyUnsat or an attached proof
  /// log the session records per-goal DRUP slices under each goal's
  /// activation scope — deletions are part of the stream, so reduceDB and
  /// goal GC stay legal — into the attached ProofLog, and under
  /// CertifyUnsat checks each goal's slice before answering.
  ///
  /// Session memory is bounded, not monotone: every goal's clauses
  /// (guard, Tseitin definitions, and any lemma derived from them) are
  /// hard-deleted when the goal's activation literal is retired, the
  /// learned-clause DB is reduced on SessionReduce's schedule, and
  /// \p Limits — when non-zero — triggers a full session rebuild from
  /// the cached premise formulas as a last resort.
  std::unique_ptr<IncrementalSession>
  openSession(const SessionLimits &Limits) override;
  using SmtSolver::openSession;

  /// When set, every UNSAT answer is accompanied by a DRUP proof stream
  /// (ProofLog.h) that is checked before the answer is reported; a failed
  /// check aborts. The checker is cert::StreamChecker, the one
  /// leapfrog-certcheck runs on serialized certificates: a one-shot query
  /// is checked as one unguarded goal, a session goal's slice as the goal
  /// closes. This removes the CDCL solver from the trusted base, the
  /// "proof reconstruction" step the paper's §6.4 leaves as future work.
  /// SAT answers need no certification: the checker's callers only act on
  /// validity (UNSAT of the negation), and SAT answers carry a model that
  /// is checked against the formula by construction of the bit-blaster's
  /// variable mapping. With a proof log attached as well, the checked
  /// streams are the ones recorded into it; without one, checked events
  /// are dropped, so certifying memory stays bounded by the live clause
  /// database.
  bool CertifyUnsat = false;

  bool attachProofLog(ProofLog *Log) override {
    CaptureLog = Log;
    return true;
  }
  void detachProofLog() override { CaptureLog = nullptr; }
  bool supportsProofCapture() const override { return true; }

  /// Clause-DB reduction policy handed to every session's CDCL solver.
  /// The default geometric schedule is the production setting; tests
  /// force an aggressive schedule (reduce at every opportunity) or
  /// disable reduction entirely to differentially check that answers are
  /// invariant under it. One-shot checkSat() solves always run with
  /// reduction off — a single query never lives long enough to benefit,
  /// and with CertifyUnsat the smaller clause set keeps proofs lean.
  SatSolver::ReducePolicy SessionReduce;

  /// Hard goal retirement (the default): each session goal is blasted
  /// under its activation guard and its clauses — plus every lemma
  /// derived from them — are physically deleted after the query (batched
  /// through SatSolver::simplify()). Off restores the grow-only PR-2
  /// behavior where retired goals stay as permanently satisfied dead
  /// weight; kept as an ablation/baseline knob, differential-tested to
  /// answer identically.
  bool SessionHardRetire = true;

  /// Retirement purges are batched: a session runs simplify() once the
  /// retired-clause estimate reaches max(SessionPurgeBatch, live/4) —
  /// the scan plus watcher rebuild is O(database), so purging per query
  /// would dominate premise-heavy sessions, while a 25% dead-weight
  /// ceiling keeps the amortized cost constant. Tests drop this to 1 to
  /// purge at every opportunity.
  size_t SessionPurgeBatch = 2048;

private:
  class Session; ///< The incremental openSession() backend (Solver.cpp).
  /// Destination for proof streams while attached; sessions opened while
  /// set record into it, and one-shot UNSAT answers add one-shot streams.
  ProofLog *CaptureLog = nullptr;
};

/// Returns the process-wide default solver instance (a BitBlastSolver
/// without proof certification). Not thread-safe: the instance, its
/// statistics, and any sessions opened on it are shared mutable state, so
/// concurrent checkers must each construct their own backend and pass it
/// via core::CheckOptions::Solver. Debug builds assert that every call
/// comes from the thread that *first* touched the instance — ownership
/// never rebinds, so even sequential use from a second thread trips the
/// check (the conservative rule is free of synchronization), and the
/// diagnostic reports both the owning and the offending thread id; any
/// multi-thread program should construct one backend per thread instead
/// (one check = one thread = one backend is the threading contract, see
/// docs/ARCHITECTURE.md; the service builds one core::Engine per lane).
SmtSolver &defaultSolver();

} // namespace smt
} // namespace leapfrog

#endif // LEAPFROG_SMT_SOLVER_H
