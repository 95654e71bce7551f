//===- ProofLog.h - Streaming per-goal DRUP proof capture ------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
// Proof capture. Every certified or captured UNSAT answer of the in-repo
// solver is covered by a recorded event stream:
//
//  - ProofSink: the callback interface SatSolver feeds with every clause
//    database event (input added, lemma learnt, clause deleted).
//  - ProofStream: a recorded event stream for one solver incarnation,
//    extended with the structural markers the session layer emits around
//    each entailment goal (goal begin under an activation variable, goal
//    end with an UNSAT core or a SAT answer, session restart). A one-shot
//    solve is one unguarded goal: its inputs, then its lemmas.
//  - ProofLog: an ordered collection of streams — one per solver
//    incarnation — with stable references.
//
// Streams are checked by cert::StreamChecker (cert/StreamCheck.h), either
// offline by leapfrog-certcheck on the serialized artifact or in-process
// under BitBlastSolver::CertifyUnsat, one goal at a time.
//
// Why per-goal slices are sound under deletion and goal GC: activation
// variables never occur positively in any clause (guarded goal clauses and
// retirement units carry the negated activation literal; the positive
// literal only ever appears as a solve-time assumption). Resolution can
// therefore never eliminate a negated activation literal, so every lemma
// whose derivation touched a goal-guarded clause still carries that goal's
// ~act. The checker invariant is that every accepted lemma and every
// root-trail literal is a consequence of ALL inputs seen so far in the
// stream — deletions only shrink the checker's working database (a
// performance mirror of the solver's reduceDB/GC), they never retract an
// input from the claim set. An UNSAT goal's core {~act_g} verified by RUP
// against that database therefore certifies: premises /\ goal-CNF is
// unsatisfiable (any model of premises and the goal bodies would extend to
// a model of every input by setting act_g true and all other activation
// variables false). docs/CERTIFICATES.md spells the argument out.
//
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SMT_PROOFLOG_H
#define LEAPFROG_SMT_PROOFLOG_H

#include "smt/Sat.h"

#include <cstdint>
#include <deque>
#include <vector>

namespace leapfrog {
namespace smt {

/// Receives every clause-database event of a SatSolver, in order. Attached
/// with SatSolver::setProofSink. All clauses are reported verbatim:
/// onInput gets the clause as the caller passed it (before normalization;
/// when normalization changed it, the solver additionally reports the
/// normalized clause as a lemma, which is RUP against the original), and
/// onDelete gets the stored clause being removed, in its current literal
/// order (watch maintenance permutes literals, so consumers must match
/// deletions up to reordering).
class ProofSink {
public:
  virtual ~ProofSink() = default;
  virtual void onInput(const std::vector<Lit> &Clause) = 0;
  virtual void onLemma(const std::vector<Lit> &Clause) = 0;
  virtual void onDelete(const std::vector<Lit> &Clause) = 0;
};

/// One event of a recorded proof stream. Lits is the clause payload for
/// Input/Lemma/Delete and the UNSAT core for GoalEndUnsat; GoalId/ActVar
/// are meaningful for the goal markers only.
struct ProofEvent {
  enum class Kind : uint8_t {
    Input,        ///< 'i' — clause asserted into the solver.
    Lemma,        ///< 'l' — learnt clause; RUP obligation for checkers.
    Delete,       ///< 'd' — stored clause removed (reduceDB, GC, simplify).
    GoalBegin,    ///< 'g' — entailment goal opened under ActVar.
    GoalEndUnsat, ///< 'u' — goal answered UNSAT with the recorded core.
    GoalEndSat,   ///< 's' — goal answered SAT (database alignment only).
    Restart,      ///< 'r' — solver incarnation replaced; database resets.
  };
  Kind K;
  std::vector<Lit> Lits;
  uint64_t GoalId = 0;
  /// Activation variable for GoalBegin, or -1 for a one-shot goal (the
  /// whole stream is the proof of a single unguarded claim).
  Var ActVar = -1;
};

/// A recorded event stream covering one solver incarnation (or a sequence
/// of incarnations separated by Restart events). Implements ProofSink so
/// it can be attached directly to a SatSolver; the session layer emits the
/// goal markers around each query. Goal ids are per-stream, strictly
/// increasing, and never reset by restarts.
class ProofStream final : public ProofSink {
public:
  std::vector<ProofEvent> Events;

  void onInput(const std::vector<Lit> &Clause) override;
  void onLemma(const std::vector<Lit> &Clause) override;
  void onDelete(const std::vector<Lit> &Clause) override;

  /// Opens a goal under activation variable \p ActVar (pass -1 for an
  /// unguarded one-shot claim) and returns its per-stream id.
  uint64_t goalBegin(Var ActVar);
  /// Closes goal \p GoalId as UNSAT; \p Core is the failed-assumption core
  /// (each literal a negated activation literal), empty when the database
  /// itself is unsatisfiable at the root.
  void goalEndUnsat(uint64_t GoalId, std::vector<Lit> Core);
  /// Closes goal \p GoalId as SAT. Recorded so checkers can keep their
  /// database aligned across the goal's learnt clauses.
  void goalEndSat(uint64_t GoalId);
  /// Marks a session rebuild: the previous incarnation's database is gone
  /// and subsequent events start from an empty solver.
  void restart();

private:
  uint64_t NextGoalId = 1;
};

/// An ordered collection of proof streams — the proof artifact for one
/// check: one stream per session plus one-shot streams for monolithic
/// queries. Streams have stable
/// addresses for the lifetime of the log (deque storage), so sessions keep
/// raw pointers into it while attached.
class ProofLog {
public:
  ProofStream &newStream() {
    Streams.emplace_back();
    return Streams.back();
  }
  size_t streamCount() const { return Streams.size(); }
  const ProofStream &stream(size_t I) const { return Streams[I]; }

  size_t totalEvents() const {
    size_t N = 0;
    for (const ProofStream &S : Streams)
      N += S.Events.size();
    return N;
  }

private:
  std::deque<ProofStream> Streams;
};

} // namespace smt
} // namespace leapfrog

#endif // LEAPFROG_SMT_PROOFLOG_H
