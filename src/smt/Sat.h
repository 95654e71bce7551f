//===- Sat.h - CDCL SAT solver ----------------------------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch CDCL SAT solver in the MiniSat lineage: two-watched-
/// literal propagation, first-UIP clause learning, VSIDS branching with
/// phase saving, and Luby restarts.
///
/// The paper discharges its verification conditions with off-the-shelf SMT
/// solvers (Z3, CVC4, Boolector; §6.3). None is available in this
/// environment, so this solver — together with the bit-blaster in
/// BitBlast.h — plays their role: the Leapfrog entailments are universally
/// quantified over finite bitvector valuations, hence their validity
/// reduces to (un)satisfiability of a propositional formula.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SMT_SAT_H
#define LEAPFROG_SMT_SAT_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace leapfrog {
namespace smt {

class ProofSink;

/// A propositional variable (0-based).
using Var = int;

/// A literal: variable times two, plus one if negated.
struct Lit {
  int X = -2;

  static Lit mk(Var V, bool Negated) { return Lit{V * 2 + int(Negated)}; }

  Var var() const { return X >> 1; }
  bool negated() const { return X & 1; }
  Lit operator~() const { return Lit{X ^ 1}; }
  bool operator==(const Lit &O) const { return X == O.X; }
  bool operator!=(const Lit &O) const { return X != O.X; }

  /// Dense index for watch lists.
  int index() const { return X; }

  static Lit undef() { return Lit{-2}; }
};

/// Three-valued assignment.
enum class LBool : int8_t { False = 0, True = 1, Undef = 2 };

inline LBool fromBool(bool B) { return B ? LBool::True : LBool::False; }
inline LBool negate(LBool B) {
  if (B == LBool::Undef)
    return B;
  return B == LBool::True ? LBool::False : LBool::True;
}

/// CDCL solver. Usage: newVar() to allocate variables, addClause() to add
/// clauses, then solve(); on SAT, modelValue() reads the model.
///
/// The solver is *incremental* in the MiniSat sense: variables and clauses
/// may keep being added after a solve() call, and solveUnderAssumptions()
/// decides satisfiability under a temporary set of assumption literals
/// while learned clauses, watch lists, variable activities and saved
/// phases all survive across calls. Clients combine the two to pose many
/// related queries cheaply: persistent facts go in as clauses, per-query
/// facts as assumptions (typically one fresh activation literal guarding
/// the query's clauses, retired afterwards with a unit clause).
///
/// Long-lived instances do not grow without bound: the learned-clause
/// database is reduced on a geometric schedule (reduceDB, Glucose-style
/// LBD + clause activity; see ReducePolicy), and simplify() hard-deletes
/// clauses that level-0 facts have permanently satisfied — the mechanism
/// by which a retired activation literal's guarded clauses (and every
/// lemma derived from them, which necessarily carries the retirement
/// literal) are physically removed rather than left as dead weight.
class SatSolver {
public:
  /// Allocates a fresh variable. May be called between solves.
  Var newVar();

  /// Adds a clause (disjunction of literals). Returns false if the clause
  /// set is already unsatisfiable at level 0. May be called between
  /// solves; any decisions from a previous call are first undone (which
  /// invalidates the previous model — read it before adding clauses).
  bool addClause(std::vector<Lit> Lits);

  /// Convenience overloads for short clauses.
  bool addClause(Lit A) { return addClause(std::vector<Lit>{A}); }
  bool addClause(Lit A, Lit B) { return addClause(std::vector<Lit>{A, B}); }
  bool addClause(Lit A, Lit B, Lit C) {
    return addClause(std::vector<Lit>{A, B, C});
  }

  /// Decides satisfiability of the clause set alone. Equivalent to
  /// solveUnderAssumptions({}).
  bool solve();

  /// Decides satisfiability of the clause set conjoined with the given
  /// assumption literals. Assumptions are planted as pseudo-decisions on
  /// the first decision levels (MiniSat-style), so everything the solver
  /// learns is implied by the clause set alone and remains valid for
  /// later calls with different assumptions.
  ///
  /// On a false return, failedAssumptions() distinguishes the two
  /// causes: a non-empty set is a subset A' of \p Assumptions such that
  /// clauses ∧ A' is unsatisfiable (a final-conflict analysis, not
  /// guaranteed minimal); an empty set means the clause set is
  /// unsatisfiable outright.
  bool solveUnderAssumptions(const std::vector<Lit> &Assumptions);

  /// See solveUnderAssumptions(); valid until the next solve call.
  const std::vector<Lit> &failedAssumptions() const {
    return FailedAssumptions;
  }

  /// Value of \p V in the model; valid only after solve() returned true.
  bool modelValue(Var V) const {
    assert(Assigns[V] != LBool::Undef && "model incomplete");
    return Assigns[V] == LBool::True;
  }

  size_t numVars() const { return Assigns.size(); }
  size_t numClauses() const { return Clauses.size(); }
  size_t numLearntClauses() const { return LearntCount; }

  /// Live bytes held by the clause arena (stored clause literals plus
  /// per-clause headers). Capacity slack is deliberately excluded so the
  /// number is deterministic across allocators; Stats::ArenaBytesPeak
  /// tracks the high-water mark of this value.
  uint64_t arenaBytes() const { return ArenaBytes; }

  /// Learned-clause database management (MiniSat/Glucose lineage).
  /// reduceDB() runs automatically at restart boundaries once the
  /// learned-clause count crosses a limit that starts at FirstReduce and
  /// grows by Growth after every run (geometric schedule); restart
  /// boundaries are the one point where deletion provably cannot break
  /// the search's termination measure. A run keeps reason ("locked")
  /// clauses, binary clauses, and clauses whose literal-block distance is
  /// at or below GlueLbd; of the remaining candidates the cold half —
  /// highest LBD, then lowest activity — is deleted, and the clause arena
  /// and watcher lists are compacted so the memory is actually returned.
  struct ReducePolicy {
    bool Enabled = true;
    uint64_t FirstReduce = 2000; ///< Learnts before the first reduction.
    double Growth = 1.3;         ///< Geometric limit growth per run.
    uint32_t GlueLbd = 2;        ///< Never delete clauses at/below this.
  };
  void setReducePolicy(const ReducePolicy &P) {
    Reduce = P;
    LearntLimit = double(P.FirstReduce < 1 ? 1 : P.FirstReduce);
  }
  const ReducePolicy &reducePolicy() const { return Reduce; }

  /// Hard-deletes every clause permanently satisfied at decision level 0
  /// (MiniSat's simplify). Undoes any decisions first. Sound because a
  /// level-0 assignment is never unmade, so a clause it satisfies can
  /// never participate in search again; deleting it preserves the set of
  /// models over the remaining clauses. The intended client is the
  /// activation-literal retirement pattern: after addClause(~act), every
  /// clause guarded by act — including learned clauses, which provably
  /// contain ~act whenever their derivation used a guarded clause — is
  /// satisfied and gets removed here. Deletions count into
  /// Stats::ClausesDeleted.
  void simplify();

  /// Streams every clause-database event (input, learnt lemma, deletion)
  /// into \p Snk as it happens (see ProofLog.h). Deletions are reported
  /// too, so a deletion-aware checker (cert/StreamCheck.h) can mirror the
  /// database. Must be attached before the first clause; detaching
  /// (nullptr) is allowed at any time.
  void setProofSink(ProofSink *Snk) {
    assert((Snk == nullptr || (Clauses.empty() && Trail.empty())) &&
           "proof streaming must start before the first clause");
    Sink = Snk;
  }

  /// Statistics, reported by the benchmark harness.
  struct Stats {
    uint64_t Conflicts = 0;
    uint64_t Decisions = 0;
    uint64_t Propagations = 0;
    uint64_t Restarts = 0;
    uint64_t Solves = 0; ///< solve()/solveUnderAssumptions() calls.
    /// Clause-database management counters. All are monotone over the
    /// instance's lifetime.
    uint64_t ClausesDeleted = 0;  ///< Via reduceDB() and simplify().
    uint64_t ReduceDbRuns = 0;    ///< reduceDB() invocations.
    uint64_t ArenaBytesPeak = 0;  ///< High-water mark of arenaBytes().
    uint64_t LearntPeak = 0;      ///< Max simultaneous learned clauses.
  };
  const Stats &stats() const { return S; }

private:
  struct Clause {
    std::vector<Lit> Lits;
    bool Learnt = false;
    uint32_t Lbd = 0; ///< Literal-block distance at learn time.
    float Act = 0.0f; ///< Bumped when resolved on in analyze().
  };
  using ClauseRef = int;
  static constexpr ClauseRef NoReason = -1;

  LBool value(Lit L) const {
    LBool V = Assigns[L.var()];
    return L.negated() ? negate(V) : V;
  }

  void enqueue(Lit L, ClauseRef Reason);
  void analyzeFinal(Lit A);
  void heapInsert(Var V);
  Var heapPop();
  void percolateUp(int I);
  void percolateDown(int I);
  bool heapLess(Var A, Var B) const { return Activity[A] > Activity[B]; }
  ClauseRef propagate();
  void analyze(ClauseRef Conflict, std::vector<Lit> &Learnt,
               int &BacktrackLevel);
  void backtrack(int Level);
  Lit pickBranchLit();
  void bumpVar(Var V);
  void decayVarActivity() { VarInc /= ActivityDecay; }
  void bumpClause(ClauseRef CR);
  void decayClauseActivity() { ClaInc /= ClauseActivityDecay; }
  uint32_t computeLbd(const std::vector<Lit> &C);
  void reduceDB();
  /// Deletes every clause with Del[ref] set, compacts the clause arena
  /// and rebuilds watcher lists; remaps Reasons (a deleted reason is only
  /// legal for a level-0 assignment, whose reason is never dereferenced).
  /// Must be called at decision level 0.
  void removeClauses(const std::vector<char> &Del);
  static uint64_t clauseBytes(const Clause &C) {
    return sizeof(Clause) + C.Lits.size() * sizeof(Lit);
  }
  void attachClause(ClauseRef CR);
  int decisionLevel() const { return int(TrailLim.size()); }
  static uint64_t luby(uint64_t I);

  std::vector<Clause> Clauses;
  std::vector<std::vector<ClauseRef>> Watches; ///< Indexed by Lit::index().
  std::vector<LBool> Assigns;
  std::vector<bool> SavedPhase;
  std::vector<int> Levels;
  std::vector<ClauseRef> Reasons;
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t QueueHead = 0;

  std::vector<double> Activity;
  double VarInc = 1.0;
  static constexpr double ActivityDecay = 0.95;
  static constexpr double RescaleThreshold = 1e100;

  ReducePolicy Reduce;
  double LearntLimit = 2000; ///< Kept in sync with Reduce.FirstReduce.
  double ClaInc = 1.0;
  static constexpr double ClauseActivityDecay = 0.999;
  static constexpr float ClauseRescaleThreshold = 1e20f;
  uint64_t ArenaBytes = 0;
  std::vector<uint64_t> LevelStamp; ///< Scratch for computeLbd().
  uint64_t LbdStamp = 0;

  /// Proof-sink helpers; no-ops without a sink. Defined out of line
  /// because ProofSink is incomplete here.
  void logInput(const std::vector<Lit> &C);
  void logLemma(const std::vector<Lit> &C);
  void logDelete(const std::vector<Lit> &C);

  std::vector<char> Seen; ///< Scratch for analyze().
  /// Max-heap over variable activity for branching (MiniSat order heap).
  std::vector<Var> Heap;
  std::vector<int> HeapPos; ///< Position in Heap, or -1 when absent.
  std::vector<Lit> FailedAssumptions;
  size_t LearntCount = 0;
  bool Unsat = false;
  ProofSink *Sink = nullptr;
  Stats S;
};

} // namespace smt
} // namespace leapfrog

#endif // LEAPFROG_SMT_SAT_H
