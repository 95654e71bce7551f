//===- Sat.cpp - CDCL SAT solver ------------------------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/Sat.h"

#include "obs/Metrics.h"
#include "smt/ProofLog.h"

#include <algorithm>
#include <cstring>

using namespace leapfrog;
using namespace leapfrog::smt;

void SatSolver::logInput(const Lit *Lits, size_t N) {
  if (!Sink)
    return;
  ProofScratch.assign(Lits, Lits + N);
  Sink->onInput(ProofScratch);
}

void SatSolver::logLemma(const std::vector<Lit> &C) {
  if (Sink)
    Sink->onLemma(C);
}

void SatSolver::logDelete(ClauseRef CR) {
  if (!Sink)
    return;
  ProofScratch.assign(lits(CR), lits(CR) + clauseSize(CR));
  Sink->onDelete(ProofScratch);
}

float SatSolver::activity(ClauseRef CR) const {
  float A;
  std::memcpy(&A, &Arena[CR + HdrAct].X, sizeof A);
  return A;
}

void SatSolver::setActivity(ClauseRef CR, float A) {
  std::memcpy(&Arena[CR + HdrAct].X, &A, sizeof A);
}

Var SatSolver::newVars(size_t N) {
  Var First = Var(Assigns.size());
  size_t Total = Assigns.size() + N;
  Assigns.resize(Total, LBool::Undef);
  SavedPhase.resize(Total, false);
  Levels.resize(Total, 0);
  Reasons.resize(Total, NoReason);
  Activity.resize(Total, 0.0);
  Seen.resize(Total, 0);
  Watches.resize(2 * Total);
  HeapPos.resize(Total, -1);
  Decision.resize(Total, 1);
  for (Var V = First; V < Var(Total); ++V)
    heapInsert(V);
  return First;
}

void SatSolver::percolateUp(int I) {
  Var V = Heap[I];
  while (I > 0) {
    int Parent = (I - 1) >> 1;
    if (!heapLess(V, Heap[Parent]))
      break;
    Heap[I] = Heap[Parent];
    HeapPos[Heap[I]] = I;
    I = Parent;
  }
  Heap[I] = V;
  HeapPos[V] = I;
}

void SatSolver::percolateDown(int I) {
  Var V = Heap[I];
  int N = int(Heap.size());
  for (;;) {
    int Child = 2 * I + 1;
    if (Child >= N)
      break;
    if (Child + 1 < N && heapLess(Heap[Child + 1], Heap[Child]))
      ++Child;
    if (!heapLess(Heap[Child], V))
      break;
    Heap[I] = Heap[Child];
    HeapPos[Heap[I]] = I;
    I = Child;
  }
  Heap[I] = V;
  HeapPos[V] = I;
}

void SatSolver::heapInsert(Var V) {
  if (HeapPos[V] >= 0)
    return;
  Heap.push_back(V);
  HeapPos[V] = int(Heap.size()) - 1;
  percolateUp(HeapPos[V]);
}

Var SatSolver::heapPop() {
  if (Heap.empty())
    return -1;
  Var Top = Heap[0];
  HeapPos[Top] = -1;
  Heap[0] = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    HeapPos[Heap[0]] = 0;
    percolateDown(0);
  }
  return Top;
}

bool SatSolver::addClause(const Lit *Lits, size_t N) {
  // Incremental use: undo any decisions left over from a previous solve so
  // the normalization below only consults level-0 (entailed) assignments.
  backtrack(0);
  if (Unsat)
    return false;
  logInput(Lits, N);
  // Normalize in place: sort, drop duplicates, detect tautologies, drop
  // literals already false at level 0, and succeed on literals already
  // true.
  std::vector<Lit> &Out = AddScratch;
  Out.assign(Lits, Lits + N);
  std::sort(Out.begin(), Out.end(), [](Lit A, Lit B) { return A.X < B.X; });
  size_t Kept = 0;
  Lit Prev = Lit::undef();
  for (size_t I = 0; I < Out.size(); ++I) {
    Lit L = Out[I];
    assert(L.var() >= 0 && size_t(L.var()) < Assigns.size() &&
           "literal references unallocated variable");
    if (L == Prev)
      continue;
    if (Prev != Lit::undef() && L == ~Prev)
      return true; // Tautology.
    if (value(L) == LBool::True)
      return true; // Satisfied at level 0.
    if (value(L) == LBool::False)
      continue; // Falsified at level 0; drop.
    Out[Kept++] = L;
    Prev = L;
  }
  Out.resize(Kept);
  // The normalized clause is RUP with respect to the database (dropped
  // literals are falsified by level-0 propagation, which the checker
  // reproduces), so logging it keeps the proof aligned with the clause
  // the solver actually reasons with.
  if (Kept != N)
    logLemma(Out);
  // A stored clause may mention a variable whose decision flag a client
  // cleared; the flag invariant (Sat.h) needs it back on.
  for (Lit L : Out)
    setDecisionVar(L.var(), true);
  if (Out.empty()) {
    Unsat = true;
    return false;
  }
  if (Out.size() == 1) {
    enqueue(Out[0], NoReason);
    if (propagate() != NoReason) {
      logLemma({});
      Unsat = true;
      return false;
    }
    return true;
  }
  storeClause(Out.data(), Out.size(), /*IsLearnt=*/false, /*Lbd=*/0);
  return true;
}

SatSolver::ClauseRef SatSolver::storeClause(const Lit *Lits, size_t N,
                                            bool IsLearnt, uint32_t Lbd) {
  ClauseRef CR = ClauseRef(Arena.size());
  Arena.push_back(Lit{int(N)});
  Arena.push_back(Lit{IsLearnt ? FlagLearnt : 0});
  Arena.push_back(Lit{int(Lbd)});
  Arena.push_back(Lit{0}); // Activity 0.0f.
  Arena.insert(Arena.end(), Lits, Lits + N);
  Clauses.push_back(CR);
  S.ArenaBytesPeak = std::max(S.ArenaBytesPeak, arenaBytes());
  attachClause(CR);
  return CR;
}

void SatSolver::attachClause(ClauseRef CR) {
  assert(clauseSize(CR) >= 2 && "watching a short clause");
  const Lit *C = lits(CR);
  Watches[(~C[0]).index()].push_back(CR);
  Watches[(~C[1]).index()].push_back(CR);
}

void SatSolver::enqueue(Lit L, ClauseRef Reason) {
  assert(value(L) == LBool::Undef && "enqueue of assigned literal");
  Assigns[L.var()] = fromBool(!L.negated());
  Levels[L.var()] = decisionLevel();
  Reasons[L.var()] = Reason;
  SavedPhase[L.var()] = !L.negated();
  Trail.push_back(L);
}

SatSolver::ClauseRef SatSolver::propagate() {
  while (QueueHead < Trail.size()) {
    Lit P = Trail[QueueHead++];
    ++S.Propagations;
    // Clauses watching ~P must find a new watch or propagate/conflict.
    std::vector<ClauseRef> &WList = Watches[P.index()];
    size_t Keep = 0;
    for (size_t I = 0; I < WList.size(); ++I) {
      ClauseRef CR = WList[I];
      Lit *C = lits(CR);
      // Ensure the falsified literal is in slot 1.
      if (C[0] == ~P)
        std::swap(C[0], C[1]);
      assert(C[1] == ~P && "watch list out of sync");
      if (value(C[0]) == LBool::True) {
        WList[Keep++] = CR;
        continue;
      }
      // Look for a new literal to watch.
      bool FoundWatch = false;
      for (size_t K = 2, Size = clauseSize(CR); K < Size; ++K) {
        if (value(C[K]) != LBool::False) {
          std::swap(C[1], C[K]);
          Watches[(~C[1]).index()].push_back(CR);
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Unit or conflicting.
      WList[Keep++] = CR;
      if (value(C[0]) == LBool::False) {
        // Conflict: restore remaining watches and report.
        for (size_t K = I + 1; K < WList.size(); ++K)
          WList[Keep++] = WList[K];
        WList.resize(Keep);
        QueueHead = Trail.size();
        return CR;
      }
      enqueue(C[0], CR);
    }
    WList.resize(Keep);
  }
  return NoReason;
}

void SatSolver::bumpVar(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > RescaleThreshold) {
    for (double &A : Activity)
      A /= RescaleThreshold;
    VarInc /= RescaleThreshold;
    // Activities kept their relative order; the heap stays valid.
  }
  if (HeapPos[V] >= 0)
    percolateUp(HeapPos[V]);
}

void SatSolver::bumpClause(ClauseRef CR) {
  float Act = activity(CR) + float(ClaInc);
  setActivity(CR, Act);
  if (Act > ClauseRescaleThreshold) {
    for (ClauseRef Other : Clauses)
      setActivity(Other, activity(Other) / ClauseRescaleThreshold);
    ClaInc /= double(ClauseRescaleThreshold);
  }
}

uint32_t SatSolver::computeLbd(const std::vector<Lit> &C) {
  if (LevelStamp.size() < TrailLim.size() + 1)
    LevelStamp.resize(TrailLim.size() + 1, 0);
  ++LbdStamp;
  uint32_t N = 0;
  for (Lit L : C) {
    int Lvl = Levels[L.var()];
    if (Lvl <= 0)
      continue;
    if (LevelStamp[Lvl] != LbdStamp) {
      LevelStamp[Lvl] = LbdStamp;
      ++N;
    }
  }
  return N;
}

void SatSolver::removeClauses() {
  assert(decisionLevel() == 0 && "clause deletion above level 0");
  size_t Words = 0;
  for (ClauseRef CR : Clauses)
    if (!hasFlag(CR, FlagDeleted))
      Words += HeaderWords + clauseSize(CR);
  // The survivors move, in order, into an arena reserved to their exact
  // size, so the memory of the deleted clauses is really returned.
  std::vector<Lit> Fresh;
  Fresh.reserve(Words);
  size_t Kept = 0;
  for (ClauseRef CR : Clauses) {
    if (hasFlag(CR, FlagDeleted)) {
      ++S.ClausesDeleted;
      if (hasFlag(CR, FlagLearnt)) {
        assert(LearntCount > 0);
        --LearntCount;
      }
      logDelete(CR);
      continue;
    }
    ClauseRef To = ClauseRef(Fresh.size());
    Fresh.insert(Fresh.end(), &Arena[CR],
                 &Arena[CR] + HeaderWords + clauseSize(CR));
    // The old header's LBD word (already copied) forwards to the new
    // offset.
    Arena[CR + HdrLbd].X = int(To);
    Clauses[Kept++] = To;
  }
  Clauses.resize(Kept);
  // Forward reasons. A deleted reason can only belong to a level-0
  // assignment (everything above level 0 was undone before deletion, and
  // deletion never targets a clause locked above level 0); level-0
  // reasons are never dereferenced by analyze()/analyzeFinal(), which
  // both skip level-0 literals, so clearing them is safe. Only assigned
  // variables, which are all on the trail, have a reason.
  for (Lit L : Trail) {
    ClauseRef &R = Reasons[L.var()];
    if (R == NoReason)
      continue;
    assert(lits(R)[0] == L && "a reason implies its first literal");
    assert((!hasFlag(R, FlagDeleted) || Levels[L.var()] == 0) &&
           "deleted the reason of an assignment above level 0");
    R = hasFlag(R, FlagDeleted) ? NoReason : ClauseRef(Arena[R + HdrLbd].X);
  }
  Arena = std::move(Fresh);
  // Rebuild the watcher lists in clause order. Each surviving clause still
  // watches its first two literals — the invariant propagate() maintains —
  // so re-attaching in place is sound at level 0. The lists keep their
  // capacity for the clauses still to come.
  for (std::vector<ClauseRef> &W : Watches)
    W.clear();
  for (ClauseRef CR : Clauses)
    attachClause(CR);
}

void SatSolver::reduceDB() {
  assert(decisionLevel() == 0 && "reduceDB above level 0");
  ++S.ReduceDbRuns;
  // Locked clauses (reasons of current — i.e. level-0 — assignments) are
  // kept: MiniSat's discipline, and the cheap way to keep Reasons valid.
  for (Lit L : Trail) {
    if (Reasons[L.var()] == NoReason)
      continue;
    assert(lits(Reasons[L.var()])[0] == L &&
           "a reason implies its first literal");
    setFlag(Reasons[L.var()], FlagLocked);
  }
  std::vector<ClauseRef> Candidates;
  for (ClauseRef CR : Clauses)
    if (hasFlag(CR, FlagLearnt) && !hasFlag(CR, FlagLocked) &&
        clauseSize(CR) > 2 && lbd(CR) > Reduce.GlueLbd)
      Candidates.push_back(CR);
  for (Lit L : Trail)
    if (Reasons[L.var()] != NoReason)
      clearFlag(Reasons[L.var()], FlagLocked);
  if (Candidates.empty())
    return;
  // Cold half first: highest LBD, then lowest activity; the arena offset,
  // which follows insertion order, breaks ties so runs are deterministic.
  std::sort(Candidates.begin(), Candidates.end(),
            [this](ClauseRef A, ClauseRef B) {
              if (lbd(A) != lbd(B))
                return lbd(A) > lbd(B);
              if (activity(A) != activity(B))
                return activity(A) < activity(B);
              return A < B;
            });
  for (size_t I = 0; I < Candidates.size() / 2; ++I)
    setFlag(Candidates[I], FlagDeleted);
  removeClauses();
}

void SatSolver::simplify() {
  backtrack(0);
  if (Unsat)
    return;
  bool Any = false;
  for (ClauseRef CR : Clauses) {
    const Lit *C = lits(CR);
    for (size_t K = 0, Size = clauseSize(CR); K < Size; ++K) {
      if (value(C[K]) == LBool::True) {
        setFlag(CR, FlagDeleted);
        Any = true;
        break;
      }
    }
  }
  if (Any)
    removeClauses();
}

void SatSolver::analyze(ClauseRef Conflict, std::vector<Lit> &Learnt,
                        int &BacktrackLevel) {
  // First-UIP scheme: walk the trail backwards resolving antecedents until
  // exactly one literal of the current decision level remains.
  Learnt.clear();
  Learnt.push_back(Lit::undef()); // Slot for the asserting literal.
  int Counter = 0;
  Lit P = Lit::undef();
  size_t TrailIndex = Trail.size();
  ClauseRef Reason = Conflict;

  do {
    assert(Reason != NoReason && "analysis escaped the implication graph");
    if (hasFlag(Reason, FlagLearnt))
      bumpClause(Reason);
    const Lit *C = lits(Reason);
    for (size_t K = 0, Size = clauseSize(Reason); K < Size; ++K) {
      Lit Q = C[K];
      if (P != Lit::undef() && Q == P)
        continue;
      Var V = Q.var();
      if (Seen[V] || Levels[V] == 0)
        continue;
      Seen[V] = 1;
      bumpVar(V);
      if (Levels[V] == decisionLevel()) {
        ++Counter;
      } else {
        Learnt.push_back(Q);
      }
    }
    // Select the next trail literal to resolve on.
    while (!Seen[Trail[TrailIndex - 1].var()])
      --TrailIndex;
    --TrailIndex;
    P = Trail[TrailIndex];
    Seen[P.var()] = 0;
    Reason = Reasons[P.var()];
    --Counter;
  } while (Counter > 0);
  Learnt[0] = ~P;

  // Compute the backtrack level: the second-highest level in the clause.
  BacktrackLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxIdx = 1;
    for (size_t I = 2; I < Learnt.size(); ++I)
      if (Levels[Learnt[I].var()] > Levels[Learnt[MaxIdx].var()])
        MaxIdx = I;
    std::swap(Learnt[1], Learnt[MaxIdx]);
    BacktrackLevel = Levels[Learnt[1].var()];
  }
  for (Lit L : Learnt)
    Seen[L.var()] = 0;
}

void SatSolver::backtrack(int Level) {
  if (decisionLevel() <= Level)
    return;
  for (size_t I = Trail.size(); I > size_t(TrailLim[Level]); --I) {
    Var V = Trail[I - 1].var();
    Assigns[V] = LBool::Undef;
    Reasons[V] = NoReason;
    if (Decision[V])
      heapInsert(V);
  }
  Trail.resize(TrailLim[Level]);
  TrailLim.resize(Level);
  QueueHead = Trail.size();
}

Lit SatSolver::pickBranchLit() {
  // Pop the activity heap until an unassigned decision variable surfaces
  // (assignments and cleared flags leave stale entries; they are skipped
  // lazily, and backtrack() does not re-insert a cleared one).
  for (;;) {
    Var V = heapPop();
    if (V < 0)
      return Lit::undef();
    if (Assigns[V] == LBool::Undef && Decision[V])
      return Lit::mk(V, !SavedPhase[V]);
  }
}

uint64_t SatSolver::luby(uint64_t I) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (MiniSat's finite
  // subsequence formulation).
  uint64_t Size = 1, Seq = 0;
  while (Size < I + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) >> 1;
    --Seq;
    I = I % Size;
  }
  return uint64_t(1) << Seq;
}

bool SatSolver::solve() { return solveUnderAssumptions({}); }

void SatSolver::analyzeFinal(Lit A) {
  // Assumption \p A was found false while being planted: ¬A is implied by
  // the clause database together with the assumptions planted so far.
  // Walk the implication graph backwards from ¬A and collect every
  // pseudo-decision (planted assumption) it rests on; together with A
  // itself they form an unsatisfiable subset of the assumptions.
  FailedAssumptions.clear();
  FailedAssumptions.push_back(A);
  if (decisionLevel() == 0)
    return; // ¬A holds at level 0: A alone conflicts with the clauses.
  Seen[A.var()] = 1;
  for (size_t I = Trail.size(); I > size_t(TrailLim[0]); --I) {
    Var X = Trail[I - 1].var();
    if (!Seen[X])
      continue;
    Seen[X] = 0;
    if (Reasons[X] == NoReason) {
      // A decision above level 0 can only be a planted assumption here:
      // analyzeFinal runs before any search decision of this call, and
      // earlier calls' decisions were undone on entry.
      FailedAssumptions.push_back(Trail[I - 1]);
    } else {
      // Mark the antecedents, skipping X's own literal in its reason
      // clause — marking it would re-set the Seen bit just cleared above
      // and leak it past this walk, corrupting later conflict analyses.
      const Lit *C = lits(Reasons[X]);
      for (size_t K = 0, Size = clauseSize(Reasons[X]); K < Size; ++K)
        if (C[K].var() != X && Levels[C[K].var()] > 0)
          Seen[C[K].var()] = 1;
    }
  }
  Seen[A.var()] = 0;
}

bool SatSolver::solveUnderAssumptions(const std::vector<Lit> &Assumptions) {
  ++S.Solves;
  FailedAssumptions.clear();
  backtrack(0); // Discard decisions from any previous call.
  if (Unsat)
    return false;
  if (propagate() != NoReason) {
    logLemma({});
    Unsat = true;
    return false;
  }
#ifndef NDEBUG
  for (Lit A : Assumptions)
    assert(A.var() >= 0 && size_t(A.var()) < Assigns.size() &&
           "assumption references unallocated variable");
#endif
  static constexpr uint64_t RestartBase = 64;
  // The Luby schedule restarts per call: a fresh query deserves short
  // restarts again even if earlier queries accumulated many.
  uint64_t LocalRestarts = 0;
  uint64_t RestartConflicts = RestartBase * luby(LocalRestarts);
  uint64_t ConflictsSinceRestart = 0;
  std::vector<Lit> &Learnt = LearntScratch;

  for (;;) {
    ClauseRef Conflict = propagate();
    if (Conflict != NoReason) {
      ++S.Conflicts;
      ++ConflictsSinceRestart;
      if (decisionLevel() == 0) {
        logLemma({});
        Unsat = true;
        return false;
      }
      int BacktrackLevel = 0;
      analyze(Conflict, Learnt, BacktrackLevel);
      logLemma(Learnt);
      // LBD must be computed before backtracking clears the levels.
      uint32_t Lbd = computeLbd(Learnt);
      backtrack(BacktrackLevel);
      if (Learnt.size() == 1) {
        enqueue(Learnt[0], NoReason);
      } else {
        ClauseRef CR =
            storeClause(Learnt.data(), Learnt.size(), /*IsLearnt=*/true, Lbd);
        ++LearntCount;
        S.LearntPeak = std::max<uint64_t>(S.LearntPeak, LearntCount);
        bumpClause(CR);
        enqueue(Learnt[0], CR);
      }
      decayVarActivity();
      decayClauseActivity();
      continue;
    }
    if (ConflictsSinceRestart >= RestartConflicts) {
      ++S.Restarts;
      static obs::Counter &RestartMetric =
          obs::metrics().counter("sat.restarts");
      RestartMetric.add();
      ++LocalRestarts;
      ConflictsSinceRestart = 0;
      RestartConflicts = RestartBase * luby(LocalRestarts);
      backtrack(0);
      // Clause-database reduction on the geometric schedule, fired only
      // at restart boundaries: within a restart segment the backjump
      // measure (ever-larger agreeing trail prefixes) guarantees
      // termination, and deletion between segments cannot break it. A
      // mid-segment backtrack(0)+delete would reset that measure and —
      // with an aggressive schedule — risk replaying the same conflict
      // forever. Restarts need ≥ RestartBase fresh conflicts each, so
      // reduction can never livelock the search either.
      if (Reduce.Enabled && double(LearntCount) >= LearntLimit) {
        reduceDB();
        LearntLimit *= Reduce.Growth;
      }
      continue;
    }
    // Plant the next pending assumption as a pseudo-decision (MiniSat's
    // scheme: assumption k owns decision level k+1). Restarts and deep
    // backjumps may unassign assumptions; this loop re-plants them.
    Lit Next = Lit::undef();
    while (decisionLevel() < int(Assumptions.size())) {
      Lit A = Assumptions[decisionLevel()];
      if (value(A) == LBool::True) {
        // Already implied: open a dummy level to keep indices aligned.
        TrailLim.push_back(int(Trail.size()));
      } else if (value(A) == LBool::False) {
        analyzeFinal(A);
        backtrack(0);
        return false;
      } else {
        Next = A;
        break;
      }
    }
    if (Next == Lit::undef()) {
      Next = pickBranchLit();
      if (Next == Lit::undef())
        return true; // All decision variables assigned: SAT.
      ++S.Decisions;
    }
    TrailLim.push_back(int(Trail.size()));
    enqueue(Next, NoReason);
  }
}
