//===- Solver.cpp - SMT solving facade ------------------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#include "cert/StreamCheck.h"
#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "smt/BitBlast.h"
#include "smt/ProofLog.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <unordered_set>

using namespace leapfrog;
using namespace leapfrog::smt;

bool SmtSolver::isValid(const BvFormulaRef &F, Model *Counterexample) {
  return checkSat(BvFormula::mkNot(F), Counterexample) == SatResult::Unsat;
}

namespace {

/// CertifyUnsat's in-process check: feeds a proof stream's events through
/// cert::StreamChecker — the checker leapfrog-certcheck runs, which shares
/// no code with solving — and aborts on the first rejection, since an
/// UNSAT answer whose proof does not check is exactly the soundness hole
/// certification exists to close.
class StreamCertifier {
public:
  /// Checks the events of \p S not fed yet and folds the checked lemmas,
  /// certified UNSAT goals and time into \p St. With \p Drop the fed
  /// events are erased from \p S, so a stream nobody else reads costs no
  /// more memory than the events of one goal.
  void feed(ProofStream &S, bool Drop, SolverStats &St) {
    obs::ScopedMicros Timer(St.ProofMicros);
    size_t Lemmas = Checker.stats().Lemmas;
    size_t Unsat = Checker.stats().UnsatGoals;
    for (; Next < S.Events.size(); ++Next) {
      std::string Why = check(S.Events[Next]);
      if (!Why.empty()) {
        std::fprintf(stderr,
                     "leapfrog: in-process proof check failed at stream "
                     "event %zu: %s\n",
                     Fed + Next, Why.c_str());
        std::abort();
      }
    }
    St.ProofLemmas += Checker.stats().Lemmas - Lemmas;
    St.CertifiedUnsat += Checker.stats().UnsatGoals - Unsat;
    if (Drop) {
      Fed += Next;
      Next = 0;
      S.Events.clear();
    }
  }

private:
  std::string check(const ProofEvent &E) {
    Lits.clear();
    for (Lit L : E.Lits)
      Lits.push_back(L.negated() ? -(L.var() + 1) : L.var() + 1);
    switch (E.K) {
    case ProofEvent::Kind::Input:
      return Checker.input(Lits);
    case ProofEvent::Kind::Lemma:
      return Checker.lemma(Lits);
    case ProofEvent::Kind::Delete:
      return Checker.erase(Lits);
    case ProofEvent::Kind::GoalBegin:
      return Checker.goalBegin(E.GoalId, E.ActVar + 1);
    case ProofEvent::Kind::GoalEndUnsat:
      return Checker.goalUnsat(E.GoalId, Lits);
    case ProofEvent::Kind::GoalEndSat:
      return Checker.goalSat(E.GoalId);
    case ProofEvent::Kind::Restart:
      return Checker.restart();
    }
    return "unknown proof event";
  }

  cert::StreamChecker Checker;
  std::vector<int> Lits; ///< Scratch: the event's clause in DIMACS.
  size_t Next = 0;       ///< Index in S.Events of the next unfed event.
  size_t Fed = 0;        ///< Events fed and dropped before Next.
};

/// The sat.* counters of one answer kind (docs/OBSERVABILITY.md).
struct SatWorkCounters {
  obs::Counter &Solves, &Decisions, &Propagations, &Conflicts;
};

/// One physical solve: runs \p Sat under \p Assumptions and adds the CDCL
/// work of this call to the SolverStats bucket and sat.* counters of its
/// answer.
bool countedSolve(SatSolver &Sat, const std::vector<Lit> &Assumptions,
                  SolverStats &St) {
  static SatWorkCounters OnSat{
      obs::metrics().counter("sat.sat_solves"),
      obs::metrics().counter("sat.sat_decisions"),
      obs::metrics().counter("sat.sat_propagations"),
      obs::metrics().counter("sat.sat_conflicts")};
  static SatWorkCounters OnUnsat{
      obs::metrics().counter("sat.unsat_solves"),
      obs::metrics().counter("sat.unsat_decisions"),
      obs::metrics().counter("sat.unsat_propagations"),
      obs::metrics().counter("sat.unsat_conflicts")};
  SatSolver::Stats Before = Sat.stats();
  bool IsSat = Sat.solveUnderAssumptions(Assumptions);
  const SatSolver::Stats &After = Sat.stats();
  uint64_t Decisions = After.Decisions - Before.Decisions;
  uint64_t Propagations = After.Propagations - Before.Propagations;
  uint64_t Conflicts = After.Conflicts - Before.Conflicts;
  SolverStats::SatWork &W = IsSat ? St.OnSat : St.OnUnsat;
  ++W.Solves;
  W.Decisions += Decisions;
  W.Propagations += Propagations;
  W.Conflicts += Conflicts;
  SatWorkCounters &C = IsSat ? OnSat : OnUnsat;
  C.Solves.add();
  C.Decisions.add(Decisions);
  C.Propagations.add(Propagations);
  C.Conflicts.add(Conflicts);
  return IsSat;
}

} // namespace

//===----------------------------------------------------------------------===//
// Incremental sessions
//===----------------------------------------------------------------------===//

/// The correct-by-construction fallback: keep the premises as formulas and
/// re-pose their conjunction through checkSat() on every query. Used for
/// backends without native incrementality; it inherits whatever per-query
/// certification or proof capture the backend's checkSat() provides.
class SmtSolver::MonolithicSession : public SmtSolver::IncrementalSession {
public:
  explicit MonolithicSession(SmtSolver &Owner) : Owner(Owner) {}

  void assertPremise(const BvFormulaRef &F) override {
    ++Owner.Stats.SessionPremises;
    Premises.push_back(F);
  }

  SatResult checkSatUnderPremises(const BvFormulaRef &Goal,
                                  Model *M) override {
    ++Owner.Stats.SessionQueries;
    BvFormulaRef Query = Goal;
    // Right-fold so the goal stays innermost; mkAnd folds constants.
    for (size_t I = Premises.size(); I > 0; --I)
      Query = BvFormula::mkAnd(Premises[I - 1], Query);
    return Owner.checkSat(Query, M);
  }

private:
  SmtSolver &Owner;
  std::vector<BvFormulaRef> Premises;
};

std::unique_ptr<SmtSolver::IncrementalSession>
SmtSolver::openSession(const SessionLimits &Limits) {
  // The fallback holds no solver state across queries, so there is
  // nothing for the limits to bound (and the memory counters stay zero).
  (void)Limits;
  ++Stats.SessionsOpened;
  return std::make_unique<MonolithicSession>(*this);
}

/// The incremental backend: one SatSolver + BitBlaster for the session's
/// lifetime. Premises are blasted once into persistent clauses; each goal
/// is blasted — with every emitted clause guarded by a fresh activation
/// literal — to a definition literal, solved under that single
/// assumption, and *hard-deleted* afterwards: the retirement unit ¬act
/// permanently satisfies the goal's guard, Tseitin definitions, and every
/// lemma derived from them (all of which carry ¬act), so simplify()
/// physically removes them and later queries never propagate over them.
/// Premise clauses and premise-implied lemmas survive; the learned-clause
/// DB is additionally bounded by the solver's reduceDB schedule, and a
/// tripped SessionLimits rebuilds the whole session from the cached
/// premise formulas.
class BitBlastSolver::Session : public SmtSolver::IncrementalSession {
public:
  Session(BitBlastSolver &Owner, const SessionLimits &Limits)
      : Owner(Owner), Limits(Limits),
        // Per-goal proof slices are only sound under the activation-guard
        // discipline — every goal clause must carry ¬act so the slice's
        // model-extension argument holds — so certification and capture
        // force hard retirement even when the ablation knob turned it off.
        HardRetire(Owner.SessionHardRetire || Owner.CertifyUnsat ||
                   Owner.CaptureLog != nullptr) {
    if (Owner.CaptureLog)
      Stream = &Owner.CaptureLog->newStream();
    else if (Owner.CertifyUnsat)
      Stream = &OwnStream;
    if (Owner.CertifyUnsat)
      Certifier = std::make_unique<StreamCertifier>();
    rebuild();
  }

  ~Session() override { harvestSatStats(); }

  void assertPremise(const BvFormulaRef &F) override {
    if (F->kind() == BvFormula::Kind::True)
      return;
    // Structural-hash cache: a conjunct that renders identically is the
    // same CNF; re-blasting it would only duplicate clauses.
    if (!AssertedKeys.insert(F->str()).second) {
      ++Owner.Stats.PremiseCacheHits;
      return;
    }
    ++Owner.Stats.SessionPremises;
    Premises.push_back(F);
    blastPremise(F);
  }

  SatResult checkSatUnderPremises(const BvFormulaRef &Goal,
                                  Model *M) override {
    obs::ScopedSpan Span("solver.query", "solver");
    obs::StopWatch Watch;
    ++Owner.Stats.SessionQueries;
    // Clauses a monolithic solver would have to rebuild for this query:
    // the premise CNF plus everything learned so far. Retired goals'
    // clauses are hard-deleted, so numClauses() no longer hides dead
    // weight — but the learnt count is still the honest reuse figure.
    Owner.Stats.ReusedClauses += PremiseClauses + Sat->numLearntClauses();

    size_t ClausesAtStart = Sat->numClauses();
    Lit Activation = Lit::mk(Sat->newVar(), false);
    // The goal marker precedes every clause of the goal's scope, so a
    // checker sees the activation variable declared before any event
    // mentions it (it is fresh by construction: newVar() indices are
    // monotone, so no earlier event can reference it).
    uint64_t GoalId = 0;
    if (Stream)
      GoalId = Stream->goalBegin(Activation.var());
    // Guarded blast: every clause the goal contributes carries ¬act and
    // is therefore deletable at retirement. The blaster cache entries
    // created under the guard encode act-conditional definitions and are
    // evicted when the scope pops (after retirement, below).
    if (HardRetire)
      Blaster->pushGuard(Activation);
    Sat->addClause(~Activation, blastGoal(Goal));
    bool IsSat = countedSolve(*Sat, {Activation}, Owner.Stats);
    ++Owner.Stats.RoundTrips;
    // The goal-end marker must precede the retirement unit below: a
    // checker validates the UNSAT core against the database as of the
    // answer, and the retirement unit {¬act} is only sound input *after*
    // the goal has been closed (it would otherwise trivialize the slice).
    if (Stream)
      finishGoalProof(IsSat, GoalId);
    if (IsSat && M) {
      // Read the model before touching the clause DB again: adding the
      // retirement clause below unwinds the assignment.
      M->clear();
      std::unordered_set<std::string> SeenVars;
      auto Collect = [&](const BvFormulaRef &F) {
        for (const auto &[Name, Width] : collectVars(F))
          if (SeenVars.insert(Name).second)
            M->emplace_back(Name, Blaster->modelValue(Name, Width));
      };
      Collect(Goal);
      for (const BvFormulaRef &P : Premises)
        Collect(P);
    }
    // Retire the activation literal. With hard retirement, ¬act is a
    // level-0 fact that permanently satisfies every clause the goal
    // contributed — its encoding plus any lemma whose derivation touched
    // it — so all of them are deletable, and retireScope() takes the
    // goal's variables out of the search.
    Sat->addClause(~Activation);
    if (HardRetire) {
      retireScope(Activation.var(), ClausesAtStart);
      Blaster->popGuardAndEvict();
    }

    uint64_t Micros = Watch.elapsedMicros();
    static obs::Histogram &SolveLatency =
        obs::metrics().histogram("smt.solve_micros");
    SolveLatency.observe(Micros);
    SolverStats &St = Owner.Stats;
    ++St.Queries;
    St.TotalMicros += Micros;
    St.MaxMicros = std::max(St.MaxMicros, Micros);
    // Record per-query growth, not the cumulative instance size: the
    // monolithic path records a fresh instance per query, so only the
    // delta keeps TotalSatVars/Queries meaningful across backends.
    // Deletion can shrink the instance between measurements; a shrink is
    // simply zero growth.
    if (Sat->numVars() > ReportedVars)
      St.TotalSatVars += Sat->numVars() - ReportedVars;
    if (Sat->numClauses() > ReportedClauses)
      St.TotalSatClauses += Sat->numClauses() - ReportedClauses;
    ReportedVars = Sat->numVars();
    ReportedClauses = Sat->numClauses();
    harvestSatStats();
    SatResult Result = IsSat ? SatResult::Sat : SatResult::Unsat;
    if (IsSat)
      ++St.SatAnswers;
    else
      ++St.UnsatAnswers;
    maybeRestart();
    return Result;
  }

  /// Batched goals share the live premise CNF and are resolved by a
  /// *disjunctive refinement loop*: each goal gets its own activation
  /// literal a_i with a_i ⇒ g_i, and each physical round solves under one
  /// fresh selector B asserting B ⇒ ⋁(pending a_i). An UNSAT round's
  /// failed-assumption core (⊆ {B}, or empty when the premises themselves
  /// conflict) proves premises ∧ ⋁a_i unsatisfiable — and since a_i only
  /// *enables* its goal (any model of premises ∧ g_i extends to one with
  /// a_i true and the others false), that attributes Unsat to every
  /// pending goal in a single round-trip. A SAT round's model has a_i
  /// true for at least one pending goal, and every such a_i forces g_i,
  /// so all of them are Sat; they retire and the loop refines on the
  /// rest. Worst case is one round per goal (exactly the unbatched cost);
  /// the checker's entailment-heavy workload — most goals Unsat — is one
  /// round total.
  void checkSatBatch(const std::vector<BvFormulaRef> &Goals,
                     std::vector<SatResult> &Out) override {
    // Per-goal proof slices need one activation scope per goal, and the
    // soft-retirement ablation has no guards at all — both degrade to the
    // per-goal path so answers, certificates and retirement behavior stay
    // byte-identical to unbatched solving.
    if (Goals.size() < 2 || Stream || !HardRetire) {
      Out.assign(Goals.size(), SatResult::Sat);
      for (size_t I = 0; I < Goals.size(); ++I)
        Out[I] = checkSatUnderPremises(Goals[I], nullptr);
      return;
    }
    obs::ScopedSpan Span("solver.batch", "solver");
    obs::StopWatch Watch;
    SolverStats &St = Owner.Stats;
    Out.assign(Goals.size(), SatResult::Sat);
    size_t ClausesAtStart = Sat->numClauses();
    // Each goal is still one logical query reusing the same live state a
    // monolithic solver would rebuild.
    St.SessionQueries += Goals.size();
    St.ReusedClauses +=
        Goals.size() * (PremiseClauses + Sat->numLearntClauses());
    // Blast every goal under its own (non-nesting) guard scope: the
    // emitted clauses persist beyond the pop — only blaster cache entries
    // are evicted — and all of them carry ¬a_i, so retirement below
    // deletes them exactly as in the per-goal path.
    std::vector<Lit> Acts(Goals.size());
    for (size_t I = 0; I < Goals.size(); ++I) {
      Acts[I] = Lit::mk(Sat->newVar(), false);
      Blaster->pushGuard(Acts[I]);
      Sat->addClause(~Acts[I], blastGoal(Goals[I]));
      Blaster->popGuardAndEvict();
    }
    std::vector<char> Resolved(Goals.size(), 0);
    std::vector<Lit> Selectors;
    size_t Pending = Goals.size();
    while (Pending > 0) {
      Lit B = Lit::mk(Sat->newVar(), false);
      Selectors.push_back(B);
      std::vector<Lit> Disj;
      Disj.push_back(~B);
      for (size_t I = 0; I < Goals.size(); ++I)
        if (!Resolved[I])
          Disj.push_back(Acts[I]);
      Sat->addClause(std::move(Disj));
      bool RoundSat = countedSolve(*Sat, {B}, St);
      ++St.RoundTrips;
      if (!RoundSat) {
        for (size_t I = 0; I < Goals.size(); ++I)
          if (!Resolved[I]) {
            Resolved[I] = 1;
            Out[I] = SatResult::Unsat;
            ++St.UnsatAnswers;
          }
        Pending = 0;
        break;
      }
      // Read the whole model before touching the clause DB: retirement
      // units unwind the assignment.
      std::vector<size_t> Newly;
      for (size_t I = 0; I < Goals.size(); ++I)
        if (!Resolved[I] && Sat->modelValue(Acts[I].var()))
          Newly.push_back(I);
      assert(!Newly.empty() && "SAT round must satisfy a pending selector");
      for (size_t I : Newly) {
        Resolved[I] = 1;
        Out[I] = SatResult::Sat;
        ++St.SatAnswers;
        Sat->addClause(~Acts[I]);
        --Pending;
      }
    }
    // Retire everything the batch allocated: unsat-attributed goals'
    // activations and every round selector become level-0 facts, after
    // which the batch scope retires exactly like one goal's.
    for (size_t I = 0; I < Goals.size(); ++I)
      if (!Resolved[I] || Out[I] == SatResult::Unsat)
        Sat->addClause(~Acts[I]);
    for (Lit B : Selectors)
      Sat->addClause(~B);
    retireScope(Acts[0].var(), ClausesAtStart);

    uint64_t Micros = Watch.elapsedMicros();
    static obs::Histogram &SolveLatency =
        obs::metrics().histogram("smt.solve_micros");
    SolveLatency.observe(Micros);
    St.Queries += Goals.size();
    St.TotalMicros += Micros;
    // The batch is one physical solve covering N queries: its full
    // latency is the honest MaxMicros candidate.
    St.MaxMicros = std::max(St.MaxMicros, Micros);
    if (Sat->numVars() > ReportedVars)
      St.TotalSatVars += Sat->numVars() - ReportedVars;
    if (Sat->numClauses() > ReportedClauses)
      St.TotalSatClauses += Sat->numClauses() - ReportedClauses;
    ReportedVars = Sat->numVars();
    ReportedClauses = Sat->numClauses();
    harvestSatStats();
    maybeRestart();
  }

private:
  /// Retires a goal scope — one goal, or one batch — whose activation
  /// literals (and selectors) are already false at level 0. Every variable
  /// from \p First up was allocated by the scope, and every clause that
  /// mentions one — lemmas included — carries a retired activation or
  /// selector literal, so all of them are satisfied at level 0 and the
  /// variables leave the search (the decision-flag invariant, Sat.h).
  /// addClause() brings back any that a later premise or goal mentions,
  /// such as variable bits first blasted here. \p ClausesAtStart is
  /// numClauses() when the scope opened.
  ///
  /// The physical purge is *batched*: simplify() costs a full database
  /// scan plus a watcher rebuild, so running it per scope would dominate
  /// premise-heavy sessions. Retired clauses are only ever skipped-over
  /// dead weight (their ¬act watch never fires), so deferring deletion
  /// trades bounded slack for amortized O(1) retirement.
  void retireScope(Var First, size_t ClausesAtStart) {
    for (Var V = First; V < Var(Sat->numVars()); ++V)
      Sat->setDecisionVar(V, false);
    PendingDead +=
        Sat->numClauses() - std::min(Sat->numClauses(), ClausesAtStart);
    size_t LiveEstimate =
        Sat->numClauses() - std::min(PendingDead, Sat->numClauses());
    if (PendingDead < std::max(Owner.SessionPurgeBatch, LiveEstimate / 4))
      return;
    obs::ScopedSpan Span("session.simplify", "simplify");
    obs::StopWatch Watch;
    Sat->simplify();
    PendingDead = 0;
    static obs::Histogram &SimplifyMicros =
        obs::metrics().histogram("session.simplify_micros");
    SimplifyMicros.observe(Watch.elapsedMicros());
  }

  /// Closes the current goal in the proof stream: on UNSAT the core is
  /// the negation of the failed assumptions — with the session's single
  /// activation assumption that is {¬act}, or empty when the database
  /// itself became unsatisfiable. Under CertifyUnsat the goal's events
  /// are checked before its answer is returned.
  void finishGoalProof(bool IsSat, uint64_t GoalId) {
    if (IsSat) {
      Stream->goalEndSat(GoalId);
    } else {
      std::vector<Lit> Core;
      for (Lit A : Sat->failedAssumptions())
        Core.push_back(~A);
      Stream->goalEndUnsat(GoalId, std::move(Core));
    }
    if (Certifier)
      Certifier->feed(*Stream, /*Drop=*/Stream == &OwnStream, Owner.Stats);
  }

  /// Blasts one goal to its literal. Its own span category: it nests in
  /// solver.query / solver.batch, and per-category totals stay disjoint.
  Lit blastGoal(const BvFormulaRef &Goal) {
    obs::ScopedSpan Span("solver.blast_goal", "blast");
    return Blaster->litFor(Goal);
  }

  /// Blasts one premise into the live solver, timing it into TotalMicros:
  /// premise blasting is real solver-side work the monolithic path pays
  /// per query, so the A/B benches must see it (it belongs to no single
  /// query, which is the whole point).
  void blastPremise(const BvFormulaRef &F) {
    obs::ScopedSpan Span("solver.blast_premise", "blast");
    obs::ScopedMicros Timer(Owner.Stats.TotalMicros);
    size_t Before = Sat->numClauses();
    Blaster->assertFormula(F);
    PremiseClauses += Sat->numClauses() - Before;
  }

  /// (Re)creates the solver + blaster and re-blasts every cached premise.
  /// Answers are unchanged by construction: the rebuilt solver decides
  /// against exactly the same premise conjunction, minus the learned
  /// clauses (which are consequences, never constraints).
  void rebuild() {
    harvestSatStats();
    // A rebuild starts a fresh solver incarnation: the stream must reset
    // before the re-blasted premises arrive as new inputs.
    if (Built && Stream)
      Stream->restart();
    Sat = std::make_unique<SatSolver>();
    Sat->setReducePolicy(Owner.SessionReduce);
    if (Stream)
      Sat->setProofSink(Stream);
    Blaster = std::make_unique<BitBlaster>(*Sat);
    AssertedKeys.clear();
    PremiseClauses = 0;
    PendingDead = 0;
    ReportedVars = 0;
    ReportedClauses = 0;
    HarvestedDeleted = 0;
    HarvestedReduceRuns = 0;
    for (const BvFormulaRef &P : Premises) {
      AssertedKeys.insert(P->str());
      blastPremise(P);
    }
    Built = true;
  }

  /// Folds the live SatSolver's memory counters into the owner's stats:
  /// totals as deltas since the last harvest, peaks as running maxima.
  void harvestSatStats() {
    if (!Sat)
      return;
    const SatSolver::Stats &SS = Sat->stats();
    SolverStats &St = Owner.Stats;
    St.ClausesDeleted += SS.ClausesDeleted - HarvestedDeleted;
    St.ReduceDbRuns += SS.ReduceDbRuns - HarvestedReduceRuns;
    HarvestedDeleted = SS.ClausesDeleted;
    HarvestedReduceRuns = SS.ReduceDbRuns;
    St.ArenaBytesPeak = std::max(St.ArenaBytesPeak, SS.ArenaBytesPeak);
    St.PeakLearnts = std::max(St.PeakLearnts, SS.LearntPeak);
  }

  /// The SessionLimits backstop: when goal purging + reduceDB could not
  /// keep the session solver's peak under its bounds, drop the solver
  /// wholesale and rebuild from the premise formulas. Peaks are per
  /// solver incarnation (a rebuild starts fresh stats), so one oversized
  /// query does not doom every later one.
  void maybeRestart() {
    const SatSolver::Stats &SS = Sat->stats();
    bool Trip = (Limits.MaxLearnts != 0 &&
                 SS.LearntPeak > Limits.MaxLearnts) ||
                (Limits.MaxArenaBytes != 0 &&
                 SS.ArenaBytesPeak > Limits.MaxArenaBytes);
    if (!Trip)
      return;
    ++Owner.Stats.SessionRestarts;
    // Every premise group's blast state — its structural-hash entry and
    // CNF — is collected with the solver; the formulas survive and are
    // re-blasted by rebuild().
    Owner.Stats.PremisesGcd += AssertedKeys.size();
    rebuild();
  }

  BitBlastSolver &Owner;
  SessionLimits Limits;
  bool HardRetire; ///< Guard + purge retired goals (the default); off
                   ///< reproduces the grow-only PR-2 session behavior
                   ///< for A/B baselines.
  std::unique_ptr<SatSolver> Sat;
  std::unique_ptr<BitBlaster> Blaster;
  std::unordered_set<std::string> AssertedKeys;
  std::vector<BvFormulaRef> Premises; ///< For model reconstruction and
                                      ///< for rebuilding after a restart.
  size_t PremiseClauses = 0; ///< CNF clauses contributed by premises.
  size_t PendingDead = 0;    ///< Estimated retired clauses awaiting the
                             ///< next batched simplify().
  size_t ReportedVars = 0;   ///< Instance size already counted into
  size_t ReportedClauses = 0; ///< TotalSatVars/TotalSatClauses.
  uint64_t HarvestedDeleted = 0;    ///< SAT-stat prefixes already folded
  uint64_t HarvestedReduceRuns = 0; ///< into the owner's SolverStats.
  /// Proof state. Stream is set under CertifyUnsat or an attached proof
  /// log: it records into the log (certificate serialization) or, without
  /// one, into OwnStream, whose events are dropped once checked. Under
  /// CertifyUnsat, Certifier checks each goal's events as it closes.
  ProofStream *Stream = nullptr;
  ProofStream OwnStream;
  std::unique_ptr<StreamCertifier> Certifier;
  bool Built = false; ///< rebuild() has run at least once (restarts since
                      ///< then are recorded as stream Restart events).
};

std::unique_ptr<SmtSolver::IncrementalSession>
BitBlastSolver::openSession(const SessionLimits &Limits) {
  // Certification no longer forces the monolithic fallback: the session
  // streams per-goal DRUP slices (validated inline, or recorded into the
  // attached proof log), so incremental solving and proofs coexist.
  ++Stats.SessionsOpened;
  return std::make_unique<Session>(*this, Limits);
}

SatResult BitBlastSolver::checkSat(const BvFormulaRef &F, Model *M) {
  obs::ScopedSpan Span("solver.query", "solver");
  obs::StopWatch Watch;

  SatSolver Sat;
  // One-shot solve: clause-DB reduction is a long-session tool, and with
  // proof logging the unreduced DB keeps DRUP replay deterministic-cheap.
  SatSolver::ReducePolicy OneShot;
  OneShot.Enabled = false;
  Sat.setReducePolicy(OneShot);
  ProofStream Raw;
  if (CertifyUnsat || CaptureLog)
    Sat.setProofSink(&Raw);
  BitBlaster Blaster(Sat);
  Blaster.assertFormula(F);
  bool IsSat = countedSolve(Sat, {}, Stats);
  ++Stats.RoundTrips;

  if (!IsSat && (CertifyUnsat || CaptureLog)) {
    // Record the whole one-shot solve as a single unguarded goal: inputs
    // first, then the lemmas (RUP is monotone in the database and a
    // one-shot solve deletes nothing, so the lost interleaving with
    // normalization-time lemmas is harmless), and an empty core — an
    // UNSAT solve always ends by logging the empty lemma, so the checked
    // database is conflicting at the root.
    ProofStream Local;
    ProofStream &Str = CaptureLog ? CaptureLog->newStream() : Local;
    uint64_t Id = Str.goalBegin(/*ActVar=*/-1);
    for (ProofEvent::Kind K : {ProofEvent::Kind::Input, ProofEvent::Kind::Lemma})
      for (ProofEvent &E : Raw.Events)
        if (E.K == K)
          Str.Events.push_back(std::move(E));
    Str.goalEndUnsat(Id, {});
    if (CertifyUnsat)
      StreamCertifier().feed(Str, /*Drop=*/false, Stats);
  }

  uint64_t Micros = Watch.elapsedMicros();
  static obs::Histogram &SolveLatency =
      obs::metrics().histogram("smt.solve_micros");
  SolveLatency.observe(Micros);
  ++Stats.Queries;
  Stats.TotalMicros += Micros;
  Stats.MaxMicros = std::max(Stats.MaxMicros, Micros);
  Stats.TotalSatVars += Sat.numVars();
  Stats.TotalSatClauses += Sat.numClauses();

  if (!IsSat) {
    ++Stats.UnsatAnswers;
    return SatResult::Unsat;
  }
  ++Stats.SatAnswers;
  if (M) {
    M->clear();
    for (const auto &[Name, Width] : collectVars(F))
      M->emplace_back(Name, Blaster.modelValue(Name, Width));
  }
  return SatResult::Sat;
}

SmtSolver &smt::defaultSolver() {
  static BitBlastSolver Solver;
#ifndef NDEBUG
  // The shared instance (stats, sessions) is deliberately unsynchronized;
  // now that sessions hold long-lived solver state this is enforced, not
  // just documented. The check deliberately pins ownership to the first
  // calling thread forever — strictly stronger than "no concurrent use",
  // because sequential cross-thread handoff cannot be distinguished from
  // a race without synchronization that the release build doesn't pay
  // for. Programs that check from more than one thread (even one at a
  // time) must construct their own BitBlastSolver and pass it via
  // core::CheckOptions::Solver, or a core::Engine per thread (the
  // threading contract; see "Threading contract" in
  // docs/ARCHITECTURE.md). On violation we print both thread ids before
  // failing: a bare assert cannot say *which* threads collided, and that
  // is the first thing the contract's debugger needs to know.
  static const std::thread::id Owner = std::this_thread::get_id();
  if (std::this_thread::get_id() != Owner) {
    std::ostringstream Msg;
    Msg << "leapfrog: defaultSolver() thread-ownership violation: the "
           "process-wide default solver is owned by the first thread that "
           "touched it (thread "
        << Owner << ") but was called from thread "
        << std::this_thread::get_id()
        << ".\nThreading contract: every thread needs its own backend — "
           "construct a BitBlastSolver per thread (pass it via "
           "core::CheckOptions::Solver), or a core::Engine per thread "
           "(see 'Threading contract' in docs/ARCHITECTURE.md).\n";
    std::fputs(Msg.str().c_str(), stderr);
    assert(false && "defaultSolver() used from a second thread; see the "
                    "diagnostic above for both thread ids and the "
                    "threading contract");
  }
#endif
  return Solver;
}
