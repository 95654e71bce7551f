//===- Checker.cpp - Symbolic equivalence checking (Algorithm 1) ----------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"

#include "core/FrontierKey.h"
#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "core/WeakestPrecondition.h"
#include "logic/Lower.h"
#include "p4a/Typing.h"
#include "smt/ProofLog.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace leapfrog;
using namespace leapfrog::core;
using namespace leapfrog::logic;

InitialSpec core::languageEquivalenceSpec(const p4a::Automaton &Left,
                                          p4a::StateRef QL,
                                          const p4a::Automaton &Right,
                                          p4a::StateRef QR) {
  (void)Left;
  (void)Right;
  InitialSpec Spec;
  Spec.TP = TemplatePair{Template{QL, 0}, Template{QR, 0}};
  Spec.Premise = Pure::mkTrue();
  return Spec;
}

namespace {

/// Frontier entries scanned ahead for same-guard goals when a goal is
/// posed with CheckOptions::GoalBatch > 1: the batching window.
constexpr size_t GoalBatchWindow = 32;

/// A frontier conjunct ψ plus the entailment answer computed for it.
/// Goals are lowered once; with goal batching an entry can be answered
/// ahead of its turn, together with an earlier same-guard goal.
struct FrontierEntry {
  explicit FrontierEntry(GuardedFormula Psi) : Psi(std::move(Psi)) {}
  GuardedFormula Psi;
  smt::BvFormulaRef Goal; ///< ψ lowered to FOL(BV); null until needed.
  bool Posed = false;     ///< Answered ahead of its turn.
  bool Entailed = false;  ///< The answer, when Posed.
  size_t PosedAtR = 0;    ///< |R| the answer was computed against.
};

} // namespace

CheckResult core::checkWithSpec(const p4a::Automaton &Left,
                                const p4a::Automaton &Right,
                                const InitialSpec &Spec,
                                const CheckOptions &Options) {
  assert(p4a::isWellTyped(Left) && "left automaton is ill-typed");
  assert(p4a::isWellTyped(Right) && "right automaton is ill-typed");

  obs::ScopedSpan CheckSpan("check.run", "check");
  obs::StopWatch Watch;
  smt::SmtSolver &Solver =
      Options.Solver ? *Options.Solver : smt::defaultSolver();
  uint64_t SolverMicrosBefore = Solver.stats().TotalMicros;

  CheckResult Result;

  // Proof capture (Options.Certify): attach a log the resolved backend
  // streams per-goal DRUP slices into — sessions opened below record one
  // stream each, one-shot queries (early refutation, done checks, the
  // non-incremental ablation) record one-shot streams. The guard detaches
  // on every return path; the log itself lives on in Result.Proof.
  struct CaptureGuard {
    smt::SmtSolver *S = nullptr;
    ~CaptureGuard() {
      if (S)
        S->detachProofLog();
    }
  } Capture;
  if (Options.Certify) {
    Result.Proof = std::make_shared<smt::ProofLog>();
    if (!Solver.attachProofLog(Result.Proof.get())) {
      Result.Proof.reset();
      Result.V = Verdict::BadRequest;
      Result.FailureReason =
          "certification requested, but the solver backend cannot capture "
          "proof streams (see smt::SmtSolver::attachProofLog); use the "
          "bitblast backend, or crosscheck for external solvers";
      return Result;
    }
    Capture.S = &Solver;
  }

  CheckStats &St = Result.Stats;
  // Bulk-flush the run's decision counters into the process registry on
  // every exit path (including budget stops and refutations): one relaxed
  // add per counter per check, nothing on the per-iteration path.
  struct MetricsFlush {
    CheckStats &St;
    size_t NumLowerings = 0;
    ~MetricsFlush() {
      obs::Registry &M = obs::metrics();
      static obs::Counter &Runs = M.counter("check.runs");
      static obs::Counter &Iterations = M.counter("check.iterations");
      static obs::Counter &Extends = M.counter("check.extends");
      static obs::Counter &Skips = M.counter("check.skips");
      static obs::Counter &Queries = M.counter("check.smt_queries");
      static obs::Counter &Lowerings = M.counter("check.lowerings");
      Runs.add();
      Iterations.add(St.Iterations);
      Extends.add(St.Extends);
      Skips.add(St.Skips);
      Queries.add(St.SmtQueries);
      Lowerings.add(NumLowerings);
    }
  } Flush{St};
  St.TemplatesLeft = allTemplates(Left).size();
  St.TemplatesRight = allTemplates(Right).size();

  // §5.1/§5.3: restrict attention to abstractly reachable template pairs.
  std::vector<TemplatePair> Pairs =
      Options.UseReachability
          ? computeReach(Left, Right, Spec.TP, Options.UseLeaps)
          : allPairs(Left, Right);
  St.ReachPairs = Pairs.size();
  // WP(ψ) only visits the sources whose abstract step can land on ψ's
  // guard; see PredecessorIndex for why that changes no formula.
  const PredecessorIndex Preds(Left, Right, Pairs, Options.UseLeaps);

  // Frontier T: initial relation I, then extra user conjuncts (§7.1).
  std::deque<FrontierEntry> T;
  std::unordered_set<std::string> Seen;
  auto Push = [&](GuardedFormula G) {
    if (G.Phi->kind() == Pure::Kind::True)
      return; // Trivial conjunct: entailed by anything.
    // Deduplicate up to α-renaming on the exact keys of FrontierKey.h
    // (see that header for the key discipline and the hash-collision
    // soundness bug it pins).
    bool Novel = false;
    {
      obs::ScopedSpan KeySpan("frontier.key", "frontier");
      obs::StopWatch KeyWatch;
      Novel = Seen.insert(detail::frontierKey(G)).second;
      static obs::Histogram &KeyMicros =
          obs::metrics().histogram("frontier.key_micros");
      KeyMicros.observe(KeyWatch.elapsedMicros());
    }
    if (!Novel)
      return;
    T.emplace_back(std::move(G));
    St.PeakFrontier = std::max(St.PeakFrontier, T.size());
  };
  for (GuardedFormula &G : buildInitialConjuncts(Spec, Pairs))
    Push(std::move(G));

  std::vector<GuardedFormula> R;
  // On the incremental path, RGoals[i] is R[i] lowered to FOL(BV): the
  // goal it was posed as when it extended, later handed to its guard's
  // session as a premise, so each conjunct is lowered once.
  std::vector<smt::BvFormulaRef> RGoals;
  size_t FreshCounter = 0;

  // Every Figure 6 lowering of the run goes through here.
  auto Lower = [&](const TemplatePair &TP, const PureRef &Phi) {
    obs::ScopedSpan LowerSpan("check.lower", "lower");
    ++Flush.NumLowerings;
    return lowerPure(Left, Right, TP, Phi);
  };

  PureRef Premise =
      Spec.Premise ? Spec.Premise : Pure::mkTrue();

  // Incremental entailment state (one solver session per template pair).
  // Premises with a guard other than the goal's are filtered out of every
  // entailment (lowerEntailment stage 2), so the premise set a query sees
  // is exactly {P ∈ R | P.TP = goal.TP} — a set that only grows. Keeping
  // one session per guard lets each conjunct be lowered and bit-blasted
  // exactly once per run, with NextConjunct tracking the prefix of R the
  // session has already consumed.
  struct TpSession {
    std::unique_ptr<smt::SmtSolver::IncrementalSession> Session;
    size_t NextConjunct = 0;
  };
  std::unordered_map<TemplatePair, TpSession, logic::TemplatePairHasher>
      Sessions;

  // Goal batching state (GoalBatch > 1). Window counts the pops left in
  // the current batching window — the entries T held when the window
  // opened — so a goal is only batched with entries that were already on
  // the frontier when its window opened. Batchable is a guard's gate,
  // open while its most recent decision was a Skip: skip-heavy stretches
  // then share one round-trip across up to GoalBatch goals, while after
  // an Extend the guard poses one goal at a time (answers posed ahead go
  // stale when their guard extends, so batching an extend-heavy stretch
  // only costs re-posing). LastExtendR bounds staleness: a Sat (not entailed)
  // answer posed when |R| was PosedAtR is stale iff a same-guard
  // conjunct joined R since, i.e. PosedAtR < LastExtendR[guard]. An
  // entailed answer never goes stale — entailment is monotone in the
  // premises, and a query consults only same-guard premises
  // (lowerEntailment stage 2). Decisions are therefore identical to
  // GoalBatch == 1; only round-trips and posed queries change.
  const bool Batching = Options.UseIncremental && Options.GoalBatch > 1;
  size_t Window = 0;
  std::unordered_map<TemplatePair, bool, logic::TemplatePairHasher>
      Batchable;
  std::unordered_map<TemplatePair, size_t, logic::TemplatePairHasher>
      LastExtendR;

  // Computes the answer for the popped entry \p E: is ψ entailed by ⋀R?
  // The query is lowered through the Figure 6 chain; the smart
  // constructors may already have collapsed it to a constant.
  auto Entails = [&](FrontierEntry &E) -> bool {
    const GuardedFormula &Psi = E.Psi;
    if (!Options.UseIncremental) {
      // Monolithic reference path: re-lower and re-blast ⋀R ⇒ ψ whole.
      LowerResult Lowered;
      {
        obs::ScopedSpan LowerSpan("check.lower", "lower");
        ++Flush.NumLowerings;
        Lowered = lowerEntailment(Left, Right, R, Psi);
      }
      if (Lowered.Query->kind() == smt::BvFormula::Kind::True)
        return true;
      if (Lowered.Query->kind() == smt::BvFormula::Kind::False)
        return false;
      ++St.SmtQueries;
      return Solver.isValid(Lowered.Query);
    }

    // Incremental path: lower the goal alone (store-eliminated names
    // depend only on (automata, guard), so per-conjunct lowering agrees
    // with lowering the whole implication — see logic/Lower.h), feed the
    // guard's session any conjuncts of R it has not seen, and pose ψ as
    // a goal query. An UNSAT premise set entails everything, which the
    // session also answers correctly (UNSAT stays UNSAT under ¬ψ).
    if (!E.Goal)
      E.Goal = Lower(Psi.TP, Psi.Phi);
    if (E.Goal->kind() == smt::BvFormula::Kind::True)
      return true;
    if (E.Posed && !E.Entailed) {
      auto Bound = LastExtendR.find(Psi.TP);
      E.Posed = Bound == LastExtendR.end() || E.PosedAtR >= Bound->second;
    }
    if (!E.Posed) {
      TpSession &TS = Sessions[Psi.TP];
      if (!TS.Session)
        TS.Session = Solver.openSession(Options.Limits);
      for (; TS.NextConjunct < R.size(); ++TS.NextConjunct) {
        if (R[TS.NextConjunct].TP != Psi.TP)
          continue;
        assert(RGoals[TS.NextConjunct] && "an extended goal is lowered");
        TS.Session->assertPremise(RGoals[TS.NextConjunct]);
      }
      // With the guard's gate open, pull upcoming unposed same-guard
      // goals of the window into the same physical call.
      std::vector<FrontierEntry *> Ahead;
      if (Batching && Batchable[Psi.TP])
        for (size_t J = 0; J < Window && Ahead.size() + 1 < Options.GoalBatch;
             ++J) {
          FrontierEntry &Next = T[J];
          if (Next.Posed || Next.Psi.TP != Psi.TP)
            continue;
          if (!Next.Goal)
            Next.Goal = Lower(Next.Psi.TP, Next.Psi.Phi);
          if (Next.Goal->kind() != smt::BvFormula::Kind::True)
            Ahead.push_back(&Next);
        }
      St.SmtQueries += 1 + Ahead.size();
      if (Ahead.empty()) {
        E.Entailed = TS.Session->isEntailed(E.Goal);
      } else {
        std::vector<smt::BvFormulaRef> Batch{smt::BvFormula::mkNot(E.Goal)};
        for (FrontierEntry *A : Ahead)
          Batch.push_back(smt::BvFormula::mkNot(A->Goal));
        std::vector<smt::SatResult> Out;
        TS.Session->checkSatBatch(Batch, Out);
        E.Entailed = Out[0] == smt::SatResult::Unsat;
        for (size_t K = 0; K < Ahead.size(); ++K) {
          Ahead[K]->Posed = true;
          Ahead[K]->Entailed = Out[K + 1] == smt::SatResult::Unsat;
          Ahead[K]->PosedAtR = R.size();
        }
      }
    }
    if (Batching) {
      Batchable[Psi.TP] = E.Entailed;
      if (!E.Entailed)
        LastExtendR[Psi.TP] = R.size() + 1; // The extend pushes ψ onto R.
    }
    return E.Entailed;
  };

  // Frees the run's working state — sessions, frontier, dedup keys, R
  // and its lowered goals — before the clock is read, so the teardown the
  // run caused counts in its wall time. Every verdict path calls it once,
  // after its last read of R.
  auto Release = [&] {
    obs::ScopedSpan ReleaseSpan("check.release", "release");
    obs::StopWatch ReleaseWatch;
    decltype(Sessions)().swap(Sessions);
    decltype(T)().swap(T);
    decltype(Seen)().swap(Seen);
    decltype(R)().swap(R);
    decltype(RGoals)().swap(RGoals);
    static obs::Histogram &ReleaseMicros =
        obs::metrics().histogram("check.release_micros");
    ReleaseMicros.observe(ReleaseWatch.elapsedMicros());
  };

  // Fills the result of a run that stops before the Done check.
  auto Stop = [&](Verdict V, std::string Reason) {
    Result.V = V;
    Result.FailureReason = std::move(Reason);
    St.FinalConjuncts = R.size();
    Release();
    St.WallMicros = Watch.elapsedMicros();
    St.SolverMicros = Solver.stats().TotalMicros - SolverMicrosBefore;
  };
  auto OverBudget = [&](const char *What) {
    Stop(Verdict::ResourceLimit, std::string(What) + " limit reached with " +
                                     std::to_string(T.size()) +
                                     " frontier conjuncts outstanding");
  };

  // Main worklist (Algorithm 1 / the pre_bisimulation relation, Fig. 4):
  // each popped conjunct is skipped (entailed by ⋀R) or extended.
  while (!T.empty()) {
    // The budget is tested before the iteration is counted, so a run
    // stopped by a budget of N reports exactly N iterations.
    if (St.Iterations >= Options.MaxIterations) {
      OverBudget("iteration");
      return Result;
    }
    ++St.Iterations;
    if (Options.MaxWallMicros != 0 && (St.Iterations & 0xf) == 0 &&
        Watch.elapsedMicros() > Options.MaxWallMicros) {
      OverBudget("wall-clock");
      return Result;
    }
    if (Window == 0)
      Window = std::min(GoalBatchWindow, T.size());
    FrontierEntry E = std::move(T.front());
    T.pop_front();
    --Window;

    if (Entails(E)) {
      ++St.Skips;
      if (Options.RecordTrace)
        Result.Trace.push_back(TraceStep{TraceStep::Kind::Skip, E.Psi, 0});
      continue;
    }

    // Extend: ψ is a novel restriction; its preconditions join the
    // frontier so closure under (leap) steps is re-established.
    const GuardedFormula &Psi = E.Psi;
    ++St.Extends;
    R.push_back(Psi);
    RGoals.push_back(E.Goal);

    // Early refutation. Every symbolic bisimulation entails ⋀R ∧ ⋀T
    // (invariant (3) in the proof of Theorem 4.6), so if φ already fails
    // against this conjunct no bisimulation can contain φ and the final
    // Done check is doomed — report NotEquivalent now. This also keeps
    // the checker total on inequivalent parsers with loops, where the
    // frontier itself need not drain (see DESIGN.md §5).
    if (Psi.TP == Spec.TP) {
      smt::BvFormulaRef Query =
          Lower(Spec.TP, Pure::mkImplies(Premise, Psi.Phi));
      bool Valid = Query->kind() == smt::BvFormula::Kind::True;
      if (!Valid && Query->kind() != smt::BvFormula::Kind::False) {
        ++St.SmtQueries;
        Valid = Solver.isValid(Query);
      }
      if (!Valid) {
        Stop(Verdict::NotEquivalent,
             "refuted: phi does not entail conjunct " + Psi.str(Left, Right));
        return Result;
      }
    }

    std::vector<GuardedFormula> Wp;
    {
      // Its own category, so leapfrog-trace's per-category totals stay
      // disjoint (check.run encloses it).
      obs::ScopedSpan WpSpan("check.wp", "wp");
      obs::StopWatch WpWatch;
      Wp = weakestPrecondition(Left, Right, Psi, Preds.of(Psi.TP),
                               Options.UseLeaps, FreshCounter);
      static obs::Histogram &WpMicros =
          obs::metrics().histogram("check.wp_micros");
      WpMicros.observe(WpWatch.elapsedMicros());
    }
    if (Options.RecordTrace)
      Result.Trace.push_back(
          TraceStep{TraceStep::Kind::Extend, Psi, Wp.size()});
    for (GuardedFormula &G : Wp)
      Push(std::move(G));
  }

  // Done: check φ ⊨ ⋀R. Conjuncts guarded by other template pairs hold
  // vacuously on φ's configurations; for matching guards the premise must
  // imply the conjunct.
  Result.V = Verdict::Equivalent;
  for (const GuardedFormula &Conjunct : R) {
    if (Conjunct.TP != Spec.TP)
      continue;
    smt::BvFormulaRef Query =
        Lower(Spec.TP, Pure::mkImplies(Premise, Conjunct.Phi));
    bool Valid;
    if (Query->kind() == smt::BvFormula::Kind::True) {
      Valid = true;
    } else if (Query->kind() == smt::BvFormula::Kind::False) {
      Valid = false;
    } else {
      ++St.SmtQueries;
      Valid = Solver.isValid(Query);
    }
    if (!Valid) {
      Result.V = Verdict::NotEquivalent;
      Result.FailureReason =
          "final check failed: phi does not entail conjunct " +
          Conjunct.str(Left, Right);
      break;
    }
  }
  if (Options.RecordTrace)
    Result.Trace.push_back(
        TraceStep{TraceStep::Kind::Done,
                  GuardedFormula{Spec.TP, Pure::mkTrue()}, 0});

  St.FinalConjuncts = R.size();
  for (const GuardedFormula &G : R)
    St.FormulaNodes += G.Phi->size();

  if (Result.V == Verdict::Equivalent) {
    EquivalenceCertificate &Cert = Result.Certificate;
    Cert.Spec = Spec;
    Cert.Spec.Premise = Premise;
    Cert.Relation = std::move(R);
    Cert.UseLeaps = Options.UseLeaps;
    Cert.UseReachability = Options.UseReachability;
  }
  Release();

  St.WallMicros = Watch.elapsedMicros();
  St.SolverMicros = Solver.stats().TotalMicros - SolverMicrosBefore;
  return Result;
}

CheckResult core::checkLanguageEquivalence(const p4a::Automaton &Left,
                                           p4a::StateRef QL,
                                           const p4a::Automaton &Right,
                                           p4a::StateRef QR,
                                           const CheckOptions &Options) {
  return checkWithSpec(Left, Right,
                       languageEquivalenceSpec(Left, QL, Right, QR),
                       Options);
}

CheckResult core::checkLanguageEquivalence(const p4a::Automaton &Left,
                                           const std::string &QL,
                                           const p4a::Automaton &Right,
                                           const std::string &QR,
                                           const CheckOptions &Options) {
  auto L = Left.findState(QL);
  auto R = Right.findState(QR);
  assert(L && R && "start state name not found");
  return checkLanguageEquivalence(Left, p4a::StateRef::normal(*L), Right,
                                  p4a::StateRef::normal(*R), Options);
}
