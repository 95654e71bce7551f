//===- Portfolio.cpp - Racing portfolio solver backend --------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/Portfolio.h"

#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <cassert>

using namespace leapfrog;
using namespace leapfrog::smt;

PortfolioSolver::PortfolioSolver(
    std::vector<std::unique_ptr<SmtSolver>> LegSolvers) {
  assert(!LegSolvers.empty() && "portfolio needs at least one leg");
  P.Wins.assign(LegSolvers.size(), 0);
  for (std::unique_ptr<SmtSolver> &S : LegSolvers) {
    auto L = std::make_unique<Leg>();
    L->Solver = std::move(S);
    Legs.push_back(std::move(L));
  }
  for (std::unique_ptr<Leg> &L : Legs)
    L->Thread = std::thread([this, &L] { legMain(*L); });
}

PortfolioSolver::~PortfolioSolver() {
  // The race protocol waits for every leg before any public call
  // returns, so no job can be in flight here; the threads are idle.
  for (std::unique_ptr<Leg> &L : Legs) {
    {
      std::lock_guard<std::mutex> Lk(L->M);
      L->Stop = true;
    }
    L->Cv.notify_all();
  }
  for (std::unique_ptr<Leg> &L : Legs)
    L->Thread.join();
}

void PortfolioSolver::legMain(Leg &L) {
  for (;;) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lk(L.M);
      L.Cv.wait(Lk, [&] { return L.HasJob || L.Stop; });
      if (L.Stop && !L.HasJob)
        return;
      Job = std::move(L.Job);
      L.HasJob = false;
      L.Cv.notify_all(); // Free the mailbox slot for the next post.
    }
    Job();
  }
}

void PortfolioSolver::post(size_t I, std::function<void()> Job) {
  Leg &L = *Legs[I];
  {
    std::unique_lock<std::mutex> Lk(L.M);
    L.Cv.wait(Lk, [&] { return !L.HasJob; });
    L.Job = std::move(Job);
    L.HasJob = true;
  }
  L.Cv.notify_all();
}

void PortfolioSolver::report(Race &R, size_t I, bool Valid) {
  std::vector<SmtSolver *> ToCancel;
  {
    std::lock_guard<std::mutex> Lk(R.M);
    if (Valid && !R.HaveWinner) {
      R.HaveWinner = true;
      R.WinnerLeg = I;
      ++P.Wins[I];
      // Cancellation handshake, both sides sequentially consistent: the
      // Cancelled store here and each leg's Started store are ordered in
      // the one SC total order, so for every loser either (a) its
      // Started store came first — then our Started load below sees it
      // and we interrupt the running solve — or (b) our Cancelled store
      // came first — then the leg's Cancelled load at pickup sees it and
      // it aborts before solving. One path always fires; a leg can never
      // slip between them and run to completion unobserved (it may still
      // *finish* before the interrupt lands, which is a harmless lost
      // cancellation — its answer is simply discarded as a loser).
      R.Cancelled.store(true, std::memory_order_seq_cst);
      for (size_t J = 0; J < Legs.size(); ++J) {
        if (J == I || R.Done[J])
          continue;
        if (R.Started[J].load(std::memory_order_seq_cst))
          ToCancel.push_back(Legs[J]->Solver.get());
      }
      P.Cancelled += ToCancel.size();
    }
    R.Done[I] = 1;
    --R.Remaining;
  }
  R.Cv.notify_all();
  // Interrupt outside the race mutex: it is non-blocking for every
  // backend (flag store + self-pipe write), but there is no reason to
  // hold the lock other legs' reports need.
  for (SmtSolver *S : ToCancel)
    S->interrupt();
}

size_t PortfolioSolver::race(const std::function<bool(size_t)> &Run) {
  size_t N = Legs.size();
  Race R;
  R.Remaining = N;
  R.Done.assign(N, 0);
  R.Started.reset(new std::atomic<bool>[N]);
  for (size_t I = 0; I < N; ++I)
    R.Started[I].store(false, std::memory_order_relaxed);
  for (size_t I = 0; I < N; ++I) {
    post(I, [this, &R, &Run, I] {
      Leg &L = *Legs[I];
      // Pickup protocol: re-arm first (a cancellation aimed at the
      // PREVIOUS query must not kill this one), then publish Started,
      // then check Cancelled — the exact order the SC argument in
      // report() relies on.
      L.Solver->clearInterrupt();
      R.Started[I].store(true, std::memory_order_seq_cst);
      if (R.Cancelled.load(std::memory_order_seq_cst)) {
        report(R, I, false);
        return;
      }
      bool Valid = Run(I);
      if (L.Solver->interrupted())
        Valid = false;
      report(R, I, Valid);
    });
  }
  std::unique_lock<std::mutex> Lk(R.M);
  R.Cv.wait(Lk, [&] { return R.Remaining == 0; });
  // Every leg reported; with no cancellation before the first valid
  // answer, at least one leg is valid, so a winner exists.
  return R.HaveWinner ? R.WinnerLeg : 0;
}

SatResult PortfolioSolver::checkSat(const BvFormulaRef &F, Model *M) {
  obs::ScopedSpan Span("portfolio.query", "solver");
  obs::StopWatch Watch;
  size_t N = Legs.size();
  std::vector<SatResult> Answers(N, SatResult::Sat);
  std::vector<Model> Models(N);
  size_t W = race([&](size_t I) {
    Answers[I] = Legs[I]->Solver->checkSat(F, M ? &Models[I] : nullptr);
    return true;
  });
  if (M)
    *M = std::move(Models[W]);
  SatResult R = Answers[W];
  uint64_t Micros = Watch.elapsedMicros();
  ++Stats.Queries;
  Stats.TotalMicros += Micros;
  Stats.MaxMicros = std::max(Stats.MaxMicros, Micros);
  if (R == SatResult::Sat)
    ++Stats.SatAnswers;
  else
    ++Stats.UnsatAnswers;
  return R;
}

/// One child session per leg, each living on its leg's thread for every
/// query; premises are mirrored into all of them (between races, so the
/// mailbox ordering makes the handoff safe), goals and batches race.
class PortfolioSolver::PortfolioSession
    : public SmtSolver::IncrementalSession {
public:
  PortfolioSession(PortfolioSolver &Owner, const SessionLimits &Limits)
      : Owner(Owner) {
    for (std::unique_ptr<Leg> &L : Owner.Legs)
      Sessions.push_back(L->Solver->openSession(Limits));
  }

  void assertPremise(const BvFormulaRef &F) override {
    ++Owner.Stats.SessionPremises;
    for (std::unique_ptr<IncrementalSession> &S : Sessions)
      S->assertPremise(F);
  }

  SatResult checkSatUnderPremises(const BvFormulaRef &Goal,
                                  Model *M) override {
    obs::ScopedSpan Span("portfolio.query", "solver");
    obs::StopWatch Watch;
    ++Owner.Stats.SessionQueries;
    size_t N = Sessions.size();
    std::vector<SatResult> Answers(N, SatResult::Sat);
    std::vector<Model> Models(N);
    size_t W = Owner.race([&](size_t I) {
      Answers[I] =
          Sessions[I]->checkSatUnderPremises(Goal, M ? &Models[I] : nullptr);
      return true;
    });
    if (M)
      *M = std::move(Models[W]);
    SatResult R = Answers[W];
    uint64_t Micros = Watch.elapsedMicros();
    SolverStats &St = Owner.Stats;
    ++St.Queries;
    St.TotalMicros += Micros;
    St.MaxMicros = std::max(St.MaxMicros, Micros);
    if (R == SatResult::Sat)
      ++St.SatAnswers;
    else
      ++St.UnsatAnswers;
    return R;
  }

  /// Whole batches race as a unit: each leg answers all goals with its
  /// own batching strategy, and the first complete answer set wins.
  void checkSatBatch(const std::vector<BvFormulaRef> &Goals,
                     std::vector<SatResult> &Out) override {
    obs::ScopedSpan Span("portfolio.batch", "solver");
    obs::StopWatch Watch;
    size_t N = Sessions.size();
    Owner.Stats.SessionQueries += Goals.size();
    std::vector<std::vector<SatResult>> Outs(N);
    size_t W = Owner.race([&](size_t I) {
      Sessions[I]->checkSatBatch(Goals, Outs[I]);
      return true;
    });
    Out = std::move(Outs[W]);
    uint64_t Micros = Watch.elapsedMicros();
    SolverStats &St = Owner.Stats;
    St.Queries += Goals.size();
    St.TotalMicros += Micros;
    St.MaxMicros = std::max(St.MaxMicros, Micros);
    for (SatResult R : Out) {
      if (R == SatResult::Sat)
        ++St.SatAnswers;
      else
        ++St.UnsatAnswers;
    }
  }

private:
  PortfolioSolver &Owner;
  std::vector<std::unique_ptr<IncrementalSession>> Sessions;
};

std::unique_ptr<SmtSolver::IncrementalSession>
PortfolioSolver::openSession(const SessionLimits &Limits) {
  ++Stats.SessionsOpened;
  return std::make_unique<PortfolioSession>(*this, Limits);
}

