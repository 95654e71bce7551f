//===- Portfolio.h - Racing portfolio solver backend ------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A portfolio backend behind the SmtSolver facade: every query is posed
/// to N child backends ("legs") concurrently, the first answer wins, and
/// the losers are cancelled through SmtSolver::interrupt(). This is the
/// classic SMT portfolio shape — the paper runs Z3, CVC4 and Boolector
/// side by side in §6.3 and reports that no single solver dominates —
/// reduced to the facade: callers see one SmtSolver whose latency per
/// query is min over the legs, at the cost of redundant work.
///
/// Concurrency contract: each leg backend is owned by a dedicated leg
/// thread for its whole life — every solver call (sessions included) runs
/// as a job posted to that thread, so the one-backend-one-thread rule of
/// docs/ARCHITECTURE.md holds per leg. The only cross-thread calls are
/// interrupt()/interrupted(), which every backend documents as
/// thread-safe. Cancellation uses a sequentially-consistent handshake
/// (Started/Cancelled flags) so a leg that picks a job up after the race
/// is decided aborts before solving, and a leg already solving is
/// interrupted — one of the two paths always fires.
///
/// The portfolio cannot capture proofs: legs race, so which leg produced
/// a given UNSAT is schedule-dependent, and a losing leg's partial proof
/// is garbage. Certification requests are therefore rejected up front
/// (supportsProofCapture() = false; the checker surfaces BadRequest).
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SMT_PORTFOLIO_H
#define LEAPFROG_SMT_PORTFOLIO_H

#include "smt/Solver.h"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

namespace leapfrog {
namespace smt {

/// Races two or more child backends per query; see the file comment.
class PortfolioSolver : public SmtSolver {
public:
  /// Takes ownership of \p Legs (at least one; a one-leg portfolio is a
  /// pointless but legal pass-through). Leg threads start immediately.
  explicit PortfolioSolver(std::vector<std::unique_ptr<SmtSolver>> Legs);
  ~PortfolioSolver() override;

  SatResult checkSat(const BvFormulaRef &F, Model *M) override;

  /// Sessions mirror premises into one child session per leg and race
  /// every goal (and every batch) across them.
  std::unique_ptr<IncrementalSession>
  openSession(const SessionLimits &Limits) override;
  using SmtSolver::openSession;

  /// Racing makes proof provenance schedule-dependent; see file comment.
  bool supportsProofCapture() const override { return false; }

  /// Race outcome counters.
  struct PStats {
    std::vector<uint64_t> Wins; ///< Queries each leg answered first.
    uint64_t Cancelled = 0;     ///< Losing legs interrupted mid-solve.
  };
  const PStats &portfolioStats() const { return P; }

  size_t numLegs() const { return Legs.size(); }
  /// The leg backend itself (tests reach through to leg-specific stats
  /// and knobs). The portfolio still owns it; callers must not issue
  /// solver calls on it while the portfolio is live — leg threads own
  /// those — but reading stats after the last query is safe (the race
  /// protocol waits for every leg before returning).
  SmtSolver &leg(size_t I) { return *Legs[I]->Solver; }

private:
  class PortfolioSession;

  /// One leg: a backend owned by a mailbox thread that executes posted
  /// jobs one at a time.
  struct Leg {
    std::unique_ptr<SmtSolver> Solver;
    std::thread Thread;
    std::mutex M;
    std::condition_variable Cv;
    std::function<void()> Job;
    bool HasJob = false;
    bool Stop = false;
  };

  /// Shared state of one raced query (or batch).
  struct Race {
    std::mutex M;
    std::condition_variable Cv;
    size_t Remaining;           ///< Legs that have not reported yet.
    bool HaveWinner = false;
    size_t WinnerLeg = 0;
    std::vector<char> Done; ///< Per-leg "already reported" (under M):
                            ///< finished legs are never interrupted, so
                            ///< Cancelled counts real mid-solve cancels.
    std::atomic<bool> Cancelled{false};
    std::unique_ptr<std::atomic<bool>[]> Started;
  };

  void legMain(Leg &L);
  /// Posts \p Job to leg \p I's mailbox (waits for the slot to free).
  void post(size_t I, std::function<void()> Job);
  /// Runs \p Run(LegIndex) on every leg under the race protocol and
  /// returns the winning leg's index. \p Run must leave its answer in
  /// leg-indexed storage the caller provides; it returns true when the
  /// leg's answer is valid (i.e. the leg was not interrupted).
  size_t race(const std::function<bool(size_t)> &Run);
  /// Reports leg \p I's completion into \p R; on the first valid answer,
  /// records the win and cancels every already-started loser.
  void report(Race &R, size_t I, bool Valid);

  std::vector<std::unique_ptr<Leg>> Legs;
  PStats P;
};

} // namespace smt
} // namespace leapfrog

#endif // LEAPFROG_SMT_PORTFOLIO_H
