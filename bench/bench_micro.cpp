//===- bench_micro.cpp - Substrate microbenchmarks ------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the individual subsystems feeding
// the checker's hot loop: the concrete automaton step (used by the test
// oracle), reachability analysis, WP computation, the Figure 6 lowering
// chain, bit-blasting, and end-to-end SMT validity queries at several
// bitwidths. These are the knobs DESIGN.md §5 calls out; regressions here
// translate directly into checker wall time.
//
//===----------------------------------------------------------------------===//

#include "algorithms/HopcroftKarp.h"
#include "core/Checker.h"
#include "frontend/Elaborate.h"
#include "parsers/Rfc.h"
#include "core/WeakestPrecondition.h"
#include "logic/Lower.h"
#include "parsers/CaseStudies.h"
#include "smt/Solver.h"

#include <benchmark/benchmark.h>

using namespace leapfrog;
using namespace leapfrog::core;
using namespace leapfrog::logic;

namespace {

void BM_ConcreteStep(benchmark::State &State) {
  p4a::Automaton A = parsers::mplsReference();
  p4a::Config C = p4a::initialConfig(
      p4a::StateRef::normal(*A.findState("q1")), p4a::Store(A));
  bool Bit = false;
  for (auto _ : State) {
    C = p4a::step(A, std::move(C), Bit);
    Bit = !Bit;
    if (C.Q.isTerminal())
      C = p4a::initialConfig(p4a::StateRef::normal(0), p4a::Store(A));
  }
}
BENCHMARK(BM_ConcreteStep);

void BM_Reachability(benchmark::State &State) {
  p4a::Automaton A = parsers::gibbDatacenter();
  TemplatePair Start{Template{p4a::StateRef::normal(0), 0},
                     Template{p4a::StateRef::normal(0), 0}};
  for (auto _ : State)
    benchmark::DoNotOptimize(computeReach(A, A, Start, true));
}
BENCHMARK(BM_Reachability);

void BM_WeakestPrecondition(benchmark::State &State) {
  p4a::Automaton L = parsers::mplsReference();
  p4a::Automaton R = parsers::mplsVectorized();
  TemplatePair Start{Template{p4a::StateRef::normal(0), 0},
                     Template{p4a::StateRef::normal(0), 0}};
  auto Pairs = computeReach(L, R, Start, true);
  auto U = BitExpr::mkHdr(Side::Left, *L.findHeader("udp"));
  auto V = BitExpr::mkHdr(Side::Right, *R.findHeader("udp"));
  GuardedFormula Goal{TemplatePair{Template::accept(), Template::accept()},
                      Pure::mkEq(U, V)};
  // The sources the checker hands WP: the goal guard's predecessors.
  const PredecessorIndex Preds(L, R, Pairs, true);
  const std::vector<TemplatePair> &Sources = Preds.of(Goal.TP);
  size_t Fresh = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        weakestPrecondition(L, R, Goal, Sources, true, Fresh));
}
BENCHMARK(BM_WeakestPrecondition);

void BM_LoweringChain(benchmark::State &State) {
  p4a::Automaton L = parsers::mplsReference();
  p4a::Automaton R = parsers::mplsVectorized();
  TemplatePair TP{Template{p4a::StateRef::normal(*L.findState("q2")), 0},
                  Template{p4a::StateRef::normal(*R.findState("q5")), 0}};
  auto U = BitExpr::mkHdr(Side::Left, *L.findHeader("udp"));
  auto V = BitExpr::mkHdr(Side::Right, *R.findHeader("udp"));
  std::vector<GuardedFormula> Premises{
      {TP, Pure::mkEq(BitExpr::mkHdr(Side::Left, *L.findHeader("mpls")),
                      BitExpr::mkLit(Bitvector(32)))}};
  GuardedFormula Goal{TP, Pure::mkEq(U, V)};
  for (auto _ : State)
    benchmark::DoNotOptimize(lowerEntailment(L, R, Premises, Goal));
}
BENCHMARK(BM_LoweringChain);

void BM_SolverValidity(benchmark::State &State) {
  // (x ++ y)[0:w-1] = x — valid; exercises blasting + UNSAT search.
  size_t W = size_t(State.range(0));
  auto X = smt::BvTerm::mkVar("x", W);
  auto Y = smt::BvTerm::mkVar("y", W);
  auto F = smt::BvFormula::mkEq(
      smt::BvTerm::mkExtract(smt::BvTerm::mkConcat(X, Y), 0, W - 1), X);
  for (auto _ : State) {
    smt::BitBlastSolver S;
    benchmark::DoNotOptimize(S.isValid(F));
  }
}
BENCHMARK(BM_SolverValidity)->Arg(32)->Arg(128)->Arg(512);

void BM_SolverSatSearch(benchmark::State &State) {
  // x != c1 ∧ x != c2 ∧ ... forces real search for a witness.
  size_t W = size_t(State.range(0));
  auto X = smt::BvTerm::mkVar("x", W);
  smt::BvFormulaRef F = smt::BvFormula::mkTrue();
  for (uint64_t I = 0; I < 8; ++I)
    F = smt::BvFormula::mkAnd(
        F, smt::BvFormula::mkNot(smt::BvFormula::mkEq(
               X, smt::BvTerm::mkConst(Bitvector::fromUint(I * 37, W)))));
  for (auto _ : State) {
    smt::BitBlastSolver S;
    benchmark::DoNotOptimize(S.checkSat(F, nullptr));
  }
}
BENCHMARK(BM_SolverSatSearch)->Arg(16)->Arg(64);

void BM_CheckerEndToEnd(benchmark::State &State) {
  p4a::Automaton L = parsers::rearrangeReference();
  p4a::Automaton R = parsers::rearrangeCombined();
  for (auto _ : State) {
    smt::BitBlastSolver S;
    CheckOptions O;
    O.Solver = &S;
    benchmark::DoNotOptimize(checkLanguageEquivalence(
        L, "parse_ip", R, "parse_combined", O));
  }
}
BENCHMARK(BM_CheckerEndToEnd);

void BM_CertificateReplay(benchmark::State &State) {
  p4a::Automaton L = parsers::rearrangeReference();
  p4a::Automaton R = parsers::rearrangeCombined();
  CheckResult Res =
      checkLanguageEquivalence(L, "parse_ip", R, "parse_combined");
  for (auto _ : State) {
    smt::BitBlastSolver S;
    benchmark::DoNotOptimize(
        replayCertificate(L, R, Res.Certificate, &S));
  }
}
BENCHMARK(BM_CertificateReplay);

void BM_CertifiedSolve(benchmark::State &State) {
  // The marginal cost of DRUP proof logging + replay on an UNSAT query
  // (vs BM_SolverSatSearch, which has no certification).
  size_t W = size_t(State.range(0));
  auto X = smt::BvTerm::mkVar("x", W);
  // x ≠ c for every c in a small set AND x = one of them: UNSAT.
  auto F = smt::BvFormula::mkEq(
      X, smt::BvTerm::mkConst(Bitvector::fromUint(37, W)));
  F = smt::BvFormula::mkAnd(
      F, smt::BvFormula::mkNot(smt::BvFormula::mkEq(
             X, smt::BvTerm::mkConst(Bitvector::fromUint(37, W)))));
  for (auto _ : State) {
    smt::BitBlastSolver S;
    S.CertifyUnsat = true;
    benchmark::DoNotOptimize(S.checkSat(F, nullptr));
  }
}
BENCHMARK(BM_CertifiedSolve)->Arg(16)->Arg(64);

void BM_ConfigDfaExtraction(benchmark::State &State) {
  // Explicit-state baseline cost: materializing the configuration DFA
  // of the width-4 Figure 1 family (~80k states; see bench_crossover).
  p4a::Automaton Ref = parsers::mplsReferenceScaled(4);
  p4a::Config Init = p4a::initialConfig(
      p4a::StateRef::normal(*Ref.findState("q1")), p4a::Store(Ref));
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        algorithms::extractConfigDfa(Ref, Init, 1u << 18));
  }
}
BENCHMARK(BM_ConfigDfaExtraction);

void BM_PartitionRefinement(benchmark::State &State) {
  // Moore vs Hopcroft vs Paige–Tarjan on the same extracted DFA
  // (range(0) selects the algorithm).
  p4a::Automaton Ref = parsers::mplsReferenceScaled(2);
  p4a::Config Init = p4a::initialConfig(
      p4a::StateRef::normal(*Ref.findState("q1")), p4a::Store(Ref));
  algorithms::DfaExtraction E =
      algorithms::extractConfigDfa(Ref, Init, 1u << 18);
  for (auto _ : State) {
    switch (State.range(0)) {
    case 0:
      benchmark::DoNotOptimize(algorithms::mooreRefine(E.D));
      break;
    case 1:
      benchmark::DoNotOptimize(algorithms::hopcroftRefine(E.D));
      break;
    default:
      benchmark::DoNotOptimize(
          algorithms::paigeTarjanRefine(algorithms::dfaToLts(E.D)));
      break;
    }
  }
}
BENCHMARK(BM_PartitionRefinement)->Arg(0)->Arg(1)->Arg(2);

void BM_SurfaceElaboration(benchmark::State &State) {
  // Front-end cost: the full enterprise RFC stack (28 states, stacks of
  // option states) through all elaboration passes.
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        frontend::elaborate(rfc::standardEnterpriseStack()));
  }
}
BENCHMARK(BM_SurfaceElaboration);

} // namespace

BENCHMARK_MAIN();
