//===- Certificate.cpp - Replayable equivalence certificates --------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "core/Certificate.h"

#include "core/Reachability.h"
#include "core/WeakestPrecondition.h"
#include "logic/Lower.h"

using namespace leapfrog;
using namespace leapfrog::core;
using namespace leapfrog::logic;

std::string EquivalenceCertificate::str(const p4a::Automaton &Left,
                                        const p4a::Automaton &Right) const {
  std::string Out;
  Out += "certificate for phi guarded by [" + Left.refName(Spec.TP.L.Q) +
         "," + std::to_string(Spec.TP.L.N) + "]< & [" +
         Right.refName(Spec.TP.R.Q) + "," + std::to_string(Spec.TP.R.N) +
         "]> with premise " +
         (Spec.Premise ? Spec.Premise->str() : "true") + "\n";
  Out += "options: leaps=" + std::string(UseLeaps ? "on" : "off") +
         " reachability=" + std::string(UseReachability ? "on" : "off") +
         "\n";
  Out += "relation (" + std::to_string(Relation.size()) + " conjuncts):\n";
  for (const GuardedFormula &G : Relation)
    Out += "  " + G.str(Left, Right) + "\n";
  return Out;
}

namespace {

/// Checks one entailment ⋀R ⊨ Goal with \p Solver, folding constant
/// queries without a solver call.
bool entailed(const p4a::Automaton &Left, const p4a::Automaton &Right,
              const std::vector<GuardedFormula> &R, const GuardedFormula &G,
              smt::SmtSolver &Solver) {
  if (G.Phi->kind() == Pure::Kind::True)
    return true;
  LowerResult Lowered = lowerEntailment(Left, Right, R, G);
  if (Lowered.Query->kind() == smt::BvFormula::Kind::True)
    return true;
  if (Lowered.Query->kind() == smt::BvFormula::Kind::False)
    return false;
  return Solver.isValid(Lowered.Query);
}

} // namespace

ReplayResult core::replayCertificate(const p4a::Automaton &Left,
                                     const p4a::Automaton &Right,
                                     const EquivalenceCertificate &Cert,
                                     smt::SmtSolver *SolverArg) {
  smt::SmtSolver &Solver = SolverArg ? *SolverArg : smt::defaultSolver();
  ReplayResult Result;

  // Re-derive the template-pair domain from scratch; the certificate is
  // *not* trusted to provide it.
  std::vector<TemplatePair> Pairs =
      Cert.UseReachability
          ? computeReach(Left, Right, Cert.Spec.TP, Cert.UseLeaps)
          : allPairs(Left, Right);

  // Obligation 1 — initiation: ⋀R entails the independently re-derived
  // initial relation I (acceptance compatibility in the spec's mode, plus
  // any extra conjuncts the property was checked modulo).
  for (const GuardedFormula &G : buildInitialConjuncts(Cert.Spec, Pairs)) {
    ++Result.ObligationsChecked;
    if (!entailed(Left, Right, Cert.Relation, G, Solver)) {
      Result.FailureReason = "initiation: conjunct of I not entailed: " +
                             G.str(Left, Right);
      return Result;
    }
  }

  // Obligation 2 — consecution: ⋀R is closed under leap steps, i.e. every
  // weakest precondition of every conjunct is again entailed by ⋀R. The
  // predecessor index is rebuilt here from the recomputed domain, like
  // the domain itself.
  const PredecessorIndex Preds(Left, Right, Pairs, Cert.UseLeaps);
  size_t Fresh = 0;
  for (size_t I = 0; I < Cert.Relation.size(); ++I) {
    const GuardedFormula &Conjunct = Cert.Relation[I];
    std::vector<GuardedFormula> Wp =
        weakestPrecondition(Left, Right, Conjunct, Preds.of(Conjunct.TP),
                            Cert.UseLeaps, Fresh);
    for (const GuardedFormula &G : Wp) {
      ++Result.ObligationsChecked;
      if (!entailed(Left, Right, Cert.Relation, G, Solver)) {
        Result.FailureReason = "consecution: WP of conjunct #" +
                               std::to_string(I) +
                               " not entailed at " + G.str(Left, Right);
        return Result;
      }
    }
  }

  // Obligation 3 — inclusion: φ ⊨ ⋀R.
  PureRef Premise = Cert.Spec.Premise ? Cert.Spec.Premise : Pure::mkTrue();
  for (const GuardedFormula &Conjunct : Cert.Relation) {
    if (Conjunct.TP != Cert.Spec.TP)
      continue;
    ++Result.ObligationsChecked;
    smt::BvFormulaRef Query =
        lowerPure(Left, Right, Cert.Spec.TP,
                  Pure::mkImplies(Premise, Conjunct.Phi));
    bool Valid = Query->kind() == smt::BvFormula::Kind::True ||
                 (Query->kind() != smt::BvFormula::Kind::False &&
                  Solver.isValid(Query));
    if (!Valid) {
      Result.FailureReason = "inclusion: phi does not entail conjunct " +
                             Conjunct.str(Left, Right);
      return Result;
    }
  }

  Result.Valid = true;
  return Result;
}
