//===- FrontierKey.h - Exact frontier deduplication keys --------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic identity keys the checker's frontier deduplicates on
/// (the worklist loop of core/Checker.cpp). Deduplication deletes
/// frontier work, so these keys decide which conjuncts the search ever
/// considers; they live in a header of their own so tests can pin them.
///
/// The guard must be rendered *exactly*, never hashed: a key collision
/// silently drops a conjunct and can flip the verdict. This is not
/// theoretical — keying on TemplatePair::hash() shipped with a real
/// collision (the boost-style hashCombine cancels on correlated small-int
/// deltas: pairs ⟨q0,2⟩·⟨q0,0⟩ and ⟨q0,3⟩·⟨q1,0⟩ collide), which made the
/// checker report two inequivalent parsers "equivalent" by swallowing the
/// refutation chain. CheckerDedup.HashCollisionPairsStayDistinct pins the
/// exact pair.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_CORE_FRONTIERKEY_H
#define LEAPFROG_CORE_FRONTIERKEY_H

#include "logic/ConfRel.h"

#include <string>

namespace leapfrog {
namespace core {
namespace detail {

inline void appendTemplateKey(std::string &Out, const logic::Template &T) {
  Out += std::to_string(int(T.Q.K));
  Out += ':';
  Out += std::to_string(T.Q.Id);
  Out += ':';
  Out += std::to_string(T.N);
}

/// Appends the exact rendering of a guard, "K:Id:N,K:Id:N|".
inline void appendGuardKey(std::string &Out, const logic::TemplatePair &TP) {
  appendTemplateKey(Out, TP.L);
  Out += ',';
  appendTemplateKey(Out, TP.R);
  Out += '|';
}

/// Exact rendering of a guarded formula; two formulas with the same key
/// are interchangeable in R/T, so pushing both wastes an SMT query.
inline std::string formulaKey(const logic::GuardedFormula &G) {
  std::string Key;
  appendGuardKey(Key, G.TP);
  G.Phi->appendTo(Key);
  return Key;
}

/// The frontier dedup key: the guard, then ψ rendered by the same
/// printer in its canonical-naming mode (logic::CanonicalNaming), in one
/// left-to-right pass. α-equivalent conjuncts (the WP operator mints
/// fresh variables on every application) share a key. The key equals
/// formulaKey of the conjunct with its rigid variables renamed to their
/// canonical names: renaming a variable never changes a node's kind, and
/// the smart constructors fold only on Lit/True/False kinds, so the
/// renamed formula would have exactly ψ's structure. The *stored*
/// formula keeps its original names — a WP child shares its parent
/// conjunct's variables, and that identity is what lets the entailment
/// check discharge the child against the parent.
inline std::string frontierKey(const logic::GuardedFormula &G) {
  std::string Key;
  appendGuardKey(Key, G.TP);
  logic::CanonicalNaming Canon;
  G.Phi->appendTo(Key, &Canon);
  return Key;
}

} // namespace detail
} // namespace core
} // namespace leapfrog

#endif // LEAPFROG_CORE_FRONTIERKEY_H
