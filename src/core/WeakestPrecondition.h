//===- WeakestPrecondition.h - Symbolic WP over P4 automata -----*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weakest-precondition operator at the heart of Algorithm 1
/// (Lemmas 4.8 / 4.9), in its multi-step "leap" form (Theorem 5.7; the
/// bit-level form is the special case k = 1).
///
/// Given a goal  t1< ∧ t2> ⇒ ψ  and a source template pair (s1, s2), the
/// next k = ♯(s1, s2) packet bits are named by one fresh rigid variable X
/// shared by both sides — both automata read the *same* packet. Each side
/// then either:
///   - buffers (k < deficit): its buffer becomes buf ++ X, the store is
///     unchanged, and its post-template is ⟨q, n+k⟩ — the source
///     contributes a formula only if that equals the goal's template;
///   - transitions (k = deficit): its operation block runs symbolically on
///     buf ++ X, producing per-header expressions; the select discriminants
///     are evaluated over that symbolic store, and reaching the goal state
///     q' becomes a condition (first-match semantics respected);
///   - is terminal: it collapses to ⟨reject, 0⟩ with store untouched.
///
/// The emitted source formula is  s1< ∧ s2> ⇒ (Cond1 ∧ Cond2 ⇒ ψσ)  where
/// ψσ substitutes the post-state buffers and stores, and X is implicitly
/// universally quantified by the semantics of rigid variables.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_CORE_WEAKESTPRECONDITION_H
#define LEAPFROG_CORE_WEAKESTPRECONDITION_H

#include "core/Reachability.h"
#include "logic/ConfRel.h"

#include <vector>

namespace leapfrog {
namespace core {

using logic::BitExprRef;
using logic::GuardedFormula;
using logic::PureRef;
using logic::Side;

/// Symbolically evaluates a P4A expression over the symbolic store
/// \p Headers (one BitExpr per header of \p Side's automaton), in context
/// \p C. Mirrors ⟦e⟧E (Definition 3.1) with expressions instead of values.
BitExprRef symEvalExpr(const logic::Ctx &C, Side S, const p4a::ExprRef &E,
                       const std::vector<BitExprRef> &Headers);

/// Symbolically executes state \p Q's operation block with the full input
/// \p Input (an expression of width ||op(q)||); returns the post-store,
/// one expression per header. Mirrors ⟦op⟧O (Definition 3.2).
std::vector<BitExprRef> symExecOps(const logic::Ctx &C, Side S,
                                   const p4a::Automaton &Aut,
                                   p4a::StateId Q, const BitExprRef &Input);

/// The condition, over the symbolic post-store \p Headers, under which
/// state \p Q's transition block selects \p Target — respecting select's
/// first-match semantics and fall-through to reject. Mirrors ⟦tz⟧T
/// (Definition 3.3).
PureRef transitionCondition(const logic::Ctx &C, Side S,
                            const p4a::Automaton &Aut, p4a::StateId Q,
                            const std::vector<BitExprRef> &Headers,
                            p4a::StateRef Target);

/// WP(Goal) restricted to the given source template pairs, in their order
/// (Theorem 5.2 restricts WP to the reach set, or to the full product
/// when reachability is ablated). Both callers — the checker and
/// certificate replay — pass PredecessorIndex::of(Goal.TP) over that
/// domain: the only sources that can yield a formula, so the result and
/// \p FreshCounter match a scan of the whole domain (WpTest pins that).
/// \p UseLeaps selects k = ♯ (Theorem 5.7) vs k = 1 (Lemma 4.9).
/// \p FreshCounter supplies fresh rigid-variable names; it advances once
/// per emitted formula.
std::vector<GuardedFormula>
weakestPrecondition(const p4a::Automaton &Left, const p4a::Automaton &Right,
                    const GuardedFormula &Goal,
                    const std::vector<TemplatePair> &Sources, bool UseLeaps,
                    size_t &FreshCounter);

} // namespace core
} // namespace leapfrog

#endif // LEAPFROG_CORE_WEAKESTPRECONDITION_H
