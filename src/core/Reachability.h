//===- Reachability.h - Template abstraction and reachability ---*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The template-level abstract interpretation of §5.1 and the leap sizes
/// of §5.2. Templates ⟨q, n⟩ abstract configurations by dropping the store
/// and buffer *contents*, keeping only the state and buffer *length*; the
/// abstract step σ over-approximates δ, so the template pairs reachable
/// from the initial pair over-approximate the configuration pairs the
/// checker must constrain. Pruning the rest "lets us avoid spurious search
/// steps through unreachable configurations" (§2) — the ablation benchmark
/// shows the paper's observation that the algorithm does not finish
/// without it (§7.3).
///
/// Both σ and reachability come in bit-level (k = 1) and leap (k = ♯)
/// flavours, selected by a flag, implementing the "combined optimization"
/// of §5.3.
///
/// The same abstract step, read backwards, is the predecessor index that
/// lets each weakest precondition visit only the sources that can land
/// on the goal's guard (PredecessorIndex below).
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_CORE_REACHABILITY_H
#define LEAPFROG_CORE_REACHABILITY_H

#include "logic/ConfRel.h"

#include <unordered_map>
#include <vector>

namespace leapfrog {
namespace core {

using logic::Template;
using logic::TemplatePair;

/// All templates of \p Aut: ⟨q, n⟩ for every user state q and every
/// 0 ≤ n < ||op(q)||, plus ⟨accept, 0⟩ and ⟨reject, 0⟩ (Definition 4.7).
std::vector<Template> allTemplates(const p4a::Automaton &Aut);

/// Bits a configuration described by \p T still needs before its state
/// block fires: ||op(q)|| − n for user states (always ≥ 1), or SIZE_MAX
/// for terminal states (they never fire a block).
size_t templateDeficit(const p4a::Automaton &Aut, Template T);

/// The leap size ♯ of Definition 5.3, lifted to templates (it only depends
/// on states and buffer lengths): the number of steps until the next
/// "real" state-to-state transition on either side.
size_t leapSize(const p4a::Automaton &Left, const p4a::Automaton &Right,
                TemplatePair TP);

/// σ lifted to \p K consecutive steps: the templates that configurations
/// described by \p T can be in after exactly K bits. Requires K ≤ deficit
/// (the leap regime): buffering sides advance deterministically, a side
/// whose buffer fills transitions to each syntactic successor, terminal
/// sides collapse to ⟨reject, 0⟩.
std::vector<Template> templateSuccessors(const p4a::Automaton &Aut,
                                         Template T, size_t K);

/// reach_φ (§5.1, computed with leaps per §5.3 when \p UseLeaps): the
/// least set of template pairs containing \p Start and closed under the
/// joint abstract step. Deterministic order (BFS discovery).
std::vector<TemplatePair> computeReach(const p4a::Automaton &Left,
                                       const p4a::Automaton &Right,
                                       TemplatePair Start, bool UseLeaps);

/// The full template-pair product (the unpruned domain used when the
/// reachability optimization is ablated).
std::vector<TemplatePair> allPairs(const p4a::Automaton &Left,
                                   const p4a::Automaton &Right);

/// The abstract edges of a source domain, indexed by target: for each
/// template pair, the sources whose joint abstract step (the one
/// computeReach takes — k = ♯ with leaps, k = 1 without) can land on it,
/// each list in the order of the domain.
///
/// A source contributes to WP(ψ) only if both sides can land on ψ's
/// guard, and the step over-approximates that test: a filling side's
/// targets are Automaton::successors, a superset of every state whose
/// transition condition is not False. So weakestPrecondition over
/// of(ψ.TP) emits the same formulas, in the same order, with the same
/// fresh-variable numbering as over the whole domain — it just skips the
/// sources that cannot land there. The index is derived from the
/// automata alone, so certificate replay rebuilds it from its own
/// recomputed reach set and trusts nothing new.
class PredecessorIndex {
public:
  PredecessorIndex(const p4a::Automaton &Left, const p4a::Automaton &Right,
                   const std::vector<TemplatePair> &Sources, bool UseLeaps);

  /// The sources that can step onto \p Target, in domain order; empty
  /// when none can.
  const std::vector<TemplatePair> &of(TemplatePair Target) const;

private:
  std::unordered_map<TemplatePair, std::vector<TemplatePair>,
                     logic::TemplatePairHasher>
      Preds;
};

} // namespace core
} // namespace leapfrog

#endif // LEAPFROG_CORE_REACHABILITY_H
