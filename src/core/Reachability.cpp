//===- Reachability.cpp - Template abstraction and reachability -----------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "core/Reachability.h"

#include <deque>
#include <limits>
#include <unordered_set>

using namespace leapfrog;
using namespace leapfrog::core;

std::vector<Template> core::allTemplates(const p4a::Automaton &Aut) {
  std::vector<Template> Ts;
  for (p4a::StateId Q = 0; Q < Aut.numStates(); ++Q) {
    size_t Bits = Aut.opBits(Q);
    assert(Bits >= 1 && "state consumes no bits (⊢A violated)");
    for (size_t N = 0; N < Bits; ++N)
      Ts.push_back(Template{p4a::StateRef::normal(Q), N});
  }
  Ts.push_back(Template::accept());
  Ts.push_back(Template::reject());
  return Ts;
}

size_t core::templateDeficit(const p4a::Automaton &Aut, Template T) {
  if (T.Q.isTerminal())
    return std::numeric_limits<size_t>::max();
  size_t Bits = Aut.opBits(T.Q.Id);
  assert(T.N < Bits && "template buffer length out of range");
  return Bits - T.N;
}

size_t core::leapSize(const p4a::Automaton &Left, const p4a::Automaton &Right,
                      TemplatePair TP) {
  size_t DL = templateDeficit(Left, TP.L);
  size_t DR = templateDeficit(Right, TP.R);
  size_t K = std::min(DL, DR);
  // Both sides terminal: one step, straight to reject (Definition 5.3).
  if (K == std::numeric_limits<size_t>::max())
    return 1;
  return K;
}

std::vector<Template> core::templateSuccessors(const p4a::Automaton &Aut,
                                               Template T, size_t K) {
  assert(K >= 1 && "successor computation requires at least one step");
  std::vector<Template> Posts;
  if (T.Q.isTerminal()) {
    // Terminal configurations step to reject and stay there.
    Posts.push_back(Template::reject());
    return Posts;
  }
  size_t D = templateDeficit(Aut, T);
  assert(K <= D && "leap overshoots this side's transition");
  if (K < D) {
    Posts.push_back(Template{T.Q, T.N + K});
    return Posts;
  }
  // The buffer fills: the block runs and the transition actuates.
  for (p4a::StateRef Succ : Aut.successors(T.Q.Id))
    Posts.push_back(Template{Succ, 0});
  return Posts;
}

namespace {

/// The joint abstract step from \p TP: k = ♯ (or 1 without leaps) bits on
/// both sides, then every pair of side successors. In bit-level mode a
/// side whose deficit exceeds 1 merely buffers; templateSuccessors
/// handles both regimes uniformly given k ≤ deficit.
template <typename Fn>
void forEachSuccessor(const p4a::Automaton &Left, const p4a::Automaton &Right,
                      TemplatePair TP, bool UseLeaps, Fn F) {
  size_t K = UseLeaps ? leapSize(Left, Right, TP) : 1;
  std::vector<Template> PostsR = templateSuccessors(Right, TP.R, K);
  for (Template PL : templateSuccessors(Left, TP.L, K))
    for (Template PR : PostsR)
      F(TemplatePair{PL, PR});
}

} // namespace

std::vector<TemplatePair> core::computeReach(const p4a::Automaton &Left,
                                             const p4a::Automaton &Right,
                                             TemplatePair Start,
                                             bool UseLeaps) {
  std::unordered_set<TemplatePair, logic::TemplatePairHasher> Seen;
  std::vector<TemplatePair> Order;
  std::deque<TemplatePair> Work;

  auto Push = [&](TemplatePair TP) {
    if (Seen.insert(TP).second) {
      Order.push_back(TP);
      Work.push_back(TP);
    }
  };
  Push(Start);

  while (!Work.empty()) {
    TemplatePair TP = Work.front();
    Work.pop_front();
    forEachSuccessor(Left, Right, TP, UseLeaps, Push);
  }
  return Order;
}

std::vector<TemplatePair> core::allPairs(const p4a::Automaton &Left,
                                         const p4a::Automaton &Right) {
  std::vector<TemplatePair> Pairs;
  for (Template TL : allTemplates(Left))
    for (Template TR : allTemplates(Right))
      Pairs.push_back(TemplatePair{TL, TR});
  return Pairs;
}

core::PredecessorIndex::PredecessorIndex(
    const p4a::Automaton &Left, const p4a::Automaton &Right,
    const std::vector<TemplatePair> &Sources, bool UseLeaps) {
  for (TemplatePair Source : Sources)
    // Side successors are duplicate-free, so each list gets a source at
    // most once.
    forEachSuccessor(Left, Right, Source, UseLeaps, [&](TemplatePair Post) {
      Preds[Post].push_back(Source);
    });
}

const std::vector<TemplatePair> &
core::PredecessorIndex::of(TemplatePair Target) const {
  static const std::vector<TemplatePair> None;
  auto It = Preds.find(Target);
  return It == Preds.end() ? None : It->second;
}
