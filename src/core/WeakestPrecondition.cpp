//===- WeakestPrecondition.cpp - Symbolic WP over P4 automata -------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "core/WeakestPrecondition.h"

using namespace leapfrog;
using namespace leapfrog::core;
using namespace leapfrog::logic;

BitExprRef core::symEvalExpr(const Ctx &C, Side S, const p4a::ExprRef &E,
                             const std::vector<BitExprRef> &Headers) {
  assert(E && "symbolic evaluation of null expression");
  switch (E->kind()) {
  case p4a::Expr::Kind::Header:
    assert(E->header() < Headers.size() && "header id out of range");
    return Headers[E->header()];
  case p4a::Expr::Kind::Literal:
    return BitExpr::mkLit(E->literal());
  case p4a::Expr::Kind::Slice:
    return mkSliceS(C, symEvalExpr(C, S, E->sliceOperand(), Headers),
                    E->sliceLo(), E->sliceHi());
  case p4a::Expr::Kind::Concat:
    return mkConcatS(C, symEvalExpr(C, S, E->concatLhs(), Headers),
                     symEvalExpr(C, S, E->concatRhs(), Headers));
  }
  assert(false && "unknown expression kind");
  return nullptr;
}

std::vector<BitExprRef> core::symExecOps(const Ctx &C, Side S,
                                         const p4a::Automaton &Aut,
                                         p4a::StateId Q,
                                         const BitExprRef &Input) {
  // The pre-store: each header maps to itself.
  std::vector<BitExprRef> Headers;
  Headers.reserve(Aut.numHeaders());
  for (p4a::HeaderId H = 0; H < Aut.numHeaders(); ++H)
    Headers.push_back(BitExpr::mkHdr(S, H));

  size_t Cursor = 0;
  for (const p4a::Op &O : Aut.state(Q).Ops) {
    if (O.K == p4a::Op::Kind::Extract) {
      size_t Sz = Aut.headerSize(O.Target);
      Headers[O.Target] = mkSliceS(C, Input, Cursor, Cursor + Sz - 1);
      Cursor += Sz;
      continue;
    }
    Headers[O.Target] = symEvalExpr(C, S, O.Value, Headers);
  }
  assert(Cursor == Aut.opBits(Q) &&
         "operation block consumed unexpected bit count");
  return Headers;
}

PureRef core::transitionCondition(const Ctx &C, Side S,
                                  const p4a::Automaton &Aut, p4a::StateId Q,
                                  const std::vector<BitExprRef> &Headers,
                                  p4a::StateRef Target) {
  const p4a::Transition &Tz = Aut.state(Q).Tz;
  if (Tz.IsGoto)
    return Tz.GotoTarget == Target ? Pure::mkTrue() : Pure::mkFalse();

  // Only cases up to the last one that targets Target can contribute;
  // reject also collects the fall-through, which needs every case.
  size_t End = Tz.Cases.size();
  if (!Target.isReject()) {
    while (End > 0 && Tz.Cases[End - 1].Target != Target)
      --End;
    if (End == 0)
      return Pure::mkFalse();
  }

  // Symbolic discriminant tuple over the post-store.
  std::vector<BitExprRef> Ds;
  Ds.reserve(Tz.Discriminants.size());
  for (const p4a::ExprRef &E : Tz.Discriminants)
    Ds.push_back(symEvalExpr(C, S, E, Headers));

  // Case i fires iff its patterns match and no earlier case matched.
  PureRef NoneBefore = Pure::mkTrue();
  PureRef Reached = Pure::mkFalse();
  for (size_t CaseIdx = 0; CaseIdx < End; ++CaseIdx) {
    const p4a::SelectCase &Case = Tz.Cases[CaseIdx];
    PureRef Matches = Pure::mkTrue();
    for (size_t I = 0; I < Case.Pats.size(); ++I) {
      const p4a::Pattern &P = Case.Pats[I];
      if (P.isWildcard())
        continue;
      Matches = Pure::mkAnd(
          Matches, Pure::mkEq(Ds[I], BitExpr::mkLit(*P.Exact)));
    }
    if (Case.Target == Target)
      Reached = Pure::mkOr(Reached, Pure::mkAnd(NoneBefore, Matches));
    NoneBefore = Pure::mkAnd(NoneBefore, Pure::mkNot(Matches));
  }
  // Fall-through: no case matched ⇒ reject (Definition 3.3).
  if (Target.isReject())
    Reached = Pure::mkOr(Reached, NoneBefore);
  return Reached;
}

namespace {

/// Per-side outcome of pushing one leap backwards.
struct SideWp {
  bool Compatible = false; ///< Can this side land on the goal template?
  PureRef Cond;            ///< Condition for landing there.
  SideSubst Subst;         ///< Post-state → pre-state substitution.
};

/// Identity substitution: buffer and headers map to themselves.
SideSubst identitySubst(const p4a::Automaton &Aut, Side S) {
  SideSubst Sub;
  Sub.Buf = BitExpr::mkBuf(S);
  Sub.Headers.reserve(Aut.numHeaders());
  for (p4a::HeaderId H = 0; H < Aut.numHeaders(); ++H)
    Sub.Headers.push_back(BitExpr::mkHdr(S, H));
  return Sub;
}

/// Computes one side's contribution for leaping k bits from \p Source
/// toward goal template \p GoalT. \p C is the context of the *source*
/// pair (buffer widths are the source's); \p X names the k packet bits.
SideWp sideWp(const Ctx &C, Side S, const p4a::Automaton &Aut,
              Template Source, Template GoalT, const BitExprRef &X,
              size_t K) {
  SideWp W;
  W.Cond = Pure::mkTrue();
  W.Subst = identitySubst(Aut, S);

  if (Source.Q.isTerminal()) {
    // Terminal sides collapse to ⟨reject, 0⟩, store untouched, buffer ε.
    if (!(GoalT == Template::reject()))
      return W;
    W.Compatible = true;
    W.Subst.Buf = BitExpr::mkLit(Bitvector());
    return W;
  }

  size_t D = core::templateDeficit(Aut, Source);
  assert(K <= D && "leap overshoots this side's transition");

  if (K < D) {
    // Pure buffering: deterministic post-template ⟨q, n+k⟩.
    if (!(GoalT == Template{Source.Q, Source.N + K}))
      return W;
    W.Compatible = true;
    W.Subst.Buf = mkConcatS(C, BitExpr::mkBuf(S), X);
    return W;
  }

  // The buffer fills: blocks run on buf ++ X and the transition actuates.
  if (GoalT.N != 0)
    return W; // Post-transition configurations have empty buffers.
  BitExprRef Input = mkConcatS(C, BitExpr::mkBuf(S), X);
  std::vector<BitExprRef> Post = core::symExecOps(C, S, Aut, Source.Q.Id,
                                                  Input);
  PureRef Cond =
      core::transitionCondition(C, S, Aut, Source.Q.Id, Post, GoalT.Q);
  if (Cond->kind() == Pure::Kind::False)
    return W; // This state can never transition to the goal state.
  W.Compatible = true;
  W.Cond = Cond;
  W.Subst.Buf = BitExpr::mkLit(Bitvector());
  W.Subst.Headers = std::move(Post);
  return W;
}

} // namespace

std::vector<GuardedFormula> core::weakestPrecondition(
    const p4a::Automaton &Left, const p4a::Automaton &Right,
    const GuardedFormula &Goal, const std::vector<TemplatePair> &Sources,
    bool UseLeaps, size_t &FreshCounter) {
  std::vector<GuardedFormula> Out;
  for (TemplatePair Source : Sources) {
    size_t K = UseLeaps ? leapSize(Left, Right, Source) : 1;
    // Cheap compatibility pre-filter on deterministic sides.
    Ctx C{&Left, &Right, Source};
    BitExprRef X =
        BitExpr::mkVar("x" + std::to_string(FreshCounter), K);

    SideWp L = sideWp(C, Side::Left, Left, Source.L, Goal.TP.L, X, K);
    if (!L.Compatible)
      continue;
    SideWp R = sideWp(C, Side::Right, Right, Source.R, Goal.TP.R, X, K);
    if (!R.Compatible)
      continue;
    ++FreshCounter;

    PureRef Post = substitute(Goal.Phi, L.Subst, R.Subst);
    PureRef Phi =
        Pure::mkImplies(Pure::mkAnd(L.Cond, R.Cond), Post);
    Out.push_back(GuardedFormula{Source, Phi});
  }
  return Out;
}
