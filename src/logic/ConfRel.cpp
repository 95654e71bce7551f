//===- ConfRel.cpp - The configuration-relation logic ---------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "logic/ConfRel.h"

#include <algorithm>

using namespace leapfrog;
using namespace leapfrog::logic;

//===----------------------------------------------------------------------===//
// BitExpr constructors
//===----------------------------------------------------------------------===//

BitExprRef BitExpr::mkLit(Bitvector BV) {
  auto E = std::make_shared<BitExpr>(Token{});
  E->K = Kind::Lit;
  E->Lit = std::move(BV);
  return E;
}

BitExprRef BitExpr::mkBuf(Side S) {
  auto E = std::make_shared<BitExpr>(Token{});
  E->K = Kind::Buf;
  E->S = S;
  return E;
}

BitExprRef BitExpr::mkHdr(Side S, p4a::HeaderId H) {
  auto E = std::make_shared<BitExpr>(Token{});
  E->K = Kind::Hdr;
  E->S = S;
  E->Hdr = H;
  return E;
}

BitExprRef BitExpr::mkVar(std::string Name, size_t Width) {
  assert(Width > 0 && "zero-width rigid variable");
  auto E = std::make_shared<BitExpr>(Token{});
  E->K = Kind::Var;
  E->Name = std::move(Name);
  E->VarW = Width;
  return E;
}

BitExprRef BitExpr::mkSlice(BitExprRef Operand, size_t Lo, size_t Hi) {
  assert(Operand && "slice of null expression");
  auto E = std::make_shared<BitExpr>(Token{});
  E->K = Kind::Slice;
  E->A = std::move(Operand);
  E->Lo = Lo;
  E->Hi = Hi;
  return E;
}

BitExprRef BitExpr::mkConcat(BitExprRef L, BitExprRef R) {
  assert(L && R && "concat of null expression");
  auto E = std::make_shared<BitExpr>(Token{});
  E->K = Kind::Concat;
  E->A = std::move(L);
  E->B = std::move(R);
  return E;
}

//===----------------------------------------------------------------------===//
// The printer
//===----------------------------------------------------------------------===//

void CanonicalNaming::append(std::string &Out, const BitExpr &Var) {
  size_t I = 0;
  for (; I < Seen.size(); ++I)
    if (*Seen[I].first == Var.varName()) {
      assert(Seen[I].second == Var.varWidth() &&
             "variable used at two widths");
      break;
    }
  if (I == Seen.size())
    Seen.emplace_back(&Var.varName(), Var.varWidth());
  Out += 'v';
  Out += std::to_string(I);
  Out += 'w';
  Out += std::to_string(Seen[I].second);
}

void BitExpr::appendTo(std::string &Out, CanonicalNaming *Canon) const {
  switch (K) {
  case Kind::Lit:
    Out += "0b";
    Lit.appendTo(Out);
    return;
  case Kind::Buf:
    Out += "buf";
    Out += sideMark(S);
    return;
  case Kind::Hdr:
    Out += 'h';
    Out += std::to_string(Hdr);
    Out += sideMark(S);
    return;
  case Kind::Var:
    Out += '$';
    if (Canon)
      Canon->append(Out, *this);
    else
      Out += Name;
    return;
  case Kind::Slice:
    A->appendTo(Out, Canon);
    Out += '[';
    Out += std::to_string(Lo);
    Out += ':';
    Out += std::to_string(Hi);
    Out += ']';
    return;
  case Kind::Concat:
    Out += '(';
    A->appendTo(Out, Canon);
    Out += " ++ ";
    B->appendTo(Out, Canon);
    Out += ')';
    return;
  }
}

std::string BitExpr::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

void Pure::appendTo(std::string &Out, CanonicalNaming *Canon) const {
  const char *Op = nullptr;
  switch (K) {
  case Kind::True:
    Out += "true";
    return;
  case Kind::False:
    Out += "false";
    return;
  case Kind::Eq:
    Out += '(';
    TL->appendTo(Out, Canon);
    Out += " = ";
    TR->appendTo(Out, Canon);
    Out += ')';
    return;
  case Kind::Not:
    Out += '!';
    FL->appendTo(Out, Canon);
    return;
  case Kind::And:
    Op = " & ";
    break;
  case Kind::Or:
    Op = " | ";
    break;
  case Kind::Implies:
    Op = " -> ";
    break;
  }
  Out += '(';
  FL->appendTo(Out, Canon);
  Out += Op;
  FR->appendTo(Out, Canon);
  Out += ')';
}

std::string Pure::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Pure formula constructors (with the cheap folds that are sound without a
// width context; the ctx-aware rewrites live in mkSliceS / mkConcatS)
//===----------------------------------------------------------------------===//

PureRef Pure::mkTrue() {
  auto F = std::make_shared<Pure>(Token{});
  F->K = Kind::True;
  return F;
}

PureRef Pure::mkFalse() {
  auto F = std::make_shared<Pure>(Token{});
  F->K = Kind::False;
  return F;
}

PureRef Pure::mkEq(BitExprRef L, BitExprRef R) {
  assert(L && R && "equality over null expression");
  if (L->kind() == BitExpr::Kind::Lit && R->kind() == BitExpr::Kind::Lit)
    return L->literal() == R->literal() ? mkTrue() : mkFalse();
  auto F = std::make_shared<Pure>(Token{});
  F->K = Kind::Eq;
  F->TL = std::move(L);
  F->TR = std::move(R);
  return F;
}

PureRef Pure::mkNot(PureRef Sub) {
  assert(Sub && "negation of null formula");
  if (Sub->kind() == Kind::True)
    return mkFalse();
  if (Sub->kind() == Kind::False)
    return mkTrue();
  if (Sub->kind() == Kind::Not)
    return Sub->sub();
  auto F = std::make_shared<Pure>(Token{});
  F->K = Kind::Not;
  F->FL = std::move(Sub);
  return F;
}

PureRef Pure::mkAnd(PureRef L, PureRef R) {
  assert(L && R && "conjunction of null formula");
  if (L->kind() == Kind::False || R->kind() == Kind::False)
    return mkFalse();
  if (L->kind() == Kind::True)
    return R;
  if (R->kind() == Kind::True)
    return L;
  auto F = std::make_shared<Pure>(Token{});
  F->K = Kind::And;
  F->FL = std::move(L);
  F->FR = std::move(R);
  return F;
}

PureRef Pure::mkOr(PureRef L, PureRef R) {
  assert(L && R && "disjunction of null formula");
  if (L->kind() == Kind::True || R->kind() == Kind::True)
    return mkTrue();
  if (L->kind() == Kind::False)
    return R;
  if (R->kind() == Kind::False)
    return L;
  auto F = std::make_shared<Pure>(Token{});
  F->K = Kind::Or;
  F->FL = std::move(L);
  F->FR = std::move(R);
  return F;
}

PureRef Pure::mkImplies(PureRef L, PureRef R) {
  assert(L && R && "implication of null formula");
  if (L->kind() == Kind::False || R->kind() == Kind::True)
    return mkTrue();
  if (L->kind() == Kind::True)
    return R;
  if (R->kind() == Kind::False)
    return mkNot(std::move(L));
  auto F = std::make_shared<Pure>(Token{});
  F->K = Kind::Implies;
  F->FL = std::move(L);
  F->FR = std::move(R);
  return F;
}

PureRef Pure::mkAndAll(const std::vector<PureRef> &Fs) {
  PureRef Acc = mkTrue();
  for (const PureRef &F : Fs)
    Acc = mkAnd(Acc, F);
  return Acc;
}

PureRef Pure::mkOrAll(const std::vector<PureRef> &Fs) {
  PureRef Acc = mkFalse();
  for (const PureRef &F : Fs)
    Acc = mkOr(Acc, F);
  return Acc;
}

size_t Pure::size() const {
  switch (K) {
  case Kind::True:
  case Kind::False:
    return 1;
  case Kind::Eq:
    return 1;
  case Kind::Not:
    return 1 + FL->size();
  case Kind::And:
  case Kind::Or:
  case Kind::Implies:
    return 1 + FL->size() + FR->size();
  }
  return 1;
}

std::string GuardedFormula::str(const p4a::Automaton &Left,
                                const p4a::Automaton &Right) const {
  return "[" + Left.refName(TP.L.Q) + "," + std::to_string(TP.L.N) + "]< & [" +
         Right.refName(TP.R.Q) + "," + std::to_string(TP.R.N) +
         "]> => " + Phi->str();
}

//===----------------------------------------------------------------------===//
// Widths and concrete semantics
//===----------------------------------------------------------------------===//

size_t logic::widthUnder(const Ctx &C, const BitExprRef &E) {
  switch (E->kind()) {
  case BitExpr::Kind::Lit:
    return E->literal().size();
  case BitExpr::Kind::Buf:
    return C.bufWidth(E->side());
  case BitExpr::Kind::Hdr:
    return C.aut(E->side()).headerSize(E->header());
  case BitExpr::Kind::Var:
    return E->varWidth();
  case BitExpr::Kind::Slice: {
    size_t W = widthUnder(C, E->sliceOperand());
    if (W == 0)
      return 0;
    size_t Lo = std::min(E->sliceLo(), W - 1);
    size_t Hi = std::min(E->sliceHi(), W - 1);
    return Lo > Hi ? 0 : Hi - Lo + 1;
  }
  case BitExpr::Kind::Concat:
    return widthUnder(C, E->concatLhs()) + widthUnder(C, E->concatRhs());
  }
  return 0;
}

Bitvector logic::evalBitExpr(const Ctx &C, const BitExprRef &E,
                             const p4a::Config &CL, const p4a::Config &CR,
                             const Valuation &Sigma) {
  switch (E->kind()) {
  case BitExpr::Kind::Lit:
    return E->literal();
  case BitExpr::Kind::Buf:
    return E->side() == Side::Left ? CL.Buf : CR.Buf;
  case BitExpr::Kind::Hdr:
    return (E->side() == Side::Left ? CL.S : CR.S).get(E->header());
  case BitExpr::Kind::Var: {
    for (const auto &[Name, Value] : Sigma)
      if (Name == E->varName()) {
        assert(Value.size() == E->varWidth() && "valuation width mismatch");
        return Value;
      }
    assert(false && "rigid variable missing from valuation");
    return Bitvector();
  }
  case BitExpr::Kind::Slice:
    return evalBitExpr(C, E->sliceOperand(), CL, CR, Sigma)
        .slice(E->sliceLo(), E->sliceHi());
  case BitExpr::Kind::Concat:
    return evalBitExpr(C, E->concatLhs(), CL, CR, Sigma)
        .concat(evalBitExpr(C, E->concatRhs(), CL, CR, Sigma));
  }
  assert(false && "unknown expression kind");
  return Bitvector();
}

bool logic::evalPure(const Ctx &C, const PureRef &F, const p4a::Config &CL,
                     const p4a::Config &CR, const Valuation &Sigma) {
  switch (F->kind()) {
  case Pure::Kind::True:
    return true;
  case Pure::Kind::False:
    return false;
  case Pure::Kind::Eq:
    return evalBitExpr(C, F->eqLhs(), CL, CR, Sigma) ==
           evalBitExpr(C, F->eqRhs(), CL, CR, Sigma);
  case Pure::Kind::Not:
    return !evalPure(C, F->sub(), CL, CR, Sigma);
  case Pure::Kind::And:
    return evalPure(C, F->lhs(), CL, CR, Sigma) &&
           evalPure(C, F->rhs(), CL, CR, Sigma);
  case Pure::Kind::Or:
    return evalPure(C, F->lhs(), CL, CR, Sigma) ||
           evalPure(C, F->rhs(), CL, CR, Sigma);
  case Pure::Kind::Implies:
    return !evalPure(C, F->lhs(), CL, CR, Sigma) ||
           evalPure(C, F->rhs(), CL, CR, Sigma);
  }
  assert(false && "unknown formula kind");
  return false;
}

namespace {

void collectExprVars(const BitExprRef &E,
                     std::vector<std::pair<std::string, size_t>> &Vars) {
  switch (E->kind()) {
  case BitExpr::Kind::Var: {
    for (auto &[Name, Width] : Vars)
      if (Name == E->varName()) {
        assert(Width == E->varWidth() && "variable used at two widths");
        (void)Width;
        return;
      }
    Vars.emplace_back(E->varName(), E->varWidth());
    return;
  }
  case BitExpr::Kind::Lit:
  case BitExpr::Kind::Buf:
  case BitExpr::Kind::Hdr:
    return;
  case BitExpr::Kind::Slice:
    collectExprVars(E->sliceOperand(), Vars);
    return;
  case BitExpr::Kind::Concat:
    collectExprVars(E->concatLhs(), Vars);
    collectExprVars(E->concatRhs(), Vars);
    return;
  }
}

void collectPureVars(const PureRef &F,
                     std::vector<std::pair<std::string, size_t>> &Vars) {
  switch (F->kind()) {
  case Pure::Kind::True:
  case Pure::Kind::False:
    return;
  case Pure::Kind::Eq:
    collectExprVars(F->eqLhs(), Vars);
    collectExprVars(F->eqRhs(), Vars);
    return;
  case Pure::Kind::Not:
    collectPureVars(F->sub(), Vars);
    return;
  case Pure::Kind::And:
  case Pure::Kind::Or:
  case Pure::Kind::Implies:
    collectPureVars(F->lhs(), Vars);
    collectPureVars(F->rhs(), Vars);
    return;
  }
}

} // namespace

std::vector<std::pair<std::string, size_t>>
logic::collectRigidVars(const PureRef &F) {
  std::vector<std::pair<std::string, size_t>> Vars;
  collectPureVars(F, Vars);
  return Vars;
}

bool logic::holdsConcretely(const p4a::Automaton &Left,
                            const p4a::Automaton &Right,
                            const GuardedFormula &G, const p4a::Config &CL,
                            const p4a::Config &CR) {
  // Guard: if the configurations do not match the template pair, the
  // implication holds vacuously.
  if (Template::ofConfig(CL) != G.TP.L || Template::ofConfig(CR) != G.TP.R)
    return true;
  Ctx C{&Left, &Right, G.TP};
  // Enumerate all valuations of the rigid variables.
  auto Vars = collectRigidVars(G.Phi);
  size_t TotalBits = 0;
  for (const auto &[Name, Width] : Vars)
    TotalBits += Width;
  assert(TotalBits <= 16 && "valuation enumeration would explode");
  for (uint64_t V = 0; V < (uint64_t(1) << TotalBits); ++V) {
    Valuation Sigma;
    size_t Shift = 0;
    for (const auto &[Name, Width] : Vars) {
      Sigma.emplace_back(Name,
                         Bitvector::fromUint(V >> Shift, Width));
      Shift += Width;
    }
    if (!evalPure(C, G.Phi, CL, CR, Sigma))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

namespace {

BitExprRef substExpr(const BitExprRef &E, const SideSubst &LeftS,
                     const SideSubst &RightS) {
  switch (E->kind()) {
  case BitExpr::Kind::Lit:
  case BitExpr::Kind::Var:
    return E;
  case BitExpr::Kind::Buf: {
    const SideSubst &S = E->side() == Side::Left ? LeftS : RightS;
    assert(S.Buf && "substitution missing buffer replacement");
    return S.Buf;
  }
  case BitExpr::Kind::Hdr: {
    const SideSubst &S = E->side() == Side::Left ? LeftS : RightS;
    assert(E->header() < S.Headers.size() && S.Headers[E->header()] &&
           "substitution missing header replacement");
    return S.Headers[E->header()];
  }
  case BitExpr::Kind::Slice: {
    BitExprRef A = substExpr(E->sliceOperand(), LeftS, RightS);
    if (A == E->sliceOperand())
      return E;
    // Slicing acts on values, so re-slicing the substituted operand with
    // the same (clamped) bounds is semantics-preserving.
    return BitExpr::mkSlice(std::move(A), E->sliceLo(), E->sliceHi());
  }
  case BitExpr::Kind::Concat: {
    BitExprRef A = substExpr(E->concatLhs(), LeftS, RightS);
    BitExprRef B = substExpr(E->concatRhs(), LeftS, RightS);
    if (A == E->concatLhs() && B == E->concatRhs())
      return E;
    return BitExpr::mkConcat(std::move(A), std::move(B));
  }
  }
  assert(false && "unknown expression kind");
  return E;
}

} // namespace

PureRef logic::substitute(const PureRef &F, const SideSubst &LeftS,
                          const SideSubst &RightS) {
  switch (F->kind()) {
  case Pure::Kind::True:
  case Pure::Kind::False:
    return F;
  case Pure::Kind::Eq:
    return Pure::mkEq(substExpr(F->eqLhs(), LeftS, RightS),
                      substExpr(F->eqRhs(), LeftS, RightS));
  case Pure::Kind::Not:
    return Pure::mkNot(substitute(F->sub(), LeftS, RightS));
  case Pure::Kind::And:
    return Pure::mkAnd(substitute(F->lhs(), LeftS, RightS),
                       substitute(F->rhs(), LeftS, RightS));
  case Pure::Kind::Or:
    return Pure::mkOr(substitute(F->lhs(), LeftS, RightS),
                      substitute(F->rhs(), LeftS, RightS));
  case Pure::Kind::Implies:
    return Pure::mkImplies(substitute(F->lhs(), LeftS, RightS),
                           substitute(F->rhs(), LeftS, RightS));
  }
  assert(false && "unknown formula kind");
  return F;
}

//===----------------------------------------------------------------------===//
// ctx-aware smart constructors (§6.2 algebraic simplifications)
//===----------------------------------------------------------------------===//

BitExprRef logic::mkConcatS(const Ctx &C, BitExprRef L, BitExprRef R) {
  if (widthUnder(C, L) == 0)
    return R;
  if (widthUnder(C, R) == 0)
    return L;
  if (L->kind() == BitExpr::Kind::Lit && R->kind() == BitExpr::Kind::Lit)
    return BitExpr::mkLit(L->literal().concat(R->literal()));
  return BitExpr::mkConcat(std::move(L), std::move(R));
}

BitExprRef logic::mkSliceS(const Ctx &C, BitExprRef E, size_t Lo, size_t Hi) {
  size_t W = widthUnder(C, E);
  if (W == 0)
    return BitExpr::mkLit(Bitvector());
  // Clamp to the operand width (Definition 3.1).
  Lo = std::min(Lo, W - 1);
  Hi = std::min(Hi, W - 1);
  if (Lo > Hi)
    return BitExpr::mkLit(Bitvector());
  if (Lo == 0 && Hi == W - 1)
    return E;
  switch (E->kind()) {
  case BitExpr::Kind::Lit:
    return BitExpr::mkLit(E->literal().extract(Lo, Hi + 1));
  case BitExpr::Kind::Slice: {
    // Bounds on the inner operand; already clamped, so they nest exactly.
    size_t InnerW = widthUnder(C, E->sliceOperand());
    size_t Base = std::min(E->sliceLo(), InnerW - 1);
    return mkSliceS(C, E->sliceOperand(), Base + Lo, Base + Hi);
  }
  case BitExpr::Kind::Concat: {
    size_t LW = widthUnder(C, E->concatLhs());
    if (Hi < LW)
      return mkSliceS(C, E->concatLhs(), Lo, Hi);
    if (Lo >= LW)
      return mkSliceS(C, E->concatRhs(), Lo - LW, Hi - LW);
    return mkConcatS(C, mkSliceS(C, E->concatLhs(), Lo, LW - 1),
                     mkSliceS(C, E->concatRhs(), 0, Hi - LW));
  }
  case BitExpr::Kind::Buf:
  case BitExpr::Kind::Hdr:
  case BitExpr::Kind::Var:
    break;
  }
  return BitExpr::mkSlice(std::move(E), Lo, Hi);
}
