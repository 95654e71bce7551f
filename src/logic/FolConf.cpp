//===- FolConf.cpp - First-order logic over configurations ----------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "logic/FolConf.h"

#include <algorithm>

using namespace leapfrog;
using namespace leapfrog::logic;
using namespace leapfrog::logic::folconf;

//===----------------------------------------------------------------------===//
// Terms
//===----------------------------------------------------------------------===//

TermRef Term::mkStoreSelect(Side S, p4a::HeaderId H, size_t Width) {
  assert(Width > 0 && "zero-width header");
  auto T = std::make_shared<Term>(Token{});
  T->K = Kind::StoreSelect;
  T->Width = Width;
  T->S = S;
  T->Hdr = H;
  return T;
}

TermRef Term::mkBufVar(Side S, size_t Width) {
  auto T = std::make_shared<Term>(Token{});
  T->K = Kind::BufVar;
  T->Width = Width;
  T->S = S;
  return T;
}

TermRef Term::mkRigidVar(std::string Name, size_t Width) {
  assert(Width > 0 && "zero-width rigid variable");
  auto T = std::make_shared<Term>(Token{});
  T->K = Kind::RigidVar;
  T->Width = Width;
  T->Name = std::move(Name);
  return T;
}

TermRef Term::mkConst(Bitvector Value) {
  auto T = std::make_shared<Term>(Token{});
  T->K = Kind::Const;
  T->Width = Value.size();
  T->Value = std::move(Value);
  return T;
}

TermRef Term::mkConcat(TermRef L, TermRef R) {
  assert(L && R && "concat of null term");
  if (L->width() == 0)
    return R;
  if (R->width() == 0)
    return L;
  if (L->kind() == Kind::Const && R->kind() == Kind::Const)
    return mkConst(L->constValue().concat(R->constValue()));
  auto T = std::make_shared<Term>(Token{});
  T->K = Kind::Concat;
  T->Width = L->width() + R->width();
  T->L = std::move(L);
  T->R = std::move(R);
  return T;
}

TermRef Term::mkExtract(TermRef Operand, size_t Lo, size_t Hi) {
  assert(Operand && "extract of null term");
  assert(Lo <= Hi && Hi < Operand->width() && "extract out of bounds");
  if (Lo == 0 && Hi + 1 == Operand->width())
    return Operand;
  if (Operand->kind() == Kind::Const)
    return mkConst(Operand->constValue().extract(Lo, Hi + 1));
  auto T = std::make_shared<Term>(Token{});
  T->K = Kind::Extract;
  T->Width = Hi - Lo + 1;
  T->L = std::move(Operand);
  T->Lo = Lo;
  T->Hi = Hi;
  return T;
}

void Term::appendTo(std::string &Out) const {
  switch (K) {
  case Kind::StoreSelect:
    Out += "store";
    Out += sideMark(S);
    Out += "(h";
    Out += std::to_string(Hdr);
    Out += ')';
    return;
  case Kind::BufVar:
    Out += "buf";
    Out += sideMark(S);
    return;
  case Kind::RigidVar:
    Out += '$';
    Out += Name;
    return;
  case Kind::Const:
    Out += "#b";
    Value.appendTo(Out);
    return;
  case Kind::Concat:
    Out += '(';
    L->appendTo(Out);
    Out += " ++ ";
    R->appendTo(Out);
    Out += ')';
    return;
  case Kind::Extract:
    L->appendTo(Out);
    Out += '[';
    Out += std::to_string(Lo);
    Out += ':';
    Out += std::to_string(Hi);
    Out += ']';
    return;
  }
}

std::string Term::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Formulas
//===----------------------------------------------------------------------===//

FormulaRef Formula::mkTrue() {
  auto F = std::make_shared<Formula>(Token{});
  F->K = Kind::True;
  return F;
}

FormulaRef Formula::mkFalse() {
  auto F = std::make_shared<Formula>(Token{});
  F->K = Kind::False;
  return F;
}

FormulaRef Formula::mkEq(TermRef L, TermRef R) {
  assert(L && R && "equality over null term");
  assert(L->width() == R->width() && "equality width mismatch");
  if (L->width() == 0)
    return mkTrue();
  if (L->kind() == Term::Kind::Const && R->kind() == Term::Kind::Const)
    return L->constValue() == R->constValue() ? mkTrue() : mkFalse();
  auto F = std::make_shared<Formula>(Token{});
  F->K = Kind::Eq;
  F->TL = std::move(L);
  F->TR = std::move(R);
  return F;
}

FormulaRef Formula::mkNot(FormulaRef Sub) {
  assert(Sub && "negation of null formula");
  if (Sub->kind() == Kind::True)
    return mkFalse();
  if (Sub->kind() == Kind::False)
    return mkTrue();
  if (Sub->kind() == Kind::Not)
    return Sub->sub();
  auto F = std::make_shared<Formula>(Token{});
  F->K = Kind::Not;
  F->FL = std::move(Sub);
  return F;
}

FormulaRef Formula::mkAnd(FormulaRef L, FormulaRef R) {
  assert(L && R && "conjunction of null formula");
  if (L->kind() == Kind::False || R->kind() == Kind::False)
    return mkFalse();
  if (L->kind() == Kind::True)
    return R;
  if (R->kind() == Kind::True)
    return L;
  auto F = std::make_shared<Formula>(Token{});
  F->K = Kind::And;
  F->FL = std::move(L);
  F->FR = std::move(R);
  return F;
}

FormulaRef Formula::mkOr(FormulaRef L, FormulaRef R) {
  assert(L && R && "disjunction of null formula");
  if (L->kind() == Kind::True || R->kind() == Kind::True)
    return mkTrue();
  if (L->kind() == Kind::False)
    return R;
  if (R->kind() == Kind::False)
    return L;
  auto F = std::make_shared<Formula>(Token{});
  F->K = Kind::Or;
  F->FL = std::move(L);
  F->FR = std::move(R);
  return F;
}

FormulaRef Formula::mkImplies(FormulaRef L, FormulaRef R) {
  assert(L && R && "implication of null formula");
  if (L->kind() == Kind::False || R->kind() == Kind::True)
    return mkTrue();
  if (L->kind() == Kind::True)
    return R;
  if (R->kind() == Kind::False)
    return mkNot(std::move(L));
  auto F = std::make_shared<Formula>(Token{});
  F->K = Kind::Implies;
  F->FL = std::move(L);
  F->FR = std::move(R);
  return F;
}

void Formula::appendTo(std::string &Out) const {
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
    TL->appendTo(Out);
    Out += " = ";
    TR->appendTo(Out);
    Out += ')';
    return;
  case Kind::Not:
    Out += '!';
    FL->appendTo(Out);
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
  FL->appendTo(Out);
  Out += Op;
  FR->appendTo(Out);
  Out += ')';
}

std::string Formula::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// ConfRelSimp → FOL(Conf)
//===----------------------------------------------------------------------===//

namespace {

TermRef compileExpr(const Ctx &C, const BitExprRef &E) {
  switch (E->kind()) {
  case BitExpr::Kind::Lit:
    return Term::mkConst(E->literal());
  case BitExpr::Kind::Buf:
    return Term::mkBufVar(E->side(), C.bufWidth(E->side()));
  case BitExpr::Kind::Hdr:
    return Term::mkStoreSelect(E->side(), E->header(),
                               C.aut(E->side()).headerSize(E->header()));
  case BitExpr::Kind::Var:
    return Term::mkRigidVar(E->varName(), E->varWidth());
  case BitExpr::Kind::Slice: {
    TermRef Op = compileExpr(C, E->sliceOperand());
    size_t W = Op->width();
    // Exactify the clamped slice (Definition 3.1) now that the operand
    // width is static.
    if (W == 0)
      return Term::mkConst(Bitvector());
    size_t Lo = std::min(E->sliceLo(), W - 1);
    size_t Hi = std::min(E->sliceHi(), W - 1);
    if (Lo > Hi)
      return Term::mkConst(Bitvector());
    return Term::mkExtract(std::move(Op), Lo, Hi);
  }
  case BitExpr::Kind::Concat:
    return Term::mkConcat(compileExpr(C, E->concatLhs()),
                          compileExpr(C, E->concatRhs()));
  }
  assert(false && "unknown expression kind");
  return nullptr;
}

} // namespace

FormulaRef folconf::fromPure(const Ctx &C, const PureRef &F) {
  switch (F->kind()) {
  case Pure::Kind::True:
    return Formula::mkTrue();
  case Pure::Kind::False:
    return Formula::mkFalse();
  case Pure::Kind::Eq: {
    TermRef L = compileExpr(C, F->eqLhs());
    TermRef R = compileExpr(C, F->eqRhs());
    assert(L->width() == R->width() &&
           "ill-width equality survived to FOL compilation");
    return Formula::mkEq(std::move(L), std::move(R));
  }
  case Pure::Kind::Not:
    return Formula::mkNot(fromPure(C, F->sub()));
  case Pure::Kind::And:
    return Formula::mkAnd(fromPure(C, F->lhs()), fromPure(C, F->rhs()));
  case Pure::Kind::Or:
    return Formula::mkOr(fromPure(C, F->lhs()), fromPure(C, F->rhs()));
  case Pure::Kind::Implies:
    return Formula::mkImplies(fromPure(C, F->lhs()), fromPure(C, F->rhs()));
  }
  assert(false && "unknown formula kind");
  return nullptr;
}

//===----------------------------------------------------------------------===//
// FOL(Conf) → FOL(BV): store elimination
//===----------------------------------------------------------------------===//

namespace {

smt::BvTermRef eliminateTerm(const Ctx &C, const TermRef &T) {
  switch (T->kind()) {
  case Term::Kind::StoreSelect: {
    const std::string &HdrName = C.aut(T->side()).headerName(T->header());
    return smt::BvTerm::mkVar(std::string("h") + sideMark(T->side()) +
                                  HdrName,
                              T->width());
  }
  case Term::Kind::BufVar:
    if (T->width() == 0)
      return smt::BvTerm::mkConst(Bitvector());
    return smt::BvTerm::mkVar(std::string("buf") + sideMark(T->side()),
                              T->width());
  case Term::Kind::RigidVar:
    return smt::BvTerm::mkVar("$" + T->rigidName(), T->width());
  case Term::Kind::Const:
    return smt::BvTerm::mkConst(T->constValue());
  case Term::Kind::Concat:
    return smt::BvTerm::mkConcat(eliminateTerm(C, T->lhs()),
                                 eliminateTerm(C, T->rhs()));
  case Term::Kind::Extract:
    return smt::BvTerm::mkExtract(eliminateTerm(C, T->extractOperand()),
                                  T->extractLo(), T->extractHi());
  }
  assert(false && "unknown term kind");
  return nullptr;
}

} // namespace

smt::BvFormulaRef folconf::eliminateStores(const Ctx &C,
                                           const FormulaRef &F) {
  using smt::BvFormula;
  switch (F->kind()) {
  case Formula::Kind::True:
    return BvFormula::mkTrue();
  case Formula::Kind::False:
    return BvFormula::mkFalse();
  case Formula::Kind::Eq:
    return BvFormula::mkEq(eliminateTerm(C, F->eqLhs()),
                           eliminateTerm(C, F->eqRhs()));
  case Formula::Kind::Not:
    return BvFormula::mkNot(eliminateStores(C, F->sub()));
  case Formula::Kind::And:
    return BvFormula::mkAnd(eliminateStores(C, F->lhs()),
                            eliminateStores(C, F->rhs()));
  case Formula::Kind::Or:
    return BvFormula::mkOr(eliminateStores(C, F->lhs()),
                           eliminateStores(C, F->rhs()));
  case Formula::Kind::Implies:
    return BvFormula::mkImplies(eliminateStores(C, F->lhs()),
                                eliminateStores(C, F->rhs()));
  }
  assert(false && "unknown formula kind");
  return nullptr;
}
