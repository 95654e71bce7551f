//===- BvFormula.cpp - First-order bitvector logic FOL(BV) ----------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/BvFormula.h"

#include <algorithm>

using namespace leapfrog;
using namespace leapfrog::smt;

//===----------------------------------------------------------------------===//
// Terms
//===----------------------------------------------------------------------===//

BvTermRef BvTerm::mkVar(std::string Name, size_t Width) {
  assert(Width > 0 && "zero-width variable");
  auto T = std::make_shared<BvTerm>(Token{});
  T->K = Kind::Var;
  T->Width = Width;
  T->Name = std::move(Name);
  return T;
}

BvTermRef BvTerm::mkConst(Bitvector Value) {
  auto T = std::make_shared<BvTerm>(Token{});
  T->K = Kind::Const;
  T->Width = Value.size();
  T->Value = std::move(Value);
  return T;
}

BvTermRef BvTerm::mkConcat(BvTermRef Lhs, BvTermRef Rhs) {
  assert(Lhs && Rhs && "concat of null term");
  // Zero-width identities.
  if (Lhs->width() == 0)
    return Rhs;
  if (Rhs->width() == 0)
    return Lhs;
  // Constant folding (paper §6.2: smart constructors keep WP output small).
  if (Lhs->kind() == Kind::Const && Rhs->kind() == Kind::Const)
    return mkConst(Lhs->constValue().concat(Rhs->constValue()));
  auto T = std::make_shared<BvTerm>(Token{});
  T->K = Kind::Concat;
  T->Width = Lhs->width() + Rhs->width();
  T->L = std::move(Lhs);
  T->R = std::move(Rhs);
  return T;
}

BvTermRef BvTerm::mkExtract(BvTermRef Operand, size_t Lo, size_t Hi) {
  assert(Operand && "extract of null term");
  assert(Lo <= Hi && Hi < Operand->width() && "extract out of bounds");
  // Full-width extraction is the identity.
  if (Lo == 0 && Hi + 1 == Operand->width())
    return Operand;
  switch (Operand->kind()) {
  case Kind::Const:
    return mkConst(Operand->constValue().extract(Lo, Hi + 1));
  case Kind::Extract:
    // (t[a:b])[lo:hi] = t[a+lo : a+hi].
    return mkExtract(Operand->extractOperand(), Operand->extractLo() + Lo,
                     Operand->extractLo() + Hi);
  case Kind::Concat: {
    size_t LW = Operand->lhs()->width();
    if (Hi < LW)
      return mkExtract(Operand->lhs(), Lo, Hi);
    if (Lo >= LW)
      return mkExtract(Operand->rhs(), Lo - LW, Hi - LW);
    return mkConcat(mkExtract(Operand->lhs(), Lo, LW - 1),
                    mkExtract(Operand->rhs(), 0, Hi - LW));
  }
  case Kind::Var:
    break;
  }
  auto T = std::make_shared<BvTerm>(Token{});
  T->K = Kind::Extract;
  T->Width = Hi - Lo + 1;
  T->L = std::move(Operand);
  T->Lo = Lo;
  T->Hi = Hi;
  return T;
}

void BvTerm::appendTo(std::string &Out) const {
  switch (K) {
  case Kind::Var:
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

std::string BvTerm::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Formulas
//===----------------------------------------------------------------------===//

BvFormulaRef BvFormula::mkTrue() {
  auto F = std::make_shared<BvFormula>(Token{});
  F->K = Kind::True;
  return F;
}

BvFormulaRef BvFormula::mkFalse() {
  auto F = std::make_shared<BvFormula>(Token{});
  F->K = Kind::False;
  return F;
}

BvFormulaRef BvFormula::mkEq(BvTermRef Lhs, BvTermRef Rhs) {
  assert(Lhs && Rhs && "equality over null term");
  assert(Lhs->width() == Rhs->width() && "equality width mismatch");
  if (Lhs->width() == 0)
    return mkTrue();
  if (Lhs->kind() == BvTerm::Kind::Const &&
      Rhs->kind() == BvTerm::Kind::Const)
    return Lhs->constValue() == Rhs->constValue() ? mkTrue() : mkFalse();
  auto F = std::make_shared<BvFormula>(Token{});
  F->K = Kind::Eq;
  F->TL = std::move(Lhs);
  F->TR = std::move(Rhs);
  return F;
}

BvFormulaRef BvFormula::mkNot(BvFormulaRef Sub) {
  assert(Sub && "negation of null formula");
  if (Sub->kind() == Kind::True)
    return mkFalse();
  if (Sub->kind() == Kind::False)
    return mkTrue();
  if (Sub->kind() == Kind::Not)
    return Sub->sub();
  auto F = std::make_shared<BvFormula>(Token{});
  F->K = Kind::Not;
  F->FL = std::move(Sub);
  return F;
}

BvFormulaRef BvFormula::mkAnd(BvFormulaRef L, BvFormulaRef R) {
  assert(L && R && "conjunction of null formula");
  if (L->kind() == Kind::False || R->kind() == Kind::False)
    return mkFalse();
  if (L->kind() == Kind::True)
    return R;
  if (R->kind() == Kind::True)
    return L;
  auto F = std::make_shared<BvFormula>(Token{});
  F->K = Kind::And;
  F->FL = std::move(L);
  F->FR = std::move(R);
  return F;
}

BvFormulaRef BvFormula::mkOr(BvFormulaRef L, BvFormulaRef R) {
  assert(L && R && "disjunction of null formula");
  if (L->kind() == Kind::True || R->kind() == Kind::True)
    return mkTrue();
  if (L->kind() == Kind::False)
    return R;
  if (R->kind() == Kind::False)
    return L;
  auto F = std::make_shared<BvFormula>(Token{});
  F->K = Kind::Or;
  F->FL = std::move(L);
  F->FR = std::move(R);
  return F;
}

BvFormulaRef BvFormula::mkImplies(BvFormulaRef L, BvFormulaRef R) {
  assert(L && R && "implication of null formula");
  if (L->kind() == Kind::False || R->kind() == Kind::True)
    return mkTrue();
  if (L->kind() == Kind::True)
    return R;
  if (R->kind() == Kind::False)
    return mkNot(std::move(L));
  auto F = std::make_shared<BvFormula>(Token{});
  F->K = Kind::Implies;
  F->FL = std::move(L);
  F->FR = std::move(R);
  return F;
}

BvFormulaRef BvFormula::mkAndAll(const std::vector<BvFormulaRef> &Fs) {
  BvFormulaRef Acc = mkTrue();
  for (const BvFormulaRef &F : Fs)
    Acc = mkAnd(Acc, F);
  return Acc;
}

BvFormulaRef BvFormula::mkOrAll(const std::vector<BvFormulaRef> &Fs) {
  BvFormulaRef Acc = mkFalse();
  for (const BvFormulaRef &F : Fs)
    Acc = mkOr(Acc, F);
  return Acc;
}

void BvFormula::appendTo(std::string &Out) const {
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

std::string BvFormula::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Traversal and evaluation
//===----------------------------------------------------------------------===//

namespace {

void collectTermVars(const BvTermRef &T,
                     std::vector<std::pair<std::string, size_t>> &Vars) {
  switch (T->kind()) {
  case BvTerm::Kind::Var: {
    for (auto &[Name, Width] : Vars)
      if (Name == T->varName()) {
        assert(Width == T->width() && "variable used at two widths");
        (void)Width;
        return;
      }
    Vars.emplace_back(T->varName(), T->width());
    return;
  }
  case BvTerm::Kind::Const:
    return;
  case BvTerm::Kind::Concat:
    collectTermVars(T->lhs(), Vars);
    collectTermVars(T->rhs(), Vars);
    return;
  case BvTerm::Kind::Extract:
    collectTermVars(T->extractOperand(), Vars);
    return;
  }
}

void collectFormulaVars(const BvFormulaRef &F,
                        std::vector<std::pair<std::string, size_t>> &Vars) {
  switch (F->kind()) {
  case BvFormula::Kind::True:
  case BvFormula::Kind::False:
    return;
  case BvFormula::Kind::Eq:
    collectTermVars(F->eqLhs(), Vars);
    collectTermVars(F->eqRhs(), Vars);
    return;
  case BvFormula::Kind::Not:
    collectFormulaVars(F->sub(), Vars);
    return;
  case BvFormula::Kind::And:
  case BvFormula::Kind::Or:
  case BvFormula::Kind::Implies:
    collectFormulaVars(F->lhs(), Vars);
    collectFormulaVars(F->rhs(), Vars);
    return;
  }
}

} // namespace

std::vector<std::pair<std::string, size_t>>
smt::collectVars(const BvFormulaRef &F) {
  std::vector<std::pair<std::string, size_t>> Vars;
  collectFormulaVars(F, Vars);
  return Vars;
}

Bitvector smt::evalTerm(
    const BvTermRef &T,
    const std::vector<std::pair<std::string, Bitvector>> &Assignment) {
  switch (T->kind()) {
  case BvTerm::Kind::Var: {
    for (const auto &[Name, Value] : Assignment)
      if (Name == T->varName()) {
        assert(Value.size() == T->width() && "assignment width mismatch");
        return Value;
      }
    assert(false && "unassigned variable in evalTerm");
    return Bitvector();
  }
  case BvTerm::Kind::Const:
    return T->constValue();
  case BvTerm::Kind::Concat:
    return evalTerm(T->lhs(), Assignment)
        .concat(evalTerm(T->rhs(), Assignment));
  case BvTerm::Kind::Extract:
    return evalTerm(T->extractOperand(), Assignment)
        .extract(T->extractLo(), T->extractHi() + 1);
  }
  assert(false && "unknown term kind");
  return Bitvector();
}

bool smt::evalFormula(
    const BvFormulaRef &F,
    const std::vector<std::pair<std::string, Bitvector>> &Assignment) {
  switch (F->kind()) {
  case BvFormula::Kind::True:
    return true;
  case BvFormula::Kind::False:
    return false;
  case BvFormula::Kind::Eq:
    return evalTerm(F->eqLhs(), Assignment) ==
           evalTerm(F->eqRhs(), Assignment);
  case BvFormula::Kind::Not:
    return !evalFormula(F->sub(), Assignment);
  case BvFormula::Kind::And:
    return evalFormula(F->lhs(), Assignment) &&
           evalFormula(F->rhs(), Assignment);
  case BvFormula::Kind::Or:
    return evalFormula(F->lhs(), Assignment) ||
           evalFormula(F->rhs(), Assignment);
  case BvFormula::Kind::Implies:
    return !evalFormula(F->lhs(), Assignment) ||
           evalFormula(F->rhs(), Assignment);
  }
  assert(false && "unknown formula kind");
  return false;
}
