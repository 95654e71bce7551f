//===- BitBlast.cpp - FOL(BV) to CNF translation --------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/BitBlast.h"

using namespace leapfrog;
using namespace leapfrog::smt;

Lit BitBlaster::freshLit() { return Lit::mk(Solver.newVar(), false); }

void BitBlaster::emitClause() {
  if (GuardActive)
    Clause.push_back(~GuardLit);
  Solver.addClause(Clause.data(), Clause.size());
}

void BitBlaster::pushGuard(Lit Guard) {
  assert(!GuardActive && "guarded scopes do not nest");
  GuardActive = true;
  GuardLit = Guard;
  ScopedFormulas.clear();
  ScopedRootsFrom = PinnedRoots.size();
}

size_t BitBlaster::popGuardAndEvict() {
  assert(GuardActive && "no guarded scope to pop");
  GuardActive = false;
  GuardLit = Lit::undef();
  size_t Evicted =
      ScopedFormulas.size() + (PinnedRoots.size() - ScopedRootsFrom);
  for (const BvFormula *F : ScopedFormulas)
    FormulaCache.erase(F);
  ScopedFormulas.clear();
  // The scope's roots were only pinned to keep the evicted cache keys
  // from aliasing freed nodes; with the entries gone they can be
  // released.
  PinnedRoots.resize(ScopedRootsFrom);
  return Evicted;
}

Lit BitBlaster::trueLit() {
  if (TrueL == Lit::undef()) {
    TrueL = freshLit();
    Solver.addClause(TrueL);
  }
  return TrueL;
}

const std::vector<Var> &BitBlaster::varBits(const BvTerm &V) {
  // A variable is allocated whole on first sight, so SAT numbering only
  // depends on the order in which variables are first met.
  auto [It, Inserted] = VarBits.try_emplace(V.varName());
  if (Inserted) {
    It->second.resize(V.width());
    Var First = Solver.newVars(V.width());
    for (size_t I = 0; I < V.width(); ++I)
      It->second[I] = First + Var(I);
  }
  assert(It->second.size() == V.width() && "variable used at two widths");
  return It->second;
}

void BitBlaster::blastTerm(const BvTerm &T, std::vector<BBit> &Out) {
  switch (T.kind()) {
  case BvTerm::Kind::Var:
    for (Var V : varBits(T))
      Out.push_back(BBit::mkLit(Lit::mk(V, false)));
    return;
  case BvTerm::Kind::Const:
    for (size_t I = 0; I < T.width(); ++I)
      Out.push_back(BBit::mkConst(T.constValue().bit(I)));
    return;
  case BvTerm::Kind::Concat:
    blastTerm(*T.lhs(), Out);
    blastTerm(*T.rhs(), Out);
    return;
  case BvTerm::Kind::Extract: {
    const BvTerm &Op = *T.extractOperand();
    assert(Op.kind() == BvTerm::Kind::Var &&
           "mkExtract folds every extraction onto a variable");
    const std::vector<Var> &Bits = varBits(Op);
    for (size_t I = T.extractLo(); I <= T.extractHi(); ++I)
      Out.push_back(BBit::mkLit(Lit::mk(Bits[I], false)));
    return;
  }
  }
}

void BitBlaster::blastEqSides(const BvFormula &F) {
  LhsBits.clear();
  RhsBits.clear();
  blastTerm(*F.eqLhs(), LhsBits);
  blastTerm(*F.eqRhs(), RhsBits);
  assert(LhsBits.size() == F.eqLhs()->width() &&
         RhsBits.size() == LhsBits.size() && "equality width mismatch");
}

Lit BitBlaster::blastFormula(const BvFormulaRef &F) {
  auto Cached = FormulaCache.find(F.get());
  if (Cached != FormulaCache.end())
    return Cached->second;

  Lit Result = Lit::undef();
  switch (F->kind()) {
  case BvFormula::Kind::True:
    Result = trueLit();
    break;
  case BvFormula::Kind::False:
    Result = ~trueLit();
    break;
  case BvFormula::Kind::Eq: {
    blastEqSides(*F);
    const std::vector<BBit> &L = LhsBits, &R = RhsBits;
    // G <-> AND_i (L_i <-> R_i). Constant bits fold.
    PerBit.clear();
    bool KnownFalse = false;
    for (size_t I = 0; I < L.size() && !KnownFalse; ++I) {
      const BBit &A = L[I], &B = R[I];
      if (!A.IsConst && !B.IsConst && A.L == B.L)
        continue; // Same literal on both sides: trivially equal.
      if (A.IsConst && B.IsConst) {
        if (A.ConstVal != B.ConstVal)
          KnownFalse = true;
        continue;
      }
      if (A.IsConst || B.IsConst) {
        // One side fixed: the equivalence is a literal (possibly negated).
        const BBit &C = A.IsConst ? A : B;
        const BBit &V = A.IsConst ? B : A;
        PerBit.push_back(C.ConstVal ? V.L : ~V.L);
        continue;
      }
      // Both symbolic: E <-> (A <-> B).
      Lit E = freshLit();
      emit({~E, ~A.L, B.L});
      emit({~E, A.L, ~B.L});
      emit({E, A.L, B.L});
      emit({E, ~A.L, ~B.L});
      PerBit.push_back(E);
    }
    if (KnownFalse) {
      Result = ~trueLit();
      break;
    }
    if (PerBit.empty()) {
      Result = trueLit();
      break;
    }
    if (PerBit.size() == 1) {
      Result = PerBit[0];
      break;
    }
    Lit G = freshLit();
    for (Lit E : PerBit)
      emit({~G, E});
    Clause.assign(1, G);
    for (Lit E : PerBit)
      Clause.push_back(~E);
    emitClause();
    Result = G;
    break;
  }
  case BvFormula::Kind::Not:
    Result = ~blastFormula(F->sub());
    break;
  case BvFormula::Kind::And: {
    Lit A = blastFormula(F->lhs());
    Lit B = blastFormula(F->rhs());
    Lit G = freshLit();
    emit({~G, A});
    emit({~G, B});
    emit({G, ~A, ~B});
    Result = G;
    break;
  }
  case BvFormula::Kind::Or: {
    Lit A = blastFormula(F->lhs());
    Lit B = blastFormula(F->rhs());
    Lit G = freshLit();
    emit({G, ~A});
    emit({G, ~B});
    emit({~G, A, B});
    Result = G;
    break;
  }
  case BvFormula::Kind::Implies: {
    Lit A = blastFormula(F->lhs());
    Lit B = blastFormula(F->rhs());
    Lit G = freshLit();
    emit({G, A});
    emit({G, ~B});
    emit({~G, ~A, B});
    Result = G;
    break;
  }
  }
  FormulaCache.emplace(F.get(), Result);
  if (GuardActive)
    ScopedFormulas.push_back(F.get());
  return Result;
}

Lit BitBlaster::litFor(const BvFormulaRef &F) {
  PinnedRoots.push_back(F);
  return blastFormula(F);
}

void BitBlaster::assertFormula(const BvFormulaRef &F) {
  PinnedRoots.push_back(F);
  switch (F->kind()) {
  case BvFormula::Kind::True:
    return;
  case BvFormula::Kind::False:
    emit({}); // Empty clause (or the guard's negation).
    return;
  case BvFormula::Kind::And:
    assertFormula(F->lhs());
    assertFormula(F->rhs());
    return;
  case BvFormula::Kind::Eq: {
    // Direct clausal encoding, two binary clauses per symbolic bit pair.
    blastEqSides(*F);
    const std::vector<BBit> &L = LhsBits, &R = RhsBits;
    for (size_t I = 0; I < L.size(); ++I) {
      const BBit &A = L[I], &B = R[I];
      if (A.IsConst && B.IsConst) {
        if (A.ConstVal != B.ConstVal)
          emit({});
        continue;
      }
      if (A.IsConst || B.IsConst) {
        const BBit &C = A.IsConst ? A : B;
        const BBit &V = A.IsConst ? B : A;
        emit({C.ConstVal ? V.L : ~V.L});
        continue;
      }
      emit({~A.L, B.L});
      emit({A.L, ~B.L});
    }
    return;
  }
  case BvFormula::Kind::Not:
  case BvFormula::Kind::Or:
  case BvFormula::Kind::Implies:
    emit({blastFormula(F)});
    return;
  }
}

Bitvector BitBlaster::modelValue(const std::string &Name, size_t Width) {
  Bitvector Value(Width);
  auto It = VarBits.find(Name);
  if (It == VarBits.end())
    return Value; // Never constrained: any value works; report zero.
  assert(It->second.size() == Width && "variable used at two widths");
  for (size_t I = 0; I < Width; ++I)
    Value.setBit(I, Solver.modelValue(It->second[I]));
  return Value;
}
