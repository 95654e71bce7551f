//===- BvFormula.h - First-order bitvector logic FOL(BV) --------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The low-level logic FOL(BV) at the bottom of the paper's compilation
/// chain (Figure 6): quantifier-free first-order formulas over fixed-width
/// bitvector terms built from variables, constants, concatenation and
/// extraction. Validity of the universally-closed formula is decided by
/// bit-blasting (BitBlast.h) — the role Z3/CVC4/Boolector play in the
/// paper — and formulas can be pretty-printed to SMT-LIB2 (SmtLib.h),
/// mirroring the paper's Coq plugin.
///
/// Bit index 0 of a term is its first (most significant / earliest on the
/// wire) bit, consistent with Bitvector and the paper's slice notation.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SMT_BVFORMULA_H
#define LEAPFROG_SMT_BVFORMULA_H

#include "support/Bitvector.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace leapfrog {
namespace smt {

class BvTerm;
using BvTermRef = std::shared_ptr<const BvTerm>;

/// A fixed-width bitvector term.
class BvTerm {
  /// Passkey: only the smart constructors can name it, so they stay the
  /// only way to create a node, while std::make_shared can still reach
  /// the constructor and place node and control block in one allocation.
  struct Token {
    explicit Token() = default;
  };

public:
  enum class Kind { Var, Const, Concat, Extract };

  explicit BvTerm(Token) {}

  Kind kind() const { return K; }
  size_t width() const { return Width; }

  const std::string &varName() const {
    assert(K == Kind::Var && "not a variable");
    return Name;
  }
  const Bitvector &constValue() const {
    assert(K == Kind::Const && "not a constant");
    return Value;
  }
  const BvTermRef &lhs() const {
    assert(K == Kind::Concat && "not a concat");
    return L;
  }
  const BvTermRef &rhs() const {
    assert(K == Kind::Concat && "not a concat");
    return R;
  }
  const BvTermRef &extractOperand() const {
    assert(K == Kind::Extract && "not an extract");
    return L;
  }
  /// Inclusive bounds on the MSB-first index (0 = first bit).
  size_t extractLo() const {
    assert(K == Kind::Extract && "not an extract");
    return Lo;
  }
  size_t extractHi() const {
    assert(K == Kind::Extract && "not an extract");
    return Hi;
  }

  /// Free variable of \p Width bits named \p Name. Equal names must be used
  /// at equal widths within one formula.
  static BvTermRef mkVar(std::string Name, size_t Width);
  static BvTermRef mkConst(Bitvector Value);
  /// lhs ++ rhs, lhs bits first. Folds adjacent constants.
  static BvTermRef mkConcat(BvTermRef Lhs, BvTermRef Rhs);
  /// Exact inclusive extraction [Lo, Hi] (asserts in-bounds). Folds
  /// extract-of-const, extract-of-extract, full-width extracts, and pushes
  /// extraction through concatenation.
  static BvTermRef mkExtract(BvTermRef Operand, size_t Lo, size_t Hi);

  /// The printer: appends the rendering ("x[3:7]", "(a ++ b)", "#b0101")
  /// to \p Out; str() wraps it.
  void appendTo(std::string &Out) const;
  std::string str() const;

private:
  Kind K = Kind::Const;
  size_t Width = 0;
  std::string Name;
  Bitvector Value;
  BvTermRef L, R;
  size_t Lo = 0, Hi = 0;
};

class BvFormula;
using BvFormulaRef = std::shared_ptr<const BvFormula>;

/// A quantifier-free formula over bitvector equalities.
class BvFormula {
  /// Passkey, as for BvTerm.
  struct Token {
    explicit Token() = default;
  };

public:
  enum class Kind { True, False, Eq, Not, And, Or, Implies };

  explicit BvFormula(Token) {}

  Kind kind() const { return K; }

  const BvTermRef &eqLhs() const {
    assert(K == Kind::Eq && "not an equality");
    return TL;
  }
  const BvTermRef &eqRhs() const {
    assert(K == Kind::Eq && "not an equality");
    return TR;
  }
  const BvFormulaRef &sub() const {
    assert(K == Kind::Not && "not a negation");
    return FL;
  }
  const BvFormulaRef &lhs() const {
    assert((K == Kind::And || K == Kind::Or || K == Kind::Implies) &&
           "not a binary connective");
    return FL;
  }
  const BvFormulaRef &rhs() const {
    assert((K == Kind::And || K == Kind::Or || K == Kind::Implies) &&
           "not a binary connective");
    return FR;
  }

  static BvFormulaRef mkTrue();
  static BvFormulaRef mkFalse();
  /// Equality; asserts equal widths. Folds constant comparisons.
  static BvFormulaRef mkEq(BvTermRef Lhs, BvTermRef Rhs);
  static BvFormulaRef mkNot(BvFormulaRef F);
  static BvFormulaRef mkAnd(BvFormulaRef L, BvFormulaRef R);
  static BvFormulaRef mkOr(BvFormulaRef L, BvFormulaRef R);
  static BvFormulaRef mkImplies(BvFormulaRef L, BvFormulaRef R);

  /// Conjunction / disjunction of a list (True / False when empty).
  static BvFormulaRef mkAndAll(const std::vector<BvFormulaRef> &Fs);
  static BvFormulaRef mkOrAll(const std::vector<BvFormulaRef> &Fs);

  /// The printer: appends the rendering to \p Out; str() wraps it. The
  /// solvers' premise dedup keys are this rendering.
  void appendTo(std::string &Out) const;
  std::string str() const;

private:
  Kind K = Kind::True;
  BvTermRef TL, TR;
  BvFormulaRef FL, FR;
};

/// Collects the free variables of \p F (name → width) in first-occurrence
/// order; asserts consistent widths.
std::vector<std::pair<std::string, size_t>>
collectVars(const BvFormulaRef &F);

/// Evaluates \p T under \p Assignment (name → value); used by tests and
/// model validation. Asserts all variables are assigned with right widths.
Bitvector
evalTerm(const BvTermRef &T,
         const std::vector<std::pair<std::string, Bitvector>> &Assignment);

/// Evaluates \p F under \p Assignment.
bool evalFormula(
    const BvFormulaRef &F,
    const std::vector<std::pair<std::string, Bitvector>> &Assignment);

} // namespace smt
} // namespace leapfrog

#endif // LEAPFROG_SMT_BVFORMULA_H
