//===- FolConf.h - First-order logic over configurations --------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FOL(Conf), the intermediate logic of the paper's compilation chain
/// (Figure 6): the first-order theory of bitvectors *and finite maps*.
/// Terms may select a header out of a store treated as a finite map
/// (`store<(h)`), while buffers and the rigid variables of weakest
/// preconditions appear as plain bitvector variables. State and
/// buffer-length assertions have already been compiled away by this point
/// (they are resolved by template filtering), and every slice has been
/// exactified — widths are static here, unlike ConfRel's clamped slices.
///
/// The store-elimination pass (eliminateStores) completes the chain by
/// turning each finite-map selection into a first-order bitvector
/// variable, producing FOL(BV), "necessary because some SMT solvers we
/// targeted do not support the theory of finite maps" (§6.2).
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_LOGIC_FOLCONF_H
#define LEAPFROG_LOGIC_FOLCONF_H

#include "logic/ConfRel.h"
#include "smt/BvFormula.h"

#include <memory>

namespace leapfrog {
namespace logic {
namespace folconf {

class Term;
using TermRef = std::shared_ptr<const Term>;

/// A FOL(Conf) term with static width.
class Term {
  /// Passkey: only the smart constructors can name it, so they stay the
  /// only way to create a node, while std::make_shared can still reach
  /// the constructor and place node and control block in one allocation.
  struct Token {
    explicit Token() = default;
  };

public:
  enum class Kind { StoreSelect, BufVar, RigidVar, Const, Concat, Extract };

  explicit Term(Token) {}

  Kind kind() const { return K; }
  size_t width() const { return Width; }

  Side side() const {
    assert((K == Kind::StoreSelect || K == Kind::BufVar) &&
           "term has no side");
    return S;
  }
  p4a::HeaderId header() const {
    assert(K == Kind::StoreSelect && "not a store selection");
    return Hdr;
  }
  const std::string &rigidName() const {
    assert(K == Kind::RigidVar && "not a rigid variable");
    return Name;
  }
  const Bitvector &constValue() const {
    assert(K == Kind::Const && "not a constant");
    return Value;
  }
  const TermRef &lhs() const {
    assert(K == Kind::Concat && "not a concat");
    return L;
  }
  const TermRef &rhs() const {
    assert(K == Kind::Concat && "not a concat");
    return R;
  }
  const TermRef &extractOperand() const {
    assert(K == Kind::Extract && "not an extract");
    return L;
  }
  size_t extractLo() const {
    assert(K == Kind::Extract && "not an extract");
    return Lo;
  }
  size_t extractHi() const {
    assert(K == Kind::Extract && "not an extract");
    return Hi;
  }

  /// store≶(h): selection of header \p H from the side-\p S store.
  static TermRef mkStoreSelect(Side S, p4a::HeaderId H, size_t Width);
  static TermRef mkBufVar(Side S, size_t Width);
  static TermRef mkRigidVar(std::string Name, size_t Width);
  static TermRef mkConst(Bitvector Value);
  static TermRef mkConcat(TermRef L, TermRef R);
  /// Exact inclusive extraction; asserts in-bounds (widths are static in
  /// FOL(Conf), unlike ConfRel's clamped slices).
  static TermRef mkExtract(TermRef Operand, size_t Lo, size_t Hi);

  /// The printer: appends the rendering to \p Out; str() wraps it.
  void appendTo(std::string &Out) const;
  std::string str() const;

private:
  Kind K = Kind::Const;
  size_t Width = 0;
  Side S = Side::Left;
  p4a::HeaderId Hdr = 0;
  std::string Name;
  Bitvector Value;
  TermRef L, R;
  size_t Lo = 0, Hi = 0;
};

class Formula;
using FormulaRef = std::shared_ptr<const Formula>;

/// A FOL(Conf) formula: boolean structure over term equalities.
class Formula {
  /// Passkey, as for Term.
  struct Token {
    explicit Token() = default;
  };

public:
  enum class Kind { True, False, Eq, Not, And, Or, Implies };

  explicit Formula(Token) {}

  Kind kind() const { return K; }

  const TermRef &eqLhs() const {
    assert(K == Kind::Eq && "not an equality");
    return TL;
  }
  const TermRef &eqRhs() const {
    assert(K == Kind::Eq && "not an equality");
    return TR;
  }
  const FormulaRef &sub() const {
    assert(K == Kind::Not && "not a negation");
    return FL;
  }
  const FormulaRef &lhs() const {
    assert((K == Kind::And || K == Kind::Or || K == Kind::Implies) &&
           "not a binary connective");
    return FL;
  }
  const FormulaRef &rhs() const {
    assert((K == Kind::And || K == Kind::Or || K == Kind::Implies) &&
           "not a binary connective");
    return FR;
  }

  static FormulaRef mkTrue();
  static FormulaRef mkFalse();
  static FormulaRef mkEq(TermRef L, TermRef R);
  static FormulaRef mkNot(FormulaRef F);
  static FormulaRef mkAnd(FormulaRef L, FormulaRef R);
  static FormulaRef mkOr(FormulaRef L, FormulaRef R);
  static FormulaRef mkImplies(FormulaRef L, FormulaRef R);

  /// The printer: appends the rendering to \p Out; str() wraps it.
  void appendTo(std::string &Out) const;
  std::string str() const;

private:
  Kind K = Kind::True;
  TermRef TL, TR;
  FormulaRef FL, FR;
};

/// ConfRelSimp → FOL(Conf): embeds a pure formula interpreted under \p C
/// into FOL(Conf), resolving buffer widths from the guard and exactifying
/// every clamped slice. This is the "FOL compilation" step of §6.2.
FormulaRef fromPure(const Ctx &C, const PureRef &F);

/// FOL(Conf) → FOL(BV): eliminates finite maps by naming each store
/// selection as a first-order bitvector variable ("h<name" / "h>name"),
/// and buffers as "buf<" / "buf>" (§6.2 store elimination). \p C supplies
/// header names for readable variable names.
smt::BvFormulaRef eliminateStores(const Ctx &C, const FormulaRef &F);

} // namespace folconf
} // namespace logic
} // namespace leapfrog

#endif // LEAPFROG_LOGIC_FOLCONF_H
