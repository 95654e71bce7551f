//===- ConfRel.h - The configuration-relation logic -------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The high-level logic of relations on configuration pairs (paper §4.1,
/// Figure 3). Formulas talk about a *pair* of configurations — one from a
/// "left" automaton and one from a "right" automaton — via:
///
///   - bitvector expressions over the left/right buffers (buf<, buf>), the
///     left/right header variables (h<, h>), rigid variables x ∈ Var, plus
///     literals, slices and concatenation;
///   - atomic predicates: bitvector equality, state assertions (q<, q>),
///     and buffer-length assertions (n<, n>);
///   - boolean structure.
///
/// Following §4.3, the equivalence checker works exclusively with
/// *template-guarded* formulas  t1< ∧ t2> ⇒ ψ  where t = ⟨q, n⟩ is a
/// template (Definition 4.7) and ψ is *pure* (no state or buffer-length
/// assertions). We therefore represent the guard structurally — a
/// TemplatePair — and only the pure part as an AST. Purity means a
/// formula's buffer widths are fully determined by its guard, which is
/// what makes the slice/width bookkeeping tractable (§4.3).
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_LOGIC_CONFREL_H
#define LEAPFROG_LOGIC_CONFREL_H

#include "p4a/Semantics.h"
#include "support/Hashing.h"

#include <memory>
#include <string>
#include <vector>

namespace leapfrog {
namespace logic {

/// Which side of the configuration pair an expression refers to.
enum class Side { Left, Right };

inline const char *sideMark(Side S) { return S == Side::Left ? "<" : ">"; }

/// A template ⟨q, n⟩ (Definition 4.7): a state together with a buffer
/// length, with n < ||op(q)|| for user states and n = 0 for terminals.
struct Template {
  p4a::StateRef Q;
  size_t N = 0;

  static Template accept() { return Template{p4a::StateRef::accept(), 0}; }
  static Template reject() { return Template{p4a::StateRef::reject(), 0}; }

  bool isAccept() const { return Q.isAccept(); }

  bool operator==(const Template &O) const { return Q == O.Q && N == O.N; }
  bool operator!=(const Template &O) const { return !(*this == O); }
  bool operator<(const Template &O) const {
    if (!(Q == O.Q))
      return Q < O.Q;
    return N < O.N;
  }

  size_t hash() const { return hashAll(int(Q.K), Q.Id, N); }

  /// ⌊c⌋: the unique template describing configuration \p C (§5.1).
  static Template ofConfig(const p4a::Config &C) {
    return Template{C.Q, C.Buf.size()};
  }
};

/// A pair of templates, guarding one conjunct of the symbolic relation.
struct TemplatePair {
  Template L, R;

  bool operator==(const TemplatePair &O) const {
    return L == O.L && R == O.R;
  }
  bool operator!=(const TemplatePair &O) const { return !(*this == O); }
  bool operator<(const TemplatePair &O) const {
    if (L != O.L)
      return L < O.L;
    return R < O.R;
  }
  size_t hash() const { return hashAll(L.hash(), R.hash()); }
};

/// Hash adapter for keying unordered containers by TemplatePair.
struct TemplatePairHasher {
  size_t operator()(const TemplatePair &TP) const { return TP.hash(); }
};

class BitExpr;
using BitExprRef = std::shared_ptr<const BitExpr>;

/// The canonical-naming mode of the BitExpr/Pure printer: each rigid
/// variable prints as v<i>w<width>, where i numbers the distinct
/// variables in order of first occurrence in the printer's left-to-right
/// walk. Formulas are individually universally closed (Definition 4.3),
/// so α-equivalent formulas — the WP operator mints fresh variables on
/// every application — render identically in this mode; that is what
/// lets the checker's frontier deduplicate them (core/FrontierKey.h).
/// The width is part of the name because conjuncts of one entailment
/// share a namespace, so a name must never be reused at another width.
/// One instance numbers one rendering.
class CanonicalNaming {
public:
  /// Appends the canonical name of rigid variable \p Var to \p Out,
  /// numbering it if this is its first occurrence.
  void append(std::string &Out, const BitExpr &Var);

private:
  /// Names (borrowed from the rendered nodes) with their first widths,
  /// in first-occurrence order.
  std::vector<std::pair<const std::string *, size_t>> Seen;
};

/// A bitvector expression over a configuration pair (the `be` grammar of
/// Figure 3). Slices use the paper's clamped inclusive semantics, so the
/// width of an expression depends on the widths of buf< / buf>, i.e. on
/// the guard template pair; see widthUnder().
class BitExpr {
  /// Passkey: only the smart constructors can name it, so they stay the
  /// only way to create a node, while std::make_shared can still reach
  /// the constructor and place node and control block in one allocation.
  struct Token {
    explicit Token() = default;
  };

public:
  enum class Kind { Lit, Buf, Hdr, Var, Slice, Concat };

  explicit BitExpr(Token) {}

  Kind kind() const { return K; }

  const Bitvector &literal() const {
    assert(K == Kind::Lit && "not a literal");
    return Lit;
  }
  Side side() const {
    assert((K == Kind::Buf || K == Kind::Hdr) && "expression has no side");
    return S;
  }
  p4a::HeaderId header() const {
    assert(K == Kind::Hdr && "not a header");
    return Hdr;
  }
  const std::string &varName() const {
    assert(K == Kind::Var && "not a variable");
    return Name;
  }
  size_t varWidth() const {
    assert(K == Kind::Var && "not a variable");
    return VarW;
  }
  const BitExprRef &sliceOperand() const {
    assert(K == Kind::Slice && "not a slice");
    return A;
  }
  size_t sliceLo() const {
    assert(K == Kind::Slice && "not a slice");
    return Lo;
  }
  size_t sliceHi() const {
    assert(K == Kind::Slice && "not a slice");
    return Hi;
  }
  const BitExprRef &concatLhs() const {
    assert(K == Kind::Concat && "not a concat");
    return A;
  }
  const BitExprRef &concatRhs() const {
    assert(K == Kind::Concat && "not a concat");
    return B;
  }

  static BitExprRef mkLit(Bitvector BV);
  static BitExprRef mkBuf(Side S);
  static BitExprRef mkHdr(Side S, p4a::HeaderId H);
  /// Rigid variable (paper Var; generalized to arbitrary width so one leap
  /// variable can stand for several consecutive packet bits, §5.2).
  static BitExprRef mkVar(std::string Name, size_t Width);
  static BitExprRef mkSlice(BitExprRef E, size_t Lo, size_t Hi);
  static BitExprRef mkConcat(BitExprRef L, BitExprRef R);

  /// The printer: appends the rendering to \p Out, rigid variables under
  /// their own names, or canonically named by \p Canon when given.
  void appendTo(std::string &Out, CanonicalNaming *Canon = nullptr) const;
  std::string str() const;

private:
  Kind K = Kind::Lit;
  Bitvector Lit;
  Side S = Side::Left;
  p4a::HeaderId Hdr = 0;
  std::string Name;
  size_t VarW = 0;
  BitExprRef A, B;
  size_t Lo = 0, Hi = 0;
};

class Pure;
using PureRef = std::shared_ptr<const Pure>;

/// A pure formula: boolean structure over bitvector equalities, with no
/// state or buffer-length assertions (Definition 4.7). The paper derives
/// ∧/∨ from ⇒/⊥; we provide them as first-class constructors with the
/// same semantics.
class Pure {
  /// Passkey, as for BitExpr.
  struct Token {
    explicit Token() = default;
  };

public:
  enum class Kind { True, False, Eq, Not, And, Or, Implies };

  explicit Pure(Token) {}

  Kind kind() const { return K; }

  const BitExprRef &eqLhs() const {
    assert(K == Kind::Eq && "not an equality");
    return TL;
  }
  const BitExprRef &eqRhs() const {
    assert(K == Kind::Eq && "not an equality");
    return TR;
  }
  const PureRef &sub() const {
    assert(K == Kind::Not && "not a negation");
    return FL;
  }
  const PureRef &lhs() const {
    assert((K == Kind::And || K == Kind::Or || K == Kind::Implies) &&
           "not a binary connective");
    return FL;
  }
  const PureRef &rhs() const {
    assert((K == Kind::And || K == Kind::Or || K == Kind::Implies) &&
           "not a binary connective");
    return FR;
  }

  static PureRef mkTrue();
  static PureRef mkFalse();
  static PureRef mkEq(BitExprRef L, BitExprRef R);
  static PureRef mkNot(PureRef F);
  static PureRef mkAnd(PureRef L, PureRef R);
  static PureRef mkOr(PureRef L, PureRef R);
  static PureRef mkImplies(PureRef L, PureRef R);
  static PureRef mkAndAll(const std::vector<PureRef> &Fs);
  static PureRef mkOrAll(const std::vector<PureRef> &Fs);

  /// The printer (see BitExpr::appendTo); str() and the frontier keys of
  /// core/FrontierKey.h both render through it.
  void appendTo(std::string &Out, CanonicalNaming *Canon = nullptr) const;
  std::string str() const;

  /// Structural size (node count), used to report formula growth in the
  /// benchmark harness (§6.2 motivates the smart constructors with it).
  size_t size() const;

private:
  Kind K = Kind::True;
  BitExprRef TL, TR;
  PureRef FL, FR;
};

/// A template-guarded formula t1< ∧ t2> ⇒ ψ — `conf_rel` in the paper's
/// Coq development (Table 1). The conjunction of a set of these is the
/// checker's symbolic relation.
struct GuardedFormula {
  TemplatePair TP;
  PureRef Phi;

  std::string str(const p4a::Automaton &Left,
                  const p4a::Automaton &Right) const;
};

/// Everything needed to interpret a pure formula: the two automata and the
/// guard fixing buffer widths.
struct Ctx {
  const p4a::Automaton *Left = nullptr;
  const p4a::Automaton *Right = nullptr;
  TemplatePair TP;

  const p4a::Automaton &aut(Side S) const {
    return S == Side::Left ? *Left : *Right;
  }
  size_t bufWidth(Side S) const {
    return S == Side::Left ? TP.L.N : TP.R.N;
  }
};

/// Width of \p E under \p C (clamped slice semantics; see Definition 3.1).
/// Precondition: every header mentioned by \p E exists in its side's
/// automaton in \p C. O(|E|).
size_t widthUnder(const Ctx &C, const BitExprRef &E);

/// A valuation σ : Var → bitvectors (Definition 4.3, generalized to
/// multi-bit rigid variables).
using Valuation = std::vector<std::pair<std::string, Bitvector>>;

/// Concrete semantics ⟦be⟧σ_B(c<, c>) (Definition 4.3). Used by the test
/// oracle; the checker itself stays symbolic.
Bitvector evalBitExpr(const Ctx &C, const BitExprRef &E,
                      const p4a::Config &CL, const p4a::Config &CR,
                      const Valuation &Sigma);

/// Concrete semantics of a pure formula on a configuration pair.
bool evalPure(const Ctx &C, const PureRef &F, const p4a::Config &CL,
              const p4a::Config &CR, const Valuation &Sigma);

/// True iff ⟨CL, CR⟩ ∈ ⟦G⟧ for all valuations of the rigid variables in G.
/// Enumerates all 2^b valuations for b total rigid-variable bits — a test
/// oracle only, asserting b is small; the checker itself never calls this.
bool holdsConcretely(const p4a::Automaton &Left, const p4a::Automaton &Right,
                     const GuardedFormula &G, const p4a::Config &CL,
                     const p4a::Config &CR);

/// Per-side substitution for weakest preconditions: what to replace this
/// side's buffer and each of its headers with.
struct SideSubst {
  BitExprRef Buf;                   ///< Replacement for buf on this side.
  std::vector<BitExprRef> Headers;  ///< Replacement per HeaderId.
};

/// Capture-free substitution of both sides' buffers and headers in \p F.
/// Rigid variables are untouched. \p LeftS / \p RightS must cover every
/// header of the respective automaton (indexed by HeaderId); replacement
/// expressions must have the width of what they replace under the target
/// guard, or downstream lowering asserts. Runs in O(|F|) node visits;
/// unchanged subtrees are shared, not copied.
PureRef substitute(const PureRef &F, const SideSubst &LeftS,
                   const SideSubst &RightS);

/// ctx-aware smart slice: clamps bounds, folds slice-of-slice,
/// slice-of-concat, slice-of-literal and full-width slices (the §6.2
/// "algebraic simplifications" that keep WP output small).
BitExprRef mkSliceS(const Ctx &C, BitExprRef E, size_t Lo, size_t Hi);

/// ctx-aware smart concat: drops ε operands and folds literals.
BitExprRef mkConcatS(const Ctx &C, BitExprRef L, BitExprRef R);

/// Collects the rigid variables of \p F (name → width, first-occurrence
/// order — the order in which the printer meets them).
std::vector<std::pair<std::string, size_t>> collectRigidVars(const PureRef &F);

} // namespace logic
} // namespace leapfrog

#endif // LEAPFROG_LOGIC_CONFREL_H
