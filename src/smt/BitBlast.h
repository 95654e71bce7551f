//===- BitBlast.h - FOL(BV) to CNF translation ------------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tseitin-style bit-blasting of FOL(BV) formulas into CNF for the CDCL
/// solver. Together with Sat.h this forms the in-repo replacement for the
/// external SMT solvers of paper §6.3: the Leapfrog verification
/// conditions fall in the quantifier-free theory of bitvectors restricted
/// to concatenation, extraction and equality, so bit-blasting yields CNF
/// whose structure is dominated by bit-equivalence chains.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SMT_BITBLAST_H
#define LEAPFROG_SMT_BITBLAST_H

#include "smt/BvFormula.h"
#include "smt/Sat.h"

#include <initializer_list>
#include <unordered_map>

namespace leapfrog {
namespace smt {

/// Translates formulas into a SatSolver instance, sharing variable
/// encodings across multiple assertions, and reads models back.
class BitBlaster {
public:
  explicit BitBlaster(SatSolver &Solver) : Solver(Solver) {}

  /// Asserts that \p F holds. Uses polarity-aware encoding for the common
  /// shapes (top-level conjunction, positive/negative equalities) and full
  /// Tseitin for the rest.
  void assertFormula(const BvFormulaRef &F);

  /// Blasts \p F to a literal equivalent to it (full Tseitin) *without*
  /// asserting it. The definition clauses added are polarity-neutral
  /// equivalences over fresh variables, so they never constrain the
  /// original variables; incremental sessions use this to guard a query
  /// behind an activation literal (addClause(~act, litFor(F)) asserts
  /// act → F, solved under the assumption act).
  Lit litFor(const BvFormulaRef &F);

  /// Reads the value of variable \p Name (of \p Width bits) from the SAT
  /// model; bits never mentioned in any assertion are reported as 0.
  /// Valid only after SatSolver::solve() returned true.
  Bitvector modelValue(const std::string &Name, size_t Width);

  /// Opens a guarded scope: until popGuardAndEvict(), every clause the
  /// blaster emits is weakened with ~Guard, so the whole blast asserts
  /// Guard → (encoding) and becomes permanently satisfied — and hard-
  /// deletable via SatSolver::simplify() — once ~Guard is asserted.
  /// Incremental sessions wrap each goal query in such a scope.
  ///
  /// Cache discipline: FormulaCache entries added during the scope encode
  /// definitions *conditional on Guard*, so they (and the roots pinned
  /// for them) are evicted when the scope pops; entries created outside
  /// any scope persist. Variable bits persist either way — they carry no
  /// defining clauses and must stay stable for model reconstruction.
  /// Terms emit no clauses and are not cached. Scopes do not nest.
  void pushGuard(Lit Guard);

  /// Ends the guarded scope and evicts its cache entries; returns how
  /// many entries (formulas + pinned roots) were dropped.
  size_t popGuardAndEvict();

private:
  /// One bit of a blasted term: either a known constant or a SAT literal.
  struct BBit {
    bool IsConst = false;
    bool ConstVal = false;
    Lit L = Lit::undef();

    static BBit mkConst(bool V) { return BBit{true, V, Lit::undef()}; }
    static BBit mkLit(Lit L) { return BBit{false, false, L}; }
  };

  /// Appends the bits of \p T to \p Out: one VarBits lookup per variable
  /// occurrence, and an Extract copies only its slice.
  void blastTerm(const BvTerm &T, std::vector<BBit> &Out);
  void blastEqSides(const BvFormula &F); ///< Into LhsBits / RhsBits.
  const std::vector<Var> &varBits(const BvTerm &V);
  Lit blastFormula(const BvFormulaRef &F);
  Lit freshLit();

  /// All clause emission funnels through here so an active guard can be
  /// appended uniformly. trueLit() bypasses it: TrueL is a blaster-wide
  /// cache, so its defining unit must hold unconditionally.
  void emit(std::initializer_list<Lit> C) {
    Clause.assign(C);
    emitClause();
  }
  /// Emits the clause built in Clause (plus the guard, if any).
  void emitClause();

  /// Literal asserted true at level 0 (created lazily) so constants can be
  /// uniformly represented as literals when Tseitin needs them.
  Lit trueLit();

  SatSolver &Solver;
  std::unordered_map<std::string, std::vector<Var>> VarBits;
  std::unordered_map<const BvFormula *, Lit> FormulaCache;
  /// Scratch for the sides of the equality being encoded (a leaf of the
  /// formula recursion, so one pair suffices).
  std::vector<BBit> LhsBits, RhsBits;
  /// Scratch for an equality's per-bit literals (same leaf discipline).
  std::vector<Lit> PerBit;
  /// The clause being emitted; reused so intake allocates nothing.
  std::vector<Lit> Clause;
  /// Every formula ever given to assertFormula/litFor. FormulaCache keys
  /// on raw node addresses, so the blaster must keep its roots (and thereby
  /// all their subformulas) alive: a freed-and-reallocated node would
  /// otherwise alias a stale cache entry. Long-lived incremental
  /// sessions hold one BitBlaster across many formulas, making this
  /// pinning load-bearing rather than belt-and-braces.
  std::vector<BvFormulaRef> PinnedRoots;
  Lit TrueL = Lit::undef();

  /// Guarded-scope state (see pushGuard()).
  bool GuardActive = false;
  Lit GuardLit = Lit::undef();
  std::vector<const BvFormula *> ScopedFormulas;
  size_t ScopedRootsFrom = 0;
};

} // namespace smt
} // namespace leapfrog

#endif // LEAPFROG_SMT_BITBLAST_H
