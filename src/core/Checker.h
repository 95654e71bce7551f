//===- Checker.h - Symbolic equivalence checking (Algorithm 1) --*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: the symbolic equivalence checker
/// of paper §4–§5 (Algorithm 1), which computes the weakest symbolic
/// bisimulation (with leaps) as a set of template-guarded conjuncts R.
///
/// The worklist loop mirrors the paper's pre_bisimulation inductive
/// relation (Figure 4): each popped conjunct is either *skipped* (already
/// entailed by ⋀R — an SMT query) or *extended* (added to R, its weakest
/// preconditions pushed). On an empty worklist, the final *done* check
/// φ ⊨ ⋀R decides the verdict. Every decision is recorded in a trace, and
/// on success the checker emits an EquivalenceCertificate that can be
/// re-validated independently of the search (Certificate.h).
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_CORE_CHECKER_H
#define LEAPFROG_CORE_CHECKER_H

#include "core/Certificate.h"
#include "core/Reachability.h"
#include "core/Spec.h"
#include "logic/ConfRel.h"
#include "smt/Solver.h"

#include <memory>
#include <string>
#include <vector>

namespace leapfrog {
namespace core {

using logic::GuardedFormula;
using logic::PureRef;
using logic::TemplatePair;

/// Tuning knobs, including the §5 optimizations as ablation switches.
struct CheckOptions {
  /// Multi-step weakest preconditions (§5.2). Off = bit-by-bit WP.
  bool UseLeaps = true;
  /// Template-pair reachability pruning (§5.1). Off = full product.
  bool UseReachability = true;
  /// Safety valve on worklist iterations (the paper's Coq proof search has
  /// no such cap; ours reports Verdict::ResourceLimit instead of hanging).
  size_t MaxIterations = 1u << 20;
  /// Wall-clock budget in microseconds; 0 = unlimited. Like MaxIterations,
  /// exceeding it yields Verdict::ResourceLimit — the analogue of the
  /// paper's out-of-memory outcome on the Service Provider study.
  uint64_t MaxWallMicros = 0;
  /// Solver backend; nullptr = smt::defaultSolver(). To run on a backend
  /// named by a spec string ("bitblast", "smtlib:<cmd>",
  /// "crosscheck[:<cmd>]"), resolve it through core::Engine::create
  /// (core/Engine.h), the one place backend specs are interpreted.
  smt::SmtSolver *Solver = nullptr;
  /// Discharge the worklist entailments ⋀R ⊨ ψ through incremental solver
  /// sessions (one per template pair): each conjunct of R is lowered and
  /// bit-blasted once per run, and queries reuse the session's learned
  /// clauses. Off = re-lower and re-blast the full premise conjunction on
  /// every query (the pre-incremental behavior, kept as an ablation and
  /// as the differential-testing baseline). Both paths answer every
  /// entailment identically; certifying backends stream per-goal DRUP
  /// slices from their sessions (smt/ProofLog.h), so certification and
  /// incrementality coexist — certified runs report real session stats.
  bool UseIncremental = true;
  /// Capture a machine-checkable proof artifact for this check: the
  /// resolved backend records per-goal DRUP slice streams into
  /// CheckResult::Proof, which core/CertificateIo.h serializes together
  /// with the relation into a certificate that the standalone
  /// leapfrog-certcheck verifier replays with no engine linkage. A Solver
  /// that cannot capture proofs (supportsProofCapture() false) makes the
  /// check fail with Verdict::BadRequest rather than return an
  /// uncertified verdict; a certifying core::Engine resolves an
  /// "smtlib:<cmd>" spec to "crosscheck:<cmd>" so external-solver checks
  /// stay certifiable (the cross-checking reference leg records them).
  /// Capture is passive: verdicts, traces and decision streams are
  /// bit-identical to an uncertified run.
  bool Certify = false;
  /// Memory bounds for each incremental solver session (0 = unlimited).
  /// Sessions already bound themselves via clause-DB reduction and
  /// retired-goal deletion; these limits add a hard backstop — a session
  /// over either bound is rebuilt from its premises, which changes
  /// memory, never answers. Ignored when UseIncremental is off or the
  /// backend falls back to monolithic queries.
  smt::SessionLimits Limits;
  /// Entailment-query batching: when a goal is posed, up to GoalBatch
  /// upcoming frontier entries of the same template pair (from the next
  /// 32 entries) are decided with it against the same
  /// premise set in one shared solver round-trip
  /// (IncrementalSession::checkSatBatch) — per-goal answers are
  /// recovered from the round's model or failed-assumption core, so
  /// verdict, decision stream and certificate stay bit-identical to
  /// GoalBatch == 1; only the physical round-trip count
  /// (SolverStats::RoundTrips) drops. 1 (the default) poses one goal per
  /// query. Requires UseIncremental; ignored otherwise. Batching degrades
  /// to per-goal solving under proof capture (Certify), which needs one
  /// proof slice per goal.
  size_t GoalBatch = 1;
  /// Record one TraceStep per loop iteration (costs memory on big runs).
  bool RecordTrace = false;
};

/// Builds the standard language-equivalence spec for two start states.
InitialSpec languageEquivalenceSpec(const p4a::Automaton &Left,
                                    p4a::StateRef QL,
                                    const p4a::Automaton &Right,
                                    p4a::StateRef QR);

enum class Verdict {
  Equivalent,    ///< φ entails the weakest symbolic bisimulation.
  NotEquivalent, ///< The final (or an initial) check refuted φ.
  ResourceLimit, ///< MaxIterations hit before the frontier drained.
  BadRequest,    ///< The request never ran: malformed options (Certify on
                 ///< a backend that cannot capture proofs), an
                 ///< unresolvable backend spec (core::Engine) or, at the
                 ///< service layer, inadmissible input. FailureReason says
                 ///< why; no property was decided and no certificate
                 ///< exists.
};

/// One step of the proof-search trace (paper Figure 4's constructors).
struct TraceStep {
  enum class Kind { Skip, Extend, Done } K;
  GuardedFormula Psi; ///< The conjunct considered (empty formula on Done).
  size_t WpCount = 0; ///< Extend: how many preconditions were pushed.
};

/// Counters the benchmark harness reports (Table 2 columns and §7.3
/// discussion material).
struct CheckStats {
  size_t Iterations = 0;
  size_t Extends = 0;
  size_t Skips = 0;
  size_t SmtQueries = 0;
  size_t ReachPairs = 0;
  size_t TemplatesLeft = 0;
  size_t TemplatesRight = 0;
  size_t FinalConjuncts = 0;
  size_t PeakFrontier = 0;
  size_t FormulaNodes = 0; ///< Σ sizes of conjuncts in final R.
  uint64_t WallMicros = 0;
  uint64_t SolverMicros = 0;
};

struct CheckResult {
  Verdict V = Verdict::NotEquivalent;
  CheckStats Stats;
  /// Valid when V == Equivalent; re-check with replayCertificate().
  EquivalenceCertificate Certificate;
  /// On NotEquivalent: which conjunct refuted φ, for diagnostics.
  std::string FailureReason;
  std::vector<TraceStep> Trace; ///< Populated iff RecordTrace.
  /// Per-goal DRUP slice streams recorded when Options.Certify was set:
  /// one stream per solver session plus one-shot streams for monolithic
  /// queries. Together with Certificate this is what
  /// core/CertificateIo.h serializes for leapfrog-certcheck. Shared
  /// ownership because results are copied around by caches.
  std::shared_ptr<smt::ProofLog> Proof;

  bool equivalent() const { return V == Verdict::Equivalent; }
};

/// Runs Algorithm 1 for the property \p Spec over \p Left / \p Right.
///
/// Preconditions: both automata must be well-typed (⊢A, p4a::typeCheck)
/// — asserted in debug builds — and \p Spec must refer only to states,
/// headers and templates of these two automata (templates must satisfy
/// n < ||op(q)|| for user states, n = 0 for accept/reject).
///
/// Certificate guarantee: when the verdict is Equivalent, the returned
/// CheckResult::Certificate is self-contained — replayCertificate()
/// (Certificate.h) re-derives and re-discharges every initiation,
/// consecution and inclusion obligation without reusing any search state,
/// so trusting the verdict requires trusting only the replayer's lowering
/// chain and the SMT backend (and with BitBlastSolver::CertifyUnsat set,
/// only the DRUP proof checker). A NotEquivalent or ResourceLimit verdict
/// carries no certificate and certifies nothing.
///
/// Complexity: each worklist iteration discharges one entailment ⋀R ⊨ ψ,
/// i.e. one FOL(BV) validity query (NP-hard in formula size; see
/// smt/Solver.h). The number of distinct guards is bounded by
/// |templates(Left)| × |templates(Right)| — templates number
/// Σ_q ||op(q)|| + 2 per side, so pseudo-polynomial in total header
/// width — and the frontier deduplicates α-equivalent conjuncts per
/// guard. UseLeaps replaces ♯-many bit-level WP steps by one leap step;
/// UseReachability restricts guards to abstractly reachable pairs. The
/// §7.3 ablations show the checker does not terminate in practice with
/// either disabled.
CheckResult checkWithSpec(const p4a::Automaton &Left,
                          const p4a::Automaton &Right,
                          const InitialSpec &Spec,
                          const CheckOptions &Options = CheckOptions());

/// Language equivalence of two start states "regardless of initial store":
/// L(⟨QL, s1, ε⟩) = L(⟨QR, s2, ε⟩) for all s1, s2 (paper §4).
/// Shorthand for checkWithSpec(languageEquivalenceSpec(...)); the same
/// preconditions, certificate guarantee and complexity notes apply.
/// \p QL / \p QR must be states of their respective automata.
CheckResult checkLanguageEquivalence(const p4a::Automaton &Left,
                                     p4a::StateRef QL,
                                     const p4a::Automaton &Right,
                                     p4a::StateRef QR,
                                     const CheckOptions &Options =
                                         CheckOptions());

/// Convenience overload resolving states by name; asserts they exist.
CheckResult checkLanguageEquivalence(const p4a::Automaton &Left,
                                     const std::string &QL,
                                     const p4a::Automaton &Right,
                                     const std::string &QR,
                                     const CheckOptions &Options =
                                         CheckOptions());

} // namespace core
} // namespace leapfrog

#endif // LEAPFROG_CORE_CHECKER_H
