//===- Engine.h - Long-lived checking engine and request structs -*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resolved-engine API around the one-shot entry points of Checker.h:
/// a core::Engine owns a *resolved* solver backend for its whole lifetime
/// and decides any number of CheckRequests against it. This is what a
/// long-running service needs: the backend (external solver process
/// included) stays warm between two checks.
///
/// Engine::create() is the only place a backend spec string is resolved:
/// it resolves a spec (or adopts a caller-owned instance) exactly once,
/// and *rejects* an unparseable spec with a structured error instead of
/// warning on stderr and degrading to bitblast. Per-request knobs
/// (budgets, session limits, search switches, tracing) stay in
/// CheckOptions and travel with each CheckRequest; the engine-level
/// CheckOptions::Solver is ignored by Engine::check, which substitutes
/// its own backend.
///
/// Layering: Engine sits above Checker.h (it runs the same worklist loop,
/// so verdicts, stats, traces and certificates are bit-identical to the
/// free functions on the same backend) and below serve/ (which adds the
/// result cache, admission control and the wire protocol on top).
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_CORE_ENGINE_H
#define LEAPFROG_CORE_ENGINE_H

#include "core/Checker.h"
#include "p4a/Fingerprint.h"

#include <memory>
#include <string>
#include <vector>

namespace leapfrog {
namespace core {

/// Everything one equivalence check needs, owned in one place: the two
/// elaborated automata, the property, and the per-request knobs. Built
/// directly, via makeLanguageEquivalenceRequest(), or — the path the CLI
/// and the service share — from two `.lfp` surface texts through
/// checkRequestFromSurface(), so "parse, elaborate, validate, budget"
/// lives in exactly one piece of code for every front door.
struct CheckRequest {
  p4a::Automaton Left;
  p4a::Automaton Right;
  /// Start states (language equivalence roots; also the fingerprint
  /// roots the service cache keys on).
  p4a::StateRef LeftStart = p4a::StateRef::reject();
  p4a::StateRef RightStart = p4a::StateRef::reject();
  /// The property. The helpers build the standard language-equivalence
  /// spec over the start states; callers with §7.1 specs fill it in
  /// directly.
  InitialSpec Spec;
  /// Per-request knobs: budgets (MaxIterations, MaxWallMicros), session
  /// Limits, search switches and RecordTrace are honored; Solver is
  /// engine-level and ignored by Engine::check.
  CheckOptions Options;
};

/// Builds a language-equivalence CheckRequest over two elaborated
/// automata (the automata are moved in; the request owns them).
CheckRequest makeLanguageEquivalenceRequest(p4a::Automaton Left,
                                            p4a::StateRef LeftStart,
                                            p4a::Automaton Right,
                                            p4a::StateRef RightStart,
                                            CheckOptions Options);

/// The shared surface-text front door: parses both `.lfp` texts,
/// elaborates them, and assembles a language-equivalence request rooted
/// at each program's `entry` state. On failure returns false and fills
/// \p Errors with diagnostics prefixed "<side-name>:" (line:col positions
/// included where the parser has them); \p Out must not be used. The
/// side names default to "left"/"right"; the CLI passes file paths so
/// diagnostics stay clickable.
bool checkRequestFromSurface(const std::string &LeftText,
                             const std::string &RightText,
                             const CheckOptions &Options, CheckRequest &Out,
                             std::vector<std::string> &Errors,
                             const std::string &LeftName = "left",
                             const std::string &RightName = "right");

/// The canonical parser-pair fingerprint of \p Req: the order-sensitive
/// combination of the rooted fingerprints of both sides (see
/// p4a/Fingerprint.h). This is the identity the service's result cache
/// and certificate store key on.
p4a::Fingerprint requestFingerprint(const CheckRequest &Req);

/// How the engine acquires its backend.
struct EngineConfig {
  /// Backend spec, resolved once by Engine::create() through
  /// smt::createSolverBackend(): "bitblast", "smtlib:<cmd>", or
  /// "crosscheck[:<cmd>]". An unparseable spec fails create() with a
  /// structured error — never a silent fallback. Ignored when Solver is
  /// set.
  std::string Backend = "bitblast";
  /// A caller-owned, already-resolved backend instance; must outlive the
  /// engine. Overrides Backend.
  smt::SmtSolver *Solver = nullptr;
  /// Run every check on this engine with proof capture
  /// (CheckOptions::Certify): Equivalent verdicts come back with
  /// CheckResult::Proof populated, ready for core/CertificateIo.h. Like
  /// the per-request flag, this rewrites an "smtlib:<cmd>" Backend spec
  /// to "crosscheck:<cmd>" at create() time, so external-solver engines
  /// stay certifiable (the cross-checking reference leg records the
  /// slices). The service sets this when it runs a certificate store.
  bool Certify = false;
};

/// A long-lived equivalence-checking engine: one resolved backend, reused
/// across every check() for the engine's lifetime. Decisions are
/// bit-identical to checkWithSpec() on the same backend; only what stays
/// warm between calls differs.
///
/// Not thread-safe: one check() at a time, from the thread that owns the
/// engine. A check runs entirely on its caller's thread; concurrency
/// comes from running independent checks on independent engines (the
/// service runs one engine per lane; see serve/Service.h).
class Engine {
public:
  /// Resolves \p Config into an engine. Returns nullptr and sets
  /// \p Error (if non-null) when the backend spec does not parse — the
  /// structured rejection a server hands back to the client, replacing
  /// the old warn-and-degrade-to-bitblast path. A parseable spec whose
  /// external binary is missing still constructs (SmtLibSolver degrades
  /// per query, by design: that knob changes performance, never
  /// verdicts).
  static std::unique_ptr<Engine> create(const EngineConfig &Config,
                                        std::string *Error = nullptr);

  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Decides \p Req against the engine's warm backend.
  CheckResult check(const CheckRequest &Req);

  /// Reference-taking variant for callers that keep their automata
  /// elsewhere (the service lanes, benchmarks); \p Options is honored
  /// the same way as CheckRequest::Options.
  CheckResult check(const p4a::Automaton &Left, const p4a::Automaton &Right,
                    const InitialSpec &Spec, const CheckOptions &Options);

  /// The resolved primary backend (for stats introspection and
  /// backend-specific knobs — CertifyUnsat, external timeouts).
  smt::SmtSolver &solver();

private:
  Engine();
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace core
} // namespace leapfrog

#endif // LEAPFROG_CORE_ENGINE_H
