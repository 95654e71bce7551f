//===- Engine.cpp - Long-lived checking engine ----------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "frontend/Elaborate.h"
#include "frontend/Text.h"
#include "smt/SmtLibSolver.h"

using namespace leapfrog;
using namespace leapfrog::core;

CheckRequest core::makeLanguageEquivalenceRequest(p4a::Automaton Left,
                                                  p4a::StateRef LeftStart,
                                                  p4a::Automaton Right,
                                                  p4a::StateRef RightStart,
                                                  CheckOptions Options) {
  CheckRequest Req;
  Req.Left = std::move(Left);
  Req.Right = std::move(Right);
  Req.LeftStart = LeftStart;
  Req.RightStart = RightStart;
  // The spec must reference the automata the request owns, not the
  // moved-from arguments.
  Req.Spec = languageEquivalenceSpec(Req.Left, LeftStart, Req.Right,
                                     RightStart);
  Req.Options = std::move(Options);
  return Req;
}

namespace {

/// One side of the surface front door: parse, elaborate, resolve the
/// entry state. Diagnostics land in \p Errors prefixed "<Name>:".
bool loadSide(const std::string &Text, const std::string &Name,
              p4a::Automaton &Aut, p4a::StateRef &Start,
              std::vector<std::string> &Errors) {
  frontend::TextParseResult Parsed = frontend::parseSurface(Text);
  if (!Parsed.ok()) {
    for (const std::string &E : Parsed.Errors)
      Errors.push_back(Name + ":" + E);
    return false;
  }
  frontend::ElaborationResult Elab = frontend::elaborate(Parsed.Program);
  if (!Elab.ok()) {
    for (const std::string &E : Elab.Errors)
      Errors.push_back(Name + ": " + E);
    return false;
  }
  std::optional<p4a::StateId> Entry = Elab.Aut.findState(Elab.Entry);
  if (!Entry) {
    Errors.push_back(Name + ": entry state '" + Elab.Entry +
                     "' does not exist after elaboration");
    return false;
  }
  Aut = std::move(Elab.Aut);
  Start = p4a::StateRef::normal(*Entry);
  return true;
}

} // namespace

bool core::checkRequestFromSurface(const std::string &LeftText,
                                   const std::string &RightText,
                                   const CheckOptions &Options,
                                   CheckRequest &Out,
                                   std::vector<std::string> &Errors,
                                   const std::string &LeftName,
                                   const std::string &RightName) {
  p4a::Automaton Left, Right;
  p4a::StateRef LeftStart = p4a::StateRef::reject();
  p4a::StateRef RightStart = p4a::StateRef::reject();
  // Load both sides even when the first fails: a client fixing its
  // request wants all diagnostics in one round trip.
  bool LeftOk = loadSide(LeftText, LeftName, Left, LeftStart, Errors);
  bool RightOk = loadSide(RightText, RightName, Right, RightStart, Errors);
  if (!LeftOk || !RightOk)
    return false;
  Out = makeLanguageEquivalenceRequest(std::move(Left), LeftStart,
                                       std::move(Right), RightStart, Options);
  return true;
}

p4a::Fingerprint core::requestFingerprint(const CheckRequest &Req) {
  return p4a::combineFingerprints(p4a::fingerprint(Req.Left, Req.LeftStart),
                                  p4a::fingerprint(Req.Right, Req.RightStart));
}

struct Engine::Impl {
  EngineConfig Config;
  /// The resolved backend when created from a spec string; null when the
  /// caller supplied an instance.
  std::unique_ptr<smt::SmtSolver> OwnedPrimary;
  smt::SmtSolver *Primary = nullptr;
};

Engine::Engine() : I(std::make_unique<Impl>()) {}
Engine::~Engine() = default;

std::unique_ptr<Engine> Engine::create(const EngineConfig &Config,
                                       std::string *Error) {
  std::unique_ptr<Engine> E(new Engine());
  E->I->Config = Config;
  if (Config.Solver) {
    E->I->Primary = Config.Solver;
    return E;
  }
  std::string Spec = Config.Backend.empty() ? "bitblast" : Config.Backend;
  // A certifying engine cannot run on a bare external backend (no proof
  // capture there); resolve to the cross-checking pair instead, whose
  // reference leg records the slices.
  if (Config.Certify && Spec.rfind("smtlib:", 0) == 0)
    Spec = "crosscheck:" + Spec.substr(std::string("smtlib:").size());
  std::string Err;
  E->I->OwnedPrimary = smt::createSolverBackend(Spec, &Err);
  if (!E->I->OwnedPrimary) {
    if (Error)
      *Error = "unrecognized solver backend '" + Spec + "': " + Err;
    return nullptr;
  }
  E->I->Primary = E->I->OwnedPrimary.get();
  return E;
}

CheckResult Engine::check(const p4a::Automaton &Left,
                          const p4a::Automaton &Right, const InitialSpec &Spec,
                          const CheckOptions &Options) {
  // Substitute the engine-level field: the request's Solver is
  // documented as ignored here, so a CheckRequest built for one engine
  // decides identically on another with the same configuration.
  CheckOptions O = Options;
  O.Solver = I->Primary;
  O.Certify = Options.Certify || I->Config.Certify;
  return core::checkWithSpec(Left, Right, Spec, O);
}

CheckResult Engine::check(const CheckRequest &Req) {
  return check(Req.Left, Req.Right, Req.Spec, Req.Options);
}

smt::SmtSolver &Engine::solver() { return *I->Primary; }
