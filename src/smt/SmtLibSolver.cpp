//===- SmtLibSolver.cpp - External SMT-LIB2 backends ----------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/SmtLibSolver.h"

#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "smt/SmtLib.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

using namespace leapfrog;
using namespace leapfrog::smt;

namespace {

// Per-query round-trip latency through the external pipe (its fallback
// included: the caller sees one number either way), plus the two failure-mode
// counters the SOLVERS.md doc tells operators to watch.
obs::Histogram &extRoundTripMetric() {
  static obs::Histogram &H = obs::metrics().histogram("ext.roundtrip_micros");
  return H;
}

obs::Counter &extFallbackMetric() {
  static obs::Counter &C = obs::metrics().counter("ext.fallback_queries");
  return C;
}

/// Rebuilds \p T with every variable renamed to Prefix+Name. Memoized on
/// node identity: formulas are DAGs and shared subterms must not blow up
/// into trees.
class VarRenamer {
public:
  explicit VarRenamer(const std::string &Prefix) : Prefix(Prefix) {}

  BvTermRef term(const BvTermRef &T) {
    auto It = Terms.find(T.get());
    if (It != Terms.end())
      return It->second;
    BvTermRef Out;
    switch (T->kind()) {
    case BvTerm::Kind::Var:
      Out = BvTerm::mkVar(Prefix + T->varName(), T->width());
      break;
    case BvTerm::Kind::Const:
      Out = T;
      break;
    case BvTerm::Kind::Concat:
      Out = BvTerm::mkConcat(term(T->lhs()), term(T->rhs()));
      break;
    case BvTerm::Kind::Extract:
      Out = BvTerm::mkExtract(term(T->extractOperand()), T->extractLo(),
                              T->extractHi());
      break;
    }
    Terms.emplace(T.get(), Out);
    return Out;
  }

  BvFormulaRef formula(const BvFormulaRef &F) {
    auto It = Formulas.find(F.get());
    if (It != Formulas.end())
      return It->second;
    BvFormulaRef Out;
    switch (F->kind()) {
    case BvFormula::Kind::True:
    case BvFormula::Kind::False:
      Out = F;
      break;
    case BvFormula::Kind::Eq:
      Out = BvFormula::mkEq(term(F->eqLhs()), term(F->eqRhs()));
      break;
    case BvFormula::Kind::Not:
      Out = BvFormula::mkNot(formula(F->sub()));
      break;
    case BvFormula::Kind::And:
      Out = BvFormula::mkAnd(formula(F->lhs()), formula(F->rhs()));
      break;
    case BvFormula::Kind::Or:
      Out = BvFormula::mkOr(formula(F->lhs()), formula(F->rhs()));
      break;
    case BvFormula::Kind::Implies:
      Out = BvFormula::mkImplies(formula(F->lhs()), formula(F->rhs()));
      break;
    }
    Formulas.emplace(F.get(), Out);
    return Out;
  }

private:
  const std::string &Prefix;
  std::unordered_map<const BvTerm *, BvTermRef> Terms;
  std::unordered_map<const BvFormula *, BvFormulaRef> Formulas;
};

/// Sanitized-symbol declarations for the renamed image of \p F.
std::vector<std::pair<std::string, size_t>>
sanitizedVars(const BvFormulaRef &RenamedF) {
  std::vector<std::pair<std::string, size_t>> Out;
  for (const auto &[Name, Width] : collectVars(RenamedF))
    Out.emplace_back(sanitizeSymbol(Name), Width);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// SmtLibSolver: process management
//===----------------------------------------------------------------------===//

std::vector<std::string> SmtLibSolver::splitCommand(const std::string &Cmd) {
  std::vector<std::string> Argv;
  std::istringstream In(Cmd);
  std::string Tok;
  while (In >> Tok)
    Argv.push_back(Tok);
  return Argv;
}

SmtLibSolver::SmtLibSolver(SmtLibConfig Config) : Config(std::move(Config)) {
  // The smart constructors may fold a renamed formula differently than the
  // original only if renaming changed constants — it cannot — so renaming
  // is semantics- and shape-preserving by construction.
}

SmtLibSolver::~SmtLibSolver() {
  if (Proc.started())
    Proc.writeLine("(exit)", 100); // Politeness; kill() in ~ExtProcess
                                   // is the actual guarantee.
}

void SmtLibSolver::warnFallback(const char *Why) {
  if (Warned || !Config.WarnOnFallback)
    return;
  Warned = true;
  std::fprintf(stderr,
               "leapfrog: external SMT backend '%s' failed (%s); affected "
               "queries are answered by the in-repo bit-blaster (see "
               "docs/SOLVERS.md, Troubleshooting)\n",
               Config.Argv.empty() ? "<empty>" : Config.Argv[0].c_str(),
               Why);
}

void SmtLibSolver::processFailure(const char *What) {
  Proc.kill();
  Declared.clear();
  ++Failures;
  // Warn on the *first* failure with its concrete reason — by the time
  // the failure budget is exhausted the root cause is long gone.
  warnFallback(What);
  if (Failures >= Config.MaxProcessFailures)
    Permanent = true;
}

bool SmtLibSolver::exchange(const std::string &Line, std::string &Reply) {
  switch (Proc.writeLine(Line, Config.QueryTimeoutMs)) {
  case ExtProcess::IoResult::Ok:
    break;
  case ExtProcess::IoResult::Timeout:
    ++Ext.Timeouts;
    processFailure("write timeout (solver stopped reading stdin)");
    return false;
  default:
    ++Ext.Eofs;
    processFailure("write failed");
    return false;
  }
  switch (Proc.readReply(Reply, Config.QueryTimeoutMs)) {
  case ExtProcess::IoResult::Ok:
    return true;
  case ExtProcess::IoResult::Timeout:
    ++Ext.Timeouts;
    processFailure("reply timeout");
    return false;
  case ExtProcess::IoResult::Eof:
    ++Ext.Eofs;
    processFailure("process exited");
    return false;
  case ExtProcess::IoResult::Error:
    ++Ext.ProtocolErrors;
    processFailure("pipe error");
    return false;
  }
  return false;
}

bool SmtLibSolver::command(const std::string &Line) {
  std::string Reply;
  if (!exchange(Line, Reply))
    return false;
  // "unsupported" is a legal reply to set-option and harmless for the
  // options we set; anything else (errors included) means we lost the
  // plot and cannot trust the dialogue to stay in sync.
  if (Reply == "success" || Reply == "unsupported")
    return true;
  ++Ext.ProtocolErrors;
  processFailure("unexpected command reply");
  return false;
}

bool SmtLibSolver::ensureProcess() {
  if (Permanent)
    return false;
  if (Proc.started())
    return true;
  if (Config.Argv.empty()) {
    Permanent = true;
    warnFallback("empty command");
    return false;
  }
  std::string Err;
  if (!Proc.start(Config.Argv, &Err)) {
    // Warn with the concrete OS-level reason before processFailure's
    // generic one can claim the one-time notice.
    warnFallback(Err.c_str());
    processFailure("spawn failed");
    return false;
  }
  ++Ext.Spawns;
  static obs::Counter &SpawnMetric = obs::metrics().counter("ext.spawns");
  SpawnMetric.add();
  ++Epoch;
  Declared.clear();
  // Handshake. print-success first so every later command is confirmed
  // synchronously; produce-models before set-logic per the SMT-LIB
  // standard's option rules.
  if (!command("(set-option :print-success true)") ||
      !command("(set-option :produce-models true)") ||
      !command("(set-logic QF_BV)"))
    return false;
  return true;
}

bool SmtLibSolver::declareVars(
    const std::vector<std::pair<std::string, size_t>> &Vars, bool Record) {
  for (const auto &[Sym, Width] : Vars) {
    auto It = Declared.find(Sym);
    if (It != Declared.end()) {
      if (It->second != Width) {
        // Per-session prefixes make this unreachable for checker
        // workloads; a custom caller violating the equal-names/equal-
        // widths precondition lands here instead of desyncing the
        // dialogue.
        ++Ext.ProtocolErrors;
        processFailure("variable redeclared at a different width");
        return false;
      }
      continue;
    }
    if (!command("(declare-const " + Sym + " (_ BitVec " +
                 std::to_string(Width) + "))"))
      return false;
    if (Record)
      Declared.emplace(Sym, Width);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SmtLibSolver: one-shot queries
//===----------------------------------------------------------------------===//

bool SmtLibSolver::readModelRaw(const std::vector<BvFormulaRef> &Scope,
                                const std::string &Prefix, Model *M) {
  const std::vector<BvFormulaRef> &Originals = Scope;
  std::string Reply;
  if (!exchange("(get-model)", Reply))
    return false;
  std::vector<std::pair<std::string, Bitvector>> Parsed;
  std::string Err;
  if (!parseModelReply(Reply, Parsed, &Err)) {
    ++Ext.ProtocolErrors;
    processFailure("malformed get-model reply");
    return false;
  }
  std::unordered_map<std::string, const Bitvector *> BySym;
  for (const auto &[Sym, Value] : Parsed)
    BySym.emplace(Sym, &Value);
  M->clear();
  std::unordered_set<std::string> SeenVars;
  for (const BvFormulaRef &F : Originals) {
    for (const auto &[Name, Width] : collectVars(F)) {
      if (!SeenVars.insert(Name).second)
        continue;
      std::string Sym = sanitizeSymbol(Prefix + Name);
      auto It = BySym.find(Sym);
      if (It == BySym.end()) {
        // Solvers may omit don't-care variables; any value satisfies.
        M->emplace_back(Name, Bitvector(Width));
        continue;
      }
      if (It->second->size() != Width) {
        ++Ext.ProtocolErrors;
        processFailure("model value width mismatch");
        return false;
      }
      M->emplace_back(Name, *It->second);
    }
  }
  return true;
}

bool SmtLibSolver::readModel(const std::vector<BvFormulaRef> &Originals,
                             const std::string &Prefix, Model *M) {
  if (!readModelRaw(Originals, Prefix, M))
    return false;
  // Sat answers are checkable, so check them: the model (total over the
  // scope's variables by construction above) must satisfy every formula
  // whose conjunction the solver claimed satisfiable. A failing check
  // means the solver lied or we lost protocol sync — either way the
  // query is re-answered in-repo. Unsat answers have no such cheap
  // witness; removing trust in *that* direction is what crosscheck mode
  // is for.
  for (const BvFormulaRef &F : Originals) {
    if (!evalFormula(F, *M)) {
      ++Ext.ProtocolErrors;
      processFailure("external model does not satisfy the query");
      return false;
    }
  }
  return true;
}

bool SmtLibSolver::tryExternalCheckSat(const BvFormulaRef &F, Model *M,
                                       SatResult &R) {
  if (!ensureProcess())
    return false;
  // One-shot queries are fully scoped: a unique variable prefix keeps the
  // namespace disjoint from every session's, and declaring inside the
  // push scope lets the pop collect the declarations again.
  std::string Prefix = "q" + std::to_string(QueryCounter++) + "!";
  VarRenamer Renamer(Prefix);
  BvFormulaRef RF = Renamer.formula(F);
  if (!command("(push 1)"))
    return false;
  if (!declareVars(sanitizedVars(RF), /*Record=*/false))
    return false;
  if (!command("(assert " + toSmtLibFormula(RF) + ")"))
    return false;
  std::string Reply;
  if (!exchange("(check-sat)", Reply))
    return false;
  ++Stats.RoundTrips; // One completed check-sat wire exchange.
  if (Reply == "sat") {
    if (M || Config.ValidateModels) {
      Model Local;
      if (!readModel({F}, Prefix, M ? M : &Local))
        return false;
    }
    R = SatResult::Sat;
  } else if (Reply == "unsat") {
    R = SatResult::Unsat;
  } else {
    // "unknown", "(error …)", solver chatter: all unusable. Timeouts at
    // the solver's own discretion land here too.
    ++Ext.ProtocolErrors;
    processFailure("unusable check-sat reply");
    return false;
  }
  // The answer is already in hand; a failing pop only costs the process,
  // not the query.
  command("(pop 1)");
  return true;
}

SatResult SmtLibSolver::checkSat(const BvFormulaRef &F, Model *M) {
  obs::ScopedSpan Span("ext.query", "ext");
  obs::StopWatch Watch;
  SatResult R = SatResult::Unsat;
  if (tryExternalCheckSat(F, M, R)) {
    ++Ext.ExternalQueries;
  } else {
    ++Ext.FallbackQueries;
    extFallbackMetric().add();
    warnFallback("see counters");
    R = Fallback.checkSat(F, M);
    ++Stats.RoundTrips; // The fallback's physical solve.
  }
  uint64_t Micros = Watch.elapsedMicros();
  extRoundTripMetric().observe(Micros);
  ++Stats.Queries;
  Stats.TotalMicros += Micros;
  Stats.MaxMicros = std::max(Stats.MaxMicros, Micros);
  if (R == SatResult::Sat)
    ++Stats.SatAnswers;
  else
    ++Stats.UnsatAnswers;
  return R;
}

//===----------------------------------------------------------------------===//
// SmtLibSolver: incremental sessions
//===----------------------------------------------------------------------===//

/// One incremental session multiplexed onto the owner's process. The
/// premise set lives three times: as formulas here (the source of truth,
/// and what replays after a process respawn), as guarded assertions
/// `(assert (=> act-sN P))` in the external solver, and mirrored into an
/// in-repo fallback session so fallback queries keep incremental cost.
class SmtLibSolver::ExtSession : public SmtSolver::IncrementalSession {
public:
  ExtSession(SmtLibSolver &Owner, const SessionLimits &Limits)
      : Owner(Owner), Id(Owner.SessionCounter++),
        Prefix("s" + std::to_string(Id) + "!"),
        ActSym("act-s" + std::to_string(Id)),
        FbSession(Owner.Fallback.openSession(Limits)) {}

  void assertPremise(const BvFormulaRef &F) override {
    if (F->kind() == BvFormula::Kind::True)
      return;
    if (!Keys.insert(F->str()).second) {
      ++Owner.Stats.PremiseCacheHits;
      return;
    }
    ++Owner.Stats.SessionPremises;
    Premises.push_back(F);
    // Sent lazily at the next query; the fallback mirror gets it now (it
    // double-counts no stats — the fallback solver has its own record).
    FbSession->assertPremise(F);
  }

  SatResult checkSatUnderPremises(const BvFormulaRef &Goal,
                                  Model *M) override {
    obs::ScopedSpan Span("ext.query", "ext");
    obs::StopWatch Watch;
    ++Owner.Stats.SessionQueries;
    SatResult R = SatResult::Unsat;
    if (tryExternal(Goal, M, R)) {
      ++Owner.Ext.ExternalQueries;
    } else {
      ++Owner.Ext.FallbackQueries;
      extFallbackMetric().add();
      Owner.warnFallback("see counters");
      R = FbSession->checkSatUnderPremises(Goal, M);
      ++Owner.Stats.RoundTrips; // The fallback's physical solve.
    }
    uint64_t Micros = Watch.elapsedMicros();
    extRoundTripMetric().observe(Micros);
    SolverStats &St = Owner.Stats;
    ++St.Queries;
    St.TotalMicros += Micros;
    St.MaxMicros = std::max(St.MaxMicros, Micros);
    if (R == SatResult::Sat)
      ++St.SatAnswers;
    else
      ++St.UnsatAnswers;
    return R;
  }

  /// Batched goals share one premise resync and are resolved by the same
  /// disjunctive refinement loop as the bit-blast session (Solver.cpp):
  /// each goal gets a selector Boolean d_i with (=> d_i G_i) asserted in
  /// an outer push scope, and each physical round asserts (or d_pending…)
  /// in an inner scope and poses ONE (check-sat-assuming (act)). An unsat
  /// round — the failed assumption being the session activation itself,
  /// i.e. premises ∧ ⋁d_i has no model — attributes Unsat to every
  /// pending goal in a single wire round-trip; a sat round's model is
  /// fetched once and evaluated against each pending goal (evalFormula,
  /// no Boolean model parsing needed), resolving every goal it satisfies
  /// as Sat. Externally unresolved goals (process death, timeout,
  /// protocol error) fall back to the mirrored in-repo session — batched
  /// there too.
  void checkSatBatch(const std::vector<BvFormulaRef> &Goals,
                     std::vector<SatResult> &Out) override {
    if (Goals.size() < 2) {
      Out.assign(Goals.size(), SatResult::Sat);
      for (size_t I = 0; I < Goals.size(); ++I)
        Out[I] = checkSatUnderPremises(Goals[I], nullptr);
      return;
    }
    obs::ScopedSpan Span("ext.batch", "ext");
    obs::StopWatch Watch;
    SolverStats &St = Owner.Stats;
    St.SessionQueries += Goals.size();
    Out.assign(Goals.size(), SatResult::Sat);
    std::vector<char> Resolved(Goals.size(), 0);
    tryExternalBatch(Goals, Out, Resolved);
    size_t External = 0;
    std::vector<size_t> Unresolved;
    for (size_t I = 0; I < Goals.size(); ++I) {
      if (Resolved[I])
        ++External;
      else
        Unresolved.push_back(I);
    }
    Owner.Ext.ExternalQueries += External;
    if (!Unresolved.empty()) {
      Owner.Ext.FallbackQueries += Unresolved.size();
      extFallbackMetric().add(Unresolved.size());
      Owner.warnFallback("see counters");
      std::vector<BvFormulaRef> FbGoals;
      for (size_t I : Unresolved)
        FbGoals.push_back(Goals[I]);
      // The mirror session batches natively; fold its physical solves
      // into this backend's round-trip count (its own stats record is
      // internal and never reported).
      uint64_t FbBefore = Owner.Fallback.stats().RoundTrips;
      std::vector<SatResult> FbOut;
      FbSession->checkSatBatch(FbGoals, FbOut);
      St.RoundTrips += Owner.Fallback.stats().RoundTrips - FbBefore;
      for (size_t K = 0; K < Unresolved.size(); ++K)
        Out[Unresolved[K]] = FbOut[K];
    }
    uint64_t Micros = Watch.elapsedMicros();
    extRoundTripMetric().observe(Micros);
    St.Queries += Goals.size();
    St.TotalMicros += Micros;
    St.MaxMicros = std::max(St.MaxMicros, Micros);
    for (size_t I = 0; I < Goals.size(); ++I) {
      if (Out[I] == SatResult::Sat)
        ++St.SatAnswers;
      else
        ++St.UnsatAnswers;
    }
  }

private:
  /// Brings the external process's view of this session up to date:
  /// after a (re)spawn, re-declare the activation constant and replay
  /// every premise; otherwise send only the premises asserted since the
  /// last query.
  bool sync() {
    if (!Owner.ensureProcess())
      return false;
    if (SyncedEpoch != Owner.Epoch) {
      SyncedEpoch = Owner.Epoch;
      Synced = 0;
      if (!Owner.command("(declare-const " + ActSym + " Bool)"))
        return false;
    }
    for (; Synced < Premises.size(); ++Synced) {
      VarRenamer Renamer(Prefix);
      BvFormulaRef RP = Renamer.formula(Premises[Synced]);
      if (!Owner.declareVars(sanitizedVars(RP), /*Record=*/true))
        return false;
      if (!Owner.command("(assert (=> " + ActSym + " " +
                         toSmtLibFormula(RP) + "))"))
        return false;
    }
    return true;
  }

  bool tryExternal(const BvFormulaRef &Goal, Model *M, SatResult &R) {
    if (!sync())
      return false;
    VarRenamer Renamer(Prefix);
    BvFormulaRef RG = Renamer.formula(Goal);
    // Goal variables are declared at the base level (before the push) so
    // they survive for later premises/goals of this session; widths are
    // consistent within a session by the lowering chain's naming rules.
    if (!Owner.declareVars(sanitizedVars(RG), /*Record=*/true))
      return false;
    if (!Owner.command("(push 1)"))
      return false;
    if (!Owner.command("(assert " + toSmtLibFormula(RG) + ")"))
      return false;
    std::string Reply;
    if (!Owner.exchange("(check-sat-assuming (" + ActSym + "))", Reply))
      return false;
    ++Owner.Stats.RoundTrips; // One completed check-sat wire exchange.
    if (Reply == "sat") {
      if (M || Owner.Config.ValidateModels) {
        std::vector<BvFormulaRef> Scope;
        Scope.push_back(Goal);
        Scope.insert(Scope.end(), Premises.begin(), Premises.end());
        Model Local;
        if (!Owner.readModel(Scope, Prefix, M ? M : &Local))
          return false;
      }
      R = SatResult::Sat;
    } else if (Reply == "unsat") {
      R = SatResult::Unsat;
    } else {
      ++Owner.Ext.ProtocolErrors;
      Owner.processFailure("unusable check-sat-assuming reply");
      return false;
    }
    Owner.command("(pop 1)"); // Failure costs the process, not the answer.
    return true;
  }

  /// The external half of checkSatBatch: marks every goal it managed to
  /// resolve in \p Resolved and writes its answer into \p Out. Returns
  /// with some goals unresolved on any transport/protocol failure; the
  /// caller falls back for exactly those.
  void tryExternalBatch(const std::vector<BvFormulaRef> &Goals,
                        std::vector<SatResult> &Out,
                        std::vector<char> &Resolved) {
    if (!sync())
      return;
    // Goal variables live at the base level (as in tryExternal) so later
    // premises/goals of the session can reuse them; renamed images are
    // rebuilt per goal for the selector assertions below.
    std::vector<BvFormulaRef> RGs(Goals.size());
    for (size_t I = 0; I < Goals.size(); ++I) {
      VarRenamer Renamer(Prefix);
      RGs[I] = Renamer.formula(Goals[I]);
      if (!Owner.declareVars(sanitizedVars(RGs[I]), /*Record=*/true))
        return;
    }
    // Outer scope: one selector Boolean per goal, popped with the scope
    // when the batch ends (so selector names can be reused next batch).
    if (!Owner.command("(push 1)"))
      return;
    std::vector<std::string> Sels(Goals.size());
    for (size_t I = 0; I < Goals.size(); ++I) {
      Sels[I] = ActSym + "-d" + std::to_string(I);
      if (!Owner.command("(declare-const " + Sels[I] + " Bool)") ||
          !Owner.command("(assert (=> " + Sels[I] + " " +
                         toSmtLibFormula(RGs[I]) + "))"))
        return;
    }
    size_t Pending = Goals.size();
    while (Pending > 0) {
      // Inner scope: this round's pending disjunction only.
      if (!Owner.command("(push 1)"))
        return;
      std::string Disj = "(assert (or";
      for (size_t I = 0; I < Goals.size(); ++I)
        if (!Resolved[I])
          Disj += " " + Sels[I];
      Disj += "))";
      if (!Owner.command(Disj))
        return;
      std::string Reply;
      if (!Owner.exchange("(check-sat-assuming (" + ActSym + "))", Reply))
        return;
      ++Owner.Stats.RoundTrips; // One wire exchange for all pending goals.
      if (Reply == "unsat") {
        // premises ∧ ⋁(pending goals) is unsatisfiable — the shared
        // failed assumption is the session activation itself — so every
        // pending goal is individually unsat with the premises.
        for (size_t I = 0; I < Goals.size(); ++I)
          if (!Resolved[I]) {
            Resolved[I] = 1;
            Out[I] = SatResult::Unsat;
          }
        Pending = 0;
        Owner.command("(pop 1)");
        break;
      }
      if (Reply != "sat") {
        ++Owner.Ext.ProtocolErrors;
        Owner.processFailure("unusable check-sat-assuming reply");
        return;
      }
      // One get-model resolves every pending goal the model satisfies.
      // The scope is disjunctive, so only the premises are *required* to
      // hold; each pending goal is evaluated individually and at least
      // one must come out true, or the solver's sat was a lie.
      std::vector<BvFormulaRef> Scope;
      for (size_t I = 0; I < Goals.size(); ++I)
        if (!Resolved[I])
          Scope.push_back(Goals[I]);
      Scope.insert(Scope.end(), Premises.begin(), Premises.end());
      Model M;
      if (!Owner.readModelRaw(Scope, Prefix, &M))
        return;
      if (Owner.Config.ValidateModels) {
        for (const BvFormulaRef &P : Premises)
          if (!evalFormula(P, M)) {
            ++Owner.Ext.ProtocolErrors;
            Owner.processFailure("external model violates a premise");
            return;
          }
      }
      size_t Newly = 0;
      for (size_t I = 0; I < Goals.size(); ++I)
        if (!Resolved[I] && evalFormula(Goals[I], M)) {
          Resolved[I] = 1;
          Out[I] = SatResult::Sat;
          ++Newly;
          --Pending;
        }
      if (Newly == 0) {
        ++Owner.Ext.ProtocolErrors;
        Owner.processFailure("external model satisfies no pending goal");
        return;
      }
      if (!Owner.command("(pop 1)"))
        return;
    }
    Owner.command("(pop 1)"); // Outer scope; failure costs the process
                              // only — every answer is already in hand.
  }

  SmtLibSolver &Owner;
  size_t Id;
  std::string Prefix; ///< Renames this session's variables; namespaces
                      ///< sessions sharing the one process.
  std::string ActSym; ///< This session's Boolean activation constant.
  std::vector<BvFormulaRef> Premises;
  std::unordered_set<std::string> Keys; ///< Structural premise dedup.
  uint64_t SyncedEpoch = 0; ///< Process incarnation last synced to.
  size_t Synced = 0;        ///< Premises already sent to that incarnation.
  std::unique_ptr<SmtSolver::IncrementalSession> FbSession;
};

std::unique_ptr<SmtSolver::IncrementalSession>
SmtLibSolver::openSession(const SessionLimits &Limits) {
  ++Stats.SessionsOpened;
  return std::make_unique<ExtSession>(*this, Limits);
}

//===----------------------------------------------------------------------===//
// CrossCheckSolver
//===----------------------------------------------------------------------===//

CrossCheckSolver::CrossCheckSolver(std::unique_ptr<SmtSolver> Reference,
                                   std::unique_ptr<SmtSolver> External)
    : Ref(std::move(Reference)), Extern(std::move(External)) {
  assert(Ref && Extern && "cross-check needs both backends");
}

CrossCheckSolver::~CrossCheckSolver() = default;

void CrossCheckSolver::diverged(const BvFormulaRef &Query, SatResult RefR,
                                SatResult ExtR) {
  ++X.Divergences;
  std::fprintf(stderr,
               "leapfrog: SOLVER DIVERGENCE: reference answered %s, "
               "external answered %s, on the query:\n%s",
               RefR == SatResult::Sat ? "sat" : "unsat",
               ExtR == SatResult::Sat ? "sat" : "unsat",
               toSmtLibScript(Query).c_str());
  if (AbortOnDivergence) {
    // Same policy as a failed DRUP replay (Solver.cpp): a solver
    // disagreement is a soundness bug in one of the two backends, and no
    // verdict derived from either can be trusted.
    std::fprintf(stderr, "leapfrog: aborting on solver divergence\n");
    std::abort();
  }
}

SatResult CrossCheckSolver::checkSat(const BvFormulaRef &F, Model *M) {
  obs::StopWatch Watch;
  SatResult RefR = Ref->checkSat(F, M);
  SatResult ExtR = Extern->checkSat(F, nullptr);
  ++X.Checked;
  if (RefR != ExtR)
    diverged(F, RefR, ExtR);
  uint64_t Micros = Watch.elapsedMicros();
  ++Stats.Queries;
  Stats.TotalMicros += Micros;
  Stats.MaxMicros = std::max(Stats.MaxMicros, Micros);
  if (RefR == SatResult::Sat)
    ++Stats.SatAnswers;
  else
    ++Stats.UnsatAnswers;
  return RefR;
}

/// Mirrors premises and goals into both children's sessions and compares
/// every answer; keeps the premise formulas so a divergence can be dumped
/// as one self-contained script.
class CrossCheckSolver::CrossSession : public SmtSolver::IncrementalSession {
public:
  CrossSession(CrossCheckSolver &Owner, const SessionLimits &Limits)
      : Owner(Owner), RefSess(Owner.Ref->openSession(Limits)),
        ExtSess(Owner.Extern->openSession(Limits)) {}

  void assertPremise(const BvFormulaRef &F) override {
    ++Owner.Stats.SessionPremises;
    Premises.push_back(F);
    RefSess->assertPremise(F);
    ExtSess->assertPremise(F);
  }

  SatResult checkSatUnderPremises(const BvFormulaRef &Goal,
                                  Model *M) override {
    obs::StopWatch Watch;
    ++Owner.Stats.SessionQueries;
    SatResult RefR = RefSess->checkSatUnderPremises(Goal, M);
    SatResult ExtR = ExtSess->checkSatUnderPremises(Goal, nullptr);
    ++Owner.X.Checked;
    if (RefR != ExtR) {
      // Fold the premises into the dumped query so the script reproduces
      // the disagreement standalone.
      BvFormulaRef Conj = Goal;
      for (size_t I = Premises.size(); I > 0; --I)
        Conj = BvFormula::mkAnd(Premises[I - 1], Conj);
      Owner.diverged(Conj, RefR, ExtR);
    }
    uint64_t Micros = Watch.elapsedMicros();
    SolverStats &St = Owner.Stats;
    ++St.Queries;
    St.TotalMicros += Micros;
    St.MaxMicros = std::max(St.MaxMicros, Micros);
    if (RefR == SatResult::Sat)
      ++St.SatAnswers;
    else
      ++St.UnsatAnswers;
    return RefR;
  }

private:
  CrossCheckSolver &Owner;
  std::vector<BvFormulaRef> Premises;
  std::unique_ptr<SmtSolver::IncrementalSession> RefSess, ExtSess;
};

std::unique_ptr<SmtSolver::IncrementalSession>
CrossCheckSolver::openSession(const SessionLimits &Limits) {
  ++Stats.SessionsOpened;
  return std::make_unique<CrossSession>(*this, Limits);
}

//===----------------------------------------------------------------------===//
// Backend factory
//===----------------------------------------------------------------------===//

std::unique_ptr<SmtSolver>
smt::createSolverBackend(const std::string &Spec, std::string *Error) {
  auto Fail = [&](const std::string &Why) -> std::unique_ptr<SmtSolver> {
    if (Error)
      *Error = Why;
    return nullptr;
  };
  auto MakeExternal = [](const std::string &Cmd) {
    SmtLibConfig Config;
    Config.Argv = SmtLibSolver::splitCommand(Cmd);
    return std::make_unique<SmtLibSolver>(std::move(Config));
  };
  if (Spec.empty() || Spec == "bitblast")
    return std::make_unique<BitBlastSolver>();
  if (Spec.rfind("smtlib:", 0) == 0) {
    std::string Cmd = Spec.substr(7);
    if (SmtLibSolver::splitCommand(Cmd).empty())
      return Fail("smtlib: needs a solver command, e.g. smtlib:z3 -in");
    return MakeExternal(Cmd);
  }
  if (Spec == "crosscheck" || Spec.rfind("crosscheck:", 0) == 0) {
    std::string Cmd =
        Spec == "crosscheck" ? std::string("z3 -in") : Spec.substr(11);
    if (SmtLibSolver::splitCommand(Cmd).empty())
      return Fail("crosscheck: needs a solver command, e.g. "
                  "crosscheck:z3 -in");
    return std::make_unique<CrossCheckSolver>(
        std::make_unique<BitBlastSolver>(), MakeExternal(Cmd));
  }
  return Fail("unknown backend '" + Spec +
              "' (expected bitblast, smtlib:<cmd> or crosscheck[:<cmd>])");
}
