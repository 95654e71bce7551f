//===- ExtSolverTest.cpp - External SMT-LIB backend tests -----------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the out-of-process SMT-LIB2 backend (smt/SmtLibSolver.h) end to
/// end without external dependencies, on two instruments:
///
///  - `leapfrog-smtlib-shim` (tools/smtlib-shim.cpp), an SMT-LIB REPL
///    answered by the in-repo bit-blaster — located through the
///    LEAPFROG_SMTLIB_SHIM environment variable that CMake sets on this
///    test. With it, the subprocess pipeline (pipes, handshake,
///    incremental sessions, get-model parse-back, crosscheck) runs for
///    real in tier-1.
///
///  - `tests/mock_solver.sh` (LEAPFROG_MOCK_SOLVER), a deliberately
///    misbehaving solver: instant EOF, hangs, garbage replies, and
///    *lying* sat/unsat answers. The backend must degrade gracefully to
///    the in-repo solver on all of them — answers never change — and the
///    crosscheck backend must expose the liars.
///
/// The ExternalSolver* suite at the bottom runs only when a real solver
/// binary is present (LEAPFROG_EXT_SOLVER, default "z3 -in"): it skips
/// cleanly when the binary is missing, unless LEAPFROG_REQUIRE_EXT is set
/// (the CI smt-external job sets it so a broken z3 install cannot pass
/// silently).
///
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "core/Engine.h"
#include "parsers/CaseStudies.h"
#include "smt/SmtLibSolver.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::smt;

namespace {

BvTermRef var(const std::string &N, size_t W) { return BvTerm::mkVar(N, W); }
BvTermRef lit(const std::string &Bits) {
  return BvTerm::mkConst(Bitvector::fromString(Bits));
}

/// The shim command — probed with one trivial query so a wrong path or
/// a non-executable file skips the suite (with a loud reason) instead of
/// failing every fallback-count assertion. "" = skip.
std::string shimCommand() {
  const char *Env = std::getenv("LEAPFROG_SMTLIB_SHIM");
  if (!Env || !*Env)
    return "";
  static std::string Probed = [&]() -> std::string {
    SmtLibConfig C;
    C.Argv = SmtLibSolver::splitCommand(Env);
    C.QueryTimeoutMs = 20000;
    C.WarnOnFallback = false;
    SmtLibSolver Probe(C);
    BvTermRef X = BvTerm::mkVar("probe", 2);
    (void)Probe.checkSat(BvFormula::mkEq(X, X), nullptr);
    return Probe.extStats().ExternalQueries == 1 ? std::string(Env)
                                                 : std::string();
  }();
  return Probed;
}

/// The mock-solver command for failure mode \p Mode.
std::string mockCommand(const std::string &Mode) {
  const char *Env = std::getenv("LEAPFROG_MOCK_SOLVER");
  if (!Env)
    return "";
  return std::string("sh ") + Env + " " + Mode;
}

SmtLibConfig configFor(const std::string &Cmd, int TimeoutMs = 20000) {
  SmtLibConfig C;
  C.Argv = SmtLibSolver::splitCommand(Cmd);
  C.QueryTimeoutMs = TimeoutMs;
  C.WarnOnFallback = false; // Tests provoke fallbacks on purpose.
  return C;
}

#define REQUIRE_SHIM(ShimVar)                                              \
  std::string ShimVar = shimCommand();                                     \
  if (ShimVar.empty())                                                     \
    GTEST_SKIP() << "LEAPFROG_SMTLIB_SHIM unset or not runnable (run "     \
                    "under ctest after a full build)";

#define REQUIRE_MOCK(MockVar, Mode)                                        \
  std::string MockVar = mockCommand(Mode);                                 \
  if (MockVar.empty())                                                     \
    GTEST_SKIP() << "LEAPFROG_MOCK_SOLVER not set (run under ctest)";

/// Xorshift RNG + random formula generator over x (3 bits) and y (2
/// bits) — the same distribution SmtTest's blaster fuzz uses, so the
/// external pipeline is exercised on formulas known to stress the
/// printer (constant folding, nested extracts, straddling concats).
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  size_t below(size_t N) { return size_t(next() % N); }
};

BvTermRef randomTerm(Rng &R, int Depth) {
  if (Depth == 0 || R.below(3) == 0) {
    switch (R.below(3)) {
    case 0:
      return var("x", 3);
    case 1:
      return var("y", 2);
    default: {
      Bitvector BV;
      size_t Len = 1 + R.below(3);
      for (size_t I = 0; I < Len; ++I)
        BV.pushBack(R.below(2));
      return BvTerm::mkConst(BV);
    }
    }
  }
  if (R.below(2) == 0)
    return BvTerm::mkConcat(randomTerm(R, Depth - 1),
                            randomTerm(R, Depth - 1));
  BvTermRef Op = randomTerm(R, Depth - 1);
  if (Op->width() == 0)
    return Op;
  size_t Lo = R.below(Op->width());
  size_t Hi = Lo + R.below(Op->width() - Lo);
  return BvTerm::mkExtract(Op, Lo, Hi);
}

BvFormulaRef randomFormula(Rng &R, int Depth) {
  if (Depth == 0 || R.below(4) == 0) {
    BvTermRef A = randomTerm(R, 2);
    Bitvector BV;
    for (size_t I = 0; I < A->width(); ++I)
      BV.pushBack(R.below(2));
    return BvFormula::mkEq(A, BvTerm::mkConst(BV));
  }
  switch (R.below(4)) {
  case 0:
    return BvFormula::mkNot(randomFormula(R, Depth - 1));
  case 1:
    return BvFormula::mkAnd(randomFormula(R, Depth - 1),
                            randomFormula(R, Depth - 1));
  case 2:
    return BvFormula::mkOr(randomFormula(R, Depth - 1),
                           randomFormula(R, Depth - 1));
  default:
    return BvFormula::mkImplies(randomFormula(R, Depth - 1),
                                randomFormula(R, Depth - 1));
  }
}

/// The fast registry studies (sub-second rows of Table 2) the checker
/// differentials run on; the big Applicability self-comparisons belong to
/// the z3-gated registry sweep, budget-capped.
std::vector<parsers::CaseStudy> smallStudies() {
  std::vector<parsers::CaseStudy> Out;
  for (parsers::CaseStudy &S : parsers::allCaseStudies()) {
    if (S.Name == "State Rearrangement" ||
        S.Name == "Header initialization" || S.Name == "Speculative loop" ||
        S.Name == "Relational verification" || S.Name == "External filtering")
      Out.push_back(std::move(S));
  }
  return Out;
}

/// Runs one study through the checker on \p Solver.
core::CheckResult runStudy(const parsers::CaseStudy &S,
                           smt::SmtSolver &Solver) {
  core::CheckOptions O;
  O.Solver = &Solver;
  return core::checkLanguageEquivalence(S.Left, S.LeftStart, S.Right,
                                        S.RightStart, O);
}

void expectSameDecisions(const core::CheckResult &A,
                         const core::CheckResult &B,
                         const std::string &Study) {
  EXPECT_EQ(A.V, B.V) << Study;
  EXPECT_EQ(A.Stats.Iterations, B.Stats.Iterations) << Study;
  EXPECT_EQ(A.Stats.Skips, B.Stats.Skips) << Study;
  EXPECT_EQ(A.Stats.Extends, B.Stats.Extends) << Study;
  EXPECT_EQ(A.Stats.FinalConjuncts, B.Stats.FinalConjuncts) << Study;
}

//===----------------------------------------------------------------------===//
// Backend factory
//===----------------------------------------------------------------------===//

TEST(BackendFactory, ParsesSpecs) {
  std::string Err;
  EXPECT_NE(createSolverBackend("bitblast", &Err), nullptr);
  EXPECT_NE(createSolverBackend("", &Err), nullptr);
  EXPECT_NE(createSolverBackend("smtlib:z3 -in", &Err), nullptr);
  EXPECT_NE(createSolverBackend("crosscheck", &Err), nullptr);
  EXPECT_NE(createSolverBackend("crosscheck:cvc5 --incremental", &Err),
            nullptr);
  EXPECT_EQ(createSolverBackend("smtlib:", &Err), nullptr);
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(createSolverBackend("crosscheck:", &Err), nullptr);
  EXPECT_EQ(createSolverBackend("qbf:magic", &Err), nullptr);
  // There is no racing backend: a portfolio spec is unknown like any other.
  EXPECT_EQ(createSolverBackend("portfolio:bitblast,bitblast", &Err),
            nullptr);
  EXPECT_NE(Err.find("unknown backend"), std::string::npos) << Err;
}

TEST(BackendFactory, SplitCommand) {
  auto Argv = SmtLibSolver::splitCommand("  z3   -in\t-smt2 ");
  ASSERT_EQ(Argv.size(), 3u);
  EXPECT_EQ(Argv[0], "z3");
  EXPECT_EQ(Argv[1], "-in");
  EXPECT_EQ(Argv[2], "-smt2");
  EXPECT_TRUE(SmtLibSolver::splitCommand("").empty());
}

TEST(BackendFactory, EngineBackendSpecIsResolved) {
  // core::Engine resolves its backend spec through the factory; the
  // resolved backend decides exactly like a directly built instance.
  auto Studies = smallStudies();
  ASSERT_FALSE(Studies.empty());
  const parsers::CaseStudy &S = Studies.front();
  core::EngineConfig Cfg;
  Cfg.Backend = "bitblast";
  std::string Err;
  std::unique_ptr<core::Engine> Engine = core::Engine::create(Cfg, &Err);
  ASSERT_NE(Engine, nullptr) << Err;
  core::CheckResult ViaSpec = runStudy(S, Engine->solver());
  smt::BitBlastSolver Direct;
  core::CheckResult ViaInstance = runStudy(S, Direct);
  expectSameDecisions(ViaSpec, ViaInstance, S.Name);
}

//===----------------------------------------------------------------------===//
// Shim-backed: the real pipeline, no external dependency
//===----------------------------------------------------------------------===//

TEST(ShimBackend, OneShotAgreesWithBitBlast) {
  REQUIRE_SHIM(Shim);
  SmtLibSolver Plain(configFor(Shim));
  BitBlastSolver Ref;
  for (int Seed = 0; Seed < 60; ++Seed) {
    Rng R{uint64_t(Seed) + 99};
    BvFormulaRef F = randomFormula(R, 3);
    Model M;
    SatResult ExtR = Plain.checkSat(F, &M);
    SatResult RefR = Ref.checkSat(F, nullptr);
    ASSERT_EQ(ExtR, RefR) << "seed " << Seed << ": " << F->str();
    if (ExtR == SatResult::Sat) {
      // The parsed-back external model must actually satisfy F.
      auto Has = [&M](const std::string &N) {
        for (auto &[Name, V] : M)
          if (Name == N)
            return true;
        return false;
      };
      if (!Has("x"))
        M.emplace_back("x", Bitvector(3));
      if (!Has("y"))
        M.emplace_back("y", Bitvector(2));
      EXPECT_TRUE(evalFormula(F, M)) << "seed " << Seed;
    }
  }
  EXPECT_EQ(Plain.extStats().FallbackQueries, 0u);
  EXPECT_GT(Plain.extStats().ExternalQueries, 0u);
  EXPECT_EQ(Plain.extStats().Spawns, 1u); // One process, many queries.
  EXPECT_FALSE(Plain.permanentFallback());
}

TEST(ShimBackend, SessionAgreesWithMonolithic) {
  REQUIRE_SHIM(Shim);
  SmtLibSolver Ext(configFor(Shim));
  BitBlastSolver Ref;
  for (int Seed = 0; Seed < 12; ++Seed) {
    Rng R{uint64_t(Seed) + 4242};
    auto Sess = Ext.openSession();
    std::vector<BvFormulaRef> Premises;
    for (int Round = 0; Round < 6; ++Round) {
      if (R.below(2) == 0) {
        BvFormulaRef P = randomFormula(R, 2);
        Premises.push_back(P);
        Sess->assertPremise(P);
      }
      BvFormulaRef Goal = randomFormula(R, 2);
      BvFormulaRef Conj = Goal;
      for (size_t I = Premises.size(); I > 0; --I)
        Conj = BvFormula::mkAnd(Premises[I - 1], Conj);
      Model M;
      SatResult Inc = Sess->checkSatUnderPremises(Goal, &M);
      SatResult Mono = Ref.checkSat(Conj, nullptr);
      ASSERT_EQ(Inc, Mono) << "seed " << Seed << " round " << Round;
      if (Inc == SatResult::Sat) {
        auto Has = [&M](const std::string &N) {
          for (auto &[Name, V] : M)
            if (Name == N)
              return true;
          return false;
        };
        if (!Has("x"))
          M.emplace_back("x", Bitvector(3));
        if (!Has("y"))
          M.emplace_back("y", Bitvector(2));
        EXPECT_TRUE(evalFormula(Conj, M))
            << "external session model violates premises, seed " << Seed;
      }
    }
  }
  EXPECT_EQ(Ext.extStats().FallbackQueries, 0u);
  // All sessions multiplex one process.
  EXPECT_EQ(Ext.extStats().Spawns, 1u);
}

TEST(ShimBackend, CheckerDifferentialOnSmallStudies) {
  REQUIRE_SHIM(Shim);
  for (const parsers::CaseStudy &S : smallStudies()) {
    SmtLibSolver Ext(configFor(Shim));
    BitBlastSolver Ref;
    core::CheckResult ExtRes = runStudy(S, Ext);
    core::CheckResult RefRes = runStudy(S, Ref);
    expectSameDecisions(ExtRes, RefRes, S.Name);
    EXPECT_EQ(Ext.extStats().FallbackQueries, 0u) << S.Name;
    EXPECT_GT(Ext.extStats().ExternalQueries, 0u) << S.Name;
  }
}

TEST(ShimBackend, CrossCheckReportsZeroDivergences) {
  REQUIRE_SHIM(Shim);
  for (const parsers::CaseStudy &S : smallStudies()) {
    auto Solver = createSolverBackend("crosscheck:" + Shim, nullptr);
    ASSERT_NE(Solver, nullptr);
    auto *Cross = dynamic_cast<CrossCheckSolver *>(Solver.get());
    ASSERT_NE(Cross, nullptr);
    core::CheckResult Res = runStudy(S, *Solver);
    (void)Res;
    EXPECT_GT(Cross->crossStats().Checked, 0u) << S.Name;
    EXPECT_EQ(Cross->crossStats().Divergences, 0u) << S.Name;
    auto *Ext = dynamic_cast<SmtLibSolver *>(&Cross->external());
    ASSERT_NE(Ext, nullptr);
    EXPECT_EQ(Ext->extStats().FallbackQueries, 0u) << S.Name;
  }
}

//===----------------------------------------------------------------------===//
// Process lifecycle: every failure mode degrades, no answer changes
//===----------------------------------------------------------------------===//

/// The answers any backend must give on this pair of fixed queries.
void expectCorrectAnswers(SmtSolver &S) {
  BvTermRef X = var("x", 3);
  // Unsat: x[0:0] = 1 ∧ x[0:0] = 0.
  BvFormulaRef Unsat = BvFormula::mkAnd(
      BvFormula::mkEq(BvTerm::mkExtract(X, 0, 0), lit("1")),
      BvFormula::mkEq(BvTerm::mkExtract(X, 0, 0), lit("0")));
  EXPECT_EQ(S.checkSat(Unsat, nullptr), SatResult::Unsat);
  // Sat, with a checked model.
  BvFormulaRef Sat = BvFormula::mkEq(X, lit("101"));
  Model M;
  ASSERT_EQ(S.checkSat(Sat, &M), SatResult::Sat);
  EXPECT_TRUE(evalFormula(Sat, M));
}

/// Open file-descriptor count of this process — the leak check bracket
/// around a solver's construction/destruction.
size_t openFdCount() {
  DIR *D = opendir("/proc/self/fd");
  if (!D)
    return 0; // Not a procfs platform; the bracket degrades to 0 == 0.
  size_t N = 0;
  while (struct dirent *E = readdir(D))
    if (E->d_name[0] != '.')
      ++N;
  closedir(D);
  return N;
}

/// PIDs the mock solver appended to \p Path (LEAPFROG_MOCK_PIDFILE).
std::vector<pid_t> readPidFile(const std::string &Path) {
  std::vector<pid_t> Pids;
  std::ifstream In(Path);
  long Pid;
  while (In >> Pid)
    Pids.push_back(static_cast<pid_t>(Pid));
  return Pids;
}

/// True when every PID in \p Pids is gone (neither running nor zombie).
/// Retries for up to ~5 s, so a slow reap shows as a failure, not a hang.
bool allDeadWithin5s(const std::vector<pid_t> &Pids) {
  for (int Tries = 0; Tries < 500; ++Tries) {
    bool AllDead = true;
    for (pid_t P : Pids) {
      // A zombie still answers kill(P, 0) — only a fully reaped child
      // reports ESRCH, which is exactly the no-zombie claim.
      if (kill(P, 0) == 0 || errno != ESRCH) {
        AllDead = false;
        break;
      }
    }
    if (AllDead)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(ProcessLifecycle, MissingBinaryFallsBack) {
  SmtLibSolver S(configFor("leapfrog-no-such-solver-binary --flag"));
  expectCorrectAnswers(S);
  EXPECT_EQ(S.extStats().ExternalQueries, 0u);
  EXPECT_GE(S.extStats().FallbackQueries, 2u);
}

TEST(ProcessLifecycle, EofOnStartupFallsBack) {
  REQUIRE_MOCK(Mock, "eof");
  SmtLibConfig C = configFor(Mock);
  C.MaxProcessFailures = 2; // One failure per query here; two queries.
  SmtLibSolver S(C);
  expectCorrectAnswers(S);
  EXPECT_EQ(S.extStats().ExternalQueries, 0u);
  EXPECT_GE(S.extStats().FallbackQueries, 2u);
  EXPECT_GT(S.extStats().Eofs, 0u);
  // The failure budget caps respawn attempts for good.
  EXPECT_TRUE(S.permanentFallback());
  EXPECT_LE(S.extStats().Spawns, 2u);
  // Later queries stay correct without any new spawn.
  expectCorrectAnswers(S);
  EXPECT_LE(S.extStats().Spawns, 2u);
}

TEST(ProcessLifecycle, HangingSolverTimesOut) {
  REQUIRE_MOCK(Mock, "hang");
  SmtLibConfig C = configFor(Mock, /*TimeoutMs=*/200);
  C.MaxProcessFailures = 2;
  SmtLibSolver S(C);
  expectCorrectAnswers(S);
  EXPECT_GT(S.extStats().Timeouts, 0u);
  EXPECT_EQ(S.extStats().ExternalQueries, 0u);
  EXPECT_TRUE(S.permanentFallback());
}

TEST(ProcessLifecycle, GarbageReplyIsAProtocolError) {
  REQUIRE_MOCK(Mock, "garbage");
  // The mock records its PID before it answers the handshake, so every
  // process this backend spawns is on file before it is killed.
  std::string PidFile = ::testing::TempDir() + "mock_pids_" +
                        std::to_string(static_cast<long>(getpid())) + ".txt";
  std::remove(PidFile.c_str());
  setenv("LEAPFROG_MOCK_PIDFILE", PidFile.c_str(), 1);
  size_t FdsBefore = openFdCount();
  uint64_t Spawns = 0;
  {
    SmtLibSolver S(configFor(Mock));
    expectCorrectAnswers(S);
    EXPECT_GT(S.extStats().ProtocolErrors, 0u);
    EXPECT_EQ(S.extStats().ExternalQueries, 0u);
    Spawns = S.extStats().Spawns;
  }
  unsetenv("LEAPFROG_MOCK_PIDFILE");
  std::vector<pid_t> Pids = readPidFile(PidFile);
  std::remove(PidFile.c_str());
  // Each garbage reply killed its process and the next query spawned a
  // new one. Once the solver is gone, every one of them must be fully
  // reaped — not running, not a zombie — and every pipe fd closed.
  EXPECT_GE(Spawns, 2u);
  EXPECT_EQ(Pids.size(), Spawns);
  EXPECT_TRUE(allDeadWithin5s(Pids)) << "solver process alive or a zombie";
  EXPECT_EQ(openFdCount(), FdsBefore) << "solver process left an fd open";
}

TEST(ProcessLifecycle, ErrorReplyIsAProtocolError) {
  REQUIRE_MOCK(Mock, "error");
  SmtLibSolver S(configFor(Mock));
  expectCorrectAnswers(S);
  EXPECT_GT(S.extStats().ProtocolErrors, 0u);
  EXPECT_EQ(S.extStats().ExternalQueries, 0u);
}

TEST(ProcessLifecycle, SessionsSurviveProcessDeath) {
  REQUIRE_MOCK(Mock, "garbage");
  // A session on a dying backend must answer every query correctly
  // through its mirrored in-repo fallback session.
  SmtLibSolver S(configFor(Mock));
  auto Sess = S.openSession();
  BvTermRef X = var("x", 4);
  Sess->assertPremise(BvFormula::mkEq(X, lit("1010")));
  EXPECT_TRUE(Sess->isEntailed(BvFormula::mkEq(X, lit("1010"))));
  EXPECT_FALSE(Sess->isEntailed(BvFormula::mkEq(X, lit("1111"))));
  EXPECT_TRUE(Sess->isEntailed(
      BvFormula::mkEq(BvTerm::mkExtract(X, 0, 1), lit("10"))));
  EXPECT_GE(S.extStats().FallbackQueries, 3u);
}

TEST(ProcessLifecycle, LyingSatSolverIsCaughtByModelValidation) {
  REQUIRE_MOCK(MockSat, "always-sat");
  // A solver that answers sat on everything cannot substantiate the
  // claim: model validation (on by default) evaluates the parsed-back
  // model against the query, fails, and demotes the answer to the
  // in-repo fallback — so even the *plain* smtlib backend keeps correct
  // answers against a sat-lying solver, no crosscheck needed.
  SmtLibSolver S(configFor(MockSat));
  BvTermRef X = var("x", 2);
  BvFormulaRef Unsat = BvFormula::mkAnd(BvFormula::mkEq(X, lit("00")),
                                        BvFormula::mkEq(X, lit("11")));
  EXPECT_EQ(S.checkSat(Unsat, nullptr), SatResult::Unsat);
  EXPECT_GT(S.extStats().ProtocolErrors, 0u);
  EXPECT_EQ(S.extStats().ExternalQueries, 0u);
}

TEST(ProcessLifecycle, LyingSatSolverIsExposedByCrossCheckWhenUnvalidated) {
  REQUIRE_MOCK(MockSat, "always-sat");
  // With model validation explicitly off, a sat-lying solver does pass
  // through the plain backend (that is what trusting a solver means) —
  // and the crosscheck backend then flags the divergence on the first
  // unsat query.
  SmtLibConfig C = configFor(MockSat);
  C.ValidateModels = false;
  auto Cross = std::make_unique<CrossCheckSolver>(
      std::make_unique<BitBlastSolver>(),
      std::make_unique<SmtLibSolver>(C));
  Cross->AbortOnDivergence = false; // Count, don't abort, for the test.
  BvTermRef X = var("x", 2);
  BvFormulaRef Unsat = BvFormula::mkAnd(BvFormula::mkEq(X, lit("00")),
                                        BvFormula::mkEq(X, lit("11")));
  ::testing::internal::CaptureStderr(); // The divergence dump is expected.
  EXPECT_EQ(Cross->checkSat(Unsat, nullptr), SatResult::Unsat);
  std::string Dump = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(Cross->crossStats().Divergences, 1u);
  EXPECT_NE(Dump.find("SOLVER DIVERGENCE"), std::string::npos);
  // Sat queries agree (the mock is right by accident) — no new report.
  EXPECT_EQ(Cross->checkSat(BvFormula::mkEq(X, lit("01")), nullptr),
            SatResult::Sat);
  EXPECT_EQ(Cross->crossStats().Divergences, 1u);
}

TEST(ProcessLifecycle, LyingUnsatSolverIsExposedInSessions) {
  REQUIRE_MOCK(MockUnsat, "always-unsat");
  auto Cross = std::make_unique<CrossCheckSolver>(
      std::make_unique<BitBlastSolver>(),
      std::make_unique<SmtLibSolver>(configFor(MockUnsat)));
  Cross->AbortOnDivergence = false;
  auto Sess = Cross->openSession();
  BvTermRef X = var("x", 2);
  Sess->assertPremise(BvFormula::mkEq(X, lit("10")));
  ::testing::internal::CaptureStderr();
  // Premise ∧ (x = 10) is sat; the mock claims unsat → divergence, and
  // the reference answer is what the caller sees.
  EXPECT_EQ(Sess->checkSatUnderPremises(BvFormula::mkEq(X, lit("10")),
                                        nullptr),
            SatResult::Sat);
  std::string Dump = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(Cross->crossStats().Divergences, 1u);
  // The dump folds the premises in, so the script reproduces standalone.
  EXPECT_NE(Dump.find("(check-sat)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ExternalSolver*: gated on a real solver binary (z3 by default)
//===----------------------------------------------------------------------===//

/// The external solver command ("z3 -in" unless LEAPFROG_EXT_SOLVER
/// overrides) — or "" when the binary does not answer a probe query, in
/// which case the ExternalSolver tests skip (or fail loudly under
/// LEAPFROG_REQUIRE_EXT=1, the CI smt-external job's setting).
std::string externalCommandOrSkipReason(std::string &Skip) {
  const char *Env = std::getenv("LEAPFROG_EXT_SOLVER");
  std::string Cmd = Env && *Env ? Env : "z3 -in";
  SmtLibSolver Probe(configFor(Cmd, /*TimeoutMs=*/10000));
  BvTermRef X = BvTerm::mkVar("probe", 2);
  (void)Probe.checkSat(BvFormula::mkEq(X, X), nullptr);
  if (Probe.extStats().ExternalQueries == 1)
    return Cmd;
  Skip = "external solver '" + Cmd + "' not available";
  return "";
}

#define REQUIRE_EXTERNAL(CmdVar)                                           \
  std::string CmdVar;                                                      \
  {                                                                        \
    std::string Skip;                                                      \
    CmdVar = externalCommandOrSkipReason(Skip);                            \
    if (CmdVar.empty()) {                                                  \
      const char *Req = std::getenv("LEAPFROG_REQUIRE_EXT");               \
      if (Req && *Req && std::string(Req) != "0")                          \
        FAIL() << Skip << " but LEAPFROG_REQUIRE_EXT is set";              \
      GTEST_SKIP() << Skip;                                                \
    }                                                                      \
  }

TEST(ExternalSolver, OneShotAgreesWithBitBlast) {
  REQUIRE_EXTERNAL(Cmd);
  SmtLibSolver Ext(configFor(Cmd));
  BitBlastSolver Ref;
  for (int Seed = 0; Seed < 40; ++Seed) {
    Rng R{uint64_t(Seed) + 7};
    BvFormulaRef F = randomFormula(R, 3);
    Model M;
    SatResult ExtR = Ext.checkSat(F, &M);
    ASSERT_EQ(ExtR, Ref.checkSat(F, nullptr))
        << "seed " << Seed << ": " << F->str();
    if (ExtR == SatResult::Sat) {
      auto Has = [&M](const std::string &N) {
        for (auto &[Name, V] : M)
          if (Name == N)
            return true;
        return false;
      };
      if (!Has("x"))
        M.emplace_back("x", Bitvector(3));
      if (!Has("y"))
        M.emplace_back("y", Bitvector(2));
      EXPECT_TRUE(evalFormula(F, M)) << "seed " << Seed;
    }
  }
  EXPECT_EQ(Ext.extStats().FallbackQueries, 0u);
}

TEST(ExternalSolver, CrossCheckSmallStudies) {
  REQUIRE_EXTERNAL(Cmd);
  for (const parsers::CaseStudy &S : smallStudies()) {
    auto Solver = createSolverBackend("crosscheck:" + Cmd, nullptr);
    ASSERT_NE(Solver, nullptr);
    auto *Cross = dynamic_cast<CrossCheckSolver *>(Solver.get());
    core::CheckResult Res = runStudy(S, *Solver);
    (void)Res;
    EXPECT_GT(Cross->crossStats().Checked, 0u) << S.Name;
    EXPECT_EQ(Cross->crossStats().Divergences, 0u) << S.Name;
    auto *Ext = dynamic_cast<SmtLibSolver *>(&Cross->external());
    EXPECT_EQ(Ext->extStats().FallbackQueries, 0u) << S.Name;
  }
}

TEST(ExternalSolver, CrossCheckRegistrySweepBudgeted) {
  REQUIRE_EXTERNAL(Cmd);
  // All 10 registry studies under an iteration budget: the point is
  // divergence-freedom over a large, diverse query stream, not finishing
  // the big self-comparisons (ResourceLimit verdicts are expected and
  // fine — every query posed before the budget still got cross-checked).
  for (const parsers::CaseStudy &S : parsers::allCaseStudies()) {
    auto Solver = createSolverBackend("crosscheck:" + Cmd, nullptr);
    ASSERT_NE(Solver, nullptr);
    auto *Cross = dynamic_cast<CrossCheckSolver *>(Solver.get());
    core::CheckOptions O;
    O.Solver = Solver.get();
    O.MaxIterations = 300;
    core::CheckResult Res = core::checkLanguageEquivalence(
        S.Left, S.LeftStart, S.Right, S.RightStart, O);
    (void)Res;
    EXPECT_GT(Cross->crossStats().Checked, 0u) << S.Name;
    EXPECT_EQ(Cross->crossStats().Divergences, 0u) << S.Name;
  }
}

TEST(ExternalSolver, CheckerDifferentialOnSmallStudies) {
  REQUIRE_EXTERNAL(Cmd);
  for (const parsers::CaseStudy &S : smallStudies()) {
    SmtLibSolver Ext(configFor(Cmd));
    BitBlastSolver Ref;
    core::CheckResult ExtRes = runStudy(S, Ext);
    core::CheckResult RefRes = runStudy(S, Ref);
    expectSameDecisions(ExtRes, RefRes, S.Name);
    EXPECT_EQ(Ext.extStats().FallbackQueries, 0u) << S.Name;
  }
}

} // namespace
