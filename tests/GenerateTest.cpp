//===- GenerateTest.cpp - Generator-driven differential battery -----------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The random surface-parser generator (frontend/Generate.h) and the
// differential battery built on it. Three layers:
//
//  1. Invariants — every generated program is well-typed by construction:
//     elaborate() succeeds, the result type-checks, and the program
//     survives a print -> parse -> print fixpoint (so any failing seed
//     can be dumped as .lfp text that reproduces byte-identically).
//
//  2. Positive control — renameStates() twins are equivalent by
//     construction and the checker must say so.
//
//  3. Differential fuzz — for each seed, the (program, mutant) pair is
//     checked under every backend configuration (and certified); all
//     runs must return the same verdict and the same decision counters.
//     On any mismatch the
//     harness prints the seed and dumps both sides as .lfp files, so
//     `leapfrog-cli --file` replays the exact failing pair.
//
// Iteration counts scale with LEAPFROG_FUZZ_ITERS (tests/FuzzSupport.h);
// the nightly fuzz job runs this battery 100x deeper.
//
//===----------------------------------------------------------------------===//

#include "cert/CertVerify.h"
#include "core/CertificateIo.h"
#include "core/Checker.h"
#include "core/Engine.h"
#include "frontend/Elaborate.h"
#include "frontend/Generate.h"
#include "frontend/Text.h"
#include "p4a/Typing.h"
#include "smt/SmtLibSolver.h"

#include "FuzzSupport.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::frontend;
using leapfrog::testing::fuzzIters;
using leapfrog::testing::reportFuzzConfig;

namespace {

/// The SMT-LIB shim command, probed once (same idiom as ExtSolverTest):
/// "" means the env var is unset or the binary does not answer, and the
/// external-backend leg of the differential matrix is skipped.
std::string shimCommand() {
  const char *Env = std::getenv("LEAPFROG_SMTLIB_SHIM");
  if (!Env || !*Env)
    return "";
  static std::string Probed = [&]() -> std::string {
    smt::SmtLibConfig C;
    C.Argv = smt::SmtLibSolver::splitCommand(Env);
    C.QueryTimeoutMs = 20000;
    C.WarnOnFallback = false;
    smt::SmtLibSolver Probe(C);
    smt::BvTermRef X = smt::BvTerm::mkVar("probe", 2);
    (void)Probe.checkSat(smt::BvFormula::mkEq(X, X), nullptr);
    return Probe.extStats().ExternalQueries == 1 ? std::string(Env)
                                                 : std::string();
  }();
  return Probed;
}

/// Elaborates \p Program, asserting success; failures print the full
/// surface text so the seed reproduces without a debugger.
ElaborationResult elaborateChecked(const SurfaceProgram &Program,
                                   uint64_t Seed, const char *Role) {
  ElaborationResult E = elaborate(Program);
  if (!E.ok()) {
    ADD_FAILURE() << Role << " of seed " << Seed << " failed to elaborate:";
    for (const std::string &Err : E.Errors)
      ADD_FAILURE() << "  " << Err;
    ADD_FAILURE() << "program:\n" << printSurface(Program);
  }
  return E;
}

/// Writes \p Program next to the test binary as <stem>.lfp and returns
/// the path, so a differential mismatch leaves a ready-to-replay pair.
std::string dumpProgram(const SurfaceProgram &Program,
                        const std::string &Stem) {
  std::string Path = Stem + ".lfp";
  std::ofstream Out(Path);
  Out << printSurface(Program);
  return Path;
}

/// \p MaxIterations defaults tight: the differential layer only asserts
/// that every backend configuration *agrees*, which holds for
/// ResourceLimit runs too, and a tight budget keeps the matrix fast at
/// nightly depth. The positive control (RenamedTwinSweep) must
/// actually converge to Equivalent, so it passes the big budget — rare
/// seeds (first at 5128, nightly depth) need tens of thousands of
/// iterations.
core::CheckResult runCheck(const ElaborationResult &L,
                           const ElaborationResult &R,
                           const std::string &Backend,
                           size_t MaxIterations = 2000,
                           bool Certify = false) {
  core::EngineConfig Cfg;
  Cfg.Backend = Backend;
  std::string Err;
  std::unique_ptr<core::Engine> Engine = core::Engine::create(Cfg, &Err);
  EXPECT_NE(Engine, nullptr) << Err;
  if (!Engine)
    return core::CheckResult();
  core::CheckOptions Options;
  Options.MaxIterations = MaxIterations;
  Options.Solver = &Engine->solver();
  Options.RecordTrace = true;
  Options.Certify = Certify;
  return core::checkLanguageEquivalence(
      L.Aut, p4a::StateRef::normal(*L.Aut.findState(L.Entry)), R.Aut,
      p4a::StateRef::normal(*R.Aut.findState(R.Entry)), Options);
}

/// Serializes an Equivalent certified result to LFCERT and runs the
/// engine-free verifier over it; any rejection fails the calling test
/// with the seed and the verifier's located diagnostic.
void expectCertificateVerifies(const ElaborationResult &L,
                               const ElaborationResult &R,
                               const core::CheckResult &Res, uint64_t Seed) {
  ASSERT_EQ(Res.V, core::Verdict::Equivalent);
  ASSERT_NE(Res.Proof, nullptr) << "seed " << Seed << ": certified run "
                                << "produced no proof log";
  std::string Text = core::serializeCertificate(L.Aut, R.Aut, Res.Certificate,
                                                Res.Proof.get(), "-");
  cert::VerifyResult V = cert::verifyCertificate(Text, {});
  EXPECT_TRUE(V.Ok) << "seed " << Seed << ": " << V.Diagnostic;
  EXPECT_EQ(V.Stats.RelationConjuncts, Res.Certificate.Relation.size())
      << "seed " << Seed;
}

const char *verdictName(core::Verdict V) {
  switch (V) {
  case core::Verdict::Equivalent:
    return "EQUIVALENT";
  case core::Verdict::NotEquivalent:
    return "NOT_EQUIVALENT";
  case core::Verdict::ResourceLimit:
    return "RESOURCE_LIMIT";
  case core::Verdict::BadRequest:
    return "BAD_REQUEST";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Layer 1: generated programs are well-typed by construction.
//===----------------------------------------------------------------------===//

class GeneratorInvariants : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorInvariants, GeneratedProgramsElaborateAndRoundTrip) {
  const uint64_t Seed = uint64_t(GetParam());
  reportFuzzConfig("GeneratorInvariants", fuzzIters(60), Seed);

  SurfaceProgram P = generateProgram(Seed);
  ElaborationResult E = elaborateChecked(P, Seed, "program");
  ASSERT_TRUE(E.ok());
  EXPECT_TRUE(p4a::isWellTyped(E.Aut)) << "seed " << Seed;

  // Determinism: the same seed yields byte-identical text.
  EXPECT_EQ(printSurface(P), printSurface(generateProgram(Seed)));

  // Textual fixpoint: print -> parse -> print is the identity, so any
  // failing seed can be shipped as a .lfp file.
  TextParseResult Parsed = parseSurface(printSurface(P));
  ASSERT_TRUE(Parsed.ok()) << "seed " << Seed << " did not re-parse: "
                           << (Parsed.Errors.empty() ? ""
                                                     : Parsed.Errors.front());
  EXPECT_EQ(printSurface(P), printSurface(Parsed.Program)) << "seed " << Seed;

  // The twin and the mutant must stay inside the well-typed fragment.
  ElaborationResult Twin =
      elaborateChecked(renameStates(P, "_r"), Seed, "renamed twin");
  EXPECT_TRUE(Twin.ok());
  ElaborationResult Mutant =
      elaborateChecked(mutateProgram(P, Seed), Seed, "mutant");
  EXPECT_TRUE(Mutant.ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeneratorInvariants,
                         ::testing::Range(0, fuzzIters(60)));

//===----------------------------------------------------------------------===//
// Layer 2: positive control — a renamed twin is equivalent.
//===----------------------------------------------------------------------===//

class RenamedTwinSweep : public ::testing::TestWithParam<int> {};

TEST_P(RenamedTwinSweep, RenamedTwinIsEquivalent) {
  const uint64_t Seed = uint64_t(GetParam()) + 5000;
  reportFuzzConfig("RenamedTwinSweep", fuzzIters(15), Seed);

  SurfaceProgram P = generateProgram(Seed);
  ElaborationResult L = elaborateChecked(P, Seed, "program");
  ElaborationResult R =
      elaborateChecked(renameStates(P, "_r"), Seed, "renamed twin");
  ASSERT_TRUE(L.ok() && R.ok());

  core::CheckResult Res = runCheck(L, R, "bitblast", 50000);
  ASSERT_EQ(Res.V, core::Verdict::Equivalent)
      << "seed " << Seed << " verdict " << verdictName(Res.V) << "\n"
      << printSurface(P);

  // The certified re-run must make the same decisions bit for bit and
  // stream a certificate the engine-free verifier accepts — every
  // generated Equivalent pair carries its proof, nightly depth included.
  core::CheckResult Certified =
      runCheck(L, R, "bitblast", 50000, /*Certify=*/true);
  EXPECT_EQ(Certified.V, Res.V) << "seed " << Seed;
  EXPECT_EQ(Certified.Stats.Iterations, Res.Stats.Iterations)
      << "seed " << Seed;
  EXPECT_EQ(Certified.Stats.Extends, Res.Stats.Extends) << "seed " << Seed;
  EXPECT_EQ(Certified.Stats.Skips, Res.Stats.Skips) << "seed " << Seed;
  EXPECT_EQ(Certified.Certificate.str(L.Aut, R.Aut),
            Res.Certificate.str(L.Aut, R.Aut))
      << "seed " << Seed;
  expectCertificateVerifies(L, R, Certified, Seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RenamedTwinSweep,
                         ::testing::Range(0, fuzzIters(15)));

//===----------------------------------------------------------------------===//
// Layer 3: differential fuzz across backend configurations.
//===----------------------------------------------------------------------===//

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, AllConfigurationsAgreeOnMutantPairs) {
  const uint64_t Seed = uint64_t(GetParam()) + 9000;
  reportFuzzConfig("DifferentialFuzz", fuzzIters(10), Seed);

  SurfaceProgram P = generateProgram(Seed);
  SurfaceProgram M = mutateProgram(P, Seed * 0x9e3779b97f4a7c15ull + 1);
  ElaborationResult L = elaborateChecked(P, Seed, "program");
  ElaborationResult R = elaborateChecked(M, Seed, "mutant");
  ASSERT_TRUE(L.ok() && R.ok());

  // The reference run: the in-repo backend.
  core::CheckResult Ref = runCheck(L, R, "bitblast");

  std::vector<std::string> Matrix;
  std::string Shim = shimCommand();
  if (!Shim.empty())
    Matrix.push_back("smtlib:" + Shim);

  for (const std::string &Backend : Matrix) {
    core::CheckResult Res = runCheck(L, R, Backend);
    bool Agrees = Res.V == Ref.V;
    // Backends may change performance but never answers — so the
    // deterministic counters must match too, not just verdicts.
    Agrees = Agrees && Res.Stats.Iterations == Ref.Stats.Iterations &&
             Res.Stats.Extends == Ref.Stats.Extends &&
             Res.Stats.Skips == Ref.Stats.Skips &&
             Res.Stats.FinalConjuncts == Ref.Stats.FinalConjuncts &&
             Res.FailureReason == Ref.FailureReason;
    if (!Agrees) {
      std::string LeftPath =
          dumpProgram(P, "generate_fail_" + std::to_string(Seed) + "_left");
      std::string RightPath =
          dumpProgram(M, "generate_fail_" + std::to_string(Seed) + "_right");
      ADD_FAILURE() << "seed " << Seed << ": backend=" << Backend
                    << " returned " << verdictName(Res.V)
                    << " (iters=" << Res.Stats.Iterations
                    << ", extends=" << Res.Stats.Extends
                    << ", skips=" << Res.Stats.Skips << "), reference "
                    << "backend=bitblast returned "
                    << verdictName(Ref.V)
                    << " (iters=" << Ref.Stats.Iterations
                    << ", extends=" << Ref.Stats.Extends
                    << ", skips=" << Ref.Stats.Skips << ")\n"
                    << "pair dumped to " << LeftPath << " / " << RightPath
                    << "\nreplay: leapfrog-cli --file " << LeftPath << " "
                    << RightPath;
    }
  }

  // The certified leg: recording DRUP slices must not perturb a single
  // decision, and when the mutant happens to be equivalent the streamed
  // certificate must survive the engine-free verifier.
  core::CheckResult Certified =
      runCheck(L, R, "bitblast", 2000, /*Certify=*/true);
  EXPECT_EQ(Certified.V, Ref.V) << "seed " << Seed;
  EXPECT_EQ(Certified.Stats.Iterations, Ref.Stats.Iterations)
      << "seed " << Seed;
  EXPECT_EQ(Certified.FailureReason, Ref.FailureReason) << "seed " << Seed;
  if (Certified.V == core::Verdict::Equivalent)
    expectCertificateVerifies(L, R, Certified, Seed);

  // Skipping the shim leg silently would make a green nightly claim more
  // coverage than it ran; say so once per process.
  if (Shim.empty()) {
    static bool Warned = false;
    if (!Warned) {
      Warned = true;
      std::fprintf(stderr, "[fuzz] DifferentialFuzz: LEAPFROG_SMTLIB_SHIM "
                           "unset — external-backend leg skipped\n");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialFuzz,
                         ::testing::Range(0, fuzzIters(10)));

//===----------------------------------------------------------------------===//
// Mutation machinery details.
//===----------------------------------------------------------------------===//

TEST(Generate, MutationsChangeTheProgramText) {
  // Across a seed sweep, mutants must (a) differ textually from their
  // base almost always — a mutation that prints identically is a no-op
  // and weakens the battery — and (b) differ across mutation seeds at
  // least sometimes.
  int Changed = 0;
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    SurfaceProgram P = generateProgram(Seed);
    if (printSurface(mutateProgram(P, Seed + 1)) != printSurface(P))
      ++Changed;
  }
  EXPECT_GE(Changed, 35) << "mutations are mostly no-ops";
}

TEST(Generate, RenameStatesRewritesEveryReference) {
  for (uint64_t Seed = 0; Seed < 25; ++Seed) {
    SurfaceProgram P = generateProgram(Seed);
    SurfaceProgram T = renameStates(P, "_x");
    EXPECT_EQ(T.entry(), P.entry() + "_x") << "seed " << Seed;
    ASSERT_EQ(T.mainStates().size(), P.mainStates().size());
    for (size_t I = 0; I < T.mainStates().size(); ++I)
      EXPECT_EQ(T.mainStates()[I].Name, P.mainStates()[I].Name + "_x");
    // Subparsers keep their names; only main-scope states are renamed.
    ASSERT_EQ(T.subParsers().size(), P.subParsers().size());
    for (size_t I = 0; I < T.subParsers().size(); ++I)
      EXPECT_EQ(T.subParsers()[I].Name, P.subParsers()[I].Name);
  }
}

TEST(Generate, GeneratedProgramsExerciseTheFeatureSet) {
  // The generator must actually emit the surface features it advertises;
  // a regression that silently stops emitting stacks or subparsers would
  // hollow out the battery without failing any other test.
  bool SawStack = false, SawSub = false, SawSelect = false, SawAssign = false,
       SawLookahead = false;
  for (uint64_t Seed = 0; Seed < 80; ++Seed) {
    SurfaceProgram P = generateProgram(Seed);
    SawStack |= !P.stacks().empty();
    SawSub |= !P.subParsers().empty();
    for (const SurfaceState &S : P.mainStates()) {
      SawSelect |= !S.Tz.IsGoto;
      for (const SurfaceOp &Op : S.Ops) {
        SawAssign |= Op.K == SurfaceOp::Kind::Assign;
        SawLookahead |= Op.K == SurfaceOp::Kind::Lookahead;
      }
    }
  }
  EXPECT_TRUE(SawStack);
  EXPECT_TRUE(SawSub);
  EXPECT_TRUE(SawSelect);
  EXPECT_TRUE(SawAssign);
  EXPECT_TRUE(SawLookahead);
}

} // namespace
