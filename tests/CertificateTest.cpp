//===- CertificateTest.cpp - Certificate replay tests ---------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the certificate story of §6.4: a successful check yields a
/// certificate the independent replay checker validates; tampering with
/// the relation (dropping conjuncts, weakening a conjunct, changing the
/// spec) is rejected; and — the paper's TCB point — a search run over a
/// deliberately unsound solver produces "proofs" that replay with a sound
/// solver refuses to accept.
///
//===----------------------------------------------------------------------===//

#include "core/Certificate.h"
#include "core/CertificateIo.h"
#include "core/Checker.h"
#include "core/Engine.h"

#include "cert/CertVerify.h"
#include "p4a/Parser.h"
#include "parsers/CaseStudies.h"
#include "smt/ProofLog.h"
#include "smt/Solver.h"
#include "support/Compress.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <sys/wait.h>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::core;
using namespace leapfrog::logic;

namespace {

TEST(Certificate, ReplaysOnCaseStudies) {
  struct {
    p4a::Automaton L, R;
    const char *QL, *QR;
  } Cases[] = {
      {parsers::mplsReference(), parsers::mplsVectorized(), "q1", "q3"},
      {parsers::rearrangeReference(), parsers::rearrangeCombined(),
       "parse_ip", "parse_combined"},
      {parsers::vlanParser(), parsers::vlanParser(), "parse_eth",
       "parse_eth"},
  };
  for (auto &C : Cases) {
    CheckResult Res = checkLanguageEquivalence(C.L, C.QL, C.R, C.QR);
    ASSERT_TRUE(Res.equivalent()) << Res.FailureReason;
    ReplayResult Replay = replayCertificate(C.L, C.R, Res.Certificate);
    EXPECT_TRUE(Replay.Valid) << Replay.FailureReason;
    EXPECT_GT(Replay.ObligationsChecked, 0u);
  }
}

TEST(Certificate, ReplayMatchesAblationModes) {
  p4a::Automaton L = parsers::rearrangeReference();
  p4a::Automaton R = parsers::rearrangeCombined();
  for (bool Leaps : {false, true}) {
    CheckOptions O;
    O.UseLeaps = Leaps;
    CheckResult Res =
        checkLanguageEquivalence(L, "parse_ip", R, "parse_combined", O);
    ASSERT_TRUE(Res.equivalent()) << "leaps=" << Leaps;
    ReplayResult Replay = replayCertificate(L, R, Res.Certificate);
    EXPECT_TRUE(Replay.Valid)
        << "leaps=" << Leaps << ": " << Replay.FailureReason;
  }
}

TEST(Certificate, RejectsDroppedConjunct) {
  p4a::Automaton L = parsers::mplsReference();
  p4a::Automaton R = parsers::mplsVectorized();
  CheckResult Res = checkLanguageEquivalence(L, "q1", R, "q3");
  ASSERT_TRUE(Res.equivalent());
  ASSERT_GT(Res.Certificate.Relation.size(), 1u);

  // Dropping a load-bearing conjunct must break initiation or consecution.
  // Not every single conjunct is individually load-bearing, so check that
  // at least one removal is caught (in practice: most).
  size_t Caught = 0;
  for (size_t I = 0; I < Res.Certificate.Relation.size(); ++I) {
    EquivalenceCertificate Tampered = Res.Certificate;
    Tampered.Relation.erase(Tampered.Relation.begin() + I);
    if (!replayCertificate(L, R, Tampered).Valid)
      ++Caught;
  }
  EXPECT_GT(Caught, Res.Certificate.Relation.size() / 2);
}

TEST(Certificate, RejectsEmptiedRelation) {
  p4a::Automaton L = parsers::mplsReference();
  p4a::Automaton R = parsers::mplsVectorized();
  CheckResult Res = checkLanguageEquivalence(L, "q1", R, "q3");
  ASSERT_TRUE(Res.equivalent());
  EquivalenceCertificate Tampered = Res.Certificate;
  Tampered.Relation.clear();
  ReplayResult Replay = replayCertificate(L, R, Tampered);
  EXPECT_FALSE(Replay.Valid);
  EXPECT_NE(Replay.FailureReason.find("initiation"), std::string::npos);
}

TEST(Certificate, RejectsForeignAutomata) {
  // A certificate for the MPLS pair must not validate the (inequivalent)
  // sloppy/strict pair.
  p4a::Automaton L = parsers::mplsReference();
  p4a::Automaton R = parsers::mplsVectorized();
  CheckResult Res = checkLanguageEquivalence(L, "q1", R, "q3");
  ASSERT_TRUE(Res.equivalent());

  p4a::Automaton L2 = parsers::sloppyEthernetIp();
  p4a::Automaton R2 = parsers::strictEthernetIp();
  // Same state ids exist (both have a state 0), so replay runs — and must
  // fail some obligation.
  ReplayResult Replay = replayCertificate(L2, R2, Res.Certificate);
  EXPECT_FALSE(Replay.Valid);
}

//===----------------------------------------------------------------------===//
// The unsound-solver experiment (§6.4: the solver is trusted — a lying
// solver must be caught by replay with a sound one)
//===----------------------------------------------------------------------===//

/// A solver that calls everything valid: isValid() == true for every
/// query, i.e. checkSat answers Unsat unconditionally.
class YesManSolver : public smt::SmtSolver {
public:
  smt::SatResult checkSat(const smt::BvFormulaRef &F,
                          smt::Model *M) override {
    (void)F;
    (void)M;
    ++Stats.Queries;
    return smt::SatResult::Unsat;
  }
};

TEST(Certificate, UnsoundSolverProofIsRejectedOnReplay) {
  // With a yes-man solver the checker "proves" the inequivalent
  // sloppy/strict pair: every entailment check succeeds, so the initial
  // conjuncts are skipped and R stays trivially small.
  p4a::Automaton L = parsers::sloppyEthernetIp();
  p4a::Automaton R = parsers::strictEthernetIp();
  YesManSolver Liar;
  CheckOptions O;
  O.Solver = &Liar;
  CheckResult Res = checkLanguageEquivalence(L, "parse_eth", R, "parse_eth", O);
  ASSERT_TRUE(Res.equivalent()) << "the unsound solver should have lied";

  // Replay with the sound default solver rejects the fabricated proof.
  ReplayResult Replay = replayCertificate(L, R, Res.Certificate);
  EXPECT_FALSE(Replay.Valid);
  EXPECT_FALSE(Replay.FailureReason.empty());
}

TEST(Certificate, QualifiedSpecReplaysWithItsOwnMode) {
  // External filtering: the certificate must remember the qualified
  // acceptance mode; replaying it re-derives the same initial relation.
  p4a::Automaton L = parsers::sloppyEthernetIp();
  p4a::Automaton R = parsers::strictEthernetIp();
  auto Field = BitExpr::mkSlice(
      BitExpr::mkHdr(Side::Left, *L.findHeader("ether")), 96, 111);
  InitialSpec Spec = languageEquivalenceSpec(
      L, p4a::StateRef::normal(*L.findState("parse_eth")), R,
      p4a::StateRef::normal(*R.findState("parse_eth")));
  Spec.Mode = AcceptanceMode::Qualified;
  Spec.LeftQualifier = Pure::mkOr(
      Pure::mkEq(Field, BitExpr::mkLit(Bitvector::fromUint(0x86dd, 16))),
      Pure::mkEq(Field, BitExpr::mkLit(Bitvector::fromUint(0x8600, 16))));
  Spec.RightQualifier = Pure::mkTrue();

  CheckResult Res = checkWithSpec(L, R, Spec);
  ASSERT_TRUE(Res.equivalent()) << Res.FailureReason;
  ReplayResult Replay = replayCertificate(L, R, Res.Certificate);
  EXPECT_TRUE(Replay.Valid) << Replay.FailureReason;

  // Flipping the mode back to Standard must refute the same relation.
  EquivalenceCertificate Tampered = Res.Certificate;
  Tampered.Spec.Mode = AcceptanceMode::Standard;
  EXPECT_FALSE(replayCertificate(L, R, Tampered).Valid);
}

TEST(Certificate, RendersHumanReadably) {
  p4a::Automaton L = parsers::rearrangeReference();
  p4a::Automaton R = parsers::rearrangeCombined();
  CheckResult Res =
      checkLanguageEquivalence(L, "parse_ip", R, "parse_combined");
  ASSERT_TRUE(Res.equivalent());
  std::string S = Res.Certificate.str(L, R);
  EXPECT_NE(S.find("certificate for phi"), std::string::npos);
  EXPECT_NE(S.find("parse_ip"), std::string::npos);
  EXPECT_NE(S.find("conjuncts"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Streaming certificates: LFCERT emission, the independent verifier, the
// adversarial tamper battery, and the differential acceptance sweep.
//===----------------------------------------------------------------------===//

std::string corpusDir() {
  const char *Env = std::getenv("LEAPFROG_CORPUS_DIR");
  return Env && *Env ? Env : "";
}

std::string shimPath() {
  const char *Env = std::getenv("LEAPFROG_SMTLIB_SHIM");
  return Env && *Env ? Env : "";
}

std::string certcheckPath() {
  const char *Env = std::getenv("LEAPFROG_CERTCHECK");
  return Env && *Env ? Env : "";
}

bool readFileAll(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  Out = Ss.str();
  return true;
}

/// Runs a certified check (any backend spec) through the
/// same engine API the CLI and service use, and returns the result plus
/// the serialized LFCERT text for Equivalent verdicts.
struct CertifiedRun {
  CheckResult Res;
  std::string CertText;
  std::string FingerprintHex;
};

CertifiedRun runCertified(const CheckRequest &Req,
                          const std::string &Backend) {
  EngineConfig Cfg;
  Cfg.Backend = Backend;
  Cfg.Certify = true;
  std::string Err;
  std::unique_ptr<Engine> E = Engine::create(Cfg, &Err);
  EXPECT_NE(E, nullptr) << Err;
  CertifiedRun Run;
  if (!E)
    return Run;
  Run.Res = E->check(Req);
  Run.FingerprintHex = requestFingerprint(Req).hex();
  if (Run.Res.V == Verdict::Equivalent) {
    EXPECT_NE(Run.Res.Proof, nullptr)
        << "certified Equivalent verdict without a proof log";
    Run.CertText = serializeCertificate(Req.Left, Req.Right,
                                        Run.Res.Certificate,
                                        Run.Res.Proof.get(),
                                        Run.FingerprintHex);
  }
  return Run;
}

CheckRequest registryRequest(const parsers::CaseStudy &Study,
                             CheckOptions Options) {
  // CaseStudy holds the automata by value; copy so the request owns its
  // own pair (the study vector is rebuilt per call anyway).
  return makeLanguageEquivalenceRequest(
      Study.Left, p4a::StateRef::normal(*Study.Left.findState(Study.LeftStart)),
      Study.Right,
      p4a::StateRef::normal(*Study.Right.findState(Study.RightStart)),
      std::move(Options));
}

/// Pipes \p CertText through the leapfrog-certcheck binary (when CTest
/// exported its path) and returns its exit status, or -1 when the binary
/// is unavailable. The binary shares no code with this test's linkage of
/// the engine — that independence is what the exercise pins.
int runCertcheckBinary(const std::string &CertText,
                       const std::string &ExpectFp = "") {
  std::string Bin = certcheckPath();
  if (Bin.empty())
    return -1;
  std::string TmpFile = ::testing::TempDir() + "certcheck_input.lfc";
  {
    std::ofstream Out(TmpFile, std::ios::binary | std::ios::trunc);
    Out.write(CertText.data(), std::streamsize(CertText.size()));
  }
  std::string Cmd = Bin + " --quiet";
  if (!ExpectFp.empty())
    Cmd += " --fingerprint " + ExpectFp;
  Cmd += " " + TmpFile + " 2>/dev/null";
  int Status = std::system(Cmd.c_str());
  std::remove(TmpFile.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : 127;
}

TEST(CertStream, EmitsVerifiableCertificate) {
  p4a::Automaton L = parsers::mplsReference();
  p4a::Automaton R = parsers::mplsVectorized();
  CheckRequest Req = makeLanguageEquivalenceRequest(
      L, p4a::StateRef::normal(*L.findState("q1")), R,
      p4a::StateRef::normal(*R.findState("q3")), {});
  CertifiedRun Run = runCertified(Req, "bitblast");
  ASSERT_TRUE(Run.Res.equivalent()) << Run.Res.FailureReason;
  ASSERT_FALSE(Run.CertText.empty());

  cert::VerifyResult V = cert::verifyCertificate(Run.CertText, {});
  EXPECT_TRUE(V.Ok) << V.Diagnostic;
  EXPECT_EQ(V.FingerprintHex, Run.FingerprintHex);
  EXPECT_GT(V.Stats.Streams, 0u);
  EXPECT_GT(V.Stats.UnsatGoals, 0u);
  EXPECT_EQ(V.Stats.RelationConjuncts, Run.Res.Certificate.Relation.size());

  // Fingerprint pinning: the right pin passes, a foreign pin fails.
  cert::VerifyOptions Pin;
  Pin.ExpectFingerprintHex = Run.FingerprintHex;
  EXPECT_TRUE(cert::verifyCertificate(Run.CertText, Pin).Ok);
  Pin.ExpectFingerprintHex = std::string(32, '0');
  EXPECT_FALSE(cert::verifyCertificate(Run.CertText, Pin).Ok);

  // The compressed (on-disk store) form verifies identically.
  cert::VerifyResult VC =
      cert::verifyCertificate(compressCertificate(Run.CertText), {});
  EXPECT_TRUE(VC.Ok) << VC.Diagnostic;
  EXPECT_EQ(VC.Stats.Inputs, V.Stats.Inputs);
}

//===----------------------------------------------------------------------===//
// The adversarial tamper battery: eleven distinct corruptions, each of
// which the verifier must reject with a diagnostic locating the damage.
// Zero acceptances allowed.
//===----------------------------------------------------------------------===//

/// Replaces the first line matching \p Pred with \p replace(line); returns
/// false if no line matched (the corruption could not be applied).
bool editFirstLine(std::string &Text,
                   const std::function<bool(const std::string &)> &Pred,
                   const std::function<std::string(const std::string &)>
                       &Replace) {
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    if (Pred(Line)) {
      Text = Text.substr(0, Pos) + Replace(Line) + Text.substr(Eol);
      return true;
    }
    Pos = Eol + 1;
  }
  return false;
}

/// A fresh certificate of the speculative-loop study (Figure 1).
CertifiedRun speculativeLoopRun() {
  p4a::Automaton L = parsers::mplsReference();
  p4a::Automaton R = parsers::mplsVectorized();
  CheckRequest Req = makeLanguageEquivalenceRequest(
      L, p4a::StateRef::normal(*L.findState("q1")), R,
      p4a::StateRef::normal(*R.findState("q3")), {});
  return runCertified(Req, "bitblast");
}

TEST(CertStream, TamperBatteryRejectsEveryCorruption) {
  CertifiedRun Run = speculativeLoopRun();
  ASSERT_TRUE(Run.Res.equivalent());
  const std::string &Good = Run.CertText;
  ASSERT_TRUE(cert::verifyCertificate(Good, {}).Ok);

  struct Tamper {
    const char *Name;
    std::function<bool(std::string &)> Apply;
  };

  auto startsWith = [](const std::string &S, const char *P) {
    return S.rfind(P, 0) == 0;
  };

  std::vector<Tamper> Battery;
  // 1. Drop a relation conjunct: the count (and the chained relation
  // hash) no longer match.
  Battery.push_back({"drop-relation-conjunct", [&](std::string &T) {
                       size_t C = T.find("\nc ");
                       if (C == std::string::npos)
                         return false;
                       size_t Eol = T.find('\n', C + 1);
                       T.erase(C, Eol - C);
                       return true;
                     }});
  // 2. Edit a lemma in a DRUP slice: flip its first literal, so the
  // clause stops being a unit-propagation consequence.
  Battery.push_back({"edit-drup-lemma", [&](std::string &T) {
                       return editFirstLine(
                           T,
                           [&](const std::string &Ln) {
                             return startsWith(Ln, "l ") && Ln.size() > 4;
                           },
                           [](const std::string &Ln) {
                             std::string Out = "l ";
                             size_t P = 2;
                             if (Ln[P] == '-')
                               ++P; // negate: drop the sign …
                             else
                               Out += '-'; // … or add it
                             Out += Ln.substr(P);
                             return Out;
                           });
                     }});
  // 3. Truncate the artifact: everything after the last stream header is
  // cut, so the end mark never arrives.
  Battery.push_back({"truncate-tail", [&](std::string &T) {
                       size_t S = T.rfind("\nstream ");
                       if (S == std::string::npos)
                         return false;
                       T.resize(S + 1);
                       return true;
                     }});
  // 4. Reorder a DRUP slice: move a goal's first event after its end,
  // here by swapping the 'g' open with the line that follows it.
  Battery.push_back({"reorder-slice", [&](std::string &T) {
                       size_t G = T.find("\ng ");
                       if (G == std::string::npos)
                         return false;
                       size_t GEnd = T.find('\n', G + 1);
                       size_t NEnd = T.find('\n', GEnd + 1);
                       if (GEnd == std::string::npos ||
                           NEnd == std::string::npos)
                         return false;
                       std::string GoalLn = T.substr(G + 1, GEnd - G - 1);
                       std::string NextLn =
                           T.substr(GEnd + 1, NEnd - GEnd - 1);
                       T = T.substr(0, G + 1) + NextLn + "\n" + GoalLn +
                           T.substr(NEnd);
                       return true;
                     }});
  // 5. Swap goal ids: rewrite a later goal's id to an id already used,
  // breaking the strictly-increasing discipline restarts rely on.
  Battery.push_back({"swap-goal-ids", [&](std::string &T) {
                       size_t First = T.find("\ng ");
                       if (First == std::string::npos)
                         return false;
                       size_t Second = T.find("\ng ", First + 1);
                       if (Second == std::string::npos)
                         return false;
                       size_t IdEnd = T.find(' ', Second + 3);
                       T = T.substr(0, Second + 3) + "1" + T.substr(IdEnd);
                       return true;
                     }});
  // 6. Flip a literal in an UNSAT core: the core must contain exactly
  // the goal's negated activation literal.
  Battery.push_back({"flip-core-literal", [&](std::string &T) {
                       return editFirstLine(
                           T,
                           [&](const std::string &Ln) {
                             return startsWith(Ln, "u ") &&
                                    Ln.find(" -") != std::string::npos;
                           },
                           [](const std::string &Ln) {
                             std::string Out = Ln;
                             size_t Neg = Out.find(" -");
                             Out.erase(Neg + 1, 1); // "-N" -> "N"
                             return Out;
                           });
                     }});
  // 7. Stale fingerprint: the header claims a different request key than
  // the trailer (the shape a stale store entry would have).
  Battery.push_back({"stale-fingerprint", [&](std::string &T) {
                       return editFirstLine(
                           T,
                           [&](const std::string &Ln) {
                             return startsWith(Ln, "fingerprint ");
                           },
                           [](const std::string &) {
                             return std::string("fingerprint ") +
                                    std::string(32, 'f');
                           });
                     }});

  // 8-10. Respell an integer field without changing its value: a doubled
  // terminator, two literals glued together, an explicit '+'. A lenient
  // reader would see the same clause; the format admits one spelling.
  auto respellLemma =
      [&](const std::function<bool(const std::string &)> &Pred,
          const std::function<std::string(const std::string &)> &Edit) {
        return [=](std::string &T) {
          return editFirstLine(
              T,
              [&](const std::string &Ln) {
                return startsWith(Ln, "l ") && Pred(Ln);
              },
              Edit);
        };
      };
  Battery.push_back(
      {"double-zero-terminator",
       respellLemma([](const std::string &Ln) { return Ln.size() > 4; },
                    [](const std::string &Ln) { return Ln + "0"; })});
  Battery.push_back(
      {"glued-literals",
       respellLemma(
           [](const std::string &Ln) {
             return Ln.find(" -", 2) != std::string::npos;
           },
           [](const std::string &Ln) {
             std::string Out = Ln;
             Out.erase(Ln.find(" -", 2), 1);
             return Out;
           })});
  Battery.push_back(
      {"plus-sign",
       respellLemma(
           [](const std::string &Ln) { return Ln[2] != '-' && Ln[2] != '0'; },
           [](const std::string &Ln) { return "l +" + Ln.substr(2); })});

  // 11. A huge variable: one input naming the largest DIMACS variable,
  // inserted before the first guarded goal. The RUP database used to size
  // its arrays by the largest index (an uncaught std::bad_alloc, exit
  // 134); now the variable costs one slot, and the goal that follows is
  // rejected because its activation variable is no longer fresh.
  Battery.push_back({"huge-variable", [&](std::string &T) {
                       size_t G = 0;
                       while ((G = T.find("\ng ", G + 1)) !=
                              std::string::npos) {
                         size_t Eol = T.find('\n', G + 1);
                         std::string Ln = T.substr(G + 1, Eol - G - 1);
                         if (Ln.substr(Ln.rfind(' ')) == " 0")
                           continue; // one-shot: no activation variable
                         T.insert(G + 1, "i -1073741823 0\n");
                         return true;
                       }
                       return false;
                     }});

  size_t Accepted = 0;
  for (const Tamper &Tm : Battery) {
    std::string Bad = Good;
    ASSERT_TRUE(Tm.Apply(Bad)) << Tm.Name << ": corruption not applicable";
    ASSERT_NE(Bad, Good) << Tm.Name;
    cert::VerifyResult V = cert::verifyCertificate(Bad, {});
    if (V.Ok)
      ++Accepted;
    EXPECT_FALSE(V.Ok) << Tm.Name << " was accepted";
    // Located diagnostic: every rejection names the damaged line.
    EXPECT_NE(V.Diagnostic.find("line "), std::string::npos)
        << Tm.Name << ": diagnostic carries no location: " << V.Diagnostic;

    // The standalone binary agrees (exit 1 = rejected), when available.
    int Exit = runCertcheckBinary(Bad);
    if (Exit >= 0) {
      EXPECT_EQ(Exit, 1) << Tm.Name << " through leapfrog-certcheck";
    }
  }
  EXPECT_EQ(Accepted, 0u);

  // And the untampered artifact still passes the binary (exit 0), pinned.
  int Exit = runCertcheckBinary(Good, Run.FingerprintHex);
  if (Exit >= 0) {
    EXPECT_EQ(Exit, 0);
  }
}

/// Runs \p Bad through verifyCertificate and, when available, the binary;
/// both must reject it with a located diagnostic containing \p Expect
/// (exit 1 — not 0, and not a crash).
void expectRejected(const std::string &Bad, const std::string &Expect,
                    const std::string &Label) {
  cert::VerifyResult V = cert::verifyCertificate(Bad, {});
  EXPECT_FALSE(V.Ok) << Label << " was accepted";
  EXPECT_EQ(V.Diagnostic.rfind("line ", 0), 0u)
      << Label << ": diagnostic carries no location: " << V.Diagnostic;
  EXPECT_NE(V.Diagnostic.find(Expect), std::string::npos)
      << Label << ": " << V.Diagnostic;
  int Exit = runCertcheckBinary(Bad);
  if (Exit >= 0) {
    EXPECT_EQ(Exit, 1) << Label << " through leapfrog-certcheck";
  }
}

TEST(CertStream, NonCanonicalIntegerFieldsAreRejected) {
  CertifiedRun Run = speculativeLoopRun();
  ASSERT_TRUE(Run.Res.equivalent());
  const std::string &Good = Run.CertText;
  ASSERT_TRUE(cert::verifyCertificate(Good, {}).Ok);

  // Every integer field, not only clause literals: goal ids, activation
  // variables, stream and section counts. Each edit keeps the value.
  struct Respell {
    const char *Prefix, *From, *To;
  } Cases[] = {
      {"g ", "g ", "g +"},        {"g ", "g ", "g 0"},
      {"u ", "u ", "u 0"},        {"e ", "e ", "e +"},
      {"stream ", "stream ", "stream 0"},
      {"streams ", "streams ", "streams +"},
      {"headers ", "headers ", "headers 0"},
      {"relation ", "relation ", "relation  "},
      {"i ", " 0", " -0"},
  };
  for (const Respell &C : Cases) {
    std::string Bad = Good;
    ASSERT_TRUE(editFirstLine(
        Bad,
        [&](const std::string &Ln) { return Ln.rfind(C.Prefix, 0) == 0; },
        [&](const std::string &Ln) {
          std::string Out = Ln;
          size_t At = C.From[0] == ' ' ? Out.rfind(C.From) : 0;
          return Out.replace(At, std::strlen(C.From), C.To);
        }))
        << C.Prefix;
    expectRejected(Bad, "malformed", std::string("respelled '") + C.Prefix +
                                         "' record");
  }

  // A lone 0 stays valid: append a one-shot stream whose only input is
  // the empty clause ("i 0") and which closes with an empty core.
  std::string Ok = Good;
  size_t M = 0;
  ASSERT_TRUE(editFirstLine(
      Ok, [](const std::string &Ln) { return Ln.rfind("streams ", 0) == 0; },
      [&](const std::string &Ln) {
        M = std::stoul(Ln.substr(8));
        return "streams " + std::to_string(M + 1);
      }));
  ASSERT_TRUE(editFirstLine(
      Ok, [](const std::string &Ln) { return Ln.rfind("trailer ", 0) == 0; },
      [&](const std::string &Ln) {
        size_t A = Ln.find(' ', 8), B = Ln.find(' ', A + 1);
        return Ln.substr(0, A + 1) + std::to_string(M + 1) + Ln.substr(B);
      }));
  Ok.insert(Ok.find("\ntrailer ") + 1, "stream " + std::to_string(M) +
                                          " 3\ng 1 0\ni 0\nu 1 0\nendstream\n");
  cert::VerifyResult V = cert::verifyCertificate(Ok, {});
  EXPECT_TRUE(V.Ok) << V.Diagnostic;
}

TEST(CertStream, DeepFormulaNestingIsRejectedNotFatal) {
  // Without a depth bound, 100 000 nested "!(... & true)" in one conjunct
  // overflow the verifier's recursive-descent stack (SIGSEGV, exit 139).
  CertifiedRun Run = speculativeLoopRun();
  ASSERT_TRUE(Run.Res.equivalent());
  std::string Bad = Run.CertText;
  const size_t N = 100000;
  std::string Deep;
  Deep.reserve(N * 10 + 4);
  for (size_t K = 0; K < N; ++K)
    Deep += "!(";
  Deep += "true";
  for (size_t K = 0; K < N; ++K)
    Deep += " & true)";
  ASSERT_TRUE(editFirstLine(
      Bad, [](const std::string &Ln) { return Ln.rfind("c ", 0) == 0; },
      [&](const std::string &Ln) {
        return Ln.substr(0, Ln.find(" => ") + 4) + Deep;
      }));
  expectRejected(Bad, "nests deeper than", "deep nesting");
}

//===----------------------------------------------------------------------===//
// Differential acceptance sweep: registry studies + the corpus pairs,
// across backends. Every Equivalent verdict must carry a
// certcheck-accepted certificate, and the certified decision stream must
// be bit-identical to the uncertified one.
//===----------------------------------------------------------------------===//

void expectDecisionIdentical(const CheckRequest &Req, const CheckResult &A,
                             const CheckResult &B, const std::string &Label) {
  EXPECT_EQ(A.V, B.V) << Label;
  EXPECT_EQ(A.FailureReason, B.FailureReason) << Label;
  EXPECT_EQ(A.Stats.Iterations, B.Stats.Iterations) << Label;
  EXPECT_EQ(A.Stats.Extends, B.Stats.Extends) << Label;
  EXPECT_EQ(A.Stats.Skips, B.Stats.Skips) << Label;
  EXPECT_EQ(A.Stats.FinalConjuncts, B.Stats.FinalConjuncts) << Label;
  if (A.V == Verdict::Equivalent) {
    EXPECT_EQ(A.Certificate.str(Req.Left, Req.Right),
              B.Certificate.str(Req.Left, Req.Right))
        << Label;
  }
}

/// The deepest formula nesting any sweep certificate reached, so the
/// sweeps can pin cert::MaxFormulaDepth's margin over real certificates.
size_t SweepFormulaDepth = 0;

/// Runs every sweep configuration (backend {bitblast, smtlib:shim}) over
/// \p Req, asserting that certified decisions are
/// bit-identical to the uncertified baseline and that every Equivalent
/// verdict yields a verifying certificate. \p ShimCap, when nonzero,
/// caps MaxIterations for the shim legs (and their baselines): the
/// external pipe re-solves the whole multiplexed assertion set per
/// query, so search-heavy pairs would take minutes per leg there while
/// a deterministic ResourceLimit exercises the same certified pipeline.
void sweepOnePair(const std::string &Label, const CheckRequest &Req,
                  size_t ShimCap, size_t &Equivalents) {
  std::string Shim = shimPath();

  CheckRequest ShimReq = Req;
  if (ShimCap)
    ShimReq.Options.MaxIterations = ShimCap;

  // The uncertified baselines, per budget (backend never changes
  // decisions; crosscheck asserts that internally per query).
  std::string Err;
  std::unique_ptr<Engine> E = Engine::create(EngineConfig(), &Err);
  ASSERT_NE(E, nullptr) << Err;
  CheckResult Baseline = E->check(Req);
  CheckResult ShimBaseline = ShimCap ? E->check(ShimReq) : Baseline;

  for (bool UseShim : {false, true}) {
    if (UseShim && Shim.empty())
      continue; // the shim leg needs the binary CTest exports
    std::string Backend = UseShim ? "smtlib:" + Shim : "bitblast";
    std::string CfgLabel = Label + " [backend=" +
                           (UseShim ? "smtlib:shim" : "bitblast") + "]";
    if (std::getenv("LEAPFROG_SWEEP_TRACE"))
      std::fprintf(stderr, "sweep: %s\n", CfgLabel.c_str());
    const CheckRequest &CfgReq = UseShim ? ShimReq : Req;
    CertifiedRun Run = runCertified(CfgReq, Backend);

    // Certified decisions == uncertified decisions, bit for bit.
    expectDecisionIdentical(CfgReq, Run.Res,
                            UseShim ? ShimBaseline : Baseline, CfgLabel);

    if (Run.Res.V != Verdict::Equivalent)
      continue;
    ++Equivalents;
    ASSERT_FALSE(Run.CertText.empty()) << CfgLabel;
    cert::VerifyOptions Pin;
    Pin.ExpectFingerprintHex = Run.FingerprintHex;
    cert::VerifyResult V = cert::verifyCertificate(Run.CertText, Pin);
    EXPECT_TRUE(V.Ok) << CfgLabel << ": " << V.Diagnostic;
    EXPECT_GT(V.Stats.Goals, 0u) << CfgLabel;
    SweepFormulaDepth = std::max(SweepFormulaDepth, V.Stats.FormulaDepth);
  }
}

/// Real certificates must stay far below the verifier's nesting bound: a
/// limit that a deeper-than-usual relation could reach would reject a
/// genuine proof.
void expectDepthMargin() {
  EXPECT_GT(SweepFormulaDepth, 0u);
  EXPECT_LE(SweepFormulaDepth * 10, cert::MaxFormulaDepth);
}

TEST(CertStream, AcceptanceSweepRegistryStudies) {
  size_t Equivalents = 0;
  for (const parsers::CaseStudy &Study : parsers::allCaseStudies()) {
    CheckOptions Options;
    // The big Applicability self-pairs get the ServeTest sweep's tiny
    // budget: a deterministic ResourceLimit exercises the certified
    // pipeline's bit-identity just as well, in a fraction of the time.
    Options.MaxIterations = Study.Category == "Applicability" ? 300 : 20000;
    // Variable-length parsing needs ~6600 queries — fine in-process,
    // minutes through the external pipe, hence the shim-leg cap.
    size_t ShimCap = Study.Name == "Variable-length parsing" ? 300 : 0;
    sweepOnePair(Study.Name, registryRequest(Study, Options), ShimCap,
                 Equivalents);
  }
  // The sweep must not be vacuous: the Utility studies decide Equivalent
  // under every configuration (the floor counts the bitblast leg alone,
  // so it holds when the shim is absent too).
  EXPECT_GE(Equivalents, 4u);
  expectDepthMargin();
}

TEST(CertStream, AcceptanceSweepCorpusPairs) {
  std::string Dir = corpusDir();
  if (Dir.empty())
    GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";

  struct Pair {
    const char *Label, *L, *R;
    bool Budgeted;
    size_t ShimCap;
  };
  // The 18-pair bench_corpus table (see tests/ServeTest.cpp): registry
  // twins plus the hand-written protocol studies' opt/bug variants.
  const Pair Pairs[] = {
      {"state_rearrangement", "state_rearrangement_left.lfp",
       "state_rearrangement_right.lfp", false, 0},
      {"variable_length_parsing", "variable_length_parsing_left.lfp",
       "variable_length_parsing_right.lfp", false, 300},
      {"header_initialization", "header_initialization_left.lfp",
       "header_initialization_right.lfp", false, 0},
      {"speculative_loop", "speculative_loop_left.lfp",
       "speculative_loop_right.lfp", false, 0},
      {"relational_verification", "relational_verification_left.lfp",
       "relational_verification_right.lfp", true, 0},
      {"external_filtering", "external_filtering_left.lfp",
       "external_filtering_right.lfp", true, 0},
      {"edge", "edge_left.lfp", "edge_right.lfp", true, 0},
      {"service_provider", "service_provider_left.lfp",
       "service_provider_right.lfp", true, 0},
      {"datacenter", "datacenter_left.lfp", "datacenter_right.lfp", true, 0},
      {"enterprise", "enterprise_left.lfp", "enterprise_right.lfp", true, 0},
      {"ipv6_chain vs opt", "ipv6_chain.lfp", "ipv6_chain_opt.lfp", false, 0},
      {"ipv6_chain vs bug", "ipv6_chain.lfp", "ipv6_chain_bug.lfp", false, 0},
      {"vlan_qinq vs opt", "vlan_qinq.lfp", "vlan_qinq_opt.lfp", false, 0},
      {"vlan_qinq vs bug", "vlan_qinq.lfp", "vlan_qinq_bug.lfp", false, 0},
      {"tunnel vs opt", "tunnel.lfp", "tunnel_opt.lfp", false, 0},
      {"tunnel vs bug", "tunnel.lfp", "tunnel_bug.lfp", false, 0},
      {"quic_varint vs opt", "quic_varint.lfp", "quic_varint_opt.lfp", false,
       0},
      {"quic_varint vs bug", "quic_varint.lfp", "quic_varint_bug.lfp", false,
       0},
  };

  size_t Equivalents = 0;
  for (const Pair &P : Pairs) {
    std::string LText, RText;
    ASSERT_TRUE(readFileAll(Dir + "/" + P.L, LText)) << P.Label;
    ASSERT_TRUE(readFileAll(Dir + "/" + P.R, RText)) << P.Label;
    CheckOptions Options;
    Options.MaxIterations = P.Budgeted ? 300 : 20000;
    CheckRequest Req;
    std::vector<std::string> Errors;
    ASSERT_TRUE(core::checkRequestFromSurface(LText, RText, Options, Req,
                                              Errors, P.L, P.R))
        << P.Label << ": " << (Errors.empty() ? "?" : Errors.front());
    sweepOnePair(P.Label, Req, P.ShimCap, Equivalents);
  }
  // Every equivalent corpus pair, under every configuration, produced a
  // verified certificate; the refuted/budgeted ones exercised the
  // no-certificate path. The floor counts the bitblast leg alone.
  EXPECT_GE(Equivalents, 8u);
  expectDepthMargin();
}

//===----------------------------------------------------------------------===//
// One checker, two modes: with in-process certification (CertifyUnsat) and
// capture (Certify) both on, the solver's in-process counts must equal
// what certcheck reports on the emitted artifact — the same events went
// through the same cert::StreamChecker.
//===----------------------------------------------------------------------===//

/// Runs leapfrog-certcheck on \p CertText and returns its acceptance
/// summary line, or "" when the binary is unavailable or rejects.
std::string certcheckSummary(const std::string &CertText) {
  std::string Bin = certcheckPath();
  if (Bin.empty())
    return "";
  std::string In = ::testing::TempDir() + "certcheck_agree.lfc";
  std::string Out = ::testing::TempDir() + "certcheck_agree.txt";
  {
    std::ofstream F(In, std::ios::binary | std::ios::trunc);
    F.write(CertText.data(), std::streamsize(CertText.size()));
  }
  int Status = std::system((Bin + " " + In + " > " + Out).c_str());
  std::string Summary;
  bool Read = readFileAll(Out, Summary);
  std::remove(In.c_str());
  std::remove(Out.c_str());
  bool Accepted = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  return Read && Accepted ? Summary : "";
}

/// The value of " <Key>N" in a certcheck summary line.
uint64_t summaryField(const std::string &Summary, const std::string &Key) {
  size_t At = Summary.find(" " + Key);
  EXPECT_NE(At, std::string::npos) << Key << " missing from: " << Summary;
  return At == std::string::npos
             ? 0
             : std::stoull(Summary.substr(At + 1 + Key.size()));
}

TEST(CertStream, InProcessCertificationAgreesWithCertcheck) {
  std::string Dir = corpusDir();
  if (Dir.empty())
    GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";
  // The registry twins and the protocol studies' optimized variants: the
  // corpus pairs that verify.
  const std::pair<const char *, const char *> Pairs[] = {
      {"state_rearrangement_left.lfp", "state_rearrangement_right.lfp"},
      {"header_initialization_left.lfp", "header_initialization_right.lfp"},
      {"speculative_loop_left.lfp", "speculative_loop_right.lfp"},
      {"variable_length_parsing_left.lfp",
       "variable_length_parsing_right.lfp"},
      {"ipv6_chain.lfp", "ipv6_chain_opt.lfp"},
      {"quic_varint.lfp", "quic_varint_opt.lfp"},
      {"tlv_fanin.lfp", "tlv_fanin_opt.lfp"},
      {"tunnel.lfp", "tunnel_opt.lfp"},
      {"vlan_qinq.lfp", "vlan_qinq_opt.lfp"},
  };
  for (const auto &[LName, RName] : Pairs) {
    std::string Label = std::string(LName) + " vs " + RName;
    std::string LText, RText;
    ASSERT_TRUE(readFileAll(Dir + "/" + LName, LText)) << Label;
    ASSERT_TRUE(readFileAll(Dir + "/" + RName, RText)) << Label;
    CheckRequest Req;
    std::vector<std::string> Errors;
    ASSERT_TRUE(core::checkRequestFromSurface(LText, RText, CheckOptions(),
                                              Req, Errors, LName, RName))
        << Label;

    EngineConfig Cfg;
    Cfg.Certify = true;
    std::string Err;
    std::unique_ptr<Engine> E = Engine::create(Cfg, &Err);
    ASSERT_NE(E, nullptr) << Err;
    auto *BitBlast = dynamic_cast<smt::BitBlastSolver *>(&E->solver());
    ASSERT_NE(BitBlast, nullptr);
    BitBlast->CertifyUnsat = true;
    CheckResult Res = E->check(Req);
    ASSERT_TRUE(Res.equivalent()) << Label << ": " << Res.FailureReason;
    std::string Text =
        serializeCertificate(Req.Left, Req.Right, Res.Certificate,
                             Res.Proof.get(), requestFingerprint(Req).hex());

    const smt::SolverStats &St = BitBlast->stats();
    EXPECT_GT(St.CertifiedUnsat, 0u) << Label;
    cert::VerifyResult V = cert::verifyCertificate(Text, {});
    ASSERT_TRUE(V.Ok) << Label << ": " << V.Diagnostic;
    EXPECT_EQ(St.CertifiedUnsat, V.Stats.UnsatGoals) << Label;
    EXPECT_EQ(St.ProofLemmas, V.Stats.Lemmas) << Label;
    std::string Summary = certcheckSummary(Text);
    if (!certcheckPath().empty()) {
      ASSERT_FALSE(Summary.empty()) << Label << ": certcheck rejected";
      EXPECT_EQ(St.CertifiedUnsat, summaryField(Summary, "unsat=")) << Label;
      EXPECT_EQ(St.ProofLemmas, summaryField(Summary, "lemmas=")) << Label;
    }
  }
}

} // namespace
