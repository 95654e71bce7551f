//===- CertVerify.cpp - Engine-free certificate verification --------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cert/CertVerify.h"

#include "cert/CertFormat.h"
#include "cert/StreamCheck.h"
#include "support/Compress.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <sstream>
#include <unordered_map>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::cert;

namespace {

//===----------------------------------------------------------------------===//
// Formula well-formedness gate: an independent recursive-descent parser
// for the engine's rendering of guarded formulas (logic/ConfRel.cpp str())
// plus a zero-environment evaluator. The gate establishes that every
// conjunct is grammatical and width-consistent under the declared header
// widths and guard buffer lengths; it does NOT (and cannot, engine-free)
// re-derive the proof obligations — that is replayCertificate's job.
//===----------------------------------------------------------------------===//

struct HeaderWidths {
  std::unordered_map<long, long> Left, Right;
};

/// A bitvector value under the all-zero environment: Known=false for
/// subterms whose width the text does not determine (rigid variables have
/// no width annotation in the rendering; widths unify through equalities).
struct Val {
  bool Known = true;
  std::string Bits; // Bits[i] = bit i, '0'/'1'
};

class FormulaParser {
public:
  FormulaParser(const std::string &Text, const HeaderWidths &HW,
                long BufLeft, long BufRight)
      : S(Text), HW(HW), BufL(BufLeft), BufR(BufRight) {}

  /// Parses the whole text as a pure formula; false + Err on failure.
  bool parseFormula() {
    bool B;
    if (!formula(B))
      return false;
    skipWs();
    if (P != S.size())
      return err("trailing characters after formula");
    return true;
  }

  std::string Err;
  /// The deepest subterm nesting parsed so far.
  size_t MaxDepth = 0;

private:
  struct Node {
    bool IsFormula;
    bool B = false; // formula value under the zero environment
    Val V;          // expression value
  };

  bool err(const std::string &Why) {
    if (Err.empty())
      Err = Why + " at offset " + std::to_string(P);
    return false;
  }
  void skipWs() {
    while (P < S.size() && S[P] == ' ')
      ++P;
  }
  bool lit(const char *Tok) {
    size_t N = std::strlen(Tok);
    if (S.compare(P, N, Tok) != 0)
      return false;
    P += N;
    return true;
  }
  bool number(long &Out) {
    size_t Start = P;
    while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
      ++P;
    if (P == Start)
      return false;
    Out = std::strtol(S.c_str() + Start, nullptr, 10);
    return true;
  }

  bool formula(bool &B) {
    Node N;
    if (!node(N))
      return false;
    if (!N.IsFormula)
      return err("expected a formula, found a bitvector expression");
    B = N.B;
    return true;
  }

  /// Every subterm costs one level; beyond MaxFormulaDepth the text is
  /// rejected instead of exhausting the stack.
  bool node(Node &Out) {
    if (Depth == MaxFormulaDepth)
      return err("formula nests deeper than " +
                 std::to_string(MaxFormulaDepth) + " levels");
    ++Depth;
    MaxDepth = std::max(MaxDepth, Depth);
    bool Ok = nodeBody(Out);
    --Depth;
    return Ok;
  }

  bool nodeBody(Node &Out) {
    skipWs();
    if (P >= S.size())
      return err("unexpected end of formula");
    if (lit("true")) {
      Out = {true, true, {}};
      return true;
    }
    if (lit("false")) {
      Out = {true, false, {}};
      return true;
    }
    if (lit("!")) {
      bool B = false;
      if (!formula(B))
        return false;
      Out = {true, !B, {}};
      return true;
    }
    if (lit("0b")) {
      Val V;
      while (P < S.size() && (S[P] == '0' || S[P] == '1'))
        V.Bits.push_back(S[P++]);
      Out = {false, false, V};
      return slices(Out);
    }
    if (lit("buf<")) {
      Out = {false, false, zeros(BufL)};
      return slices(Out);
    }
    if (lit("buf>")) {
      Out = {false, false, zeros(BufR)};
      return slices(Out);
    }
    if (S[P] == 'h' && P + 1 < S.size() &&
        std::isdigit(static_cast<unsigned char>(S[P + 1]))) {
      ++P;
      long Id;
      number(Id);
      bool LeftSide;
      if (lit("<"))
        LeftSide = true;
      else if (lit(">"))
        LeftSide = false;
      else
        return err("header reference missing its side mark");
      const auto &Map = LeftSide ? HW.Left : HW.Right;
      auto It = Map.find(Id);
      if (It == Map.end())
        return err("header h" + std::to_string(Id) +
                   (LeftSide ? "<" : ">") + " is not declared");
      Out = {false, false, zeros(It->second)};
      return slices(Out);
    }
    if (lit("$")) {
      size_t Start = P;
      while (P < S.size() &&
             (std::isalnum(static_cast<unsigned char>(S[P])) ||
              S[P] == '_' || S[P] == '.'))
        ++P;
      if (P == Start)
        return err("empty rigid-variable name");
      Out = {false, false, Val{false, {}}};
      return slices(Out);
    }
    if (lit("(")) {
      Node L;
      if (!node(L))
        return false;
      skipWs();
      if (lit("= ")) {
        Node R;
        if (!node(R))
          return false;
        if (L.IsFormula || R.IsFormula)
          return err("'=' applied to a formula");
        if (L.V.Known && R.V.Known &&
            L.V.Bits.size() != R.V.Bits.size())
          return err("width mismatch in equality (" +
                     std::to_string(L.V.Bits.size()) + " vs " +
                     std::to_string(R.V.Bits.size()) + ")");
        bool B;
        if (L.V.Known && R.V.Known)
          B = L.V.Bits == R.V.Bits;
        else if (L.V.Known)
          B = allZero(L.V.Bits);
        else if (R.V.Known)
          B = allZero(R.V.Bits);
        else
          B = true;
        if (!close())
          return false;
        Out = {true, B, {}};
        return true;
      }
      char Op = 0;
      if (lit("& "))
        Op = '&';
      else if (lit("| "))
        Op = '|';
      else if (lit("-> "))
        Op = '>';
      if (Op != 0) {
        Node R;
        if (!node(R))
          return false;
        if (!L.IsFormula || !R.IsFormula)
          return err("boolean connective applied to a bitvector "
                     "expression");
        bool B = Op == '&'   ? (L.B && R.B)
                 : Op == '|' ? (L.B || R.B)
                             : (!L.B || R.B);
        if (!close())
          return false;
        Out = {true, B, {}};
        return true;
      }
      if (lit("++ ")) {
        Node R;
        if (!node(R))
          return false;
        if (L.IsFormula || R.IsFormula)
          return err("'++' applied to a formula");
        Val V;
        V.Known = L.V.Known && R.V.Known;
        if (V.Known)
          V.Bits = L.V.Bits + R.V.Bits;
        if (!close())
          return false;
        Out = {false, false, V};
        return slices(Out);
      }
      return err("expected '=', '&', '|', '->' or '++'");
    }
    return err("unexpected character '" + std::string(1, S[P]) + "'");
  }

  bool close() {
    skipWs();
    if (!lit(")"))
      return err("expected ')'");
    return true;
  }

  /// Clamped inclusive slice suffixes, chainable: expr[lo:hi][lo:hi]...
  bool slices(Node &N) {
    while (P < S.size() && S[P] == '[') {
      ++P;
      long Lo, Hi;
      if (!number(Lo) || !lit(":") || !number(Hi) || !lit("]"))
        return err("malformed slice suffix");
      if (N.V.Known) {
        long W = long(N.V.Bits.size());
        if (W == 0) {
          N.V.Bits.clear();
        } else {
          long CLo = std::min(Lo, W - 1), CHi = std::min(Hi, W - 1);
          N.V.Bits = CLo > CHi
                         ? std::string()
                         : N.V.Bits.substr(size_t(CLo),
                                           size_t(CHi - CLo + 1));
        }
      }
    }
    return true;
  }

  static Val zeros(long W) { return Val{true, std::string(size_t(W), '0')}; }
  static bool allZero(const std::string &B) {
    return B.find('1') == std::string::npos;
  }

  const std::string &S;
  size_t P = 0;
  size_t Depth = 0;
  const HeaderWidths &HW;
  long BufL, BufR;
};

/// Splits a guarded-formula rendering "[q,n]< & [q,n]> => phi" into its
/// guard buffer lengths and the pure body.
bool splitGuarded(const std::string &Text, long &NL, long &NR,
                  std::string &Body, std::string &Err) {
  if (Text.empty() || Text[0] != '[') {
    Err = "guarded formula does not start with '['";
    return false;
  }
  size_t Mid = Text.find("]< & [");
  if (Mid == std::string::npos) {
    Err = "guard separator \"]< & [\" not found";
    return false;
  }
  size_t End = Text.find("]> => ", Mid);
  if (End == std::string::npos) {
    Err = "guard terminator \"]> => \" not found";
    return false;
  }
  auto GuardN = [&Err](const std::string &Inner, long &N) {
    size_t Comma = Inner.rfind(',');
    if (Comma == std::string::npos) {
      Err = "guard template missing its buffer length";
      return false;
    }
    char *EndP = nullptr;
    N = std::strtol(Inner.c_str() + Comma + 1, &EndP, 10);
    if (EndP == Inner.c_str() + Comma + 1 || *EndP != '\0') {
      Err = "guard buffer length is not a number";
      return false;
    }
    return true;
  };
  if (!GuardN(Text.substr(1, Mid - 1), NL))
    return false;
  if (!GuardN(Text.substr(Mid + 6, End - Mid - 6), NR))
    return false;
  Body = Text.substr(End + 6);
  return true;
}

//===----------------------------------------------------------------------===//
// Integer fields. Every numeric field of a record is exactly one space
// followed by one canonical decimal: an optional '-', then "0" or a
// nonzero digit and more digits — no '+', no leading zeros, no "-0". The
// writer emits nothing else, so any other spelling of the same value is a
// rewritten artifact and is rejected rather than read leniently.
//===----------------------------------------------------------------------===//

struct Fields {
  const std::string &S;
  size_t P;

  /// Reads " <int>"; false when the next field is missing or not canonical.
  bool next(long &Out) {
    if (P >= S.size() || S[P] != ' ')
      return false;
    size_t Start = ++P;
    if (P < S.size() && S[P] == '-')
      ++P;
    size_t First = P;
    while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
      ++P;
    size_t N = P - First;
    // 18 digits always fit a long; the writer never comes close.
    if (N == 0 || N > 18 ||
        (S[First] == '0' && (N > 1 || First != Start)))
      return false;
    Out = std::strtol(S.c_str() + Start, nullptr, 10);
    return true;
  }
  bool done() const { return P == S.size(); }
  /// Reads " <lit>... 0" up to the end of the record.
  bool clause(std::vector<int> &Lits) {
    Lits.clear();
    long L;
    while (next(L)) {
      if (L == 0)
        return done();
      if (L > StreamChecker::MaxDimacsVar || L < -StreamChecker::MaxDimacsVar)
        return false;
      Lits.push_back(int(L));
    }
    return false;
  }
};

/// Parses \p Rest (a record with its keyword and first space removed) as
/// exactly the integers \p Out, in order.
bool parseInts(const std::string &Rest, std::initializer_list<long *> Out) {
  std::string Text = " " + Rest;
  Fields F{Text, 0};
  for (long *V : Out)
    if (!F.next(*V))
      return false;
  return F.done();
}
} // namespace

VerifyResult cert::verifyCertificate(const std::string &Payload,
                                     const VerifyOptions &Options) {
  VerifyResult R;

  std::string Text;
  if (support::looksCompressed(Payload)) {
    std::string Err;
    if (!support::decompress(Payload, Text, &Err)) {
      R.Diagnostic = "container: " + Err;
      return R;
    }
  } else {
    Text = Payload;
  }

  // Split into lines; Line N in diagnostics is 1-based over the raw text.
  std::vector<std::string> Lines;
  {
    size_t Start = 0;
    while (Start <= Text.size()) {
      size_t Nl = Text.find('\n', Start);
      if (Nl == std::string::npos) {
        if (Start < Text.size())
          Lines.push_back(Text.substr(Start));
        break;
      }
      Lines.push_back(Text.substr(Start, Nl - Start));
      Start = Nl + 1;
    }
  }

  size_t I = 0; // current line index
  auto fail = [&](const std::string &Why) {
    R.Ok = false;
    R.Diagnostic = "line " + std::to_string(I + 1) + ": " + Why;
    return R;
  };
  auto haveLine = [&]() { return I < Lines.size(); };
  auto takePrefix = [&](const char *Prefix, std::string &Rest) {
    if (!haveLine())
      return false;
    size_t N = std::strlen(Prefix);
    if (Lines[I].compare(0, N, Prefix) != 0)
      return false;
    Rest = Lines[I].substr(N);
    ++I;
    return true;
  };

  // --- Header ---
  if (!haveLine() || Lines[I] != CertMagic)
    return fail(std::string("expected \"") + CertMagic +
                "\" (not a certificate, or a corrupted container)");
  ++I;

  std::string Rest;
  if (!takePrefix("fingerprint ", Rest))
    return fail("expected the fingerprint line");
  if (Rest != "-") {
    if (Rest.size() != 32 ||
        Rest.find_first_not_of("0123456789abcdef") != std::string::npos)
      return fail("fingerprint is not 32 lowercase hex digits");
  }
  R.FingerprintHex = Rest;
  if (!Options.ExpectFingerprintHex.empty() &&
      Rest != Options.ExpectFingerprintHex)
    return fail("fingerprint mismatch: certificate carries \"" + Rest +
                "\", expected \"" + Options.ExpectFingerprintHex + "\"");

  if (!takePrefix("options ", Rest))
    return fail("expected the options line");
  {
    std::istringstream In(Rest);
    std::string LeapsTok, ReachTok, Extra;
    if (!(In >> LeapsTok >> ReachTok) || (In >> Extra) ||
        LeapsTok.rfind("leaps=", 0) != 0 || ReachTok.rfind("reach=", 0) != 0)
      return fail("malformed options line");
  }

  // --- Header widths ---
  HeaderWidths HW;
  if (!takePrefix("headers ", Rest))
    return fail("expected the headers line");
  long NHl = 0, NHr = 0;
  if (!parseInts(Rest, {&NHl, &NHr}) || NHl < 0 || NHr < 0)
    return fail("malformed headers line");
  for (long K = 0; K < NHl + NHr; ++K) {
    bool LeftSide = K < NHl;
    if (!takePrefix(LeftSide ? "hl " : "hr ", Rest))
      return fail(LeftSide ? "expected a left header-width line (hl)"
                           : "expected a right header-width line (hr)");
    long Id, W;
    if (!parseInts(Rest, {&Id, &W}) || Id < 0 || W < 0)
      return fail("malformed header-width line");
    auto &Map = LeftSide ? HW.Left : HW.Right;
    if (!Map.emplace(Id, W).second)
      return fail("duplicate header-width declaration");
  }

  // --- Spec (phi's guard and premise) ---
  if (!takePrefix("spec ", Rest))
    return fail("expected the spec line");
  {
    std::string SpecText;
    if (!unescapeLine(Rest, SpecText))
      return fail("spec line has a dangling escape");
    long NL, NR;
    std::string Body, Err;
    if (!splitGuarded(SpecText, NL, NR, Body, Err))
      return fail("spec: " + Err);
    FormulaParser FP(Body, HW, NL, NR);
    if (!FP.parseFormula())
      return fail("spec premise: " + FP.Err);
    R.Stats.FormulaDepth = FP.MaxDepth;
  }

  // --- Relation ---
  if (!takePrefix("relation ", Rest))
    return fail("expected the relation line");
  long NRel = 0;
  if (!parseInts(Rest, {&NRel}) || NRel < 0)
    return fail("malformed relation count");
  uint64_t RelHash = fnv1a64("", 14695981039346656037ull);
  for (long K = 0; K < NRel; ++K) {
    if (!takePrefix("c ", Rest))
      return fail("expected conjunct " + std::to_string(K + 1) + " of " +
                  std::to_string(NRel) +
                  " (relation count disagrees with the conjunct lines)");
    RelHash = fnv1a64(Rest + "\n", RelHash);
    std::string Conjunct;
    if (!unescapeLine(Rest, Conjunct))
      return fail("conjunct line has a dangling escape");
    long NL, NR;
    std::string Body, Err;
    if (!splitGuarded(Conjunct, NL, NR, Body, Err))
      return fail("conjunct " + std::to_string(K + 1) + ": " + Err);
    FormulaParser FP(Body, HW, NL, NR);
    if (!FP.parseFormula())
      return fail("conjunct " + std::to_string(K + 1) + ": " + FP.Err);
    R.Stats.FormulaDepth = std::max(R.Stats.FormulaDepth, FP.MaxDepth);
    ++R.Stats.RelationConjuncts;
  }
  if (!takePrefix("relhash ", Rest))
    return fail("expected the relhash line");
  if (Rest != hex64(RelHash))
    return fail("relation hash mismatch: conjuncts hash to " +
                hex64(RelHash) + ", certificate claims " + Rest);

  // --- Proof streams ---
  if (!takePrefix("streams ", Rest))
    return fail("expected the streams line");
  long NStreams = 0;
  if (!parseInts(Rest, {&NStreams}) || NStreams < 0)
    return fail("malformed stream count");
  for (long SIdx = 0; SIdx < NStreams; ++SIdx) {
    if (!takePrefix("stream ", Rest))
      return fail("expected stream " + std::to_string(SIdx) + " of " +
                  std::to_string(NStreams));
    long Declared = -1, NEvents = -1;
    if (!parseInts(Rest, {&Declared, &NEvents}) || NEvents < 0)
      return fail("malformed stream header");
    if (Declared != SIdx)
      return fail("stream index " + std::to_string(Declared) +
                  " out of order (expected " + std::to_string(SIdx) + ")");
    // The tokenizer only splits records into events; every rule lives in
    // the StreamChecker, the same one --certify-smt runs in-process.
    StreamChecker SC;
    std::vector<int> Lits;
    for (long E = 0; E < NEvents; ++E) {
      if (!haveLine())
        return fail("stream ends after " + std::to_string(E) + " of " +
                    std::to_string(NEvents) + " events (truncated?)");
      const std::string &Line = Lines[I];
      if (Line.empty())
        return fail("empty event line");
      Fields F{Line, 1};
      long Id = -1, Act = -1;
      std::string Why;
      switch (Line[0]) {
      case 'g':
        if (!F.next(Id) || !F.next(Act) || !F.done() || Id < 0 || Act < 0 ||
            Act > StreamChecker::MaxDimacsVar)
          return fail("malformed goal-begin event");
        Why = SC.goalBegin(uint64_t(Id), int(Act));
        break;
      case 'i':
        if (!F.clause(Lits))
          return fail("malformed input clause");
        Why = SC.input(Lits);
        break;
      case 'l':
        if (!F.clause(Lits))
          return fail("malformed lemma clause");
        Why = SC.lemma(Lits);
        break;
      case 'd':
        if (!F.clause(Lits))
          return fail("malformed deletion");
        Why = SC.erase(Lits);
        break;
      case 'u':
        if (!F.next(Id) || Id < 0)
          return fail("malformed goal-unsat event");
        if (!F.clause(Lits))
          return fail("malformed goal-unsat core");
        Why = SC.goalUnsat(uint64_t(Id), Lits);
        break;
      case 'e':
        if (!F.next(Id) || !F.done() || Id < 0)
          return fail("malformed goal-sat event");
        Why = SC.goalSat(uint64_t(Id));
        break;
      case 'r':
        if (!F.done())
          return fail("malformed restart event");
        Why = SC.restart();
        break;
      default:
        return fail(std::string("unknown event kind '") + Line[0] + "'");
      }
      if (!Why.empty())
        return fail(Why);
      ++I;
    }
    std::string Why = SC.finish();
    if (!Why.empty())
      return fail("stream " + std::to_string(SIdx) + ": " + Why);
    if (!haveLine() || Lines[I] != "endstream")
      return fail("expected \"endstream\" after " +
                  std::to_string(NEvents) + " events");
    ++I;
    ++R.Stats.Streams;
    const StreamStats &SS = SC.stats();
    R.Stats.Goals += SS.Goals;
    R.Stats.UnsatGoals += SS.UnsatGoals;
    R.Stats.Inputs += SS.Inputs;
    R.Stats.Lemmas += SS.Lemmas;
    R.Stats.Deletions += SS.Deletions;
    R.Stats.DeletionsSkipped += SS.DeletionsSkipped;
  }

  // --- Trailer ---
  if (!takePrefix("trailer ", Rest))
    return fail("expected the trailer line");
  {
    std::string Text = " " + Rest;
    Fields F{Text, 0};
    long TN = -1, TM = -1;
    if (!F.next(TN) || !F.next(TM) || F.done() || Text[F.P] != ' ')
      return fail("malformed trailer");
    size_t Sp = Text.find(' ', F.P + 1);
    if (Sp == std::string::npos || Text.find(' ', Sp + 1) != std::string::npos)
      return fail("malformed trailer");
    std::string THash = Text.substr(F.P + 1, Sp - F.P - 1);
    std::string TFp = Text.substr(Sp + 1);
    if (TN != NRel || TM != NStreams)
      return fail("trailer counts (" + std::to_string(TN) + " conjuncts, " +
                  std::to_string(TM) + " streams) disagree with the body (" +
                  std::to_string(NRel) + ", " + std::to_string(NStreams) +
                  ")");
    if (THash != hex64(RelHash))
      return fail("trailer relation hash disagrees with the conjuncts");
    if (TFp != R.FingerprintHex)
      return fail("trailer fingerprint disagrees with the header");
  }
  if (!haveLine() || Lines[I] != CertEndMark)
    return fail(std::string("expected \"") + CertEndMark +
                "\" (certificate truncated?)");
  ++I;
  for (; I < Lines.size(); ++I)
    if (!Lines[I].empty())
      return fail("trailing content after the end mark");

  R.Ok = true;
  return R;
}
