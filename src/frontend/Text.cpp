//===- Text.cpp - Textual front-end for surface parsers -------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "frontend/Text.h"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

using namespace leapfrog;
using namespace leapfrog::frontend;

namespace {

struct Token {
  enum class Kind {
    Ident,   // state names, header names, keywords
    Number,  // decimal number
    Binary,  // bare or 0b binary literal
    Hex,     // 0x literal
    Punct,   // single punctuation or multi-char operator
    End,
  };

  Kind K = Kind::End;
  std::string Text;
  int Line = 0;
  int Col = 0;
};

/// The p4a lexer (p4a/Parser.cpp) with column tracking added: the
/// diagnostics battery pins exact line:col positions, so every token
/// remembers where it starts.
class Lexer {
public:
  explicit Lexer(const std::string &Source) : Src(Source) { advance(); }

  const Token &peek() const { return Current; }

  Token take() {
    Token T = Current;
    advance();
    return T;
  }

private:
  void advance() {
    skipTrivia();
    Current.Line = Line;
    Current.Col = int(Pos - LineStart) + 1;
    if (Pos >= Src.size()) {
      Current.K = Token::Kind::End;
      Current.Text.clear();
      return;
    }
    char C = Src[Pos];
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Begin = Pos;
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_'))
        ++Pos;
      Current.K = Token::Kind::Ident;
      Current.Text = Src.substr(Begin, Pos - Begin);
      // A bare `_` is punctuation (the wildcard pattern).
      if (Current.Text == "_")
        Current.K = Token::Kind::Punct;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      lexNumber();
      return;
    }
    for (const char *Op : {"++", ":=", "=>", "->"}) {
      if (Src.compare(Pos, 2, Op) == 0) {
        Current.K = Token::Kind::Punct;
        Current.Text = Op;
        Pos += 2;
        return;
      }
    }
    Current.K = Token::Kind::Punct;
    Current.Text = std::string(1, C);
    ++Pos;
  }

  void lexNumber() {
    size_t Begin = Pos;
    if (Src.compare(Pos, 2, "0b") == 0 || Src.compare(Pos, 2, "0B") == 0) {
      Pos += 2;
      while (Pos < Src.size() && (Src[Pos] == '0' || Src[Pos] == '1' ||
                                  Src[Pos] == '_'))
        ++Pos;
      Current.K = Token::Kind::Binary;
      Current.Text = Src.substr(Begin + 2, Pos - Begin - 2);
      return;
    }
    if (Src.compare(Pos, 2, "0x") == 0 || Src.compare(Pos, 2, "0X") == 0) {
      Pos += 2;
      while (Pos < Src.size() &&
             (std::isxdigit(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_'))
        ++Pos;
      Current.K = Token::Kind::Hex;
      Current.Text = Src.substr(Begin + 2, Pos - Begin - 2);
      return;
    }
    while (Pos < Src.size() &&
           std::isdigit(static_cast<unsigned char>(Src[Pos])))
      ++Pos;
    // Bare digit runs are binary literals in pattern/expression positions
    // but decimal in width positions; the parser decides from context.
    Current.K = Token::Kind::Number;
    Current.Text = Src.substr(Begin, Pos - Begin);
  }

  void skipTrivia() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (std::isspace(static_cast<unsigned char>(C))) {
        if (C == '\n') {
          ++Line;
          LineStart = Pos + 1;
        }
        ++Pos;
        continue;
      }
      if (C == '#' || (C == '/' && Pos + 1 < Src.size() &&
                       Src[Pos + 1] == '/')) {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
        continue;
      }
      break;
    }
  }

  const std::string &Src;
  size_t Pos = 0;
  size_t LineStart = 0;
  int Line = 1;
  Token Current;
};

/// Recursive-descent parser for the `.lfp` grammar. Collects errors
/// (capped at 20) instead of throwing; on a malformed statement it skips
/// to the next ';' or '}' and continues.
class Parser {
public:
  explicit Parser(const std::string &Source)
      : Source(Source), Lex(Source) {}

  TextParseResult run() {
    // Declarations may appear anywhere, but bodies need the header/stack
    // tables to disambiguate `s[0]` (stack element) from `h[0:3]` (slice)
    // and to bounds-check at parse time — so pre-scan all declarations.
    prescan();
    bool SawEntry = false;
    while (!atEnd() && Result.Errors.size() < 20) {
      if (peekIdent("header")) {
        parseHeaderDecl();
        continue;
      }
      if (peekIdent("stack")) {
        parseStackDecl();
        continue;
      }
      if (peekIdent("entry")) {
        Token T = Lex.take();
        std::string Name = expectIdent();
        expectPunct(";");
        if (SawEntry)
          error(T, "duplicate entry declaration");
        else if (!Name.empty())
          Result.Program.setEntry(Name);
        SawEntry = true;
        continue;
      }
      if (peekIdent("state")) {
        Result.Program.addState(parseState(/*Scope=*/""));
        continue;
      }
      if (peekIdent("subparser")) {
        parseSubParser();
        continue;
      }
      error("expected 'header', 'stack', 'entry', 'state', or "
            "'subparser'");
      Lex.take();
    }
    if (!SawEntry && Result.Errors.size() < 20)
      error("missing entry declaration ('entry <state>;')");
    checkCallCycles();
    return std::move(Result);
  }

private:
  struct CallEdge {
    std::string From;   ///< Enclosing subparser; "" = main parser.
    std::string Callee;
    bool ExplicitCont;
    int Line, Col;
  };

  //===--- token plumbing -------------------------------------------------===//

  bool atEnd() const { return Lex.peek().K == Token::Kind::End; }

  bool peekIdent(const std::string &S) const {
    return Lex.peek().K == Token::Kind::Ident && Lex.peek().Text == S;
  }

  bool peekPunct(const std::string &S) const {
    return Lex.peek().K == Token::Kind::Punct && Lex.peek().Text == S;
  }

  void error(const Token &At, const std::string &Msg) {
    // Hard cap: the statement loops stop asking for new constructs at 20
    // diagnostics, but one malformed statement can emit a few follow-ons
    // while unwinding; keep the flood bounded either way.
    if (Abandoned || Result.Errors.size() >= 24)
      return;
    Result.Errors.push_back(std::to_string(At.Line) + ":" +
                            std::to_string(At.Col) + ": " + Msg);
  }

  void error(const std::string &Msg) {
    const Token &T = Lex.peek();
    error(T, Msg + (T.Text.empty() ? "" : " (at '" + T.Text + "')"));
  }

  bool expectPunct(const std::string &S) {
    if (peekPunct(S)) {
      Lex.take();
      return true;
    }
    error("expected '" + S + "'");
    return false;
  }

  std::string expectIdent() {
    if (Lex.peek().K == Token::Kind::Ident)
      return Lex.take().Text;
    error("expected identifier");
    return "";
  }

  size_t expectNumber() {
    if (Lex.peek().K == Token::Kind::Number) {
      Token T = Lex.take();
      char *End = nullptr;
      unsigned long long V = std::strtoull(T.Text.c_str(), &End, 10);
      if (V > 1000000000ull) {
        error(T, "number '" + T.Text + "' is out of range");
        return 0;
      }
      return size_t(V);
    }
    error("expected number");
    return 0;
  }

  /// Skips to just past the next ';' (or to a '}' / end), resynchronizing
  /// after a malformed statement.
  void syncStatement() {
    while (!atEnd() && !peekPunct(";") && !peekPunct("}"))
      Lex.take();
    if (peekPunct(";"))
      Lex.take();
  }

  //===--- declaration prescan --------------------------------------------===//

  void prescan() {
    Lexer Scan(Src());
    // A sliding 7-token window over the raw stream, wide enough for
    // `stack IDENT [ NUM ] : NUM`.
    Token W[7];
    for (Token &T : W)
      T = Scan.take();
    auto Shift = [&]() {
      for (int I = 0; I < 6; ++I)
        W[I] = W[I + 1];
      W[6] = Scan.take();
    };
    auto Num = [](const Token &T) { return T.K == Token::Kind::Number; };
    auto Id = [](const Token &T) { return T.K == Token::Kind::Ident; };
    while (W[0].K != Token::Kind::End) {
      if (Id(W[0]) && W[0].Text == "header" && Id(W[1]) &&
          W[2].Text == ":" && Num(W[3]) && !HeaderW.count(W[1].Text))
        HeaderW[W[1].Text] = size_t(std::strtoull(W[3].Text.c_str(),
                                                  nullptr, 10));
      if (Id(W[0]) && W[0].Text == "stack" && Id(W[1]) &&
          W[2].Text == "[" && Num(W[3]) && W[4].Text == "]" &&
          W[5].Text == ":" && Num(W[6]) && !StackD.count(W[1].Text))
        StackD[W[1].Text] = SurfaceProgram::StackDecl{
            size_t(std::strtoull(W[3].Text.c_str(), nullptr, 10)),
            size_t(std::strtoull(W[6].Text.c_str(), nullptr, 10))};
      if (Id(W[0]) && W[0].Text == "subparser" && Id(W[1]))
        SubNames.insert(W[1].Text);
      Shift();
    }
  }

  // Lexer keeps a reference to the source; expose it for the prescan's
  // second lexer.
  const std::string &Src() const { return Source; }

  //===--- declarations ---------------------------------------------------===//

  void parseHeaderDecl() {
    Lex.take(); // 'header'
    Token NameTok = Lex.peek();
    std::string Name = expectIdent();
    expectPunct(":");
    size_t Bits = expectNumber();
    expectPunct(";");
    if (Name.empty())
      return;
    if (StackD.count(Name)) {
      error(NameTok, "'" + Name + "' is declared both as header and stack");
      return;
    }
    if (Bits == 0) {
      error(NameTok, "header '" + Name + "' must be at least one bit wide");
      return;
    }
    auto It = HeaderW.find(Name);
    if (It != HeaderW.end() && It->second != Bits) {
      error(NameTok, "header '" + Name + "' redeclared with width " +
                         std::to_string(Bits) + " (previously " +
                         std::to_string(It->second) + ")");
      return;
    }
    HeaderW[Name] = Bits;
    Result.Program.addHeader(Name, Bits);
  }

  void parseStackDecl() {
    Lex.take(); // 'stack'
    Token NameTok = Lex.peek();
    std::string Name = expectIdent();
    expectPunct("[");
    size_t Slots = expectNumber();
    expectPunct("]");
    expectPunct(":");
    size_t Bits = expectNumber();
    expectPunct(";");
    if (Name.empty())
      return;
    if (HeaderW.count(Name)) {
      error(NameTok, "'" + Name + "' is declared both as header and stack");
      return;
    }
    if (Slots == 0 || Bits == 0) {
      error(NameTok, "stack '" + Name +
                         "' needs at least one slot and one bit");
      return;
    }
    auto It = StackD.find(Name);
    if (It != StackD.end() &&
        (It->second.Slots != Slots || It->second.Bits != Bits)) {
      error(NameTok, "stack '" + Name + "' redeclared with a different "
                     "shape");
      return;
    }
    StackD[Name] = SurfaceProgram::StackDecl{Slots, Bits};
    Result.Program.addStack(Name, Slots, Bits);
  }

  //===--- expressions ----------------------------------------------------===//

  /// Parses a literal token into a bitvector; bare digit runs are binary.
  std::optional<Bitvector> parseLiteralToken() {
    const Token &T = Lex.peek();
    if (T.K == Token::Kind::Binary)
      return Bitvector::fromString(Lex.take().Text);
    if (T.K == Token::Kind::Hex) {
      std::string Hex = Lex.take().Text;
      Bitvector BV;
      for (char C : Hex) {
        if (C == '_')
          continue;
        int V = std::isdigit(static_cast<unsigned char>(C))
                    ? C - '0'
                    : std::tolower(static_cast<unsigned char>(C)) - 'a' + 10;
        BV = BV.concat(Bitvector::fromUint(uint64_t(V), 4));
      }
      return BV;
    }
    if (T.K == Token::Kind::Number) {
      Token Tok = Lex.take();
      for (char C : Tok.Text)
        if (C != '0' && C != '1') {
          error(Tok, "bare numeric literal '" + Tok.Text +
                         "' contains non-binary digits; use 0b or 0x");
          return std::nullopt;
        }
      return Bitvector::fromString(Tok.Text);
    }
    return std::nullopt;
  }

  /// Static width of \p E from the declaration tables; nullopt only when
  /// a sub-expression already failed to parse.
  std::optional<size_t> widthOf(const SExprRef &E) {
    if (!E)
      return std::nullopt;
    switch (E->kind()) {
    case SExpr::Kind::Header: {
      auto It = HeaderW.find(E->name());
      return It == HeaderW.end() ? std::nullopt
                                 : std::optional<size_t>(It->second);
    }
    case SExpr::Kind::StackLast:
    case SExpr::Kind::StackElem: {
      auto It = StackD.find(E->name());
      return It == StackD.end() ? std::nullopt
                                : std::optional<size_t>(It->second.Bits);
    }
    case SExpr::Kind::Literal:
      return E->literal().size();
    case SExpr::Kind::Slice: {
      auto W = widthOf(E->sliceOperand());
      if (!W || *W == 0)
        return W;
      size_t Lo = std::min(E->sliceLo(), *W - 1);
      size_t Hi = std::min(E->sliceHi(), *W - 1);
      return Lo > Hi ? size_t(0) : Hi - Lo + 1;
    }
    case SExpr::Kind::Concat: {
      auto L = widthOf(E->concatLhs());
      auto R = widthOf(E->concatRhs());
      return L && R ? std::optional<size_t>(*L + *R) : std::nullopt;
    }
    }
    return std::nullopt;
  }

  /// Counts one parenthesis, slice or '++' of the expression being
  /// parsed. Parsing recurses once per parenthesis and later passes once
  /// per operator, so past MaxExprNesting the input is reported here and
  /// the rest of it skipped: a hostile nesting cannot overflow the stack.
  bool nest() {
    if (++ExprNesting <= MaxExprNesting)
      return true;
    error("expression nests deeper than " + std::to_string(MaxExprNesting) +
          " parentheses, slices and '++'");
    Abandoned = true;
    while (!atEnd())
      Lex.take();
    return false;
  }

  SExprRef parsePrimary() {
    if (peekPunct("(")) {
      if (!nest())
        return nullptr;
      Lex.take();
      SExprRef E = parseConcat();
      expectPunct(")");
      return E;
    }
    if (Lex.peek().K == Token::Kind::Ident) {
      Token NameTok = Lex.take();
      const std::string &Name = NameTok.Text;
      auto StackIt = StackD.find(Name);
      if (StackIt != StackD.end()) {
        if (peekPunct(".")) {
          Lex.take();
          Token Field = Lex.peek();
          std::string F = expectIdent();
          if (F == "last")
            return SExpr::mkStackLast(Name);
          if (F == "next")
            error(Field, "'" + Name + ".next' is only valid inside "
                         "extract()");
          else
            error(Field, "expected 'last' after '" + Name + ".'");
          return nullptr;
        }
        if (peekPunct("[")) {
          Lex.take();
          Token IdxTok = Lex.peek();
          size_t Idx = expectNumber();
          expectPunct("]");
          if (Idx >= StackIt->second.Slots) {
            error(IdxTok, "stack element " + Name + "[" +
                              std::to_string(Idx) +
                              "] is out of range (stack has " +
                              std::to_string(StackIt->second.Slots) +
                              " slots)");
            return nullptr;
          }
          return SExpr::mkStackElem(Name, Idx);
        }
        error(NameTok, "stack '" + Name + "' cannot be read whole; use '" +
                           Name + ".last' or '" + Name + "[i]'");
        return nullptr;
      }
      if (!HeaderW.count(Name)) {
        error(NameTok, "unknown header '" + Name + "'");
        return nullptr;
      }
      return SExpr::mkHeader(Name);
    }
    if (auto BV = parseLiteralToken())
      return SExpr::mkLiteral(std::move(*BV));
    error("expected expression");
    return nullptr;
  }

  SExprRef parseAtom() {
    SExprRef E = parsePrimary();
    while (E && peekPunct("[")) {
      if (!nest())
        return nullptr;
      Token Open = Lex.take();
      size_t Lo = expectNumber();
      expectPunct(":");
      size_t Hi = expectNumber();
      expectPunct("]");
      if (Lo > Hi) {
        error(Open, "slice [" + std::to_string(Lo) + ":" +
                        std::to_string(Hi) +
                        "] has its lower bound above its upper bound");
        return nullptr;
      }
      if (auto W = widthOf(E); W && Hi >= *W) {
        error(Open, "slice upper bound " + std::to_string(Hi) +
                        " is out of range (operand is " +
                        std::to_string(*W) + " bits wide)");
        return nullptr;
      }
      E = SExpr::mkSlice(E, Lo, Hi);
    }
    return E;
  }

  /// One whole expression: a select discriminant or an assigned value.
  SExprRef parseExpr() {
    ExprNesting = 0;
    return parseConcat();
  }

  SExprRef parseConcat() {
    SExprRef E = parseAtom();
    while (E && peekPunct("++")) {
      if (!nest())
        return nullptr;
      Lex.take();
      SExprRef R = parseAtom();
      if (!R)
        return nullptr;
      E = SExpr::mkConcat(E, R);
    }
    return E;
  }

  //===--- patterns and targets -------------------------------------------===//

  p4a::Pattern parsePattern() {
    if (peekPunct("_")) {
      Lex.take();
      return p4a::Pattern::wildcard();
    }
    if (auto BV = parseLiteralToken())
      return p4a::Pattern::exact(std::move(*BV));
    error("expected pattern (literal or '_')");
    Lex.take();
    return p4a::Pattern::wildcard();
  }

  std::vector<p4a::Pattern> parsePatternTuple() {
    std::vector<p4a::Pattern> Pats;
    if (peekPunct("(")) {
      Lex.take();
      Pats.push_back(parsePattern());
      while (peekPunct(",")) {
        Lex.take();
        Pats.push_back(parsePattern());
      }
      expectPunct(")");
      return Pats;
    }
    Pats.push_back(parsePattern());
    return Pats;
  }

  SurfaceTarget parseTarget(const std::string &Scope) {
    if (peekIdent("accept")) {
      Lex.take();
      return SurfaceTarget::accept();
    }
    if (peekIdent("reject")) {
      Lex.take();
      return SurfaceTarget::reject();
    }
    if (peekIdent("call")) {
      Token CallTok = Lex.take();
      Token CalleeTok = Lex.peek();
      std::string Callee = expectIdent();
      if (!Callee.empty() && !SubNames.count(Callee))
        error(CalleeTok, "call to unknown subparser '" + Callee + "'");
      std::string Cont;
      bool Explicit = false;
      if (peekPunct("->")) {
        Lex.take();
        Cont = expectIdent();
        Explicit = true;
      }
      Calls.push_back(
          CallEdge{Scope, Callee, Explicit, CallTok.Line, CallTok.Col});
      return SurfaceTarget::call(Callee, Cont);
    }
    std::string Name = expectIdent();
    if (Name.empty())
      return SurfaceTarget::reject();
    return SurfaceTarget::state(Name);
  }

  //===--- states ---------------------------------------------------------===//

  SurfaceTransition parseTransition(const std::string &Scope) {
    if (peekIdent("goto")) {
      Lex.take();
      SurfaceTarget T = parseTarget(Scope);
      expectPunct(";");
      return SurfaceTransition::mkGoto(std::move(T));
    }
    Token SelTok = Lex.take(); // 'select'
    expectPunct("(");
    std::vector<SExprRef> Ds;
    Ds.push_back(parseExpr());
    while (peekPunct(",")) {
      Lex.take();
      Ds.push_back(parseExpr());
    }
    expectPunct(")");
    expectPunct("{");
    std::vector<SurfaceCase> Cases;
    while (!peekPunct("}")) {
      if (atEnd() || Result.Errors.size() >= 20) {
        error(SelTok, "unterminated select (missing '}')");
        return SurfaceTransition::mkSelect(std::move(Ds),
                                           std::move(Cases));
      }
      SurfaceCase C;
      C.Pats = parsePatternTuple();
      expectPunct("=>");
      C.Target = parseTarget(Scope);
      expectPunct(";");
      Cases.push_back(std::move(C));
    }
    Lex.take(); // '}'
    return SurfaceTransition::mkSelect(std::move(Ds), std::move(Cases));
  }

  SurfaceState parseState(const std::string &Scope) {
    Lex.take(); // 'state'
    SurfaceState S;
    S.Name = expectIdent();
    expectPunct("{");
    bool SawTransition = false;
    while (!peekPunct("}") && !atEnd() && Result.Errors.size() < 20) {
      if (peekIdent("extract")) {
        Lex.take();
        expectPunct("(");
        Token NameTok = Lex.peek();
        std::string Name = expectIdent();
        if (peekPunct(".")) {
          Lex.take();
          Token Field = Lex.peek();
          if (expectIdent() != "next")
            error(Field, "expected 'next' after '" + Name + ".'");
          else if (!StackD.count(Name))
            error(NameTok, "extract(" + Name + ".next): '" + Name +
                               "' is not a declared stack");
          else
            S.Ops.push_back(SurfaceOp::extractNext(Name));
        } else if (StackD.count(Name)) {
          error(NameTok, "stack '" + Name + "' must be extracted with "
                         "extract(" + Name + ".next)");
        } else if (!Name.empty() && !HeaderW.count(Name)) {
          error(NameTok, "unknown header '" + Name + "'");
        } else if (!Name.empty()) {
          S.Ops.push_back(SurfaceOp::extract(Name));
        }
        expectPunct(")");
        expectPunct(";");
        continue;
      }
      if (peekIdent("goto") || peekIdent("select")) {
        S.Tz = parseTransition(Scope);
        SawTransition = true;
        break;
      }
      if (Lex.peek().K != Token::Kind::Ident) {
        error("expected an operation ('extract', ':=') or transition "
              "('goto', 'select')");
        syncStatement();
        continue;
      }
      // Assignment: ident := lookahead ; | ident := expr ;
      Token NameTok = Lex.take();
      const std::string &H = NameTok.Text;
      bool Known = HeaderW.count(H) != 0;
      if (!Known) {
        if (StackD.count(H))
          error(NameTok, "cannot assign to stack '" + H + "'");
        else
          error(NameTok, "unknown header '" + H + "'");
      }
      if (!expectPunct(":=")) {
        syncStatement();
        continue;
      }
      if (peekIdent("lookahead")) {
        Lex.take();
        if (Known)
          S.Ops.push_back(SurfaceOp::lookahead(H));
        expectPunct(";");
        continue;
      }
      SExprRef E = parseExpr();
      expectPunct(";");
      if (Known && E)
        S.Ops.push_back(SurfaceOp::assign(H, std::move(E)));
    }
    if (!SawTransition)
      error("state '" + S.Name + "' has no goto/select transition");
    expectPunct("}");
    return S;
  }

  void parseSubParser() {
    Lex.take(); // 'subparser'
    SubParser P;
    P.Name = expectIdent();
    expectPunct("{");
    if (peekIdent("entry")) {
      Lex.take();
      P.Entry = expectIdent();
      expectPunct(";");
    } else {
      error("subparser '" + P.Name +
            "' must declare its entry first ('entry <state>;')");
    }
    while (peekIdent("state") && Result.Errors.size() < 20)
      P.States.push_back(parseState(/*Scope=*/P.Name));
    expectPunct("}");
    Result.Program.addSubParser(std::move(P));
  }

  //===--- call-cycle analysis --------------------------------------------===//

  /// A call with an explicit continuation inside a call cycle makes the
  /// continuation chain grow on every recursion level, so no finite
  /// automaton can express it. Elaboration only detects this at inlining
  /// depth 64 with no source position; catch it here, at the call site.
  void checkCallCycles() {
    std::multimap<std::string, std::string> Edges;
    for (const CallEdge &E : Calls)
      if (!E.From.empty())
        Edges.emplace(E.From, E.Callee);
    auto Reaches = [&](const std::string &From, const std::string &To) {
      std::set<std::string> Seen{From};
      std::vector<std::string> Work{From};
      while (!Work.empty()) {
        std::string Cur = Work.back();
        Work.pop_back();
        if (Cur == To)
          return true;
        auto [B, End] = Edges.equal_range(Cur);
        for (auto It = B; It != End; ++It)
          if (Seen.insert(It->second).second)
            Work.push_back(It->second);
      }
      return false;
    };
    for (const CallEdge &E : Calls) {
      if (E.From.empty() || !E.ExplicitCont)
        continue;
      if (Reaches(E.Callee, E.From))
        Result.Errors.push_back(
            std::to_string(E.Line) + ":" + std::to_string(E.Col) +
            ": recursive subparser call: '" + E.From + "' calls '" +
            E.Callee +
            "' with an explicit continuation inside a call cycle — each "
            "recursion level would need a fresh continuation, which no "
            "finite automaton can express (use a plain 'call " +
            E.Callee + "' tail call instead)");
    }
  }

  const std::string &Source;
  Lexer Lex;
  TextParseResult Result;
  std::map<std::string, size_t> HeaderW;
  std::map<std::string, SurfaceProgram::StackDecl> StackD;
  std::set<std::string> SubNames;
  std::vector<CallEdge> Calls;
  /// See nest(). Generated and hand-written programs stay far below it.
  static constexpr size_t MaxExprNesting = 256;
  size_t ExprNesting = 0; ///< Of the expression being parsed.
  bool Abandoned = false; ///< Set by nest(); silences follow-on errors.
};

} // namespace

TextParseResult frontend::parseSurface(const std::string &Source) {
  return Parser(Source).run();
}

SurfaceProgram frontend::parseSurfaceOrDie(const std::string &Source) {
  TextParseResult R = parseSurface(Source);
  if (!R.ok()) {
    for (const std::string &E : R.Errors)
      std::fprintf(stderr, "lfp parse error: %s\n", E.c_str());
    assert(false && "parseSurfaceOrDie failed; see stderr");
  }
  return std::move(R.Program);
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

namespace {

std::string printSExpr(const SExprRef &E) {
  if (!E)
    return "<null>";
  switch (E->kind()) {
  case SExpr::Kind::Header:
    return E->name();
  case SExpr::Kind::StackLast:
    return E->name() + ".last";
  case SExpr::Kind::StackElem:
    return E->name() + "[" + std::to_string(E->stackIndex()) + "]";
  case SExpr::Kind::Literal:
    return "0b" + E->literal().str();
  case SExpr::Kind::Slice:
    return printSExpr(E->sliceOperand()) + "[" +
           std::to_string(E->sliceLo()) + ":" +
           std::to_string(E->sliceHi()) + "]";
  case SExpr::Kind::Concat:
    return "(" + printSExpr(E->concatLhs()) + " ++ " +
           printSExpr(E->concatRhs()) + ")";
  }
  return "<unknown>";
}

std::string printTarget(const SurfaceTarget &T) {
  switch (T.K) {
  case SurfaceTarget::Kind::Accept:
    return "accept";
  case SurfaceTarget::Kind::Reject:
    return "reject";
  case SurfaceTarget::Kind::State:
    return T.StateName;
  case SurfaceTarget::Kind::Call:
    return "call " + T.Callee +
           (T.ContinueAt.empty() ? "" : " -> " + T.ContinueAt);
  }
  return "reject";
}

void printState(const SurfaceState &S, const std::string &Indent,
                std::string &Out) {
  Out += "\n" + Indent + "state " + S.Name + " {\n";
  for (const SurfaceOp &O : S.Ops) {
    Out += Indent + "  ";
    switch (O.K) {
    case SurfaceOp::Kind::Extract:
      Out += "extract(" + O.Target + ");";
      break;
    case SurfaceOp::Kind::ExtractNext:
      Out += "extract(" + O.Target + ".next);";
      break;
    case SurfaceOp::Kind::Lookahead:
      Out += O.Target + " := lookahead;";
      break;
    case SurfaceOp::Kind::Assign:
      Out += O.Target + " := " + printSExpr(O.Value) + ";";
      break;
    }
    Out += "\n";
  }
  if (S.Tz.IsGoto) {
    Out += Indent + "  goto " + printTarget(S.Tz.GotoTarget) + ";\n";
  } else {
    std::vector<std::string> Ds;
    for (const SExprRef &D : S.Tz.Discriminants)
      Ds.push_back(printSExpr(D));
    Out += Indent + "  select(";
    for (size_t I = 0; I < Ds.size(); ++I)
      Out += (I ? ", " : "") + Ds[I];
    Out += ") {\n";
    for (const SurfaceCase &C : S.Tz.Cases) {
      Out += Indent + "    (";
      for (size_t I = 0; I < C.Pats.size(); ++I) {
        if (I)
          Out += ", ";
        Out += C.Pats[I].isWildcard() ? "_" : "0b" + C.Pats[I].Exact->str();
      }
      Out += ") => " + printTarget(C.Target) + ";\n";
    }
    Out += Indent + "  }\n";
  }
  Out += Indent + "}\n";
}

} // namespace

std::string frontend::printSurface(const SurfaceProgram &Program) {
  std::string Out;
  for (const auto &[Name, Bits] : Program.headers())
    Out += "header " + Name + " : " + std::to_string(Bits) + ";\n";
  for (const auto &[Name, Decl] : Program.stacks())
    Out += "stack " + Name + "[" + std::to_string(Decl.Slots) + "] : " +
           std::to_string(Decl.Bits) + ";\n";
  Out += "entry " + Program.entry() + ";\n";
  for (const SurfaceState &S : Program.mainStates())
    printState(S, "", Out);
  for (const SubParser &Sub : Program.subParsers()) {
    Out += "\nsubparser " + Sub.Name + " {\n  entry " + Sub.Entry + ";\n";
    for (const SurfaceState &S : Sub.States)
      printState(S, "  ", Out);
    Out += "}\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// P4A wrapping
//===----------------------------------------------------------------------===//

namespace {

SExprRef exprFromP4a(const p4a::Automaton &Aut, const p4a::ExprRef &E) {
  switch (E->kind()) {
  case p4a::Expr::Kind::Header:
    return SExpr::mkHeader(Aut.headerName(E->header()));
  case p4a::Expr::Kind::Literal:
    return SExpr::mkLiteral(E->literal());
  case p4a::Expr::Kind::Slice:
    return SExpr::mkSlice(exprFromP4a(Aut, E->sliceOperand()),
                          E->sliceLo(), E->sliceHi());
  case p4a::Expr::Kind::Concat:
    return SExpr::mkConcat(exprFromP4a(Aut, E->concatLhs()),
                           exprFromP4a(Aut, E->concatRhs()));
  }
  return nullptr;
}

SurfaceTarget targetFromRef(const p4a::Automaton &Aut, p4a::StateRef R) {
  if (R.isAccept())
    return SurfaceTarget::accept();
  if (R.isReject())
    return SurfaceTarget::reject();
  return SurfaceTarget::state(Aut.stateName(R.Id));
}

} // namespace

SurfaceProgram frontend::surfaceFromP4a(const p4a::Automaton &Aut,
                                        const std::string &Entry) {
  SurfaceProgram P;
  for (size_t H = 0; H < Aut.numHeaders(); ++H)
    P.addHeader(Aut.headerName(p4a::HeaderId(H)),
                Aut.headerSize(p4a::HeaderId(H)));
  for (size_t I = 0; I < Aut.numStates(); ++I) {
    const p4a::State &St = Aut.state(p4a::StateId(I));
    SurfaceState S;
    S.Name = St.Name;
    for (const p4a::Op &O : St.Ops) {
      if (O.K == p4a::Op::Kind::Extract)
        S.Ops.push_back(SurfaceOp::extract(Aut.headerName(O.Target)));
      else
        S.Ops.push_back(SurfaceOp::assign(Aut.headerName(O.Target),
                                          exprFromP4a(Aut, O.Value)));
    }
    if (St.Tz.IsGoto) {
      S.Tz = SurfaceTransition::mkGoto(targetFromRef(Aut, St.Tz.GotoTarget));
    } else {
      std::vector<SExprRef> Ds;
      for (const p4a::ExprRef &D : St.Tz.Discriminants)
        Ds.push_back(exprFromP4a(Aut, D));
      std::vector<SurfaceCase> Cases;
      for (const p4a::SelectCase &C : St.Tz.Cases)
        Cases.push_back(SurfaceCase{C.Pats, targetFromRef(Aut, C.Target)});
      S.Tz = SurfaceTransition::mkSelect(std::move(Ds), std::move(Cases));
    }
    P.addState(std::move(S));
  }
  P.setEntry(Entry);
  return P;
}

