//===- Parser.cpp - Textual front-end for P4 automata ---------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "p4a/Parser.h"

#include "p4a/Typing.h"

#include <cctype>
#include <cstdio>

using namespace leapfrog;
using namespace leapfrog::p4a;

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
};

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
    // Multi-character operators.
    for (const char *Op : {"++", ":=", "=>"}) {
      size_t Len = 2;
      if (Src.compare(Pos, Len, Op) == 0) {
        Current.K = Token::Kind::Punct;
        Current.Text = Op;
        Pos += Len;
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
    std::string Digits = Src.substr(Begin, Pos - Begin);
    // Bare digit strings of only 0/1 are binary literals in pattern and
    // expression positions (matching the paper's `(0001) => ...` style),
    // but plain decimal in width positions; the parser decides from
    // context, so report both facets: Kind::Number with the raw text.
    Current.K = Token::Kind::Number;
    Current.Text = Digits;
  }

  void skipTrivia() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (std::isspace(static_cast<unsigned char>(C))) {
        if (C == '\n')
          ++Line;
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
  int Line = 1;
  Token Current;
};

/// Recursive-descent parser for the DSL. Collects errors instead of
/// throwing; on error it attempts to resynchronize at the next state.
class Parser {
public:
  explicit Parser(const std::string &Source) : Lex(Source) {}

  ParseResult run() {
    // Pass 1 fills in header sizes and state names so bodies can forward-
    // reference both; it is folded into construction: headers are declared
    // by `header` items and by `extract(h, n)` when first seen, and states
    // via declareState. To let an assignment mention a header that is only
    // extracted *later*, we pre-scan for extracts and header declarations.
    prescan();
    while (!atEnd() && Result.Errors.size() < 20) {
      if (peekIdent("state")) {
        parseState();
        continue;
      }
      if (peekIdent("header")) {
        parseHeaderDecl();
        continue;
      }
      error("expected 'state' or 'header'");
      Lex.take();
    }
    if (Result.ok())
      for (const std::string &D : typeCheck(Result.Aut))
        Result.Errors.push_back("type error: " + D);
    return std::move(Result);
  }

private:
  void prescan() {
    // A light re-lex of the whole source looking for `extract(ident, num)`
    // and `header ident : num`.
    Lexer Scan = Lex;
    Token A = Scan.take();
    Token B = Scan.take();
    Token C = Scan.take();
    Token D = Scan.take();
    Token E = Scan.take();
    auto Shift = [&]() {
      A = B;
      B = C;
      C = D;
      D = E;
      E = Scan.take();
    };
    while (A.K != Token::Kind::End) {
      if (A.K == Token::Kind::Ident && A.Text == "extract" &&
          B.Text == "(" && C.K == Token::Kind::Ident && D.Text == "," &&
          E.K == Token::Kind::Number)
        declareHeader(C.Text, std::stoul(E.Text), C.Line);
      if (A.K == Token::Kind::Ident && A.Text == "header" &&
          B.K == Token::Kind::Ident && C.Text == ":" &&
          D.K == Token::Kind::Number)
        declareHeader(B.Text, std::stoul(D.Text), B.Line);
      if (A.K == Token::Kind::Ident && A.Text == "state" &&
          B.K == Token::Kind::Ident)
        Result.Aut.declareState(B.Text);
      Shift();
    }
  }

  bool atEnd() const { return Lex.peek().K == Token::Kind::End; }

  /// Declares (or re-finds) a header, diagnosing size conflicts instead of
  /// tripping the Automaton-level assertion.
  std::optional<HeaderId> declareHeader(const std::string &Name,
                                        size_t Bits, int Line) {
    if (auto H = Result.Aut.findHeader(Name)) {
      if (Result.Aut.headerSize(*H) != Bits) {
        Result.Errors.push_back(
            "line " + std::to_string(Line) + ": header '" + Name +
            "' redeclared with size " + std::to_string(Bits) +
            " (previously " +
            std::to_string(Result.Aut.headerSize(*H)) + ")");
        return std::nullopt;
      }
      return H;
    }
    return Result.Aut.addHeader(Name, Bits);
  }

  bool peekIdent(const std::string &S) const {
    return Lex.peek().K == Token::Kind::Ident && Lex.peek().Text == S;
  }

  bool peekPunct(const std::string &S) const {
    return Lex.peek().K == Token::Kind::Punct && Lex.peek().Text == S;
  }

  void error(const std::string &Msg) {
    if (Abandoned)
      return;
    Result.Errors.push_back("line " + std::to_string(Lex.peek().Line) +
                            ": " + Msg +
                            (Lex.peek().Text.empty()
                                 ? ""
                                 : " (at '" + Lex.peek().Text + "')"));
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
    if (Lex.peek().K == Token::Kind::Number)
      return std::stoul(Lex.take().Text);
    error("expected number");
    return 0;
  }

  void parseHeaderDecl() {
    Lex.take(); // 'header'
    std::string Name = expectIdent();
    expectPunct(":");
    size_t Bits = expectNumber();
    expectPunct(";");
    if (!Name.empty() && Bits > 0)
      declareHeader(Name, Bits, Lex.peek().Line);
  }

  StateRef parseTarget() {
    if (peekIdent("accept")) {
      Lex.take();
      return StateRef::accept();
    }
    if (peekIdent("reject")) {
      Lex.take();
      return StateRef::reject();
    }
    std::string Name = expectIdent();
    if (Name.empty())
      return StateRef::reject();
    return StateRef::normal(Result.Aut.declareState(Name));
  }

  /// Parses a literal token into a bitvector; bare digit runs are binary.
  std::optional<Bitvector> parseLiteralToken() {
    const Token &T = Lex.peek();
    if (T.K == Token::Kind::Binary) {
      Bitvector BV = Bitvector::fromString(Lex.take().Text);
      return BV;
    }
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
      // In literal position a bare digit run must be binary.
      std::string Digits = Lex.take().Text;
      for (char C : Digits)
        if (C != '0' && C != '1') {
          error("bare numeric literal '" + Digits +
                "' contains non-binary digits; use 0b or 0x");
          return std::nullopt;
        }
      return Bitvector::fromString(Digits);
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

  ExprRef parsePrimary() {
    if (peekPunct("(")) {
      if (!nest())
        return nullptr;
      Lex.take();
      ExprRef E = parseConcat();
      expectPunct(")");
      return E;
    }
    if (Lex.peek().K == Token::Kind::Ident) {
      std::string Name = Lex.take().Text;
      auto H = Result.Aut.findHeader(Name);
      if (!H) {
        error("unknown header '" + Name + "'");
        return nullptr;
      }
      return Expr::mkHeader(*H);
    }
    if (auto BV = parseLiteralToken())
      return Expr::mkLiteral(std::move(*BV));
    error("expected expression");
    return nullptr;
  }

  ExprRef parseAtom() {
    ExprRef E = parsePrimary();
    while (E && peekPunct("[")) {
      if (!nest())
        return nullptr;
      Lex.take();
      size_t Lo = expectNumber();
      expectPunct(":");
      size_t Hi = expectNumber();
      expectPunct("]");
      E = Expr::mkSlice(E, Lo, Hi);
    }
    return E;
  }

  /// One whole expression: a select discriminant or an assigned value.
  ExprRef parseExpr() {
    ExprNesting = 0;
    return parseConcat();
  }

  ExprRef parseConcat() {
    ExprRef E = parseAtom();
    while (E && peekPunct("++")) {
      if (!nest())
        return nullptr;
      Lex.take();
      ExprRef R = parseAtom();
      if (!R)
        return nullptr;
      E = Expr::mkConcat(E, R);
    }
    return E;
  }

  Pattern parsePattern() {
    if (peekPunct("_")) {
      Lex.take();
      return Pattern::wildcard();
    }
    if (auto BV = parseLiteralToken())
      return Pattern::exact(std::move(*BV));
    error("expected pattern (literal or '_')");
    Lex.take();
    return Pattern::wildcard();
  }

  std::vector<Pattern> parsePatternTuple() {
    std::vector<Pattern> Pats;
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

  Transition parseTransition() {
    if (peekIdent("goto")) {
      Lex.take();
      return Transition::mkGoto(parseTarget());
    }
    // select(e1, .., ek) { cases }
    Lex.take(); // 'select'
    expectPunct("(");
    std::vector<ExprRef> Ds;
    Ds.push_back(parseExpr());
    while (peekPunct(",")) {
      Lex.take();
      Ds.push_back(parseExpr());
    }
    expectPunct(")");
    expectPunct("{");
    std::vector<SelectCase> Cases;
    while (!peekPunct("}") && !atEnd()) {
      SelectCase C;
      C.Pats = parsePatternTuple();
      expectPunct("=>");
      C.Target = parseTarget();
      Cases.push_back(std::move(C));
    }
    expectPunct("}");
    return Transition::mkSelect(std::move(Ds), std::move(Cases));
  }

  void parseState() {
    Lex.take(); // 'state'
    std::string Name = expectIdent();
    if (Name.empty())
      return;
    StateId Id = Result.Aut.declareState(Name);
    expectPunct("{");
    std::vector<Op> Ops;
    Transition Tz = Transition::mkGoto(StateRef::reject());
    bool SawTransition = false;
    while (!peekPunct("}") && !atEnd()) {
      if (peekIdent("extract")) {
        Lex.take();
        expectPunct("(");
        std::string H = expectIdent();
        expectPunct(",");
        size_t Bits = expectNumber();
        expectPunct(")");
        expectPunct(";");
        if (!H.empty() && Bits > 0)
          if (auto Id = declareHeader(H, Bits, Lex.peek().Line))
            Ops.push_back(Op::extract(*Id));
        continue;
      }
      if (peekIdent("goto") || peekIdent("select")) {
        Tz = parseTransition();
        SawTransition = true;
        break;
      }
      // Assignment: ident := expr ;
      std::string H = expectIdent();
      if (H.empty()) {
        Lex.take();
        continue;
      }
      auto HId = Result.Aut.findHeader(H);
      if (!HId)
        error("assignment to unknown header '" + H + "'");
      expectPunct(":=");
      ExprRef E = parseExpr();
      expectPunct(";");
      if (HId && E)
        Ops.push_back(Op::assign(*HId, std::move(E)));
    }
    if (!SawTransition)
      error("state '" + Name + "' has no goto/select transition");
    expectPunct("}");
    Result.Aut.setState(Id, std::move(Ops), std::move(Tz));
  }

  Lexer Lex;
  ParseResult Result;
  /// See nest(). Hand-written programs stay far below it.
  static constexpr size_t MaxExprNesting = 256;
  size_t ExprNesting = 0; ///< Of the expression being parsed.
  bool Abandoned = false; ///< Set by nest(); silences follow-on errors.
};

} // namespace

ParseResult p4a::parseAutomaton(const std::string &Source) {
  return Parser(Source).run();
}

Automaton p4a::parseAutomatonOrDie(const std::string &Source) {
  ParseResult R = parseAutomaton(Source);
  if (!R.ok()) {
    for (const std::string &E : R.Errors)
      std::fprintf(stderr, "p4a parse error: %s\n", E.c_str());
    assert(false && "parseAutomatonOrDie failed; see stderr");
  }
  return std::move(R.Aut);
}
