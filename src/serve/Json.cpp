//===- Json.cpp - Minimal JSON values for the wire protocol ---------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace leapfrog;
using namespace leapfrog::serve;

Json Json::unsignedInt(uint64_t U) {
  assert(U <= uint64_t(INT64_MAX) && "counter exceeds the JSON integer lane");
  return integer(int64_t(U));
}

uint64_t Json::asUnsigned() const {
  int64_t V = asInt();
  return V < 0 ? 0 : uint64_t(V);
}

const Json &Json::get(const std::string &Key) const {
  static const Json Null;
  auto It = Obj.find(Key);
  return It == Obj.end() ? Null : It->second;
}

bool Json::getBool(const std::string &Key, bool Default) const {
  const Json &J = get(Key);
  return J.isBool() ? J.asBool() : Default;
}

uint64_t Json::getUnsigned(const std::string &Key, uint64_t Default) const {
  const Json &J = get(Key);
  return J.isNumber() ? J.asUnsigned() : Default;
}

std::string Json::getString(const std::string &Key,
                            const std::string &Default) const {
  const Json &J = get(Key);
  return J.isString() ? J.asString() : Default;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

void serializeInto(const Json &J, std::string &Out) {
  switch (J.kind()) {
  case Json::Kind::Null:
    Out += "null";
    break;
  case Json::Kind::Bool:
    Out += J.asBool() ? "true" : "false";
    break;
  case Json::Kind::Int:
    Out += std::to_string(J.asInt());
    break;
  case Json::Kind::Double: {
    // %.17g round-trips every double; rendered infinities/NaNs are not
    // valid JSON, so clamp them to null (the protocol never emits them).
    double D = J.asDouble();
    if (!std::isfinite(D)) {
      Out += "null";
      break;
    }
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Out += Buf;
    break;
  }
  case Json::Kind::String:
    appendJsonString(Out, J.asString());
    break;
  case Json::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Json &E : J.items()) {
      if (!First)
        Out += ',';
      First = false;
      serializeInto(E, Out);
    }
    Out += ']';
    break;
  }
  case Json::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &KV : J.fields()) {
      if (!First)
        Out += ',';
      First = false;
      appendJsonString(Out, KV.first);
      Out += ':';
      serializeInto(KV.second, Out);
    }
    Out += '}';
    break;
  }
  }
}

} // namespace

std::string Json::serialize() const {
  std::string Out;
  serializeInto(*this, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(const std::string &Text) : Text(Text) {}

  bool run(Json &Out, std::string *Error) {
    skipWs();
    if (!value(Out))
      return fail(Error);
    skipWs();
    if (Pos != Text.size()) {
      Err = "trailing characters after value";
      return fail(Error);
    }
    return true;
  }

private:
  bool fail(std::string *Error) {
    if (Error)
      *Error = (Err.empty() ? std::string("malformed input") : Err) +
               " at byte " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::string(Word).size();
    if (Text.compare(Pos, Len, Word) != 0) {
      Err = std::string("expected '") + Word + "'";
      return false;
    }
    Pos += Len;
    return true;
  }

  bool value(Json &Out) {
    if (Pos >= Text.size()) {
      Err = "unexpected end of input";
      return false;
    }
    switch (Text[Pos]) {
    case 'n':
      if (!literal("null"))
        return false;
      Out = Json::null();
      return true;
    case 't':
      if (!literal("true"))
        return false;
      Out = Json::boolean(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Json::boolean(false);
      return true;
    case '"': {
      std::string S;
      if (!string(S))
        return false;
      Out = Json::str(std::move(S));
      return true;
    }
    case '[':
    case '{': {
      if (Depth == Json::MaxDepth) {
        Err = "arrays and objects nest deeper than " +
              std::to_string(Json::MaxDepth) + " levels";
        return false;
      }
      ++Depth;
      bool Ok = Text[Pos] == '[' ? array(Out) : object(Out);
      --Depth;
      return Ok;
    }
    default:
      return number(Out);
    }
  }

  bool array(Json &Out) {
    ++Pos; // '['
    Out = Json::array();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      Json E;
      skipWs();
      if (!value(E))
        return false;
      Out.push(std::move(E));
      skipWs();
      if (Pos >= Text.size()) {
        Err = "unterminated array";
        return false;
      }
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      Err = "expected ',' or ']'";
      return false;
    }
  }

  bool object(Json &Out) {
    ++Pos; // '{'
    Out = Json::object();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"') {
        Err = "expected object key";
        return false;
      }
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':') {
        Err = "expected ':'";
        return false;
      }
      ++Pos;
      skipWs();
      Json V;
      if (!value(V))
        return false;
      Out.set(Key, std::move(V));
      skipWs();
      if (Pos >= Text.size()) {
        Err = "unterminated object";
        return false;
      }
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      Err = "expected ',' or '}'";
      return false;
    }
  }

  bool hex4(unsigned &Out) {
    if (Pos + 4 > Text.size()) {
      Err = "truncated \\u escape";
      return false;
    }
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos + I];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= unsigned(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= unsigned(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= unsigned(C - 'A' + 10);
      else {
        Err = "bad \\u escape digit";
        return false;
      }
    }
    Pos += 4;
    return true;
  }

  void appendUtf8(std::string &S, unsigned Cp) {
    if (Cp < 0x80) {
      S += char(Cp);
    } else if (Cp < 0x800) {
      S += char(0xc0 | (Cp >> 6));
      S += char(0x80 | (Cp & 0x3f));
    } else if (Cp < 0x10000) {
      S += char(0xe0 | (Cp >> 12));
      S += char(0x80 | ((Cp >> 6) & 0x3f));
      S += char(0x80 | (Cp & 0x3f));
    } else {
      S += char(0xf0 | (Cp >> 18));
      S += char(0x80 | ((Cp >> 12) & 0x3f));
      S += char(0x80 | ((Cp >> 6) & 0x3f));
      S += char(0x80 | (Cp & 0x3f));
    }
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    while (true) {
      if (Pos >= Text.size()) {
        Err = "unterminated string";
        return false;
      }
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size()) {
        Err = "unterminated escape";
        return false;
      }
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Cp;
        if (!hex4(Cp))
          return false;
        // Surrogate pair: a high surrogate must be followed by \uDC00-
        // \uDFFF; combine into one code point.
        if (Cp >= 0xd800 && Cp <= 0xdbff && Pos + 1 < Text.size() &&
            Text[Pos] == '\\' && Text[Pos + 1] == 'u') {
          size_t Save = Pos;
          Pos += 2;
          unsigned Lo;
          if (!hex4(Lo))
            return false;
          if (Lo >= 0xdc00 && Lo <= 0xdfff)
            Cp = 0x10000 + ((Cp - 0xd800) << 10) + (Lo - 0xdc00);
          else
            Pos = Save; // Not a pair; emit the lone surrogate below.
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        Err = "unknown escape";
        return false;
      }
    }
  }

  bool number(Json &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    bool Integral = true;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-')) {
      if (Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E')
        Integral = false;
      ++Pos;
    }
    if (Pos == Start || (Pos == Start + 1 && Text[Start] == '-')) {
      Err = "expected a value";
      return false;
    }
    std::string Num = Text.substr(Start, Pos - Start);
    if (Integral) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(Num.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0') {
        Out = Json::integer(V);
        return true;
      }
      // Out of int64 range: fall through to the double lane.
    }
    char *End = nullptr;
    double D = std::strtod(Num.c_str(), &End);
    if (!End || *End != '\0') {
      Err = "malformed number";
      Pos = Start;
      return false;
    }
    Out = Json::number(D);
    return true;
  }

  const std::string &Text;
  size_t Pos = 0;
  size_t Depth = 0; ///< Arrays and objects currently open.
  std::string Err;
};

} // namespace

bool Json::parse(const std::string &Text, Json &Out, std::string *Error) {
  return Parser(Text).run(Out, Error);
}
