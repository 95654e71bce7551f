//===- Json.h - Minimal JSON values for the wire protocol -------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON value type for the leapfrog-serve line
/// protocol (serve/Server.h): parse one request object per line, build
/// one response object per line. Deliberately minimal — no SAX layer, no
/// custom allocators, no document model — because a protocol whose
/// requests are two parser texts and a handful of option scalars needs
/// none of that, and the repo's no-new-dependencies rule rules out
/// vendoring one.
///
/// Numbers keep integer/double identity: integral literals parse to a
/// 64-bit integer lane and serialize back without a decimal point, so
/// stat counters (iterations, query counts, microsecond clocks) survive
/// a serialize→parse round trip bit-identically — which the service's
/// cache-hit tests assert. Objects are ordered maps, so serialization is
/// deterministic. Strings are byte sequences; escapes (including \uXXXX,
/// encoded to UTF-8) are handled on both sides.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SERVE_JSON_H
#define LEAPFROG_SERVE_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace leapfrog {
namespace serve {

/// One JSON value. Value type with deep copies; cheap enough for a
/// protocol whose payloads top out at a few kilobytes of parser text.
class Json {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() = default;

  static Json null() { return Json(); }
  static Json boolean(bool B) {
    Json J;
    J.K = Kind::Bool;
    J.B = B;
    return J;
  }
  static Json integer(int64_t I) {
    Json J;
    J.K = Kind::Int;
    J.I = I;
    return J;
  }
  /// Unsigned counters (stats, microsecond clocks). Asserts the value
  /// fits the signed lane — 9.2e18 µs is ~292k years, so it does.
  static Json unsignedInt(uint64_t U);
  static Json number(double D) {
    Json J;
    J.K = Kind::Double;
    J.D = D;
    return J;
  }
  static Json str(std::string S) {
    Json J;
    J.K = Kind::String;
    J.S = std::move(S);
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  int64_t asInt() const { return K == Kind::Double ? int64_t(D) : I; }
  uint64_t asUnsigned() const;
  double asDouble() const { return K == Kind::Int ? double(I) : D; }
  const std::string &asString() const { return S; }

  const std::vector<Json> &items() const { return Arr; }
  void push(Json J) { Arr.push_back(std::move(J)); }

  const std::map<std::string, Json> &fields() const { return Obj; }
  bool has(const std::string &Key) const { return Obj.count(Key) != 0; }
  /// Member lookup; a missing key reads as null (the protocol treats
  /// absent and null options identically).
  const Json &get(const std::string &Key) const;
  void set(const std::string &Key, Json J) { Obj[Key] = std::move(J); }

  /// Typed convenience getters with defaults, for option decoding.
  bool getBool(const std::string &Key, bool Default) const;
  uint64_t getUnsigned(const std::string &Key, uint64_t Default) const;
  std::string getString(const std::string &Key,
                        const std::string &Default = "") const;

  /// Compact single-line rendering (the protocol is line-oriented, so no
  /// pretty printing — a serialized value never contains a raw newline;
  /// control characters are escaped).
  std::string serialize() const;

  /// Arrays and objects may nest at most this deep. The parser recurses
  /// once per level, so without a bound one request line of 50 000 `[`
  /// overflowed the stack and took the daemon down with every connection;
  /// the protocol's own messages nest at most four levels.
  static constexpr size_t MaxDepth = 64;

  /// Parses \p Text as one JSON value (surrounding whitespace allowed,
  /// trailing garbage is an error). Returns false and sets \p Error with
  /// a byte offset on malformed input, including nesting past MaxDepth.
  static bool parse(const std::string &Text, Json &Out, std::string *Error);

private:
  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  std::vector<Json> Arr;
  std::map<std::string, Json> Obj;
};

} // namespace serve
} // namespace leapfrog

#endif // LEAPFROG_SERVE_JSON_H
