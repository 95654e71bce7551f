//===- Bitvector.h - Arbitrary-width bit strings ----------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines Bitvector, the packed bit-string type used throughout the system.
///
/// The paper's semantic domain is {0,1}*: finite bit strings read from the
/// front of the packet. Bit 0 of a Bitvector is the *first* bit (the bit
/// that arrives first on the wire), matching the paper's zero-indexed slice
/// notation w[n1:n2] (Definition 3.1).
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SUPPORT_BITVECTOR_H
#define LEAPFROG_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace leapfrog {

/// An arbitrary-width bit string with paper-faithful slicing semantics.
///
/// Bits are stored packed, 64 per word; bit index 0 is the first bit of the
/// string. All widths are in bits. The empty bitvector (width 0) is the
/// paper's epsilon.
class Bitvector {
public:
  /// Constructs the empty bit string (epsilon).
  Bitvector() = default;

  /// Constructs an all-zero bit string of \p Width bits.
  explicit Bitvector(size_t Width) : Width(Width), Words(numWords(Width), 0) {}

  /// Constructs a bit string of \p Width bits whose contents spell \p Value
  /// most-significant-bit first (network order), i.e. bit 0 of the result is
  /// the MSB of the \p Width-bit truncation of \p Value. This matches how
  /// header field literals like 0x86dd are written in the paper's parsers.
  static Bitvector fromUint(uint64_t Value, size_t Width);

  /// Parses a string of '0'/'1' characters ("0101...") into a bitvector.
  /// Characters other than 0/1 (e.g. separators '_') are ignored.
  static Bitvector fromString(const std::string &Bits);

  /// Returns a bitvector of \p Width bits drawn from \p Rng-style generator
  /// output \p Raw (used by tests/benches to build deterministic packets).
  static Bitvector fromWords(const std::vector<uint64_t> &Raw, size_t Width);

  size_t size() const { return Width; }
  bool empty() const { return Width == 0; }

  /// Returns bit \p I (0 = first bit).
  bool bit(size_t I) const {
    assert(I < Width && "bit index out of range");
    return (Words[I >> 6] >> (I & 63)) & 1;
  }

  /// Sets bit \p I to \p Value.
  void setBit(size_t I, bool Value) {
    assert(I < Width && "bit index out of range");
    uint64_t Mask = uint64_t(1) << (I & 63);
    if (Value)
      Words[I >> 6] |= Mask;
    else
      Words[I >> 6] &= ~Mask;
  }

  /// Appends one bit at the end (the "read one more packet bit" operation
  /// of the configuration dynamics, Definition 3.5).
  void pushBack(bool Value);

  /// Returns this ++ Other (paper concatenation: Other's bits follow ours).
  Bitvector concat(const Bitvector &Other) const;

  /// Paper slice w[N1:N2] (Definition 3.1): the zero-indexed substring from
  /// min(N1, |w|-1) to min(N2, |w|-1) inclusive; empty when |w| = 0 or the
  /// clamped start exceeds the clamped end.
  Bitvector slice(size_t N1, size_t N2) const;

  /// Exact half-open subrange [Begin, End); asserts it is in bounds.
  /// Used internally where clamping semantics would mask bugs.
  Bitvector extract(size_t Begin, size_t End) const;

  /// Returns the first \p N bits; asserts N <= size().
  Bitvector takeFront(size_t N) const { return extract(0, N); }

  /// Returns everything after the first \p N bits; asserts N <= size().
  Bitvector dropFront(size_t N) const { return extract(N, Width); }

  /// Interprets the whole string as an MSB-first unsigned integer.
  /// Asserts size() <= 64.
  uint64_t toUint() const;

  /// Renders as a '0'/'1' string, first bit leftmost.
  std::string str() const;

  /// Appends the rendering of str() to \p Out.
  void appendTo(std::string &Out) const;

  /// Stable hash of contents (for hashing-based containers and memo tables).
  size_t hash() const;

  bool operator==(const Bitvector &Other) const;
  bool operator!=(const Bitvector &Other) const { return !(*this == Other); }

  /// Lexicographic order (shorter strings first, then bit-wise); gives
  /// deterministic iteration when bitvectors key ordered containers.
  bool operator<(const Bitvector &Other) const;

private:
  static size_t numWords(size_t Bits) { return (Bits + 63) / 64; }

  /// Clears any junk bits above Width in the last word, preserving the
  /// invariant that equal contents imply equal words.
  void clearUnusedBits();

  size_t Width = 0;
  std::vector<uint64_t> Words;
};

/// Enumerates all 2^Width bitvectors of width \p Width in increasing
/// numeric order of their MSB-first value. Used by brute-force oracles in
/// tests; asserts Width <= 24 to keep enumeration sane.
std::vector<Bitvector> allBitvectors(size_t Width);

} // namespace leapfrog

namespace std {
template <> struct hash<leapfrog::Bitvector> {
  size_t operator()(const leapfrog::Bitvector &BV) const { return BV.hash(); }
};
} // namespace std

#endif // LEAPFROG_SUPPORT_BITVECTOR_H
