//===- Bitvector.cpp - Arbitrary-width bit strings ------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/Bitvector.h"

#include <algorithm>

using namespace leapfrog;

Bitvector Bitvector::fromUint(uint64_t Value, size_t Width) {
  assert(Width <= 64 && "fromUint supports at most 64 bits");
  Bitvector BV(Width);
  for (size_t I = 0; I < Width; ++I) {
    // Bit 0 of the result is the MSB of the Width-bit value.
    bool Bit = (Value >> (Width - 1 - I)) & 1;
    BV.setBit(I, Bit);
  }
  return BV;
}

Bitvector Bitvector::fromString(const std::string &Bits) {
  Bitvector BV;
  for (char C : Bits) {
    if (C == '0')
      BV.pushBack(false);
    else if (C == '1')
      BV.pushBack(true);
  }
  return BV;
}

Bitvector Bitvector::fromWords(const std::vector<uint64_t> &Raw,
                               size_t Width) {
  Bitvector BV(Width);
  for (size_t I = 0; I < Width; ++I) {
    size_t W = I >> 6;
    uint64_t Word = W < Raw.size() ? Raw[W] : 0;
    BV.setBit(I, (Word >> (I & 63)) & 1);
  }
  return BV;
}

void Bitvector::pushBack(bool Value) {
  if (Width % 64 == 0)
    Words.push_back(0);
  ++Width;
  setBit(Width - 1, Value);
}

Bitvector Bitvector::concat(const Bitvector &Other) const {
  Bitvector Result(Width + Other.Width);
  for (size_t I = 0; I < Width; ++I)
    Result.setBit(I, bit(I));
  for (size_t I = 0; I < Other.Width; ++I)
    Result.setBit(Width + I, Other.bit(I));
  return Result;
}

Bitvector Bitvector::slice(size_t N1, size_t N2) const {
  if (Width == 0)
    return Bitvector();
  size_t Begin = std::min(N1, Width - 1);
  size_t End = std::min(N2, Width - 1);
  if (Begin > End)
    return Bitvector();
  return extract(Begin, End + 1);
}

Bitvector Bitvector::extract(size_t Begin, size_t End) const {
  assert(Begin <= End && End <= Width && "extract out of range");
  Bitvector Result(End - Begin);
  for (size_t I = Begin; I < End; ++I)
    Result.setBit(I - Begin, bit(I));
  return Result;
}

uint64_t Bitvector::toUint() const {
  assert(Width <= 64 && "toUint supports at most 64 bits");
  uint64_t Value = 0;
  for (size_t I = 0; I < Width; ++I)
    Value = (Value << 1) | uint64_t(bit(I));
  return Value;
}

std::string Bitvector::str() const {
  std::string S;
  S.reserve(Width);
  appendTo(S);
  return S;
}

void Bitvector::appendTo(std::string &Out) const {
  for (size_t I = 0; I < Width; ++I)
    Out.push_back(bit(I) ? '1' : '0');
}

size_t Bitvector::hash() const {
  // FNV-1a over the packed words plus the width.
  uint64_t H = 14695981039346656037ull;
  auto Mix = [&H](uint64_t V) {
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (B * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  Mix(Width);
  for (uint64_t W : Words)
    Mix(W);
  return size_t(H);
}

void Bitvector::clearUnusedBits() {
  if (Width % 64 != 0 && !Words.empty())
    Words.back() &= (uint64_t(1) << (Width % 64)) - 1;
}

bool Bitvector::operator==(const Bitvector &Other) const {
  return Width == Other.Width && Words == Other.Words;
}

bool Bitvector::operator<(const Bitvector &Other) const {
  if (Width != Other.Width)
    return Width < Other.Width;
  for (size_t I = 0; I < Width; ++I)
    if (bit(I) != Other.bit(I))
      return Other.bit(I);
  return false;
}

std::vector<Bitvector> leapfrog::allBitvectors(size_t Width) {
  assert(Width <= 24 && "enumeration is exponential; keep widths small");
  std::vector<Bitvector> All;
  All.reserve(size_t(1) << Width);
  for (uint64_t V = 0; V < (uint64_t(1) << Width); ++V)
    All.push_back(Bitvector::fromUint(V, Width));
  return All;
}
