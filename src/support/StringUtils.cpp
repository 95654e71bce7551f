//===- StringUtils.cpp - String formatting helpers ------------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdio>

using namespace leapfrog;

std::string leapfrog::join(const std::vector<std::string> &Parts,
                           const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

bool leapfrog::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

std::string leapfrog::trim(const std::string &S) {
  size_t Begin = 0, End = S.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string> leapfrog::splitAndTrim(const std::string &S,
                                                const std::string &Delims) {
  std::vector<std::string> Pieces;
  std::string Current;
  for (char C : S) {
    if (Delims.find(C) != std::string::npos) {
      std::string T = trim(Current);
      if (!T.empty())
        Pieces.push_back(T);
      Current.clear();
    } else {
      Current.push_back(C);
    }
  }
  std::string T = trim(Current);
  if (!T.empty())
    Pieces.push_back(T);
  return Pieces;
}

void leapfrog::appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += char(C);
      }
    }
  }
  Out += '"';
}
