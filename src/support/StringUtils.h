//===- StringUtils.h - String formatting helpers ----------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting helpers shared by the pretty-printers (P4A text format,
/// ConfRel debug dumps, SMT-LIB emission) and the JSON writers.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_SUPPORT_STRINGUTILS_H
#define LEAPFROG_SUPPORT_STRINGUTILS_H

#include <string>
#include <vector>

namespace leapfrog {

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// True if \p S starts with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Strips ASCII whitespace from both ends.
std::string trim(const std::string &S);

/// Splits on any character in \p Delims, dropping empty pieces.
std::vector<std::string> splitAndTrim(const std::string &S,
                                      const std::string &Delims);

/// Appends \p S to \p Out as a quoted JSON string literal: quote and
/// backslash escaped, the short escapes for \b \f \n \r \t, \uXXXX for
/// any other control character, every other byte verbatim.
void appendJsonString(std::string &Out, const std::string &S);

} // namespace leapfrog

#endif // LEAPFROG_SUPPORT_STRINGUTILS_H
