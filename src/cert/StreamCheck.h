//===- StreamCheck.h - The one RUP checker for proof streams ----*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker every UNSAT answer goes through: one deletion-aware RUP
/// engine plus the goal-scope rules that make per-goal DRUP slices sound
/// under clause deletion and goal retirement (docs/CERTIFICATES.md). It
/// consumes one proof stream's events (cert/CertFormat.h's `g i l d u e
/// r` records) as DIMACS ints, one call per event. Two callers drive it:
///
///  * verifyCertificate (cert/CertVerify.h), which tokenizes an LFCERT
///    artifact and feeds every stream — the `leapfrog-certcheck` path;
///  * the in-repo solver under BitBlastSolver::CertifyUnsat
///    (`--certify-smt`), which feeds each goal's new events before it
///    returns the goal's answer.
///
/// Like the rest of cert/, this file depends on nothing but the standard
/// library: DRUP checking shares no code with solving, so a solver bug
/// cannot hide in the checker that vouches for it.
///
/// What a stream must satisfy, event by event:
///
///  * inputs extend the clause database; lemmas must be RUP (reverse unit
///    propagation) against the live database when they arrive; deletions
///    remove the stored clause matching the literal multiset (unknown
///    deletions are skipped — keeping a clause only strengthens the
///    database); restarts reset it;
///  * activation variables are fresh at their goal-begin (greater than
///    every variable mentioned since the last restart), at most one goal
///    is open at a time, goal ids strictly increase, no input contains a
///    positive activation literal, and an input inside a goal's scope that
///    mentions an activation variable carries that goal's guard;
///  * an UNSAT goal's core consists only of the open goal's negated
///    activation literal and is RUP; an empty core requires the database
///    to be conflicting at the root; one-shot goals (activation 0) only
///    close with empty cores.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_CERT_STREAMCHECK_H
#define LEAPFROG_CERT_STREAMCHECK_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace leapfrog {
namespace cert {

/// Counters over the events a StreamChecker accepted.
struct StreamStats {
  size_t Goals = 0;
  size_t UnsatGoals = 0;
  size_t Inputs = 0;
  size_t Lemmas = 0;
  size_t Deletions = 0;
  size_t DeletionsSkipped = 0;
};

/// Checks one proof stream incrementally. Clauses are DIMACS literals:
/// nonzero ints, variable |l|, negative when negated, each of magnitude at
/// most MaxDimacsVar. Memory grows with the number of distinct variables
/// mentioned, not with their magnitude. Every event call returns "" when
/// the event is accepted and an unlocated diagnostic when it is not;
/// after a rejection the checker's state is unspecified and the caller
/// stops.
class StreamChecker {
public:
  /// The largest DIMACS variable a stream may mention.
  static constexpr long MaxDimacsVar = 0x3fffffff;

  StreamChecker();
  ~StreamChecker();

  std::string input(const std::vector<int> &Clause);
  std::string lemma(const std::vector<int> &Clause);
  std::string erase(const std::vector<int> &Clause);
  /// \p Act is the DIMACS activation variable, 0 for a one-shot goal.
  std::string goalBegin(uint64_t Id, int Act);
  std::string goalUnsat(uint64_t Id, const std::vector<int> &Core);
  std::string goalSat(uint64_t Id);
  std::string restart();
  /// The end of the stream: no goal may still be open.
  std::string finish() const;

  const StreamStats &stats() const { return S; }

private:
  class RupDb;

  void noteVars(const std::vector<int> &Lits);

  std::unique_ptr<RupDb> Db;
  bool GoalOpen = false;
  int OpenAct = 0;      ///< DIMACS variable of the open goal; 0 = one-shot.
  uint64_t OpenId = 0;
  uint64_t LastId = 0;  ///< Goal ids strictly increase per stream.
  int MaxVarSeen = 0;   ///< Since the last restart, for freshness.
  std::unordered_set<int> ActVars; ///< Activation variables since restart.
  StreamStats S;
};

} // namespace cert
} // namespace leapfrog

#endif // LEAPFROG_CERT_STREAMCHECK_H
