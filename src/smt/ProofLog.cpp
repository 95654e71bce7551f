//===- ProofLog.cpp - Streaming per-goal DRUP proof capture ----------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/ProofLog.h"

using namespace leapfrog;
using namespace leapfrog::smt;

//===----------------------------------------------------------------------===//
// ProofStream
//===----------------------------------------------------------------------===//

void ProofStream::onInput(const std::vector<Lit> &Clause) {
  ProofEvent E;
  E.K = ProofEvent::Kind::Input;
  E.Lits = Clause;
  Events.push_back(std::move(E));
}

void ProofStream::onLemma(const std::vector<Lit> &Clause) {
  ProofEvent E;
  E.K = ProofEvent::Kind::Lemma;
  E.Lits = Clause;
  Events.push_back(std::move(E));
}

void ProofStream::onDelete(const std::vector<Lit> &Clause) {
  ProofEvent E;
  E.K = ProofEvent::Kind::Delete;
  E.Lits = Clause;
  Events.push_back(std::move(E));
}

uint64_t ProofStream::goalBegin(Var ActVar) {
  ProofEvent E;
  E.K = ProofEvent::Kind::GoalBegin;
  E.GoalId = NextGoalId++;
  E.ActVar = ActVar;
  Events.push_back(std::move(E));
  return Events.back().GoalId;
}

void ProofStream::goalEndUnsat(uint64_t GoalId, std::vector<Lit> Core) {
  ProofEvent E;
  E.K = ProofEvent::Kind::GoalEndUnsat;
  E.GoalId = GoalId;
  E.Lits = std::move(Core);
  Events.push_back(std::move(E));
}

void ProofStream::goalEndSat(uint64_t GoalId) {
  ProofEvent E;
  E.K = ProofEvent::Kind::GoalEndSat;
  E.GoalId = GoalId;
  Events.push_back(std::move(E));
}

void ProofStream::restart() {
  ProofEvent E;
  E.K = ProofEvent::Kind::Restart;
  Events.push_back(std::move(E));
}
