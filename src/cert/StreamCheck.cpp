//===- StreamCheck.cpp - The one RUP checker for proof streams ------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cert/StreamCheck.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

using namespace leapfrog;
using namespace leapfrog::cert;

//===----------------------------------------------------------------------===//
// A deletion-aware RUP database over DIMACS literals, written against the
// DRUP literature and sharing nothing with smt/. Literals are nonzero ints;
// variable v is |l|, sign is polarity.
//
// The database works on dense literals: each DIMACS variable is renamed,
// on first mention, to the next unused index. Memory therefore follows
// the number of distinct variables a stream mentions, not the magnitude
// of the largest one — a stream is untrusted input, and one
// `i -1073741823 0` line would otherwise size every array by a billion.
// Renaming is a bijection that keeps signs, so RUP, unit propagation and
// the multiset match of deletions are unchanged by it.
//===----------------------------------------------------------------------===//

class StreamChecker::RupDb {
public:
  bool RootConflict = false;

  /// \p C over dense literals, naming any variable not seen before. The
  /// result lives in a buffer the next rename overwrites.
  const std::vector<int> &rename(const std::vector<int> &C) {
    std::vector<int> &D = Renamed;
    D.clear();
    for (int L : C) {
      int &Slot = Dense[std::abs(L)]; // 0 = not named yet
      if (Slot == 0) {
        Slot = int(Assign.size());
        Assign.push_back(0);
        Watch.resize(Watch.size() + 2);
      }
      D.push_back(L > 0 ? Slot : -Slot);
    }
    return D;
  }

  /// Like rename, but null when \p C mentions a variable never seen —
  /// no stored clause can match it then.
  const std::vector<int> *renameKnown(const std::vector<int> &C) {
    std::vector<int> &D = Renamed;
    D.clear();
    for (int L : C) {
      auto It = Dense.find(std::abs(L));
      if (It == Dense.end())
        return nullptr;
      D.push_back(L > 0 ? It->second : -It->second);
    }
    return &D;
  }

  /// Adds a (renamed) clause to the database, propagating to saturation.
  /// Units go straight to the root trail (they are never deletion targets
  /// — the solver only deletes stored clauses, which are always
  /// binary-plus).
  void add(const std::vector<int> &C) {
    if (RootConflict)
      return;
    if (C.empty()) {
      RootConflict = true;
      return;
    }
    if (C.size() == 1) {
      if (!enqueue(C[0]) || propagate())
        RootConflict = true;
      return;
    }
    int Id = int(Clauses.size());
    Clauses.push_back({C, false});
    std::vector<int> &Stored = Clauses[Id].Lits;
    // Watch two non-false literals when they exist.
    size_t W = 0;
    for (size_t I = 0; I < Stored.size() && W < 2; ++I)
      if (val(Stored[I]) >= 0)
        std::swap(Stored[W++], Stored[I]);
    ByKey[key(C)].push_back(Id);
    Watch[idx(-Stored[0])].push_back(Id);
    Watch[idx(-Stored[1])].push_back(Id);
    if (W < 2) {
      if (!enqueue(Stored[0]) || propagate())
        RootConflict = true;
    }
  }

  /// True iff the (renamed) clause is a reverse-unit-propagation
  /// consequence of the live database. Leaves the root trail unchanged. A
  /// literal already true at the root makes the clause implied outright;
  /// this also covers tautologies (x ∨ ¬x).
  bool isRup(const std::vector<int> &C) {
    if (RootConflict)
      return true;
    size_t Mark = Trail.size();
    bool Conflict = false;
    for (int L : C) {
      int V = val(L);
      if (V > 0) {
        Conflict = true;
        break;
      }
      if (V == 0 && !enqueue(-L)) {
        Conflict = true;
        break;
      }
    }
    if (!Conflict)
      Conflict = propagate();
    for (size_t I = Mark; I < Trail.size(); ++I)
      Assign[std::abs(Trail[I])] = 0;
    Trail.resize(Mark);
    Head = Mark;
    return Conflict;
  }

  /// Removes the stored clause matching the (renamed) \p C as a literal
  /// multiset. Returns false when no live clause matches (the caller
  /// skips the deletion — keeping a clause only strengthens the
  /// database). Root facts a deleted clause helped derive stay: they are
  /// consequences of the inputs seen so far, and deletion never retracts
  /// an input.
  bool erase(const std::vector<int> &C) {
    if (C.size() < 2)
      return false;
    auto It = ByKey.find(key(C));
    if (It == ByKey.end() || It->second.empty())
      return false;
    int Id = It->second.back();
    It->second.pop_back();
    if (It->second.empty())
      ByKey.erase(It);
    Clauses[Id].Deleted = true;
    Clauses[Id].Lits.clear();
    Clauses[Id].Lits.shrink_to_fit();
    return true;
  }

private:
  struct Cl {
    std::vector<int> Lits;
    bool Deleted;
  };

  static size_t idx(int L) {
    return size_t(std::abs(L)) * 2 + (L < 0 ? 1 : 0);
  }
  static std::string key(const std::vector<int> &C) {
    std::vector<int> S = C;
    std::sort(S.begin(), S.end());
    std::string K;
    K.reserve(S.size() * 4);
    for (int L : S) {
      uint32_t X = uint32_t(L);
      K.push_back(char(X & 0xff));
      K.push_back(char((X >> 8) & 0xff));
      K.push_back(char((X >> 16) & 0xff));
      K.push_back(char((X >> 24) & 0xff));
    }
    return K;
  }

  int val(int L) const {
    int A = Assign[std::abs(L)];
    return L > 0 ? A : -A;
  }
  bool enqueue(int L) {
    int V = val(L);
    if (V < 0)
      return false;
    if (V == 0) {
      Assign[std::abs(L)] = L > 0 ? 1 : -1;
      Trail.push_back(L);
    }
    return true;
  }
  /// Unit propagation to fixpoint; true = conflict found.
  bool propagate() {
    while (Head < Trail.size()) {
      int P = Trail[Head++];
      // Clauses watching literal w register under idx(-w) — the literal
      // whose enqueue falsifies the watch — so P's arrival visits
      // Watch[idx(P)].
      std::vector<int> &WList = Watch[idx(P)];
      size_t Keep = 0;
      for (size_t I = 0; I < WList.size(); ++I) {
        int Id = WList[I];
        Cl &Cls = Clauses[Id];
        if (Cls.Deleted)
          continue; // lazily dropped from the watch list
        std::vector<int> &C = Cls.Lits;
        if (C[0] == -P)
          std::swap(C[0], C[1]);
        if (val(C[0]) > 0) {
          WList[Keep++] = Id;
          continue;
        }
        bool Moved = false;
        for (size_t K = 2; K < C.size(); ++K) {
          if (val(C[K]) >= 0) {
            std::swap(C[1], C[K]);
            Watch[idx(-C[1])].push_back(Id);
            Moved = true;
            break;
          }
        }
        if (Moved)
          continue;
        WList[Keep++] = Id;
        if (!enqueue(C[0])) {
          for (size_t K = I + 1; K < WList.size(); ++K)
            WList[Keep++] = WList[K];
          WList.resize(Keep);
          Head = Trail.size();
          return true;
        }
      }
      WList.resize(Keep);
    }
    return false;
  }

  std::unordered_map<int, int> Dense; // DIMACS variable -> dense name
  std::vector<int> Renamed;           // rename's result buffer
  std::vector<int> Assign{0}; // indexed by dense variable (from 1); 0/+1/-1
  std::vector<Cl> Clauses;
  // Indexed by idx(trigger literal).
  std::vector<std::vector<int>> Watch = std::vector<std::vector<int>>(2);
  std::vector<int> Trail;
  size_t Head = 0;
  std::unordered_map<std::string, std::vector<int>> ByKey;
};

//===----------------------------------------------------------------------===//
// The stream rules
//===----------------------------------------------------------------------===//

StreamChecker::StreamChecker() : Db(std::make_unique<RupDb>()) {}
StreamChecker::~StreamChecker() = default;

void StreamChecker::noteVars(const std::vector<int> &Lits) {
  for (int L : Lits)
    MaxVarSeen = std::max(MaxVarSeen, std::abs(L));
}

std::string StreamChecker::goalBegin(uint64_t Id, int Act) {
  if (GoalOpen)
    return "goal " + std::to_string(Id) + " opened while goal " +
           std::to_string(OpenId) + " is still open";
  if (Id <= LastId)
    return "goal id " + std::to_string(Id) + " does not increase (last was " +
           std::to_string(LastId) + ")";
  if (Act > 0) {
    if (Act <= MaxVarSeen)
      return "activation variable " + std::to_string(Act) + " of goal " +
             std::to_string(Id) + " is not fresh (a variable up to " +
             std::to_string(MaxVarSeen) + " was already mentioned)";
    ActVars.insert(Act);
    MaxVarSeen = Act;
  }
  GoalOpen = true;
  OpenAct = Act;
  OpenId = Id;
  LastId = Id;
  ++S.Goals;
  return "";
}

std::string StreamChecker::input(const std::vector<int> &Lits) {
  noteVars(Lits);
  // Scope discipline. Globally: activation variables are only ever
  // assumed, never asserted, so a positive activation literal in any
  // input is malformed. Inside the scope of an open goal g, an input is
  // either a goal clause (carries the guard -act_g) or a lazily-blasted
  // premise (mentions no activation variable at all) — a clause that
  // mentions act_g without guarding on it, or drags another goal's
  // activation variable in mid-scope, fits neither producer shape and is
  // rejected. Retirement units {-act_h} of *ended* goals are admitted only
  // outside any scope, where the model-extension argument
  // (docs/CERTIFICATES.md) makes them harmless.
  bool HasGuard = false, MentionsAct = false;
  for (int L : Lits) {
    int V = std::abs(L);
    if (!ActVars.count(V))
      continue;
    if (L > 0)
      return "input clause contains a positive activation literal " +
             std::to_string(L) +
             " (activation variables must only be assumed, never asserted)";
    MentionsAct = true;
    if (GoalOpen && OpenAct > 0 && L == -OpenAct)
      HasGuard = true;
  }
  if (GoalOpen && OpenAct > 0 && MentionsAct && !HasGuard)
    return "input clause inside the scope of goal " + std::to_string(OpenId) +
           " mentions an activation variable but is missing the guard "
           "literal " +
           std::to_string(-OpenAct);
  Db->add(Db->rename(Lits));
  ++S.Inputs;
  return "";
}

std::string StreamChecker::lemma(const std::vector<int> &Lits) {
  noteVars(Lits);
  ++S.Lemmas;
  const std::vector<int> &D = Db->rename(Lits);
  if (!Db->isRup(D))
    return Lits.empty() ? "empty lemma recorded, but the database is not "
                          "conflicting"
                        : "lemma is not a reverse-unit-propagation "
                          "consequence of the live clause database";
  Db->add(D);
  return "";
}

std::string StreamChecker::erase(const std::vector<int> &Lits) {
  noteVars(Lits);
  ++S.Deletions;
  const std::vector<int> *D = Db->renameKnown(Lits);
  if (!D || !Db->erase(*D))
    ++S.DeletionsSkipped; // sound: the clause stays
  return "";
}

std::string StreamChecker::goalUnsat(uint64_t Id,
                                     const std::vector<int> &Core) {
  if (!GoalOpen || OpenId != Id)
    return "goal " + std::to_string(Id) +
           " closed unsat, but it is not the open goal";
  if (OpenAct == 0 && !Core.empty())
    return "one-shot goal " + std::to_string(Id) +
           " closed with a non-empty core";
  for (int L : Core)
    if (L != -OpenAct)
      return "unsat core of goal " + std::to_string(Id) + " contains " +
             std::to_string(L) +
             ", expected only the negated activation literal " +
             std::to_string(-OpenAct);
  if (!Db->isRup(Db->rename(Core)))
    return Core.empty() ? "goal " + std::to_string(Id) +
                              " claims root unsatisfiability, but the "
                              "database is not conflicting"
                        : "unsat core of goal " + std::to_string(Id) +
                              " is not a reverse-unit-propagation "
                              "consequence of the live clause database";
  GoalOpen = false;
  OpenAct = 0;
  ++S.UnsatGoals;
  return "";
}

std::string StreamChecker::goalSat(uint64_t Id) {
  if (!GoalOpen || OpenId != Id)
    return "goal " + std::to_string(Id) +
           " closed sat, but it is not the open goal";
  GoalOpen = false;
  OpenAct = 0;
  return "";
}

std::string StreamChecker::restart() {
  if (GoalOpen)
    return "session restart while goal " + std::to_string(OpenId) +
           " is open";
  // LastId survives: goal ids are per-stream, not per-incarnation.
  Db = std::make_unique<RupDb>();
  OpenAct = 0;
  MaxVarSeen = 0;
  ActVars.clear();
  return "";
}

std::string StreamChecker::finish() const {
  if (GoalOpen)
    return "goal " + std::to_string(OpenId) +
           " is still open at the end of the stream";
  return "";
}
