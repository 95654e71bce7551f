//===- Generate.cpp - Random surface-parser generation --------------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "frontend/Generate.h"

#include <algorithm>
#include <map>
#include <random>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::frontend;

namespace {

/// Thin wrapper: every draw goes through one engine so a seed fixes the
/// whole program.
struct Rng {
  explicit Rng(uint64_t Seed) : Engine(Seed ^ 0x9e3779b97f4a7c15ull) {}

  size_t below(size_t N) {
    return N == 0 ? 0 : std::uniform_int_distribution<size_t>(0, N - 1)(
                            Engine);
  }
  bool chance(unsigned Num, unsigned Den) { return below(Den) < Num; }

  Bitvector bits(size_t Width) {
    Bitvector BV(Width);
    for (size_t I = 0; I < Width; ++I)
      BV.setBit(I, chance(1, 2));
    return BV;
  }

  std::mt19937_64 Engine;
};

/// The generator's fixed shape vocabulary. Small widths keep every
/// generated pair decidable in milliseconds, so the harness can afford
/// backend and certification sweeps per seed.
constexpr size_t HeaderWidths[] = {2, 4, 8};
constexpr size_t StackSlots = 2;
constexpr size_t StackBits = 4;

class Generator {
public:
  explicit Generator(uint64_t Seed) : R(Seed) {}

  SurfaceProgram run() {
    SurfaceProgram P;

    size_t NumHeaders = 1 + R.below(3);
    for (size_t I = 0; I < NumHeaders; ++I) {
      std::string Name = "h" + std::to_string(I);
      size_t Bits = HeaderWidths[R.below(3)];
      Headers.emplace_back(Name, Bits);
      P.addHeader(Name, Bits);
    }
    UseStack = R.chance(1, 3);
    if (UseStack)
      P.addStack("stk", StackSlots, StackBits);
    UseSub = R.chance(1, 3);

    size_t NumStates = 2 + R.below(3);
    for (size_t I = 0; I < NumStates; ++I)
      StateNames.push_back("q" + std::to_string(I));

    for (size_t I = 0; I < NumStates; ++I)
      P.addState(makeState(StateNames[I]));
    P.setEntry(StateNames[0]);

    if (UseSub) {
      SubParser Sub;
      Sub.Name = "sub";
      Sub.Entry = "s0";
      SurfaceState S;
      S.Name = "s0";
      const auto &[HName, HBits] = Headers[R.below(Headers.size())];
      S.Ops.push_back(SurfaceOp::extract(HName));
      if (R.chance(1, 2)) {
        // Terminal select inside the subparser; its accept is rewired to
        // the caller's continuation at inlining time.
        std::vector<SExprRef> Ds{SExpr::mkHeader(HName)};
        std::vector<SurfaceCase> Cases;
        Cases.push_back(SurfaceCase{{p4a::Pattern::exact(R.bits(HBits))},
                                    SurfaceTarget::reject()});
        Cases.push_back(SurfaceCase{{p4a::Pattern::wildcard()},
                                    SurfaceTarget::accept()});
        S.Tz = SurfaceTransition::mkSelect(std::move(Ds), std::move(Cases));
      } else {
        S.Tz = SurfaceTransition::mkGoto(SurfaceTarget::accept());
      }
      Sub.States.push_back(std::move(S));
      P.addSubParser(std::move(Sub));
    }
    return P;
  }

private:
  /// A random expression of exactly \p Width bits built from literals,
  /// slices, concats, and *initialized* operands only — headers the
  /// current state has already extracted, looked ahead into, or
  /// assigned (the Avail set), and `stk.last` right after an
  /// `extract(stk.next)`. The width discipline keeps assignments and
  /// discriminants well-typed; the initialization discipline keeps the
  /// renamed-twin positive control sound — language equivalence
  /// quantifies the two initial stores independently, so a program
  /// whose behavior depends on an unextracted header is not even
  /// equivalent to its own renaming.
  SExprRef expr(size_t Width, size_t Depth = 0) {
    if (StackLastOk && Width == StackBits && R.chance(1, 4))
      return SExpr::mkStackLast("stk");
    if (Depth < 2 && Width >= 2 && R.chance(1, 4)) {
      size_t LeftWidth = 1 + R.below(Width - 1);
      return SExpr::mkConcat(expr(LeftWidth, Depth + 1),
                             expr(Width - LeftWidth, Depth + 1));
    }
    // An initialized header of the right width, or a slice window into a
    // wider one.
    std::vector<size_t> Fits, Wider;
    for (size_t I : Avail) {
      if (Headers[I].second == Width)
        Fits.push_back(I);
      if (Headers[I].second > Width)
        Wider.push_back(I);
    }
    if (!Fits.empty() && R.chance(2, 3))
      return SExpr::mkHeader(Headers[Fits[R.below(Fits.size())]].first);
    if (!Wider.empty() && R.chance(2, 3)) {
      const auto &[Name, Bits] = Headers[Wider[R.below(Wider.size())]];
      size_t Lo = R.below(Bits - Width + 1);
      return SExpr::mkSlice(SExpr::mkHeader(Name), Lo, Lo + Width - 1);
    }
    return SExpr::mkLiteral(R.bits(Width));
  }

  SurfaceTarget target(bool AllowCall) {
    switch (R.below(AllowCall && UseSub ? 5 : 4)) {
    case 0:
      return SurfaceTarget::accept();
    case 1:
      return SurfaceTarget::reject();
    case 4: {
      // Calls carry an inherited or an explicit continuation; explicit
      // continuations resolve in the caller's (main) scope. The callee
      // never calls anything, so no cycle can form.
      if (R.chance(1, 2))
        return SurfaceTarget::call("sub");
      return SurfaceTarget::call("sub",
                                 StateNames[R.below(StateNames.size())]);
    }
    default:
      return SurfaceTarget::state(StateNames[R.below(StateNames.size())]);
    }
  }

  SurfaceState makeState(const std::string &Name) {
    SurfaceState S;
    S.Name = Name;
    Avail.clear();

    // Extracts first. Lookahead (when drawn) goes in front and must fit
    // inside the state's plain-header extraction, per the lowering rule.
    std::vector<size_t> ExtractIdx;
    ExtractIdx.push_back(R.below(Headers.size()));
    if (R.chance(1, 3)) {
      size_t Second = R.below(Headers.size());
      if (Second != ExtractIdx[0])
        ExtractIdx.push_back(Second);
    }
    bool StackExtract = UseStack && R.chance(1, 2);
    StackLastOk = StackExtract;

    size_t PlainBits = 0;
    for (size_t I : ExtractIdx)
      PlainBits += Headers[I].second;

    if (!StackExtract && R.chance(1, 4)) {
      // Any header no wider than the extraction — including one of the
      // extract targets — is a valid lookahead target.
      std::vector<size_t> Candidates;
      for (size_t I = 0; I < Headers.size(); ++I)
        if (Headers[I].second <= PlainBits)
          Candidates.push_back(I);
      if (!Candidates.empty()) {
        size_t La = Candidates[R.below(Candidates.size())];
        S.Ops.push_back(SurfaceOp::lookahead(Headers[La].first));
        Avail.push_back(La);
      }
    }
    for (size_t I : ExtractIdx) {
      S.Ops.push_back(SurfaceOp::extract(Headers[I].first));
      if (std::find(Avail.begin(), Avail.end(), I) == Avail.end())
        Avail.push_back(I);
    }
    if (StackExtract)
      S.Ops.push_back(SurfaceOp::extractNext("stk"));

    // Optional assignment; lookahead states demand extracts-then-assigns
    // order, which this layout already satisfies. The target becomes
    // initialized for the discriminants below.
    if (R.chance(1, 3)) {
      size_t HI = R.below(Headers.size());
      S.Ops.push_back(
          SurfaceOp::assign(Headers[HI].first, expr(Headers[HI].second)));
      if (std::find(Avail.begin(), Avail.end(), HI) == Avail.end())
        Avail.push_back(HI);
    }

    if (R.chance(1, 3)) {
      S.Tz = SurfaceTransition::mkGoto(target(/*AllowCall=*/true));
      return S;
    }

    // Select over one or two discriminants.
    std::vector<SExprRef> Ds;
    std::vector<size_t> Widths;
    size_t Arity = 1 + R.below(2);
    for (size_t I = 0; I < Arity; ++I) {
      size_t W = HeaderWidths[R.below(2)]; // 2 or 4 bits of branching.
      Widths.push_back(W);
      Ds.push_back(expr(W));
    }
    std::vector<SurfaceCase> Cases;
    size_t NumCases = 1 + R.below(3);
    for (size_t C = 0; C < NumCases; ++C) {
      std::vector<p4a::Pattern> Pats;
      for (size_t I = 0; I < Arity; ++I)
        Pats.push_back(R.chance(1, 6)
                           ? p4a::Pattern::wildcard()
                           : p4a::Pattern::exact(R.bits(Widths[I])));
      Cases.push_back(SurfaceCase{std::move(Pats), target(true)});
    }
    if (R.chance(3, 4)) {
      std::vector<p4a::Pattern> Pats(Arity, p4a::Pattern::wildcard());
      Cases.push_back(SurfaceCase{std::move(Pats), target(true)});
    }
    S.Tz = SurfaceTransition::mkSelect(std::move(Ds), std::move(Cases));
    return S;
  }

  Rng R;
  std::vector<std::pair<std::string, size_t>> Headers;
  std::vector<std::string> StateNames;
  bool UseStack = false;
  bool UseSub = false;
  /// Header indices the state under construction has initialized so far
  /// (lookahead, extract, assign) — the only legal read operands.
  std::vector<size_t> Avail;
  /// Whether `stk.last` is initialized in the state under construction.
  bool StackLastOk = false;
};

} // namespace

SurfaceProgram frontend::generateProgram(uint64_t Seed) {
  return Generator(Seed).run();
}

//===----------------------------------------------------------------------===//
// Twins
//===----------------------------------------------------------------------===//

namespace {

SurfaceTarget renameTarget(const SurfaceTarget &T,
                           const std::string &Suffix) {
  switch (T.K) {
  case SurfaceTarget::Kind::Accept:
  case SurfaceTarget::Kind::Reject:
    return T;
  case SurfaceTarget::Kind::State:
    return SurfaceTarget::state(T.StateName + Suffix);
  case SurfaceTarget::Kind::Call:
    // The continuation lives in the caller's (renamed) scope; the callee
    // name is a subparser, which keeps its name.
    return SurfaceTarget::call(T.Callee, T.ContinueAt.empty()
                                             ? ""
                                             : T.ContinueAt + Suffix);
  }
  return T;
}

/// Rebuilds \p Program with \p Mutate applied to a copy of its main
/// states (SurfaceProgram is append-only, so edits go through a copy).
template <typename Fn>
SurfaceProgram rebuildWith(const SurfaceProgram &Program, Fn &&Mutate) {
  std::vector<SurfaceState> Main = Program.mainStates();
  Mutate(Main);
  SurfaceProgram Out;
  for (const auto &[Name, Bits] : Program.headers())
    Out.addHeader(Name, Bits);
  for (const auto &[Name, Decl] : Program.stacks())
    Out.addStack(Name, Decl.Slots, Decl.Bits);
  for (SurfaceState &S : Main)
    Out.addState(std::move(S));
  for (const SubParser &Sub : Program.subParsers())
    Out.addSubParser(Sub);
  Out.setEntry(Program.entry());
  return Out;
}

} // namespace

SurfaceProgram frontend::renameStates(const SurfaceProgram &Program,
                                      const std::string &Suffix) {
  SurfaceProgram Out = rebuildWith(Program, [&](auto &Main) {
    for (SurfaceState &S : Main) {
      S.Name += Suffix;
      if (S.Tz.IsGoto)
        S.Tz.GotoTarget = renameTarget(S.Tz.GotoTarget, Suffix);
      else
        for (SurfaceCase &C : S.Tz.Cases)
          C.Target = renameTarget(C.Target, Suffix);
    }
  });
  Out.setEntry(Program.entry() + Suffix);
  return Out;
}

SurfaceProgram frontend::mutateProgram(const SurfaceProgram &Program,
                                       uint64_t Seed) {
  Rng R(Seed * 0x2545f4914f6cdd1dull + 1);

  // Enumerate the applicable mutation sites, then draw one. Every
  // mutation preserves well-typedness: pattern widths, assignment
  // widths, and slice windows never change shape, only content.
  struct Site {
    enum class Kind {
      FlipPatternBit,
      SwapCases,
      DropCase,
      RetargetCase,
      RetargetGoto,
      ShiftSlice,
    } K;
    size_t State = 0, Case = 0, Pat = 0;
  };
  std::vector<Site> Sites;
  const std::vector<SurfaceState> &Main = Program.mainStates();
  std::map<std::string, size_t> HeaderBits(Program.headers().begin(),
                                           Program.headers().end());
  for (size_t SI = 0; SI < Main.size(); ++SI) {
    const SurfaceState &S = Main[SI];
    if (S.Tz.IsGoto) {
      Sites.push_back({Site::Kind::RetargetGoto, SI, 0, 0});
      continue;
    }
    for (size_t CI = 0; CI < S.Tz.Cases.size(); ++CI) {
      Sites.push_back({Site::Kind::RetargetCase, SI, CI, 0});
      for (size_t PI = 0; PI < S.Tz.Cases[CI].Pats.size(); ++PI)
        if (!S.Tz.Cases[CI].Pats[PI].isWildcard() &&
            S.Tz.Cases[CI].Pats[PI].Exact->size() > 0)
          Sites.push_back({Site::Kind::FlipPatternBit, SI, CI, PI});
    }
    if (S.Tz.Cases.size() >= 2) {
      Sites.push_back({Site::Kind::SwapCases, SI, 0, 0});
      Sites.push_back({Site::Kind::DropCase, SI, 0, 0});
    }
    for (size_t OI = 0; OI < S.Ops.size(); ++OI) {
      const SurfaceOp &O = S.Ops[OI];
      if (O.K == SurfaceOp::Kind::Assign && O.Value &&
          O.Value->kind() == SExpr::Kind::Slice &&
          O.Value->sliceOperand()->kind() == SExpr::Kind::Header) {
        auto It = HeaderBits.find(O.Value->sliceOperand()->name());
        if (It != HeaderBits.end() && O.Value->sliceHi() + 1 < It->second)
          Sites.push_back({Site::Kind::ShiftSlice, SI, OI, 0});
      }
    }
  }
  if (Sites.empty())
    return Program; // Degenerate program; the harness skips no-op twins.

  Site Chosen = Sites[R.below(Sites.size())];
  std::vector<std::string> StateNames;
  for (const SurfaceState &S : Main)
    StateNames.push_back(S.Name);

  // Draw a replacement target that differs from \p Old, so a retarget
  // mutation is never a textual no-op.
  auto freshTarget = [&](const SurfaceTarget &Old) {
    for (int Try = 0; Try < 16; ++Try) {
      SurfaceTarget T =
          R.chance(1, 3)
              ? (R.chance(1, 2) ? SurfaceTarget::accept()
                                : SurfaceTarget::reject())
              : SurfaceTarget::state(StateNames[R.below(StateNames.size())]);
      if (T.K != Old.K || T.StateName != Old.StateName)
        return T;
    }
    return Old.K == SurfaceTarget::Kind::Accept ? SurfaceTarget::reject()
                                                : SurfaceTarget::accept();
  };

  return rebuildWith(Program, [&](std::vector<SurfaceState> &States) {
    SurfaceState &S = States[Chosen.State];
    switch (Chosen.K) {
    case Site::Kind::FlipPatternBit: {
      p4a::Pattern &P = S.Tz.Cases[Chosen.Case].Pats[Chosen.Pat];
      Bitvector BV = *P.Exact;
      size_t Bit = R.below(BV.size());
      BV.setBit(Bit, !BV.bit(Bit));
      P = p4a::Pattern::exact(std::move(BV));
      break;
    }
    case Site::Kind::SwapCases: {
      size_t N = S.Tz.Cases.size();
      size_t A = R.below(N);
      size_t B = (A + 1 + R.below(N - 1)) % N; // Always a distinct case.
      std::swap(S.Tz.Cases[A], S.Tz.Cases[B]);
      break;
    }
    case Site::Kind::DropCase:
      S.Tz.Cases.erase(S.Tz.Cases.begin() +
                       long(R.below(S.Tz.Cases.size())));
      break;
    case Site::Kind::RetargetCase:
      S.Tz.Cases[Chosen.Case].Target =
          freshTarget(S.Tz.Cases[Chosen.Case].Target);
      break;
    case Site::Kind::RetargetGoto:
      S.Tz.GotoTarget = freshTarget(S.Tz.GotoTarget);
      break;
    case Site::Kind::ShiftSlice: {
      SurfaceOp &O = S.Ops[Chosen.Case];
      O.Value = SExpr::mkSlice(O.Value->sliceOperand(),
                               O.Value->sliceLo() + 1,
                               O.Value->sliceHi() + 1);
      break;
    }
    }
  });
}
