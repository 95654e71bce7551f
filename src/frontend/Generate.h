//===- Generate.h - Random surface-parser generation ------------*- C++ -*-===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random generation of well-typed surface parsers and of subtle
/// near-twins, feeding the differential fuzz harness: PR 3's random
/// sweeps proved that random inputs find real soundness bugs (the
/// TemplatePair::hash() collision), and the textual front-end lets every
/// failing pair be dumped as a pair of `.lfp` files that reproduce with
/// one leapfrog-cli command.
///
/// Generated programs draw from the full surface feature set — plain
/// extracts, assignments, selects, header stacks, subparser calls, and
/// lookahead — and are well-typed *by construction*: every state
/// extracts, assignment and pattern widths match, lookahead fits the
/// state's extraction, and subparsers never recurse with an explicit
/// continuation. elaborate() on any generated program must succeed; the
/// fuzz tests assert exactly that before checking.
///
//===----------------------------------------------------------------------===//

#ifndef LEAPFROG_FRONTEND_GENERATE_H
#define LEAPFROG_FRONTEND_GENERATE_H

#include "frontend/Surface.h"

#include <cstdint>
#include <string>

namespace leapfrog {
namespace frontend {

/// Generates a random well-typed surface program from \p Seed. The same
/// seed always yields the same program (the fuzz harness prints failing
/// seeds so runs reproduce exactly).
SurfaceProgram generateProgram(uint64_t Seed);

/// Returns \p Program with every main-parser state renamed (Name +
/// \p Suffix), targets and subparser continuations rewritten to match.
/// Renaming preserves the accepted language exactly, so the pair
/// (Program, renameStates(Program)) is equivalent by construction — the
/// fuzz harness's positive control.
SurfaceProgram renameStates(const SurfaceProgram &Program,
                            const std::string &Suffix);

/// Applies one random semantics-affecting-but-well-typed mutation drawn
/// from \p Seed: flip a pattern bit, swap or drop a select case,
/// retarget a transition, or shift a slice window. The result still
/// elaborates; whether it is equivalent to \p Program is deliberately
/// unknown — the differential harness only asserts that every backend
/// configuration returns the *same* verdict.
SurfaceProgram mutateProgram(const SurfaceProgram &Program, uint64_t Seed);

} // namespace frontend
} // namespace leapfrog

#endif // LEAPFROG_FRONTEND_GENERATE_H
