//===-- conc/Conc.h - Restricted operational concurrency --------*- C++ -*-===//
///
/// \file
/// Core's `par`/`wait` constructs (Fig. 2: "cppmem thread creation") with
/// the restricted memory object model the paper allows for threads (§1:
/// "Threads, atomic types, and atomic operations are supported only with a
/// more restricted memory object model"). Our restriction: threads execute
/// under a scheduler-chosen order and any cross-thread conflicting
/// non-atomic accesses are detected as a data race (UB, 5.1.2.4p25) by the
/// same footprint machinery that finds unsequenced races.
///
/// This module provides builders for assembling small concurrent Core
/// programs directly (the C surface has no thread syntax in our fragment)
/// and a driver that explores the interleavings.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_CONC_CONC_H
#define CERB_CONC_CONC_H

#include "core/Core.h"
#include "exec/Driver.h"

#include <string>
#include <vector>

namespace cerb::conc {

/// Builds a Core program whose main procedure:
///  1. creates one shared int object `shared`, initialised to \p Initial;
///  2. runs the given thread bodies under `par`;
///  3. loads `shared` and returns it.
/// Thread bodies are built by ThreadSpec: each thread stores \p Stores
/// values into the shared object in order. The program comes back lowered
/// (core::lower), as the evaluator requires.
struct ThreadSpec {
  std::vector<int> Stores;
  bool ReadsOnly = false; ///< loads instead of stores
  bool Atomic = false;    ///< seq_cst accesses (the restricted C11 regime)
};

core::CoreProgram buildSharedCounterProgram(int Initial,
                                            const std::vector<ThreadSpec>
                                                &Threads);

/// Explores all interleavings of a par program; reports the distinct final
/// values / race verdicts.
exec::ExhaustiveResult explore(const core::CoreProgram &Prog,
                               uint64_t MaxPaths = 1024);

} // namespace cerb::conc

#endif // CERB_CONC_CONC_H
