//===-- exec/Driver.h - Exhaustive and random execution drivers -*- C++ -*-===//
///
/// \file
/// "By selecting an appropriate sequencing monad implementation, we can
/// select whether to perform an exhaustive search for all allowed
/// executions or pseudorandomly explore single execution paths" (§5.1).
/// Here the "monad" is the Scheduler: the exhaustive driver enumerates all
/// decision vectors; the random driver seeds a RandomScheduler.
///
/// The exhaustive driver is a *parallel frontier explorer*: the decision
/// tree is partitioned into disjoint subtrees, each the set of decision
/// vectors extending a prefix. A worker claims one, runs its leftmost
/// leaf, and at every fresh choice point publishes each untried
/// alternative back onto the frontier as a new subtree. An item is a copy
/// of the machine taken at the choice point (Evaluator's copy
/// constructor) when that is cheaper than the replay it saves and fits
/// its share of a fixed budget (mem::Memory::SnapshotBytesPerStep and
/// SnapshotBudgetBytes); past either, it is the prefix, replayed from main.
/// At most MaxPaths - (paths claimed) items are ever pending. Each leaf is
/// visited exactly once, outcomes are deduplicated by a 64-bit hash in a
/// striped hash set, the path budget is claimed through one atomic
/// reservation counter, and the distinct set is canonically sorted — so
/// the result is thread-count-independent (see ExhaustiveResult's
/// contract and DESIGN.md §"Parallel exhaustive exploration").
///
//===----------------------------------------------------------------------===//
#ifndef CERB_EXEC_DRIVER_H
#define CERB_EXEC_DRIVER_H

#include "core/Core.h"
#include "exec/Evaluator.h"
#include "exec/Outcome.h"
#include "mem/Memory.h"
#include "support/ThreadPool.h"

namespace cerb::exec {

struct RunOptions {
  mem::MemoryPolicy Policy = mem::MemoryPolicy::defacto();
  ExecLimits Limits;
  uint64_t MaxPaths = 4096; ///< exhaustive-mode path budget
  /// Worker threads for exhaustive exploration. 1 = serial in the calling
  /// thread; >1 makes runExhaustive spin up its own pool of that size
  /// (runExhaustiveOn shares an existing pool instead and ignores this).
  unsigned ExploreJobs = 1;
};

/// Runs one execution with the leftmost deterministic schedule.
Outcome runOnce(const core::CoreProgram &Prog, const RunOptions &Opts);

/// Runs one pseudorandom execution path (§5.1 single-path mode).
Outcome runRandom(const core::CoreProgram &Prog, const RunOptions &Opts,
                  uint64_t Seed);

/// Explores all decision vectors (§5.1 exhaustive mode; "it can detect
/// undefined behaviours on any allowed execution path", §5.4). Serial when
/// Opts.ExploreJobs <= 1; otherwise runs on an internal ThreadPool of
/// Opts.ExploreJobs workers.
ExhaustiveResult runExhaustive(const core::CoreProgram &Prog,
                               const RunOptions &Opts);

/// Explores all decision vectors on an existing pool: subtree tasks are
/// submitted to \p Pool under a private TaskGroup and the calling thread
/// helps drain them, so this is safe to call from inside a pool task (the
/// oracle runs exhaustive jobs this way when Budget.ExploreJobs > 1).
ExhaustiveResult runExhaustiveOn(const core::CoreProgram &Prog,
                                 const RunOptions &Opts, ThreadPool &Pool);

/// Re-sorts Distinct into the canonical order (ascending Outcome::str());
/// callers that append outcomes (e.g. the oracle's degraded-mode sampler)
/// use this to restore the ExhaustiveResult contract.
void canonicalizeDistinct(ExhaustiveResult &R);

} // namespace cerb::exec

#endif // CERB_EXEC_DRIVER_H
