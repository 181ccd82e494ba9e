//===-- exec/Outcome.h - Execution outcomes ---------------------*- C++ -*-===//
///
/// \file
/// The observable result of one execution path of a C program under the
/// semantics, and the aggregate of an exhaustive exploration ("the set of
/// all allowed behaviours of any small test case", §1 Problem 2).
///
//===----------------------------------------------------------------------===//
#ifndef CERB_EXEC_OUTCOME_H
#define CERB_EXEC_OUTCOME_H

#include "mem/UB.h"

#include <string>
#include <vector>

namespace cerb::exec {

enum class OutcomeKind {
  Exit,       ///< program returned from main / called exit()
  Undef,      ///< an undefined behaviour was detected (§5.4)
  Abort,      ///< abort() was called
  AssertFail, ///< __cerb_assert failed (used by the de facto test suite)
  Error,      ///< internal dynamic error (ill-formed Core reached)
  StepLimit,  ///< execution exceeded the step budget
  Timeout,    ///< execution exceeded its wall-clock deadline (oracle jobs)
};

std::string_view outcomeKindName(OutcomeKind K);

struct Outcome {
  OutcomeKind Kind = OutcomeKind::Error;
  int ExitCode = 0;
  std::string Stdout;
  mem::UndefinedBehaviour UB{mem::UBKind::ExceptionalCondition, "", {}};
  std::string Message;

  /// Canonical string (used to deduplicate outcomes across paths and in
  /// test expectations).
  std::string str() const;
  bool isUndef(mem::UBKind K) const {
    return Kind == OutcomeKind::Undef && UB.Kind == K;
  }
};

/// Observability counters for one exhaustive exploration (surfaced through
/// oracle::Report's timing-gated fields; none of these is part of the
/// byte-identical determinism contract).
struct ExploreStats {
  /// Most subtree prefixes ever simultaneously queued on the frontier.
  uint64_t FrontierHighWater = 0;
  /// Scheduler choices re-driven from claimed prefixes across all runs:
  /// choices, not evaluation steps, despite the name. Items that resume a
  /// copied machine replay none, so this counts only the subtrees whose
  /// copy did not pay or did not fit the snapshot budget (0 when the
  /// program has a single path).
  uint64_t ReplayedSteps = 0;
  /// Pool steals during the exploration. Only attributable when the
  /// explorer owns its pool; 0 in shared-pool mode (the oracle reports the
  /// batch-wide steal count instead).
  uint64_t Steals = 0;
  /// Worker threads that participated (1 for the serial explorer).
  unsigned Workers = 1;
};

/// The result of exploring all decision vectors.
///
/// Determinism contract: Distinct is sorted by Outcome::str(), and
/// Distinct/PathsExplored/Truncated are identical for any explorer thread
/// count whenever the exploration ran to completion (no budget trip, no
/// deadline). Under a path-budget trip, the *counters* are still
/// thread-count-independent (paths are claimed through one atomic
/// reservation counter), but which paths made the cut — and hence Distinct
/// — may vary; Stats is always scheduling-dependent.
struct ExhaustiveResult {
  std::vector<Outcome> Distinct; ///< deduplicated outcomes, sorted by str()
  uint64_t PathsExplored = 0;
  bool Truncated = false; ///< hit the path budget before completing
  bool TimedOut = false;  ///< hit the wall-clock deadline before completing
  ExploreStats Stats;

  bool hasUndef() const {
    for (const Outcome &O : Distinct)
      if (O.Kind == OutcomeKind::Undef)
        return true;
    return false;
  }
  bool hasUndef(mem::UBKind K) const {
    for (const Outcome &O : Distinct)
      if (O.isUndef(K))
        return true;
    return false;
  }
};

} // namespace cerb::exec

#endif // CERB_EXEC_OUTCOME_H
