//===-- oracle/Oracle.h - Parallel batch test-oracle service ----*- C++ -*-===//
///
/// \file
/// The batch oracle: accepts N jobs (source × MemoryPolicy × execution
/// mode), runs them on a fixed-size work-stealing pool, and aggregates
/// structured results. The paper runs Cerberus "as a test oracle" over its
/// semantic test suite and over Csmith-generated programs (§5.4, §6) — an
/// embarrassingly parallel workload across programs × policies that the
/// single-shot exec::evaluateOnce/evaluateExhaustive API cannot batch.
///
/// Guarantees:
///  - compile-once/run-many: one elaboration per distinct source per batch,
///    shared across its policy instantiations (CompileCache);
///  - determinism: per-job outcomes, statuses, and aggregate counters are
///    identical for any thread count (timings aside) — results are keyed
///    by submission index and every sampling seed derives from the job;
///  - graceful degradation: a job whose exhaustive exploration trips its
///    path budget falls back to bounded-random sampling, and one that
///    exceeds its wall-clock deadline reports `timed_out` — both recorded
///    in the result rather than aborting the batch.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_ORACLE_ORACLE_H
#define CERB_ORACLE_ORACLE_H

#include "defacto/Suite.h"
#include "exec/Pipeline.h"
#include "exec/CompileCache.h"
#include "support/ThreadPool.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cerb::oracle {

/// How a job explores the program's behaviours (§5.1's two drivers, plus
/// the deterministic leftmost schedule).
enum class Mode {
  Once,       ///< one leftmost execution
  Random,     ///< one pseudorandom path (seeded)
  Exhaustive, ///< all decision vectors, up to the path budget
};

std::string_view modeName(Mode M);
std::optional<Mode> modeByName(std::string_view Name);

/// Per-job robustness budgets.
struct JobBudget {
  /// Step/call-depth limits per execution path. The Deadline field is
  /// ignored here; set DeadlineMs instead (the oracle arms the absolute
  /// deadline when the job starts running, not when it is submitted).
  exec::ExecLimits Limits;
  uint64_t MaxPaths = 512;  ///< exhaustive-mode path budget
  uint64_t DeadlineMs = 0;  ///< wall-clock deadline for the job; 0 = none
  /// On a path-budget trip, how many pseudorandom paths to sample beyond
  /// the DFS prefix (graceful degradation; 0 disables sampling).
  uint64_t FallbackSamples = 16;
  /// Workers for this job's exhaustive exploration. 1 (the default) keeps
  /// the exploration serial so batch-level parallelism dominates; >1 makes
  /// the job publish subtree prefixes onto the batch's shared pool (or,
  /// for a standalone runJob, onto a private pool of this size). The cerb
  /// CLI wires --jobs into this for single-program exhaustive runs.
  unsigned ExploreJobs = 1;
};

/// One unit of work: a program under one policy in one mode.
struct Job {
  std::string Name;       ///< display name (file path or test name)
  std::string Source;     ///< C source text
  /// Frontend knobs: part of the compile-cache key, so the same source
  /// under different options gets a distinct elaboration.
  exec::FrontendOptions Frontend;
  mem::MemoryPolicy Policy;
  Mode ExecMode = Mode::Exhaustive;
  uint64_t Seed = 1;      ///< Random mode / degraded-sampling base seed
  JobBudget Budget;
  /// Expected behaviour, when the job comes from the semantic suite; the
  /// oracle then records a pass/fail verdict.
  std::optional<defacto::Expect> Expected;
};

/// Job completion status (the JSON report's `status` field).
enum class JobStatus {
  Ok,           ///< completed within every budget
  Degraded,     ///< a budget (paths/steps) tripped; partial results recorded
  TimedOut,     ///< the wall-clock deadline fired
  CompileError, ///< static error: the front half rejected the program
  Error,        ///< internal dynamic error (ill-formed Core reached)
};

std::string_view jobStatusName(JobStatus S);

struct JobResult {
  std::string Name;
  std::string PolicyName;
  Mode ExecMode = Mode::Exhaustive;
  JobStatus Status = JobStatus::Error;
  std::string CompileError;
  /// Distinct outcomes observed (Once/Random: exactly one entry).
  exec::ExhaustiveResult Outcomes;
  uint64_t SourceHash = 0;
  bool CacheHit = false;     ///< this job reused another job's elaboration
  uint64_t RandomSamples = 0; ///< degraded-mode paths actually sampled

  /// Verdict against Job::Expected (None when the job carried none).
  enum class Verdict { None, Pass, Fail };
  Verdict Check = Verdict::None;

  /// UB occurrences among the distinct outcomes, by kind.
  std::map<mem::UBKind, uint64_t> UBTally;

  // Observability: per-stage timings. Compile timings are the *shared*
  // elaboration's cost (reported identically for every job that reused it).
  exec::StageTimings Compile;
  double RunMs = 0;
  double TotalMs = 0;
};

/// Aggregate snapshot over one batch (the in-memory observability surface;
/// Report.h serializes it).
struct OracleStats {
  uint64_t Jobs = 0;
  uint64_t Ok = 0;
  uint64_t Degraded = 0;
  uint64_t TimedOut = 0;
  uint64_t CompileErrors = 0;
  uint64_t Errors = 0;
  uint64_t ChecksPassed = 0;
  uint64_t ChecksFailed = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0; ///< == number of distinct sources in the batch
  uint64_t PathsExplored = 0;
  uint64_t RandomSamples = 0;
  uint64_t Steals = 0; ///< pool tasks run by a non-owning worker
  /// Exploration observability, summed/maxed over exhaustive jobs (see
  /// exec::ExploreStats; scheduling-dependent, reported behind timings).
  uint64_t ExploreReplayedSteps = 0;
  uint64_t ExploreFrontierHighWater = 0;
  /// UB occurrences across all jobs' distinct outcomes, keyed by ubName.
  std::map<std::string, uint64_t> UBTally;
  /// trace::Registry delta over the batch (nonzero entries only). Counter
  /// deltas are semantic-event counts, deterministic for any thread count
  /// and with tracing on or off, so reports embed them unconditionally.
  std::map<std::string, uint64_t> Counters;
  exec::StageTimings CompileTotals; ///< summed over cache *misses* only
  double RunMsTotal = 0;
  double WallMs = 0;

  /// Human-readable multi-line snapshot.
  std::string str() const;
};

struct BatchResult {
  /// 1:1 with the submitted jobs, in submission order.
  std::vector<JobResult> Results;
  OracleStats Stats;
};

struct OracleConfig {
  /// Worker threads (0 = hardware concurrency).
  unsigned Threads = 0;
};

class Oracle {
public:
  explicit Oracle(OracleConfig Cfg = OracleConfig());

  /// Runs the whole batch to completion; individual job failures (compile
  /// errors, deadlines, budget trips) are recorded per job, never abort
  /// the batch.
  BatchResult run(const std::vector<Job> &Jobs);

  /// Builds the cross product suite × policies as jobs carrying the
  /// suite's per-policy expectations (keyed by MemoryPolicy::Name).
  static std::vector<Job>
  suiteJobs(const std::vector<defacto::TestCase> &Suite,
            const std::vector<mem::MemoryPolicy> &Policies,
            const JobBudget &Budget, Mode ExecMode = Mode::Exhaustive);

  unsigned threadCount() const { return Threads; }

private:
  unsigned Threads;
};

/// Runs one job against an explicit cache (the building block of
/// Oracle::run; exposed for tests and custom harnesses). When \p Pool is
/// given and the job's Budget.ExploreJobs > 1, an exhaustive job shares the
/// pool with its exploration's subtree tasks (ThreadPool task groups make
/// this deadlock-free); without a pool such a job spins up its own.
JobResult runJob(const Job &J, exec::CompileCache &Cache,
                 ThreadPool *Pool = nullptr);

} // namespace cerb::oracle

#endif // CERB_ORACLE_ORACLE_H
