//===-- oracle/Oracle.cpp -------------------------------------------------===//

#include "oracle/Oracle.h"

#include "exec/Driver.h"
#include "support/Format.h"
#include "trace/Trace.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

using namespace cerb;
using namespace cerb::oracle;

std::string_view cerb::oracle::modeName(Mode M) {
  switch (M) {
  case Mode::Once: return "once";
  case Mode::Random: return "random";
  case Mode::Exhaustive: return "exhaustive";
  }
  return "?";
}

std::optional<Mode> cerb::oracle::modeByName(std::string_view Name) {
  if (Name == "once")
    return Mode::Once;
  if (Name == "random")
    return Mode::Random;
  if (Name == "exhaustive")
    return Mode::Exhaustive;
  return std::nullopt;
}

std::string_view cerb::oracle::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok: return "ok";
  case JobStatus::Degraded: return "degraded";
  case JobStatus::TimedOut: return "timed_out";
  case JobStatus::CompileError: return "compile_error";
  case JobStatus::Error: return "error";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Decides the completion status from what the run recorded. Precedence:
/// a deadline trip outranks a budget trip outranks an internal error —
/// later paths were never explored, so their absence explains everything
/// downstream.
JobStatus statusOf(const exec::ExhaustiveResult &R, uint64_t RandomSamples) {
  if (R.TimedOut)
    return JobStatus::TimedOut;
  bool BudgetTripped = R.Truncated || RandomSamples > 0;
  for (const exec::Outcome &O : R.Distinct) {
    if (O.Kind == exec::OutcomeKind::Timeout)
      return JobStatus::TimedOut;
    if (O.Kind == exec::OutcomeKind::StepLimit)
      BudgetTripped = true;
  }
  if (BudgetTripped)
    return JobStatus::Degraded;
  for (const exec::Outcome &O : R.Distinct)
    if (O.Kind == exec::OutcomeKind::Error)
      return JobStatus::Error;
  return JobStatus::Ok;
}

} // namespace

JobResult cerb::oracle::runJob(const Job &J, exec::CompileCache &Cache,
                               ThreadPool *Pool) {
  static trace::Counter CntJobs("oracle.jobs");
  CntJobs.add();
  trace::Span JobSpan("oracle.job", "oracle");
  if (JobSpan.active())
    JobSpan.detail(J.Name + " [" + J.Policy.Name + "]");
  JobResult R;
  R.Name = J.Name;
  R.PolicyName = J.Policy.Name;
  R.ExecMode = J.ExecMode;
  auto T0 = Clock::now();

  bool Hit = false;
  std::shared_ptr<const exec::CompiledUnit> Unit =
      Cache.get(J.Source, J.Frontend, &Hit);
  R.CacheHit = Hit;
  R.SourceHash = Unit->SourceHash;
  R.Compile = Unit->Timings;

  if (!Unit->ok()) {
    R.Status = JobStatus::CompileError;
    R.CompileError = Unit->Error;
    // A suite test that fails to compile fails its expectation (mirrors
    // defacto::runTest's CompileOk discipline).
    if (J.Expected)
      R.Check = JobResult::Verdict::Fail;
    R.TotalMs = msSince(T0);
    return R;
  }

  exec::RunOptions Opts;
  Opts.Policy = J.Policy;
  Opts.Limits = J.Budget.Limits;
  Opts.MaxPaths = J.Budget.MaxPaths;
  if (J.Budget.DeadlineMs)
    Opts.Limits.Deadline =
        Clock::now() + std::chrono::milliseconds(J.Budget.DeadlineMs);

  const core::CoreProgram &Prog = *Unit->Prog;
  auto Run0 = Clock::now();
  switch (J.ExecMode) {
  case Mode::Once: {
    exec::Outcome O = exec::runOnce(Prog, Opts);
    R.Outcomes.TimedOut = O.Kind == exec::OutcomeKind::Timeout;
    R.Outcomes.Distinct.push_back(std::move(O));
    R.Outcomes.PathsExplored = 1;
    break;
  }
  case Mode::Random: {
    exec::Outcome O = exec::runRandom(Prog, Opts, J.Seed);
    R.Outcomes.TimedOut = O.Kind == exec::OutcomeKind::Timeout;
    R.Outcomes.Distinct.push_back(std::move(O));
    R.Outcomes.PathsExplored = 1;
    break;
  }
  case Mode::Exhaustive: {
    Opts.ExploreJobs = std::max(1u, J.Budget.ExploreJobs);
    if (Pool && Opts.ExploreJobs > 1)
      // Subtree work-sharing on the caller's pool: the exploration's
      // prefix tasks interleave with other jobs' tasks, and this thread
      // helps drain its own group (no nested pool, no deadlock).
      R.Outcomes = exec::runExhaustiveOn(Prog, Opts, *Pool);
    else
      R.Outcomes = exec::runExhaustive(Prog, Opts);
    if (R.Outcomes.Truncated && !R.Outcomes.TimedOut &&
        J.Budget.FallbackSamples > 0) {
      // Graceful degradation: the DFS prefix saturated the path budget, so
      // broaden coverage with seeded pseudorandom paths (deterministic:
      // seeds derive from the job, never from the clock or the thread).
      std::set<std::string> Seen;
      for (const exec::Outcome &O : R.Outcomes.Distinct)
        Seen.insert(O.str());
      for (uint64_t I = 0; I < J.Budget.FallbackSamples; ++I) {
        if (Opts.Limits.deadlinePassed()) {
          R.Outcomes.TimedOut = true;
          break;
        }
        exec::Outcome O =
            exec::runRandom(Prog, Opts, J.Seed + I * 0x9e3779b97f4a7c15ull);
        ++R.Outcomes.PathsExplored;
        ++R.RandomSamples;
        if (O.Kind == exec::OutcomeKind::Timeout) {
          R.Outcomes.TimedOut = true;
          break;
        }
        if (Seen.insert(O.str()).second)
          R.Outcomes.Distinct.push_back(std::move(O));
      }
      // Sampling appends; restore the canonical (sorted) order so reports
      // stay byte-identical across thread counts.
      exec::canonicalizeDistinct(R.Outcomes);
    }
    break;
  }
  }
  R.RunMs = msSince(Run0);

  R.Status = statusOf(R.Outcomes, R.RandomSamples);
  for (const exec::Outcome &O : R.Outcomes.Distinct)
    if (O.Kind == exec::OutcomeKind::Undef)
      ++R.UBTally[O.UB.Kind];

  if (J.Expected) {
    bool Pass = !R.Outcomes.Distinct.empty();
    for (const exec::Outcome &O : R.Outcomes.Distinct)
      Pass = Pass && J.Expected->matches(O);
    R.Check = Pass ? JobResult::Verdict::Pass : JobResult::Verdict::Fail;
  }

  R.TotalMs = msSince(T0);
  return R;
}

Oracle::Oracle(OracleConfig Cfg) : Threads(Cfg.Threads) {
  if (Threads == 0) {
    Threads = std::thread::hardware_concurrency();
    if (Threads == 0)
      Threads = 1;
  }
}

BatchResult Oracle::run(const std::vector<Job> &Jobs) {
  trace::Span BatchSpan("oracle.batch", "oracle");
  BatchSpan.arg("jobs", Jobs.size());
  trace::Registry::Snapshot Before = trace::Registry::instance().snapshot();
  BatchResult B;
  B.Results.resize(Jobs.size());
  auto Wall0 = Clock::now();

  exec::CompileCache Cache;
  uint64_t Steals = 0;
  {
    ThreadPool Pool(Threads);
    for (size_t I = 0; I < Jobs.size(); ++I)
      Pool.submit([&B, &Jobs, &Cache, &Pool, I] {
        B.Results[I] = runJob(Jobs[I], Cache, &Pool);
      });
    Pool.wait();
    Steals = Pool.stealCount();
  }

  OracleStats &S = B.Stats;
  S.Jobs = Jobs.size();
  S.CacheHits = Cache.hits();
  S.CacheMisses = Cache.misses();
  S.Steals = Steals;
  for (const JobResult &R : B.Results) {
    switch (R.Status) {
    case JobStatus::Ok: ++S.Ok; break;
    case JobStatus::Degraded: ++S.Degraded; break;
    case JobStatus::TimedOut: ++S.TimedOut; break;
    case JobStatus::CompileError: ++S.CompileErrors; break;
    case JobStatus::Error: ++S.Errors; break;
    }
    if (R.Check == JobResult::Verdict::Pass)
      ++S.ChecksPassed;
    else if (R.Check == JobResult::Verdict::Fail)
      ++S.ChecksFailed;
    S.PathsExplored += R.Outcomes.PathsExplored;
    S.RandomSamples += R.RandomSamples;
    S.ExploreReplayedSteps += R.Outcomes.Stats.ReplayedSteps;
    S.ExploreFrontierHighWater = std::max(
        S.ExploreFrontierHighWater, R.Outcomes.Stats.FrontierHighWater);
    for (const auto &[K, N] : R.UBTally)
      S.UBTally[std::string(mem::ubName(K))] += N;
    if (!R.CacheHit) {
      S.CompileTotals.ParseMs += R.Compile.ParseMs;
      S.CompileTotals.DesugarMs += R.Compile.DesugarMs;
      S.CompileTotals.TypecheckMs += R.Compile.TypecheckMs;
      S.CompileTotals.ElaborateMs += R.Compile.ElaborateMs;
    }
    S.RunMsTotal += R.RunMs;
  }
  S.Counters =
      trace::Registry::delta(Before, trace::Registry::instance().snapshot());
  S.WallMs = msSince(Wall0);
  return B;
}

std::vector<Job>
Oracle::suiteJobs(const std::vector<defacto::TestCase> &Suite,
                  const std::vector<mem::MemoryPolicy> &Policies,
                  const JobBudget &Budget, Mode ExecMode) {
  std::vector<Job> Jobs;
  Jobs.reserve(Suite.size() * Policies.size());
  for (const defacto::TestCase &T : Suite)
    for (const mem::MemoryPolicy &P : Policies) {
      Job J;
      J.Name = T.Name;
      J.Source = T.Source;
      J.Policy = P;
      J.ExecMode = ExecMode;
      J.Budget = Budget;
      auto It = T.Expected.find(P.Name);
      if (It != T.Expected.end())
        J.Expected = It->second;
      Jobs.push_back(std::move(J));
    }
  return Jobs;
}

std::string OracleStats::str() const {
  std::string Out;
  Out += fmt("jobs:          {0} (ok {1}, degraded {2}, timed-out {3}, "
             "compile-error {4}, error {5})\n",
             Jobs, Ok, Degraded, TimedOut, CompileErrors, Errors);
  if (ChecksPassed || ChecksFailed)
    Out += fmt("expectations:  {0} passed, {1} failed\n", ChecksPassed,
               ChecksFailed);
  Out += fmt("compile cache: {0} misses (distinct sources), {1} hits\n",
             CacheMisses, CacheHits);
  Out += fmt("paths:         {0} explored ({1} degraded-mode samples)\n",
             PathsExplored, RandomSamples);
  if (ExploreReplayedSteps || ExploreFrontierHighWater)
    Out += fmt("explore:       {0} replayed choices, frontier high-water "
               "{1}\n",
               ExploreReplayedSteps, ExploreFrontierHighWater);
  if (!UBTally.empty()) {
    Out += "ub tally:      ";
    bool First = true;
    for (const auto &[Name, N] : UBTally) {
      if (!First)
        Out += ", ";
      Out += fmt("{0}={1}", Name, N);
      First = false;
    }
    Out += "\n";
  }
  Out += fmt("compile time:  {0} ms (parse {1}, desugar {2}, typecheck {3}, "
             "elaborate {4})\n",
             CompileTotals.totalMs(), CompileTotals.ParseMs,
             CompileTotals.DesugarMs, CompileTotals.TypecheckMs,
             CompileTotals.ElaborateMs);
  Out += fmt("run time:      {0} ms across jobs; wall {1} ms; {2} steals\n",
             RunMsTotal, WallMs, Steals);
  return Out;
}
