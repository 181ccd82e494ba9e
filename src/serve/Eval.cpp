//===-- serve/Eval.cpp ----------------------------------------------------===//

#include "serve/Eval.h"

#include "oracle/Report.h"
#include "trace/Trace.h"

#include <algorithm>

using namespace cerb;
using namespace cerb::serve;
using oracle::Job;
using oracle::JobResult;
using oracle::JobStatus;

std::vector<Job> cerb::serve::requestJobs(const EvalRequest &Q) {
  // check_expect: the daemon attaches the built-in suite's expectations by
  // display name — deterministic (the suite is compiled in) and exactly
  // the lookup `cerb suite` does locally, so remote verdicts match.
  const defacto::TestCase *Known =
      Q.CheckExpect ? defacto::findTest(Q.Name) : nullptr;
  std::vector<Job> Jobs;
  Jobs.reserve(Q.Policies.size());
  for (const mem::MemoryPolicy &P : Q.Policies) {
    Job J;
    J.Name = Q.Name;
    J.Source = Q.Source;
    J.Frontend = Q.Frontend;
    J.Policy = P;
    if (Known) {
      auto It = Known->Expected.find(P.Name);
      if (It != Known->Expected.end())
        J.Expected = It->second;
    }
    J.ExecMode = Q.ExecMode;
    J.Seed = Q.Seed;
    J.Budget.MaxPaths = Q.Limits.MaxPaths;
    if (Q.Limits.MaxSteps)
      J.Budget.Limits.MaxSteps = Q.Limits.MaxSteps;
    if (Q.Limits.MaxCallDepth)
      J.Budget.Limits.MaxCallDepth =
          static_cast<unsigned>(Q.Limits.MaxCallDepth);
    J.Budget.DeadlineMs = Q.Limits.DeadlineMs;
    J.Budget.FallbackSamples = Q.Limits.FallbackSamples;
    // Keep explorations serial: request-level parallelism dominates in a
    // loaded daemon, and a fixed worker shape keeps outcomes canonical.
    J.Budget.ExploreJobs = 1;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

std::string cerb::serve::evaluateToReport(const EvalRequest &Q,
                                          exec::CompileCache &Compiles) {
  static trace::Counter CntEvals("serve.evals");
  CntEvals.add();
  trace::Span EvalSpan("serve.eval", "serve");
  if (EvalSpan.active())
    EvalSpan.detail(Q.Name + " x" + std::to_string(Q.Policies.size()));

  oracle::BatchResult B;
  for (const Job &J : requestJobs(Q))
    B.Results.push_back(oracle::runJob(J, Compiles));

  // Aggregate like Oracle::run, but with every daemon-state-dependent or
  // scheduling-dependent field pinned to a deterministic function of the
  // request: compile-cache hits are the *within-request* sharing (one
  // distinct source), counters/steals/wall-clock stay zero (and the
  // timings gate below keeps the timed fields out of the bytes anyway).
  oracle::OracleStats &S = B.Stats;
  S.Jobs = B.Results.size();
  S.CacheMisses = 1;
  S.CacheHits = S.Jobs ? S.Jobs - 1 : 0;
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
    for (const auto &[K, N] : R.UBTally)
      S.UBTally[std::string(mem::ubName(K))] += N;
  }

  oracle::ReportOptions RO;
  RO.IncludeTimings = false;
  return oracle::toJson(B, RO);
}
