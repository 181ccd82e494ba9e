//===-- tests/test_oracle.cpp - the batch oracle subsystem ----------------===//
//
// The oracle's three contracts: determinism across thread counts, one
// elaboration shared across the policy instantiations of a test
// (compile-once/run-many), and graceful budget degradation (path-budget
// trips sample randomly; wall-clock deadlines record `timed_out` without
// aborting the batch). Plus the policy registry and the report writers.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"
#include "oracle/Report.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

using namespace cerb;
using namespace cerb::oracle;

namespace {

Job makeJob(std::string Name, std::string Source, mem::MemoryPolicy Policy,
            Mode M = Mode::Exhaustive) {
  Job J;
  J.Name = std::move(Name);
  J.Source = std::move(Source);
  J.Policy = std::move(Policy);
  J.ExecMode = M;
  return J;
}

} // namespace

//===----------------------------------------------------------------------===//
// Policy registry
//===----------------------------------------------------------------------===//

TEST(PolicyRegistry, CanonicalNamesResolve) {
  for (const std::string &N : mem::MemoryPolicy::presetNames()) {
    auto P = mem::MemoryPolicy::byName(N);
    ASSERT_TRUE(P.has_value()) << N;
    EXPECT_EQ(P->Name, N);
  }
}

TEST(PolicyRegistry, AliasesResolve) {
  EXPECT_EQ(mem::MemoryPolicy::byName("strict")->Name, "strict-iso");
  EXPECT_EQ(mem::MemoryPolicy::byName("strictIso")->Name, "strict-iso");
  EXPECT_EQ(mem::MemoryPolicy::byName("iso")->Name, "strict-iso");
  EXPECT_EQ(mem::MemoryPolicy::byName("de-facto")->Name, "defacto");
}

TEST(PolicyRegistry, UnknownNameIsNullopt) {
  EXPECT_FALSE(mem::MemoryPolicy::byName("").has_value());
  EXPECT_FALSE(mem::MemoryPolicy::byName("tis").has_value());
}

TEST(PolicyRegistry, AllPresetsMatchesPresetNames) {
  auto All = mem::MemoryPolicy::allPresets();
  ASSERT_EQ(All.size(), mem::MemoryPolicy::presetNames().size());
  for (size_t I = 0; I < All.size(); ++I)
    EXPECT_EQ(All[I].Name, mem::MemoryPolicy::presetNames()[I]);
}

//===----------------------------------------------------------------------===//
// Thread pool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
  // wait() is re-usable: a second batch on the same pool.
  for (int I = 0; I < 10; ++I)
    Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 110);
}

//===----------------------------------------------------------------------===//
// Compile cache
//===----------------------------------------------------------------------===//

TEST(CompileCache, OneElaborationSharedAcrossPolicies) {
  const char *Src = "int main(void){ int x = 3; return x + 4; }";
  std::vector<Job> Jobs;
  for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets())
    Jobs.push_back(makeJob("shared", Src, P));

  OracleConfig Cfg;
  Cfg.Threads = 4;
  BatchResult B = Oracle(Cfg).run(Jobs);

  EXPECT_EQ(B.Stats.CacheMisses, 1u); // one distinct source => one compile
  EXPECT_EQ(B.Stats.CacheHits, Jobs.size() - 1);
  unsigned Hits = 0;
  for (const JobResult &R : B.Results) {
    EXPECT_EQ(R.Status, JobStatus::Ok);
    ASSERT_EQ(R.Outcomes.Distinct.size(), 1u);
    EXPECT_EQ(R.Outcomes.Distinct[0].ExitCode, 7);
    if (R.CacheHit)
      ++Hits;
  }
  EXPECT_EQ(Hits, Jobs.size() - 1); // exactly one job paid the compile
}

TEST(CompileCache, CompileErrorIsCachedAndReported) {
  exec::CompileCache Cache;
  bool Hit = true;
  auto U1 = Cache.get("int main(void){ return ; }", &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_FALSE(U1->ok());
  EXPECT_FALSE(U1->Error.empty());
  auto U2 = Cache.get("int main(void){ return ; }", &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(U1.get(), U2.get());
}

TEST(CompileCache, DistinctSourcesGetDistinctUnits) {
  exec::CompileCache Cache;
  auto A = Cache.get("int main(void){ return 1; }");
  auto B = Cache.get("int main(void){ return 2; }");
  EXPECT_NE(A->SourceHash, B->SourceHash);
  EXPECT_EQ(Cache.misses(), 2u);
  EXPECT_EQ(Cache.hits(), 0u);
}

//===----------------------------------------------------------------------===//
// Determinism: identical per-job outcomes for any thread count
//===----------------------------------------------------------------------===//

TEST(OracleDeterminism, SameOutcomesAtJobs1AndJobs8) {
  // A representative slice of the semantic suite across all policies —
  // including nondeterministic tests (unseq orderings, Q2 provenance
  // choice points) where exploration order could plausibly leak.
  const auto &Suite = defacto::testSuite();
  std::vector<defacto::TestCase> Slice(
      Suite.begin(), Suite.begin() + std::min<size_t>(Suite.size(), 24));

  JobBudget Budget;
  std::vector<Job> Jobs = Oracle::suiteJobs(
      Slice, mem::MemoryPolicy::allPresets(), Budget, Mode::Exhaustive);

  OracleConfig One;
  One.Threads = 1;
  OracleConfig Eight;
  Eight.Threads = 8;
  BatchResult B1 = Oracle(One).run(Jobs);
  BatchResult B8 = Oracle(Eight).run(Jobs);

  ASSERT_EQ(B1.Results.size(), B8.Results.size());
  for (size_t I = 0; I < B1.Results.size(); ++I) {
    const JobResult &R1 = B1.Results[I];
    const JobResult &R8 = B8.Results[I];
    EXPECT_EQ(R1.Name, R8.Name);
    EXPECT_EQ(R1.PolicyName, R8.PolicyName);
    EXPECT_EQ(R1.Status, R8.Status) << R1.Name << " / " << R1.PolicyName;
    EXPECT_EQ(R1.Check, R8.Check) << R1.Name << " / " << R1.PolicyName;
    EXPECT_EQ(R1.Outcomes.PathsExplored, R8.Outcomes.PathsExplored);
    ASSERT_EQ(R1.Outcomes.Distinct.size(), R8.Outcomes.Distinct.size())
        << R1.Name << " / " << R1.PolicyName;
    for (size_t K = 0; K < R1.Outcomes.Distinct.size(); ++K)
      EXPECT_EQ(R1.Outcomes.Distinct[K].str(), R8.Outcomes.Distinct[K].str());
  }
  // The aggregate snapshot (minus wall-clock) agrees too.
  EXPECT_EQ(B1.Stats.Ok, B8.Stats.Ok);
  EXPECT_EQ(B1.Stats.ChecksPassed, B8.Stats.ChecksPassed);
  EXPECT_EQ(B1.Stats.ChecksFailed, B8.Stats.ChecksFailed);
  EXPECT_EQ(B1.Stats.PathsExplored, B8.Stats.PathsExplored);
  EXPECT_EQ(B1.Stats.CacheMisses, B8.Stats.CacheMisses);
  EXPECT_EQ(B1.Stats.CacheHits, B8.Stats.CacheHits);
  EXPECT_EQ(B1.Stats.UBTally, B8.Stats.UBTally);

  // And the serialized no-timings reports are byte-identical (the
  // acceptance contract the CLI exposes as --no-timings).
  ReportOptions RO;
  RO.IncludeTimings = false;
  EXPECT_EQ(toJson(B1, RO), toJson(B8, RO));
}

//===----------------------------------------------------------------------===//
// Budgets: deadlines and path-budget degradation
//===----------------------------------------------------------------------===//

TEST(OracleBudgets, LoopingProgramTimesOutGracefully) {
  const char *Loop = "int main(void){ for (;;) {} return 0; }";
  std::vector<Job> Jobs;
  Job J = makeJob("looper", Loop, mem::MemoryPolicy::defacto(), Mode::Once);
  J.Budget.DeadlineMs = 50;
  J.Budget.Limits.MaxSteps = ~0ull; // only the deadline can stop it
  Jobs.push_back(J);
  // A healthy job after the looper: the batch must carry on past it.
  Jobs.push_back(makeJob("after", "int main(void){ return 1; }",
                         mem::MemoryPolicy::defacto()));

  BatchResult B = Oracle(OracleConfig{2}).run(Jobs);
  EXPECT_EQ(B.Results[0].Status, JobStatus::TimedOut);
  ASSERT_EQ(B.Results[0].Outcomes.Distinct.size(), 1u);
  EXPECT_EQ(B.Results[0].Outcomes.Distinct[0].Kind,
            exec::OutcomeKind::Timeout);
  EXPECT_EQ(B.Results[1].Status, JobStatus::Ok);
  EXPECT_EQ(B.Stats.TimedOut, 1u);
  EXPECT_EQ(B.Stats.Ok, 1u);
}

TEST(OracleBudgets, ExhaustiveDeadlineStopsBetweenPaths) {
  // Deep race-free nondeterminism: each call's arguments are unsequenced
  // effectful evaluations on distinct objects, so every ordering is allowed
  // — 2^24 decision vectors; each path is fast but the exploration as a
  // whole cannot finish inside the deadline.
  std::string Src = "void t(int x, int y) { }\nint main(void){\n"
                    "  int a = 0, b = 0;\n";
  for (int I = 0; I < 24; ++I)
    Src += "  t(a++, b++);\n";
  Src += "  return 0;\n}\n";
  Job J = makeJob("wide", Src, mem::MemoryPolicy::defacto());
  J.Budget.MaxPaths = ~0ull;
  J.Budget.DeadlineMs = 100;
  BatchResult B = Oracle(OracleConfig{1}).run({J});
  EXPECT_EQ(B.Results[0].Status, JobStatus::TimedOut);
  EXPECT_TRUE(B.Results[0].Outcomes.TimedOut);
  EXPECT_GE(B.Results[0].Outcomes.PathsExplored, 1u);
}

TEST(OracleBudgets, PathBudgetTripDegradesToRandomSampling) {
  // Race-free unsequenced pairs whose exploration exceeds a tiny budget.
  std::string Src = "void t(int x, int y) { }\nint main(void){\n"
                    "  int a = 0, b = 0;\n";
  for (int I = 0; I < 6; ++I)
    Src += "  t(a++, b++);\n";
  Src += "  return 0;\n}\n";
  Job J = makeJob("trippy", Src, mem::MemoryPolicy::defacto());
  J.Budget.MaxPaths = 4;
  J.Budget.FallbackSamples = 8;
  BatchResult B = Oracle(OracleConfig{1}).run({J});
  const JobResult &R = B.Results[0];
  EXPECT_EQ(R.Status, JobStatus::Degraded);
  EXPECT_TRUE(R.Outcomes.Truncated);
  EXPECT_EQ(R.RandomSamples, 8u);
  EXPECT_EQ(R.Outcomes.PathsExplored, 4u + 8u);
  // Degraded sampling is still deterministic (seeded from the job).
  BatchResult B2 = Oracle(OracleConfig{4}).run({J});
  EXPECT_EQ(B2.Results[0].Outcomes.PathsExplored, R.Outcomes.PathsExplored);
  ASSERT_EQ(B2.Results[0].Outcomes.Distinct.size(),
            R.Outcomes.Distinct.size());
}

TEST(OracleBudgets, CompileErrorIsRecordedNotFatal) {
  std::vector<Job> Jobs;
  Jobs.push_back(makeJob("bad", "int main(void){ return ; }",
                         mem::MemoryPolicy::defacto()));
  Jobs.push_back(makeJob("good", "int main(void){ return 0; }",
                         mem::MemoryPolicy::defacto()));
  BatchResult B = Oracle(OracleConfig{2}).run(Jobs);
  EXPECT_EQ(B.Results[0].Status, JobStatus::CompileError);
  EXPECT_FALSE(B.Results[0].CompileError.empty());
  EXPECT_EQ(B.Results[1].Status, JobStatus::Ok);
  EXPECT_EQ(B.Stats.CompileErrors, 1u);
}

//===----------------------------------------------------------------------===//
// Expectations (the suite-as-oracle path)
//===----------------------------------------------------------------------===//

TEST(OracleSuite, SuiteJobsCarryExpectationsAndPass) {
  const auto &Suite = defacto::testSuite();
  std::vector<defacto::TestCase> Slice(Suite.begin(), Suite.begin() + 8);
  std::vector<Job> Jobs = Oracle::suiteJobs(
      Slice, mem::MemoryPolicy::allPresets(), JobBudget());
  ASSERT_EQ(Jobs.size(), Slice.size() * 4);
  BatchResult B = Oracle(OracleConfig{4}).run(Jobs);
  for (const JobResult &R : B.Results)
    if (R.Check != JobResult::Verdict::None) {
      EXPECT_EQ(R.Check, JobResult::Verdict::Pass)
          << R.Name << " / " << R.PolicyName;
    }
  EXPECT_EQ(B.Stats.ChecksFailed, 0u);
  EXPECT_GT(B.Stats.ChecksPassed, 0u);
}

TEST(OracleSuite, UBTallyMatchesUndefOutcomes) {
  const char *Src = "int main(void){ int *p = 0; return *p; }";
  BatchResult B = Oracle(OracleConfig{1}).run(
      {makeJob("null-deref", Src, mem::MemoryPolicy::defacto())});
  const JobResult &R = B.Results[0];
  ASSERT_EQ(R.Outcomes.Distinct.size(), 1u);
  EXPECT_EQ(R.Outcomes.Distinct[0].Kind, exec::OutcomeKind::Undef);
  ASSERT_EQ(R.UBTally.size(), 1u);
  EXPECT_EQ(R.UBTally.begin()->first, mem::UBKind::AccessNull);
  EXPECT_EQ(B.Stats.UBTally.at(std::string(
                mem::ubName(mem::UBKind::AccessNull))),
            1u);
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

TEST(OracleReport, JsonShapeAndEscaping) {
  BatchResult B = Oracle(OracleConfig{1}).run(
      {makeJob("quote\"name", "int main(void){ return 0; }",
               mem::MemoryPolicy::defacto())});
  std::string J = toJson(B);
  EXPECT_NE(J.find("\"schema\": \"cerb-oracle-report/1\""), std::string::npos);
  EXPECT_NE(J.find("\"quote\\\"name\""), std::string::npos);
  EXPECT_NE(J.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(J.find("\"timings_ms\""), std::string::npos);

  ReportOptions NoTimes;
  NoTimes.IncludeTimings = false;
  std::string J2 = toJson(B, NoTimes);
  EXPECT_EQ(J2.find("\"timings_ms\""), std::string::npos);
  EXPECT_EQ(J2.find("\"wall_ms\""), std::string::npos);
  EXPECT_EQ(J2.find("\"cache_hit\""), std::string::npos);
}

TEST(OracleReport, JUnitCountsFailuresAndErrors) {
  std::vector<Job> Jobs;
  Jobs.push_back(makeJob("ok", "int main(void){ return 0; }",
                         mem::MemoryPolicy::defacto()));
  Jobs.push_back(makeJob("broken", "int main(void){ return ; }",
                         mem::MemoryPolicy::defacto()));
  Job Failing = makeJob("wrong", "int main(void){ return 1; }",
                        mem::MemoryPolicy::defacto());
  Failing.Expected = defacto::Expect::defined(""); // expects exit 0
  Jobs.push_back(Failing);

  BatchResult B = Oracle(OracleConfig{2}).run(Jobs);
  std::string X = toJUnitXml(B);
  EXPECT_NE(X.find("<?xml version=\"1.0\""), std::string::npos);
  EXPECT_NE(X.find("tests=\"3\" failures=\"1\" errors=\"1\""),
            std::string::npos);
  EXPECT_NE(X.find("<error message="), std::string::npos);
  EXPECT_NE(X.find("<failure message="), std::string::npos);
  EXPECT_NE(X.find("classname=\"cerb.defacto\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// compileFile / readSourceFile
//===----------------------------------------------------------------------===//

TEST(PipelineFile, CompileFileRoundtrip) {
  std::string Path = ::testing::TempDir() + "/cerb_oracle_t.c";
  ASSERT_TRUE(writeTextFile(Path, "int main(void){ return 11; }"));
  auto Prog = exec::compileFile(Path);
  ASSERT_TRUE(static_cast<bool>(Prog));
  exec::Outcome O = exec::runOnce(*Prog, exec::RunOptions());
  EXPECT_EQ(O.ExitCode, 11);
}

TEST(PipelineFile, MissingFileIsStaticError) {
  auto Prog = exec::compileFile("/nonexistent/cerb_oracle.c");
  ASSERT_FALSE(static_cast<bool>(Prog));
  EXPECT_NE(Prog.error().str().find("cannot open"), std::string::npos);
}
