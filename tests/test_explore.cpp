//===-- tests/test_explore.cpp - parallel exhaustive explorer -------------===//
//
// The parallel frontier explorer's contracts (exec/Driver.h):
//  - thread-count determinism: the ExhaustiveResult of a completed
//    exploration is byte-identical for 1 vs 8 workers (sorted Distinct,
//    reservation-claimed counters);
//  - replay: any recorded decision vector re-executed through a
//    TraceScheduler reproduces its outcome and trace exactly;
//  - budgets: path-budget truncation and wall-clock deadlines stop the
//    exploration with thread-count-independent counters;
//  - snapshots: resuming machines copied at choice points finds what a
//    prefix-replaying DFS finds, at every path budget, and the frontier
//    never holds more items than the budget can still claim;
//  - substrate: ThreadPool task groups (helping wait, nested fan-out) and
//    the striped outcome-hash set.
//
//===----------------------------------------------------------------------===//

#include "conc/Conc.h"
#include "exec/Pipeline.h"
#include "support/StripedHashSet.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

using namespace cerb;
using namespace cerb::exec;

namespace {

/// Programs with several allowed executions (indeterminately sequenced
/// calls, Q2 provenance latitude) — the explorer's interesting inputs.
const char *NondetSources[] = {
    R"(
#include <stdio.h>
int g;
int s(int v) { g = v; return 0; }
int main(void) { s(1) + s(2); printf("%d\n", g); return 0; }
)",
    R"(
#include <stdio.h>
int g;
int s(int v) { g = g * 10 + v; return v; }
int main(void) { int r = s(1) + s(2) + s(3); printf("%d %d\n", g, r);
  return 0; }
)",
    R"(
#include <stdio.h>
int y = 2, x = 1;
int main(void) { printf("%d\n", &x + 1 == &y); return 0; }
)",
    R"(
#include <stdio.h>
int g;
int s(int v) { g = g * 10 + v; return 0; }
int main(void) { s(1) + s(2); s(3) + s(4); s(5) + s(6); printf("%d\n", g);
  return 0; }
)",
};

ExhaustiveResult explore(std::string_view Src, unsigned Jobs,
                         uint64_t MaxPaths = 4096,
                         mem::MemoryPolicy P = mem::MemoryPolicy::defacto()) {
  RunOptions Opts;
  Opts.Policy = P;
  Opts.MaxPaths = MaxPaths;
  Opts.ExploreJobs = Jobs;
  auto R = evaluateExhaustive(Src, Opts);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.error().str());
  return R ? *R : ExhaustiveResult{};
}

/// Serializes the determinism-relevant part of an ExhaustiveResult (i.e.
/// everything except the scheduling-dependent Stats).
std::string fingerprint(const ExhaustiveResult &R) {
  std::string S = "paths=" + std::to_string(R.PathsExplored) +
                  " truncated=" + std::to_string(R.Truncated) +
                  " timed_out=" + std::to_string(R.TimedOut) + "\n";
  for (const Outcome &O : R.Distinct)
    S += O.str() + "\n";
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Thread-count determinism
//===----------------------------------------------------------------------===//

TEST(Explore, ThreadCountDeterminism) {
  for (const char *Src : NondetSources) {
    ExhaustiveResult R1 = explore(Src, 1);
    ASSERT_FALSE(R1.Truncated);
    for (unsigned Jobs : {2u, 8u}) {
      ExhaustiveResult RN = explore(Src, Jobs);
      EXPECT_EQ(fingerprint(R1), fingerprint(RN))
          << "jobs=" << Jobs << " diverged on:\n" << Src;
    }
  }
}

TEST(Explore, DistinctIsCanonicallySorted) {
  for (unsigned Jobs : {1u, 8u}) {
    ExhaustiveResult R = explore(NondetSources[1], Jobs);
    for (size_t I = 1; I < R.Distinct.size(); ++I)
      EXPECT_LT(R.Distinct[I - 1].str(), R.Distinct[I].str());
  }
}

TEST(Explore, ParallelFindsAllQ2Outcomes) {
  ExhaustiveResult R = explore(NondetSources[2], 8);
  EXPECT_EQ(R.PathsExplored, 2u);
  std::set<std::string> Outs;
  for (const Outcome &O : R.Distinct)
    if (O.Kind == OutcomeKind::Exit)
      Outs.insert(O.Stdout);
  EXPECT_EQ(Outs, (std::set<std::string>{"0\n", "1\n"}));
}

TEST(Explore, SharedPoolMatchesOwnedPool) {
  auto Prog = compile(NondetSources[3]);
  ASSERT_TRUE(static_cast<bool>(Prog));
  RunOptions Opts;
  ExhaustiveResult Serial = runExhaustive(*Prog, Opts);
  ThreadPool Pool(4);
  ExhaustiveResult Shared = runExhaustiveOn(*Prog, Opts, Pool);
  EXPECT_EQ(fingerprint(Serial), fingerprint(Shared));
  EXPECT_EQ(Shared.Stats.Workers, 4u);
}

TEST(Explore, StatsCountReplayedWork) {
  // 3 indeterminately sequenced pairs -> 8 leaves; the calls between the
  // choice points are too short to pay for copying the machine, so every
  // non-root subtree claim replays its prefix: replayed choices must be
  // non-zero and identical across thread counts for a completed
  // exploration.
  ExhaustiveResult R1 = explore(NondetSources[3], 1);
  ExhaustiveResult R8 = explore(NondetSources[3], 8);
  EXPECT_EQ(R1.PathsExplored, 8u);
  EXPECT_GT(R1.Stats.ReplayedSteps, 0u);
  EXPECT_EQ(R1.Stats.ReplayedSteps, R8.Stats.ReplayedSteps);
  EXPECT_GT(R1.Stats.FrontierHighWater, 0u);
}

//===----------------------------------------------------------------------===//
// Replay: recorded decision vectors reproduce their outcomes
//===----------------------------------------------------------------------===//

TEST(Explore, RecordedDecisionVectorReplaysExactly) {
  for (const char *Src : NondetSources) {
    auto Prog = compile(Src);
    ASSERT_TRUE(static_cast<bool>(Prog));
    // Enumerate every leaf by explicit DFS, then replay each recorded
    // trace and demand the identical outcome, trace, and widths.
    std::vector<std::vector<unsigned>> Frontier{{}};
    unsigned Leaves = 0;
    while (!Frontier.empty() && Leaves < 64) {
      std::vector<unsigned> Prefix = std::move(Frontier.back());
      Frontier.pop_back();
      TraceScheduler Sched(Prefix);
      Evaluator Eval(*Prog, Sched, mem::MemoryPolicy::defacto());
      Outcome O = Eval.run();
      ++Leaves;

      TraceScheduler Re(Sched.trace());
      Evaluator ReEval(*Prog, Re, mem::MemoryPolicy::defacto());
      Outcome O2 = ReEval.run();
      EXPECT_EQ(O.str(), O2.str());
      EXPECT_EQ(Sched.trace(), Re.trace());
      EXPECT_EQ(Sched.widths(), Re.widths());
      EXPECT_EQ(Re.replayedChoices(), Re.trace().size());

      const auto &Trace = Sched.trace();
      const auto &Widths = Sched.widths();
      for (size_t I = Prefix.size(); I < Trace.size(); ++I)
        for (unsigned J = Trace[I] + 1; J < Widths[I]; ++J) {
          std::vector<unsigned> Sub(Trace.begin(), Trace.begin() + I);
          Sub.push_back(J);
          Frontier.push_back(std::move(Sub));
        }
    }
    EXPECT_TRUE(Frontier.empty()) << "enumeration did not terminate";
  }
}

//===----------------------------------------------------------------------===//
// Budgets: truncation and deadlines
//===----------------------------------------------------------------------===//

namespace {

/// 10 indeterminately sequenced pairs -> far more than 16 paths.
const char *Combinatorial = R"(
int g;
int s(int v) { g = v; return 0; }
int main(void) {
  int i;
  for (i = 0; i < 10; i++)
    s(i) + s(i + 1);
  return 0;
}
)";

} // namespace

TEST(Explore, BudgetTruncationIsThreadCountIndependent) {
  for (unsigned Jobs : {1u, 2u, 8u}) {
    ExhaustiveResult R = explore(Combinatorial, Jobs, /*MaxPaths=*/16);
    EXPECT_EQ(R.PathsExplored, 16u) << "jobs=" << Jobs;
    EXPECT_TRUE(R.Truncated) << "jobs=" << Jobs;
    EXPECT_FALSE(R.TimedOut) << "jobs=" << Jobs;
  }
}

TEST(Explore, ExactBudgetIsNotTruncation) {
  // NondetSources[3] has exactly 8 leaves; a budget of exactly 8 must not
  // report truncation (every reservation succeeds, none fails).
  for (unsigned Jobs : {1u, 8u}) {
    ExhaustiveResult R = explore(NondetSources[3], Jobs, /*MaxPaths=*/8);
    EXPECT_EQ(R.PathsExplored, 8u);
    EXPECT_FALSE(R.Truncated) << "jobs=" << Jobs;
  }
}

TEST(Explore, DeadlineStopsExploration) {
  auto Prog = compile("int main(void){ while (1) {} return 0; }");
  ASSERT_TRUE(static_cast<bool>(Prog));
  for (unsigned Jobs : {1u, 4u}) {
    RunOptions Opts;
    Opts.ExploreJobs = Jobs;
    Opts.Limits.Deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
    auto T0 = std::chrono::steady_clock::now();
    ExhaustiveResult R = runExhaustive(*Prog, Opts);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    EXPECT_TRUE(R.TimedOut) << "jobs=" << Jobs;
    ASSERT_EQ(R.Distinct.size(), 1u);
    EXPECT_EQ(R.Distinct[0].Kind, OutcomeKind::Timeout);
    EXPECT_LT(Ms, 5000.0) << "deadline failed to stop exploration";
  }
}

TEST(Explore, DeadlineAbandonsRemainingFrontier) {
  // A combinatorial space with an already-expired deadline: the first path
  // times out and the rest of the frontier must be abandoned quickly.
  auto Prog = compile(Combinatorial);
  ASSERT_TRUE(static_cast<bool>(Prog));
  for (unsigned Jobs : {1u, 4u}) {
    RunOptions Opts;
    Opts.ExploreJobs = Jobs;
    Opts.Limits.Deadline = std::chrono::steady_clock::now();
    ExhaustiveResult R = runExhaustive(*Prog, Opts);
    EXPECT_TRUE(R.TimedOut) << "jobs=" << Jobs;
    EXPECT_LE(R.PathsExplored, 8u) << "jobs=" << Jobs;
  }
}

//===----------------------------------------------------------------------===//
// Snapshots: the explorer resumes copied machines instead of replaying
//===----------------------------------------------------------------------===//

namespace {

/// The algorithm the copying explorer replaced: a LIFO DFS over
/// decision-vector prefixes, every path replayed from main through a
/// TraceScheduler, the path budget checked before each claim.
struct DfsResult {
  std::vector<std::string> Distinct; ///< sorted Outcome::str()s
  uint64_t PathsExplored = 0;
  bool Truncated = false;
};

DfsResult prefixDfs(const core::CoreProgram &Prog, const RunOptions &Opts) {
  DfsResult R;
  std::set<std::string> Seen;
  std::vector<std::vector<unsigned>> Frontier{{}};
  while (!Frontier.empty()) {
    std::vector<unsigned> Prefix = std::move(Frontier.back());
    Frontier.pop_back();
    if (R.PathsExplored == Opts.MaxPaths) {
      R.Truncated = true;
      break;
    }
    ++R.PathsExplored;
    TraceScheduler Sched(Prefix);
    Evaluator Eval(Prog, Sched, Opts.Policy, Opts.Limits);
    Seen.insert(Eval.run().str());
    const auto &Trace = Sched.trace();
    const auto &Widths = Sched.widths();
    for (size_t I = Prefix.size(); I < Trace.size(); ++I)
      for (unsigned J = Trace[I] + 1; J < Widths[I]; ++J) {
        std::vector<unsigned> Sub(Trace.begin(), Trace.begin() + I);
        Sub.push_back(J);
        Frontier.push_back(std::move(Sub));
      }
  }
  R.Distinct.assign(Seen.begin(), Seen.end());
  return R;
}

std::vector<std::string> outcomeStrs(const ExhaustiveResult &R) {
  std::vector<std::string> Out;
  for (const Outcome &O : R.Distinct)
    Out.push_back(O.str());
  return Out;
}

/// runExhaustive must find what prefixDfs finds: serially at every path
/// budget from 1 to the leaf count (which paths a truncated run explores
/// depends on the frontier's order), and on 4 explore jobs at the full
/// budget.
void expectMatchesDfs(const core::CoreProgram &Prog, RunOptions Opts,
                      const std::string &What) {
  Opts.MaxPaths = 4096;
  DfsResult Full = prefixDfs(Prog, Opts);
  ASSERT_FALSE(Full.Truncated) << What;
  for (uint64_t Budget = 1; Budget <= Full.PathsExplored; ++Budget) {
    Opts.MaxPaths = Budget;
    Opts.ExploreJobs = 1;
    DfsResult Ref = prefixDfs(Prog, Opts);
    ExhaustiveResult Got = runExhaustive(Prog, Opts);
    EXPECT_EQ(outcomeStrs(Got), Ref.Distinct) << What << " budget " << Budget;
    EXPECT_EQ(Got.PathsExplored, Ref.PathsExplored)
        << What << " budget " << Budget;
    EXPECT_EQ(Got.Truncated, Ref.Truncated) << What << " budget " << Budget;
  }
  Opts.MaxPaths = 4096;
  Opts.ExploreJobs = 4;
  ExhaustiveResult Pooled = runExhaustive(Prog, Opts);
  EXPECT_EQ(outcomeStrs(Pooled), Full.Distinct) << What << " on 4 jobs";
  EXPECT_EQ(Pooled.PathsExplored, Full.PathsExplored) << What << " on 4 jobs";
  EXPECT_FALSE(Pooled.Truncated) << What << " on 4 jobs";
}

/// Three indeterminately sequenced call pairs after enough work that the
/// steps run between choice points pay for copying the machine.
const char *CopyFriendly = R"(
#include <stdio.h>
unsigned g[16];
unsigned f(unsigned x) {
  unsigned s = 0u;
  for (unsigned i = 0u; i < 16u; i++) { s = s + g[i] * x; g[i] = g[i] + (s ^ x); }
  return s;
}
int main(void) {
  for (unsigned i = 0u; i < 16u; i++) g[i] = i * 7u + 3u;
  unsigned t = f(1u) + f(2u);
  t = t * 7u + (f(3u) + f(4u));
  t = t * 7u + (f(5u) + f(6u));
  printf("%u\n", t);
  return 0;
}
)";

/// Leftmost, recording the step at which each choice is made.
class StepRecorder final : public Scheduler {
public:
  Evaluator *Eval = nullptr;
  std::vector<uint64_t> At;
  unsigned choose(unsigned N, const char *Tag) override {
    At.push_back(Eval->steps());
    return 0;
  }
};

} // namespace

TEST(ExploreSnapshot, MatchesPrefixDfs) {
  for (const char *Src : NondetSources) {
    auto Prog = compile(Src);
    ASSERT_TRUE(static_cast<bool>(Prog));
    expectMatchesDfs(*Prog, RunOptions(), Src);
  }

  namespace fs = std::filesystem;
  std::vector<fs::path> Corpus;
  for (const auto &Entry :
       fs::directory_iterator(std::string(CERB_SOURCE_DIR) + "/tests/corpus"))
    if (Entry.path().extension() == ".c")
      Corpus.push_back(Entry.path());
  std::sort(Corpus.begin(), Corpus.end());
  EXPECT_EQ(Corpus.size(), 12u);
  for (const fs::path &Path : Corpus) {
    auto Src = readSourceFile(Path.string());
    ASSERT_TRUE(static_cast<bool>(Src)) << Path;
    auto Prog = compile(*Src);
    if (!Prog)
      continue; // a reproducer of a compile error has no paths
    for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets()) {
      RunOptions Opts;
      Opts.Policy = P;
      expectMatchesDfs(*Prog, Opts, Path.filename().string() + " " + P.Name);
    }
  }

  auto Par = conc::buildSharedCounterProgram(
      0, {conc::ThreadSpec{{1, 2}}, conc::ThreadSpec{{3}},
          conc::ThreadSpec{{4}, /*ReadsOnly=*/true}});
  expectMatchesDfs(Par, RunOptions(), "par");

  // A step budget that runs out after the first choice point: every path
  // resumed from a copy must stop at the same step as its replay would.
  auto Prog = compile(CopyFriendly);
  ASSERT_TRUE(static_cast<bool>(Prog));
  StepRecorder Rec;
  Evaluator Eval(*Prog, Rec, mem::MemoryPolicy::defacto());
  Rec.Eval = &Eval;
  ASSERT_EQ(Eval.run().Kind, OutcomeKind::Exit);
  ASSERT_EQ(Rec.At.size(), 3u);
  RunOptions Opts;
  Opts.Limits.MaxSteps = (Rec.At[1] + Eval.steps()) / 2;
  ASSERT_GT(Opts.Limits.MaxSteps, Rec.At[1]);
  expectMatchesDfs(*Prog, Opts, "step limit after a choice point");
  ExhaustiveResult R = runExhaustive(*Prog, Opts);
  EXPECT_EQ(R.Stats.ReplayedSteps, 0u) << "no path resumed a copy";
}

TEST(ExploreSnapshot, CopiesReplaceReplay) {
  // Every item beyond the root is a copy, so no choice is replayed.
  auto Prog = compile(CopyFriendly);
  ASSERT_TRUE(static_cast<bool>(Prog));
  DfsResult Ref = prefixDfs(*Prog, RunOptions());
  for (unsigned Jobs : {1u, 4u}) {
    ExhaustiveResult R = explore(CopyFriendly, Jobs);
    EXPECT_EQ(R.PathsExplored, 8u) << "jobs=" << Jobs;
    EXPECT_EQ(outcomeStrs(R), Ref.Distinct) << "jobs=" << Jobs;
    EXPECT_EQ(R.Stats.ReplayedSteps, 0u) << "jobs=" << Jobs;
  }
}

TEST(ExploreSnapshot, ReplaysPastTheShare) {
  // A 256 KiB global puts the machine's state far past its share of the
  // snapshot budget, so every item is a prefix replayed from main.
  const char *Src = R"(
#include <stdio.h>
char big[262144];
int g;
int f(int x) { g = g * 10 + x; return 0; }
int main(void) {
  big[0] = 1;
  f(1) + f(2);
  f(3) + f(4);
  f(5) + f(6);
  printf("%d\n", g);
  return big[0] - 1;
}
)";
  auto Prog = compile(Src);
  ASSERT_TRUE(static_cast<bool>(Prog));
  LeftmostScheduler Sched;
  Evaluator Eval(*Prog, Sched, mem::MemoryPolicy::defacto());
  ASSERT_EQ(Eval.run().Kind, OutcomeKind::Exit);
  EXPECT_GT(Eval.stateBytes(), mem::Memory::SnapshotBudgetBytes /
                                   RunOptions().MaxPaths);

  ExhaustiveResult R1 = explore(Src, 1);
  ExhaustiveResult R4 = explore(Src, 4);
  EXPECT_EQ(R1.PathsExplored, 8u);
  EXPECT_EQ(R1.Distinct.size(), 8u);
  EXPECT_GT(R1.Stats.ReplayedSteps, 0u);
  EXPECT_GT(R4.Stats.ReplayedSteps, 0u);
  EXPECT_EQ(fingerprint(R1), fingerprint(R4));
}

TEST(ExploreSnapshot, FrontierStaysWithinTheBudget) {
  // 2,000 choice points on the leftmost path, 8 paths of budget: at most
  // 8 items may ever be pending (serially the newest, which LIFO reaches
  // first), and the counters keep their meaning.
  const char *Src = R"(
int g;
int f(int x) { g = x; return x; }
int main(void) {
  int s = 0;
  for (int i = 0; i < 2000; i++)
    s += f(1) + f(2);
  return s % 256;
}
)";
  auto Prog = compile(Src);
  ASSERT_TRUE(static_cast<bool>(Prog));
  for (unsigned Jobs : {1u, 4u}) {
    RunOptions Opts;
    Opts.MaxPaths = 8;
    Opts.ExploreJobs = Jobs;
    ExhaustiveResult R = runExhaustive(*Prog, Opts);
    EXPECT_EQ(R.PathsExplored, 8u) << "jobs=" << Jobs;
    EXPECT_TRUE(R.Truncated) << "jobs=" << Jobs;
    EXPECT_LE(R.Stats.FrontierHighWater, 8u) << "jobs=" << Jobs;
    if (Jobs == 1) {
      Opts.MaxPaths = 8;
      DfsResult Ref = prefixDfs(*Prog, Opts);
      EXPECT_EQ(outcomeStrs(R), Ref.Distinct);
    }
  }
}

//===----------------------------------------------------------------------===//
// Substrate: ThreadPool task groups and the striped hash set
//===----------------------------------------------------------------------===//

TEST(ThreadPoolGroups, GroupsDrainIndependently) {
  ThreadPool Pool(2);
  ThreadPool::TaskGroup A, B;
  std::atomic<int> DoneA{0}, DoneB{0};
  for (int I = 0; I < 50; ++I) {
    Pool.submit(A, [&DoneA] { ++DoneA; });
    Pool.submit(B, [&DoneB] { ++DoneB; });
  }
  Pool.wait(A);
  EXPECT_EQ(DoneA.load(), 50);
  Pool.wait(B);
  EXPECT_EQ(DoneB.load(), 50);
  Pool.wait();
}

TEST(ThreadPoolGroups, NestedFanOutDoesNotDeadlock) {
  // More outer tasks than workers, each waiting on its own inner group:
  // the helping wait() must let every blocked outer task drain its group
  // itself (this deadlocks with a naive blocking wait).
  ThreadPool Pool(2);
  std::atomic<int> Inner{0};
  std::atomic<int> Outer{0};
  for (int I = 0; I < 8; ++I)
    Pool.submit([&Pool, &Inner, &Outer] {
      ThreadPool::TaskGroup G;
      for (int K = 0; K < 32; ++K)
        Pool.submit(G, [&Inner] { ++Inner; });
      Pool.wait(G);
      ++Outer;
    });
  Pool.wait();
  EXPECT_EQ(Outer.load(), 8);
  EXPECT_EQ(Inner.load(), 8 * 32);
}

TEST(ThreadPoolGroups, GroupTasksCanSpawnGroupTasks) {
  ThreadPool Pool(4);
  ThreadPool::TaskGroup G;
  std::atomic<int> Count{0};
  // Each task re-submits two children until depth 6: 2^7 - 1 tasks total.
  std::function<void(int)> Grow = [&](int Depth) {
    ++Count;
    if (Depth < 6)
      for (int K = 0; K < 2; ++K)
        Pool.submit(G, [&Grow, Depth] { Grow(Depth + 1); });
  };
  Pool.submit(G, [&Grow] { Grow(0); });
  Pool.wait(G);
  EXPECT_EQ(Count.load(), 127);
}

TEST(StripedHashSetTest, InsertDeduplicates) {
  StripedHashSet S;
  EXPECT_TRUE(S.insert(42));
  EXPECT_FALSE(S.insert(42));
  EXPECT_TRUE(S.contains(42));
  EXPECT_FALSE(S.contains(43));
  EXPECT_EQ(S.size(), 1u);
}

TEST(StripedHashSetTest, ConcurrentInsertersAgreeOnMembership) {
  StripedHashSet S;
  constexpr int N = 4, PerThread = 5000;
  std::vector<std::thread> Ts;
  std::atomic<uint64_t> FirstInserts{0};
  for (int T = 0; T < N; ++T)
    Ts.emplace_back([&S, &FirstInserts, T] {
      for (int I = 0; I < PerThread; ++I)
        // Overlapping key ranges across threads: every key is attempted
        // at least twice in total.
        if (S.insert(hashUint64(static_cast<uint64_t>((T % 2) * PerThread + I))))
          ++FirstInserts;
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(FirstInserts.load(), 2u * PerThread);
  EXPECT_EQ(S.size(), 2u * PerThread);
}
