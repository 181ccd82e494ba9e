//===-- exec/Driver.cpp ---------------------------------------------------===//

#include "exec/Driver.h"

#include "support/StripedHashSet.h"
#include "trace/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <memory>
#include <mutex>

using namespace cerb;
using namespace cerb::exec;

Outcome cerb::exec::runOnce(const core::CoreProgram &Prog,
                            const RunOptions &Opts) {
  LeftmostScheduler Sched;
  Evaluator Eval(Prog, Sched, Opts.Policy, Opts.Limits);
  return Eval.run();
}

Outcome cerb::exec::runRandom(const core::CoreProgram &Prog,
                              const RunOptions &Opts, uint64_t Seed) {
  RandomScheduler Sched(Seed);
  Evaluator Eval(Prog, Sched, Opts.Policy, Opts.Limits);
  return Eval.run();
}

void cerb::exec::canonicalizeDistinct(ExhaustiveResult &R) {
  std::sort(R.Distinct.begin(), R.Distinct.end(),
            [](const Outcome &A, const Outcome &B) { return A.str() < B.str(); });
}

namespace {

class Explorer;

/// Drives one explored path: replays its prefix, then takes alternative 0
/// at every fresh choice point after publishing the others.
class PathScheduler final : public Scheduler {
public:
  /// A path that replays \p Prefix from main.
  PathScheduler(Explorer &X, std::vector<unsigned> Prefix)
      : X(X), Trace(std::move(Prefix)), ReplayEnd(Trace.size()) {}
  /// The path of a copy of \p From's machine taken at its current choice
  /// point, \p Steps steps in: \p From's choices so far, then \p Alt.
  PathScheduler(Explorer &X, const PathScheduler &From, unsigned Alt,
                uint64_t Steps)
      : X(X), Trace(From.Trace.begin(), From.Trace.begin() + From.Next),
        Next(From.Next), CopyMark(Steps) {
    Trace.push_back(Alt);
  }

  unsigned choose(unsigned N, const char *Tag) override;

  /// Choices this path replayed from its prefix.
  uint64_t replayed() const { return std::min(Next, ReplayEnd); }
  /// Choices made or replayed so far: the depth of the path's root when
  /// it starts.
  size_t depth() const { return Trace.size(); }
  /// The decision vector of the choice point in progress with \p Alt.
  std::vector<unsigned> prefixWith(unsigned Alt) const {
    std::vector<unsigned> P(Trace.begin(), Trace.begin() + Next);
    P.push_back(Alt);
    return P;
  }

  Evaluator *Eval = nullptr; ///< the machine this scheduler drives

private:
  Explorer &X;
  /// The path's choices: the prefix it replays or the copy's own
  /// alternative, then the fresh ones taken so far.
  std::vector<unsigned> Trace;
  size_t Next = 0;      ///< index of the next choice
  size_t ReplayEnd = 0; ///< choices [0, ReplayEnd) are replayed
  /// Steps the path had run when it last copied its machine (or when it
  /// started): copies are paid for by the steps run since.
  uint64_t CopyMark = 0;
};

/// A copied machine and the scheduler that resumes it.
struct Snapshot {
  PathScheduler Sched;
  Evaluator Machine;

  Snapshot(Explorer &X, const PathScheduler &From, unsigned Alt,
           const Evaluator &E)
      : Sched(X, From, Alt, E.steps()), Machine(E, Sched) {
    Sched.Eval = &Machine;
  }
};

/// One unexplored subtree: a copied machine standing at its root, or the
/// decision-vector prefix that leads there from main.
struct Item {
  std::vector<unsigned> Prefix;
  std::shared_ptr<Snapshot> Copy; ///< shared: pool tasks are copyable
};

/// One exhaustive exploration: shared state for the frontier of
/// unexplored subtrees and the claimed-path accounting.
///
/// Work-sharing scheme: an item identifies the subtree of all decision
/// vectors extending its prefix. Running it continues leftmost, visiting
/// the subtree's leftmost leaf; at every fresh choice point, each untried
/// alternative is published as a new (disjoint) subtree. Choice points
/// inside the prefix were published by the ancestor that first reached
/// them, so every leaf of the full tree is claimed by exactly one item and
/// the item count equals the leaf count.
///
/// An item is a copy of the machine at the choice point when that is
/// cheaper than the replay it saves (mem::Memory::SnapshotBytesPerStep)
/// and fits its share of the snapshot budget
/// (mem::Memory::SnapshotBudgetBytes over MaxPaths); otherwise it is the
/// prefix, replayed from main. Both decisions read only the path, and a
/// copy reaches the same state the replay would, so outcomes, counters
/// and the leftmost steps do not depend on them.
///
/// Determinism: outcomes are merged through a hash set and finally sorted,
/// so Distinct is order-independent; the path budget is claimed through one
/// atomic reservation counter, so PathsExplored == min(leaves, MaxPaths)
/// and Truncated == (leaves > MaxPaths) for any thread count and any task
/// interleaving.
///
/// Frontier bound: each pending item will claim a slot, so no more than
/// MaxPaths - Reserved of them can ever run. Serial mode drops the oldest
/// pending items past that (LIFO order would reach them last, after the
/// budget ran out); pooled mode stops publishing. Either way the dropped
/// subtree is unexplored, which is truncation.
class Explorer {
public:
  Explorer(const core::CoreProgram &Prog, const RunOptions &Opts)
      : Prog(Prog), Opts(Opts) {}

  /// Serial mode: the frontier is a LIFO stack drained by this thread.
  ExhaustiveResult runSerial() {
    spawn(Item{});
    while (!LocalFrontier.empty()) {
      Item It = std::move(LocalFrontier.back());
      LocalFrontier.pop_back();
      runItem(std::move(It));
      if (Stopped.load(std::memory_order_relaxed))
        break; // budget/deadline: the rest of the frontier stays unexplored
    }
    return finish(/*Workers=*/1);
  }

  /// Pooled mode: subtree tasks go to \p Pool under a private TaskGroup;
  /// the calling thread helps drain the group, so this may itself run
  /// inside a pool task (oracle jobs share the batch pool this way).
  ExhaustiveResult runPooled(ThreadPool &P) {
    Pool = &P;
    spawn(Item{});
    P.wait(Group);
    return finish(P.threadCount());
  }

  /// Publishes alternative \p Alt of \p S's choice point in progress. A
  /// copy is taken only if \p Copy and the frontier has room for it.
  void publish(const PathScheduler &S, unsigned Alt, bool Copy) {
    if (!makeRoom()) {
      Truncated.store(true);
      return;
    }
    Item It;
    if (Copy)
      It.Copy = std::make_shared<Snapshot>(*this, S, Alt, *S.Eval);
    else
      It.Prefix = S.prefixWith(Alt);
    spawn(std::move(It));
  }

  /// The most state bytes one copy may take.
  uint64_t copyShare() const {
    return mem::Memory::SnapshotBudgetBytes /
           std::max<uint64_t>(Opts.MaxPaths, 1);
  }

private:
  /// Whether one more pending item can still claim a slot; in serial
  /// mode, drops the oldest pending item to make room for a newer one.
  bool makeRoom() {
    uint64_t Claimed = Reserved.load();
    if (Claimed >= Opts.MaxPaths)
      return false;
    uint64_t Room = Opts.MaxPaths - Claimed;
    if (Pool)
      return FrontierSize.load() < Room;
    if (LocalFrontier.size() < Room)
      return true;
    LocalFrontier.pop_front();
    FrontierSize.fetch_sub(1, std::memory_order_relaxed);
    Truncated.store(true);
    return true;
  }

  void spawn(Item It) {
    trace::instant("explore.spawn", "explore");
    uint64_t Size =
        FrontierSize.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t HWM = FrontierHighWater.load(std::memory_order_relaxed);
    while (Size > HWM &&
           !FrontierHighWater.compare_exchange_weak(
               HWM, Size, std::memory_order_relaxed))
      ;
    if (Pool)
      Pool->submit(Group, [this, It = std::move(It)]() mutable {
        runItem(std::move(It));
      });
    else
      LocalFrontier.push_back(std::move(It));
  }

  /// Claims and explores one subtree: budget reservation, one run of a
  /// copy or a replayed prefix (which publishes the untried siblings of
  /// its fresh choice points as it reaches them), outcome merge.
  void runItem(Item It) {
    FrontierSize.fetch_sub(1, std::memory_order_relaxed);
    if (Stopped.load(std::memory_order_relaxed))
      return; // draining after a stop; subtree intentionally abandoned

    // Atomic path-budget reservation: exactly min(leaves, MaxPaths) items
    // acquire a slot, independent of thread count and interleaving.
    uint64_t Slot = Reserved.fetch_add(1);
    if (Slot >= Opts.MaxPaths) {
      // This unexplored subtree proves the budget truncated the space.
      Truncated.store(true);
      Stopped.store(true);
      return;
    }

    // explore.paths counts acquired slots, so for a complete exploration it
    // equals the leaf count for any thread count (the determinism contract
    // above); truncated/deadline runs are outside that contract anyway.
    static trace::Counter CntPaths("explore.paths");
    CntPaths.add();
    trace::Span PathSpan("explore.path", "explore");
    PathSpan.arg("depth",
                 It.Copy ? It.Copy->Sched.depth() : It.Prefix.size());

    Outcome O;
    uint64_t Replayed = 0;
    if (It.Copy) {
      O = It.Copy->Machine.run();
    } else {
      PathScheduler Sched(*this, std::move(It.Prefix));
      Evaluator Eval(Prog, Sched, Opts.Policy, Opts.Limits);
      Sched.Eval = &Eval;
      O = Eval.run();
      Replayed = Sched.replayed();
    }
    It.Copy.reset();
    ReplayedSteps.fetch_add(Replayed, std::memory_order_relaxed);

    bool PathTimedOut = O.Kind == OutcomeKind::Timeout;
    std::string Key = O.str();
    if (Seen.insert(hashBytes(Key))) {
      std::lock_guard<std::mutex> L(DistinctM);
      Distinct.push_back(std::move(O));
    }

    // A shared deadline bounds the whole exploration: once it fires, every
    // further path would also instantly time out, so stop here.
    if (PathTimedOut || Opts.Limits.deadlinePassed()) {
      TimedOut.store(true);
      Stopped.store(true);
    }
  }

  ExhaustiveResult finish(unsigned Workers) {
    ExhaustiveResult R;
    R.Distinct = std::move(Distinct);
    canonicalizeDistinct(R);
    R.PathsExplored = std::min(Reserved.load(), Opts.MaxPaths);
    R.Truncated = Truncated.load();
    R.TimedOut = TimedOut.load();
    R.Stats.FrontierHighWater = FrontierHighWater.load();
    R.Stats.ReplayedSteps = ReplayedSteps.load();
    R.Stats.Workers = Workers;
    return R;
  }

  const core::CoreProgram &Prog;
  const RunOptions &Opts;

  ThreadPool *Pool = nullptr;
  ThreadPool::TaskGroup Group;
  std::deque<Item> LocalFrontier; ///< serial mode only

  StripedHashSet Seen; ///< 64-bit outcome hashes (dedupe without copies)
  std::mutex DistinctM;
  std::vector<Outcome> Distinct;

  std::atomic<uint64_t> Reserved{0};
  std::atomic<bool> Truncated{false};
  std::atomic<bool> TimedOut{false};
  std::atomic<bool> Stopped{false};
  std::atomic<uint64_t> ReplayedSteps{0};
  std::atomic<uint64_t> FrontierSize{0};
  std::atomic<uint64_t> FrontierHighWater{0};
};

unsigned PathScheduler::choose(unsigned N, const char *Tag) {
  assert(N > 0 && "choice with no alternatives");
  if (Next < Trace.size()) {
    // Replayed, or the alternative a copy stands for.
    unsigned Chosen = std::min(Trace[Next], N - 1);
    Trace[Next++] = Chosen;
    return Chosen;
  }
  // A fresh choice point: publish every untried alternative, copying the
  // machine for as many as the steps run since the last copy pay for.
  uint64_t Bytes = N > 1 ? Eval->stateBytes() : 0;
  uint64_t Credit =
      mem::Memory::SnapshotBytesPerStep * (Eval->steps() - CopyMark);
  bool Fits = Bytes <= X.copyShare();
  for (unsigned J = 1; J < N; ++J) {
    bool Copy = Fits && Bytes <= Credit;
    if (Copy) {
      Credit -= Bytes;
      CopyMark = Eval->steps();
    }
    X.publish(*this, J, Copy);
  }
  Trace.push_back(0);
  ++Next;
  return 0;
}

} // namespace

ExhaustiveResult cerb::exec::runExhaustive(const core::CoreProgram &Prog,
                                           const RunOptions &Opts) {
  trace::Span S("explore.exhaustive", "explore");
  Explorer E(Prog, Opts);
  ExhaustiveResult R;
  if (Opts.ExploreJobs <= 1) {
    R = E.runSerial();
  } else {
    ThreadPool Pool(Opts.ExploreJobs);
    R = E.runPooled(Pool);
    R.Stats.Steals = Pool.stealCount();
  }
  S.arg("paths", R.PathsExplored);
  return R;
}

ExhaustiveResult cerb::exec::runExhaustiveOn(const core::CoreProgram &Prog,
                                             const RunOptions &Opts,
                                             ThreadPool &Pool) {
  trace::Span S("explore.exhaustive", "explore");
  Explorer E(Prog, Opts);
  ExhaustiveResult R = E.runPooled(Pool);
  S.arg("paths", R.PathsExplored);
  return R;
}
