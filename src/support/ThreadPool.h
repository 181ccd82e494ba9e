//===-- support/ThreadPool.h - Fixed-size work-stealing pool ----*- C++ -*-===//
///
/// \file
/// The repository's shared execution substrate: a fixed-size pool of
/// workers, each owning a deque of tasks. Owners pop from the back of their
/// own deque (LIFO, for cache locality between related consecutive
/// submissions, which submit() places on the same deque); idle workers
/// steal from the front of a victim's deque (FIFO, taking the oldest — and
/// typically largest — remaining chunk of work).
///
/// Originally the oracle's private pool; generalised with *task groups*
/// so that a nested fan-out — e.g. the parallel exhaustive explorer
/// publishing subtree prefixes from inside an oracle job — can share one
/// pool with its caller:
///
///  - submit(Group, Task) tags the task with a TaskGroup;
///  - wait(Group) blocks until that group alone drains, and *helps*: while
///    the group has queued tasks, the waiting thread claims and runs them
///    itself. A pool worker that waits on a group from inside a task
///    therefore never deadlocks — every queued group task is runnable by
///    the waiter, and running group tasks are owned by other workers that
///    will complete them.
///
/// All deques share one mutex: tasks are coarse (each replays or compiles
/// a whole program, tens of microseconds at the very least), so queue
/// operations are nowhere near the contention point and the single lock
/// keeps the sleep/wake protocol trivially correct.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_SUPPORT_THREADPOOL_H
#define CERB_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cerb {

class ThreadPool {
public:
  /// A subset of the pool's tasks that can be waited on independently.
  /// Create one per nested fan-out; must outlive its tasks. Movable-nothing:
  /// the pool holds pointers to it.
  class TaskGroup {
    friend class ThreadPool;
    uint64_t Pending = 0; ///< queued + running tasks of this group

  public:
    TaskGroup() = default;
    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;
  };

  /// Spawns \p ThreadCount workers (clamped to at least 1).
  explicit ThreadPool(unsigned ThreadCount);
  /// Drains nothing: outstanding tasks are completed before destruction
  /// returns (wait() then join).
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues a task; round-robins across worker deques so related
  /// consecutive submissions land on the same few owners.
  void submit(std::function<void()> Task);
  /// Enqueues a task belonging to \p Group (waitable via wait(Group)).
  void submit(TaskGroup &Group, std::function<void()> Task);

  /// Blocks until every submitted task has finished running.
  void wait();
  /// Blocks until every task of \p Group has finished running, helping to
  /// run the group's queued tasks meanwhile. Safe to call from inside a
  /// pool task (the nested fan-out pattern).
  void wait(TaskGroup &Group);

  unsigned threadCount() const { return static_cast<unsigned>(Workers.size()); }
  /// Tasks executed by a worker other than the one they were submitted to.
  uint64_t stealCount() const;

private:
  struct Item {
    std::function<void()> Fn;
    TaskGroup *Group = nullptr;
  };

  void workerLoop(unsigned Me);
  void enqueueLocked(Item I);
  /// Pops a task for worker \p Me (own back, then steal a victim's front).
  /// Must hold M. Returns false if every deque is empty.
  bool takeLocked(unsigned Me, Item &Out);
  /// Pops any queued task of \p Group (scanning from the backs). Must hold
  /// M. Returns false if none is queued.
  bool takeGroupLocked(TaskGroup &Group, Item &Out);
  /// Runs \p I outside the lock and performs completion bookkeeping.
  /// Expects L held; returns with L held.
  void runItem(Item &I, std::unique_lock<std::mutex> &L);

  std::vector<std::deque<Item>> Queues;
  std::vector<std::thread> Workers;
  mutable std::mutex M;
  std::condition_variable CV;     ///< wakes idle workers
  std::condition_variable DoneCV; ///< wakes wait()ers and group helpers
  unsigned NextQueue = 0;
  uint64_t Pending = 0; ///< queued + running tasks (all groups + ungrouped)
  uint64_t Steals = 0;
  bool Stop = false;
};

} // namespace cerb

#endif // CERB_SUPPORT_THREADPOOL_H
