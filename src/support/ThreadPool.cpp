//===-- support/ThreadPool.cpp --------------------------------------------===//

#include "support/ThreadPool.h"

#include "trace/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace cerb;

struct ThreadPool::WorkerStart {
  ThreadPool *Pool;
  unsigned Me;
};

void *ThreadPool::startWorker(void *Arg) {
  WorkerStart S = *static_cast<WorkerStart *>(Arg);
  delete static_cast<WorkerStart *>(Arg);
  S.Pool->workerLoop(S.Me);
  return nullptr;
}

ThreadPool::ThreadPool(unsigned ThreadCount) {
  ThreadCount = std::max(1u, ThreadCount);
  Queues.resize(ThreadCount);
  Workers.reserve(ThreadCount);
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, StackBytes);
  for (unsigned I = 0; I < ThreadCount; ++I) {
    pthread_t T;
    auto *S = new WorkerStart{this, I};
    if (int E = pthread_create(&T, &Attr, startWorker, S)) {
      delete S;
      // Fewer workers still drain every deque (idle ones steal); none
      // would leave submitted tasks unrun.
      if (Workers.empty()) {
        std::fprintf(stderr, "cerb: cannot start a pool thread: %s\n",
                     std::strerror(E));
        std::abort();
      }
      break;
    }
    Workers.push_back(T);
  }
  pthread_attr_destroy(&Attr);
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> L(M);
    Stop = true;
  }
  CV.notify_all();
  for (pthread_t T : Workers)
    pthread_join(T, nullptr);
}

void ThreadPool::enqueueLocked(Item I) {
  Queues[NextQueue].push_back(std::move(I));
  NextQueue = (NextQueue + 1) % Queues.size();
  ++Pending;
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> L(M);
    enqueueLocked(Item{std::move(Task), nullptr});
  }
  CV.notify_one();
}

void ThreadPool::submit(TaskGroup &Group, std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> L(M);
    ++Group.Pending;
    enqueueLocked(Item{std::move(Task), &Group});
  }
  CV.notify_one();
  // A helper may be asleep in wait(Group) with every group task running;
  // this new queued task is work it can pick up.
  DoneCV.notify_all();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> L(M);
  DoneCV.wait(L, [this] { return Pending == 0; });
}

void ThreadPool::wait(TaskGroup &Group) {
  std::unique_lock<std::mutex> L(M);
  while (Group.Pending > 0) {
    Item I;
    if (takeGroupLocked(Group, I)) {
      runItem(I, L);
      continue;
    }
    // Every remaining group task is running on some worker; sleep until a
    // completion (or a new group submission) changes the picture.
    DoneCV.wait(L);
  }
}

uint64_t ThreadPool::stealCount() const {
  std::lock_guard<std::mutex> L(M);
  return Steals;
}

bool ThreadPool::takeLocked(unsigned Me, Item &Out) {
  if (!Queues[Me].empty()) {
    Out = std::move(Queues[Me].back());
    Queues[Me].pop_back();
    return true;
  }
  for (size_t Off = 1; Off < Queues.size(); ++Off) {
    auto &Victim = Queues[(Me + Off) % Queues.size()];
    if (!Victim.empty()) {
      Out = std::move(Victim.front());
      Victim.pop_front();
      ++Steals;
      return true;
    }
  }
  return false;
}

bool ThreadPool::takeGroupLocked(TaskGroup &Group, Item &Out) {
  for (auto &Q : Queues)
    for (auto It = Q.rbegin(); It != Q.rend(); ++It)
      if (It->Group == &Group) {
        Out = std::move(*It);
        Q.erase(std::next(It).base());
        return true;
      }
  return false;
}

void ThreadPool::runItem(Item &I, std::unique_lock<std::mutex> &L) {
  L.unlock();
  I.Fn();
  I.Fn = nullptr; // release captures before re-locking
  L.lock();
  --Pending;
  if (I.Group)
    --I.Group->Pending;
  // Every completion wakes wait()ers and group helpers; they re-check their
  // own predicate (a helper may also find newly queued group work to run).
  DoneCV.notify_all();
}

void ThreadPool::workerLoop(unsigned Me) {
  char Name[16];
  std::snprintf(Name, sizeof Name, "pool-%u", Me);
  trace::setCurrentThreadName(Name);
  std::unique_lock<std::mutex> L(M);
  for (;;) {
    Item I;
    if (takeLocked(Me, I)) {
      runItem(I, L);
      continue;
    }
    if (Stop)
      return;
    CV.wait(L);
  }
}
