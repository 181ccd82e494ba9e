//===-- exec/EvalArena.h - Per-evaluation scratch recycling -----*- C++ -*-===//
///
/// \file
/// A per-thread pool of the buffers one evaluation churns through: the
/// slot-environment frame (NumSlots Values per Evaluator), its bound/stamp
/// bitmaps, the undo log, the action stack, the machine's frame stack and
/// its side stacks, and the procedure-call argument buffer. The
/// exhaustive explorer constructs or copies one Evaluator per explored
/// path — thousands per job — and without recycling every one of those
/// paid a fresh round of global-allocator traffic for buffers the last
/// evaluation had already grown.
///
/// Lifetime rules (see DESIGN.md "Core lowering & the evaluator"):
///  - the pool is thread-local, and an Evaluator touches it only in its
///    constructors (leasing from the constructing thread's pool) and its
///    destructor (returning to the destroying thread's), never while it
///    runs; so a copy taken on one thread may run and die on another;
///  - leased buffers are empty, so no value ever leaks from one
///    evaluation into another — recycling is capacity-only and therefore
///    invisible to observable behaviour;
///  - the pool holds at most a small fixed number of retired buffers per
///    element type, each at most MaxPooledBytes (beyond that, give()
///    frees), bounding retained memory on long-lived worker threads.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_EXEC_EVALARENA_H
#define CERB_EXEC_EVALARENA_H

#include <cstddef>
#include <utility>
#include <vector>

namespace cerb::exec {

class EvalArena {
public:
  /// Replaces the empty \p Buf with a retired buffer of its element type
  /// from the calling thread's pool, if there is one.
  template <class T> static void take(std::vector<T> &Buf) {
    std::vector<std::vector<T>> &Pool = pool<T>();
    if (Pool.empty())
      return;
    Buf = std::move(Pool.back());
    Pool.pop_back();
  }

  /// Retires \p Buf's storage, emptied, to the calling thread's pool.
  template <class T> static void give(std::vector<T> &Buf) {
    std::vector<std::vector<T>> &Pool = pool<T>();
    if (Buf.capacity() == 0 || Pool.size() >= MaxPooled ||
        Buf.capacity() * sizeof(T) > MaxPooledBytes)
      return;
    Buf.clear();
    Pool.push_back(std::move(Buf));
  }

private:
  // An evaluation leases a bounded handful of buffers per element type at
  // a time, so a deeper pool would only hold garbage; a buffer grown past
  // MaxPooledBytes (a deep recursion's stacks) is freed, not kept.
  static constexpr size_t MaxPooled = 8;
  static constexpr size_t MaxPooledBytes = 256 << 10;

  template <class T> static std::vector<std::vector<T>> &pool() {
    thread_local std::vector<std::vector<T>> Pool;
    return Pool;
  }
};

} // namespace cerb::exec

#endif // CERB_EXEC_EVALARENA_H
