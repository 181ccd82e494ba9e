//===-- exec/EvalArena.h - Per-evaluation scratch recycling -----*- C++ -*-===//
///
/// \file
/// A per-thread pool of the transient buffers one evaluation churns
/// through: the slot-environment frame (NumSlots Values per Evaluator),
/// its bound/stamp bitmaps, and the procedure-call argument buffer. The
/// exhaustive explorer constructs or copies one Evaluator per explored
/// path — thousands per job — and without recycling every one of those
/// paid a fresh round of global-allocator traffic for identically-sized
/// buffers.
///
/// Lifetime rules (see DESIGN.md "Core lowering & the evaluator"):
///  - the pool is thread-local, and an Evaluator touches it only in its
///    constructors (leasing from the constructing thread's pool) and its
///    destructor (returning to the destroying thread's), never while it
///    runs; so a copy taken on one thread may run and die on another;
///  - leased buffers are cleared on take, so no value ever leaks from one
///    evaluation into another — recycling is capacity-only and therefore
///    invisible to observable behaviour;
///  - the pool holds at most a small fixed number of retired buffers per
///    shape (beyond that, give() frees), bounding retained memory on
///    long-lived worker threads.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_EXEC_EVALARENA_H
#define CERB_EXEC_EVALARENA_H

#include "core/Core.h"

#include <cstdint>
#include <vector>

namespace cerb::exec {

class EvalArena {
public:
  /// The calling thread's arena (one per thread, created on first use).
  static EvalArena &threadLocal();

  std::vector<core::Value> takeValues();
  void give(std::vector<core::Value> &&Buf);

  std::vector<uint8_t> takeBytes();
  void give(std::vector<uint8_t> &&Buf);

  std::vector<uint64_t> takeStamps();
  void give(std::vector<uint64_t> &&Buf);

  struct Stats {
    uint64_t Takes = 0;  ///< buffer leases
    uint64_t Reuses = 0; ///< leases served from the pool (no allocation)
  };
  const Stats &stats() const { return S; }

private:
  // Retire at most this many buffers per shape; an evaluation leases a
  // bounded handful at a time, so a deeper pool would only hold garbage.
  static constexpr size_t MaxPooled = 8;

  std::vector<std::vector<core::Value>> Values;
  std::vector<std::vector<uint8_t>> Bytes;
  std::vector<std::vector<uint64_t>> Stamps;
  Stats S;

  template <class T>
  std::vector<T> take(std::vector<std::vector<T>> &Pool) {
    ++S.Takes;
    if (Pool.empty())
      return {};
    ++S.Reuses;
    std::vector<T> Buf = std::move(Pool.back());
    Pool.pop_back();
    Buf.clear();
    return Buf;
  }
  template <class T>
  void giveTo(std::vector<std::vector<T>> &Pool, std::vector<T> &&Buf) {
    if (Buf.capacity() == 0 || Pool.size() >= MaxPooled)
      return;
    Buf.clear();
    Pool.push_back(std::move(Buf));
  }
};

} // namespace cerb::exec

#endif // CERB_EXEC_EVALARENA_H
