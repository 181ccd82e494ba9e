//===-- support/Scheduler.h - Nondeterminism oracle -------------*- C++ -*-===//
///
/// \file
/// Every dynamic nondeterministic choice in the semantics — Core `nd`,
/// unsequenced and par evaluation order, memory-model latitude (whether
/// pointer equality consults provenance, Q2, which the memory model
/// reports and the evaluator asks) — is resolved by asking a Scheduler.
/// The evaluator asks between steps, so a scheduler may copy the machine
/// inside choose(): the exhaustive driver (§5.1 "exhaustive search for all
/// allowed executions", exec/Driver.cpp) resumes such copies, or replays
/// decision-vector prefixes where copying does not pay; the random driver
/// picks pseudorandomly ("pseudorandomly explore single execution paths").
///
//===----------------------------------------------------------------------===//
#ifndef CERB_SUPPORT_SCHEDULER_H
#define CERB_SUPPORT_SCHEDULER_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace cerb {

/// Resolves nondeterministic choices during one execution.
class Scheduler {
public:
  virtual ~Scheduler() = default;

  /// Chooses one of \p N alternatives (returns a value in [0, N)).
  /// \p Tag names the choice point for traces and debugging.
  virtual unsigned choose(unsigned N, const char *Tag) = 0;
};

/// Always picks alternative 0 — a deterministic "leftmost" execution.
class LeftmostScheduler final : public Scheduler {
public:
  unsigned choose(unsigned N, const char *Tag) override {
    assert(N > 0 && "choice with no alternatives");
    return 0;
  }
};

/// Pseudorandom single-path exploration (xorshift; reproducible by seed).
class RandomScheduler final : public Scheduler {
public:
  explicit RandomScheduler(uint64_t Seed) : State(Seed ? Seed : 0x9e3779b9) {}

  unsigned choose(unsigned N, const char *Tag) override {
    assert(N > 0 && "choice with no alternatives");
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return static_cast<unsigned>(State % N);
  }

private:
  uint64_t State;
};

/// Replays a recorded prefix of choices, then picks 0 and records: the
/// decision vector of a path and how to run it again.
class TraceScheduler final : public Scheduler {
public:
  explicit TraceScheduler(std::vector<unsigned> Prefix)
      : Prefix(std::move(Prefix)) {}

  unsigned choose(unsigned N, const char *Tag) override {
    assert(N > 0 && "choice with no alternatives");
    unsigned Chosen = Next < Prefix.size() ? Prefix[Next] : 0;
    if (Chosen >= N)
      Chosen = N - 1; // stale prefix from a shorter branch; clamp
    ++Next;
    Trace.push_back(Chosen);
    Widths.push_back(N);
    return Chosen;
  }

  /// The choices actually taken this run.
  const std::vector<unsigned> &trace() const { return Trace; }
  /// The number of alternatives at each choice point this run.
  const std::vector<unsigned> &widths() const { return Widths; }
  /// How many choices were replayed from the prefix (vs freshly taken).
  size_t replayedChoices() const { return std::min(Next, Prefix.size()); }

private:
  std::vector<unsigned> Prefix;
  size_t Next = 0;
  std::vector<unsigned> Trace;
  std::vector<unsigned> Widths;
};

} // namespace cerb

#endif // CERB_SUPPORT_SCHEDULER_H
