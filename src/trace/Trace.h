//===-- trace/Trace.h - Structured tracing and metrics ----------*- C++ -*-===//
///
/// \file
/// The repository's observability layer: span-based scoped timers, striped
/// monotonic counters, and a per-thread event buffer serializable as Chrome
/// `trace_event` JSON (loadable in chrome://tracing or Perfetto). Every
/// layer of the oracle pipeline threads through here — pipeline stages,
/// evaluator runs, explorer subtree tasks, memory-policy events, oracle
/// jobs, fuzz seeds — so a single `cerb run --trace=out.json` profiles the
/// whole system with one track per worker thread.
///
/// Two mechanisms with two contracts:
///
///  - **Counters** are always on. A Counter is a set of cache-line-padded
///    stripes incremented with relaxed atomics (threads hash to stripes, so
///    the hot evaluator/memory paths never contend on one cache line). The
///    process-wide Registry snapshots all counters as a sorted name -> value
///    map; Registry::delta() of two snapshots (nonzero entries only) is
///    what the oracle and fuzz reports embed. Counter deltas contain no
///    timestamps and count *semantic* events (paths run, bytes loaded, UB
///    raised), so report byte-identity across `--jobs` is preserved — with
///    the same caveat as ExhaustiveResult: a truncated or deadline-tripped
///    exploration may run a scheduling-dependent subset of paths.
///
///  - **Events** (Span / instant) are recorded only while tracing is
///    enabled. Disabled, a Span is one relaxed atomic load and a branch: no
///    allocation, no buffer creation, no clock read (the no-allocation
///    guarantee tests/test_trace.cpp pins, and bench/perf_trace_overhead
///    bounds at <2% of exhaustive-exploration wall clock). Enabled, events
///    append to the calling thread's own buffer under that buffer's own
///    mutex — lock-striped by thread, so recording never contends.
///
/// Call sites that attach *dynamic* strings to events must guard the
/// construction with `if (trace::enabled())` to keep the disabled path
/// allocation-free; names and categories are `const char *` string
/// literals precisely so the common case needs no such guard.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_TRACE_TRACE_H
#define CERB_TRACE_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cerb::trace {

namespace internal {
extern std::atomic<bool> Enabled;
/// Monotonic microseconds (steady_clock); the epoch is arbitrary, the
/// serializer rebases on the session start.
uint64_t nowUs();
void recordComplete(const char *Name, const char *Cat, uint64_t StartUs,
                    uint64_t DurUs, std::string Detail, const char *ArgName,
                    uint64_t ArgVal);
void recordInstant(const char *Name, const char *Cat, std::string Detail);
/// Number of per-thread event buffers ever created (test hook: the
/// disabled-mode no-allocation guarantee is "this does not grow").
size_t threadBufferCount();
} // namespace internal

/// Is event recording armed? One relaxed load; safe from any thread.
inline bool enabled() {
  return internal::Enabled.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

/// A named monotonic counter, striped to keep concurrent increments off one
/// cache line. Construct as a function-local static next to the code it
/// counts; construction registers it with the Registry for the lifetime of
/// the process.
class Counter {
public:
  explicit Counter(std::string Name);
  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

  void add(uint64_t N = 1) {
    Stripes[stripeIndex()].V.fetch_add(N, std::memory_order_relaxed);
  }
  /// Sum over stripes. Monotonic but not a linearizable snapshot.
  uint64_t value() const;
  const std::string &name() const { return Name_; }

private:
  /// Each thread hashes to one stripe (assigned round-robin on first use).
  static unsigned stripeIndex();
  struct alignas(64) Stripe {
    std::atomic<uint64_t> V{0};
  };
  static constexpr unsigned NumStripes = 16;
  Stripe Stripes[NumStripes];
  std::string Name_;
};

/// The process-wide set of counters. Snapshots are sorted by name, so any
/// serialization of one is deterministic.
class Registry {
public:
  static Registry &instance();

  /// name -> value, sorted (std::map order). Counters registered under
  /// the same name are summed.
  using Snapshot = std::map<std::string, uint64_t>;
  Snapshot snapshot() const;

  /// After - Before, keeping only entries whose delta is nonzero — so a
  /// delta depends only on what ran between the snapshots, not on which
  /// counters earlier process activity happened to register.
  static Snapshot delta(const Snapshot &Before, const Snapshot &After);
  /// delta() restricted to counters whose name starts with \p Prefix (the
  /// fuzz report embeds only "fuzz." counters: they are derived from
  /// campaign entries, so resumed and fresh runs serialize identically).
  static Snapshot delta(const Snapshot &Before, const Snapshot &After,
                        std::string_view Prefix);

private:
  friend class Counter;
  Registry() = default;
  void add(Counter *C);

  mutable std::mutex M;
  std::vector<Counter *> Counters;
};

//===----------------------------------------------------------------------===//
// Spans and instants
//===----------------------------------------------------------------------===//

/// RAII scoped timer: records one Chrome "X" (complete) event on the
/// calling thread's track when tracing was enabled at construction.
/// Zero-cost when disabled (no clock read, no allocation).
class Span {
public:
  explicit Span(const char *Name, const char *Cat = "cerb")
      : Name(Name), Cat(Cat), Active(enabled()) {
    if (Active)
      StartUs = internal::nowUs();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() {
    if (Active)
      internal::recordComplete(Name, Cat, StartUs,
                               internal::nowUs() - StartUs, std::move(Detail),
                               ArgName, ArgVal);
  }

  bool active() const { return Active; }
  /// Attaches a free-form string (rendered as args.detail). Only call with
  /// a dynamically built string under `if (S.active())`.
  void detail(std::string D) {
    if (Active)
      Detail = std::move(D);
  }
  /// Attaches one numeric argument (rendered as args.<ArgName>).
  void arg(const char *Name_, uint64_t V) {
    if (Active) {
      ArgName = Name_;
      ArgVal = V;
    }
  }

private:
  const char *Name;
  const char *Cat;
  std::string Detail;
  const char *ArgName = nullptr;
  uint64_t ArgVal = 0;
  uint64_t StartUs = 0;
  bool Active;
};

/// Records a Chrome "i" (instant) event on the calling thread's track.
inline void instant(const char *Name, const char *Cat = "cerb") {
  if (enabled())
    internal::recordInstant(Name, Cat, std::string());
}
/// Instant with a detail string; build the string under `if (enabled())`.
inline void instant(const char *Name, const char *Cat, std::string Detail) {
  if (enabled())
    internal::recordInstant(Name, Cat, std::move(Detail));
}

//===----------------------------------------------------------------------===//
// Session control and serialization
//===----------------------------------------------------------------------===//

/// Starts a tracing session: clears every thread buffer, rebases the
/// session epoch, and arms enabled(). Not meant to run concurrently with
/// another start()/serialization (the CLI traces one command end to end).
void start();
/// Disarms enabled(); recorded events are retained for serialization.
void stop();

/// Names the calling thread's track (e.g. "main", "pool-3"). Copies into a
/// fixed-size thread-local buffer: no allocation, callable before any
/// event exists. Threads never named render as "thread-<tid>".
void setCurrentThreadName(const char *Name);

/// Serializes every retained event as a Chrome trace-event JSON document
/// ({"traceEvents": [...]}), one track per thread, with thread_name
/// metadata records. Timestamps are microseconds since the session epoch.
std::string chromeTraceJson();
/// chromeTraceJson() to a file; false (with \p Err filled) on I/O failure.
bool writeChromeTrace(const std::string &Path, std::string *Err = nullptr);

} // namespace cerb::trace

#endif // CERB_TRACE_TRACE_H
