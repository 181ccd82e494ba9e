//===-- support/FaultInjector.h - Deterministic fault injection -*- C++ -*-===//
///
/// \file
/// Seeded, scoped fault points for robustness testing: code that touches
/// the outside world (sockets, disk, frame decoding) asks
/// `fault::shouldFail("site.name")` before doing the real operation, and
/// the injector answers from a deterministic schedule instead of leaving
/// the failure paths to luck. The de facto survey's answer quality depends
/// on the tooling surviving its own fault paths — so those paths must be
/// *systematically explorable* (the same discipline CH2O/VeriFast apply to
/// their checkers), not merely hoped-for.
///
/// Design points:
///
///  - **Zero-cost when disarmed.** The fast path is one relaxed atomic
///    load; production daemons never take the slow path. (bench/perf_serve
///    carries a microbenchmark pinning this.)
///
///  - **Deterministic.** Every decision is a pure function of
///    (seed, site, per-site hit index): probability faults hash the triple
///    through splitmix64, so a failing chaos run is reproducible from its
///    seed alone regardless of thread interleaving *per site*.
///
///  - **Scoped schedules.** A FaultSpec can fire with probability `p` per
///    hit, on exactly the `nth` hit, on `every` k-th hit, and stop after
///    `max` shots — enough to express "the 3rd rename fails" as well as
///    "2% of reads die with ECONNRESET".
///
///  - **Reproducible from a one-liner.** `CERB_FAULTS` (env or the
///    `--faults` flag) arms the injector from a spec string:
///
///      CERB_FAULTS="seed=42;socket.read,p=0.05,errno=ECONNRESET;cache.rename,nth=3"
///
///    `describe()` reserializes the armed schedule canonically so a failing
///    test can print/save exactly what to re-arm.
///
/// Known sites (kept in sync with DESIGN.md):
///   socket.read socket.read.short socket.write socket.write.short
///   socket.accept socket.connect
///   cache.disk_read cache.disk_write cache.torn cache.rename
///   protocol.decode
///
//===----------------------------------------------------------------------===//
#ifndef CERB_SUPPORT_FAULTINJECTOR_H
#define CERB_SUPPORT_FAULTINJECTOR_H

#include "support/Expected.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cerb::fault {

/// One scheduled fault at one site. Fields compose: the spec fires when
/// any of its triggers (Probability / Nth / Every) says so, and stops for
/// good after MaxShots firings.
struct FaultSpec {
  std::string Site;          ///< exact site name, e.g. "socket.read"
  double Probability = 0.0;  ///< chance per hit in [0,1]
  uint64_t Nth = 0;          ///< fire on exactly this hit (1-based; 0 = off)
  uint64_t Every = 0;        ///< fire on every k-th hit (0 = off)
  uint64_t MaxShots = UINT64_MAX; ///< total firings allowed
  int Err = 5 /*EIO*/;       ///< errno delivered where the site reports one
};

namespace detail {
/// Process-wide armed flag; the only state the fast path touches.
extern std::atomic<bool> Armed;
} // namespace detail

/// The process-wide injector. All methods are thread-safe; the decision
/// path is mutex-protected (only reachable while armed, i.e. under test).
class Injector {
public:
  static Injector &instance();

  /// Arms the given schedule (replacing any previous one) and resets all
  /// per-site counters.
  void arm(uint64_t Seed, std::vector<FaultSpec> Specs);

  /// Parses and arms a spec string (the CERB_FAULTS grammar above).
  ExpectedVoid armFromSpec(const std::string &Spec);

  /// Arms from the CERB_FAULTS environment variable; false when unset.
  bool armFromEnv();

  /// Disarms and clears the schedule (the fast path returns to zero-cost).
  void disarm();

  /// Slow path behind fault::shouldFail — do not call directly.
  bool shouldFailSlow(std::string_view Site, int *OutErrno);

  /// Total times \p Site was consulted / actually failed since arm().
  uint64_t hits(std::string_view Site) const;
  uint64_t shots(std::string_view Site) const;
  /// Sum of shots over all sites (the "did anything fire" probe).
  uint64_t totalShots() const;

  uint64_t seed() const;

  /// Canonical spec string for the armed schedule ("" when disarmed) —
  /// print/save this to make a chaos failure reproducible.
  std::string describe() const;

  /// "ECONNRESET" -> ECONNRESET etc.; also accepts a plain decimal number.
  /// Returns -1 for unknown names.
  static int errnoByName(std::string_view Name);
  static const char *errnoName(int Err); ///< "" when not a known name

private:
  Injector() = default;
  struct Impl;
  Impl &impl() const;
};

/// True while a schedule is armed (one relaxed load).
inline bool active() {
  return detail::Armed.load(std::memory_order_relaxed);
}

/// The fault point. Returns true when \p Site must fail this time;
/// \p OutErrno (optional) receives the scheduled errno. Disarmed cost: one
/// relaxed atomic load and a predictable branch.
inline bool shouldFail(std::string_view Site, int *OutErrno = nullptr) {
  if (!active())
    return false;
  return Injector::instance().shouldFailSlow(Site, OutErrno);
}

/// RAII arming for tests: arms on construction, disarms on destruction.
struct ScopedFaults {
  ScopedFaults(uint64_t Seed, std::vector<FaultSpec> Specs) {
    Injector::instance().arm(Seed, std::move(Specs));
  }
  explicit ScopedFaults(const std::string &Spec) {
    auto R = Injector::instance().armFromSpec(Spec);
    Ok = static_cast<bool>(R);
    if (!Ok)
      Error = R.error().Message;
  }
  ~ScopedFaults() { Injector::instance().disarm(); }
  ScopedFaults(const ScopedFaults &) = delete;
  ScopedFaults &operator=(const ScopedFaults &) = delete;

  bool Ok = true;
  std::string Error;
};

} // namespace cerb::fault

#endif // CERB_SUPPORT_FAULTINJECTOR_H
