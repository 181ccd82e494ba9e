//===-- exec/CompileCache.h - Compile-once/run-many cache -------*- C++ -*-===//
///
/// \file
/// The front half of the pipeline (parse -> desugar -> typecheck ->
/// elaborate) is policy-independent: the memory-model policy only
/// parameterises the *dynamics*. This cache keys compiled units by source
/// text × FrontendOptions fingerprint so one elaboration is shared across
/// every policy instantiation of the same test, including across threads:
/// concurrent requests for an in-flight key block until the winning thread
/// publishes the unit, so each distinct key is compiled exactly once
/// (no thundering herd).
///
/// Two deployment shapes share this type:
///  - the oracle creates one per batch (bounded lifetime, no budget);
///  - the serve daemon keeps one for its whole lifetime behind an LRU byte
///    budget (`--compile-cache-mb`), evicting the least-recently-used
///    *published* entry when the budget trips. In-flight (unpublished)
///    entries and entries with blocked waiters are pinned — eviction can
///    never dangle a reference another thread still holds.
///
/// Accounting is deterministic on purpose: an entry is charged
/// entryCharge(source bytes) = source bytes + a fixed overhead constant,
/// not the (allocator-dependent) size of the compiled Core program, so
/// tests can force exact eviction patterns.
///
/// Safety: compile() lowers the program, which sets its dynamics caches,
/// so the shared CoreProgram is never written after publication and may be
/// evaluated from any number of threads.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_EXEC_COMPILECACHE_H
#define CERB_EXEC_COMPILECACHE_H

#include "exec/Pipeline.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace cerb::exec {

/// The immutable product of compiling one source, shared across jobs.
struct CompiledUnit {
  /// Null when compilation failed (see Error).
  std::shared_ptr<const core::CoreProgram> Prog;
  std::string Error; ///< static error message when !ok()
  core::RewriteStats Rewrites;
  StageTimings Timings;
  uint64_t SourceHash = 0; ///< FNV-1a of the source text (stable job key)

  bool ok() const { return Prog != nullptr; }
};

/// Point-in-time counters (the daemon's `stats` op serializes these).
struct CompileCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Bytes = 0;   ///< charged bytes currently resident
  uint64_t Entries = 0; ///< resident entries (published + in-flight)
};

class CompileCache {
public:
  CompileCache() = default;
  /// \p ByteBudget bounds the charged bytes kept resident (0 = unbounded).
  explicit CompileCache(uint64_t ByteBudget) : Budget(ByteBudget) {}

  /// Returns the compiled unit for \p Source under \p FE, compiling at most
  /// once per distinct (source, options) key across all threads. \p OutHit
  /// (optional) reports whether this call reused an existing or in-flight
  /// entry.
  std::shared_ptr<const CompiledUnit> get(const std::string &Source,
                                          const FrontendOptions &FE,
                                          bool *OutHit = nullptr);
  /// Default-options shorthand (the oracle's historical signature).
  std::shared_ptr<const CompiledUnit> get(const std::string &Source,
                                          bool *OutHit = nullptr) {
    return get(Source, FrontendOptions(), OutHit);
  }

  uint64_t byteBudget() const;

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  CompileCacheStats stats() const;

  /// FNV-1a 64-bit hash of source text (the report's stable job key).
  static uint64_t hashSource(std::string_view Src);

  /// The deterministic byte charge of one entry: source bytes plus a fixed
  /// per-entry overhead (the map/unit bookkeeping, flat-rated so eviction
  /// order is a pure function of the insertion/use sequence).
  static constexpr uint64_t EntryOverheadBytes = 256;
  static uint64_t entryCharge(size_t SourceBytes) {
    return static_cast<uint64_t>(SourceBytes) + EntryOverheadBytes;
  }

private:
  struct Slot {
    bool Ready = false;
    std::shared_ptr<const CompiledUnit> Unit;
    uint64_t Charge = 0;
    uint64_t LastUse = 0;  ///< LRU stamp (monotonic use clock)
    uint64_t Waiters = 0;  ///< threads blocked on Ready; pins the slot
  };

  /// Evicts least-recently-used *evictable* entries (Ready, no waiters)
  /// until Bytes <= Budget or nothing evictable remains. Caller holds M.
  void enforceBudgetLocked();

  mutable std::mutex M;
  std::condition_variable CV;
  std::unordered_map<std::string, Slot> Map;
  uint64_t Budget = 0; ///< 0 = unbounded
  uint64_t Bytes = 0;
  uint64_t UseClock = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

} // namespace cerb::exec

#endif // CERB_EXEC_COMPILECACHE_H
