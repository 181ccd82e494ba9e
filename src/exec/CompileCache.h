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
/// Accounting: a budgeted cache charges an entry what it holds,
/// entryCharge(source bytes) plus core::programBytes of its compiled
/// program, so the budget bounds the memory resident programs take. The
/// charge is counted from the program itself, not read from the
/// allocator, so it is the same on every run. It is taken once the
/// compile ends but before the entry is published, while it is still
/// pinned: enforcing the budget then cannot evict the unit the caller is
/// about to return. A failed compile is charged entryCharge alone; so is
/// every entry of an unbudgeted cache, which never walks its programs.
///
/// Eviction is O(1) in the resident entries: entries sit in a list in
/// use order (a lookup moves its entry to the front), and a victim is the
/// back-most entry that is not pinned, so the walk skips at most the
/// pinned entries, one per thread compiling or waiting.
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
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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
  uint64_t Bytes = 0;   ///< charged bytes of the resident entries
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

  uint64_t byteBudget() const { return Budget; }

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  CompileCacheStats stats() const;

  /// FNV-1a 64-bit hash of source text (the report's stable job key).
  static uint64_t hashSource(std::string_view Src);

  /// The charge of an entry before its program: source bytes plus a fixed
  /// per-entry overhead (the key, map and unit bookkeeping).
  static constexpr uint64_t EntryOverheadBytes = 256;
  static uint64_t entryCharge(size_t SourceBytes) {
    return static_cast<uint64_t>(SourceBytes) + EntryOverheadBytes;
  }

private:
  struct Slot {
    std::string Key;
    bool Ready = false;
    std::shared_ptr<const CompiledUnit> Unit;
    uint64_t Charge = 0;  ///< 0 until the compile ends
    uint64_t Waiters = 0; ///< threads blocked on Ready; pins the slot
  };

  /// Evicts from the least-recently-used end, skipping pinned entries (not
  /// Ready, or with waiters), until Bytes <= Budget or nothing evictable
  /// remains. Caller holds M.
  void enforceBudgetLocked();

  mutable std::mutex M;
  std::condition_variable CV;
  /// Use order, most recent first. List nodes never move, so references to
  /// a Slot (and the map's views of its Key) live until it is evicted.
  std::list<Slot> Lru;
  std::unordered_map<std::string_view, std::list<Slot>::iterator> Map;
  const uint64_t Budget = 0; ///< 0 = unbounded; fixed, so read unlocked
  uint64_t Bytes = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

} // namespace cerb::exec

#endif // CERB_EXEC_COMPILECACHE_H
