//===-- exec/CompileCache.cpp ---------------------------------------------===//

#include "exec/CompileCache.h"

#include "trace/Trace.h"

using namespace cerb;
using namespace cerb::exec;

namespace {

/// Map key: fixed-width options fingerprint, a separator, then the raw
/// source bytes. The prefix is fixed-length hex, so no source text can
/// imitate another options vector's key.
std::string keyFor(const std::string &Source, const FrontendOptions &FE) {
  static const char *Digits = "0123456789abcdef";
  uint64_t FP = FE.fingerprint();
  std::string K(16, '0');
  for (int I = 15; I >= 0; --I, FP >>= 4)
    K[static_cast<size_t>(I)] = Digits[FP & 0xF];
  K += '|';
  K += Source;
  return K;
}

} // namespace

uint64_t CompileCache::hashSource(std::string_view Src) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Src) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

void CompileCache::enforceBudgetLocked() {
  while (Budget && Bytes > Budget) {
    // Least-recently-used among evictable entries: published (Ready) and
    // unobserved (no blocked waiters). In-flight entries are pinned — the
    // compiling thread and its waiters hold references into the map.
    auto Victim = Map.end();
    for (auto It = Map.begin(); It != Map.end(); ++It) {
      Slot &S = It->second;
      if (!S.Ready || S.Waiters)
        continue;
      if (Victim == Map.end() || S.LastUse < Victim->second.LastUse)
        Victim = It;
    }
    if (Victim == Map.end())
      return; // everything resident is pinned; retry on the next miss
    static trace::Counter CntEvictions("oracle.cache_evictions");
    CntEvictions.add();
    Bytes -= Victim->second.Charge;
    Map.erase(Victim);
    ++Evictions;
  }
}

std::shared_ptr<const CompiledUnit>
CompileCache::get(const std::string &Source, const FrontendOptions &FE,
                  bool *OutHit) {
  std::unique_lock<std::mutex> L(M);
  auto [It, Inserted] = Map.try_emplace(keyFor(Source, FE));
  // Element references survive rehashing; iterators do not.
  Slot &S = It->second;
  if (!Inserted) {
    static trace::Counter CntHits("oracle.cache_hits");
    CntHits.add();
    trace::instant("oracle.cache-hit", "oracle");
    ++Hits;
    S.LastUse = ++UseClock;
    if (OutHit)
      *OutHit = true;
    if (!S.Ready) {
      // Pin the slot while blocked: eviction skips entries with waiters,
      // so &S cannot dangle across the wait.
      ++S.Waiters;
      CV.wait(L, [&S] { return S.Ready; });
      --S.Waiters;
    }
    return S.Unit;
  }
  static trace::Counter CntMisses("oracle.cache_misses");
  CntMisses.add();
  ++Misses;
  S.Charge = entryCharge(Source.size());
  S.LastUse = ++UseClock;
  Bytes += S.Charge;
  // Make room *before* compiling: the new in-flight entry is pinned
  // (!Ready), so it can only displace published peers, never itself.
  enforceBudgetLocked();
  if (OutHit)
    *OutHit = false;
  L.unlock();

  auto Unit = std::make_shared<CompiledUnit>();
  Unit->SourceHash = hashSource(Source);
  auto R = exec::compileWithStats(Source, FE);
  if (R) {
    Unit->Prog = std::make_shared<const core::CoreProgram>(std::move(R->Prog));
    Unit->Rewrites = R->Rewrites;
    Unit->Timings = R->Timings;
  } else {
    Unit->Error = R.error().str();
  }

  L.lock();
  S.Unit = std::move(Unit);
  S.Ready = true;
  auto Out = S.Unit; // copy under the lock; rehashing invalidates iterators
  L.unlock();
  CV.notify_all();
  return Out;
}

uint64_t CompileCache::byteBudget() const {
  std::lock_guard<std::mutex> L(M);
  return Budget;
}

uint64_t CompileCache::hits() const {
  std::lock_guard<std::mutex> L(M);
  return Hits;
}

uint64_t CompileCache::misses() const {
  std::lock_guard<std::mutex> L(M);
  return Misses;
}

uint64_t CompileCache::evictions() const {
  std::lock_guard<std::mutex> L(M);
  return Evictions;
}

CompileCacheStats CompileCache::stats() const {
  std::lock_guard<std::mutex> L(M);
  CompileCacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Bytes = Bytes;
  S.Entries = Map.size();
  return S;
}
