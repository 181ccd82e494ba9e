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
  // Walk from the least recently used end. In-flight entries and entries
  // with blocked waiters are pinned (their threads hold references to the
  // Slot), so the walk skips at most one entry per such thread.
  auto It = Lru.end();
  while (Budget && Bytes > Budget && It != Lru.begin()) {
    --It;
    if (!It->Ready || It->Waiters)
      continue;
    static trace::Counter CntEvictions("oracle.cache_evictions");
    CntEvictions.add();
    Bytes -= It->Charge;
    Map.erase(It->Key);
    It = Lru.erase(It);
    ++Evictions;
  }
}

std::shared_ptr<const CompiledUnit>
CompileCache::get(const std::string &Source, const FrontendOptions &FE,
                  bool *OutHit) {
  std::string Key = keyFor(Source, FE);
  std::unique_lock<std::mutex> L(M);
  if (auto Found = Map.find(Key); Found != Map.end()) {
    static trace::Counter CntHits("oracle.cache_hits");
    CntHits.add();
    trace::instant("oracle.cache-hit", "oracle");
    ++Hits;
    Lru.splice(Lru.begin(), Lru, Found->second);
    Slot &S = Lru.front();
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
  Slot &S = Lru.emplace_front();
  S.Key = std::move(Key);
  Map.emplace(S.Key, Lru.begin());
  if (OutHit)
    *OutHit = false;
  L.unlock();

  auto Unit = std::make_shared<CompiledUnit>();
  Unit->SourceHash = hashSource(Source);
  uint64_t Charge = entryCharge(Source.size());
  auto R = exec::compileWithStats(Source, FE);
  if (R) {
    if (Budget)
      Charge += core::programBytes(R->Prog);
    Unit->Prog = std::make_shared<const core::CoreProgram>(std::move(R->Prog));
    Unit->Rewrites = R->Rewrites;
    Unit->Timings = R->Timings;
  } else {
    Unit->Error = R.error().str();
  }

  L.lock();
  S.Unit = std::move(Unit);
  S.Charge = Charge;
  Bytes += Charge;
  // Still unpublished, so pinned: the budget can only displace peers.
  enforceBudgetLocked();
  S.Ready = true;
  auto Out = S.Unit;
  L.unlock();
  CV.notify_all();
  return Out;
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
