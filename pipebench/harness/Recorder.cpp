//===-- pipebench/harness/Recorder.cpp ------------------------------------===//

#include "Recorder.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

using namespace pipebench;

namespace {
/// The module charged for this thread's allocations, else (NoModule) the
/// one charged for every thread's.
thread_local int ThreadModule = NoModule;
std::atomic<int> AnyThreadModule{NoModule};
std::atomic<uint64_t> Allocs[NumModules];
std::atomic<uint64_t> Bytes[NumModules];

inline void charge(std::size_t N) {
  int M = ThreadModule;
  if (M < 0)
    M = AnyThreadModule.load(std::memory_order_relaxed);
  if (M < 0)
    return;
  Allocs[M].fetch_add(1, std::memory_order_relaxed);
  Bytes[M].fetch_add(N, std::memory_order_relaxed);
}
} // namespace

// The counting allocator. libstdc++ routes the array and nothrow forms
// through these, and its aligned forms pair aligned_alloc with free. All
// of them stay out of line: inlined into one function, GCC would flag the
// malloc/free pairing as a mismatch.
[[gnu::noinline]] void *operator new(std::size_t N) {
  charge(N);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

const char *pipebench::moduleName(int M) {
  static const char *Names[NumModules] = {"cabs", "ail",  "typing", "elab",
                                          "core", "exec", "oracle"};
  return M >= 0 && M < NumModules ? Names[M] : "none";
}

AllocTotals pipebench::allocTotals() {
  AllocTotals T;
  for (int M = 0; M < NumModules; ++M) {
    T.Allocs[M] = Allocs[M].load(std::memory_order_relaxed);
    T.Bytes[M] = Bytes[M].load(std::memory_order_relaxed);
  }
  return T;
}

uint64_t pipebench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Recorder::arm(bool On) {
  Armed = On;
  // Span storage grows outside the timed spans.
  if (On && Spans.capacity() - Spans.size() < 65536)
    Spans.reserve(Spans.size() + 262144);
}

int Recorder::begin(const char *Name, int Mod, bool AllThreads) {
  if (!Armed)
    return -1;
  int Parent = Stack.empty() ? -1 : Stack.back().Index;
  int Saved = AllThreads ? AnyThreadModule.load(std::memory_order_relaxed)
                         : ThreadModule;
  Spans.push_back(Span{Name, 0, 0, Parent, CurOp});
  Stack.push_back(Open{static_cast<int>(Spans.size() - 1), Saved,
                       Mod != NoModule, AllThreads});
  if (Mod != NoModule && AllThreads)
    AnyThreadModule.store(Mod, std::memory_order_relaxed);
  else if (Mod != NoModule)
    ThreadModule = Mod;
  Spans.back().StartNs = nowNs();
  return Stack.back().Index;
}

void Recorder::end(int Handle) {
  if (Handle < 0)
    return;
  uint64_t T = nowNs();
  Open O = Stack.back();
  Stack.pop_back();
  Spans[O.Index].EndNs = T;
  if (O.Charges && O.AllThreads)
    AnyThreadModule.store(O.SavedModule, std::memory_order_relaxed);
  else if (O.Charges)
    ThreadModule = O.SavedModule;
}

std::map<std::string, double> Recorder::selfMs(size_t From) const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Parent >= static_cast<int>(From))
      ChildNs[Spans[I].Parent] += Spans[I].EndNs - Spans[I].StartNs;
  std::map<std::string, double> Out;
  for (size_t I = From; I < Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    Out[Spans[I].Name] += static_cast<double>(Dur - ChildNs[I]) / 1e6;
  }
  return Out;
}

std::string Recorder::chromeJson() const {
  std::string J = "{\"traceEvents\": [\n";
  uint64_t Epoch = Spans.empty() ? 0 : Spans.front().StartNs;
  char Buf[256];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof Buf,
                  "%s{\"name\": \"%s\", \"cat\": \"pipebench\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %u}}",
                  I ? ",\n" : "", S.Name, (S.StartNs - Epoch) / 1e3,
                  (S.EndNs - S.StartNs) / 1e3, I, S.Parent, S.Op);
    J += Buf;
  }
  J += "\n]}\n";
  return J;
}
