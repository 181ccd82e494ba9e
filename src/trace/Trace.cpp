//===-- trace/Trace.cpp ---------------------------------------------------===//

#include "trace/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

using namespace cerb;
using namespace cerb::trace;

std::atomic<bool> cerb::trace::internal::Enabled{false};

uint64_t cerb::trace::internal::nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

Counter::Counter(std::string Name) : Name_(std::move(Name)) {
  Registry::instance().add(this);
}

uint64_t Counter::value() const {
  uint64_t Sum = 0;
  for (const Stripe &S : Stripes)
    Sum += S.V.load(std::memory_order_relaxed);
  return Sum;
}

unsigned Counter::stripeIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Idx =
      Next.fetch_add(1, std::memory_order_relaxed) % NumStripes;
  return Idx;
}

Registry &Registry::instance() {
  // Leaky singleton: counters are function-local statics that outlive any
  // snapshot taken during normal execution; never destroying the registry
  // sidesteps static-destruction-order hazards.
  static Registry *R = new Registry;
  return *R;
}

void Registry::add(Counter *C) {
  std::lock_guard<std::mutex> L(M);
  Counters.push_back(C);
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> L(M);
  Snapshot S;
  // Several counters may share a name (one per call site counting the
  // same event); the name's value is their sum.
  for (const Counter *C : Counters)
    S[C->name()] += C->value();
  return S;
}

Registry::Snapshot Registry::delta(const Snapshot &Before,
                                   const Snapshot &After) {
  return delta(Before, After, std::string_view());
}

Registry::Snapshot Registry::delta(const Snapshot &Before,
                                   const Snapshot &After,
                                   std::string_view Prefix) {
  Snapshot D;
  for (const auto &[Name, V] : After) {
    if (!Prefix.empty() &&
        std::string_view(Name).substr(0, Prefix.size()) != Prefix)
      continue;
    auto It = Before.find(Name);
    uint64_t Old = It == Before.end() ? 0 : It->second;
    if (V != Old)
      D[Name] = V - Old;
  }
  return D;
}

//===----------------------------------------------------------------------===//
// Event buffers (lock-striped: one mutex per thread buffer)
//===----------------------------------------------------------------------===//

namespace {

struct Event {
  const char *Name;
  const char *Cat;
  uint64_t TsUs = 0;
  uint64_t DurUs = 0;
  char Ph = 'X'; ///< 'X' complete | 'i' instant
  const char *ArgName = nullptr;
  uint64_t ArgVal = 0;
  std::string Detail;
};

/// Cap per thread (~96 MB worst case across 16 threads); beyond it events
/// are counted as dropped rather than exhausting memory on a pathological
/// run.
constexpr size_t MaxEventsPerThread = 1u << 20;

constexpr size_t MaxThreadNameLen = 47;

struct ThreadBuffer {
  std::mutex M;
  std::vector<Event> Events;
  uint64_t Dropped = 0;
  uint32_t Tid = 0;
  char Name[MaxThreadNameLen + 1] = {0};
};

struct Collector {
  std::mutex M;
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
  uint64_t EpochUs = 0;
};

Collector &collector() {
  static Collector *C = new Collector; // leaky, like the Registry
  return *C;
}

thread_local ThreadBuffer *TLB = nullptr;
/// Name staged by setCurrentThreadName before the buffer exists.
thread_local char PendingName[MaxThreadNameLen + 1] = {0};

ThreadBuffer &localBuffer() {
  if (!TLB) {
    auto B = std::make_unique<ThreadBuffer>();
    Collector &C = collector();
    std::lock_guard<std::mutex> L(C.M);
    B->Tid = static_cast<uint32_t>(C.Buffers.size() + 1);
    if (PendingName[0])
      std::memcpy(B->Name, PendingName, sizeof B->Name);
    else
      std::snprintf(B->Name, sizeof B->Name, "thread-%u", B->Tid);
    TLB = B.get();
    C.Buffers.push_back(std::move(B));
  }
  return *TLB;
}

void record(Event E) {
  ThreadBuffer &B = localBuffer();
  std::lock_guard<std::mutex> L(B.M);
  if (B.Events.size() >= MaxEventsPerThread) {
    ++B.Dropped;
    return;
  }
  B.Events.push_back(std::move(E));
}

std::string escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

void cerb::trace::internal::recordComplete(const char *Name, const char *Cat,
                                           uint64_t StartUs, uint64_t DurUs,
                                           std::string Detail,
                                           const char *ArgName,
                                           uint64_t ArgVal) {
  Event E;
  E.Name = Name;
  E.Cat = Cat;
  E.TsUs = StartUs;
  E.DurUs = DurUs;
  E.Ph = 'X';
  E.ArgName = ArgName;
  E.ArgVal = ArgVal;
  E.Detail = std::move(Detail);
  record(std::move(E));
}

void cerb::trace::internal::recordInstant(const char *Name, const char *Cat,
                                          std::string Detail) {
  Event E;
  E.Name = Name;
  E.Cat = Cat;
  E.TsUs = nowUs();
  E.Ph = 'i';
  E.Detail = std::move(Detail);
  record(std::move(E));
}

size_t cerb::trace::internal::threadBufferCount() {
  Collector &C = collector();
  std::lock_guard<std::mutex> L(C.M);
  return C.Buffers.size();
}

//===----------------------------------------------------------------------===//
// Session control
//===----------------------------------------------------------------------===//

void cerb::trace::start() {
  Collector &C = collector();
  std::lock_guard<std::mutex> L(C.M);
  for (auto &B : C.Buffers) {
    std::lock_guard<std::mutex> BL(B->M);
    B->Events.clear();
    B->Dropped = 0;
  }
  C.EpochUs = internal::nowUs();
  internal::Enabled.store(true, std::memory_order_release);
}

void cerb::trace::stop() {
  internal::Enabled.store(false, std::memory_order_release);
}

void cerb::trace::setCurrentThreadName(const char *Name) {
  std::snprintf(PendingName, sizeof PendingName, "%s", Name);
  if (TLB) {
    std::lock_guard<std::mutex> L(TLB->M);
    std::memcpy(TLB->Name, PendingName, sizeof TLB->Name);
  }
}

//===----------------------------------------------------------------------===//
// Chrome trace-event serialization
//===----------------------------------------------------------------------===//

std::string cerb::trace::chromeTraceJson() {
  Collector &C = collector();
  std::lock_guard<std::mutex> L(C.M);
  uint64_t Epoch = C.EpochUs;
  uint64_t Dropped = 0;

  std::string J;
  J += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool First = true;
  auto comma = [&] {
    if (!First)
      J += ",";
    First = false;
    J += "\n";
  };

  for (auto &B : C.Buffers) {
    std::lock_guard<std::mutex> BL(B->M);
    Dropped += B->Dropped;
    std::string Tid = std::to_string(B->Tid);
    comma();
    J += "{\"ph\": \"M\", \"pid\": 1, \"tid\": " + Tid +
         ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
         escape(B->Name) + "\"}}";
    for (const Event &E : B->Events) {
      // Events recorded before the current session's epoch were cleared by
      // start(); anything still here is >= Epoch, but clamp defensively.
      uint64_t Ts = E.TsUs >= Epoch ? E.TsUs - Epoch : 0;
      comma();
      J += "{\"ph\": \"";
      J += E.Ph;
      J += "\", \"pid\": 1, \"tid\": " + Tid + ", \"ts\": " +
           std::to_string(Ts) + ", \"name\": \"" + escape(E.Name) +
           "\", \"cat\": \"" + escape(E.Cat) + "\"";
      if (E.Ph == 'X')
        J += ", \"dur\": " + std::to_string(E.DurUs);
      else
        J += ", \"s\": \"t\"";
      if (!E.Detail.empty() || E.ArgName) {
        J += ", \"args\": {";
        bool FirstArg = true;
        if (!E.Detail.empty()) {
          J += "\"detail\": \"" + escape(E.Detail) + "\"";
          FirstArg = false;
        }
        if (E.ArgName) {
          if (!FirstArg)
            J += ", ";
          J += "\"" + escape(E.ArgName) +
               "\": " + std::to_string(E.ArgVal);
        }
        J += "}";
      }
      J += "}";
    }
  }
  J += "\n], \"otherData\": {\"dropped_events\": \"" +
       std::to_string(Dropped) + "\"}}\n";
  return J;
}

bool cerb::trace::writeChromeTrace(const std::string &Path, std::string *Err) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    if (Err)
      *Err = "cannot open trace file '" + Path + "' for writing";
    return false;
  }
  Out << chromeTraceJson();
  Out.flush();
  if (!Out) {
    if (Err)
      *Err = "error writing trace file '" + Path + "'";
    return false;
  }
  return true;
}
