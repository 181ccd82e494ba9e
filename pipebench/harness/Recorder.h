//===-- pipebench/harness/Recorder.h - Spans and allocation counts --------===//
///
/// \file
/// The benchmark's own observability, kept outside the program under test:
///
///  - a span recorder: each span has a name, start, end, parent span and op
///    id, is kept in memory, and is written at exit as Chrome trace-event
///    JSON. A span's self time is its duration minus its children's.
///  - a counting global operator new: while a span tagged with a module is
///    innermost on a thread, that thread's allocations are charged to the
///    module. A span opened for all threads charges every thread that has
///    no module of its own (for work the program runs on its own threads).
///    Untagged (the untraced run) it costs a thread-local and a relaxed
///    load.
///
//===----------------------------------------------------------------------===//
#ifndef PIPEBENCH_RECORDER_H
#define PIPEBENCH_RECORDER_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

/// Modules the allocator charges. NoModule = not counting.
enum Module : int {
  NoModule = -1,
  ModCabs,
  ModAil,
  ModTyping,
  ModElab,
  ModCore,
  ModExec,
  ModOracle,
  NumModules
};
const char *moduleName(int M);

struct AllocTotals {
  std::array<uint64_t, NumModules> Allocs{};
  std::array<uint64_t, NumModules> Bytes{};
};
/// Allocation totals charged so far (monotonic).
AllocTotals allocTotals();

uint64_t nowNs();

class Recorder {
public:
  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int Parent; ///< index into spans(), -1 for a root
    uint32_t Op;
  };

  /// Spans are recorded only while armed.
  void arm(bool On);
  void setOp(uint32_t Op) { CurOp = Op; }

  /// Opens a span; \p Mod (when not NoModule) becomes the charged module
  /// of this thread, or with \p AllThreads of every thread, until the span
  /// closes. Returns a handle for end(), -1 when disarmed.
  int begin(const char *Name, int Mod = NoModule, bool AllThreads = false);
  void end(int Handle);

  const std::vector<Span> &spans() const { return Spans; }
  /// Self time per span name, in ms, over spans [From, spans().size()).
  std::map<std::string, double> selfMs(size_t From = 0) const;
  /// Chrome trace-event JSON of every recorded span.
  std::string chromeJson() const;

private:
  bool Armed = false;
  uint32_t CurOp = 0;
  std::vector<Span> Spans;
  struct Open {
    int Index;
    int SavedModule;
    bool Charges;
    bool AllThreads;
  };
  std::vector<Open> Stack;
};

/// RAII wrapper over Recorder::begin/end.
class Scoped {
public:
  Scoped(Recorder &R, const char *Name, int Mod = NoModule,
         bool AllThreads = false)
      : R(R), H(R.begin(Name, Mod, AllThreads)) {}
  ~Scoped() { R.end(H); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Recorder &R;
  int H;
};

} // namespace pipebench

#endif // PIPEBENCH_RECORDER_H
