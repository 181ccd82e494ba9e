//===-- pipebench/harness/main.cpp - Benchmark harness entry point --------===//
///
/// \file
/// pipebench-harness --workload W --seed N --passes P --setups S
///                   --trace 0|1 --work-dir DIR [--start-ns T]
///                   [--trace-out FILE] [--dump-inputs DIR] [--corrupt-ref]
///                   [--setup-only]
///
/// Prints one JSON result as its last stdout line:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
///    "inexact": [...], "passes_ms": [...], "setups_s": [...]}
/// run.py builds this binary, picks the pass counts and stamps the host.
/// --start-ns is the steady-clock time just before the process was
/// started; --setup-only sets up once and prints only setup_s, in seconds.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Recorder.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace pipebench;

namespace {
// Initialised before main: the start of set-up time.
const uint64_t ProcessStartNs = nowNs();

int usage(const char *Why) {
  std::fprintf(stderr, "pipebench-harness: %s\n", Why);
  return 2;
}
} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.StartNs = ProcessStartNs;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--corrupt-ref" || A == "--setup-only") {
      (A == "--corrupt-ref" ? O.CorruptRef : O.SetupOnly) = true;
      continue;
    }
    if (!(V = Next()))
      return usage(("missing value for " + A).c_str());
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--passes")
      O.Passes = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--setups")
      O.Setups = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--trace")
      O.Trace = std::string(V) == "1";
    else if (A == "--work-dir")
      O.WorkDir = V;
    else if (A == "--start-ns")
      O.StartNs = std::strtoull(V, nullptr, 10);
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--dump-inputs")
      O.DumpDir = V;
    else
      return usage(("unknown option " + A).c_str());
  }
  if (O.WorkDir.empty() || O.Passes == 0)
    return usage("need --work-dir and --passes >= 1");
  std::error_code EC;
  std::filesystem::create_directories(O.WorkDir, EC);
  // The host compiler's temporary files stay inside the work directory.
  setenv("TMPDIR", O.WorkDir.c_str(), 1);

  RunResult R;
  bool Ok = runWorkload(O, R);
  for (const std::string &N : R.Notes)
    std::fprintf(stderr, "pipebench: %s\n", N.c_str());
  if (!Ok)
    return 1;
  if (!O.DumpDir.empty())
    return 0;
  if (O.SetupOnly) {
    std::printf("%.9f\n", R.Metrics.at(0).Value);
    return 0;
  }

  std::string J = "{\"correct\": ";
  J += R.Failed == 0 ? "true" : "false";
  J += cat(", \"attempted\": ", R.Attempted, ", \"failed\": ", R.Failed);
  J += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    double V = R.Metrics[I].Value;
    std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(V) ? V : 0.0);
    J += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + R.Metrics[I].Unit + "\"}";
  }
  J += "}, \"inexact\": [";
  for (size_t I = 0; I < R.Inexact.size(); ++I)
    J += (I ? ", \"" : "\"") + R.Inexact[I] + "\"";
  auto List = [&](const char *Key, const std::vector<double> &V) {
    J += cat("], \"", Key, "\": [");
    for (size_t I = 0; I < V.size(); ++I) {
      std::snprintf(Buf, sizeof Buf, "%s%.6g", I ? ", " : "", V[I]);
      J += Buf;
    }
  };
  List("passes_ms", R.PassMs);
  List("setups_s", R.SetupS);
  J += "]}";
  std::printf("%s\n", J.c_str());
  return 0;
}
