//===-- pipebench/harness/Workloads.h - The four workloads ----------------===//
///
/// \file
/// compile, explore, suite and serve: closed loops in one process, each
/// doing whole passes over a seeded input list. The measured work runs on
/// one thread (serve: one daemon worker, one client connection).
///
//===----------------------------------------------------------------------===//
#ifndef PIPEBENCH_WORKLOADS_H
#define PIPEBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Passes = 1;    ///< timed passes (fixed work, never a time window)
  unsigned Setups = 1;    ///< set-ups, each in a fresh process
  bool SetupOnly = false; ///< set up once, report setup_s and stop
  bool Trace = false;     ///< per-layer run instead of the end-to-end run
  bool CorruptRef = false;///< self-check: make exactly one reference wrong
  std::string WorkDir;    ///< scratch directory (daemon socket and cache)
  std::string DumpDir;    ///< write the generated inputs here and stop
  std::string TraceOut;   ///< Chrome trace-event JSON of the traced run
  uint64_t StartNs = 0;   ///< process start, on the Recorder's clock
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Count metrics that are medians over traced passes, not exact counts.
  std::vector<std::string> Inexact;
  /// Raw samples behind the timings: busy time of each timed pass, and
  /// each set-up (untraced runs only).
  std::vector<double> PassMs, SetupS;
  std::vector<std::string> Notes; ///< why ops failed (first few)
};

/// Runs one benchmark run; false (with a note) when the harness itself
/// could not run, as opposed to ops that failed.
bool runWorkload(const Options &O, RunResult &Out);

} // namespace pipebench

#endif // PIPEBENCH_WORKLOADS_H
