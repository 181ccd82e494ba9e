//===-- bench/perf_serve.cpp - daemon cold/warm latency and QPS (P6) ------===//
///
/// \file
/// Proves the serve subsystem's acceptance bound: a warm-cache repeat of an
/// evaluation query must return the *byte-identical* response at >= 50x
/// lower latency than its cold run. Also measures the disk tier (a
/// restarted daemon on the same cache directory) and sustained warm QPS
/// from concurrent clients — the batch-throughput story behind running a
/// de facto survey as a service instead of a process per question.
///
/// Everything runs in-process over a real unix-domain socket, so the
/// numbers include framing, socket hops, and admission control — the
/// daemon as deployed, not the cache in isolation. Emits BENCH_serve.json
/// (bench_json.h) and exits nonzero when the 50x bound fails, like
/// perf_trace_overhead does for its 2% bound.
///
//===----------------------------------------------------------------------===//

#include "bench_json.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "support/FaultInjector.h"

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace cerb;
using namespace cerb::serve;

namespace {

namespace fs = std::filesystem;

/// Eight indeterminately sequenced call pairs over interpreted work: the
/// cold evaluation explores 2^8 = 256 paths per policy, across all four
/// presets — hundreds of milliseconds of honest work to amortize.
const char *coldWorkSource() {
  return R"(
#include <stdio.h>
unsigned g;
int work(int v) {
  unsigned i, s = 0;
  for (i = 0; i < 40u; i++)
    s += (i ^ (unsigned)v) + (s >> 3);
  g = g * 10u + (unsigned)v + (s & 0u);
  return 0;
}
int main(void) {
  work(1) + work(2);
  work(3) + work(4);
  work(5) + work(6);
  work(7) + work(8);
  work(1) + work(3);
  work(2) + work(5);
  work(4) + work(7);
  work(6) + work(8);
  printf("%u\n", g);
  return 0;
}
)";
}

void BM_SerializeEvalRequest(benchmark::State &State) {
  EvalRequest Q;
  Q.Id = "bench";
  Q.Source = "int main(void) { return 0; }\n";
  Q.Policies = mem::MemoryPolicy::allPresets();
  for (auto _ : State) {
    std::string F = serializeEvalRequest(Q);
    benchmark::DoNotOptimize(F);
  }
}
BENCHMARK(BM_SerializeEvalRequest);

/// The disarmed fault hook on the serve hot path: one relaxed atomic load.
/// The P6 summary gates its aggregate cost at < 2% of a warm query.
void BM_DisarmedFaultCheck(benchmark::State &State) {
  int E = 0;
  for (auto _ : State) {
    bool F = fault::shouldFail("socket.read", &E);
    benchmark::DoNotOptimize(F);
  }
}
BENCHMARK(BM_DisarmedFaultCheck);

void BM_CacheKeyMaterial(benchmark::State &State) {
  EvalRequest Q;
  Q.Source = "int main(void) { return 0; }\n";
  Q.Policies = mem::MemoryPolicy::allPresets();
  for (auto _ : State) {
    std::string K = cacheKeyMaterial(Q);
    benchmark::DoNotOptimize(K);
  }
}
BENCHMARK(BM_CacheKeyMaterial);

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

struct Scratch {
  fs::path Dir;
  Scratch() {
    Dir = fs::temp_directory_path() /
          ("cerb-perf-serve-" + std::to_string(::getpid()));
    std::error_code EC;
    fs::remove_all(Dir, EC);
    fs::create_directories(Dir);
  }
  ~Scratch() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  std::string str(const char *Leaf) const { return (Dir / Leaf).string(); }
};

EvalRequest benchRequest() {
  EvalRequest Q;
  Q.Id = "bench";
  Q.Name = "perf_serve";
  Q.Source = coldWorkSource();
  Q.Policies = mem::MemoryPolicy::allPresets();
  Q.Limits.MaxPaths = 512;
  return Q;
}

int serveSummary() {
  std::printf("\nP6 summary: evaluation daemon cold/warm latency\n");
  Scratch T;

  DaemonConfig Cfg;
  Cfg.SocketPath = T.str("d.sock");
  Cfg.Cache.Dir = T.str("cache");
  Daemon D(std::move(Cfg));
  auto Started = D.start();
  if (!Started) {
    std::fprintf(stderr, "perf_serve: %s\n", Started.error().str().c_str());
    return 1;
  }
  auto ClientOr = Client::connect(T.str("d.sock"));
  if (!ClientOr) {
    std::fprintf(stderr, "perf_serve: %s\n", ClientOr.error().str().c_str());
    return 1;
  }
  Client &C = *ClientOr;
  std::string Frame = serializeEvalRequest(benchRequest());

  // Cold: the full pipeline (parse -> elaborate -> 4 policies x 256-path
  // exhaustive exploration) plus framing.
  auto T0 = std::chrono::steady_clock::now();
  auto Cold = C.call(Frame);
  double ColdMs = msSince(T0);
  if (!Cold) {
    std::fprintf(stderr, "perf_serve: cold query failed\n");
    return 1;
  }

  // Warm: best-of-N memory-tier replays (the steady-state repeat query).
  double WarmMs = 1e100;
  bool WarmIdentical = true;
  constexpr int WarmRuns = 32;
  for (int I = 0; I < WarmRuns; ++I) {
    T0 = std::chrono::steady_clock::now();
    auto Warm = C.call(Frame);
    WarmMs = std::min(WarmMs, msSince(T0));
    WarmIdentical = WarmIdentical && Warm && *Warm == *Cold;
  }

  // Sustained warm QPS from 4 concurrent client connections.
  constexpr int QpsClients = 4, QpsPerClient = 64;
  std::atomic<bool> QpsOk{true};
  T0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Threads;
    for (int I = 0; I < QpsClients; ++I)
      Threads.emplace_back([&] {
        auto Conn = Client::connect(T.str("d.sock"));
        if (!Conn) {
          QpsOk.store(false);
          return;
        }
        for (int J = 0; J < QpsPerClient; ++J) {
          auto R = Conn->call(Frame);
          if (!R || *R != *Cold)
            QpsOk.store(false);
        }
      });
    for (auto &Th : Threads)
      Th.join();
  }
  double QpsWallMs = msSince(T0);
  double Qps = QpsWallMs > 0
                   ? (QpsClients * QpsPerClient) / (QpsWallMs / 1000.0)
                   : 0;

  D.requestDrain();
  D.waitUntilDrained();

  // Disk tier: a restarted daemon on the same cache directory answers the
  // repeat from the object store, still byte-identically.
  double DiskMs = 1e100;
  bool DiskIdentical = false;
  {
    DaemonConfig Cfg2;
    Cfg2.SocketPath = T.str("d2.sock");
    Cfg2.Cache.Dir = T.str("cache");
    Daemon D2(std::move(Cfg2));
    if (!D2.start()) {
      std::fprintf(stderr, "perf_serve: restart failed\n");
      return 1;
    }
    auto C2 = Client::connect(T.str("d2.sock"));
    if (!C2) {
      std::fprintf(stderr, "perf_serve: reconnect failed\n");
      return 1;
    }
    // The first repeat is the actual disk read (later ones would hit the
    // promoted memory entry).
    auto TD = std::chrono::steady_clock::now();
    auto Disk = C2->call(Frame);
    DiskMs = msSince(TD);
    DiskIdentical = Disk && *Disk == *Cold;
    D2.requestDrain();
    D2.waitUntilDrained();
  }

  // Disarmed fault-hook overhead: the injection points stay compiled into
  // the serve hot path, so their cost when *no* schedule is armed is part
  // of the acceptance bound. Measure the per-check cost directly and
  // charge a warm query generously (32 checks: every socket read/write on
  // both sides plus the cache probes) — the total must stay under 2% of
  // the measured warm latency.
  double DisarmedNs;
  {
    constexpr int Checks = 1 << 22;
    int E = 0;
    bool Sink = false;
    T0 = std::chrono::steady_clock::now();
    for (int I = 0; I < Checks; ++I)
      Sink ^= fault::shouldFail("socket.read", &E);
    benchmark::DoNotOptimize(Sink);
    DisarmedNs = msSince(T0) * 1e6 / Checks;
  }
  constexpr double ChecksPerWarmQuery = 32.0;
  double DisarmedOverheadPct =
      WarmMs > 0 ? (DisarmedNs * ChecksPerWarmQuery) / (WarmMs * 1e6) * 100.0
                 : 0;
  bool FaultHookCheap = DisarmedOverheadPct < 2.0;

  // Batch row: a 64-test shared-source suite against the same (warm)
  // daemon, three ways. The pre-batch workflow is one `cerb query` per
  // test — dial, eval, hang up — so that is the sequential baseline the
  // >= 5x bound is against: the batch replaces 64 dials (each spawning a
  // daemon reader thread) and 64 request frames carrying the same source
  // with one connection and one frame. The persistent-connection
  // sequential loop (keep one socket, 64 round trips) is reported too:
  // it isolates how much of the win is pipelining vs connection setup.
  constexpr int SuiteN = 64;
  double SeqMs = 1e100, SeqKeepMs = 1e100, BatchMs = 1e100;
  bool BatchIdentical = true;
  {
    DaemonConfig Cfg3;
    Cfg3.SocketPath = T.str("d3.sock");
    Daemon D3(std::move(Cfg3));
    if (!D3.start()) {
      std::fprintf(stderr, "perf_serve: batch daemon failed\n");
      return 1;
    }
    auto C3 = Client::connect(T.str("d3.sock"));
    if (!C3) {
      std::fprintf(stderr, "perf_serve: batch connect failed\n");
      return 1;
    }
    std::vector<EvalRequest> Suite;
    std::vector<std::string> Frames;
    for (int I = 0; I < SuiteN; ++I) {
      EvalRequest Q;
      Q.Id = "s" + std::to_string(I);
      Q.Name = "suite-" + std::to_string(I);
      Q.Source = coldWorkSource(); // shared across the whole suite
      Q.Policies = {mem::MemoryPolicy::defacto()};
      Q.ExecMode = oracle::Mode::Random;
      Q.Seed = 1 + I;
      Q.Limits.MaxPaths = 4;
      Frames.push_back(serializeEvalRequest(Q));
      Suite.push_back(std::move(Q));
    }
    // Cold pass to fill the result cache; the row compares warm suites
    // (the steady state of re-running a suite against a daemon).
    auto Cold3 = C3->callBatch(Suite);
    if (!Cold3) {
      std::fprintf(stderr, "perf_serve: cold batch failed: %s\n",
                   Cold3.error().str().c_str());
      return 1;
    }
    constexpr int Reps = 5;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      // Row 1: the pre-batch workflow — a fresh dial per request.
      auto TS = std::chrono::steady_clock::now();
      for (int I = 0; I < SuiteN; ++I) {
        auto Q = Client::connect(T.str("d3.sock"));
        bool OkOne = false;
        if (Q) {
          auto R = Q->call(Frames[I]);
          OkOne = R && *R == Cold3->Raw[I];
        }
        BatchIdentical = BatchIdentical && OkOne;
      }
      SeqMs = std::min(SeqMs, msSince(TS));
      // Row 2: sequential round trips on one kept connection.
      TS = std::chrono::steady_clock::now();
      for (int I = 0; I < SuiteN; ++I) {
        auto R = C3->call(Frames[I]);
        BatchIdentical = BatchIdentical && R && *R == Cold3->Raw[I];
      }
      SeqKeepMs = std::min(SeqKeepMs, msSince(TS));
      // Row 3: the whole suite as one pipelined batch frame.
      TS = std::chrono::steady_clock::now();
      auto B = C3->callBatch(Suite);
      BatchMs = std::min(BatchMs, msSince(TS));
      BatchIdentical = BatchIdentical && B && B->Raw == Cold3->Raw;
    }
    D3.requestDrain();
    D3.waitUntilDrained();
  }
  double SeqQps = SeqMs > 0 ? SuiteN / (SeqMs / 1000.0) : 0;
  double SeqKeepQps = SeqKeepMs > 0 ? SuiteN / (SeqKeepMs / 1000.0) : 0;
  double BatchQps = BatchMs > 0 ? SuiteN / (BatchMs / 1000.0) : 0;
  double BatchSpeedup = BatchMs > 0 ? SeqMs / BatchMs : 0;
  bool BatchFast = BatchSpeedup >= 5.0;

  double Speedup = WarmMs > 0 ? ColdMs / WarmMs : 0;
  bool Pass = WarmIdentical && DiskIdentical && QpsOk.load() &&
              Speedup >= 50.0 && FaultHookCheap && BatchIdentical &&
              BatchFast;

  std::printf("  cold evaluation:   %8.2f ms\n", ColdMs);
  std::printf("  warm repeat:       %8.4f ms (best of %d)  %.0fx\n", WarmMs,
              WarmRuns, Speedup);
  std::printf("  disk-tier repeat:  %8.4f ms (restarted daemon)\n", DiskMs);
  std::printf("  sustained warm:    %8.0f queries/s (%d clients)\n", Qps,
              QpsClients);
  std::printf("  byte-identical: warm=%s disk=%s concurrent=%s\n",
              WarmIdentical ? "yes" : "NO", DiskIdentical ? "yes" : "NO",
              QpsOk.load() ? "yes" : "NO");
  std::printf("  disarmed fault hook: %6.2f ns/check (%.4f%% of a warm "
              "query at %gx/call)\n",
              DisarmedNs, DisarmedOverheadPct, ChecksPerWarmQuery);
  std::printf("  warm speedup bound (>= 50x): %s\n",
              Speedup >= 50.0 ? "PASS" : "FAIL");
  std::printf("  disarmed fault overhead bound (< 2%%): %s\n",
              FaultHookCheap ? "PASS" : "FAIL");
  std::printf("  suite of %d (warm): eval-per-dial %8.2f ms (%7.0f q/s)  "
              "eval-per-call %8.2f ms (%7.0f q/s)\n",
              SuiteN, SeqMs, SeqQps, SeqKeepMs, SeqKeepQps);
  std::printf("  suite of %d (warm): one batch     %8.2f ms (%7.0f q/s)  "
              "%.1fx vs eval-per-dial\n",
              SuiteN, BatchMs, BatchQps, BatchSpeedup);
  std::printf("  batch byte-identical to sequential: %s\n",
              BatchIdentical ? "yes" : "NO");
  std::printf("  batch suite speedup bound (>= 5x): %s\n",
              BatchFast ? "PASS" : "FAIL");

  benchjson::Emitter E("serve");
  E.metric("cold_ms", ColdMs);
  E.metric("warm_ms", WarmMs);
  E.metric("disk_warm_ms", DiskMs);
  E.metric("warm_speedup", Speedup);
  E.metric("sustained_qps", Qps);
  E.metric("disarmed_fault_ns_per_check", DisarmedNs);
  E.metric("disarmed_fault_overhead_pct", DisarmedOverheadPct);
  E.metric("warm_byte_identical", WarmIdentical);
  E.metric("disk_byte_identical", DiskIdentical);
  E.metric("concurrent_byte_identical", QpsOk.load());
  E.metric("batch_suite_n", double(SuiteN));
  E.metric("batch_seq_ms", SeqMs);
  E.metric("batch_seq_keepalive_ms", SeqKeepMs);
  E.metric("batch_ms", BatchMs);
  E.metric("batch_seq_qps", SeqQps);
  E.metric("batch_seq_keepalive_qps", SeqKeepQps);
  E.metric("batch_qps", BatchQps);
  E.metric("batch_speedup", BatchSpeedup);
  E.metric("batch_byte_identical", BatchIdentical);
  E.metric("pass", Pass);
  E.write("BENCH_serve.json");

  return Pass ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return serveSummary();
}
