//===-- tests/test_chaos.cpp - serve-stack chaos soak ---------------------===//
//
// The robustness capstone: an in-process daemon soaked by concurrent
// clients while a seeded fault schedule tears at every I/O seam — socket
// reads/writes fail and shorten, accepts drop, cache publishes tear and
// die mid-rename, disk reads vanish. The properties under test:
//
//   1. No hangs: the whole soak finishes under a global watchdog deadline.
//      If it does not, the watchdog writes the seed + canonical fault
//      schedule to CERB_CHAOS_ARTIFACT (if set) and aborts the process, so
//      CI uploads an exact repro.
//   2. No descriptor leaks: /proc/self/fd is byte-for-byte the same size
//      after the soak (every torn connection's fd was released).
//   3. No wrong answers: every reply that *does* complete is
//      byte-identical to the fault-free golden run. Faults may cost
//      requests, never corrupt them.
//
// The schedule is a pure function of CERB_CHAOS_SEED (default 1), so any
// failure replays exactly, at any thread count.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Daemon.h"
#include "serve/Protocol.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

using namespace cerb;
using namespace cerb::serve;

namespace fs = std::filesystem;

namespace {

constexpr unsigned NumClients = 8;
constexpr unsigned CallsPerClient = 64; // 512 requests total
constexpr unsigned NumSources = 10;

uint64_t envU64(const char *Name, uint64_t Default) {
  const char *V = std::getenv(Name);
  return (V && *V) ? std::strtoull(V, nullptr, 0) : Default;
}

size_t openFdCount() {
  size_t N = 0;
  for (const auto &E : fs::directory_iterator("/proc/self/fd"))
    (void)E, ++N;
  return N; // includes the iterator's own fd — constant, so deltas cancel
}

std::string chaosSource(unsigned I) {
  // Ten distinct trivial programs: distinct cache keys, instant evals.
  return "int main(void) { return " + std::to_string(I % 7) + " + " +
         std::to_string(I % 3) + "; }\n";
}

EvalRequest chaosRequest(unsigned SrcIdx) {
  EvalRequest Q;
  Q.Id = "chaos-" + std::to_string(SrcIdx);
  Q.Name = "chaos";
  Q.Source = chaosSource(SrcIdx);
  Q.Policies = {mem::MemoryPolicy::defacto()};
  Q.Limits.DeadlineMs = 5000;
  return Q;
}

/// The fault schedule for the soak: every seam, low-probability persistent
/// failures so most requests limp through after a retry or two.
std::vector<fault::FaultSpec> chaosSchedule() {
  auto Mk = [](const char *Site, double P, int Err) {
    fault::FaultSpec S;
    S.Site = Site;
    S.Probability = P;
    S.Err = Err;
    return S;
  };
  return {
      Mk("socket.read", 0.02, ECONNRESET),
      Mk("socket.read.short", 0.20, 0),
      Mk("socket.write", 0.02, EPIPE),
      Mk("socket.write.short", 0.20, 0),
      Mk("socket.accept", 0.05, ECONNABORTED),
      Mk("cache.disk_read", 0.05, EIO),
      Mk("cache.disk_write", 0.10, ENOSPC),
      Mk("cache.torn", 0.05, EIO),
      Mk("cache.rename", 0.10, EIO),
  };
}

/// On a hang, dump the exact repro (seed + canonical schedule) where CI
/// can pick it up, then kill the process hard enough that ctest reports a
/// failure instead of waiting out its own timeout.
struct Watchdog {
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  std::thread T;

  Watchdog(uint64_t DeadlineMs, uint64_t Seed) {
    T = std::thread([this, DeadlineMs, Seed] {
      std::unique_lock<std::mutex> L(Mu);
      if (Cv.wait_for(L, std::chrono::milliseconds(DeadlineMs),
                      [this] { return Done; }))
        return;
      const char *Artifact = std::getenv("CERB_CHAOS_ARTIFACT");
      std::string Desc = fault::Injector::instance().describe();
      if (Desc.empty()) { // soak may hang while disarmed (golden phase)
        fault::Injector::instance().arm(Seed, chaosSchedule());
        Desc = fault::Injector::instance().describe();
        fault::Injector::instance().disarm();
      }
      if (Artifact && *Artifact) {
        std::ofstream Out(Artifact, std::ios::trunc);
        Out << "CERB_CHAOS_SEED=" << Seed << "\n"
            << "CERB_FAULTS=" << Desc << "\n";
      }
      std::fprintf(stderr,
                   "chaos watchdog: soak exceeded %llu ms; repro with "
                   "CERB_CHAOS_SEED=%llu (schedule: %s)\n",
                   static_cast<unsigned long long>(DeadlineMs),
                   static_cast<unsigned long long>(Seed), Desc.c_str());
      std::fflush(stderr);
      std::_Exit(86); // no-hang guarantee violated: fail loud, fail now
    });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Done = true;
    }
    Cv.notify_all();
    T.join();
  }
};

struct TempDir {
  fs::path Path;
  TempDir() {
    std::string Tmpl =
        (fs::temp_directory_path() / "cerb-chaos-XXXXXX").string();
    char *P = ::mkdtemp(Tmpl.data());
    if (!P)
      std::abort();
    Path = P;
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str(const char *Leaf) const { return (Path / Leaf).string(); }
};

struct SoakResult {
  uint64_t Ok = 0;
  uint64_t Failed = 0;
  uint64_t Mismatched = 0; ///< completed but with non-golden report bytes
};

/// Runs the full client fleet against \p SocketPath. When \p Golden is
/// non-null, every ok reply's report is compared byte-for-byte against it.
SoakResult runFleet(const std::string &SocketPath, uint64_t Seed,
                    const std::map<unsigned, std::string> *Golden,
                    std::map<unsigned, std::string> *CollectInto) {
  SoakResult R;
  std::mutex Mu; // guards R and CollectInto
  std::vector<std::thread> Fleet;
  for (unsigned Tid = 0; Tid < NumClients; ++Tid) {
    Fleet.emplace_back([&, Tid] {
      RetryPolicy RP;
      RP.MaxAttempts = 6;
      RP.BaseDelayMs = 2;
      RP.MaxDelayMs = 40;
      RP.TotalDeadlineMs = 10000;
      RP.CallTimeoutMs = 5000;
      RP.Seed = Seed ^ (Tid * 0x9e3779b97f4a7c15ull);
      auto C = Client::connect(SocketPath, -1, RP);
      for (unsigned I = 0; I < CallsPerClient; ++I) {
        unsigned SrcIdx = (Tid * CallsPerClient + I) % NumSources;
        if (!C) { // even the initial connect may be fault-injected
          C = Client::connect(SocketPath, -1, RP);
          if (!C) {
            std::lock_guard<std::mutex> L(Mu);
            ++R.Failed;
            continue;
          }
        }
        auto Resp =
            C->callRetryParsed(serializeEvalRequest(chaosRequest(SrcIdx)));
        std::lock_guard<std::mutex> L(Mu);
        if (!Resp || Resp->Status != "ok") {
          ++R.Failed;
          continue;
        }
        ++R.Ok;
        if (Golden) {
          auto It = Golden->find(SrcIdx);
          if (It == Golden->end() || It->second != Resp->Report)
            ++R.Mismatched;
        }
        if (CollectInto && !CollectInto->count(SrcIdx))
          (*CollectInto)[SrcIdx] = Resp->Report;
      }
    });
  }
  for (std::thread &T : Fleet)
    T.join();
  return R;
}

/// One batch-round request: same content as chaosRequest (so its report
/// bytes are comparable against the same golden), batch-unique id.
EvalRequest batchChaosRequest(unsigned SrcIdx, std::string Id) {
  EvalRequest Q = chaosRequest(SrcIdx);
  Q.Id = std::move(Id);
  return Q;
}

struct BatchSoakResult {
  uint64_t OkBatches = 0;
  uint64_t FailedBatches = 0;
  uint64_t Mismatched = 0; ///< completed reply with non-golden report bytes
  uint64_t IdErrors = 0;   ///< reply slot carrying the wrong request id
};

constexpr unsigned BatchRounds = 8;   ///< callBatch rounds per client
constexpr unsigned BatchSize = 8;     ///< requests per batch

/// The batch analogue of runFleet: NumClients clients, each issuing
/// BatchRounds pipelined 8-request batches. Pipeline depth rotates per
/// round so chunked and single-frame batches both meet the faults.
BatchSoakResult runBatchFleet(const std::string &SocketPath, uint64_t Seed,
                              const std::map<unsigned, std::string> *Golden,
                              std::map<unsigned, std::string> *CollectInto) {
  BatchSoakResult R;
  std::mutex Mu; // guards R and CollectInto
  std::vector<std::thread> Fleet;
  for (unsigned Tid = 0; Tid < NumClients; ++Tid) {
    Fleet.emplace_back([&, Tid] {
      RetryPolicy RP;
      RP.MaxAttempts = 6;
      RP.BaseDelayMs = 2;
      RP.MaxDelayMs = 40;
      RP.TotalDeadlineMs = 10000;
      RP.CallTimeoutMs = 5000;
      RP.Seed = Seed ^ (Tid * 0x9e3779b97f4a7c15ull);
      auto C = Client::connect(SocketPath, -1, RP);
      for (unsigned Round = 0; Round < BatchRounds; ++Round) {
        if (!C) { // even the initial connect may be fault-injected
          C = Client::connect(SocketPath, -1, RP);
          if (!C) {
            std::lock_guard<std::mutex> L(Mu);
            ++R.FailedBatches;
            continue;
          }
        }
        std::vector<EvalRequest> Reqs;
        std::vector<unsigned> SrcIdx;
        for (unsigned K = 0; K < BatchSize; ++K) {
          unsigned S = (Tid * BatchRounds * BatchSize + Round * BatchSize +
                        K) % NumSources;
          SrcIdx.push_back(S);
          Reqs.push_back(batchChaosRequest(
              S, "c" + std::to_string(Tid) + "-r" + std::to_string(Round) +
                     "-q" + std::to_string(K)));
        }
        BatchOptions BO;
        const unsigned Depths[] = {0, 1, 3, BatchSize};
        BO.PipelineDepth = Depths[Round % 4];
        auto Resp = C->callBatch(Reqs, BO);
        std::lock_guard<std::mutex> L(Mu);
        if (!Resp) {
          ++R.FailedBatches;
          // callBatch poisons its socket on a failed last attempt; make
          // the next round dial fresh.
          C = Client::connect(SocketPath, -1, RP);
          continue;
        }
        ++R.OkBatches;
        // A successful batch is complete by contract: every slot answered
        // exactly once, in request order, after any number of retries.
        for (unsigned K = 0; K < BatchSize; ++K) {
          if (Resp->Responses[K].Id != Reqs[K].Id ||
              Resp->Responses[K].Status != "ok") {
            ++R.IdErrors;
            continue;
          }
          if (Golden) {
            auto It = Golden->find(SrcIdx[K]);
            if (It == Golden->end() ||
                It->second != Resp->Responses[K].Report)
              ++R.Mismatched;
          }
          if (CollectInto && !CollectInto->count(SrcIdx[K]))
            (*CollectInto)[SrcIdx[K]] = Resp->Responses[K].Report;
        }
      }
    });
  }
  for (std::thread &T : Fleet)
    T.join();
  return R;
}

} // namespace

TEST(ServeChaos, SoakUnderSeededFaultSchedule) {
  const uint64_t Seed = envU64("CERB_CHAOS_SEED", 1);
  const uint64_t DeadlineMs = envU64("CERB_CHAOS_DEADLINE_MS", 75000);
  Watchdog Dog(DeadlineMs, Seed);

  const size_t FdsBefore = openFdCount();

  // Phase 1 — golden run, no faults: collect the canonical report bytes
  // for each distinct source. Memory-only cache so phase 2's disk faults
  // start from a cold store.
  std::map<unsigned, std::string> Golden;
  {
    TempDir T;
    DaemonConfig Cfg;
    Cfg.SocketPath = T.str("golden.sock");
    Cfg.Threads = 4;
    Cfg.MaxQueue = 64;
    Cfg.Cache.Dir.clear();
    Daemon D(std::move(Cfg));
    ASSERT_TRUE(static_cast<bool>(D.start()));
    SoakResult R = runFleet(T.str("golden.sock"), Seed, nullptr, &Golden);
    D.requestDrain();
    ASSERT_EQ(D.waitUntilDrained(), 0);
    ASSERT_EQ(R.Failed, 0u) << "fault-free phase must not drop requests";
    ASSERT_EQ(Golden.size(), NumSources);
  }

  // Phase 2 — same fleet, same request stream, faults armed everywhere.
  SoakResult R;
  DaemonSnapshot Snap;
  {
    TempDir T;
    DaemonConfig Cfg;
    Cfg.SocketPath = T.str("chaos.sock");
    Cfg.Threads = 4;
    Cfg.MaxQueue = 64;
    Cfg.MaxConns = 32;
    Cfg.IdleTimeoutMs = 2000;
    Cfg.ReadTimeoutMs = 2000;
    Cfg.Cache.Dir = T.str("cache");
    Cfg.Cache.MaxMemoryEntries = 4; // force disk-tier traffic under faults
    Daemon D(std::move(Cfg));
    ASSERT_TRUE(static_cast<bool>(D.start()));
    {
      fault::ScopedFaults Faults(Seed, chaosSchedule());
      R = runFleet(T.str("chaos.sock"), Seed, &Golden, nullptr);
      // Drain while still armed: shutdown must also survive the faults.
      D.requestDrain();
      ASSERT_EQ(D.waitUntilDrained(), 0)
          << "drain timed out with faults armed";
    }
    Snap = D.snapshot();
  }

  const uint64_t Total = uint64_t(NumClients) * CallsPerClient;
  EXPECT_EQ(R.Ok + R.Failed, Total);
  EXPECT_EQ(R.Mismatched, 0u)
      << "faults may cost requests, never corrupt them";
  // With 6 retry attempts against ~2% per-op fault rates, the vast
  // majority of calls must complete; a collapse here means retry or
  // recovery is broken, not bad luck (the schedule is deterministic).
  EXPECT_GE(R.Ok * 10, Total * 9)
      << "ok=" << R.Ok << " failed=" << R.Failed << " seed=" << Seed;
  EXPECT_EQ(Snap.LiveConns, 0u);

  // Descriptor accounting: the daemon, every client, and every torn
  // connection are gone — the fd table is exactly as we found it.
  const size_t FdsAfter = openFdCount();
  EXPECT_EQ(FdsBefore, FdsAfter)
      << "fd leak under faults (before=" << FdsBefore
      << " after=" << FdsAfter << " seed=" << Seed << ")";
}

TEST(ServeChaos, BatchRoundUnderSeededFaultSchedule) {
  // The batch op under the same 9-site schedule as the request soak: 8
  // clients, each firing 8-request pipelined batches. The extra surface
  // under test is the callBatch retry contract — a mid-stream tear must
  // resend only the missing ids, so a batch that completes has every id
  // answered exactly once (no duplicates, no drops) with fault-free bytes.
  const uint64_t Seed = envU64("CERB_CHAOS_SEED", 1);
  const uint64_t DeadlineMs = envU64("CERB_CHAOS_DEADLINE_MS", 75000);
  Watchdog Dog(DeadlineMs, Seed);

  const size_t FdsBefore = openFdCount();

  // Phase 1 — golden batches, no faults.
  std::map<unsigned, std::string> Golden;
  {
    TempDir T;
    DaemonConfig Cfg;
    Cfg.SocketPath = T.str("golden.sock");
    Cfg.Threads = 4;
    Cfg.MaxQueue = 64;
    Cfg.Cache.Dir.clear();
    Daemon D(std::move(Cfg));
    ASSERT_TRUE(static_cast<bool>(D.start()));
    BatchSoakResult G = runBatchFleet(T.str("golden.sock"), Seed, nullptr,
                                      &Golden);
    D.requestDrain();
    ASSERT_EQ(D.waitUntilDrained(), 0);
    ASSERT_EQ(G.FailedBatches, 0u) << "fault-free phase must not drop";
    ASSERT_EQ(G.IdErrors, 0u);
    ASSERT_EQ(Golden.size(), NumSources);
  }

  // Phase 2 — same batch stream, faults armed everywhere.
  BatchSoakResult R;
  DaemonSnapshot Snap;
  {
    TempDir T;
    DaemonConfig Cfg;
    Cfg.SocketPath = T.str("chaos.sock");
    Cfg.Threads = 4;
    Cfg.MaxQueue = 64;
    Cfg.MaxConns = 32;
    Cfg.IdleTimeoutMs = 2000;
    Cfg.ReadTimeoutMs = 2000;
    Cfg.Cache.Dir = T.str("cache");
    Cfg.Cache.MaxMemoryEntries = 4; // force disk-tier traffic under faults
    Daemon D(std::move(Cfg));
    ASSERT_TRUE(static_cast<bool>(D.start()));
    {
      fault::ScopedFaults Faults(Seed, chaosSchedule());
      R = runBatchFleet(T.str("chaos.sock"), Seed, &Golden, nullptr);
      D.requestDrain();
      ASSERT_EQ(D.waitUntilDrained(), 0)
          << "drain timed out with faults armed";
    }
    Snap = D.snapshot();
  }

  const uint64_t Total = uint64_t(NumClients) * BatchRounds;
  EXPECT_EQ(R.OkBatches + R.FailedBatches, Total);
  EXPECT_EQ(R.IdErrors, 0u)
      << "a completed batch must answer every id exactly once";
  EXPECT_EQ(R.Mismatched, 0u)
      << "faults may cost batches, never corrupt completed replies";
  // Batches retry as a unit (only missing ids resent), so completion
  // stays high under the same fault rates as the request soak.
  EXPECT_GE(R.OkBatches * 10, Total * 9)
      << "ok=" << R.OkBatches << " failed=" << R.FailedBatches
      << " seed=" << Seed;
  EXPECT_EQ(Snap.LiveConns, 0u);

  const size_t FdsAfter = openFdCount();
  EXPECT_EQ(FdsBefore, FdsAfter)
      << "fd leak under faults (before=" << FdsBefore
      << " after=" << FdsAfter << " seed=" << Seed << ")";
}

TEST(ServeChaos, SoakIsDeterministicPerSeedSite) {
  // The schedule itself must be reproducible: same seed, same site, same
  // hit index => same decision, independent of thread interleaving. (The
  // soak above relies on this for replayability; verify it directly.)
  auto Schedule = chaosSchedule();
  std::vector<int> First, Second;
  for (int Round = 0; Round < 2; ++Round) {
    fault::ScopedFaults F(42, Schedule);
    std::vector<int> &Out = Round ? Second : First;
    for (int I = 0; I < 2000; ++I)
      Out.push_back(fault::shouldFail("socket.read") ? 1 : 0);
  }
  EXPECT_EQ(First, Second);
}
