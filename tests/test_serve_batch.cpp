//===-- tests/test_serve_batch.cpp - batch op + compile cache -------------===//
//
// Locks down the server-side suite batching stack from the bottom up:
//
//  - exec::CompileCache as a *daemon-resident* LRU: byte-budget eviction,
//    frontend-options keying, deterministic counter accounting, and
//    single-flight concurrency (one elaboration per key, ever).
//  - the `batch` wire format: envelope-shared defaults, per-request
//    overrides, and pre-allocation rejection of malformed documents.
//  - batch determinism goldens: the reply bytes of a 32-request batch are
//    identical for any daemon thread count, any request order, any client
//    pipeline depth, and identical to 32 sequential `eval` calls. Golden
//    fingerprints live in tests/goldens/serve_batch.golden; regenerate with
//      CERB_UPDATE_GOLDENS=1 ./build/tests/cerb_serve_batch_tests
//  - whole-batch admission control and the callBatch retry machinery
//    (idempotent resend of only the missing ids).
//
//===----------------------------------------------------------------------===//

#include "defacto/Suite.h"
#include "exec/CompileCache.h"
#include "exec/Driver.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "serve/Protocol.h"
#include "support/FaultInjector.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

using namespace cerb;
using namespace cerb::serve;

namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path Path;
  TempDir() {
    std::string Tmpl =
        (fs::temp_directory_path() / "cerb-batch-test-XXXXXX").string();
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

struct DaemonFixture {
  TempDir T;
  std::unique_ptr<Daemon> D;

  explicit DaemonFixture(unsigned Threads = 2, uint64_t MaxQueue = 64,
                         uint64_t CompileCacheMb = 256) {
    DaemonConfig Cfg;
    Cfg.SocketPath = T.str("d.sock");
    Cfg.Threads = Threads;
    Cfg.MaxQueue = MaxQueue;
    Cfg.CompileCacheMb = CompileCacheMb;
    D = std::make_unique<Daemon>(std::move(Cfg));
  }

  Client client(RetryPolicy RP = RetryPolicy()) {
    auto C = Client::connect(T.str("d.sock"), -1, RP);
    EXPECT_TRUE(static_cast<bool>(C));
    return std::move(*C);
  }

  void drain() {
    D->requestDrain();
    EXPECT_EQ(D->waitUntilDrained(), 0);
  }
};

/// Four distinct tiny programs; a 32-request suite shares each across 8
/// seeds, so the compile cache sees 4 misses and 28 hits per cold batch.
std::string batchSource(unsigned I) {
  return "int main(void) { return " + std::to_string(I % 4) + "; }\n";
}

/// The canonical 32-request suite every determinism test reuses.
std::vector<EvalRequest> suite32() {
  std::vector<EvalRequest> Reqs;
  for (unsigned I = 0; I < 32; ++I) {
    EvalRequest Q;
    Q.Id = "q" + std::to_string(I);
    Q.Name = "batch-t" + std::to_string(I % 4);
    Q.Source = batchSource(I);
    Q.Policies = {mem::MemoryPolicy::defacto(), mem::MemoryPolicy::strictIso()};
    Q.ExecMode = oracle::Mode::Random;
    Q.Seed = 1 + I;
    Reqs.push_back(std::move(Q));
  }
  return Reqs;
}

uint64_t fnv64(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

/// The charge a budgeted cache takes for \p Src, read from stats().Bytes
/// after one insert: budgets in these tests are sized from it.
uint64_t measuredCharge(const std::string &Src) {
  exec::CompileCache Probe(std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(Probe.get(Src)->ok());
  return Probe.stats().Bytes;
}

/// Core nodes of a tree (small test programs: recursion is fine here).
uint64_t coreNodes(const core::Expr &E) {
  uint64_t N = 1;
  for (const core::Expr *K : E.kids())
    N += coreNodes(*K);
  for (const auto &[Pat, Body] : E.branches())
    N += coreNodes(*Body);
  return N;
}

std::string hex64(uint64_t V) {
  static const char *Digits = "0123456789abcdef";
  std::string S(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    S[I] = Digits[V & 0xF];
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// CompileCache as a daemon-resident LRU
//===----------------------------------------------------------------------===//

TEST(CompileCacheUnit, FrontendOptionsAreKeyMaterial) {
  exec::CompileCache C;
  std::string Src = batchSource(0);
  exec::FrontendOptions Plain;          // CoreSimplify on
  exec::FrontendOptions NoSimp;
  NoSimp.CoreSimplify = false;
  ASSERT_NE(Plain.fingerprint(), NoSimp.fingerprint());

  bool Hit = true;
  auto A = C.get(Src, Plain, &Hit);
  ASSERT_TRUE(A && A->ok());
  EXPECT_FALSE(Hit);
  auto B = C.get(Src, NoSimp, &Hit);
  ASSERT_TRUE(B && B->ok());
  EXPECT_FALSE(Hit) << "same source + different options must miss";
  EXPECT_NE(A.get(), B.get()) << "distinct keys compile distinct units";
  // The knob is real: the no-simplify unit carries zero rewrites.
  EXPECT_EQ(B->Rewrites.PureLetsInlined + B->Rewrites.ConstIfsFolded +
                B->Rewrites.UnseqSingletons + B->Rewrites.SkipSeqsDropped,
            0u);

  EXPECT_EQ(C.get(Src, Plain, &Hit).get(), A.get());
  EXPECT_TRUE(Hit);
  EXPECT_EQ(C.get(Src, NoSimp, &Hit).get(), B.get());
  EXPECT_TRUE(Hit);
  EXPECT_EQ(C.misses(), 2u);
  EXPECT_EQ(C.hits(), 2u);
}

TEST(CompileCacheUnit, LruEvictionRespectsTheByteBudget) {
  std::string S0 = batchSource(0), S1 = batchSource(1), S2 = batchSource(2);
  const uint64_t One = measuredCharge(S0);

  // Budget for exactly two entries: the third insert evicts the LRU.
  exec::CompileCache C(2 * One);
  ASSERT_TRUE(C.get(S0)->ok());
  ASSERT_TRUE(C.get(S1)->ok());
  EXPECT_EQ(C.stats().Entries, 2u);
  EXPECT_EQ(C.stats().Bytes, 2 * One) << "the programs are charged alike";

  ASSERT_TRUE(C.get(S0)->ok()); // S0 is now MRU; S1 is the victim
  ASSERT_TRUE(C.get(S2)->ok());
  EXPECT_EQ(C.evictions(), 1u);
  EXPECT_EQ(C.stats().Entries, 2u);
  EXPECT_LE(C.stats().Bytes, 2 * One);

  bool Hit = false;
  C.get(S0, &Hit);
  EXPECT_TRUE(Hit) << "the MRU entry must have survived";
  C.get(S1, &Hit);
  EXPECT_FALSE(Hit) << "the LRU entry must have been evicted";
  EXPECT_EQ(C.evictions(), 2u) << "recompiling S1 evicts again at budget";
}

TEST(CompileCacheUnit, CounterDeltasMatchAForcedPattern) {
  std::string S0 = batchSource(0), S1 = batchSource(1), S2 = batchSource(2);
  exec::CompileCache C(2 * measuredCharge(S0));
  // Forced pattern: M M H H M(evict) H M(evict) — counters must track it
  // exactly (a charge is counted from the program, the same every run).
  C.get(S0);              // miss
  C.get(S1);              // miss
  C.get(S0);              // hit
  C.get(S1);              // hit
  C.get(S2);              // miss, evicts S0 (LRU)
  C.get(S2);              // hit
  C.get(S0);              // miss again, evicts S1
  exec::CompileCacheStats S = C.stats();
  EXPECT_EQ(S.Misses, 4u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Evictions, 2u);
  EXPECT_EQ(S.Entries, 2u);
}

TEST(CompileCacheUnit, ChargeCoversTheCompiledProgram) {
  // A budgeted cache charges what an entry holds: at least one Expr per
  // Core node of its program, on top of the source.
  const std::string Src = "int f(int x) { return x * 2; }\n"
                          "int main(void) {\n"
                          "  int s = 0;\n"
                          "  for (int i = 0; i < 4; i++)\n"
                          "    s += f(i);\n"
                          "  return s;\n"
                          "}\n";
  exec::CompileCache C(std::numeric_limits<uint64_t>::max());
  auto U = C.get(Src);
  ASSERT_TRUE(U->ok()) << U->Error;
  uint64_t Nodes = 0;
  for (const auto &[Id, Proc] : U->Prog->Procs)
    Nodes += coreNodes(*Proc.Body);
  for (const core::CoreGlobal &G : U->Prog->Globals)
    if (G.Init)
      Nodes += coreNodes(*G.Init);
  ASSERT_GT(Nodes, 20u);
  EXPECT_GE(C.stats().Bytes, exec::CompileCache::entryCharge(Src.size()) +
                                 sizeof(core::Expr) * Nodes);

  // An unbudgeted cache (the oracle's, per batch) never walks a program.
  exec::CompileCache Unbounded;
  ASSERT_TRUE(Unbounded.get(Src)->ok());
  EXPECT_EQ(Unbounded.stats().Bytes,
            exec::CompileCache::entryCharge(Src.size()));
}

TEST(CompileCacheUnit, ChargeCoversAZeroFilledArray) {
  // A braced initialiser pre-fills its object with one zero value, a Core
  // Value per element in one heap box, from a source of a few dozen bytes.
  const std::string Src = "int main(void) {\n"
                          "  char a[100000] = {0};\n"
                          "  return a[99999];\n"
                          "}\n";
  exec::CompileCache C(std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(C.get(Src)->ok());
  EXPECT_GE(C.stats().Bytes, 100000 * sizeof(core::Value));
}

TEST(CompileCacheUnit, ChargeCoversTheTypeTable) {
  // Each prototype interns a pointer, an array and a function type of its
  // own in the program's type table, a few hundred KB in all, and the
  // charge counts that table.
  constexpr unsigned N = 2000;
  std::string Src;
  for (unsigned I = 0; I < N; ++I)
    Src += "int f" + std::to_string(I) + "(char (*p)[" +
           std::to_string(I + 1) + "]);\n";
  Src += "int main(void) { return 0; }\n";
  exec::CompileCache C(std::numeric_limits<uint64_t>::max());
  auto U = C.get(Src);
  ASSERT_TRUE(U->ok()) << U->Error;
  uint64_t Table = U->Prog->Tags.typeBytes();
  EXPECT_GE(Table, 3 * N * sizeof(ail::CTypeNode));
  EXPECT_GE(C.stats().Bytes,
            exec::CompileCache::entryCharge(Src.size()) + Table);
}

TEST(CompileCacheUnit, OneProgramRunsOnManyThreadsAtOnce) {
  // Jobs share a cached program read-only: evaluating it reads the types
  // its table interned while compiling and never makes or writes one.
  const std::string Src = R"(
struct pt { int x; int *p; };
int twice(int v) { return 2 * v; }
int main(void) {
  int a[4] = {1, 2, 3, 4};
  struct pt s = {5, &a[2]};
  struct pt copy = s;
  int (*f)(int) = twice;
  int (*row)[4] = &a;
  return f(*copy.p) + (*row)[3] + copy.x + (int)sizeof(struct pt);
}
)";
  exec::CompileCache C;
  auto U = C.get(Src);
  ASSERT_TRUE(U->ok()) << U->Error;
  const std::vector<mem::MemoryPolicy> Policies =
      mem::MemoryPolicy::allPresets();
  constexpr unsigned Threads = 4, Rounds = 8;
  std::vector<std::vector<std::string>> Seen(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R < Rounds; ++R) {
        exec::RunOptions Opts;
        Opts.Policy = Policies[(T + R) % Policies.size()];
        Seen[T].push_back(Opts.Policy.Name + " " +
                          exec::runOnce(*U->Prog, Opts).str());
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned T = 0; T < Threads; ++T)
    for (unsigned R = 0; R < Rounds; ++R) {
      exec::RunOptions Opts;
      Opts.Policy = Policies[(T + R) % Policies.size()];
      EXPECT_EQ(Seen[T][R], Opts.Policy.Name + " " +
                                exec::runOnce(*U->Prog, Opts).str());
    }
  exec::RunOptions Defacto;
  EXPECT_EQ(exec::runOnce(*U->Prog, Defacto).ExitCode, 6 + 4 + 5 + 16);
}

TEST(CompileCacheUnit, ConcurrentMissesEvictOnlyPublishedEntries) {
  // Eight threads cycle through six sources under a two-entry budget, so
  // most lookups miss and evict while other threads' entries are in
  // flight or waited on. Evicting one of those would leave its compiling
  // thread or its waiters holding a dead slot: a sanitizer report, or a
  // unit compiled from another source.
  constexpr unsigned Sources = 6, Threads = 8, Rounds = 12;
  std::vector<std::string> Src;
  for (unsigned I = 0; I < Sources + 1; ++I)
    Src.push_back(batchSource(I) + "// " + std::to_string(I) + "\n");
  const uint64_t Budget = 2 * measuredCharge(Src[0]);
  exec::CompileCache C(Budget);
  std::vector<unsigned> Wrong(Threads, 0);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R < Rounds; ++R) {
        const std::string &S = Src[(T / 2 + R) % Sources];
        auto U = C.get(S);
        Wrong[T] += !U || !U->ok() ||
                    U->SourceHash != exec::CompileCache::hashSource(S);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_EQ(Wrong[T], 0u) << "thread " << T;
  exec::CompileCacheStats S = C.stats();
  EXPECT_EQ(S.Hits + S.Misses, uint64_t{Threads} * Rounds);
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_EQ(S.Misses - S.Evictions, S.Entries)
      << "every miss made one entry and every eviction removed one";

  // With nothing pinned, the next miss brings the cache within budget.
  ASSERT_TRUE(C.get(Src[Sources])->ok());
  EXPECT_LE(C.stats().Bytes, Budget);
  EXPECT_LE(C.stats().Entries, 2u);
}

TEST(CompileCacheUnit, UnboundedCacheNeverEvicts) {
  exec::CompileCache C; // budget 0 = unbounded
  for (unsigned I = 0; I < 16; ++I)
    ASSERT_TRUE(C.get("int main(void) { return " + std::to_string(I) +
                      "; }\n")
                    ->ok());
  EXPECT_EQ(C.evictions(), 0u);
  EXPECT_EQ(C.stats().Entries, 16u);
}

TEST(CompileCacheUnit, ConcurrentSameKeyCompilesExactlyOnce) {
  exec::CompileCache C;
  const std::string Src = batchSource(3);
  constexpr unsigned N = 8;
  std::vector<std::shared_ptr<const exec::CompiledUnit>> Units(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&, I] { Units[I] = C.get(Src); });
  for (std::thread &T : Threads)
    T.join();
  // Single-flight: whatever the interleaving, one miss and one unit —
  // every other thread either waited on the in-flight slot or hit the
  // published entry. No thundering herd of elaborations.
  EXPECT_EQ(C.misses(), 1u);
  EXPECT_EQ(C.hits(), N - 1);
  for (unsigned I = 1; I < N; ++I)
    EXPECT_EQ(Units[I].get(), Units[0].get());
  ASSERT_TRUE(Units[0] && Units[0]->ok());
}

//===----------------------------------------------------------------------===//
// Batch wire format
//===----------------------------------------------------------------------===//

TEST(BatchProtocol, SharedSourceAndOverridesRoundTrip) {
  std::vector<EvalRequest> Reqs;
  for (unsigned I = 0; I < 3; ++I) {
    EvalRequest Q;
    Q.Id = "r" + std::to_string(I);
    Q.Name = "shared";
    Q.Source = batchSource(0); // all equal => hoisted onto the envelope
    Q.Policies = {mem::MemoryPolicy::defacto()};
    Q.Seed = 10 + I;
    Reqs.push_back(std::move(Q));
  }
  Reqs[2].Policies = {mem::MemoryPolicy::cheri()};
  Reqs[2].ExecMode = oracle::Mode::Once;
  Reqs[2].Frontend.CoreSimplify = false;
  Reqs[2].CheckExpect = true;

  std::string Frame = serializeBatchRequest("batch-7", Reqs);
  // The shared source appears exactly once on the wire.
  size_t First = Frame.find("int main");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Frame.find("int main", First + 1), std::string::npos);

  auto R = parseRequest(Frame);
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().Message;
  ASSERT_EQ(R->Kind, Op::Batch);
  EXPECT_EQ(R->Batch.Id, "batch-7");
  ASSERT_EQ(R->Batch.Requests.size(), 3u);
  for (unsigned I = 0; I < 3; ++I) {
    EXPECT_EQ(R->Batch.Requests[I].Id, Reqs[I].Id);
    EXPECT_EQ(R->Batch.Requests[I].Source, Reqs[I].Source);
    EXPECT_EQ(R->Batch.Requests[I].Seed, Reqs[I].Seed);
    EXPECT_EQ(cacheKeyMaterial(R->Batch.Requests[I]),
              cacheKeyMaterial(Reqs[I]))
        << "request " << I << " must key identically after the round trip";
  }
  EXPECT_EQ(R->Batch.Requests[2].Policies[0].Name, "cheri");
  EXPECT_EQ(R->Batch.Requests[2].ExecMode, oracle::Mode::Once);
  EXPECT_FALSE(R->Batch.Requests[2].Frontend.CoreSimplify);
  EXPECT_TRUE(R->Batch.Requests[2].CheckExpect);
}

TEST(BatchProtocol, MalformedBatchesAreRejectedBeforeAllocation) {
  auto Reject = [](const std::string &Frame, const char *Needle) {
    auto R = parseRequest(Frame);
    ASSERT_FALSE(static_cast<bool>(R)) << Frame;
    EXPECT_NE(R.error().Message.find(Needle), std::string::npos)
        << R.error().Message;
  };
  const std::string Head = "{\"schema\": \"cerb-serve/1\", \"op\": \"batch\"";
  Reject(Head + "}", "requests");
  Reject(Head + ", \"requests\": []}", "zero requests");
  Reject(Head + ", \"source\": \"int main(void){}\", \"requests\": "
                "[{\"id\": \"a\"}, {\"id\": \"a\"}]}",
         "duplicate");
  Reject(Head + ", \"requests\": [{\"id\": \"a\"}]}", "no \"source\"");
  Reject(Head + ", \"source\": \"x\", \"requests\": [{\"id\": \"\"}]}",
         "non-empty");
  Reject(Head + ", \"source\": \"x\", \"requests\": [\"not-an-object\"]}",
         "objects");

  std::string Oversize = Head + ", \"source\": \"x\", \"requests\": [";
  for (size_t I = 0; I <= MaxBatchRequests; ++I) {
    if (I)
      Oversize += ", ";
    Oversize += "{\"id\": \"q" + std::to_string(I) + "\"}";
  }
  Oversize += "]}";
  Reject(Oversize, "cap");
}

TEST(BatchProtocol, BatchDoneFrameRoundTrips) {
  auto P = parseResponse(batchDoneResponse("b-1", 32, 30));
  ASSERT_TRUE(static_cast<bool>(P));
  EXPECT_EQ(P->Id, "b-1");
  EXPECT_EQ(P->Status, "ok");
  EXPECT_TRUE(P->BatchDone);
  EXPECT_EQ(P->BatchRequested, 32u);
  EXPECT_EQ(P->BatchCompleted, 30u);
  // Ordinary responses are not batch_done frames.
  auto E = parseResponse(okSimpleResponse("x", nullptr, ""));
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_FALSE(E->BatchDone);
}

TEST(BatchProtocol, CheckExpectIsCacheKeyMaterial) {
  EvalRequest Q;
  Q.Name = "t";
  Q.Source = batchSource(0);
  Q.Policies = {mem::MemoryPolicy::defacto()};
  std::string K0 = cacheKeyMaterial(Q);
  Q.CheckExpect = true;
  EXPECT_NE(cacheKeyMaterial(Q), K0)
      << "verdicts change the report bytes, so check_expect must key";
  Q.CheckExpect = false;
  Q.Frontend.CoreSimplify = false;
  EXPECT_NE(cacheKeyMaterial(Q), K0) << "frontend options must key";
}

//===----------------------------------------------------------------------===//
// Batch determinism: one matrix, one golden
//===----------------------------------------------------------------------===//

namespace {

std::string goldenPath() {
  return std::string(CERB_SOURCE_DIR) + "/tests/goldens/serve_batch.golden";
}

/// Runs the canonical 32-request suite as one callBatch and returns the
/// raw reply frame per request id.
std::map<std::string, std::string> batchReplies(unsigned Threads,
                                                unsigned Depth,
                                                bool Shuffle) {
  DaemonFixture F(Threads);
  EXPECT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();
  std::vector<EvalRequest> Reqs = suite32();
  if (Shuffle) { // deterministic permutation, distinct from identity
    std::reverse(Reqs.begin(), Reqs.end());
    std::rotate(Reqs.begin(), Reqs.begin() + 7, Reqs.end());
  }
  BatchOptions BO;
  BO.PipelineDepth = Depth;
  auto R = C.callBatch(Reqs, BO);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.error().Message);
  std::map<std::string, std::string> ById;
  if (R)
    for (size_t I = 0; I < Reqs.size(); ++I) {
      EXPECT_EQ(R->Responses[I].Id, Reqs[I].Id);
      EXPECT_EQ(R->Responses[I].Status, "ok");
      ById[Reqs[I].Id] = R->Raw[I];
    }
  F.drain();
  return ById;
}

} // namespace

TEST(BatchDeterminism, RepliesSurviveJobsOrderDepthAndMatchSequentialEval) {
  // Baseline: 32 sequential eval calls against a single-threaded daemon.
  std::map<std::string, std::string> Sequential;
  {
    DaemonFixture F(/*Threads=*/1);
    ASSERT_TRUE(static_cast<bool>(F.D->start()));
    Client C = F.client();
    for (const EvalRequest &Q : suite32()) {
      auto Raw = C.call(serializeEvalRequest(Q));
      ASSERT_TRUE(static_cast<bool>(Raw));
      auto P = parseResponse(*Raw);
      ASSERT_TRUE(static_cast<bool>(P));
      ASSERT_EQ(P->Status, "ok") << P->Error;
      Sequential[Q.Id] = *Raw;
    }
    F.drain();
    // The shared-source suite exercised the compile cache: 32 requests x 2
    // policy jobs = 64 lookups over 4 distinct sources, everything reused.
    exec::CompileCacheStats CS = F.D->compileCache().stats();
    EXPECT_EQ(CS.Misses, 4u);
    EXPECT_EQ(CS.Hits, 60u);
  }
  ASSERT_EQ(Sequential.size(), 32u);

  // The matrix: every cell must reproduce the sequential bytes exactly.
  struct Cell {
    unsigned Threads, Depth;
    bool Shuffle;
    const char *What;
  };
  const Cell Matrix[] = {
      {1, 0, false, "jobs=1 one frame"},
      {4, 0, false, "jobs=4 one frame"},
      {4, 1, false, "jobs=4 depth=1 (request-per-frame pipeline)"},
      {2, 5, false, "jobs=2 depth=5 (uneven chunks)"},
      {4, 0, true, "jobs=4 shuffled order"},
      {1, 3, true, "jobs=1 depth=3 shuffled"},
  };
  for (const Cell &M : Matrix) {
    auto Replies = batchReplies(M.Threads, M.Depth, M.Shuffle);
    ASSERT_EQ(Replies.size(), 32u) << M.What;
    for (const auto &[Id, Frame] : Sequential)
      EXPECT_EQ(Replies.at(Id), Frame)
          << M.What << ": request " << Id
          << " must be byte-identical to its sequential eval reply";
  }

  // Golden gate: the per-id reply fingerprints are also pinned across
  // sessions, so semantics or serialization drift cannot hide behind the
  // internal-consistency checks above.
  std::map<std::string, std::string> Actual;
  for (const auto &[Id, Frame] : Sequential)
    Actual[Id] = hex64(fnv64(Frame));

  if (std::getenv("CERB_UPDATE_GOLDENS")) {
    std::ofstream Out(goldenPath(), std::ios::trunc);
    Out << "# Per-request FNV-1a fingerprints of cerb-serve/1 batch reply "
           "frames\n"
        << "# for the canonical 32-request suite (tests/test_serve_batch"
           ".cpp).\n"
        << "# Regenerate: CERB_UPDATE_GOLDENS=1 "
           "./build/tests/cerb_serve_batch_tests\n";
    for (const auto &[Id, Fp] : Actual)
      Out << Id << " " << Fp << "\n";
    SUCCEED() << "goldens regenerated";
    return;
  }

  std::ifstream In(goldenPath());
  ASSERT_TRUE(In.good()) << "missing " << goldenPath()
                         << " (regenerate: CERB_UPDATE_GOLDENS=1 "
                            "./build/tests/cerb_serve_batch_tests)";
  std::map<std::string, std::string> Expected;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Id, Fp;
    LS >> Id >> Fp;
    Expected[Id] = Fp;
  }
  EXPECT_EQ(Actual, Expected)
      << "batch reply bytes drifted from the golden fingerprints "
         "(intentional? CERB_UPDATE_GOLDENS=1)";
}

TEST(BatchDeterminism, WarmRepeatIsByteIdentical) {
  DaemonFixture F(/*Threads=*/4);
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();
  std::vector<EvalRequest> Reqs = suite32();
  auto Cold = C.callBatch(Reqs);
  ASSERT_TRUE(static_cast<bool>(Cold)) << Cold.error().Message;
  auto Warm = C.callBatch(Reqs);
  ASSERT_TRUE(static_cast<bool>(Warm)) << Warm.error().Message;
  EXPECT_EQ(Cold->Raw, Warm->Raw)
      << "a result-cache hit must replay the stored bytes";
  // Warm round: every request was answered from the result cache, so the
  // compile cache saw no new work.
  CacheStats RS = F.D->cache().stats();
  EXPECT_EQ(RS.Misses, 32u);
  EXPECT_EQ(RS.MemoryHits, 32u);
  // Cold already did all the compile-cache traffic there will ever be: 32
  // requests x 2 policy jobs = 64 lookups. Warm adds zero.
  exec::CompileCacheStats CS = F.D->compileCache().stats();
  EXPECT_EQ(CS.Misses + CS.Hits, 64u)
      << "a result-cache hit must not touch the compile cache";
  F.drain();
}

//===----------------------------------------------------------------------===//
// Admission, fan-out accounting, and retries
//===----------------------------------------------------------------------===//

TEST(BatchDaemon, WholeBatchAdmissionIsAllOrNothing) {
  DaemonFixture F(/*Threads=*/2, /*MaxQueue=*/8);
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();

  // 9 requests against an 8-slot queue: one `overloaded` frame for the
  // whole batch, no partial admission, nothing left in flight.
  std::vector<EvalRequest> Reqs;
  for (unsigned I = 0; I < 9; ++I) {
    EvalRequest Q;
    Q.Id = "o" + std::to_string(I);
    Q.Source = batchSource(I);
    Q.Policies = {mem::MemoryPolicy::defacto()};
    Reqs.push_back(std::move(Q));
  }
  auto Raw = C.call(serializeBatchRequest("big", Reqs));
  ASSERT_TRUE(static_cast<bool>(Raw));
  auto P = parseResponse(*Raw);
  ASSERT_TRUE(static_cast<bool>(P));
  EXPECT_EQ(P->Status, "overloaded");
  EXPECT_EQ(P->Id, "big");
  EXPECT_EQ(F.D->snapshot().Overloaded, 1u)
      << "one rejection event for the whole batch, not nine";
  EXPECT_EQ(F.D->snapshot().InFlight, 0u);

  // An 8-request batch fits exactly.
  Reqs.pop_back();
  auto Ok = C.callBatch(Reqs);
  ASSERT_TRUE(static_cast<bool>(Ok)) << Ok.error().Message;
  EXPECT_EQ(F.D->snapshot().Admitted, 8u);
  F.drain();
}

TEST(BatchDaemon, BatchDoneTerminatesTheReplyStream) {
  // Drive the wire by hand: one batch frame in, N eval frames out in
  // completion order, then exactly one batch_done terminator — last on the
  // stream, carrying the batch id and the requested/completed tally.
  DaemonFixture F(/*Threads=*/4);
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  auto Sock = net::connectUnix(F.T.str("d.sock"));
  ASSERT_TRUE(static_cast<bool>(Sock));
  std::vector<EvalRequest> Reqs = suite32();
  Reqs.resize(4);
  ASSERT_TRUE(net::writeFrame(Sock->get(),
                              serializeBatchRequest("done-check", Reqs)));

  std::vector<std::string> SeenIds;
  bool SawDone = false;
  for (unsigned Frames = 0; Frames < 5; ++Frames) {
    std::string Frame;
    ASSERT_EQ(net::readFrame(Sock->get(), Frame), 1);
    auto P = parseResponse(Frame);
    ASSERT_TRUE(static_cast<bool>(P));
    ASSERT_FALSE(SawDone) << "no frame may follow batch_done";
    if (P->BatchDone) {
      SawDone = true;
      EXPECT_EQ(P->Id, "done-check");
      EXPECT_EQ(P->BatchRequested, 4u);
      EXPECT_EQ(P->BatchCompleted, 4u);
      continue;
    }
    EXPECT_EQ(P->Status, "ok") << P->Error;
    SeenIds.push_back(P->Id);
  }
  EXPECT_TRUE(SawDone);
  std::sort(SeenIds.begin(), SeenIds.end());
  EXPECT_EQ(SeenIds, (std::vector<std::string>{"q0", "q1", "q2", "q3"}))
      << "each request id must be answered exactly once";
  Sock->reset();
  F.drain();
}

TEST(BatchClient, RejectsBadIdSetsClientSide) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();
  std::vector<EvalRequest> Reqs = suite32();
  Reqs[5].Id = Reqs[4].Id;
  auto Dup = C.callBatch(Reqs);
  ASSERT_FALSE(static_cast<bool>(Dup));
  EXPECT_NE(Dup.error().Message.find("duplicate"), std::string::npos);
  Reqs = suite32();
  Reqs[0].Id.clear();
  auto Empty = C.callBatch(Reqs);
  ASSERT_FALSE(static_cast<bool>(Empty));
  EXPECT_NE(Empty.error().Message.find("empty id"), std::string::npos);
  EXPECT_FALSE(static_cast<bool>(C.callBatch({})));
  F.drain();
}

TEST(BatchClient, RetryableRejectionExhaustsAttemptsCleanly) {
  // A zero-slot queue rejects every batch as `overloaded` (retryable):
  // callBatch must burn its attempts and surface the status, not hang or
  // mislabel it terminal.
  DaemonFixture F(/*Threads=*/1, /*MaxQueue=*/0);
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  RetryPolicy RP;
  RP.MaxAttempts = 3;
  RP.BaseDelayMs = 1;
  RP.MaxDelayMs = 2;
  Client C = F.client(RP);
  std::vector<EvalRequest> Reqs = suite32();
  Reqs.resize(2);
  auto R = C.callBatch(Reqs);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().Message.find("overloaded"), std::string::npos)
      << R.error().Message;
  EXPECT_NE(R.error().Message.find("3 attempts"), std::string::npos)
      << R.error().Message;
  F.drain();
}

TEST(BatchClient, TornStreamRetriesOnlyTheMissingIds) {
  // Tear the reply stream once, mid-batch, with a deterministic one-shot
  // read fault. The retry must resend only the ids that never arrived and
  // the final result must be complete and byte-identical to a fault-free
  // run. (The fault site is process-wide, so the shot may land on either
  // side of the socket — both paths must funnel into the same retry.)
  std::vector<EvalRequest> Reqs = suite32();
  Reqs.resize(8);

  std::map<std::string, std::string> Golden;
  {
    DaemonFixture F;
    ASSERT_TRUE(static_cast<bool>(F.D->start()));
    Client C = F.client();
    auto R = C.callBatch(Reqs);
    ASSERT_TRUE(static_cast<bool>(R)) << R.error().Message;
    for (size_t I = 0; I < Reqs.size(); ++I)
      Golden[Reqs[I].Id] = R->Raw[I];
    F.drain();
  }

  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  RetryPolicy RP;
  RP.MaxAttempts = 4;
  RP.BaseDelayMs = 1;
  RP.MaxDelayMs = 4;
  RP.CallTimeoutMs = 5000;
  Client C = F.client(RP);
  {
    fault::FaultSpec S;
    S.Site = "socket.read";
    S.Nth = 6; // somewhere inside the reply stream
    S.MaxShots = 1;
    S.Err = ECONNRESET;
    fault::ScopedFaults Faults(7, {S});
    auto R = C.callBatch(Reqs);
    ASSERT_TRUE(static_cast<bool>(R)) << R.error().Message;
    for (size_t I = 0; I < Reqs.size(); ++I) {
      EXPECT_EQ(R->Responses[I].Id, Reqs[I].Id)
          << "ids must complete exactly once, in request order";
      EXPECT_EQ(R->Raw[I], Golden.at(Reqs[I].Id))
          << "a fault-retried reply must still be byte-identical";
    }
  }
  F.drain();
}

TEST(BatchDaemon, StatsExposeCompileCacheCounters) {
  DaemonFixture F(/*Threads=*/2, /*MaxQueue=*/64, /*CompileCacheMb=*/1);
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();
  auto R = C.callBatch(suite32());
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().Message;

  auto Raw = C.call(serializeSimpleRequest(Op::Stats, "s"));
  ASSERT_TRUE(static_cast<bool>(Raw));
  auto Doc = json::parse(*Raw);
  ASSERT_TRUE(Doc.has_value());
  const json::Value *CC = Doc->get("stats")->get("compile_cache");
  ASSERT_NE(CC, nullptr);
  EXPECT_EQ(CC->get("misses")->asU64(), 4u);
  EXPECT_EQ(CC->get("hits")->asU64(), 60u);
  EXPECT_EQ(CC->get("budget_bytes")->asU64(), 1024u * 1024u);
  EXPECT_EQ(CC->get("evictions")->asU64(), 0u)
      << "4 tiny sources sit far under a 1 MiB budget";
  EXPECT_EQ(CC->get("entries")->asU64(), 4u);
  EXPECT_GT(CC->get("bytes")->asU64(), 0u);
  F.drain();
}

TEST(BatchDaemon, CompileCacheBudgetPastSixtyFourBitsIsRefused) {
  // 2^44 MiB is 2^64 bytes: the byte budget would wrap to 0, unbounded.
  DaemonFixture F(/*Threads=*/1, /*MaxQueue=*/8,
                  /*CompileCacheMb=*/uint64_t{1} << 44);
  auto S = F.D->start();
  ASSERT_FALSE(static_cast<bool>(S));
  EXPECT_NE(S.error().str().find("overflows"), std::string::npos)
      << S.error().str();
}

TEST(BatchDaemon, CompileCacheStaysWithinItsBudget) {
  // 100 distinct suite sources against a 1 MiB budget: charged for the
  // programs they hold they cannot all stay, and once the batch is done
  // the resident charge is within the budget.
  DaemonFixture F(/*Threads=*/2, /*MaxQueue=*/128, /*CompileCacheMb=*/1);
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();
  const std::vector<defacto::TestCase> &Suite = defacto::testSuite();
  std::vector<EvalRequest> Reqs;
  for (unsigned I = 0; I < 100; ++I) {
    const defacto::TestCase &T = Suite[I % Suite.size()];
    EvalRequest Q;
    Q.Id = "c" + std::to_string(I);
    Q.Name = T.Name;
    Q.Source = T.Source + "// copy " + std::to_string(I) + "\n";
    Q.Policies = {mem::MemoryPolicy::defacto()};
    Reqs.push_back(std::move(Q));
  }
  auto R = C.callBatch(Reqs);
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().Message;

  auto Raw = C.call(serializeSimpleRequest(Op::Stats, "s"));
  ASSERT_TRUE(static_cast<bool>(Raw));
  auto Doc = json::parse(*Raw);
  ASSERT_TRUE(Doc.has_value());
  const json::Value *CC = Doc->get("stats")->get("compile_cache");
  ASSERT_NE(CC, nullptr);
  EXPECT_EQ(CC->get("misses")->asU64(), 100u);
  EXPECT_LE(CC->get("bytes")->asU64(), CC->get("budget_bytes")->asU64());
  EXPECT_LT(CC->get("entries")->asU64(), 100u);
  EXPECT_EQ(CC->get("entries")->asU64() + CC->get("evictions")->asU64(),
            100u);
  F.drain();
}
