//===-- tests/test_serve.cpp - evaluation daemon unit tests ---------------===//
//
// Covers the serve subsystem from the bottom up: exact-integer JSON
// round-trips for protocol frames, cache keying, the two-tier result
// cache, and a real in-process daemon driven over unix-domain sockets
// (cold/warm byte-identity, admission control, graceful drain with an
// in-flight request).
//
//===----------------------------------------------------------------------===//

#include "exec/Pipeline.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "serve/Eval.h"
#include "serve/Protocol.h"
#include "serve/ResultCache.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>

using namespace cerb;
using namespace cerb::serve;

namespace fs = std::filesystem;

namespace {

/// A unique fresh directory per test (removed on destruction). mkdtemp
/// hands out a kernel-guaranteed-unique path, so concurrent test binaries
/// (ctest -j) can never collide the way pid+counter schemes do after a
/// pid wrap or a stale leftover directory.
struct TempDir {
  fs::path Path;
  TempDir() {
    std::string Tmpl =
        (fs::temp_directory_path() / "cerb-serve-test-XXXXXX").string();
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

const char *TrivialSource = "int main(void) { return 0; }\n";

EvalRequest basicRequest() {
  EvalRequest Q;
  Q.Id = "req-1";
  Q.Name = "t";
  Q.Source = TrivialSource;
  Q.Policies = {mem::MemoryPolicy::defacto()};
  return Q;
}

} // namespace

//===----------------------------------------------------------------------===//
// JSON round trips for protocol frames
//===----------------------------------------------------------------------===//

TEST(ServeJson, ExactIntegersSurviveRoundTrip) {
  auto Doc = json::parse("{\"a\": 18446744073709551615, \"b\": 9223372036854775808, "
                         "\"c\": -9223372036854775808, \"d\": 9007199254740993, "
                         "\"e\": 1.5, \"f\": -7}");
  ASSERT_TRUE(Doc.has_value());
  // u64 max and 2^63: both above double precision (2^53).
  EXPECT_EQ(Doc->get("a")->asU64(), 18446744073709551615ull);
  EXPECT_EQ(Doc->get("b")->asU64(), 9223372036854775808ull);
  // INT64_MIN has magnitude 2^63 — the one negative that still fits.
  EXPECT_EQ(Doc->get("c")->asI64(), INT64_MIN);
  // 2^53 + 1 rounds under double arithmetic; the sidecar must not.
  EXPECT_EQ(Doc->get("d")->asU64(), 9007199254740993ull);
  EXPECT_FALSE(Doc->get("e")->IsInt);
  EXPECT_DOUBLE_EQ(Doc->get("e")->asDouble(), 1.5);
  EXPECT_EQ(Doc->get("f")->asI64(), -7);
  EXPECT_EQ(Doc->get("f")->asU64(42), 42u) << "negative is out of u64 range";
}

TEST(ServeJson, EscapedStringsRoundTripThroughEvalFrames) {
  EvalRequest Q = basicRequest();
  Q.Id = "id \"quoted\"\\backslash";
  Q.Name = "name\twith\nnewline and \x01 control";
  Q.Source = "int main(void){\n  // \"str\" \\ \t\x02\x1f\n  return 0;\n}\n";
  Q.Seed = 18446744073709551615ull; // u64 max over the wire

  auto R = parseRequest(serializeEvalRequest(Q));
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().Message;
  ASSERT_EQ(R->Kind, Op::Eval);
  EXPECT_EQ(R->Eval.Id, Q.Id);
  EXPECT_EQ(R->Eval.Name, Q.Name);
  EXPECT_EQ(R->Eval.Source, Q.Source);
  EXPECT_EQ(R->Eval.Seed, Q.Seed);
}

TEST(ServeJson, LimitsAndPoliciesRoundTrip) {
  EvalRequest Q = basicRequest();
  Q.Policies = {mem::MemoryPolicy::concrete(), mem::MemoryPolicy::cheri()};
  Q.ExecMode = oracle::Mode::Random;
  Q.Seed = 1ull << 63;
  Q.Limits.MaxPaths = 9007199254740993ull; // 2^53 + 1
  Q.Limits.MaxSteps = 123456789012345ull;
  Q.Limits.MaxCallDepth = 77;
  Q.Limits.DeadlineMs = 4000;
  Q.Limits.FallbackSamples = 3;
  Q.NoCache = true;

  auto R = parseRequest(serializeEvalRequest(Q));
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().Message;
  ASSERT_EQ(R->Eval.Policies.size(), 2u);
  EXPECT_EQ(R->Eval.Policies[0].Name, "concrete");
  EXPECT_EQ(R->Eval.Policies[1].Name, "cheri");
  EXPECT_EQ(R->Eval.ExecMode, oracle::Mode::Random);
  EXPECT_EQ(R->Eval.Seed, 1ull << 63);
  EXPECT_EQ(R->Eval.Limits.MaxPaths, 9007199254740993ull);
  EXPECT_EQ(R->Eval.Limits.MaxSteps, 123456789012345ull);
  EXPECT_EQ(R->Eval.Limits.MaxCallDepth, 77u);
  EXPECT_EQ(R->Eval.Limits.DeadlineMs, 4000u);
  EXPECT_EQ(R->Eval.Limits.FallbackSamples, 3u);
  EXPECT_TRUE(R->Eval.NoCache);
  // And the round-tripped request keys identically to the original.
  EXPECT_EQ(cacheKeyMaterial(R->Eval), cacheKeyMaterial(Q));
}

TEST(ServeJson, NestedReportSurvivesTheEnvelope) {
  // A response embedding a nested report document parses as one JSON value
  // and the raw report bytes come back out verbatim.
  std::string Report =
      "{\n  \"schema\": \"cerb-oracle-report/1\",\n  \"stats\": "
      "{\"jobs\": 2, \"nested\": [1, 2, {\"deep\": \"y\\\"es\"}]},\n"
      "  \"jobs\": []\n}\n";
  std::string Frame = okEvalResponse("id-9", Report);
  auto Doc = json::parse(Frame);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->get("status")->asString(), "ok");
  const json::Value *Rep = Doc->get("report");
  ASSERT_NE(Rep, nullptr);
  EXPECT_EQ(Rep->get("schema")->asString(), "cerb-oracle-report/1");
  EXPECT_EQ(Rep->get("stats")->get("jobs")->asU64(), 2u);

  auto P = parseResponse(Frame);
  ASSERT_TRUE(static_cast<bool>(P));
  EXPECT_EQ(P->Id, "id-9");
  EXPECT_EQ(P->Status, "ok");
  EXPECT_EQ(P->Report, Report) << "report bytes must be extracted verbatim";
}

TEST(ServeJson, ParseRequestRejectsMalformedFrames) {
  EXPECT_FALSE(static_cast<bool>(parseRequest("{not json")));
  EXPECT_FALSE(static_cast<bool>(parseRequest("{\"schema\": \"wrong/9\"}")));
  auto NoSource = parseRequest("{\"schema\": \"cerb-serve/1\", \"op\": \"eval\"}");
  ASSERT_FALSE(static_cast<bool>(NoSource));
  EXPECT_NE(NoSource.error().Message.find("source"), std::string::npos);
  auto BadPolicy = parseRequest(
      "{\"schema\": \"cerb-serve/1\", \"op\": \"eval\", \"source\": \"int\","
      " \"policies\": [\"bogus\"]}");
  ASSERT_FALSE(static_cast<bool>(BadPolicy));
  EXPECT_NE(BadPolicy.error().Message.find("valid presets"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Policy naming and fingerprints (the byName/named satellite)
//===----------------------------------------------------------------------===//

TEST(ServePolicies, ByNameIsCaseInsensitive) {
  for (const char *N : {"defacto", "DeFacto", "DEFACTO", "de-facto"}) {
    auto P = mem::MemoryPolicy::byName(N);
    ASSERT_TRUE(P.has_value()) << N;
    EXPECT_EQ(P->Name, "defacto");
  }
  for (const char *N : {"strict-iso", "Strict-ISO", "strictIso", "ISO"}) {
    auto P = mem::MemoryPolicy::byName(N);
    ASSERT_TRUE(P.has_value()) << N;
    EXPECT_EQ(P->Name, "strict-iso");
  }
  EXPECT_TRUE(mem::MemoryPolicy::byName("CHERI").has_value());
  EXPECT_TRUE(mem::MemoryPolicy::byName("Concrete").has_value());
  EXPECT_FALSE(mem::MemoryPolicy::byName("defact").has_value());
}

TEST(ServePolicies, NamedErrorListsValidPresets) {
  auto P = mem::MemoryPolicy::named("no-such-policy");
  ASSERT_FALSE(static_cast<bool>(P));
  const std::string &M = P.error().Message;
  EXPECT_NE(M.find("no-such-policy"), std::string::npos);
  for (const char *K : {"concrete", "defacto", "strict-iso", "cheri"})
    EXPECT_NE(M.find(K), std::string::npos) << M;
}

TEST(ServePolicies, FingerprintsSeparatePresets) {
  auto All = mem::MemoryPolicy::allPresets();
  for (size_t I = 0; I < All.size(); ++I)
    for (size_t J = I + 1; J < All.size(); ++J)
      EXPECT_NE(All[I].fingerprint(), All[J].fingerprint())
          << All[I].Name << " vs " << All[J].Name;
  // The name is a label, not semantics: renaming must not change the print.
  mem::MemoryPolicy Renamed = mem::MemoryPolicy::defacto();
  Renamed.Name = "something-else";
  EXPECT_EQ(Renamed.fingerprint(), mem::MemoryPolicy::defacto().fingerprint());
}

TEST(ServePolicies, SemanticsFingerprintIsStableWithinProcess) {
  uint64_t A = exec::semanticsFingerprint();
  EXPECT_NE(A, 0u);
  EXPECT_EQ(A, exec::semanticsFingerprint());
}

//===----------------------------------------------------------------------===//
// Cache keying
//===----------------------------------------------------------------------===//

TEST(ServeCacheKey, SensitiveToEverySemanticsField) {
  EvalRequest Base = basicRequest();
  std::string K0 = cacheKeyMaterial(Base);

  auto Differs = [&](auto Mutate, const char *What) {
    EvalRequest Q = basicRequest();
    Mutate(Q);
    EXPECT_NE(cacheKeyMaterial(Q), K0) << What;
  };
  Differs([](EvalRequest &Q) { Q.Source += " "; }, "source");
  Differs([](EvalRequest &Q) { Q.Policies = {mem::MemoryPolicy::cheri()}; },
          "policy");
  Differs([](EvalRequest &Q) {
    Q.Policies.push_back(mem::MemoryPolicy::cheri());
  }, "policy set");
  Differs([](EvalRequest &Q) { Q.ExecMode = oracle::Mode::Random; }, "mode");
  Differs([](EvalRequest &Q) { Q.Seed = 2; }, "seed");
  Differs([](EvalRequest &Q) { Q.Limits.MaxPaths = 7; }, "max paths");
  Differs([](EvalRequest &Q) { Q.Limits.MaxSteps = 1000; }, "max steps");
  Differs([](EvalRequest &Q) { Q.Limits.MaxCallDepth = 5; }, "call depth");
  Differs([](EvalRequest &Q) { Q.Limits.DeadlineMs = 9; }, "deadline");
  Differs([](EvalRequest &Q) { Q.Limits.FallbackSamples = 2; }, "fallback");
  Differs([](EvalRequest &Q) { Q.Name = "other"; }, "name");

  // Id and NoCache are delivery details, not result identity.
  EvalRequest Q1 = basicRequest();
  Q1.Id = "different-id";
  Q1.NoCache = true;
  EXPECT_EQ(cacheKeyMaterial(Q1), K0);

  // A policy whose knobs changed keys differently even under the same name.
  EvalRequest Q2 = basicRequest();
  Q2.Policies[0].TrackProvenance = !Q2.Policies[0].TrackProvenance;
  EXPECT_NE(cacheKeyMaterial(Q2), K0);
}

TEST(ServeCacheKey, HashMatchesMaterialEquality) {
  EvalRequest A = basicRequest(), B = basicRequest();
  EXPECT_EQ(cacheKeyHash(cacheKeyMaterial(A)), cacheKeyHash(cacheKeyMaterial(B)));
  B.Seed = 99;
  EXPECT_NE(cacheKeyHash(cacheKeyMaterial(A)), cacheKeyHash(cacheKeyMaterial(B)));
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

TEST(ServeResultCache, MemoryTierHitsAndMisses) {
  CacheConfig Cfg; // memory-only
  ResultCache C(Cfg);
  EXPECT_FALSE(C.persistent());
  EXPECT_FALSE(C.get("key-a").has_value());
  C.put("key-a", "body-a");
  auto Hit = C.get("key-a");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, "body-a");
  CacheStats S = C.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.MemoryHits, 1u);
  EXPECT_EQ(S.Stores, 1u);
  EXPECT_EQ(S.MemoryEntries, 1u);
}

TEST(ServeResultCache, LruEvictionIsBounded) {
  CacheConfig Cfg;
  Cfg.MaxMemoryEntries = 2;
  ResultCache C(Cfg);
  C.put("k1", "b1");
  C.put("k2", "b2");
  ASSERT_TRUE(C.get("k1").has_value()); // k1 is now MRU
  C.put("k3", "b3");                    // evicts k2 (LRU)
  EXPECT_TRUE(C.get("k1").has_value());
  EXPECT_TRUE(C.get("k3").has_value());
  EXPECT_FALSE(C.get("k2").has_value());
  CacheStats S = C.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.MemoryEntries, 2u);
}

TEST(ServeResultCache, DiskTierSurvivesRestart) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  {
    ResultCache C(Cfg);
    C.put("persistent-key", "persistent-body");
    EXPECT_TRUE(C.flushIndex());
  }
  ResultCache C2(Cfg); // "restarted daemon"
  auto Hit = C2.get("persistent-key");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, "persistent-body");
  CacheStats S = C2.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.MemoryEntries, 1u) << "disk hits promote into memory";
  auto Again = C2.get("persistent-key");
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(C2.stats().MemoryHits, 1u);
}

TEST(ServeResultCache, CorruptOrMismatchedEntriesAreMisses) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  ResultCache C(Cfg);
  C.put("the-key", "the-body");

  // Find the object file and corrupt its header.
  fs::path Obj;
  for (const auto &E : fs::recursive_directory_iterator(Cfg.Dir + "/objects"))
    if (E.is_regular_file())
      Obj = E.path();
  ASSERT_FALSE(Obj.empty());
  {
    std::ofstream Out(Obj, std::ios::binary | std::ios::trunc);
    Out << "garbage";
  }
  ResultCache Fresh(Cfg); // bypass the memory tier
  EXPECT_FALSE(Fresh.get("the-key").has_value())
      << "a torn disk entry must read as a miss, not as data";
}

TEST(ServeResultCache, IndexFileIsWellFormed) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  ResultCache C(Cfg);
  C.put("a", "1");
  C.put("b", "2");
  ASSERT_TRUE(C.flushIndex());
  std::ifstream In(Cfg.Dir + "/index.json");
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  auto Doc = json::parse(Text);
  ASSERT_TRUE(Doc.has_value()) << Text;
  EXPECT_EQ(Doc->get("schema")->asString(), "cerb-serve-index/1");
  EXPECT_EQ(Doc->get("disk_entries")->asU64(), 2u);
  EXPECT_EQ(Doc->get("stores")->asU64(), 2u);
}

//===----------------------------------------------------------------------===//
// The daemon over real sockets
//===----------------------------------------------------------------------===//

namespace {

struct DaemonFixture {
  TempDir T;
  std::unique_ptr<Daemon> D;

  explicit DaemonFixture(uint64_t MaxQueue = 64, size_t MemEntries = 1024,
                         bool Persistent = true) {
    DaemonConfig Cfg;
    Cfg.SocketPath = T.str("d.sock");
    Cfg.Threads = 2;
    Cfg.MaxQueue = MaxQueue;
    if (Persistent)
      Cfg.Cache.Dir = T.str("cache");
    Cfg.Cache.MaxMemoryEntries = MemEntries;
    D = std::make_unique<Daemon>(std::move(Cfg));
  }

  explicit DaemonFixture(DaemonConfig Cfg) {
    if (Cfg.SocketPath.empty() && Cfg.TcpPort < 0)
      Cfg.SocketPath = T.str("d.sock");
    D = std::make_unique<Daemon>(std::move(Cfg));
  }

  /// start() with retry: the mkdtemp socket path cannot collide, but a
  /// TCP bind (even port 0 setup) can transiently fail on a loaded CI
  /// host — retry instead of flaking.
  ExpectedVoid start() {
    ExpectedVoid R = err("never started");
    for (int Attempt = 0; Attempt < 5; ++Attempt) {
      R = D->start();
      if (R)
        return R;
      std::this_thread::sleep_for(std::chrono::milliseconds(20 << Attempt));
    }
    return R;
  }

  Client client() {
    auto C = Client::connect(T.str("d.sock"));
    EXPECT_TRUE(static_cast<bool>(C));
    return std::move(*C);
  }
};

} // namespace

TEST(ServeDaemon, PingAndStats) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();

  auto Pong = C.callParsed(serializeSimpleRequest(Op::Ping, "p1"));
  ASSERT_TRUE(static_cast<bool>(Pong));
  EXPECT_EQ(Pong->Id, "p1");
  EXPECT_EQ(Pong->Status, "ok");

  auto StatsRaw = C.call(serializeSimpleRequest(Op::Stats, "s1"));
  ASSERT_TRUE(static_cast<bool>(StatsRaw));
  auto Doc = json::parse(*StatsRaw);
  ASSERT_TRUE(Doc.has_value()) << *StatsRaw;
  const json::Value *S = Doc->get("stats");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->get("in_flight")->asU64(), 0u);
  EXPECT_EQ(S->get("max_queue")->asU64(), 64u);
  EXPECT_TRUE(S->get("result_cache")->get("persistent")->asBool());

  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeDaemon, WarmRepeatIsByteIdenticalToCold) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();

  EvalRequest Q = basicRequest();
  Q.Policies = mem::MemoryPolicy::allPresets();
  std::string Frame = serializeEvalRequest(Q);

  auto Cold = C.call(Frame);
  ASSERT_TRUE(static_cast<bool>(Cold));
  auto Warm = C.call(Frame);
  ASSERT_TRUE(static_cast<bool>(Warm));
  EXPECT_EQ(*Cold, *Warm) << "warm replay must be byte-identical";

  auto P = parseResponse(*Cold);
  ASSERT_TRUE(static_cast<bool>(P));
  EXPECT_EQ(P->Status, "ok");
  auto Rep = json::parse(P->Report);
  ASSERT_TRUE(Rep.has_value());
  EXPECT_EQ(Rep->get("schema")->asString(), "cerb-oracle-report/1");
  EXPECT_EQ(Rep->get("stats")->get("jobs")->asU64(),
            mem::MemoryPolicy::allPresets().size());

  CacheStats CS = F.D->cache().stats();
  EXPECT_EQ(CS.Misses, 1u);
  EXPECT_EQ(CS.MemoryHits, 1u);

  // A fresh daemon on the same cache directory serves it from disk —
  // still byte-identical.
  F.D->requestDrain();
  ASSERT_EQ(F.D->waitUntilDrained(), 0);
  DaemonConfig Cfg2;
  Cfg2.SocketPath = F.T.str("d2.sock");
  Cfg2.Threads = 2;
  Cfg2.Cache.Dir = F.T.str("cache");
  Daemon D2(std::move(Cfg2));
  ASSERT_TRUE(static_cast<bool>(D2.start()));
  auto C2 = Client::connect(F.T.str("d2.sock"));
  ASSERT_TRUE(static_cast<bool>(C2));
  auto Disk = C2->call(Frame);
  ASSERT_TRUE(static_cast<bool>(Disk));
  EXPECT_EQ(*Disk, *Cold);
  EXPECT_EQ(D2.cache().stats().DiskHits, 1u);
  D2.requestDrain();
  EXPECT_EQ(D2.waitUntilDrained(), 0);
}

TEST(ServeDaemon, DistinctRequestsDoNotShareEntries) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();

  EvalRequest A = basicRequest();
  EvalRequest B = basicRequest();
  B.Source = "int main(void) { return 1; }\n";
  auto RA = C.callParsed(serializeEvalRequest(A));
  auto RB = C.callParsed(serializeEvalRequest(B));
  ASSERT_TRUE(static_cast<bool>(RA));
  ASSERT_TRUE(static_cast<bool>(RB));
  EXPECT_NE(RA->Report, RB->Report);
  EXPECT_EQ(F.D->cache().stats().Misses, 2u);

  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeDaemon, CompileErrorsTravelInsideReports) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();
  EvalRequest Q = basicRequest();
  Q.Source = "int main(void) { return not c at all; }";
  auto R = C.callParsed(serializeEvalRequest(Q));
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->Status, "ok") << "static errors are results, not failures";
  auto Rep = json::parse(R->Report);
  ASSERT_TRUE(Rep.has_value());
  EXPECT_EQ(Rep->get("stats")->get("compile_errors")->asU64(), 1u);
  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeDaemon, ZeroQueueRejectsEveryEvalDeterministically) {
  DaemonFixture F(/*MaxQueue=*/0);
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();
  auto R = C.callParsed(serializeEvalRequest(basicRequest()));
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->Status, "overloaded");
  // Control ops still answer under load shedding.
  auto Pong = C.callParsed(serializeSimpleRequest(Op::Ping, "p"));
  ASSERT_TRUE(static_cast<bool>(Pong));
  EXPECT_EQ(Pong->Status, "ok");
  EXPECT_EQ(F.D->snapshot().Overloaded, 1u);
  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeDaemon, MalformedFramesGetErrorResponses) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();
  auto R = C.callParsed("{\"schema\": \"cerb-serve/1\", \"op\": \"eval\"}");
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->Status, "error");
  EXPECT_NE(R->Error.find("source"), std::string::npos);
  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeDaemon, DrainCompletesInFlightRequests) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();

  EvalRequest Q = basicRequest();
  Q.Name = "busy";
  Q.Source = "#include <stdio.h>\n"
             "int g;\n"
             "int main(void) {\n"
             "  int a = (g = 1) + (g = 2);\n"
             "  int b = (g = 3) + (g = 4);\n"
             "  printf(\"%d %d %d\\n\", a, b, g);\n"
             "  return 0;\n"
             "}\n";
  Q.Policies = mem::MemoryPolicy::allPresets();

  // Launch the call from another thread, drain as soon as the daemon has
  // admitted it: the drain must wait for the answer (zero drops).
  std::string Response;
  bool CallOk = false;
  std::thread Caller([&] {
    auto R = C.call(serializeEvalRequest(Q));
    if (R) {
      CallOk = true;
      Response = *R;
    }
  });
  while (F.D->snapshot().Admitted == 0 && F.D->snapshot().InFlight == 0)
    std::this_thread::yield();
  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
  Caller.join();

  ASSERT_TRUE(CallOk) << "the in-flight request must be answered";
  auto P = parseResponse(Response);
  ASSERT_TRUE(static_cast<bool>(P));
  EXPECT_EQ(P->Status, "ok");

  // After the drain, new connections are not served.
  auto Late = Client::connect(F.T.str("d.sock"));
  EXPECT_FALSE(static_cast<bool>(Late));
}

TEST(ServeDaemon, ShutdownOpTriggersDrain) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  Client C = F.client();
  auto R = C.callParsed(serializeSimpleRequest(Op::Shutdown, "bye"));
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->Status, "ok");
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

//===----------------------------------------------------------------------===//
// Eval determinism without sockets
//===----------------------------------------------------------------------===//

TEST(ServeEval, ReportBytesAreAPureFunctionOfTheRequest) {
  EvalRequest Q = basicRequest();
  Q.Policies = mem::MemoryPolicy::allPresets();
  exec::CompileCache CacheA, CacheB;
  std::string A = evaluateToReport(Q, CacheA);
  // A *shared, already-warm* compile cache must not change the bytes.
  std::string B1 = evaluateToReport(Q, CacheB);
  std::string B2 = evaluateToReport(Q, CacheB);
  EXPECT_EQ(A, B1);
  EXPECT_EQ(B1, B2);
  EXPECT_GT(CacheB.hits(), 0u);
}

//===----------------------------------------------------------------------===//
// Crash recovery for the disk cache
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include <sys/socket.h>

namespace {

/// The single object file under <dir>/objects (the tests store one entry).
fs::path soleObjectFile(const std::string &Dir) {
  fs::path Obj;
  for (const auto &E : fs::recursive_directory_iterator(Dir + "/objects"))
    if (E.is_regular_file())
      Obj = E.path();
  return Obj;
}

size_t countFiles(const fs::path &Dir) {
  std::error_code EC;
  size_t N = 0;
  for (fs::recursive_directory_iterator It(Dir, EC), End; It != End && !EC;
       It.increment(EC))
    if (It->is_regular_file(EC))
      ++N;
  return N;
}

} // namespace

TEST(ServeCacheRecovery, TruncatedIndexIsRebuilt) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  {
    ResultCache C(Cfg);
    C.put("k", "v");
    ASSERT_TRUE(C.flushIndex());
  }
  { // Crash mid-flush: the index is half a JSON document.
    std::ofstream Out(Cfg.Dir + "/index.json", std::ios::trunc);
    Out << "{\"schema\": \"cerb-serve-in";
  }
  ResultCache C2(Cfg);
  EXPECT_EQ(C2.stats().IndexRebuilt, 1u);
  std::ifstream In(Cfg.Dir + "/index.json");
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(json::parse(Text).has_value()) << Text;
  // The entry itself was never at risk.
  auto Hit = C2.get("k");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, "v");
}

TEST(ServeCacheRecovery, EntryDeletedUnderTheIndexIsAMiss) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  {
    ResultCache C(Cfg);
    C.put("k", "v");
    ASSERT_TRUE(C.flushIndex());
  }
  fs::remove(soleObjectFile(Cfg.Dir));
  ResultCache C2(Cfg);
  EXPECT_FALSE(C2.get("k").has_value()) << "deleted entry degrades to a miss";
  C2.put("k", "v"); // self-heals on the next write
  ResultCache C3(Cfg);
  EXPECT_TRUE(C3.get("k").has_value());
}

TEST(ServeCacheRecovery, InterruptedPublishTempFileIsReclaimed) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  { ResultCache C(Cfg); } // create the layout
  { // Simulate kill -9 between temp write and rename.
    std::ofstream Out(Cfg.Dir + "/tmp/put-dead-0", std::ios::binary);
    Out << "half a record";
  }
  ResultCache C2(Cfg);
  EXPECT_EQ(C2.stats().TmpReclaimed, 1u);
  EXPECT_EQ(countFiles(fs::path(Cfg.Dir) / "tmp"), 0u);
}

TEST(ServeCacheRecovery, TornObjectIsQuarantinedNotServed) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  {
    ResultCache C(Cfg);
    C.put("k", std::string(4096, 'x'));
  }
  // Tear the published file in half: the v2 length header makes this
  // structurally detectable.
  fs::path Obj = soleObjectFile(Cfg.Dir);
  ASSERT_FALSE(Obj.empty());
  fs::resize_file(Obj, fs::file_size(Obj) / 2);

  ResultCache C2(Cfg);
  EXPECT_EQ(C2.stats().Quarantined, 1u);
  EXPECT_FALSE(C2.get("k").has_value()) << "torn entry must never be served";
  EXPECT_EQ(countFiles(fs::path(Cfg.Dir) / "objects"), 0u);
  EXPECT_EQ(countFiles(fs::path(Cfg.Dir) / "quarantine"), 1u)
      << "the torn file is kept for post-mortem, out of the lookup path";
}

TEST(ServeCacheRecovery, RecoverIsIdempotentOnAHealthyStore) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  ResultCache C(Cfg);
  C.put("a", "1");
  C.put("b", std::string(100, 'z'));
  RecoveryStats R = C.recover();
  EXPECT_EQ(R.ValidEntries, 2u);
  EXPECT_EQ(R.Quarantined, 0u);
  EXPECT_EQ(R.TmpReclaimed, 0u);
  EXPECT_TRUE(C.get("a").has_value());
  EXPECT_TRUE(C.get("b").has_value());
}

//===----------------------------------------------------------------------===//
// Fault injection through the cache's disk tier
//===----------------------------------------------------------------------===//

TEST(ServeCacheFaults, TornWriteFaultNeverReplaysWrongBytes) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  {
    ResultCache C(Cfg);
    fault::FaultSpec S;
    S.Site = "cache.torn";
    S.Nth = 1;
    fault::ScopedFaults F(1, {S});
    C.put("k", std::string(2048, 'y')); // publishes a torn file
  }
  ResultCache C2(Cfg); // recovery quarantines it
  EXPECT_EQ(C2.stats().Quarantined, 1u);
  EXPECT_FALSE(C2.get("k").has_value());
}

TEST(ServeCacheFaults, RenameFaultLeavesTmpForRecovery) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  {
    ResultCache C(Cfg);
    fault::FaultSpec S;
    S.Site = "cache.rename";
    S.Nth = 1;
    fault::ScopedFaults F(1, {S});
    C.put("k", "v"); // dies between temp write and rename
    EXPECT_EQ(countFiles(fs::path(Cfg.Dir) / "objects"), 0u);
    EXPECT_EQ(countFiles(fs::path(Cfg.Dir) / "tmp"), 1u);
  }
  ResultCache C2(Cfg);
  EXPECT_EQ(C2.stats().TmpReclaimed, 1u);
  EXPECT_FALSE(C2.get("k").has_value());
}

TEST(ServeCacheFaults, DiskFaultsDegradeToMissesNotErrors) {
  TempDir T;
  CacheConfig Cfg;
  Cfg.Dir = T.str("cache");
  Cfg.MaxMemoryEntries = 0; // force every get to the disk tier
  ResultCache C(Cfg);

  { // ENOSPC-style write failure: the store is skipped entirely.
    fault::FaultSpec S;
    S.Site = "cache.disk_write";
    S.Nth = 1;
    fault::ScopedFaults F(1, {S});
    C.put("k", "v");
    EXPECT_EQ(countFiles(fs::path(Cfg.Dir) / "objects"), 0u);
  }
  C.put("k", "v"); // healthy retry stores it
  ASSERT_TRUE(C.get("k").has_value());

  { // Read-side fault: a hit-able entry reads as a miss while armed.
    fault::FaultSpec S;
    S.Site = "cache.disk_read";
    S.Probability = 1.0;
    fault::ScopedFaults F(1, {S});
    EXPECT_FALSE(C.get("k").has_value());
  }
  EXPECT_TRUE(C.get("k").has_value()) << "disarmed: the entry is intact";
}

//===----------------------------------------------------------------------===//
// Deadline-aware frame reads (the daemon's no-hang guarantee)
//===----------------------------------------------------------------------===//

namespace {

struct SocketPair {
  int A = -1, B = -1;
  SocketPair() {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      std::abort();
    A = Fds[0];
    B = Fds[1];
  }
  ~SocketPair() {
    if (A >= 0)
      ::close(A);
    if (B >= 0)
      ::close(B);
  }
  void closeA() {
    ::close(A);
    A = -1;
  }
};

} // namespace

TEST(ServeTimedRead, IdleConnectionTimesOutQuickly) {
  SocketPair SP;
  std::string Out;
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_EQ(net::readFrameTimed(SP.B, Out, net::DefaultMaxFrame, 50, 50),
            net::RecvStatus::Idle);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_LT(Ms, 5000) << "must not block anywhere near forever";
}

TEST(ServeTimedRead, PartialFrameTimesOutInsteadOfHanging) {
  SocketPair SP;
  // Two bytes of a length prefix, then silence.
  ASSERT_EQ(::write(SP.A, "\x00\x00", 2), 2);
  std::string Out;
  EXPECT_EQ(net::readFrameTimed(SP.B, Out, net::DefaultMaxFrame, 1000, 50),
            net::RecvStatus::Timeout);

  // A declared body that never arrives times out too.
  SocketPair SP2;
  ASSERT_EQ(::write(SP2.A, "\x00\x00\x00\x40" "partial", 11), 11);
  EXPECT_EQ(net::readFrameTimed(SP2.B, Out, net::DefaultMaxFrame, 1000, 50),
            net::RecvStatus::Timeout);
}

TEST(ServeTimedRead, OversizeFrameRejectedBeforeAllocation) {
  SocketPair SP;
  ASSERT_EQ(::write(SP.A, "\xff\xff\xff\xff", 4), 4); // claims ~4 GiB
  std::string Out;
  EXPECT_EQ(net::readFrameTimed(SP.B, Out, /*MaxLen=*/1 << 20, 1000, 1000),
            net::RecvStatus::Oversize);
}

TEST(ServeTimedRead, WholeFramesAndEofStillWork) {
  SocketPair SP;
  ASSERT_TRUE(net::writeFrame(SP.A, "hello"));
  std::string Out;
  EXPECT_EQ(net::readFrameTimed(SP.B, Out, net::DefaultMaxFrame, 1000, 1000),
            net::RecvStatus::Frame);
  EXPECT_EQ(Out, "hello");
  SP.closeA();
  EXPECT_EQ(net::readFrameTimed(SP.B, Out, net::DefaultMaxFrame, 1000, 1000),
            net::RecvStatus::Eof);
}

//===----------------------------------------------------------------------===//
// Daemon robustness: reaping, caps, garbage frames
//===----------------------------------------------------------------------===//

TEST(ServeDaemonRobust, IdleConnectionsAreReaped) {
  DaemonConfig Cfg;
  Cfg.Threads = 2;
  Cfg.IdleTimeoutMs = 50;
  DaemonFixture F(std::move(Cfg));
  ASSERT_TRUE(static_cast<bool>(F.start()));
  Client C = F.client();
  auto Pong = C.callParsed(serializeSimpleRequest(Op::Ping, "p"));
  ASSERT_TRUE(static_cast<bool>(Pong));
  // Go silent; the daemon reaps us.
  for (int I = 0; I < 200 && F.D->snapshot().IdleReaped == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(F.D->snapshot().IdleReaped, 1u);
  EXPECT_EQ(F.D->snapshot().LiveConns, 0u)
      << "the reaped reader released its descriptor";
  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeDaemonRobust, ConnectionCapRejectsWithExplicitStatus) {
  DaemonConfig Cfg;
  Cfg.Threads = 2;
  Cfg.MaxConns = 1;
  DaemonFixture F(std::move(Cfg));
  ASSERT_TRUE(static_cast<bool>(F.start()));
  Client C1 = F.client();
  auto Pong = C1.callParsed(serializeSimpleRequest(Op::Ping, "p"));
  ASSERT_TRUE(static_cast<bool>(Pong));

  // Second connection: accepted at the TCP level, rejected by the daemon
  // with a conn_limit frame before close.
  auto Raw = net::connectUnix(F.T.str("d.sock"));
  ASSERT_TRUE(static_cast<bool>(Raw));
  std::string Frame;
  ASSERT_EQ(net::readFrame(Raw->get(), Frame), 1);
  auto R = parseResponse(Frame);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->Status, "conn_limit");
  EXPECT_EQ(F.D->snapshot().RejectedConnLimit, 1u);

  // The first client keeps working; capacity frees when it leaves.
  ASSERT_TRUE(static_cast<bool>(
      C1.callParsed(serializeSimpleRequest(Op::Ping, "p2"))));
  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeDaemonRobust, GarbageAndOversizeFramesNeverHangAReader) {
  DaemonConfig Cfg;
  Cfg.Threads = 2;
  Cfg.ReadTimeoutMs = 100;
  DaemonFixture F(std::move(Cfg));
  ASSERT_TRUE(static_cast<bool>(F.start()));

  { // Oversize length prefix: explicit bad_request, then close.
    auto Raw = net::connectUnix(F.T.str("d.sock"));
    ASSERT_TRUE(static_cast<bool>(Raw));
    ASSERT_EQ(::write(Raw->get(), "\xff\xff\xff\xff", 4), 4);
    std::string Frame;
    ASSERT_EQ(net::readFrame(Raw->get(), Frame), 1);
    auto R = parseResponse(Frame);
    ASSERT_TRUE(static_cast<bool>(R));
    EXPECT_EQ(R->Status, "bad_request");
    EXPECT_EQ(net::readFrame(Raw->get(), Frame), 0) << "connection closed";
  }

  { // Partial frame then silence: timed out, never hangs the reader.
    auto Raw = net::connectUnix(F.T.str("d.sock"));
    ASSERT_TRUE(static_cast<bool>(Raw));
    ASSERT_EQ(::write(Raw->get(), "\x00\x00\x00\x10" "abc", 7), 7);
    std::string Frame;
    ASSERT_EQ(net::readFrame(Raw->get(), Frame), 1);
    auto R = parseResponse(Frame);
    ASSERT_TRUE(static_cast<bool>(R));
    EXPECT_EQ(R->Status, "timeout");
  }

  for (int I = 0; I < 200 && F.D->snapshot().LiveConns != 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  DaemonSnapshot S = F.D->snapshot();
  EXPECT_GE(S.BadFrames, 1u);
  EXPECT_GE(S.ReadTimeouts, 1u);
  EXPECT_EQ(S.LiveConns, 0u) << "no reader thread is stuck";

  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

//===----------------------------------------------------------------------===//
// Client retry under injected faults
//===----------------------------------------------------------------------===//

TEST(ServeRetry, SurvivesAnInjectedWriteFailure) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  RetryPolicy RP;
  RP.MaxAttempts = 4;
  RP.BaseDelayMs = 1;
  RP.Seed = 7;
  auto C = Client::connect(F.T.str("d.sock"), -1, RP);
  ASSERT_TRUE(static_cast<bool>(C));

  fault::FaultSpec S;
  S.Site = "socket.write";
  S.Nth = 1; // the client's first frame write in this process
  S.Err = EPIPE;
  fault::ScopedFaults Faults(7, {S});

  auto R = C->callRetryParsed(serializeSimpleRequest(Op::Ping, "p"));
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().Message;
  EXPECT_EQ(R->Status, "ok");
  EXPECT_GE(fault::Injector::instance().totalShots(), 1u)
      << "the fault actually fired; the retry recovered";

  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeRetry, ReconnectsThroughAConnectFault) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  RetryPolicy RP;
  RP.MaxAttempts = 4;
  RP.BaseDelayMs = 1;
  RP.Seed = 7;
  auto C = Client::connect(F.T.str("d.sock"), -1, RP);
  ASSERT_TRUE(static_cast<bool>(C));

  // Kill the first call AND the first reconnect; attempt 3 gets through.
  fault::FaultSpec Write;
  Write.Site = "socket.write";
  Write.Nth = 1;
  Write.Err = ECONNRESET;
  fault::FaultSpec Conn;
  Conn.Site = "socket.connect";
  Conn.Nth = 1;
  fault::ScopedFaults Faults(7, {Write, Conn});

  auto R = C->callRetryParsed(serializeSimpleRequest(Op::Ping, "p"));
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().Message;
  EXPECT_EQ(R->Status, "ok");
  EXPECT_EQ(fault::Injector::instance().shots("socket.connect"), 1u);

  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeRetry, GivesUpAfterMaxAttempts) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  RetryPolicy RP;
  RP.MaxAttempts = 3;
  RP.BaseDelayMs = 1;
  RP.Seed = 7;
  auto C = Client::connect(F.T.str("d.sock"), -1, RP);
  ASSERT_TRUE(static_cast<bool>(C));

  fault::FaultSpec S;
  S.Site = "socket.write";
  S.Probability = 1.0; // every write dies
  S.Err = EPIPE;
  fault::ScopedFaults Faults(7, {S});

  auto R = C->callRetry(serializeSimpleRequest(Op::Ping, "p"));
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().Message.find("3 attempts"), std::string::npos)
      << R.error().Message;

  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

TEST(ServeRetry, HonoursTheTotalDeadline) {
  RetryPolicy RP;
  RP.MaxAttempts = 1000;
  RP.BaseDelayMs = 20;
  RP.MaxDelayMs = 50;
  RP.TotalDeadlineMs = 150;
  RP.Seed = 7;
  TempDir T;
  // Nothing is listening: every attempt fails at connect.
  auto C = Client::connect(T.str("nothing.sock"), -1, RP);
  ASSERT_FALSE(static_cast<bool>(C)); // connect itself fails

  // callRetry against a vanished daemon: bounded by the deadline, not by
  // the 1000 attempts.
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  auto C2 = Client::connect(F.T.str("d.sock"), -1, RP);
  ASSERT_TRUE(static_cast<bool>(C2));
  F.D->requestDrain();
  ASSERT_EQ(F.D->waitUntilDrained(), 0); // daemon gone, socket unlinked
  auto T0 = std::chrono::steady_clock::now();
  auto R = C2->callRetry(serializeSimpleRequest(Op::Ping, "p"));
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_LT(Ms, 5000) << "deadline must bound the whole retry loop";
}

TEST(ServeRetry, TerminalRejectionsAreNotRetried) {
  DaemonFixture F;
  ASSERT_TRUE(static_cast<bool>(F.D->start()));
  RetryPolicy RP;
  RP.MaxAttempts = 5;
  RP.BaseDelayMs = 1;
  auto C = Client::connect(F.T.str("d.sock"), -1, RP);
  ASSERT_TRUE(static_cast<bool>(C));
  // A malformed eval is rejected deterministically — exactly one request
  // reaches the daemon, not five.
  auto R = C->callRetryParsed(
      "{\"schema\": \"cerb-serve/1\", \"op\": \"eval\"}");
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->Status, "error");
  EXPECT_EQ(F.D->snapshot().Requests, 1u);
  F.D->requestDrain();
  EXPECT_EQ(F.D->waitUntilDrained(), 0);
}

//===----------------------------------------------------------------------===//
// Protocol decode fuzz (satellite: seeded random + mutated valid frames)
//===----------------------------------------------------------------------===//

TEST(ServeFuzz, RandomByteStreamsNeverCrashTheDecoder) {
  std::mt19937_64 Rng(0xC0FFEE);
  for (int I = 0; I < 500; ++I) {
    size_t Len = Rng() % 300;
    std::string Payload(Len, '\0');
    for (char &C : Payload)
      C = static_cast<char>(Rng() & 0xFF);
    auto Req = parseRequest(Payload);   // must return, not crash/hang
    auto Resp = parseResponse(Payload); // ditto
    (void)Req;
    (void)Resp;
  }
}

TEST(ServeFuzz, MutatedValidFramesNeverCrashTheDecoder) {
  EvalRequest Q = basicRequest();
  Q.Policies = {mem::MemoryPolicy::defacto(), mem::MemoryPolicy::cheri()};
  const std::string Valid = serializeEvalRequest(Q);
  std::mt19937_64 Rng(0xDECAF);
  for (int I = 0; I < 500; ++I) {
    std::string M = Valid;
    switch (Rng() % 4) {
    case 0: // flip one byte
      M[Rng() % M.size()] = static_cast<char>(Rng() & 0xFF);
      break;
    case 1: // truncate
      M.resize(Rng() % M.size());
      break;
    case 2: // duplicate a chunk
      M += M.substr(Rng() % M.size());
      break;
    case 3: { // splice random garbage into the middle
      size_t At = Rng() % M.size();
      std::string Junk(Rng() % 16, '\0');
      for (char &C : Junk)
        C = static_cast<char>(Rng() & 0xFF);
      M.insert(At, Junk);
      break;
    }
    }
    auto Req = parseRequest(M);
    (void)Req;
  }
}

TEST(ServeFuzz, DeeplyNestedDocumentsAreErrorsNotStackOverflows) {
  // 100k levels would previously recurse the parser off the stack.
  std::string Deep(100000, '[');
  EXPECT_FALSE(json::parse(Deep).has_value());
  std::string DeepObj;
  for (int I = 0; I < 50000; ++I)
    DeepObj += "{\"a\":";
  EXPECT_FALSE(json::parse(DeepObj).has_value());
  // The bound is generous for real documents: 64 levels still parse.
  std::string Ok(64, '[');
  Ok += std::string(64, ']');
  EXPECT_TRUE(json::parse(Ok).has_value());
}

TEST(ServeFuzz, CheckedInCorpusReplays) {
  // Regression corpus of once-interesting decoder inputs. Every file must
  // decode without crashing; none may be accepted as a valid request
  // (they are all malformed by construction).
  fs::path Dir = fs::path(CERB_SOURCE_DIR) / "tests" / "corpus" / "serve";
  ASSERT_TRUE(fs::exists(Dir)) << Dir;
  size_t N = 0;
  for (const auto &E : fs::directory_iterator(Dir)) {
    if (!E.is_regular_file())
      continue;
    ++N;
    std::ifstream In(E.path(), std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    auto Req = parseRequest(Bytes);
    EXPECT_FALSE(static_cast<bool>(Req))
        << E.path() << " unexpectedly parsed as a valid request";
  }
  EXPECT_GE(N, 6u) << "corpus went missing";
}
