//===-- tests/test_trace.cpp - the src/trace observability layer ----------===//
//
// The trace layer's contracts: counters sum correctly under concurrent
// increments (striped relaxed atomics lose nothing); Registry deltas keep
// only nonzero entries and honor a prefix filter; the disabled path
// creates no per-thread buffers (the zero-cost guarantee); the Chrome
// trace-event serialization is well-formed JSON with correct span
// nesting, per-thread track attribution, and args; and tracing does not
// perturb oracle report bytes (counters are always on, events are gated,
// so --trace changes nothing the report serializes).
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "oracle/Oracle.h"
#include "oracle/Report.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <thread>

using namespace cerb;

namespace {

/// Arms tracing for one test body and guarantees it is disarmed on every
/// exit path, so a failing assertion cannot leak an enabled session into
/// the next test when the binary runs whole (outside ctest's
/// one-process-per-test harness).
struct Session {
  Session() { trace::start(); }
  ~Session() { trace::stop(); }
};

/// The events of one serialized trace document, flattened for assertions.
struct Doc {
  json::Value Root;
  std::vector<const json::Value *> Events;

  static Doc parse(const std::string &Text) {
    Doc D;
    std::string Err;
    auto V = json::parse(Text, &Err);
    EXPECT_TRUE(V.has_value()) << Err;
    if (V) {
      D.Root = std::move(*V);
      const json::Value *Evs = D.Root.get("traceEvents");
      EXPECT_NE(Evs, nullptr);
      if (Evs)
        for (const json::Value &E : Evs->Arr)
          D.Events.push_back(&E);
    }
    return D;
  }

  const json::Value *findEvent(std::string_view Name) const {
    for (const json::Value *E : Events)
      if (const json::Value *N = E->get("name"); N && N->asString() == Name)
        return E;
    return nullptr;
  }

  /// tid of the thread_name metadata record carrying \p Track.
  uint64_t tidOfTrack(std::string_view Track) const {
    for (const json::Value *E : Events) {
      const json::Value *Ph = E->get("ph");
      if (!Ph || Ph->asString() != "M")
        continue;
      const json::Value *Args = E->get("args");
      const json::Value *N = Args ? Args->get("name") : nullptr;
      if (N && N->asString() == Track)
        return E->get("tid")->asU64();
    }
    return 0;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Counters and the Registry
//===----------------------------------------------------------------------===//

TEST(TraceCounters, ConcurrentIncrementsAllLand) {
  static trace::Counter Cnt("test.concurrent");
  uint64_t Before = Cnt.value();

  ThreadPool Pool(8);
  for (int I = 0; I < 1000; ++I)
    Pool.submit([] { Cnt.add(3); });
  Pool.wait();

  EXPECT_EQ(Cnt.value(), Before + 3000u);

  // The registry snapshot sees the same total under the same name.
  trace::Registry::Snapshot S = trace::Registry::instance().snapshot();
  ASSERT_TRUE(S.count("test.concurrent"));
  EXPECT_EQ(S["test.concurrent"], Cnt.value());
}

TEST(TraceRegistry, DeltaKeepsNonzeroEntriesOnly) {
  static trace::Counter Moved("test.delta.moved");
  static trace::Counter Still("test.delta.still");
  (void)Still; // registered but never incremented between the snapshots

  trace::Registry::Snapshot Before = trace::Registry::instance().snapshot();
  Moved.add(7);
  trace::Registry::Snapshot After = trace::Registry::instance().snapshot();

  trace::Registry::Snapshot D = trace::Registry::delta(Before, After);
  EXPECT_EQ(D["test.delta.moved"], 7u);
  EXPECT_FALSE(D.count("test.delta.still"));
}

TEST(TraceRegistry, SameNamedCountersAreSummed) {
  // Two call sites counting one event each own a counter of that name.
  static trace::Counter First("test.shared");
  static trace::Counter Second("test.shared");

  trace::Registry::Snapshot Before = trace::Registry::instance().snapshot();
  First.add(3);
  Second.add(4);
  trace::Registry::Snapshot After = trace::Registry::instance().snapshot();

  EXPECT_EQ(After["test.shared"], First.value() + Second.value());
  EXPECT_EQ(trace::Registry::delta(Before, After)["test.shared"], 7u);
}

TEST(TraceRegistry, DeltaPrefixFilterSelectsNamespace) {
  static trace::Counter In("testpfx.inside");
  static trace::Counter Out("test.outside");

  trace::Registry::Snapshot Before = trace::Registry::instance().snapshot();
  In.add(2);
  Out.add(5);
  trace::Registry::Snapshot After = trace::Registry::instance().snapshot();

  trace::Registry::Snapshot D =
      trace::Registry::delta(Before, After, "testpfx.");
  EXPECT_EQ(D.size(), 1u);
  EXPECT_EQ(D["testpfx.inside"], 2u);
}

//===----------------------------------------------------------------------===//
// The disabled path
//===----------------------------------------------------------------------===//

TEST(TraceDisabled, NoBufferCreatedAndNoEventRetained) {
  trace::stop();
  ASSERT_FALSE(trace::enabled());
  size_t BuffersBefore = trace::internal::threadBufferCount();

  // A fresh thread records spans and instants with tracing disabled: it
  // must never materialize a per-thread buffer (the zero-cost contract —
  // an allocation here would show up as buffer growth).
  std::thread T([] {
    trace::setCurrentThreadName("should-not-appear");
    for (int I = 0; I < 100; ++I) {
      trace::Span S("disabled-span", "test");
      EXPECT_FALSE(S.active());
      S.arg("ignored", 1);
      trace::instant("disabled-instant", "test");
    }
  });
  T.join();

  EXPECT_EQ(trace::internal::threadBufferCount(), BuffersBefore);

  // And a session that never saw those events serializes none of them.
  {
    Session Armed;
  }
  Doc D = Doc::parse(trace::chromeTraceJson());
  EXPECT_EQ(D.findEvent("disabled-span"), nullptr);
  EXPECT_EQ(D.findEvent("disabled-instant"), nullptr);
}

//===----------------------------------------------------------------------===//
// Chrome trace-event serialization
//===----------------------------------------------------------------------===//

TEST(TraceChrome, SpanNestingThreadTracksAndArgs) {
  std::string Text;
  {
    Session Armed;
    trace::setCurrentThreadName("test-main");
    {
      trace::Span Outer("outer", "test");
      Outer.arg("n", 42);
      {
        trace::Span Inner("inner", "test");
        Inner.detail("the detail");
      }
      trace::instant("tick", "test", "now");
    }
    std::thread Worker([] {
      trace::setCurrentThreadName("test-worker");
      trace::Span S("worker-span", "test");
    });
    Worker.join();
    trace::stop();
    Text = trace::chromeTraceJson();
  }

  Doc D = Doc::parse(Text);

  // Track attribution: both threads have named metadata records, and each
  // event sits on its own thread's tid.
  uint64_t MainTid = D.tidOfTrack("test-main");
  uint64_t WorkerTid = D.tidOfTrack("test-worker");
  ASSERT_NE(MainTid, 0u);
  ASSERT_NE(WorkerTid, 0u);
  EXPECT_NE(MainTid, WorkerTid);

  const json::Value *Outer = D.findEvent("outer");
  const json::Value *Inner = D.findEvent("inner");
  const json::Value *Tick = D.findEvent("tick");
  const json::Value *Work = D.findEvent("worker-span");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Tick, nullptr);
  ASSERT_NE(Work, nullptr);
  EXPECT_EQ(Outer->get("tid")->asU64(), MainTid);
  EXPECT_EQ(Inner->get("tid")->asU64(), MainTid);
  EXPECT_EQ(Tick->get("tid")->asU64(), MainTid);
  EXPECT_EQ(Work->get("tid")->asU64(), WorkerTid);

  // Shape: complete events carry ph X/dur, instants ph i with scope "t".
  EXPECT_EQ(Outer->get("ph")->asString(), "X");
  EXPECT_EQ(Outer->get("cat")->asString(), "test");
  EXPECT_EQ(Tick->get("ph")->asString(), "i");
  EXPECT_EQ(Tick->get("s")->asString(), "t");
  EXPECT_EQ(Tick->get("args")->get("detail")->asString(), "now");

  // Args: numeric span arg and detail string both serialize.
  EXPECT_EQ(Outer->get("args")->get("n")->asU64(), 42u);
  EXPECT_EQ(Inner->get("args")->get("detail")->asString(), "the detail");

  // Nesting: the inner interval lies within the outer one, and the
  // instant falls inside the outer span too.
  uint64_t OutBeg = Outer->get("ts")->asU64();
  uint64_t OutEnd = OutBeg + Outer->get("dur")->asU64();
  uint64_t InBeg = Inner->get("ts")->asU64();
  uint64_t InEnd = InBeg + Inner->get("dur")->asU64();
  EXPECT_GE(InBeg, OutBeg);
  EXPECT_LE(InEnd, OutEnd);
  EXPECT_GE(Tick->get("ts")->asU64(), OutBeg);
  EXPECT_LE(Tick->get("ts")->asU64(), OutEnd);
}

TEST(TraceChrome, StartClearsThePreviousSession) {
  {
    Session Armed;
    trace::instant("stale", "test");
  }
  {
    Session Armed;
    trace::instant("fresh", "test");
    trace::stop();
    Doc D = Doc::parse(trace::chromeTraceJson());
    EXPECT_EQ(D.findEvent("stale"), nullptr);
    EXPECT_NE(D.findEvent("fresh"), nullptr);
  }
}

TEST(TraceChrome, DetailStringsAreEscaped) {
  std::string Text;
  {
    Session Armed;
    trace::instant("escaped", "test", "a \"b\"\n\tc\\d");
    trace::stop();
    Text = trace::chromeTraceJson();
  }
  Doc D = Doc::parse(Text); // parse failure would flag broken escaping
  const json::Value *E = D.findEvent("escaped");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->get("args")->get("detail")->asString(), "a \"b\"\n\tc\\d");
}

//===----------------------------------------------------------------------===//
// Tracing does not perturb reports
//===----------------------------------------------------------------------===//

TEST(TraceOracle, ReportBytesIdenticalWithTracingOnOrOff) {
  auto makeJobs = [] {
    std::vector<oracle::Job> Jobs;
    for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets()) {
      oracle::Job J;
      J.Name = "probe";
      J.Source = "int main(void){ int a[2] = {1, 2}; return a[0] + a[1]; }";
      J.Policy = P;
      Jobs.push_back(J);
    }
    return Jobs;
  };
  oracle::OracleConfig Cfg;
  Cfg.Threads = 4;
  oracle::ReportOptions RO;
  RO.IncludeTimings = false;

  trace::stop();
  oracle::BatchResult Off = oracle::Oracle(Cfg).run(makeJobs());
  std::string OffJson = oracle::toJson(Off, RO);

  std::string OnJson;
  {
    Session Armed;
    oracle::BatchResult On = oracle::Oracle(Cfg).run(makeJobs());
    OnJson = oracle::toJson(On, RO);
  }

  // Counters are always on and events are gated, so arming tracing must
  // not change a single report byte (the --trace acceptance contract).
  EXPECT_EQ(OffJson, OnJson);

  // The embedded counter delta reflects the batch that produced it.
  EXPECT_GT(Off.Stats.Counters["oracle.jobs"], 0u);
  EXPECT_GT(Off.Stats.Counters["exec.eval_runs"], 0u);
  std::string Err;
  auto Parsed = json::parse(OffJson, &Err);
  ASSERT_TRUE(Parsed.has_value()) << Err;
  const json::Value *Stats = Parsed->get("stats");
  ASSERT_NE(Stats, nullptr);
  const json::Value *Counters = Stats->get("counters");
  ASSERT_NE(Counters, nullptr);
  const json::Value *Jobs = Counters->get("oracle.jobs");
  ASSERT_NE(Jobs, nullptr);
  EXPECT_EQ(Jobs->asU64(), Off.Stats.Counters["oracle.jobs"]);
}
