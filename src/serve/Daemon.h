//===-- serve/Daemon.h - The persistent evaluation daemon -------*- C++ -*-===//
///
/// \file
/// `cerbd`: a long-lived evaluation service over unix-domain (and
/// optionally loopback-TCP) sockets speaking the `cerb-serve/1` protocol.
/// Architecture:
///
///  - an accept thread multiplexes the listeners and a self-pipe (the
///    drain signal) with poll();
///  - one reader thread per connection parses frames and answers
///    ping/stats inline; eval requests pass *admission control*: while
///    Draining they are rejected with `draining`, and once
///    queued-plus-running requests reach MaxQueue they are rejected with
///    `overloaded` — bounded queue and an explicit backpressure signal
///    instead of unbounded growth. Readers are detached and retire
///    themselves the moment their peer goes away (descriptor released
///    immediately, not at drain), use deadline-aware frame reads so a
///    partial or garbage frame can never hang them (IdleTimeoutMs reaps
///    silent peers, ReadTimeoutMs bounds a started frame), and MaxConns
///    caps concurrent connections with an explicit `conn_limit` rejection
///    at accept time;
///  - admitted requests run on the shared support::ThreadPool. Each task
///    consults the two-tier cache (ResultCache over the report bytes;
///    the daemon-resident exec::CompileCache underneath for elaborations,
///    LRU-bounded by `--compile-cache-mb`), evaluates on a miss, stores,
///    and writes the response under the connection's write mutex
///    (concurrent requests on one connection interleave safely; responses
///    carry ids, order is not guaranteed);
///  - a `batch` frame is admitted as a whole (it needs N free queue slots
///    or it is rejected `overloaded` in one frame) and fans its requests
///    out across the same pool; each member streams its ordinary eval
///    response back as it completes, and the last one emits the
///    `batch_done` terminator.
///
/// Graceful drain (SIGTERM via requestDrain(), or the `shutdown` op):
/// stop accepting, reject new evals, *finish every admitted request* (zero
/// drops), retire connection readers, flush the cache index, release the
/// sockets. waitUntilDrained() returns only after all of that.
///
/// Observability: `serve.*` trace counters (requests, admissions,
/// rejections, cache hits/misses/evictions via ResultCache) and per-request
/// `serve.request` spans — `cerb serve --trace=FILE` profiles a whole
/// daemon lifetime.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_SERVE_DAEMON_H
#define CERB_SERVE_DAEMON_H

#include "exec/CompileCache.h"
#include "serve/Eval.h"
#include "serve/Protocol.h"
#include "serve/ResultCache.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cerb::serve {

struct DaemonConfig {
  /// Unix-domain socket path (empty = no unix listener).
  std::string SocketPath;
  /// Loopback TCP port; -1 = no TCP listener, 0 = kernel-assigned (read it
  /// back with Daemon::tcpPort()).
  int TcpPort = -1;
  /// Evaluation worker threads (0 = hardware concurrency).
  unsigned Threads = 0;
  /// Admission bound: maximum queued-plus-running eval requests. Beyond
  /// it, requests are answered `overloaded` immediately.
  uint64_t MaxQueue = 256;
  /// Concurrent-connection cap: connections accepted beyond it receive a
  /// `conn_limit` rejection frame and are closed (0 = unlimited).
  uint64_t MaxConns = 0;
  /// Reap a connection whose peer sends nothing for this long between
  /// frames (0 = never reap). Reaped peers simply reconnect.
  uint64_t IdleTimeoutMs = 0;
  /// Once a frame's first byte arrives the rest must follow within this
  /// window (0 = wait forever). Bounds the damage of a torn or trickling
  /// frame: the reader closes the connection instead of hanging.
  uint64_t ReadTimeoutMs = 0;
  CacheConfig Cache;
  /// LRU byte budget of the daemon-resident compile cache, in MiB
  /// (`--compile-cache-mb`; 0 = unbounded). With a budget, an entry is
  /// charged the bytes its compiled Core program holds plus its source
  /// bytes (see exec::CompileCache), so this bounds the memory the cache
  /// keeps; an unbounded cache charges, and its `bytes` stat counts, the
  /// source bytes and a fixed overhead only. start() refuses a count above
  /// MaxCompileCacheMb.
  uint64_t CompileCacheMb = 256;
  /// The largest CompileCacheMb whose byte count fits 64 bits.
  static constexpr uint64_t MaxCompileCacheMb = UINT64_MAX >> 20;
  /// Honour the `shutdown` op (tests and the CLI default); a deployment
  /// that only trusts signals can turn it off.
  bool EnableShutdownOp = true;
  bool Quiet = true;
};

/// Point-in-time operational numbers (the `stats` op serializes these).
struct DaemonSnapshot {
  uint64_t InFlight = 0;
  uint64_t QueueHighWater = 0;
  uint64_t Requests = 0; ///< frames parsed (all ops)
  uint64_t Admitted = 0;
  uint64_t Overloaded = 0;
  uint64_t RejectedDraining = 0;
  uint64_t RejectedConnLimit = 0; ///< accepts bounced off MaxConns
  uint64_t IdleReaped = 0;        ///< connections reaped by IdleTimeoutMs
  uint64_t ReadTimeouts = 0;      ///< frames that stalled past ReadTimeoutMs
  uint64_t BadFrames = 0;         ///< oversize/torn frames that ended a conn
  uint64_t LiveConns = 0;         ///< reader threads currently alive
  bool Draining = false;
};

class Daemon {
public:
  explicit Daemon(DaemonConfig Cfg);
  /// Drains and stops if still running (idempotent with waitUntilDrained).
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds the listeners and starts the accept thread + worker pool.
  ExpectedVoid start();

  /// Initiates a graceful drain. Thread-safe; also safe from a signal
  /// handler *indirectly*: handlers should instead `write()` one byte to
  /// drainFd() (async-signal-safe), which is exactly what this does.
  void requestDrain();
  /// The self-pipe write end; `write(fd, "x", 1)` from a SIGTERM handler
  /// triggers the drain.
  int drainFd() const { return WakeWrite.get(); }

  /// Blocks until a drain completes: every admitted request answered, all
  /// threads joined, cache index flushed, sockets released. Returns 0.
  int waitUntilDrained();

  /// Kernel-assigned port when TcpPort was 0.
  uint16_t tcpPort() const { return BoundTcpPort; }

  DaemonSnapshot snapshot() const;
  /// The `stats` reply body.
  std::string statsJson() const;
  const ResultCache &cache() const { return Results; }
  const exec::CompileCache &compileCache() const { return Compiles; }
  unsigned threadCount() const { return Pool ? Pool->threadCount() : 0; }

private:
  struct Conn {
    net::Fd Sock;
    std::mutex WriteMu;
  };

  /// Shared fan-out state of one admitted batch: the last request to
  /// finish (Remaining hits zero) sends the terminating batch_done frame.
  /// Completed counts replies actually written — every worker increments
  /// it *before* decrementing Remaining, so the terminator's summary sees
  /// all of them.
  struct BatchTicket {
    std::shared_ptr<Conn> C;
    std::string BatchId;
    uint64_t Requested = 0;
    std::atomic<uint64_t> Remaining{0};
    std::atomic<uint64_t> Completed{0};
  };

  void acceptLoop();
  void connLoop(std::shared_ptr<Conn> C);
  /// Dispatches one frame; false ends the connection.
  bool handleFrame(const std::shared_ptr<Conn> &C, const std::string &Frame);
  void runEval(std::shared_ptr<Conn> C, EvalRequest Q);
  /// One batch member on the pool: evaluate, reply, retire one InFlight
  /// slot; the last member emits the batch_done terminator. \p Key is the
  /// cache key the reader thread already computed (and probed, missing) on
  /// the inline fast path — empty when that probe did not happen.
  void runBatchEval(std::shared_ptr<BatchTicket> T, EvalRequest Q,
                    std::string Key);
  /// The shared eval core: result-cache probe, evaluate on miss, store.
  /// A non-empty \p ProbedKey means the caller already probed that key and
  /// missed — the probe (and its stats counting) is not repeated.
  std::string evalBody(const EvalRequest &Q, std::string ProbedKey = {});
  bool send(Conn &C, std::string_view Payload);

  DaemonConfig Cfg;
  ResultCache Results;
  exec::CompileCache Compiles; ///< daemon-lifetime elaboration sharing
  std::unique_ptr<ThreadPool> Pool;

  net::Fd ListenUnix, ListenTcp;
  net::Fd WakeRead, WakeWrite; ///< drain self-pipe
  uint16_t BoundTcpPort = 0;
  bool Started = false, Drained = false;

  std::thread Acceptor;
  mutable std::mutex ConnMu;
  /// Live connections only: a reader erases its Conn on exit, so the
  /// descriptor is released the moment the peer goes away (the shared_ptr
  /// keeps it alive for any still-running evals on that connection).
  std::vector<std::shared_ptr<Conn>> Conns;

  mutable std::mutex StateMu;
  std::condition_variable DrainCV;
  std::atomic<bool> Draining{false};
  uint64_t InFlight = 0;
  /// Detached reader threads still running (guarded by StateMu; drain
  /// waits for zero — the detached-thread analogue of join()).
  uint64_t ConnThreadsLive = 0;
  DaemonSnapshot Stats;
};

} // namespace cerb::serve

#endif // CERB_SERVE_DAEMON_H
