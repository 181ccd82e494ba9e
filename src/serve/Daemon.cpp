//===-- serve/Daemon.cpp --------------------------------------------------===//

#include "serve/Daemon.h"

#include "support/FaultInjector.h"
#include "trace/Trace.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace cerb;
using namespace cerb::serve;

namespace {

trace::Counter &cntRequests() {
  static trace::Counter C("serve.requests");
  return C;
}
trace::Counter &cntAdmitted() {
  static trace::Counter C("serve.admitted");
  return C;
}
trace::Counter &cntOverloaded() {
  static trace::Counter C("serve.overloaded");
  return C;
}
trace::Counter &cntRejectedDraining() {
  static trace::Counter C("serve.rejected_draining");
  return C;
}
trace::Counter &cntConnections() {
  static trace::Counter C("serve.connections");
  return C;
}
trace::Counter &cntConnLimit() {
  static trace::Counter C("serve.rejected_conn_limit");
  return C;
}
trace::Counter &cntIdleReaped() {
  static trace::Counter C("serve.idle_reaped");
  return C;
}
trace::Counter &cntReadTimeouts() {
  static trace::Counter C("serve.read_timeouts");
  return C;
}
trace::Counter &cntBadFrames() {
  static trace::Counter C("serve.bad_frames");
  return C;
}

} // namespace

Daemon::Daemon(DaemonConfig Cfg)
    : Cfg(std::move(Cfg)), Results(this->Cfg.Cache),
      Compiles(this->Cfg.CompileCacheMb * 1024 * 1024) {}

Daemon::~Daemon() {
  if (Started && !Drained) {
    requestDrain();
    waitUntilDrained();
  }
}

ExpectedVoid Daemon::start() {
  if (Started)
    return err("daemon already started");
  if (Cfg.SocketPath.empty() && Cfg.TcpPort < 0 && Cfg.InheritedUnixFd < 0)
    return err("daemon has no listener (need a socket path or a TCP port)");

  if (Cfg.InheritedUnixFd >= 0) {
    // Worker mode: adopt the supervisor's canonical listening socket. The
    // description is shared by every worker, so it must be non-blocking —
    // poll() wakes all of them per connection and only one accept() wins;
    // the losers need EAGAIN, not a blocked accept that never sees drain.
    ListenUnix = net::Fd(Cfg.InheritedUnixFd);
    net::setNonBlocking(ListenUnix.get());
  } else if (!Cfg.SocketPath.empty()) {
    auto L = net::listenUnix(Cfg.SocketPath);
    if (!L)
      return L.takeError();
    ListenUnix = std::move(*L);
  }
  if (Cfg.TcpPort >= 0) {
    auto L = net::listenTcp(static_cast<uint16_t>(Cfg.TcpPort), &BoundTcpPort,
                            64, Cfg.TcpReuseport);
    if (!L)
      return L.takeError();
    ListenTcp = std::move(*L);
  }

  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return err("daemon self-pipe creation failed");
  WakeRead = net::Fd(Pipe[0]);
  WakeWrite = net::Fd(Pipe[1]);

  unsigned Threads = Cfg.Threads ? Cfg.Threads
                                 : std::max(1u, std::thread::hardware_concurrency());
  Pool = std::make_unique<ThreadPool>(Threads);

  Started = true;
  Acceptor = std::thread([this] {
    trace::setCurrentThreadName("cerbd-accept");
    acceptLoop();
  });

  if (!Cfg.Quiet) {
    std::string Where;
    if (ListenUnix.valid())
      Where += "unix:" + Cfg.SocketPath;
    if (ListenTcp.valid()) {
      if (!Where.empty())
        Where += ", ";
      Where += "tcp:127.0.0.1:" + std::to_string(BoundTcpPort);
    }
    std::fprintf(stderr, "cerbd: listening on %s (%u workers, queue %llu%s)\n",
                 Where.c_str(), Threads,
                 static_cast<unsigned long long>(Cfg.MaxQueue),
                 Results.persistent() ? ", persistent cache" : "");
  }
  return ExpectedVoid();
}

void Daemon::requestDrain() {
  if (!WakeWrite.valid())
    return;
  // One byte on the self-pipe; identical to what a SIGTERM handler does
  // with drainFd(). Repeat calls are harmless (the pipe just buffers).
  char B = 'x';
  ssize_t R;
  do
    R = ::write(WakeWrite.get(), &B, 1);
  while (R < 0 && errno == EINTR);
}

void Daemon::acceptLoop() {
  for (;;) {
    struct pollfd Fds[3];
    nfds_t N = 0;
    Fds[N++] = {WakeRead.get(), POLLIN, 0};
    int UnixIdx = -1, TcpIdx = -1;
    if (ListenUnix.valid()) {
      UnixIdx = static_cast<int>(N);
      Fds[N++] = {ListenUnix.get(), POLLIN, 0};
    }
    if (ListenTcp.valid()) {
      TcpIdx = static_cast<int>(N);
      Fds[N++] = {ListenTcp.get(), POLLIN, 0};
    }
    int R = ::poll(Fds, N, -1);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break; // listener invalidated under us; treat as drain
    }
    if (Fds[0].revents)
      break; // drain requested
    for (int Idx : {UnixIdx, TcpIdx}) {
      if (Idx < 0 || !(Fds[Idx].revents & POLLIN))
        continue;
      net::Fd Sock = net::acceptOn(Fds[Idx].fd);
      if (!Sock.valid())
        continue;
      // Connection cap: reject at the door with an explicit status frame
      // so the client can back off and retry, instead of queueing reader
      // threads without bound.
      bool OverCap = false;
      {
        std::lock_guard<std::mutex> L(StateMu);
        if (Cfg.MaxConns && ConnThreadsLive >= Cfg.MaxConns) {
          OverCap = true;
          ++Stats.RejectedConnLimit;
        } else {
          ++ConnThreadsLive; // the reader we are about to spawn
        }
      }
      if (OverCap) {
        cntConnLimit().add();
        // Best-effort courtesy frame; a stuffed send buffer must not stall
        // the accept loop, so bound the write and close regardless.
        net::setIoTimeout(Sock.get(), 100);
        net::writeFrame(Sock.get(),
                        rejectResponse("", "conn_limit",
                                       "connection limit " +
                                           std::to_string(Cfg.MaxConns)));
        continue; // Sock's destructor closes it
      }
      cntConnections().add();
      auto C = std::make_shared<Conn>();
      C->Sock = std::move(Sock);
      {
        std::lock_guard<std::mutex> L(ConnMu);
        Conns.push_back(C);
      }
      // Detached: the reader retires itself (and releases the descriptor)
      // the moment its peer goes away. Drain waits on ConnThreadsLive
      // instead of join().
      std::thread([this, C]() mutable {
        trace::setCurrentThreadName("cerbd-conn");
        connLoop(std::move(C));
      }).detach();
    }
  }
  // Entering drain: from here every new eval is rejected with "draining".
  {
    std::lock_guard<std::mutex> L(StateMu);
    Draining.store(true);
    Stats.Draining = true;
  }
  DrainCV.notify_all();
}

void Daemon::connLoop(std::shared_ptr<Conn> C) {
  const int IdleMs =
      Cfg.IdleTimeoutMs ? static_cast<int>(Cfg.IdleTimeoutMs) : -1;
  const int FrameMs =
      Cfg.ReadTimeoutMs ? static_cast<int>(Cfg.ReadTimeoutMs) : -1;
  std::string Frame;
  for (;;) {
    net::RecvStatus St = net::readFrameTimed(C->Sock.get(), Frame,
                                             net::DefaultMaxFrame, IdleMs,
                                             FrameMs);
    if (St == net::RecvStatus::Frame) {
      if (!handleFrame(C, Frame))
        break;
      continue;
    }
    if (St == net::RecvStatus::Idle) {
      {
        std::lock_guard<std::mutex> L(StateMu);
        ++Stats.IdleReaped;
      }
      cntIdleReaped().add();
    } else if (St == net::RecvStatus::Timeout) {
      {
        std::lock_guard<std::mutex> L(StateMu);
        ++Stats.ReadTimeouts;
      }
      cntReadTimeouts().add();
      send(*C, rejectResponse("", "timeout", "frame read timed out"));
    } else if (St == net::RecvStatus::Oversize ||
               St == net::RecvStatus::Error) {
      // Oversize length prefix or a frame torn mid-body: the stream is
      // desynchronized, so after a best-effort rejection the only safe
      // move is to close. (Error also covers plain ECONNRESET — cheap to
      // count, harmless to over-count.)
      {
        std::lock_guard<std::mutex> L(StateMu);
        ++Stats.BadFrames;
      }
      cntBadFrames().add();
      if (St == net::RecvStatus::Oversize)
        send(*C, rejectResponse("", "bad_request", "frame exceeds size cap"));
    }
    break; // Eof / Idle / Timeout / Oversize / Error all end the connection
  }
  // Reader exit (peer EOF, I/O error, reap, or drain's shutdownBoth):
  // release the daemon's reference so the descriptor closes as soon as any
  // still-running evals drop theirs — not at drain time.
  {
    std::lock_guard<std::mutex> L(ConnMu);
    Conns.erase(std::remove(Conns.begin(), Conns.end(), C), Conns.end());
  }
  C.reset();
  // Decrement-and-notify under StateMu: the drain waiter cannot wake (and
  // start destroying the daemon) until this thread has released the lock,
  // after which it touches only its own stack.
  {
    std::lock_guard<std::mutex> L(StateMu);
    --ConnThreadsLive;
    DrainCV.notify_all();
  }
}

bool Daemon::handleFrame(const std::shared_ptr<Conn> &C,
                         const std::string &Frame) {
  cntRequests().add();
  {
    std::lock_guard<std::mutex> L(StateMu);
    ++Stats.Requests;
  }
  auto Req = parseRequest(Frame);
  if (!Req)
    return send(*C, rejectResponse("", "error", Req.error().Message));

  switch (Req->Kind) {
  case Op::Ping:
    return send(*C, okSimpleResponse(Req->Id, "pong", "true"));
  case Op::Stats:
    return send(*C, okSimpleResponse(Req->Id, "stats", statsJson()));
  case Op::Shutdown: {
    if (!Cfg.EnableShutdownOp)
      return send(*C, rejectResponse(Req->Id, "error",
                                     "shutdown op disabled on this daemon"));
    bool Ok = send(*C, okSimpleResponse(Req->Id, "stopping", "true"));
    // Supervised worker: hand the shutdown to the supervisor so the whole
    // pool drains, not just the worker that happened to read the frame.
    if (Cfg.ShutdownDelegate && Cfg.ShutdownDelegate())
      return Ok;
    requestDrain();
    return Ok;
  }
  case Op::Eval:
  case Op::Batch:
    break;
  }

  // Admission control for evals: bounded queue, explicit rejection. A
  // batch is admitted whole — it needs Size free slots or it is rejected
  // in one frame (partial admission would tangle the reply stream).
  const uint64_t Size =
      Req->Kind == Op::Batch ? Req->Batch.Requests.size() : 1;
  const char *Reject = nullptr;
  {
    std::lock_guard<std::mutex> L(StateMu);
    if (Draining.load()) {
      ++Stats.RejectedDraining;
      cntRejectedDraining().add();
      Reject = "draining";
    } else if (InFlight + Size > Cfg.MaxQueue) {
      ++Stats.Overloaded;
      cntOverloaded().add();
      Reject = "overloaded";
    } else {
      InFlight += Size;
      Stats.Admitted += Size;
      cntAdmitted().add(Size);
      Stats.QueueHighWater = std::max(Stats.QueueHighWater, InFlight);
    }
  }
  if (Reject)
    return send(*C, rejectResponse(Req->Id, Reject,
                                   std::string("queue limit ") +
                                       std::to_string(Cfg.MaxQueue)));

  if (Req->Kind == Op::Batch) {
    auto T = std::make_shared<BatchTicket>();
    T->C = C;
    T->BatchId = Req->Batch.Id;
    T->Requested = Size;
    T->Remaining.store(Size);
    // Warm fast path: members already in the result cache are answered
    // right here on the reader thread, their frames coalesced into one
    // write — no pool hand-off, no per-reply client wakeup. Only genuine
    // misses (and NoCache members) fan out to the workers. The reply
    // bytes are identical either way (okEvalResponse over the same stored
    // body), so the determinism goldens cannot tell the paths apart.
    std::string Coalesced;
    uint64_t Inline = 0;
    std::vector<std::pair<EvalRequest *, std::string>> Misses;
    for (EvalRequest &Q : Req->Batch.Requests) {
      std::optional<std::string> Hit;
      std::string Key;
      if (!Q.NoCache) {
        Key = cacheKeyMaterial(Q);
        Hit = Results.get(Key);
      }
      if (!Hit) {
        // The worker inherits the probed key: no second probe, no
        // double-counted miss, no re-hash of the source.
        Misses.emplace_back(&Q, std::move(Key));
        continue;
      }
      std::string Frame = okEvalResponse(Q.Id, *Hit);
      char Hdr[4] = {static_cast<char>(Frame.size() >> 24),
                     static_cast<char>(Frame.size() >> 16),
                     static_cast<char>(Frame.size() >> 8),
                     static_cast<char>(Frame.size())};
      Coalesced.append(Hdr, 4);
      Coalesced += Frame;
      ++Inline;
    }
    if (Inline) {
      bool Sent;
      {
        std::lock_guard<std::mutex> L(C->WriteMu);
        Sent = net::writeAll(C->Sock.get(), Coalesced.data(),
                             Coalesced.size());
      }
      if (Sent)
        T->Completed.fetch_add(Inline, std::memory_order_acq_rel);
    }
    for (auto &[Q, Key] : Misses)
      Pool->submit([this, T, Q = std::move(*Q), K = std::move(Key)]() mutable {
        runBatchEval(T, std::move(Q), std::move(K));
      });
    // The inline members retire their ticket share only after the misses
    // are on the pool, so batch_done cannot fire while frames are still
    // unsent; when everything was warm this is where it goes out. The
    // inline InFlight slots are released after that send — a racing drain
    // must not shut the socket under a batch_done still being written.
    if (Inline) {
      if (T->Remaining.fetch_sub(Inline, std::memory_order_acq_rel) ==
          Inline)
        send(*C,
             batchDoneResponse(T->BatchId, T->Requested,
                               T->Completed.load(std::memory_order_acquire)));
      {
        std::lock_guard<std::mutex> L(StateMu);
        InFlight -= Inline;
      }
      DrainCV.notify_all();
    }
    return true;
  }

  Pool->submit([this, C, Q = std::move(Req->Eval)]() mutable {
    runEval(C, std::move(Q));
  });
  return true;
}

std::string Daemon::evalBody(const EvalRequest &Q, std::string ProbedKey) {
  // The worker-crash drill: a supervised pool must survive a worker dying
  // mid-eval (restart + client retry = zero drops, replies byte-identical
  // because re-evaluation is deterministic). _Exit skips every destructor
  // — as close to kill -9 as an injector can get from inside.
  if (fault::shouldFail("worker.crash"))
    std::_Exit(86);
  const bool AlreadyMissed = !ProbedKey.empty();
  std::string Key = AlreadyMissed ? std::move(ProbedKey)
                                  : cacheKeyMaterial(Q);
  std::optional<std::string> Body;
  if (!Q.NoCache && !AlreadyMissed)
    Body = Results.get(Key);
  if (!Body) {
    Body = evaluateToReport(Q, Compiles);
    Results.put(Key, *Body);
  }
  return std::move(*Body);
}

void Daemon::runEval(std::shared_ptr<Conn> C, EvalRequest Q) {
  {
    trace::Span ReqSpan("serve.request", "serve");
    if (ReqSpan.active())
      ReqSpan.detail(Q.Name);
    send(*C, okEvalResponse(Q.Id, evalBody(Q)));
  }
  {
    std::lock_guard<std::mutex> L(StateMu);
    --InFlight;
  }
  DrainCV.notify_all();
}

void Daemon::runBatchEval(std::shared_ptr<BatchTicket> T, EvalRequest Q,
                          std::string Key) {
  {
    trace::Span ReqSpan("serve.request", "serve");
    if (ReqSpan.active())
      ReqSpan.detail(Q.Name);
    // The per-request reply is a plain eval response: byte-identical to
    // what a sequential `eval` of the same request would have produced,
    // which is exactly what the batch determinism goldens pin.
    if (send(*T->C, okEvalResponse(Q.Id, evalBody(Q, std::move(Key)))))
      T->Completed.fetch_add(1, std::memory_order_acq_rel);
    if (T->Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      send(*T->C, batchDoneResponse(
                      T->BatchId, T->Requested,
                      T->Completed.load(std::memory_order_acquire)));
  }
  {
    std::lock_guard<std::mutex> L(StateMu);
    --InFlight;
  }
  DrainCV.notify_all();
}

bool Daemon::send(Conn &C, std::string_view Payload) {
  std::lock_guard<std::mutex> L(C.WriteMu);
  return net::writeFrame(C.Sock.get(), Payload);
}

int Daemon::waitUntilDrained() {
  {
    std::unique_lock<std::mutex> L(StateMu);
    DrainCV.wait(L, [this] { return Draining.load() && InFlight == 0; });
  }
  // Every admitted request has been answered (zero drops). Tear down:
  // acceptor first (it already broke out of poll), then unblock the
  // connection readers and wait for the live count to hit zero (the
  // detached-thread analogue of join), then retire the pool and flush the
  // cache.
  if (Acceptor.joinable())
    Acceptor.join();
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (auto &C : Conns)
      if (C->Sock.valid())
        net::shutdownBoth(C->Sock.get());
  }
  {
    std::unique_lock<std::mutex> L(StateMu);
    DrainCV.wait(L, [this] { return ConnThreadsLive == 0; });
  }
  if (Pool) {
    Pool->wait();
    Pool.reset();
  }
  Results.flushIndex();
  ListenUnix.reset();
  ListenTcp.reset();
  if (!Cfg.SocketPath.empty())
    ::unlink(Cfg.SocketPath.c_str());
  Drained = true;
  if (!Cfg.Quiet)
    std::fprintf(stderr, "cerbd: drained cleanly\n");
  return 0;
}

DaemonSnapshot Daemon::snapshot() const {
  std::lock_guard<std::mutex> L(StateMu);
  DaemonSnapshot Out = Stats;
  Out.InFlight = InFlight;
  Out.LiveConns = ConnThreadsLive;
  Out.Draining = Draining.load();
  return Out;
}

std::string Daemon::statsJson(bool IncludeExtra) const {
  DaemonSnapshot D = snapshot();
  CacheStats CS = Results.stats();
  auto N = [](uint64_t V) { return std::to_string(V); };
  std::string J = "{";
  J += "\"in_flight\": " + N(D.InFlight);
  J += ", \"max_queue\": " + N(Cfg.MaxQueue);
  J += ", \"queue_high_water\": " + N(D.QueueHighWater);
  J += ", \"draining\": " + std::string(D.Draining ? "true" : "false");
  J += ", \"requests\": " + N(D.Requests);
  J += ", \"admitted\": " + N(D.Admitted);
  J += ", \"overloaded\": " + N(D.Overloaded);
  J += ", \"rejected_draining\": " + N(D.RejectedDraining);
  J += ", \"rejected_conn_limit\": " + N(D.RejectedConnLimit);
  J += ", \"idle_reaped\": " + N(D.IdleReaped);
  J += ", \"read_timeouts\": " + N(D.ReadTimeouts);
  J += ", \"bad_frames\": " + N(D.BadFrames);
  J += ", \"live_conns\": " + N(D.LiveConns);
  J += ", \"threads\": " + N(threadCount());
  J += ", \"result_cache\": {";
  J += "\"memory_hits\": " + N(CS.MemoryHits);
  J += ", \"disk_hits\": " + N(CS.DiskHits);
  J += ", \"misses\": " + N(CS.Misses);
  J += ", \"evictions\": " + N(CS.Evictions);
  J += ", \"stores\": " + N(CS.Stores);
  J += ", \"memory_entries\": " + N(CS.MemoryEntries);
  J += ", \"quarantined\": " + N(CS.Quarantined);
  J += ", \"tmp_reclaimed\": " + N(CS.TmpReclaimed);
  J += ", \"index_rebuilt\": " + N(CS.IndexRebuilt);
  J += ", \"persistent\": " + std::string(Results.persistent() ? "true" : "false");
  exec::CompileCacheStats CC = Compiles.stats();
  J += "}, \"compile_cache\": {";
  J += "\"hits\": " + N(CC.Hits);
  J += ", \"misses\": " + N(CC.Misses);
  J += ", \"evictions\": " + N(CC.Evictions);
  J += ", \"bytes\": " + N(CC.Bytes);
  J += ", \"entries\": " + N(CC.Entries);
  J += ", \"budget_bytes\": " + N(Compiles.byteBudget());
  J += "}";
  if (IncludeExtra && Cfg.StatsExtra) {
    std::string Extra = Cfg.StatsExtra();
    if (!Extra.empty())
      J += ", " + Extra;
  }
  J += "}";
  return J;
}
