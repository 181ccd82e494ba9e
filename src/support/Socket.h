//===-- support/Socket.h - Sockets and length-prefixed framing --*- C++ -*-===//
///
/// \file
/// The wire substrate of the `cerb-serve/1` protocol: RAII file
/// descriptors, unix-domain and loopback-TCP listeners/connectors, and
/// length-prefixed frame I/O. A frame is a 4-byte big-endian payload length
/// followed by that many bytes (the payload is JSON at the protocol layer,
/// but framing is content-agnostic). Frames larger than a caller-supplied
/// cap are rejected before any allocation, so a malformed or hostile peer
/// cannot make the daemon balloon.
///
/// All helpers report failure through Expected/bool + message rather than
/// exceptions or errno spelunking at call sites, and every read/write loop
/// retries EINTR — the daemon keeps serving across SIGTERM delivery to a
/// worker thread (drain is coordinated through a self-pipe, not through
/// interrupted syscalls).
///
/// Robustness testing: every syscall wrapper here carries a
/// support/FaultInjector fault point (`socket.read`, `socket.write`,
/// `socket.read.short`, `socket.write.short`, `socket.accept`,
/// `socket.connect`), so short reads, EINTR storms, ECONNRESET, and accept
/// failure are deterministically explorable. Disarmed cost is one relaxed
/// atomic load per call.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_SUPPORT_SOCKET_H
#define CERB_SUPPORT_SOCKET_H

#include "support/Expected.h"

#include <cstdint>
#include <string>

namespace cerb::net {

/// Owning file descriptor (close-on-destroy, move-only).
class Fd {
public:
  Fd() = default;
  explicit Fd(int Raw) : Raw(Raw) {}
  Fd(Fd &&O) noexcept : Raw(O.Raw) { O.Raw = -1; }
  Fd &operator=(Fd &&O) noexcept {
    if (this != &O) {
      reset();
      Raw = O.Raw;
      O.Raw = -1;
    }
    return *this;
  }
  Fd(const Fd &) = delete;
  Fd &operator=(const Fd &) = delete;
  ~Fd() { reset(); }

  int get() const { return Raw; }
  bool valid() const { return Raw >= 0; }
  /// Releases ownership without closing.
  int release() {
    int R = Raw;
    Raw = -1;
    return R;
  }
  void reset();

private:
  int Raw = -1;
};

/// Binds and listens on a unix-domain socket at \p Path. An existing socket
/// file at the path is unlinked first (stale from a crashed daemon); a
/// non-socket file at the path is an error. Paths longer than sockaddr_un
/// allows (~107 bytes) are rejected.
Expected<Fd> listenUnix(const std::string &Path, int Backlog = 64);

/// Binds and listens on 127.0.0.1:\p Port (Port 0 = kernel-assigned; read
/// it back with \p OutPort).
Expected<Fd> listenTcp(uint16_t Port, uint16_t *OutPort = nullptr,
                       int Backlog = 64);

/// Connects to a unix-domain socket.
Expected<Fd> connectUnix(const std::string &Path);

/// Connects to 127.0.0.1:\p Port (the daemon only binds loopback).
Expected<Fd> connectTcp(uint16_t Port);

/// accept() with EINTR retry; invalid Fd on a closed/failed listener.
Fd acceptOn(int ListenFd);

/// Writes all of \p Data (EINTR/partial-write safe). False on error or a
/// closed peer.
bool writeAll(int FdRaw, const void *Data, size_t Len);

/// Reads exactly \p Len bytes. Returns 1 on success, 0 on clean EOF at a
/// frame boundary (nothing read yet), -1 on error or mid-buffer EOF.
int readExact(int FdRaw, void *Data, size_t Len);

/// Frame-size cap: big enough for any report the oracle emits over a suite
/// query, small enough that a corrupt length prefix cannot OOM the daemon.
inline constexpr uint32_t DefaultMaxFrame = 64u << 20;

/// One `cerb-serve/1` frame: u32 big-endian payload length + payload.
/// False on I/O error or a frame exceeding \p MaxLen.
bool writeFrame(int FdRaw, std::string_view Payload,
                uint32_t MaxLen = DefaultMaxFrame);

/// Reads one frame into \p Out. Returns 1 on success, 0 on clean EOF
/// before any length byte (peer finished), -1 on error, truncation, or an
/// oversized frame.
int readFrame(int FdRaw, std::string &Out, uint32_t MaxLen = DefaultMaxFrame);

/// Outcome of a deadline-aware frame read (the daemon's reader loop).
enum class RecvStatus {
  Frame,    ///< one complete frame in Out
  Eof,      ///< clean EOF at a frame boundary (peer finished)
  Idle,     ///< no first byte within IdleMs (reap the connection)
  Timeout,  ///< frame started but stalled past FrameMs (slow/torn peer)
  Oversize, ///< length prefix exceeds MaxLen (hostile/garbage frame)
  Error,    ///< I/O error or EOF mid-frame
};

/// Buffered frame reader for streamed reply stretches (the batch op):
/// drains whatever the kernel already has in one read() and slices
/// length-prefixed frames out of the buffer, so a coalesced reply stream
/// costs ~one syscall for many frames instead of two syscalls per frame.
/// Same framing and fault sites (`socket.read`, `socket.read.short`) as
/// readFrame. Over-read bytes stay in this object — use one reader per
/// contiguous reply stream and discard it with the stream.
class FrameReader {
public:
  explicit FrameReader(int FdRaw) : FdRaw(FdRaw) {}
  /// readFrame's contract: 1 = one frame in \p Out, 0 = clean EOF at a
  /// frame boundary with nothing buffered, -1 = error/truncation/oversize.
  int next(std::string &Out, uint32_t MaxLen = DefaultMaxFrame);

private:
  int FdRaw;
  std::string Buf;
  size_t Pos = 0;
};

/// readFrame with timeouts: waits up to \p IdleMs for the first byte
/// (negative = forever), then requires the rest of the frame within
/// \p FrameMs (negative = forever). A partial or garbage frame can stall a
/// reader for at most Idle+Frame — never hang it.
RecvStatus readFrameTimed(int FdRaw, std::string &Out,
                          uint32_t MaxLen = DefaultMaxFrame, int IdleMs = -1,
                          int FrameMs = -1);

/// Arms SO_RCVTIMEO/SO_SNDTIMEO so a blocked call() on a dead or stalled
/// peer fails with EAGAIN instead of hanging (0 disables). Client-side
/// counterpart of the daemon's readFrameTimed.
bool setIoTimeout(int FdRaw, uint64_t Millis);

/// Half-closes the read side (unblocks a peer's blocked readFrame) without
/// closing the descriptor; used by the daemon's drain to retire idle
/// connection readers.
void shutdownBoth(int FdRaw);

} // namespace cerb::net

#endif // CERB_SUPPORT_SOCKET_H
