//===-- support/Socket.cpp ------------------------------------------------===//

#include "support/Socket.h"

#include "support/FaultInjector.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cerb;
using namespace cerb::net;

void Fd::reset() {
  if (Raw >= 0)
    ::close(Raw);
  Raw = -1;
}

namespace {

StaticError sysErr(const std::string &What) {
  return err(What + ": " + std::strerror(errno));
}

/// SIGPIPE would kill the daemon when a client disconnects mid-response;
/// every socket we create opts out (the write loop sees EPIPE instead).
void armNoSigpipe(int Raw) {
#ifdef SO_NOSIGPIPE
  int One = 1;
  ::setsockopt(Raw, SOL_SOCKET, SO_NOSIGPIPE, &One, sizeof One);
#else
  (void)Raw; // Linux: writeAll uses MSG_NOSIGNAL instead
#endif
}

/// One fault-aware read: `socket.read` injects a failing errno (EINTR here
/// exercises the caller's retry loop), `socket.read.short` truncates the
/// request to a single byte so partial-read handling is explored on demand.
ssize_t faultyRead(int FdRaw, void *Buf, size_t Len) {
  if (fault::active()) {
    int E = 0;
    if (fault::shouldFail("socket.read", &E)) {
      errno = E;
      return -1;
    }
    if (Len > 1 && fault::shouldFail("socket.read.short"))
      Len = 1;
  }
  return ::read(FdRaw, Buf, Len);
}

/// Fault-aware send/write mirror of faultyRead (`socket.write`,
/// `socket.write.short`).
ssize_t faultyWrite(int FdRaw, const char *Buf, size_t Len) {
  if (fault::active()) {
    int E = 0;
    if (fault::shouldFail("socket.write", &E)) {
      errno = E;
      return -1;
    }
    if (Len > 1 && fault::shouldFail("socket.write.short"))
      Len = 1;
  }
#ifdef MSG_NOSIGNAL
  ssize_t N = ::send(FdRaw, Buf, Len, MSG_NOSIGNAL);
  if (N < 0 && errno == ENOTSOCK) // pipes in tests
    N = ::write(FdRaw, Buf, Len);
  return N;
#else
  return ::write(FdRaw, Buf, Len);
#endif
}

} // namespace

Expected<Fd> cerb::net::listenUnix(const std::string &Path, int Backlog) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return err("socket path too long: " + Path);
  struct stat St{};
  if (::lstat(Path.c_str(), &St) == 0) {
    if (!S_ISSOCK(St.st_mode))
      return err("refusing to unlink non-socket file: " + Path);
    ::unlink(Path.c_str()); // stale socket from a previous daemon
  }
  Fd Sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!Sock.valid())
    return sysErr("socket");
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::bind(Sock.get(), reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0)
    return sysErr("bind " + Path);
  if (::listen(Sock.get(), Backlog) != 0)
    return sysErr("listen " + Path);
  armNoSigpipe(Sock.get());
  return Sock;
}

Expected<Fd> cerb::net::listenTcp(uint16_t Port, uint16_t *OutPort,
                                  int Backlog) {
  Fd Sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!Sock.valid())
    return sysErr("socket");
  int One = 1;
  ::setsockopt(Sock.get(), SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Sock.get(), reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0)
    return sysErr("bind 127.0.0.1:" + std::to_string(Port));
  if (::listen(Sock.get(), Backlog) != 0)
    return sysErr("listen");
  if (OutPort) {
    socklen_t Len = sizeof Addr;
    if (::getsockname(Sock.get(), reinterpret_cast<sockaddr *>(&Addr), &Len) !=
        0)
      return sysErr("getsockname");
    *OutPort = ntohs(Addr.sin_port);
  }
  armNoSigpipe(Sock.get());
  return Sock;
}

Expected<Fd> cerb::net::connectUnix(const std::string &Path) {
  if (int E = 0; fault::shouldFail("socket.connect", &E))
    return err("connect " + Path + ": " + std::strerror(E) + " (injected)");
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return err("socket path too long: " + Path);
  Fd Sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!Sock.valid())
    return sysErr("socket");
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int RC;
  do {
    RC = ::connect(Sock.get(), reinterpret_cast<sockaddr *>(&Addr),
                   sizeof Addr);
  } while (RC != 0 && errno == EINTR);
  if (RC != 0)
    return sysErr("connect " + Path);
  armNoSigpipe(Sock.get());
  return Sock;
}

Expected<Fd> cerb::net::connectTcp(uint16_t Port) {
  if (int E = 0; fault::shouldFail("socket.connect", &E))
    return err("connect 127.0.0.1:" + std::to_string(Port) + ": " +
               std::strerror(E) + " (injected)");
  Fd Sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!Sock.valid())
    return sysErr("socket");
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  int RC;
  do {
    RC = ::connect(Sock.get(), reinterpret_cast<sockaddr *>(&Addr),
                   sizeof Addr);
  } while (RC != 0 && errno == EINTR);
  if (RC != 0)
    return sysErr("connect 127.0.0.1:" + std::to_string(Port));
  armNoSigpipe(Sock.get());
  return Sock;
}

Fd cerb::net::acceptOn(int ListenFd) {
  while (true) {
    if (fault::shouldFail("socket.accept"))
      return Fd();
    int Raw = ::accept(ListenFd, nullptr, nullptr);
    if (Raw >= 0)
      return Fd(Raw);
    if (errno != EINTR)
      return Fd();
  }
}

bool cerb::net::writeAll(int FdRaw, const void *Data, size_t Len) {
  const char *P = static_cast<const char *>(Data);
  while (Len > 0) {
    ssize_t N = faultyWrite(FdRaw, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

int cerb::net::readExact(int FdRaw, void *Data, size_t Len) {
  char *P = static_cast<char *>(Data);
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = faultyRead(FdRaw, P + Got, Len - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (N == 0)
      return Got == 0 ? 0 : -1; // EOF: clean only at a boundary
    Got += static_cast<size_t>(N);
  }
  return 1;
}

bool cerb::net::writeFrame(int FdRaw, std::string_view Payload,
                           uint32_t MaxLen) {
  if (Payload.size() > MaxLen)
    return false;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  unsigned char Hdr[4] = {static_cast<unsigned char>(Len >> 24),
                          static_cast<unsigned char>(Len >> 16),
                          static_cast<unsigned char>(Len >> 8),
                          static_cast<unsigned char>(Len)};
  return writeAll(FdRaw, Hdr, 4) && writeAll(FdRaw, Payload.data(), Len);
}

int cerb::net::readFrame(int FdRaw, std::string &Out, uint32_t MaxLen) {
  unsigned char Hdr[4];
  int RC = readExact(FdRaw, Hdr, 4);
  if (RC <= 0)
    return RC;
  uint32_t Len = (uint32_t(Hdr[0]) << 24) | (uint32_t(Hdr[1]) << 16) |
                 (uint32_t(Hdr[2]) << 8) | uint32_t(Hdr[3]);
  if (Len > MaxLen)
    return -1;
  Out.resize(Len);
  if (Len == 0)
    return 1;
  return readExact(FdRaw, Out.data(), Len) == 1 ? 1 : -1;
}

int cerb::net::FrameReader::next(std::string &Out, uint32_t MaxLen) {
  for (;;) {
    const size_t Avail = Buf.size() - Pos;
    if (Avail >= 4) {
      const auto *H = reinterpret_cast<const unsigned char *>(Buf.data() + Pos);
      const uint32_t Len = (uint32_t(H[0]) << 24) | (uint32_t(H[1]) << 16) |
                           (uint32_t(H[2]) << 8) | uint32_t(H[3]);
      if (Len > MaxLen)
        return -1;
      if (Avail - 4 >= Len) {
        Out.assign(Buf, Pos + 4, Len);
        Pos += 4 + size_t(Len);
        if (Pos == Buf.size()) {
          Buf.clear();
          Pos = 0;
        }
        return 1;
      }
    }
    if (Pos) { // compact the consumed prefix before growing
      Buf.erase(0, Pos);
      Pos = 0;
    }
    char Tmp[64 * 1024];
    const ssize_t N = faultyRead(FdRaw, Tmp, sizeof Tmp);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (N == 0)
      return Buf.empty() ? 0 : -1; // EOF: clean only at a frame boundary
    Buf.append(Tmp, static_cast<size_t>(N));
  }
}

namespace {

using Clock = std::chrono::steady_clock;

/// poll() for POLLIN with EINTR retry. 1 = readable/hup, 0 = timed out,
/// -1 = error.
int waitReadable(int FdRaw, int TimeoutMs) {
  struct pollfd P = {FdRaw, POLLIN, 0};
  while (true) {
    int R = ::poll(&P, 1, TimeoutMs);
    if (R >= 0)
      return R > 0 ? 1 : 0;
    if (errno != EINTR)
      return -1;
  }
}

/// Remaining milliseconds until \p Deadline (clamped at 0); -1 when no
/// deadline is set.
int remainingMs(bool HasDeadline, Clock::time_point Deadline) {
  if (!HasDeadline)
    return -1;
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - Clock::now())
                  .count();
  return Left > 0 ? static_cast<int>(Left) : 0;
}

/// readExact under a deadline: 1 ok, 0 clean EOF at boundary, -1 error or
/// mid-buffer EOF, -2 deadline expired.
int readExactDeadline(int FdRaw, void *Data, size_t Len, bool HasDeadline,
                      Clock::time_point Deadline) {
  char *P = static_cast<char *>(Data);
  size_t Got = 0;
  while (Got < Len) {
    int Left = remainingMs(HasDeadline, Deadline);
    if (HasDeadline && Left == 0)
      return -2;
    int W = waitReadable(FdRaw, Left);
    if (W < 0)
      return -1;
    if (W == 0)
      return -2;
    ssize_t N = faultyRead(FdRaw, P + Got, Len - Got);
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return -1;
    }
    if (N == 0)
      return Got == 0 ? 0 : -1;
    Got += static_cast<size_t>(N);
  }
  return 1;
}

} // namespace

RecvStatus cerb::net::readFrameTimed(int FdRaw, std::string &Out,
                                     uint32_t MaxLen, int IdleMs,
                                     int FrameMs) {
  // Phase 1: wait for the first byte of a frame (the idle window).
  int W = waitReadable(FdRaw, IdleMs);
  if (W < 0)
    return RecvStatus::Error;
  if (W == 0)
    return RecvStatus::Idle;

  // Phase 2: once a frame has started, the whole of it must arrive within
  // FrameMs — a peer that sends half a header and stalls is cut off.
  bool HasDeadline = FrameMs >= 0;
  Clock::time_point Deadline =
      HasDeadline ? Clock::now() + std::chrono::milliseconds(FrameMs)
                  : Clock::time_point();

  unsigned char Hdr[4];
  int RC = readExactDeadline(FdRaw, Hdr, 4, HasDeadline, Deadline);
  if (RC == 0)
    return RecvStatus::Eof;
  if (RC == -2)
    return RecvStatus::Timeout;
  if (RC != 1)
    return RecvStatus::Error;
  uint32_t Len = (uint32_t(Hdr[0]) << 24) | (uint32_t(Hdr[1]) << 16) |
                 (uint32_t(Hdr[2]) << 8) | uint32_t(Hdr[3]);
  if (Len > MaxLen)
    return RecvStatus::Oversize; // reject before allocating anything
  Out.resize(Len);
  if (Len == 0)
    return RecvStatus::Frame;
  RC = readExactDeadline(FdRaw, Out.data(), Len, HasDeadline, Deadline);
  if (RC == -2)
    return RecvStatus::Timeout;
  return RC == 1 ? RecvStatus::Frame : RecvStatus::Error;
}

bool cerb::net::setIoTimeout(int FdRaw, uint64_t Millis) {
  struct timeval TV;
  TV.tv_sec = static_cast<time_t>(Millis / 1000);
  TV.tv_usec = static_cast<suseconds_t>((Millis % 1000) * 1000);
  bool Ok = ::setsockopt(FdRaw, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof TV) == 0;
  Ok = ::setsockopt(FdRaw, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof TV) == 0 && Ok;
  return Ok;
}

void cerb::net::shutdownBoth(int FdRaw) { ::shutdown(FdRaw, SHUT_RDWR); }
