//===-- support/ChunkList.cpp ---------------------------------------------===//

#include "support/ChunkList.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <vector>

using namespace cerb;

namespace {

constexpr size_t MaxChunk = 64 * 1024;

/// Full-size chunks that freed lists hand on to the next one, at most
/// 4 MiB of them.
class ChunkPool {
  static constexpr size_t MaxPooled = 64;

public:
  static ChunkPool &get() {
    static ChunkPool *P = new ChunkPool; // outlives every static program
    return *P;
  }
  void *take() {
    std::lock_guard<std::mutex> L(M);
    if (Free.empty())
      return nullptr;
    void *C = Free.back();
    Free.pop_back();
    return C;
  }
  bool give(void *C) {
    std::lock_guard<std::mutex> L(M);
    if (Free.size() == MaxPooled)
      return false;
    Free.push_back(C);
    return true;
  }

private:
  ChunkPool() { Free.reserve(MaxPooled); }
  std::mutex M;
  std::vector<void *> Free;
};

} // namespace

ChunkList &ChunkList::operator=(ChunkList &&O) noexcept {
  if (this != &O) {
    release();
    Head = O.Head;
    First = O.First;
    O.Head = nullptr;
  }
  return *this;
}

ChunkList::~ChunkList() { release(); }

void ChunkList::release() {
  while (Head) {
    Header *Prev = Head->Prev;
    if (Head->Size != MaxChunk || !ChunkPool::get().give(Head))
      ::operator delete(Head);
    Head = Prev;
  }
}

void *ChunkList::alloc(size_t N, size_t Align) {
  if (!N)
    return nullptr; // an empty span opens no chunk
  if (Head) {
    size_t Off = (Head->Used + Align - 1) & ~(Align - 1);
    if (Off + N <= Head->Size) {
      Head->Used = Off + N;
      return reinterpret_cast<char *>(Head + 1) + Off;
    }
  }
  size_t Size = std::max(Head ? std::min(2 * Head->Size, MaxChunk) : First, N);
  void *Mem = Size == MaxChunk ? ChunkPool::get().take() : nullptr;
  if (!Mem)
    Mem = ::operator new(sizeof(Header) + Size);
  Head = new (Mem) Header{Head, Size, N};
  return Head + 1;
}

uint64_t ChunkList::bytes() const {
  uint64_t N = 0;
  for (const Header *H = Head; H; H = H->Prev)
    N += sizeof(Header) + H->Size + 16;
  return N;
}
