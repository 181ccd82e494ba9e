//===-- support/ChunkList.h - Bump allocation from chunks -------*- C++ -*-===//
///
/// \file
/// One list of chunks that objects are bump-allocated from. The first
/// chunk is 1 KiB unless the owner knows better, and each next one
/// doubles, up to 64 KiB, which keeps chunks below the allocator's mmap
/// threshold; a request larger than that gets a chunk of its own size.
/// Objects never move, so a list that moves keeps them where they are.
/// The list frees its chunks without destroying what they hold; an owner
/// whose objects need destroying visits them with forEach. A freed list's
/// 64 KiB chunks go to a process-wide pool of at most 64 that the next
/// list draws on: given back to malloc, a large program's chunks coalesce
/// at the top of the heap and are trimmed back to the kernel, and the next
/// compile faults every page in again.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_SUPPORT_CHUNKLIST_H
#define CERB_SUPPORT_CHUNKLIST_H

#include <cstddef>
#include <cstdint>

namespace cerb {

class ChunkList {
public:
  /// \p FirstChunk: the usable bytes of the first chunk.
  explicit ChunkList(size_t FirstChunk = 1024) : First(FirstChunk) {}
  ChunkList(ChunkList &&O) noexcept : Head(O.Head), First(O.First) {
    O.Head = nullptr;
  }
  ChunkList &operator=(ChunkList &&O) noexcept;
  ChunkList(const ChunkList &) = delete;
  ChunkList &operator=(const ChunkList &) = delete;
  ~ChunkList();

  /// \p N bytes aligned to \p Align (at most 16); null for N = 0, which
  /// opens no chunk.
  void *alloc(size_t N, size_t Align);
  /// The heap bytes the chunks take, each counted with a flat 16 bytes
  /// for the allocator's header and rounding.
  uint64_t bytes() const;
  /// Calls \p Fn on each object of a list that holds only Ts: every
  /// allocation from such a list is a whole number of Ts, so each chunk's
  /// used bytes are an array of them.
  template <typename T, typename F> void forEach(F &&Fn) const {
    for (const Header *H = Head; H; H = H->Prev) {
      T *P = reinterpret_cast<T *>(const_cast<Header *>(H) + 1);
      for (size_t I = 0; I < H->Used / sizeof(T); ++I)
        Fn(P[I]);
    }
  }

private:
  struct alignas(16) Header {
    Header *Prev;
    size_t Size; ///< usable bytes after the header
    size_t Used;
  };
  Header *Head = nullptr;
  size_t First;
  void release();
};

} // namespace cerb

#endif // CERB_SUPPORT_CHUNKLIST_H
