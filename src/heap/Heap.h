//===- heap/Heap.h - Arena allocator for objects ---------------*- C++ -*-===//
///
/// \file
/// A simple non-moving arena heap.  There is no garbage collector: the
/// paper's JDK collector is stop-the-world (the lock word relies on the 8
/// shared header bits only changing "when an object is moved", and the
/// collector is not concurrent), so a non-moving arena preserves every
/// invariant the locking code depends on.
///
/// Allocation uses thread-owned buffers (the TLAB idiom of production
/// JVMs).  Each allocating thread bump-allocates from a buffer it alone
/// writes: the common path takes no mutex and issues no locked RMW.  The
/// owner publishes each object by a release store of the buffer's top,
/// so a reader that acquire-loads the top sees only fully constructed
/// objects below it.  The heap mutex is taken only to carve a fresh
/// buffer from a block, and by the readers that enumerate buffers.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_HEAP_HEAP_H
#define THINLOCKS_HEAP_HEAP_H

#include "heap/ClassInfo.h"
#include "heap/Object.h"
#include "support/Compiler.h"
#include "support/Mutex.h"
#include "support/SplitMix64.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace thinlocks {

/// Owns object storage and the class registry.  Any number of threads may
/// allocate concurrently, each from its own buffer; objects live until
/// the heap is destroyed.  The allocation counts are exact once the
/// allocating threads are quiescent (joined, or otherwise ordered before
/// the reader) and monotonic approximations while they run.
class Heap {
public:
  /// \param BlockBytes arena block size.  Blocks are carved into buffers
  /// of min(64 KiB, BlockBytes); an object too large for a buffer gets a
  /// dedicated block of its own size.
  explicit Heap(size_t BlockBytes = 1u << 20);
  ~Heap();

  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// \returns the class registry backing this heap's objects.
  ClassRegistry &classes() { return Registry; }
  const ClassRegistry &classes() const { return Registry; }

  /// Allocates an instance of \p Class with zeroed slots.
  Object *allocate(const ClassInfo &Class);

  /// Visits every published object: buffer by buffer in the order the
  /// buffers were carved, and within a buffer in allocation order.  An
  /// object whose allocation is still in flight is not visited.  Holds
  /// the heap mutex for the duration: \p Fn must not allocate from this
  /// heap.  Lock words read during the walk are racy snapshots (they are
  /// atomics; owners may be mutating them), which is exactly what the
  /// lock-census and index-audit consumers want.
  void forEachObject(const std::function<void(const Object &)> &Fn) const;

  /// \returns the class of \p Obj.
  const ClassInfo &classOf(const Object &Obj) const {
    return Registry.classAt(Obj.classIndex());
  }

  /// \returns total objects ever allocated (paper Table 1, "Objects").
  uint64_t objectsAllocated() const;

  /// \returns total bytes handed out to objects.
  uint64_t bytesAllocated() const;

private:
  /// A contiguous run of storage that one thread bump-allocates into.
  /// The record sits at the start of its own storage, so carving a buffer
  /// allocates nothing but block memory.  Base, Limit and Next are set
  /// under the heap mutex; Top and Objects have a single writer (the
  /// owning thread) and are read under the heap mutex.
  struct Buffer {
    Buffer(char *Start, size_t Bytes, uint64_t HashSeed)
        : Base(Start + sizeof(Buffer)), Limit(Start + Bytes), Top(Base),
          Hashes(HashSeed) {}

    char *const Base;
    char *const Limit;
    /// Objects lie back to back in [Base, Top); released after each one
    /// is constructed.
    std::atomic<char *> Top;
    std::atomic<uint64_t> Objects{0};
    /// Identity-hash stream; touched only by the owning thread.
    SplitMix64 Hashes;
    /// The next buffer in carving order.
    Buffer *Next = nullptr;
  };

  /// A thread's open buffer in one heap, keyed by the heap's Id.
  struct OpenBuffer {
    uint64_t HeapId = 0;
    Buffer *Buf = nullptr;
  };

  /// The calling thread's open buffers, most recently used first, so a
  /// thread that alternates between a few heaps keeps a buffer open in
  /// each.  Entries of destroyed heaps are never matched again (Ids are
  /// not reused) and age out.
  static constexpr unsigned OpenBuffersPerThread = 4;
  static thread_local OpenBuffer OpenBuffers[OpenBuffersPerThread];

  TL_ALWAYS_INLINE Object *construct(Buffer &B, const ClassInfo &Class,
                                     size_t Size);
  Object *allocateSlow(const ClassInfo &Class, size_t Size) TL_EXCLUDES(Mu);
  Buffer &addBuffer(char *Start, size_t Bytes) TL_REQUIRES(Mu);

  /// Unique for the process lifetime (never this heap's address), so a
  /// thread's open buffer in a destroyed heap can never be mistaken for
  /// one in a new heap built at the same address.
  const uint64_t Id;
  const size_t BlockBytes;
  /// min(64 KiB, BlockBytes): small enough that a thread allocating a
  /// few objects does not pin a whole block.
  const size_t BufferBytes;
  mutable Mutex Mu;
  ClassRegistry Registry;
  std::vector<std::unique_ptr<char[]>> Blocks TL_GUARDED_BY(Mu);
  /// Every buffer ever carved, linked in carving order.
  Buffer *FirstBuffer TL_GUARDED_BY(Mu) = nullptr;
  Buffer *LastBuffer TL_GUARDED_BY(Mu) = nullptr;
  /// The uncarved tail of the newest block.
  char *BlockCursor TL_GUARDED_BY(Mu) = nullptr;
  char *BlockEnd TL_GUARDED_BY(Mu) = nullptr;
  /// Seeds each new buffer's identity-hash stream.
  SplitMix64 BufferSeeds TL_GUARDED_BY(Mu){0x243f6a8885a308d3ull};
};

} // namespace thinlocks

#endif // THINLOCKS_HEAP_HEAP_H
