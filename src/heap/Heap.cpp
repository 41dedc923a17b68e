//===- heap/Heap.cpp - Arena allocator for objects ------------------------===//

#include "heap/Heap.h"

#include "support/Compiler.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

using namespace thinlocks;

namespace {
constexpr size_t MaxBufferBytes = size_t(64) << 10;
std::atomic<uint64_t> NextHeapId{1};

/// \returns the footprint of an object with \p Slots slots.
size_t objectBytes(uint32_t Slots) {
  return alignTo(sizeof(Object) + sizeof(uint64_t) * Slots, alignof(Object));
}
} // namespace

thread_local Heap::OpenBuffer Heap::OpenBuffers[Heap::OpenBuffersPerThread];

Heap::Heap(size_t BlockBytes)
    : Id(NextHeapId.fetch_add(1, std::memory_order_relaxed)),
      BlockBytes(BlockBytes),
      BufferBytes(std::min(BlockBytes, MaxBufferBytes)) {
  assert(BlockBytes >= 4096 && "block size unreasonably small");
}

Heap::~Heap() = default;

Object *Heap::construct(Buffer &B, const ClassInfo &Class, size_t Size) {
  // Only this thread writes B, so its own Top and Objects need no RMW;
  // the release store of Top publishes the finished object to walkers.
  char *Memory = B.Top.load(std::memory_order_relaxed);
  Object *Obj = new (Memory) Object(Class.Index, Class.SlotCount,
                                    static_cast<uint32_t>(B.Hashes.next()));
  std::memset(Obj->slots(), 0, sizeof(uint64_t) * Class.SlotCount);
  B.Objects.store(B.Objects.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  B.Top.store(Memory + Size, std::memory_order_release);
  return Obj;
}

Object *Heap::allocate(const ClassInfo &Class) {
  size_t Size = objectBytes(Class.SlotCount);
  OpenBuffer &Front = OpenBuffers[0];
  if (TL_LIKELY(Front.HeapId == Id)) {
    Buffer &B = *Front.Buf;
    if (TL_LIKELY(static_cast<size_t>(
                      B.Limit - B.Top.load(std::memory_order_relaxed)) >=
                  Size))
      return construct(B, Class, Size);
  }
  return allocateSlow(Class, Size);
}

TL_NOINLINE Object *Heap::allocateSlow(const ClassInfo &Class, size_t Size) {
  // A buffer's record occupies the head of its own storage.
  size_t Need = sizeof(Buffer) + Size;
  if (Need > BufferBytes) {
    // Too big for any buffer: a dedicated block holding a one-object
    // buffer that is never cached.
    Buffer *Own;
    {
      LockGuard Guard(Mu);
      Blocks.push_back(std::make_unique_for_overwrite<char[]>(Need));
      Own = &addBuffer(Blocks.back().get(), Need);
    }
    return construct(*Own, Class, Size);
  }

  // Bring this heap's open buffer to the front; without one, the least
  // recently used entry makes room.
  OpenBuffer *Last = OpenBuffers + OpenBuffersPerThread - 1;
  OpenBuffer *Hit = std::find_if(
      OpenBuffers, Last, [&](const OpenBuffer &E) { return E.HeapId == Id; });
  std::rotate(OpenBuffers, Hit, Hit + 1);
  OpenBuffer &Front = OpenBuffers[0];
  if (Front.HeapId != Id ||
      static_cast<size_t>(Front.Buf->Limit -
                          Front.Buf->Top.load(std::memory_order_relaxed)) <
          Size) {
    LockGuard Guard(Mu);
    size_t Bytes =
        std::min(BufferBytes, static_cast<size_t>(BlockEnd - BlockCursor));
    if (Bytes < Need) {
      Blocks.push_back(std::make_unique_for_overwrite<char[]>(BlockBytes));
      BlockCursor = Blocks.back().get();
      BlockEnd = BlockCursor + BlockBytes;
      Bytes = BufferBytes;
    }
    Front = {Id, &addBuffer(BlockCursor, Bytes)};
    BlockCursor += Bytes;
  }
  return construct(*Front.Buf, Class, Size);
}

Heap::Buffer &Heap::addBuffer(char *Start, size_t Bytes) {
  Buffer *B = new (Start) Buffer(Start, Bytes, BufferSeeds.next());
  (LastBuffer ? LastBuffer->Next : FirstBuffer) = B;
  LastBuffer = B;
  return *B;
}

uint64_t Heap::objectsAllocated() const {
  LockGuard Guard(Mu);
  uint64_t Sum = 0;
  for (const Buffer *B = FirstBuffer; B; B = B->Next)
    Sum += B->Objects.load(std::memory_order_relaxed);
  return Sum;
}

uint64_t Heap::bytesAllocated() const {
  LockGuard Guard(Mu);
  uint64_t Sum = 0;
  for (const Buffer *B = FirstBuffer; B; B = B->Next)
    Sum += static_cast<uint64_t>(B->Top.load(std::memory_order_relaxed) -
                                 B->Base);
  return Sum;
}

void Heap::forEachObject(
    const std::function<void(const Object &)> &Fn) const {
  LockGuard Guard(Mu);
  for (const Buffer *B = FirstBuffer; B; B = B->Next) {
    // Everything below the acquired top was constructed before it was
    // published; anything above it may still be in flight.
    const char *Top = B->Top.load(std::memory_order_acquire);
    for (const char *Cursor = B->Base; Cursor < Top;) {
      const Object *Obj = reinterpret_cast<const Object *>(Cursor);
      Fn(*Obj);
      // Objects are laid out back to back; the class registry knows each
      // one's slot count, which determines its footprint.
      Cursor += objectBytes(Registry.classAt(Obj->classIndex()).SlotCount);
    }
  }
}
