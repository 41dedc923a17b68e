//===- heap/Object.h - Object layout with embedded lock word ---*- C++ -*-===//
///
/// \file
/// The object layout of paper Figure 1(a): a three-word header followed by
/// data.  Word 1 is the lock word: its high 24 bits are the lock field and
/// its low 8 bits are other header data (here: the low byte of the
/// identity hash) that the locking code must treat as constant and
/// preserve.  Reserving those 24 bits — rather than adding a word — is the
/// paper's central space constraint: *object size is not increased*.
///
/// Header layout (all words 32-bit, as on the paper's 32-bit JVM):
///   word 0: class index (24 bits) | debug flags (8 bits)
///   word 1: lock field (24 bits)  | hash low byte (8 bits)   <- atomic
///   word 2: identity hash (32 bits)
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_HEAP_OBJECT_H
#define THINLOCKS_HEAP_OBJECT_H

#include <atomic>
#include <cassert>
#include <cstdint>

namespace thinlocks {

class Heap;

/// A heap object: 3-word header plus \c SlotCount 64-bit data slots that
/// immediately follow the header in memory.  Objects are created only by
/// Heap::allocate and never move (the paper's collector is not concurrent;
/// ours does not exist).
class Object {
  friend class Heap;

  static constexpr uint32_t ClassIndexMask = 0x00FFFFFFu;
  static constexpr uint32_t HashByteMask = 0x000000FFu;

  uint32_t ClassWord;
  std::atomic<uint32_t> LockWord;
  uint32_t HashWord;
  uint32_t Padding; // Aligns the 64-bit slot array that follows.

  Object(uint32_t ClassIndex, uint32_t DebugSlotCount, uint32_t Hash)
      : ClassWord((ClassIndex & ClassIndexMask) |
                  ((DebugSlotCount > 255 ? 255 : DebugSlotCount) << 24)),
        LockWord(Hash & HashByteMask), HashWord(Hash), Padding(0) {}

public:
  Object(const Object &) = delete;
  Object &operator=(const Object &) = delete;

  /// \returns the class registry index of this object's class.
  uint32_t classIndex() const { return ClassWord & ClassIndexMask; }

  /// \returns the identity hash code (stable for the object's lifetime).
  uint32_t identityHash() const { return HashWord; }

  /// \returns the atomic lock word.  Locking protocols own the high 24
  /// bits; the low 8 bits are header data they must preserve unchanged.
  std::atomic<uint32_t> &lockWord() { return LockWord; }
  const std::atomic<uint32_t> &lockWord() const { return LockWord; }

  /// \returns the 8 header bits that share the lock word; the locking
  /// protocols must keep exactly these bits in the low byte at all times.
  uint32_t headerBits() const { return HashWord & HashByteMask; }

  /// Reads data slot \p Index.  Callers order field accesses through the
  /// object's lock, which is the entire point of this library; but a
  /// racy field access is legal Java (the memory model gives it no
  /// ordering, and no undefined behaviour), so slot accesses are relaxed
  /// atomics rather than plain C++ accesses.  On x86-64 each is one mov.
  uint64_t slot(uint32_t Index) const {
    assert(Index < debugSlotCount() && "object field out of range");
    return std::atomic_ref<uint64_t>(const_cast<uint64_t &>(slots()[Index]))
        .load(std::memory_order_relaxed);
  }

  /// Writes data slot \p Index (a relaxed atomic store; see slot()).
  void setSlot(uint32_t Index, uint64_t Value) {
    assert(Index < debugSlotCount() && "object field out of range");
    std::atomic_ref<uint64_t>(slots()[Index])
        .store(Value, std::memory_order_relaxed);
  }

  /// \returns the raw slot array (use with the class's SlotCount).
  uint64_t *slots() { return reinterpret_cast<uint64_t *>(this + 1); }
  const uint64_t *slots() const {
    return reinterpret_cast<const uint64_t *>(this + 1);
  }

private:
  // Slot count saturated to 255, carried in the flags byte purely so that
  // debug builds can bounds-check field accesses without a registry trip.
  uint32_t debugSlotCount() const {
    uint32_t Count = ClassWord >> 24;
    return Count == 255 ? UINT32_MAX : Count;
  }
};

static_assert(sizeof(Object) == 16, "object header must stay 3+1 words");

} // namespace thinlocks

#endif // THINLOCKS_HEAP_OBJECT_H
