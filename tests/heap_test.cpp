//===- tests/heap_test.cpp - Object model and heap tests ------------------===//

#include "heap/Heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

using namespace thinlocks;

TEST(ClassRegistry, AssignsSequentialIndices) {
  ClassRegistry Registry;
  const ClassInfo &A = Registry.registerClass("A", 0);
  const ClassInfo &B = Registry.registerClass("B", 3);
  EXPECT_EQ(A.Index, 0u);
  EXPECT_EQ(B.Index, 1u);
  EXPECT_EQ(Registry.size(), 2u);
  EXPECT_EQ(Registry.classAt(1).Name, "B");
  EXPECT_EQ(Registry.classAt(1).SlotCount, 3u);
}

TEST(Heap, ObjectHeaderIsThreeWordsPlusPadding) {
  EXPECT_EQ(sizeof(Object), 16u);
}

TEST(Heap, AllocateInitializesHeader) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("Point", 2);
  Object *Obj = TheHeap.allocate(Class);
  ASSERT_NE(Obj, nullptr);
  EXPECT_EQ(Obj->classIndex(), Class.Index);
  // The lock field (high 24 bits) starts zeroed = thin + unlocked.
  EXPECT_EQ(Obj->lockWord().load() & 0xFFFFFF00u, 0u);
  // The low byte of the lock word is the low byte of the identity hash.
  EXPECT_EQ(Obj->lockWord().load() & 0xFFu, Obj->identityHash() & 0xFFu);
  EXPECT_EQ(Obj->headerBits(), Obj->identityHash() & 0xFFu);
}

TEST(Heap, SlotsStartZeroedAndReadBack) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("Trip", 3);
  Object *Obj = TheHeap.allocate(Class);
  for (uint32_t I = 0; I < 3; ++I)
    EXPECT_EQ(Obj->slot(I), 0u);
  Obj->setSlot(0, 42);
  Obj->setSlot(2, UINT64_MAX);
  EXPECT_EQ(Obj->slot(0), 42u);
  EXPECT_EQ(Obj->slot(1), 0u);
  EXPECT_EQ(Obj->slot(2), UINT64_MAX);
}

TEST(Heap, RacySlotAccessNeverTears) {
  // A racy field access is legal (if unordered) Java, so a reader
  // racing a writer must see one written value whole, never a mix.
  Heap TheHeap;
  Object *Obj = TheHeap.allocate(TheHeap.classes().registerClass("R", 1));
  constexpr uint64_t A = 0x0123456789ABCDEFull, B = ~A;
  Obj->setSlot(0, A);
  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    for (int I = 0; I < 20000; ++I)
      Obj->setSlot(0, (I & 1) ? B : A);
    Done.store(true);
  });
  uint64_t Torn = 0;
  while (!Done.load()) {
    uint64_t Value = Obj->slot(0);
    Torn += Value != A && Value != B;
  }
  Writer.join();
  EXPECT_EQ(Torn, 0u);
}

TEST(Heap, SlotArrayIsAligned) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("A", 1);
  for (int I = 0; I < 10; ++I) {
    Object *Obj = TheHeap.allocate(Class);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Obj->slots()) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Obj) % alignof(Object), 0u);
  }
}

TEST(Heap, IdentityHashesMostlyDistinct) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("H", 0);
  std::set<uint32_t> Hashes;
  for (int I = 0; I < 1000; ++I)
    Hashes.insert(TheHeap.allocate(Class)->identityHash());
  EXPECT_GT(Hashes.size(), 990u);
}

TEST(Heap, CountsAllocations) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("C", 4);
  EXPECT_EQ(TheHeap.objectsAllocated(), 0u);
  for (int I = 0; I < 25; ++I)
    TheHeap.allocate(Class);
  EXPECT_EQ(TheHeap.objectsAllocated(), 25u);
  EXPECT_GE(TheHeap.bytesAllocated(), 25u * (16 + 4 * 8));
}

TEST(Heap, ObjectsSpanMultipleBlocks) {
  Heap TheHeap(/*BlockBytes=*/4096);
  const ClassInfo &Class = TheHeap.classes().registerClass("Big", 64);
  std::vector<Object *> Objects;
  for (int I = 0; I < 100; ++I)
    Objects.push_back(TheHeap.allocate(Class));
  // All objects remain valid (non-moving heap): spot-check writes.
  for (size_t I = 0; I < Objects.size(); ++I)
    Objects[I]->setSlot(0, I);
  for (size_t I = 0; I < Objects.size(); ++I)
    EXPECT_EQ(Objects[I]->slot(0), I);
}

TEST(Heap, OversizedObjectGetsDedicatedBlock) {
  Heap TheHeap(/*BlockBytes=*/4096);
  const ClassInfo &Small = TheHeap.classes().registerClass("Small", 0);
  const ClassInfo &Class = TheHeap.classes().registerClass("Huge", 2048);
  Object *Before = TheHeap.allocate(Small);
  Object *Obj = TheHeap.allocate(Class);
  Object *After = TheHeap.allocate(Small);
  Obj->setSlot(2047, 7);
  EXPECT_EQ(Obj->slot(2047), 7u);
  // The oversized object did not displace the open buffer: the small
  // objects around it are neighbours.
  EXPECT_EQ(reinterpret_cast<char *>(After),
            reinterpret_cast<char *>(Before) + sizeof(Object));
  EXPECT_EQ(TheHeap.objectsAllocated(), 3u);
  EXPECT_EQ(TheHeap.bytesAllocated(), 2 * sizeof(Object) + 16 + 2048 * 8);
  std::vector<const Object *> Walked;
  TheHeap.forEachObject([&](const Object &O) { Walked.push_back(&O); });
  ASSERT_EQ(Walked.size(), 3u);
  EXPECT_NE(std::find(Walked.begin(), Walked.end(), Obj), Walked.end());
}

TEST(Heap, ClassOfResolvesThroughRegistry) {
  Heap TheHeap;
  const ClassInfo &A = TheHeap.classes().registerClass("A", 1);
  const ClassInfo &B = TheHeap.classes().registerClass("B", 2);
  Object *ObjA = TheHeap.allocate(A);
  Object *ObjB = TheHeap.allocate(B);
  EXPECT_EQ(TheHeap.classOf(*ObjA).Name, "A");
  EXPECT_EQ(TheHeap.classOf(*ObjB).Name, "B");
}

TEST(Heap, ConcurrentAllocationProducesDistinctObjects) {
  // The small block size makes every thread refill many times.
  for (size_t BlockBytes : {size_t(1) << 20, size_t(4096)}) {
    SCOPED_TRACE(BlockBytes);
    Heap TheHeap(BlockBytes);
    const ClassInfo &Class = TheHeap.classes().registerClass("C", 1);
    constexpr int NumThreads = 4;
    constexpr int PerThread = 2000;
    std::vector<std::vector<Object *>> PerThreadObjects(NumThreads);
    std::vector<std::thread> Workers;
    for (int T = 0; T < NumThreads; ++T)
      Workers.emplace_back([&, T] {
        for (int I = 0; I < PerThread; ++I)
          PerThreadObjects[T].push_back(TheHeap.allocate(Class));
      });
    for (auto &W : Workers)
      W.join();
    std::set<Object *> All;
    std::set<uint32_t> Hashes;
    for (auto &List : PerThreadObjects)
      for (Object *Obj : List) {
        All.insert(Obj);
        Hashes.insert(Obj->identityHash());
      }
    constexpr uint64_t Total = uint64_t(NumThreads) * PerThread;
    EXPECT_EQ(All.size(), Total);
    EXPECT_EQ(TheHeap.objectsAllocated(), Total);
    EXPECT_EQ(TheHeap.bytesAllocated(), Total * (sizeof(Object) + 8));
    // Buffers seeded alike would repeat one another's hash streams.
    EXPECT_GT(Hashes.size(), Total * 99 / 100);
  }
}

TEST(Heap, WalkNeverSeesUnconstructedObjects) {
  constexpr int Rounds = 20;
  constexpr int PerThread = 5000;
  for (int Allocators = 1; Allocators <= 3; ++Allocators) {
    for (int Round = 0; Round < Rounds; ++Round) {
      Heap TheHeap;
      // Class 0 has no slots: walked zeroed or stale memory would read as
      // a run of class-0 objects.
      TheHeap.classes().registerClass("Zero", 0);
      const ClassInfo &Six = TheHeap.classes().registerClass("Six", 6);
      std::atomic<bool> Go{false};
      std::atomic<int> Running{Allocators};
      std::vector<std::thread> Workers;
      for (int T = 0; T < Allocators; ++T)
        Workers.emplace_back([&] {
          while (!Go.load(std::memory_order_acquire))
            std::this_thread::yield();
          // Spread the allocations out so walks land between them.
          for (int I = 0; I < PerThread; ++I) {
            TheHeap.allocate(Six);
            if (I % 16 == 0)
              std::this_thread::yield();
          }
          Running.fetch_sub(1, std::memory_order_release);
        });
      uint64_t Foreign = 0;
      uint64_t MaxWalked = 0;
      Go.store(true, std::memory_order_release);
      // Bounded, and yielding between walks, so that a walker holding the
      // heap mutex cannot starve allocators that need it.
      for (int Walk = 0;
           Walk < 200 && Running.load(std::memory_order_acquire) != 0;
           ++Walk) {
        uint64_t Walked = 0;
        TheHeap.forEachObject([&](const Object &Obj) {
          ++Walked;
          if (Obj.classIndex() != Six.Index)
            ++Foreign;
        });
        MaxWalked = std::max(MaxWalked, Walked);
        std::this_thread::yield();
      }
      for (auto &W : Workers)
        W.join();
      ASSERT_EQ(Foreign, 0u) << Allocators << " allocators, round " << Round;
      ASSERT_LE(MaxWalked, TheHeap.objectsAllocated());
      ASSERT_EQ(TheHeap.objectsAllocated(), uint64_t(Allocators) * PerThread);
    }
  }
}

TEST(Heap, FreshHeapAtSameAddressNeverReusesStaleBuffer) {
  // Each iteration's heap lives at the same stack address.  A thread's
  // open buffer must be tied to the heap instance, not its address, or
  // the next heap would bump into the destroyed one's storage.
  constexpr uint64_t N = 50;
  for (int I = 0; I < 1000; ++I) {
    Heap H(4096);
    const ClassInfo &Class = H.classes().registerClass("C", 2);
    for (uint64_t J = 0; J < N; ++J)
      H.allocate(Class)->setSlot(1, J);
    ASSERT_EQ(H.objectsAllocated(), N);
    ASSERT_EQ(H.bytesAllocated(), N * (sizeof(Object) + 16));
  }
}

TEST(Heap, AlternatingHeapsKeepExactCountsAndBoundedBlocks) {
  Heap A(4096);
  Heap B(4096);
  const ClassInfo &ClassA = A.classes().registerClass("A", 2);
  const ClassInfo &ClassB = B.classes().registerClass("B", 2);
  constexpr uint64_t N = 1000;
  constexpr size_t Size = sizeof(Object) + 16;
  std::vector<char *> ObjectsA;
  std::vector<char *> ObjectsB;
  for (uint64_t I = 0; I < N; ++I) {
    ObjectsA.push_back(reinterpret_cast<char *>(A.allocate(ClassA)));
    ObjectsB.push_back(reinterpret_cast<char *>(B.allocate(ClassB)));
  }
  EXPECT_EQ(A.objectsAllocated(), N);
  EXPECT_EQ(B.objectsAllocated(), N);
  EXPECT_EQ(A.bytesAllocated(), N * Size);
  EXPECT_EQ(B.bytesAllocated(), N * Size);
  // Each heap's objects run back to back until a buffer fills, so a
  // switch between heaps never opens a new buffer.
  for (const std::vector<char *> *Objects : {&ObjectsA, &ObjectsB}) {
    size_t Breaks = 0;
    for (size_t I = 1; I < Objects->size(); ++I)
      Breaks += (*Objects)[I] != (*Objects)[I - 1] + Size;
    EXPECT_LE(Breaks, N * Size / 2048);
  }
}
