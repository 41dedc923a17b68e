//===- threads/ThreadRegistry.cpp - 15-bit thread index table -------------===//

#include "threads/ThreadRegistry.h"

#include "support/FailPoint.h"
#include "support/Fatal.h"
#include "support/ThreadStripe.h"

#include <cassert>

using namespace thinlocks;

namespace {
thread_local ThreadContext CurrentThreadContext;
} // namespace

ThreadRegistry::ThreadRegistry(uint16_t Capacity)
    : Slots(static_cast<size_t>(
                Capacity == 0
                    ? 1
                    : (Capacity > MaxThreadIndex ? MaxThreadIndex
                                                 : Capacity)) +
            1),
      Cap(Capacity == 0 ? 1
                        : (Capacity > MaxThreadIndex ? MaxThreadIndex
                                                     : Capacity)) {
  // Slots needs no clearing pass: C++20 std::atomic value-initializes,
  // so the vector constructor already zeroed all of them.
  Storage.resize(Slots.size());
}

ThreadRegistry::~ThreadRegistry() {
  assert(LiveCount.load(std::memory_order_relaxed) == 0 &&
         "threads still attached at registry destruction");
}

void ThreadRegistry::rescanQuarantine() {
  if (Quarantined.empty())
    return;
  std::vector<uint16_t> StillHeld;
  StillHeld.reserve(Quarantined.size());
  for (uint16_t Index : Quarantined) {
    if (Auditor && Auditor(Index))
      StillHeld.push_back(Index);
    else
      FreeIndices.push_back(Index);
  }
  Quarantined.swap(StillHeld);
}

ThreadContext ThreadRegistry::attach(std::string Name, AttachError *Error) {
  if (Error)
    *Error = AttachError::None;
  if (TL_FAILPOINT(ThreadRegistryExhausted)) {
    ExhaustionEvents.fetch_add(1, std::memory_order_relaxed);
    if (Error)
      *Error = AttachError::Exhausted;
    return ThreadContext();
  }
  LockGuard Guard(Mu);
  uint16_t Index = 0;
  if (!FreeIndices.empty()) {
    Index = FreeIndices.back();
    FreeIndices.pop_back();
  } else if (NextFreshIndex <= Cap) {
    Index = NextFreshIndex++;
  } else {
    // Fresh space is gone: give quarantined indices a second look — the
    // stale lock words pinning them may have been released since.
    rescanQuarantine();
    if (!FreeIndices.empty()) {
      Index = FreeIndices.back();
      FreeIndices.pop_back();
    } else {
      ExhaustionEvents.fetch_add(1, std::memory_order_relaxed);
      if (Error)
        *Error = AttachError::Exhausted;
      return ThreadContext(); // Exhausted: Cap live/quarantined indices.
    }
  }

  if (!Storage[Index])
    Storage[Index] = std::make_unique<ThreadInfo>();
  ThreadInfo *Info = Storage[Index].get();
  Info->Index = Index;
  Info->Name = std::move(Name);
  Info->NativeId = std::this_thread::get_id();
  Info->BlockedOn.store(nullptr, std::memory_order_relaxed);
  // Drop any token a stale unpark left behind after the previous owner
  // of this index detached; a new thread must not wake early for it.
  Info->Park.reset();
  Slots[Index].store(Info, std::memory_order_release);

  uint32_t Live = LiveCount.fetch_add(1, std::memory_order_relaxed) + 1;
  uint32_t Peak = PeakCount.load(std::memory_order_relaxed);
  while (Live > Peak &&
         !PeakCount.compare_exchange_weak(Peak, Live,
                                          std::memory_order_relaxed)) {
  }

  // Publish the striped-counter identity for this thread.  attach()
  // runs on the thread being attached (NativeId above is the caller's),
  // and successive owners of a recycled index are ordered by Mu, so
  // an exclusive stripe really has one live writer.
  setCurrentThreadStripe(Index);

  ThreadContext Ctx;
  Ctx.Registry = this;
  Ctx.Pk = &Info->Park;
  Ctx.Ring = &Info->Events;
  Ctx.Index = Index;
  Ctx.Shifted = static_cast<uint32_t>(Index) << 16;
  return Ctx;
}

void ThreadRegistry::forEachEventRing(
    const std::function<void(obs::EventRing &)> &Fn) {
  LockGuard Guard(Mu);
  // Storage persists across detach (like the Parkers), so this covers
  // events recorded by threads that are already gone.
  for (uint16_t Index = 1; Index < NextFreshIndex; ++Index)
    if (Storage[Index])
      Fn(Storage[Index]->Events);
}

void ThreadRegistry::detach(ThreadContext &Ctx) {
  // These are API-contract violations that corrupt the index space if
  // allowed through, so they stay fatal when asserts are compiled out.
  if (!Ctx.isValid())
    fatalError("ThreadRegistry::detach: invalid (already detached?) "
               "context");
  if (Ctx.Registry != this)
    fatalError("ThreadRegistry::detach: context for thread index %u "
               "belongs to another registry",
               Ctx.Index);
  LockGuard Guard(Mu);
  ThreadInfo *Info = Slots[Ctx.Index].load(std::memory_order_relaxed);
  if (Info == nullptr)
    fatalError("ThreadRegistry::detach: double detach of thread index %u",
               Ctx.Index);
  bool SelfDetach = Info->NativeId == std::this_thread::get_id();
  Info->BlockedOn.store(nullptr, std::memory_order_relaxed);
  Slots[Ctx.Index].store(nullptr, std::memory_order_release);
  if (Auditor && Auditor(Ctx.Index)) {
    // The index is still encoded in some live lock word (the detaching
    // thread abandoned a held lock).  Recycling it now would let the
    // next attach() impersonate that owner, so park it instead.
    Quarantined.push_back(Ctx.Index);
  } else {
    FreeIndices.push_back(Ctx.Index);
  }
  LiveCount.fetch_sub(1, std::memory_order_relaxed);
  Ctx = ThreadContext();

  if (SelfDetach) {
    // Drop the detached index's stripe before the index can be recycled.
    // ScopedThreadAttachment restores CurrentThreadContext *before*
    // detaching, so for nested attachments this re-publishes the outer
    // context's stripe; otherwise it reverts to the hashed fallback.
    ThreadContext Outer = CurrentThreadContext;
    setCurrentThreadStripe(Outer.isValid() ? Outer.Index : 0);
  }
}

const ThreadInfo *ThreadRegistry::info(uint16_t Index) const {
  if (Index == 0 || Index > Cap)
    return nullptr;
  return Slots[Index].load(std::memory_order_acquire);
}

double ThreadRegistry::occupancy() const {
  uint32_t Live = LiveCount.load(std::memory_order_relaxed);
  uint32_t Parked;
  {
    LockGuard Guard(Mu);
    Parked = static_cast<uint32_t>(Quarantined.size());
  }
  return static_cast<double>(Live + Parked) / static_cast<double>(Cap);
}

void ThreadRegistry::setBlockedOn(const ThreadContext &Ctx,
                                  const Object *Obj) {
  assert(Ctx.isValid() && Ctx.Registry == this &&
         "publishing a waits-for edge for a foreign context");
  ThreadInfo *Info = Slots[Ctx.Index].load(std::memory_order_acquire);
  if (Info)
    Info->BlockedOn.store(Obj, std::memory_order_release);
}

const Object *ThreadRegistry::blockedOn(uint16_t Index) const {
  const ThreadInfo *Info = info(Index);
  return Info ? Info->BlockedOn.load(std::memory_order_acquire) : nullptr;
}

void ThreadRegistry::setIndexAuditor(IndexAuditor NewAuditor) {
  LockGuard Guard(Mu);
  Auditor = std::move(NewAuditor);
}

uint32_t ThreadRegistry::quarantinedIndexCount() const {
  LockGuard Guard(Mu);
  return static_cast<uint32_t>(Quarantined.size());
}

ThreadContext ThreadRegistry::currentContext() {
  return CurrentThreadContext;
}

ScopedThreadAttachment::ScopedThreadAttachment(ThreadRegistry &Registry,
                                               std::string Name) {
  Ctx = Registry.attach(std::move(Name));
  SavedCurrent = CurrentThreadContext;
  CurrentThreadContext = Ctx;
}

ScopedThreadAttachment::~ScopedThreadAttachment() {
  CurrentThreadContext = SavedCurrent;
  if (Ctx.isValid())
    Ctx.registry().detach(Ctx);
}
