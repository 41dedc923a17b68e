//===- protocols/FissileLock.cpp - TS + MCS fissile lock ------------------===//

#include "protocols/FissileLock.h"

#include "park/ParkingLot.h"
#include "support/SpinWait.h"
#include "support/Timer.h"

#include <cassert>
#include <chrono>
#include <cstdio>

using namespace thinlocks;

FissileLock::FissileLock() : Shards(NumShards) {}

FissileLock::~FissileLock() = default;

//===----------------------------------------------------------------------===//
// Guarded fast-path cores
//===----------------------------------------------------------------------===//

bool FissileLock::fastAcquireOutOfLine(FissileCell &Cell, uint32_t Tid) {
  // The whole TS fast path: one CAS, unlocked -> owned.  The guard proves
  // this stays straight-line and call-free at -O2.
  uint32_t Expected = 0;
  return Cell.Word.compare_exchange_strong(Expected, Tid,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed);
}

void FissileLock::fastReleaseOutOfLine(FissileCell &Cell) {
  // The TS release: one store.  The release order publishes the critical
  // section (and the owner-only Depth/MorphedCount writes) to the next
  // acquirer's CAS.
  Cell.Word.store(0, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Side table
//===----------------------------------------------------------------------===//

FissileLock::Shard &FissileLock::shardFor(const Object *Obj) const {
  // Mix the address; objects are 16-byte aligned, so drop the low bits.
  uintptr_t Address = reinterpret_cast<uintptr_t>(Obj);
  return Shards[(Address >> 4) * 0x9e3779b97f4a7c15ull >> 60];
}

FissileLock::FissileCell *FissileLock::resolve(const Object *Obj,
                                               bool CreateIfMissing) const {
  Shard &S = shardFor(Obj);
  LockGuard Guard(S.Mu);
  auto It = S.Map.find(Obj);
  if (It != S.Map.end())
    return It->second.get();
  if (!CreateIfMissing)
    return nullptr;
  auto Cell = std::make_unique<FissileCell>();
  FissileCell *Raw = Cell.get();
  S.Map.emplace(Obj, std::move(Cell));
  const_cast<FissileLock *>(this)->CellsCreated.increment();
  return Raw;
}

//===----------------------------------------------------------------------===//
// Acquire / release
//===----------------------------------------------------------------------===//

void FissileLock::acquireCell(FissileCell &Cell, const ThreadContext &Thread) {
  if (fastAcquireOutOfLine(Cell, Thread.index())) {
    Cell.Depth = 1;
    FastAcquires.increment();
    return;
  }
  acquireSlow(Cell, Thread);
}

void FissileLock::acquireSlow(FissileCell &Cell, const ThreadContext &Thread) {
  const uint32_t Tid = Thread.index();
  QueuedAcquires.increment();

  // Join the MCS arrival queue.  A predecessor means we are not the head:
  // block on our own Parker until the predecessor grants head position
  // with a directed unpark — strict FIFO among queued threads.
  QueueNode Node;
  Node.Pk = Thread.parker();
  QueueNode *Pred = Cell.Tail.exchange(&Node, std::memory_order_acq_rel);
  if (Pred) {
    Pred->Next.store(&Node, std::memory_order_release);
    while (Node.Granted.load(std::memory_order_acquire) == 0)
      Node.Pk->park(); // Spurious wakes re-check the grant flag.
  }

  // Head of the queue: the only thread competing on the TS word.  Spin
  // briefly, then deadline-park in the lot; the releaser's unparkOne ends
  // the park early, and the bounded deadline caps the cost of the
  // store-buffer race between "store 0" and "read Sleepers" on the
  // release side — a missed wake is one park quantum, never lost.
  SpinWait Spin(DefaultSpinPolicy);
  for (;;) {
    uint32_t Expected = 0;
    if (Cell.Word.compare_exchange_weak(Expected, Tid,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed))
      break;
    if (uint64_t ParkNanos = Spin.nextRound()) {
      HeadParks.increment();
      Cell.Sleepers.fetch_add(1, std::memory_order_acq_rel);
      ParkingLot::global().parkUntil(
          &Cell, *Node.Pk,
          [&Cell] {
            return Cell.Word.load(std::memory_order_acquire) != 0;
          },
          deadlineAfter(static_cast<int64_t>(ParkNanos)));
      Cell.Sleepers.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  Cell.Depth = 1;

  // Owner now; pass head position to the successor so it is already
  // poised on the TS word when we release (the fissile handoff).
  QueueNode *Succ = Node.Next.load(std::memory_order_acquire);
  if (!Succ) {
    QueueNode *Expected = &Node;
    if (!Cell.Tail.compare_exchange_strong(Expected, nullptr,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      // A successor swung the tail but has not published Next yet; it is
      // about to, so this spin is bounded by one store.
      while (!(Succ = Node.Next.load(std::memory_order_acquire)))
        cpuRelax();
    }
  }
  if (Succ) {
    Handoffs.increment();
    Parker *SuccPk = Succ->Pk;
    Succ->Granted.store(1, std::memory_order_release);
    // After the store the successor may run and destroy its node; only
    // the captured Parker (registry-lifetime storage) is touched.
    SuccPk->unpark();
  }
}

void FissileLock::releaseCell(FissileCell &Cell) {
  // Grant one morphed waiter per final release (wait-morphing: notified
  // waiters absorb zero wakeups until the monitor is actually free).
  WaitNode *Grantee = nullptr;
  if (Cell.MorphedCount > 0) {
    LockGuard Guard(Cell.WaitMu);
    Grantee = Cell.MorphedHead;
    if (Grantee) {
      Cell.MorphedHead = Grantee->Next;
      if (!Cell.MorphedHead)
        Cell.MorphedTail = nullptr;
      Grantee->Next = nullptr;
      Grantee->Where = WaitNode::State::Granted;
      --Cell.MorphedCount;
    }
  }
  Parker *GranteePk = Grantee ? Grantee->Pk : nullptr;
  fastReleaseOutOfLine(Cell);
  // Post-release the node may be consumed and destroyed by its waiter;
  // touch only the captured Parker.
  if (GranteePk)
    GranteePk->unpark();
  if (Cell.Sleepers.load(std::memory_order_acquire) != 0)
    ParkingLot::global().unparkOne(&Cell);
}

void FissileLock::lock(Object *Obj, const ThreadContext &Thread) {
  assert(Thread.isValid() && "locking with an unattached thread");
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/true);
  const uint32_t Tid = Thread.index();
  if (fastAcquireOutOfLine(*Cell, Tid)) {
    Cell->Depth = 1;
    FastAcquires.increment();
    return;
  }
  if (Cell->Word.load(std::memory_order_relaxed) == Tid) {
    ++Cell->Depth;
    return;
  }
  acquireSlow(*Cell, Thread);
}

void FissileLock::unlock(Object *Obj, const ThreadContext &Thread) {
  [[maybe_unused]] bool Ok = unlockChecked(Obj, Thread);
  assert(Ok && "unlock of a monitor the thread does not own");
}

bool FissileLock::unlockChecked(Object *Obj, const ThreadContext &Thread) {
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/false);
  if (!Cell || Cell->Word.load(std::memory_order_relaxed) != Thread.index())
    return false;
  if (--Cell->Depth > 0)
    return true;
  releaseCell(*Cell);
  return true;
}

bool FissileLock::tryLock(Object *Obj, const ThreadContext &Thread) {
  assert(Thread.isValid() && "locking with an unattached thread");
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/true);
  const uint32_t Tid = Thread.index();
  if (fastAcquireOutOfLine(*Cell, Tid)) {
    Cell->Depth = 1;
    FastAcquires.increment();
    return true;
  }
  if (Cell->Word.load(std::memory_order_relaxed) == Tid) {
    ++Cell->Depth;
    return true;
  }
  return false;
}

TimedLockStatus FissileLock::tryLockFor(Object *Obj,
                                        const ThreadContext &Thread,
                                        int64_t TimeoutNanos) {
  if (tryLock(Obj, Thread))
    return TimedLockStatus::Acquired;
  if (TimeoutNanos <= 0)
    return degradeToTimedOut(false);

  // Impatient path: never joins the MCS queue (an abortable MCS node
  // would complicate every handoff); instead spin/park on the TS word
  // directly, bounded by the deadline.  Fissile has no waits-for graph,
  // so the outcome degrades to TimedOut, never Deadlock.
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/true);
  const uint32_t Tid = Thread.index();
  const auto Deadline = deadlineAfter(TimeoutNanos);
  SpinWait Spin(DefaultSpinPolicy);
  for (;;) {
    uint32_t Expected = 0;
    if (Cell->Word.compare_exchange_weak(Expected, Tid,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      Cell->Depth = 1;
      return TimedLockStatus::Acquired;
    }
    auto Now = std::chrono::steady_clock::now();
    if (Now >= Deadline)
      return degradeToTimedOut(false);
    if (uint64_t ParkNanos = Spin.nextRound()) {
      auto Bound = Now + std::chrono::nanoseconds(ParkNanos);
      Cell->Sleepers.fetch_add(1, std::memory_order_acq_rel);
      ParkingLot::global().parkUntil(
          Cell, *Thread.parker(),
          [Cell] {
            return Cell->Word.load(std::memory_order_acquire) != 0;
          },
          Bound < Deadline ? Bound : Deadline);
      Cell->Sleepers.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
}

bool FissileLock::holdsLock(Object *Obj, const ThreadContext &Thread) const {
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/false);
  return Cell &&
         Cell->Word.load(std::memory_order_acquire) == Thread.index();
}

uint32_t FissileLock::lockDepth(Object *Obj,
                                const ThreadContext &Thread) const {
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/false);
  // Depth is owner-only state: reading it is safe exactly when the
  // calling thread is the owner (then nobody else writes it).
  if (!Cell || Cell->Word.load(std::memory_order_acquire) != Thread.index())
    return 0;
  return Cell->Depth;
}

//===----------------------------------------------------------------------===//
// Wait / notify
//===----------------------------------------------------------------------===//

WaitStatus FissileLock::wait(Object *Obj, const ThreadContext &Thread,
                             int64_t TimeoutNanos) {
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/false);
  if (!Cell || Cell->Word.load(std::memory_order_relaxed) != Thread.index())
    return WaitStatus::NotOwner;

  // Join the wait set, then fully release the monitor (saving the
  // recursion depth across the wait, per monitor semantics).
  WaitNode Node;
  Node.Pk = Thread.parker();
  {
    LockGuard Guard(Cell->WaitMu);
    Node.Where = WaitNode::State::InWaitSet;
    if (Cell->WaitTail)
      Cell->WaitTail->Next = &Node;
    else
      Cell->WaitHead = &Node;
    Cell->WaitTail = &Node;
  }
  const uint32_t SavedDepth = Cell->Depth;
  Cell->Depth = 0;
  releaseCell(*Cell);

  bool HasDeadline = TimeoutNanos >= 0;
  const auto Deadline = HasDeadline
                            ? deadlineAfter(TimeoutNanos)
                            : std::chrono::steady_clock::time_point::max();
  bool TimedOut = false;
  for (;;) {
    {
      LockGuard Guard(Cell->WaitMu);
      if (Node.Where == WaitNode::State::Granted)
        break;
      if (HasDeadline && std::chrono::steady_clock::now() >= Deadline) {
        if (Node.Where == WaitNode::State::InWaitSet) {
          // Self-unlink: walk the singly linked wait list.
          WaitNode **Link = &Cell->WaitHead;
          WaitNode *Prev = nullptr;
          while (*Link != &Node) {
            Prev = *Link;
            Link = &(*Link)->Next;
          }
          *Link = Node.Next;
          if (Cell->WaitTail == &Node)
            Cell->WaitTail = Prev;
          Node.Where = WaitNode::State::Removed;
          TimedOut = true;
          break;
        }
        // Morphed concurrently with the timeout: the notify counts, so
        // stop watching the clock and wait for the release-time grant.
        HasDeadline = false;
      }
    }
    if (HasDeadline)
      Node.Pk->parkUntil(Deadline);
    else
      Node.Pk->park(); // Spurious wakes re-check Where above.
  }

  // Reacquire at the saved depth (both the notified and the timed-out
  // waiter return owning the monitor).
  acquireCell(*Cell, Thread);
  Cell->Depth = SavedDepth;
  return TimedOut ? WaitStatus::TimedOut : WaitStatus::Notified;
}

void FissileLock::morphOneLocked(FissileCell &Cell) {
  WaitNode *Node = Cell.WaitHead;
  assert(Node && "morph from an empty wait set");
  Cell.WaitHead = Node->Next;
  if (!Cell.WaitHead)
    Cell.WaitTail = nullptr;
  Node->Next = nullptr;
  Node->Where = WaitNode::State::Morphed;
  if (Cell.MorphedTail)
    Cell.MorphedTail->Next = Node;
  else
    Cell.MorphedHead = Node;
  Cell.MorphedTail = Node;
  ++Cell.MorphedCount;
  Morphs.increment();
}

NotifyStatus FissileLock::notify(Object *Obj, const ThreadContext &Thread) {
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/false);
  if (!Cell || Cell->Word.load(std::memory_order_relaxed) != Thread.index())
    return NotifyStatus::NotOwner;
  LockGuard Guard(Cell->WaitMu);
  if (Cell->WaitHead)
    morphOneLocked(*Cell);
  return NotifyStatus::Ok;
}

NotifyStatus FissileLock::notifyAll(Object *Obj, const ThreadContext &Thread) {
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/false);
  if (!Cell || Cell->Word.load(std::memory_order_relaxed) != Thread.index())
    return NotifyStatus::NotOwner;
  LockGuard Guard(Cell->WaitMu);
  while (Cell->WaitHead)
    morphOneLocked(*Cell);
  return NotifyStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

FissileLockStats FissileLock::stats() const {
  FissileLockStats S;
  S.FastAcquires = FastAcquires.value();
  S.QueuedAcquires = QueuedAcquires.value();
  S.HeadParks = HeadParks.value();
  S.Handoffs = Handoffs.value();
  S.Morphs = Morphs.value();
  S.CellsCreated = CellsCreated.value();
  return S;
}

std::string FissileLock::statsJson() const {
  FissileLockStats S = stats();
  char Buffer[256];
  std::snprintf(Buffer, sizeof(Buffer),
                "{\"fast_acquires\": %llu, \"queued_acquires\": %llu, "
                "\"head_parks\": %llu, \"handoffs\": %llu, "
                "\"morphs\": %llu, \"cells\": %llu}",
                (unsigned long long)S.FastAcquires,
                (unsigned long long)S.QueuedAcquires,
                (unsigned long long)S.HeadParks,
                (unsigned long long)S.Handoffs,
                (unsigned long long)S.Morphs,
                (unsigned long long)S.CellsCreated);
  return Buffer;
}

uint64_t FissileLock::cellCount() const { return CellsCreated.value(); }

size_t FissileLock::waitSetSize(const Object *Obj) const {
  FissileCell *Cell = resolve(Obj, /*CreateIfMissing=*/false);
  if (!Cell)
    return 0;
  LockGuard Guard(Cell->WaitMu);
  size_t Count = 0;
  for (WaitNode *Node = Cell->WaitHead; Node; Node = Node->Next)
    ++Count;
  for (WaitNode *Node = Cell->MorphedHead; Node; Node = Node->Next)
    ++Count;
  return Count;
}
