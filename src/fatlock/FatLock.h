//===- fatlock/FatLock.h - Heavy-weight Java monitor -----------*- C++ -*-===//
///
/// \file
/// The "pre-existing heavy-weight system" the paper layers thin locks on
/// (§2.1): a multi-word monitor holding the owning thread, a nested lock
/// count, a FIFO entry queue, and a wait set, supporting the full Java
/// monitor semantics (lock, unlock, wait, notify, notifyAll).
///
/// The count here is "the number of locks (not the number of locks minus
/// one, as in a thin lock)" — paper §2.3.
///
/// Blocking is built on the waiting substrate (park/Parker.h): the entry
/// queue and the wait set are intrusive FIFOs of stack-allocated nodes,
/// each naming the blocked thread's Parker, and every wake is a *direct
/// handoff* — the releaser (or notifier) dequeues exactly the thread
/// whose turn it is and unparks it.  The previous implementation's
/// condition variables broadcast every release to every queued thread
/// (notify_all, with a ticket check deciding who proceeds); here only
/// the FIFO head is ever woken, so a release costs one futex wake
/// regardless of queue depth.  Entry order is still strictly FIFO: the
/// queue head has exclusive claim on a free monitor, and the
/// non-blocking paths (tryLock, the uncontended fast path) stand down
/// whenever the queue is non-empty — no barging.
///
/// notify/notifyAll *morph* waiters instead of waking them: the wait
/// node is moved from the wait set onto the entry-queue tail and the
/// thread is granted the monitor by a handoff like any other entrant.  A
/// notified thread therefore blocks exactly once per wait/notify round
/// trip (a naive notify wakes it a first time only to park again behind
/// the notifier's hold), and notifyAll of N waiters issues zero wakes up
/// front instead of N — the releases that grant the monitor wake each in
/// FIFO turn.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_FATLOCK_FATLOCK_H
#define THINLOCKS_FATLOCK_FATLOCK_H

#include "support/Mutex.h"
#include "threads/ThreadContext.h"

#include <atomic>
#include <cstdint>
#include <optional>

namespace thinlocks {

class LockStats;
class Parker;

/// Aggregate event counts for one FatLock (snapshot under the internal
/// mutex, so values are mutually consistent).
struct FatLockStats {
  uint64_t Acquisitions = 0;
  uint64_t ContendedAcquisitions = 0;
  uint64_t Waits = 0;
  uint64_t Notifies = 0;
  uint64_t Timeouts = 0;
};

/// A heavy-weight monitor.  Entry is FIFO (queue-ordered); the wait set
/// is FIFO (notify wakes the longest-waiting thread).  All identities are
/// 15-bit thread indices from a ThreadRegistry.
class FatLock {
public:
  enum class WaitResult { Notified, TimedOut };

  /// Result of an unlock that may retire the monitor (deflation support;
  /// see ThinLockImpl's DeflationPolicy).
  enum class ReleaseResult { Released, RetiredNow, NotOwner };

  FatLock() = default;
  FatLock(const FatLock &) = delete;
  FatLock &operator=(const FatLock &) = delete;

  /// Acquires the monitor for \p Thread, blocking FIFO behind earlier
  /// arrivals.  Recursive acquisition increments the hold count.
  /// Asserts that the monitor has not been retired.
  void lock(const ThreadContext &Thread) TL_EXCLUDES(Mu);

  /// Outcome of a bounded acquisition attempt.
  enum class TimedResult { Acquired, TimedOut, Retired };

  /// Like lock(), but gives up after \p TimeoutNanos, and returns
  /// Retired without acquiring if the monitor has been *retired* by
  /// deflation — the caller must re-read the object's lock word and
  /// start over.  A non-positive timeout makes one attempt: it acquires
  /// a free monitor (or a recursive hold) and otherwise times out.  On
  /// timeout the thread dequeues itself from the entry FIFO — later
  /// entrants are not stranded behind it — and the caller typically runs
  /// a deadlock check before retrying (see ThinLockImpl).  Retirement
  /// can only happen while the entry queue is empty, so once this call
  /// has queued it cannot be stranded.
  TimedResult lockIfLiveFor(const ThreadContext &Thread,
                            int64_t TimeoutNanos) TL_EXCLUDES(Mu);

  /// Releases one hold; when releasing the last hold finds the monitor
  /// completely quiescent (no queued entrants, no waiters), retires it:
  /// a retired monitor rejects all future use via lockIfLiveFor().  The
  /// caller then owns re-publishing the object's thin lock word.
  ReleaseResult unlockAndTryRetire(const ThreadContext &Thread)
      TL_EXCLUDES(Mu);

  /// \returns true once the monitor has been retired by deflation.
  bool isRetired() const TL_EXCLUDES(Mu);

  /// Attempts to acquire without blocking.  Fails if another thread owns
  /// the monitor or if threads are queued ahead.
  bool tryLock(const ThreadContext &Thread) TL_EXCLUDES(Mu);

  /// Non-blocking acquisition attempt distinguishing "busy" from
  /// "retired by deflation" (the latter means: re-read the lock word).
  enum class TryResult { Acquired, Busy, Retired };
  TryResult tryLockStatus(const ThreadContext &Thread) TL_EXCLUDES(Mu);

  /// Acquires ownership with an initial hold count of \p Count.  Used by
  /// lock inflation, which transfers an existing thin-lock nesting depth
  /// into the fat lock.  The monitor must be unowned with an empty queue;
  /// this is guaranteed because inflation happens before the fat lock is
  /// published in the object's lock word.
  void lockWithCount(const ThreadContext &Thread, uint32_t Count)
      TL_EXCLUDES(Mu);

  /// Emergency-inflation variant of lockWithCount() for a *shared*
  /// monitor (the MonitorTable's exhaustion fallback): blocks until the
  /// monitor is free (FIFO), then credits \p Count holds — or, if the
  /// calling thread already owns it because an earlier object of its
  /// was also inflated onto this monitor, merges \p Count into the
  /// existing hold count.
  void lockMergingCount(const ThreadContext &Thread, uint32_t Count)
      TL_EXCLUDES(Mu);

  /// Marks this monitor as never retirable (the shared emergency monitor:
  /// an unknown number of lock words may name it, so deflation must not
  /// recycle it).
  void pin() TL_EXCLUDES(Mu);

  /// \returns true if pin() was called.
  bool isPinned() const TL_EXCLUDES(Mu);

  /// Releases one hold; the monitor is freed when the count reaches zero.
  /// Asserts that \p Thread is the owner.
  void unlock(const ThreadContext &Thread) TL_EXCLUDES(Mu);

  /// Like unlock(), but \returns false (without asserting) when \p Thread
  /// is not the owner — the hook for IllegalMonitorStateException.
  bool unlockChecked(const ThreadContext &Thread) TL_EXCLUDES(Mu);

  /// Java Object.wait(): releases *all* holds, sleeps until notified or
  /// until \p TimeoutNanos elapses (negative = wait forever), then
  /// reacquires the monitor with the original hold count before returning.
  /// Asserts that \p Thread is the owner.
  WaitResult wait(const ThreadContext &Thread, int64_t TimeoutNanos = -1)
      TL_EXCLUDES(Mu);

  /// Wakes the longest-waiting thread, if any.  Asserts ownership.
  /// \returns true if a waiter was woken.
  bool notify(const ThreadContext &Thread) TL_EXCLUDES(Mu);

  /// Wakes every waiter.  Asserts ownership.  \returns how many.
  uint32_t notifyAll(const ThreadContext &Thread) TL_EXCLUDES(Mu);

  /// Routes wake-handoff latency samples (unpark-to-resume nanoseconds,
  /// measured by the Parkers) into \p Stats' time-to-wake histogram.
  /// Set by ThinLockImpl at inflation; null (the default) disables
  /// recording.  The sink must outlive the monitor's last use.
  void setStatsSink(LockStats *Stats) {
    StatsSink.store(Stats, std::memory_order_relaxed);
  }

  /// \returns true if \p Thread currently owns this monitor.
  bool heldBy(const ThreadContext &Thread) const TL_EXCLUDES(Mu);

  /// \returns the owner's thread index, or 0 if unowned (racy snapshot).
  uint16_t ownerIndex() const TL_EXCLUDES(Mu);

  /// \returns the owner's current hold count (racy snapshot).
  uint32_t holdCount() const TL_EXCLUDES(Mu);

  /// \returns the number of threads blocked trying to enter.
  uint32_t entryQueueLength() const TL_EXCLUDES(Mu);

  /// \returns the number of threads in the wait set.
  uint32_t waitSetSize() const TL_EXCLUDES(Mu);

  /// \returns a consistent snapshot of the event counters.
  FatLockStats stats() const TL_EXCLUDES(Mu);

private:
  /// One thread blocked in the entry queue; stack-allocated in the
  /// blocking call, linked FIFO.  All fields are guarded by Mu (stack
  /// nodes cannot carry a per-instance TL_GUARDED_BY; the REQUIRES
  /// annotations on every function that touches them enforce it).
  struct EntryNode {
    Parker *Pk = nullptr;
    EntryNode *Next = nullptr;
  };

  /// One thread in the wait set; stack-allocated in wait().  All fields
  /// are guarded by Mu.  The embedded EntryNode is what notify links
  /// onto the entry FIFO (wait morphing) — the waiting thread keeps
  /// sleeping on the same Parker and is woken by the granting handoff.
  struct WaitNode {
    EntryNode Entry;
    WaitNode *Next = nullptr;
    bool Notified = false;
  };

  // Entry-FIFO plumbing; Mu must be held for all of these.
  void pushEntry(EntryNode *Node) TL_REQUIRES(Mu);
  void removeEntry(EntryNode *Node) TL_REQUIRES(Mu);
  /// \returns the Parker to hand the monitor to (the queue head's), or
  /// null when the queue is empty.  Called by releasers with Owner == 0.
  Parker *entryHandoffTarget() const TL_REQUIRES(Mu);
  /// \returns true when \p Node holds the exclusive claim on the free
  /// monitor (no owner, first in line).
  bool claimable(const EntryNode *Node) const TL_REQUIRES(Mu) {
    return Owner == 0 && EntryHead == Node;
  }
  /// Dequeues \p Node (the head), installs \p Index as owner, and feeds
  /// the wake-latency sample to the stats sink.
  void grantTo(EntryNode *Node, uint16_t Index) TL_REQUIRES(Mu);

  /// The one enqueue/park/claim loop: acquires the monitor for the
  /// calling thread, which must not own it, queueing FIFO behind earlier
  /// arrivals.  Guard must hold Mu on entry and holds it on return (it
  /// is dropped around each park).  With \p TimeoutNanos the wait is
  /// bounded, measured from the moment the thread queues; an uncontended
  /// acquisition never reads the clock.  Counts the acquisition as
  /// contended unless the monitor was free with an empty queue.
  /// \returns false only when the timeout expired, after dequeuing.
  bool acquireSlow(UniqueLock &Guard, const ThreadContext &Thread,
                   std::optional<int64_t> TimeoutNanos = std::nullopt)
      TL_REQUIRES(Mu);
  void removeWaiter(WaitNode *Node) TL_REQUIRES(Mu);
  void recordWakeLatency(const Parker *Pk);

  mutable Mutex Mu;
  uint16_t Owner TL_GUARDED_BY(Mu) = 0;
  bool Retired TL_GUARDED_BY(Mu) = false;
  bool Pinned TL_GUARDED_BY(Mu) = false;
  uint32_t Hold TL_GUARDED_BY(Mu) = 0;
  /// FIFO of threads blocked on entry.  A free monitor belongs to the
  /// head; releasers wake exactly that thread.
  EntryNode *EntryHead TL_GUARDED_BY(Mu) = nullptr;
  EntryNode *EntryTail TL_GUARDED_BY(Mu) = nullptr;
  uint32_t EntryLen TL_GUARDED_BY(Mu) = 0;
  /// FIFO wait set; notify() wakes the head.
  WaitNode *WaitHead TL_GUARDED_BY(Mu) = nullptr;
  WaitNode *WaitTail TL_GUARDED_BY(Mu) = nullptr;
  uint32_t WaitLen TL_GUARDED_BY(Mu) = 0;
  /// Threads currently inside wait() — including the window after
  /// notify removes them from the wait set but before they re-enter the
  /// entry queue.  Retirement (deflation) must treat them as users.
  uint32_t ThreadsInWait TL_GUARDED_BY(Mu) = 0;
  /// Destination for wake-handoff latency samples (null = don't record).
  /// Atomic, not guarded: set once at inflation, read by releasers.
  std::atomic<LockStats *> StatsSink{nullptr};
  FatLockStats Counters TL_GUARDED_BY(Mu);
};

} // namespace thinlocks

#endif // THINLOCKS_FATLOCK_FATLOCK_H
