//===- txn/ConflictPolicy.cpp - NoWait / WaitDie / Validated --------------===//

#include "txn/ConflictPolicy.h"

#include "support/Compiler.h"
#include "support/Timer.h"

#include <algorithm>
#include <thread>

namespace thinlocks {
namespace txn {

ConflictPolicy::~ConflictPolicy() = default;

const char *conflictPolicyName(ConflictPolicyKind Kind) {
  switch (Kind) {
  case ConflictPolicyKind::NoWait:
    return "NoWait";
  case ConflictPolicyKind::WaitDie:
    return "WaitDie";
  case ConflictPolicyKind::Validated:
    return "Validated";
  }
  return "?";
}

bool parseConflictPolicy(std::string_view Name, ConflictPolicyKind &Out) {
  for (ConflictPolicyKind Kind : allConflictPolicies()) {
    if (Name == conflictPolicyName(Kind)) {
      Out = Kind;
      return true;
    }
  }
  return false;
}

const std::vector<ConflictPolicyKind> &allConflictPolicies() {
  static const std::vector<ConflictPolicyKind> All = {
      ConflictPolicyKind::NoWait, ConflictPolicyKind::WaitDie,
      ConflictPolicyKind::Validated};
  return All;
}

const char *txnStatusName(TxnStatus Status) {
  switch (Status) {
  case TxnStatus::Committed:
    return "committed";
  case TxnStatus::AbortedBusy:
    return "busy";
  case TxnStatus::AbortedDie:
    return "die";
  case TxnStatus::AbortedDeadlock:
    return "deadlock";
  case TxnStatus::AbortedValidation:
    return "validation";
  }
  return "?";
}

void drawTxnAccess(const load::ZipfSampler &Popularity, SplitMix64 &Rng,
                   uint32_t ReadTarget, uint32_t WriteTarget,
                   TxnAccess &Access) {
  Access.Reads.clear();
  Access.Writes.clear();
  const size_t Universe = Popularity.universe();
  // Writes first: a universe smaller than the combined targets sheds
  // reads before writes, so update pressure survives the degenerate
  // corners (N == 1 becomes one blind write).
  size_t Total = std::min<size_t>(Universe, size_t(ReadTarget) + WriteTarget);
  size_t Writes = std::min<size_t>(WriteTarget, Total);

  auto taken = [&Access](size_t Idx) {
    return std::find(Access.Writes.begin(), Access.Writes.end(), Idx) !=
               Access.Writes.end() ||
           std::find(Access.Reads.begin(), Access.Reads.end(), Idx) !=
               Access.Reads.end();
  };
  auto drawDistinct = [&]() -> size_t {
    for (unsigned Attempt = 0; Attempt < 64; ++Attempt) {
      size_t Idx = Popularity.sample(Rng);
      if (!taken(Idx))
        return Idx;
    }
    // Tiny, skewed universes can make rejection sampling slow; Total <=
    // Universe guarantees a free index exists, so scan for it.
    size_t Start = Rng.nextBounded(Universe);
    for (size_t I = 0; I < Universe; ++I) {
      size_t Idx = (Start + I) % Universe;
      if (!taken(Idx))
        return Idx;
    }
    return 0; // Unreachable: Total <= Universe.
  };

  for (size_t I = 0; I < Writes; ++I)
    Access.Writes.push_back(drawDistinct());
  for (size_t I = Writes; I < Total; ++I)
    Access.Reads.push_back(drawDistinct());
}

void prefetchAccessSet(const TxnTable &Table, const TxnAccess &Access) {
  for (size_t Idx : Access.Writes) {
    TL_PREFETCH(Table.Objects[Idx], 1);
    TL_PREFETCH(&Table.Records[Idx], 1);
  }
  for (size_t Idx : Access.Reads)
    TL_PREFETCH(&Table.Records[Idx], 0);
}

bool occLockWriteSet(const TxnTable &Table, const ThreadContext &Thread,
                     const std::vector<size_t> &SortedWrites,
                     std::vector<size_t> &Acquired, uint32_t Spins) {
  for (size_t Idx : SortedWrites) {
    bool Locked = false;
    for (uint32_t Spin = 0; Spin < Spins; ++Spin) {
      if (Table.Sync->tryLock(Table.Objects[Idx], Thread)) {
        Locked = true;
        break;
      }
    }
    if (!Locked) {
      occAbortWriteSet(Table, Thread, Acquired);
      return false;
    }
    Acquired.push_back(Idx);
    // Make the commit lock observable (the Silo lock bit): a concurrent
    // validator that read this object must see the odd mark and abort,
    // and lock-free seqlock readers retry past it.  We hold the
    // monitor, so no concurrent writer races this word.
    std::atomic<uint64_t> &Version = Table.Records[Idx].Version;
    Version.store(Version.load(std::memory_order_relaxed) | 1,
                  std::memory_order_release);
  }
  return true;
}

void occAbortWriteSet(const TxnTable &Table, const ThreadContext &Thread,
                      std::vector<size_t> &Acquired) {
  for (size_t I = Acquired.size(); I-- > 0;) {
    size_t Idx = Acquired[I];
    // Restore the pre-window even version before the monitor is
    // released; nothing was published, so readers see the old snapshot.
    std::atomic<uint64_t> &Version = Table.Records[Idx].Version;
    Version.store(Version.load(std::memory_order_relaxed) & ~uint64_t(1),
                  std::memory_order_release);
    Table.Sync->unlock(Table.Objects[Idx], Thread);
  }
  Acquired.clear();
}

bool occValidateReadSet(const TxnTable &Table, const std::vector<size_t> &Reads,
                        const std::vector<uint64_t> &ReadVersions) {
  // Store-buffering pair with a concurrent committer: our lock marks
  // are sequenced before this fence, its validation loads after its
  // own fence — seq_cst fences totally order, so two crossing commit
  // windows cannot both read the other's pre-mark versions.  Without
  // this, write skew (both validate, both publish) would be possible
  // even with the marks in place.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (size_t I = 0; I < Reads.size(); ++I) {
    uint64_t Now =
        Table.Records[Reads[I]].Version.load(std::memory_order_acquire);
    // Snapshots are always even, so `Now != snapshot` catches both a
    // moved version (conflicting commit) and an odd one (a concurrent
    // transaction's commit lock).
    if (Now != ReadVersions[I])
      return false;
  }
  return true;
}

namespace {

/// Publishes one committed write to \p Idx.  Caller holds the object's
/// monitor (2PL) or its OCC commit lock — either way no concurrent
/// writer exists, so plain loads suffice on our own word.  The odd
/// intermediate marks write-in-progress for lock-free OCC readers (a
/// no-op when the OCC commit window already marked it); release
/// ordering makes the final even version carry the value.
void applyWrite(const TxnTable &Table, size_t Idx, TxnScratch &Scratch) {
  TxnRecord &Record = Table.Records[Idx];
  uint64_t Version = Record.Version.load(std::memory_order_relaxed);
  uint64_t Next = ((Version >> 1) + 1) << 1;
  Record.Version.store(Version | 1, std::memory_order_release);
  Record.Value.store(Next, std::memory_order_release);
  Record.Version.store(Next, std::memory_order_release);
  ++Scratch.WritesApplied;
}

/// The serializability spot-check on a monitor-held read: the version
/// must be quiescent (even) and the value must mirror it.  Any torn or
/// lost update shows up here.
void checkHeldRead(const TxnTable &Table, size_t Idx, TxnScratch &Scratch) {
  const TxnRecord &Record = Table.Records[Idx];
  uint64_t Version = Record.Version.load(std::memory_order_acquire);
  uint64_t Value = Record.Value.load(std::memory_order_acquire);
  if ((Version & 1) != 0 || Value != Version)
    ++Scratch.ConsistencyViolations;
}

/// The transaction's in-critical-section "work": a yield-spin so
/// conflicting schedules interleave even on one timesliced CPU.
void holdFor(uint64_t Nanos) {
  if (Nanos == 0)
    return;
  uint64_t Start = monotonicNanos();
  while (monotonicNanos() - Start < Nanos)
    std::this_thread::yield();
}

/// Shared 2PL body once every access is locked: check reads, publish
/// writes, release everything in reverse acquisition order.  \p StampTs
/// non-zero means wait-die stamps must be cleared before each unlock.
TxnStatus commitTwoPhase(const TxnTable &Table, const ThreadContext &Thread,
                         const TxnAccess &Access, TxnScratch &Scratch,
                         uint64_t StampTs, uint64_t HoldNanos) {
  holdFor(HoldNanos);
  for (size_t Idx : Access.Reads)
    checkHeldRead(Table, Idx, Scratch);
  for (size_t Idx : Access.Writes)
    applyWrite(Table, Idx, Scratch);
  for (size_t I = Scratch.Acquired.size(); I-- > 0;) {
    size_t Idx = Scratch.Acquired[I];
    if (StampTs != 0)
      Table.OwnerTs[Idx].store(0, std::memory_order_release);
    Table.Sync->unlock(Table.Objects[Idx], Thread);
  }
  Scratch.Acquired.clear();
  return TxnStatus::Committed;
}

/// Abort path shared by the 2PL policies: release whatever was
/// acquired, newest first, clearing wait-die stamps when present.
TxnStatus abortTwoPhase(const TxnTable &Table, const ThreadContext &Thread,
                        TxnScratch &Scratch, uint64_t StampTs,
                        TxnStatus Status) {
  for (size_t I = Scratch.Acquired.size(); I-- > 0;) {
    size_t Idx = Scratch.Acquired[I];
    if (StampTs != 0)
      Table.OwnerTs[Idx].store(0, std::memory_order_release);
    Table.Sync->unlock(Table.Objects[Idx], Thread);
  }
  Scratch.Acquired.clear();
  return Status;
}

class NoWaitPolicy final : public ConflictPolicy {
  TxnTable Table;
  PolicyTuning Tuning;

public:
  NoWaitPolicy(const TxnTable &Table, const PolicyTuning &Tuning)
      : Table(Table), Tuning(Tuning) {}

  ConflictPolicyKind kind() const override {
    return ConflictPolicyKind::NoWait;
  }

  TxnStatus execute(const ThreadContext &Thread, uint64_t,
                    const TxnAccess &Access, TxnScratch &Scratch) override {
    prefetchAccessSet(Table, Access);
    Scratch.Acquired.clear();
    // Draw order, writes first — deliberately unsorted so conflicting
    // transactions collide in both directions; NoWait never blocks, so
    // acquisition order cannot deadlock.
    for (const std::vector<size_t> *Set : {&Access.Writes, &Access.Reads}) {
      for (size_t Idx : *Set) {
        if (!Table.Sync->tryLock(Table.Objects[Idx], Thread))
          return abortTwoPhase(Table, Thread, Scratch, /*StampTs=*/0,
                               TxnStatus::AbortedBusy);
        Scratch.Acquired.push_back(Idx);
      }
    }
    return commitTwoPhase(Table, Thread, Access, Scratch, /*StampTs=*/0,
                          Tuning.HoldNanos);
  }
};

class WaitDiePolicy final : public ConflictPolicy {
  TxnTable Table;
  PolicyTuning Tuning;

public:
  WaitDiePolicy(const TxnTable &Table, const PolicyTuning &Tuning)
      : Table(Table), Tuning(Tuning) {}

  ConflictPolicyKind kind() const override {
    return ConflictPolicyKind::WaitDie;
  }

  /// Acquires \p Idx's monitor under the wait-die rule, stamping
  /// OwnerTs on success.
  TxnStatus acquire(const ThreadContext &Thread, uint64_t Ts, size_t Idx) {
    uint32_t Rounds = 0;
    for (;;) {
      if (Table.Sync->tryLock(Table.Objects[Idx], Thread)) {
        Table.OwnerTs[Idx].store(Ts, std::memory_order_release);
        return TxnStatus::Committed; // "acquired" sentinel for callers.
      }
      uint64_t Holder = Table.OwnerTs[Idx].load(std::memory_order_acquire);
      if (waitDieDecide(Ts, Holder) == WaitDieDecision::Die)
        return TxnStatus::AbortedDie;
      // Older than the holder — or the holder is mid-stamp (Retry):
      // wait one bounded rung either way.  The Retry case can point a
      // waits-for edge younger -> older; on thin locks the cycle
      // detector turns any resulting cycle into a precise
      // TimedLockStatus::Deadlock, and elsewhere the rung budget below
      // bounds the damage to AbortedBusy.
      switch (Table.Sync->tryLockFor(Table.Objects[Idx], Thread,
                                     Tuning.WaitNanos)) {
      case TimedLockStatus::Acquired:
        Table.OwnerTs[Idx].store(Ts, std::memory_order_release);
        return TxnStatus::Committed;
      case TimedLockStatus::Deadlock:
        return TxnStatus::AbortedDeadlock;
      case TimedLockStatus::TimedOut:
        if (++Rounds >= Tuning.MaxWaitRounds)
          return TxnStatus::AbortedBusy;
        break;
      }
    }
  }

  TxnStatus execute(const ThreadContext &Thread, uint64_t Ts,
                    const TxnAccess &Access, TxnScratch &Scratch) override {
    prefetchAccessSet(Table, Access);
    Scratch.Acquired.clear();
    for (const std::vector<size_t> *Set : {&Access.Writes, &Access.Reads}) {
      for (size_t Idx : *Set) {
        TxnStatus Status = acquire(Thread, Ts, Idx);
        if (Status != TxnStatus::Committed)
          return abortTwoPhase(Table, Thread, Scratch, Ts, Status);
        Scratch.Acquired.push_back(Idx);
      }
    }
    return commitTwoPhase(Table, Thread, Access, Scratch, Ts,
                          Tuning.HoldNanos);
  }
};

class ValidatedPolicy final : public ConflictPolicy {
  TxnTable Table;
  PolicyTuning Tuning;

public:
  ValidatedPolicy(const TxnTable &Table, const PolicyTuning &Tuning)
      : Table(Table), Tuning(Tuning) {}

  ConflictPolicyKind kind() const override {
    return ConflictPolicyKind::Validated;
  }

  TxnStatus execute(const ThreadContext &Thread, uint64_t,
                    const TxnAccess &Access, TxnScratch &Scratch) override {
    prefetchAccessSet(Table, Access);
    Scratch.Acquired.clear();
    Scratch.ReadVersions.clear();

    // Read phase: lock-free seqlock reads.  A stable snapshot is an
    // even version observed unchanged around the value load; the
    // acquire on the value load is what makes the second version read
    // conclusive (a newer writer's odd mark is visible by then).
    for (size_t Idx : Access.Reads) {
      const TxnRecord &Record = Table.Records[Idx];
      bool Stable = false;
      for (uint32_t Attempt = 0; Attempt < Tuning.MaxReadRetries; ++Attempt) {
        uint64_t Before = Record.Version.load(std::memory_order_acquire);
        if ((Before & 1) != 0)
          continue;
        uint64_t Value = Record.Value.load(std::memory_order_acquire);
        uint64_t After = Record.Version.load(std::memory_order_acquire);
        if (Before != After)
          continue;
        if (Value != Before)
          ++Scratch.ConsistencyViolations;
        Scratch.ReadVersions.push_back(Before);
        Stable = true;
        break;
      }
      if (!Stable)
        return TxnStatus::AbortedValidation;
    }

    // Commit window: lock the write set only, in ascending index order
    // so concurrent committers cannot deadlock, each lock a short
    // bounded tryLock spin, each locked version marked odd so the
    // window is observable to concurrent validators.
    Scratch.SortedWrites.assign(Access.Writes.begin(), Access.Writes.end());
    std::sort(Scratch.SortedWrites.begin(), Scratch.SortedWrites.end());
    if (!occLockWriteSet(Table, Thread, Scratch.SortedWrites,
                         Scratch.Acquired, Tuning.CommitLockSpins))
      return TxnStatus::AbortedBusy;

    holdFor(Tuning.HoldNanos);

    // Validation: every read version must still be the snapshot we
    // used (reads and writes are disjoint, so none of these is our own
    // commit lock; an odd or moved version means a conflicting commit
    // — in flight or published).
    if (!occValidateReadSet(Table, Access.Reads, Scratch.ReadVersions)) {
      occAbortWriteSet(Table, Thread, Scratch.Acquired);
      return TxnStatus::AbortedValidation;
    }

    for (size_t Idx : Scratch.SortedWrites)
      applyWrite(Table, Idx, Scratch);
    for (size_t I = Scratch.Acquired.size(); I-- > 0;)
      Table.Sync->unlock(Table.Objects[Scratch.Acquired[I]], Thread);
    Scratch.Acquired.clear();
    return TxnStatus::Committed;
  }
};

} // namespace

std::unique_ptr<ConflictPolicy> makeConflictPolicy(ConflictPolicyKind Kind,
                                                   const TxnTable &Table,
                                                   const PolicyTuning &Tuning) {
  switch (Kind) {
  case ConflictPolicyKind::NoWait:
    return std::make_unique<NoWaitPolicy>(Table, Tuning);
  case ConflictPolicyKind::WaitDie:
    return std::make_unique<WaitDiePolicy>(Table, Tuning);
  case ConflictPolicyKind::Validated:
    return std::make_unique<ValidatedPolicy>(Table, Tuning);
  }
  return nullptr;
}

} // namespace txn
} // namespace thinlocks
