//===- perfbench/src/ProbedSync.h - Measured SyncBackend -------*- C++ -*-===//
///
/// \file
/// A SyncBackend that forwards to the protocol under test and measures
/// every call on the way through: lock() and tryLock() times go to the
/// calling thread's acquire histogram (the acquire_p99_ns metric), and in
/// a traced run each call becomes a leaf span of its layer (core, fatlock
/// or park).  The sessions and txn workloads hand this to the library in
/// place of the protocol's own backend, so the library's calls into the
/// protocol are what get measured.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBEDSYNC_H
#define PERFBENCH_PROBEDSYNC_H

#include "Clock.h"
#include "Trace.h"

#include "core/SyncBackend.h"

namespace perfbench {

class ProbedSync final : public thinlocks::SyncBackend {
public:
  explicit ProbedSync(thinlocks::SyncBackend &Inner) : Inner(Inner) {}

  const char *name() const override { return Inner.name(); }

  void lock(thinlocks::Object *Obj,
            const thinlocks::ThreadContext &Thread) override {
    uint64_t Start = nowNanos();
    Inner.lock(Obj, Thread);
    acquired(SpanKind::CoreLock, Start, nowNanos());
  }

  void unlock(thinlocks::Object *Obj,
              const thinlocks::ThreadContext &Thread) override {
    if (!Probe.Rec) {
      Inner.unlock(Obj, Thread);
      return;
    }
    uint64_t Start = nowNanos();
    Inner.unlock(Obj, Thread);
    traced(SpanKind::CoreUnlock, Start, nowNanos(), false);
  }

  bool unlockChecked(thinlocks::Object *Obj,
                     const thinlocks::ThreadContext &Thread) override {
    uint64_t Start = Probe.Rec ? nowNanos() : 0;
    bool Ok = Inner.unlockChecked(Obj, Thread);
    if (Probe.Rec)
      traced(SpanKind::CoreUnlock, Start, nowNanos(), !Ok);
    return Ok;
  }

  bool tryLock(thinlocks::Object *Obj,
               const thinlocks::ThreadContext &Thread) override {
    uint64_t Start = nowNanos();
    bool Ok = Inner.tryLock(Obj, Thread);
    acquired(SpanKind::CoreTryLock, Start, nowNanos(), !Ok);
    return Ok;
  }

  thinlocks::TimedLockStatus
  tryLockFor(thinlocks::Object *Obj, const thinlocks::ThreadContext &Thread,
             int64_t TimeoutNanos) override {
    uint64_t Start = nowNanos();
    thinlocks::TimedLockStatus Status =
        Inner.tryLockFor(Obj, Thread, TimeoutNanos);
    acquired(SpanKind::CoreTryLock, Start, nowNanos(),
             Status != thinlocks::TimedLockStatus::Acquired);
    return Status;
  }

  bool holdsLock(thinlocks::Object *Obj,
                 const thinlocks::ThreadContext &Thread) const override {
    return Inner.holdsLock(Obj, Thread);
  }

  uint32_t lockDepth(thinlocks::Object *Obj,
                     const thinlocks::ThreadContext &Thread) const override {
    return Inner.lockDepth(Obj, Thread);
  }

  thinlocks::WaitStatus wait(thinlocks::Object *Obj,
                             const thinlocks::ThreadContext &Thread,
                             int64_t TimeoutNanos) override {
    uint64_t Start = Probe.Rec ? nowNanos() : 0;
    thinlocks::WaitStatus Status = Inner.wait(Obj, Thread, TimeoutNanos);
    if (Probe.Rec)
      traced(SpanKind::ParkWait, Start, nowNanos(),
             Status == thinlocks::WaitStatus::TimedOut);
    return Status;
  }

  thinlocks::NotifyStatus
  notify(thinlocks::Object *Obj,
         const thinlocks::ThreadContext &Thread) override {
    uint64_t Start = Probe.Rec ? nowNanos() : 0;
    thinlocks::NotifyStatus Status = Inner.notify(Obj, Thread);
    if (Probe.Rec)
      traced(SpanKind::ParkNotify, Start, nowNanos(), false);
    return Status;
  }

  thinlocks::NotifyStatus
  notifyAll(thinlocks::Object *Obj,
            const thinlocks::ThreadContext &Thread) override {
    uint64_t Start = Probe.Rec ? nowNanos() : 0;
    thinlocks::NotifyStatus Status = Inner.notifyAll(Obj, Thread);
    if (Probe.Rec)
      traced(SpanKind::ParkNotify, Start, nowNanos(), false);
    return Status;
  }

  std::string statsJson() const override { return Inner.statsJson(); }

  bool inflateHint(thinlocks::Object *Obj,
                   const thinlocks::ThreadContext &Thread) override {
    uint64_t Start = Probe.Rec ? nowNanos() : 0;
    bool Inflated = Inner.inflateHint(Obj, Thread);
    if (Probe.Rec)
      traced(SpanKind::FatInflateHint, Start, nowNanos(), !Inflated);
    return Inflated;
  }

private:
  static void acquired(SpanKind Kind, uint64_t Start, uint64_t End,
                       bool Failed = false) {
    if (Probe.Acquire)
      Probe.Acquire->record(
          Start > Probe.PhaseStart ? Start - Probe.PhaseStart : 0,
          End - Start);
    if (Probe.Rec)
      traced(Kind, Start, End, Failed);
  }

  static void traced(SpanKind Kind, uint64_t Start, uint64_t End,
                     bool Failed) {
    Probe.Rec->count(Kind);
    if (Failed)
      Probe.Rec->fail(Kind);
    Probe.Rec->leaf(Kind, Start, End);
  }

  thinlocks::SyncBackend &Inner;
};

} // namespace perfbench

#endif // PERFBENCH_PROBEDSYNC_H
