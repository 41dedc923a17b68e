//===- perfbench/src/Layers.cpp - Per-layer metrics -----------------------===//
///
/// \file
/// The traced run's per-layer report: the same names, units and order on
/// every workload, so a layer a workload bypasses reads 0 there.  Times
/// are mean self nanoseconds per timed call; counts are exact.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>

namespace perfbench {

namespace {

double ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

const KindStats &of(const LayerInputs &In, SpanKind Kind) {
  return In.Spans[static_cast<unsigned>(Kind)];
}

/// A per-layer percentile: 0 (with a note) when the rule refuses it.
Metric percentile(const std::string &Name, const Histogram &H,
                  double UnitNanos, const std::string &Unit) {
  double Value = reportablePercentile(H, 990000);
  std::string Note = sampleNote(H);
  if (std::isnan(Value)) {
    Note += "; refused, reported as 0";
    Value = 0;
  }
  return {Name, Value / UnitNanos, Unit, Note};
}

} // namespace

std::vector<Metric> layerMetrics(const LayerInputs &In) {
  const thinlocks::LockStats::Snapshot &L = In.Locks;
  const KindStats &Lock = of(In, SpanKind::CoreLock);
  const KindStats &Unlock = of(In, SpanKind::CoreUnlock);
  const KindStats &Try = of(In, SpanKind::CoreTryLock);
  const KindStats &Hint = of(In, SpanKind::FatInflateHint);
  const KindStats &Wait = of(In, SpanKind::ParkWait);
  const KindStats &Notify = of(In, SpanKind::ParkNotify);
  const KindStats &Alloc = of(In, SpanKind::HeapAllocate);
  const KindStats &Attach = of(In, SpanKind::ThreadsAttach);
  const KindStats &Execute = of(In, SpanKind::TxnExecute);
  const KindStats &Admit = of(In, SpanKind::LoadAdmit);
  const KindStats &Tick = of(In, SpanKind::LoadTick);
  double Acquisitions = static_cast<double>(L.Acquisitions);
  double LockSelf = Lock.estimatedSelfNanos() + Unlock.estimatedSelfNanos() +
                    Try.estimatedSelfNanos();
  uint64_t TxnAborts = In.TxnAttempts - In.TxnCommits;

  std::vector<Metric> Out = {
      {"core.lock_calls", double(Lock.Calls), "count", ""},
      {"core.lock_self_ns", Lock.meanSelfNanos(), "ns", ""},
      percentile("core.lock_p99_ns", Lock.Durations, 1, "ns"),
      {"core.unlock_self_ns", Unlock.meanSelfNanos(), "ns", ""},
      {"core.lock_share", ratio(LockSelf, In.ThreadNanos), "ratio",
       "lock+unlock+trylock self time / busy time of calling threads"},
      {"core.fast_path_ratio", ratio(double(L.FastPath), Acquisitions),
       "ratio", "LockStats"},
      {"core.spin_iterations", double(L.SpinIterations), "count",
       "LockStats"},
      {"core.trylock_calls", double(Try.Calls), "count", ""},
      {"core.trylock_fail_ratio", ratio(double(Try.Failures), Try.Calls),
       "ratio", ""},
      {"fatlock.inflations.contention", double(L.ContentionInflations),
       "count", "LockStats"},
      {"fatlock.inflations.wait", double(L.WaitInflations), "count",
       "LockStats"},
      {"fatlock.inflations.overflow", double(L.OverflowInflations), "count",
       "LockStats"},
      {"fatlock.deflations", double(L.Deflations), "count", "LockStats"},
      {"fatlock.fat_path_ratio", ratio(double(L.FatPath), Acquisitions),
       "ratio", "LockStats"},
      {"fatlock.monitors_live", double(In.MonitorsLive), "count",
       "MonitorTable: allocated minus retired"},
      {"fatlock.inflate_hint_self_ns", Hint.meanSelfNanos(), "ns", ""},
      {"park.wait_calls", double(Wait.Calls), "count", ""},
      {"park.wait_self_ns", Wait.meanSelfNanos(), "ns", ""},
      {"park.wait_timeout_ratio", ratio(double(Wait.Failures), Wait.Calls),
       "ratio", ""},
      {"park.notify_calls", double(Notify.Calls), "count", ""},
      {"park.notify_self_ns", Notify.meanSelfNanos(), "ns", ""},
      {"park.wakes", double(L.Wakes), "count", "LockStats"},
      {"park.wake_mean_ns", ratio(double(L.WakeNanosTotal), double(L.Wakes)),
       "ns", "LockStats"},
      {"heap.allocate_calls", double(In.HeapAllocations), "count",
       "Heap::objectsAllocated"},
      {"heap.allocate_self_ns", Alloc.meanSelfNanos(), "ns",
       "timed only where the benchmark itself calls Heap::allocate"},
      {"threads.attach_calls", double(In.AttachCalls), "count", ""},
      {"threads.attach_self_ns", Attach.meanSelfNanos(), "ns", ""},
      {"threads.attach_failures", double(In.AttachFailures), "count", ""},
      {"txn.execute_calls", double(Execute.Calls), "count", ""},
      {"txn.execute_self_ns", Execute.meanSelfNanos(), "ns", ""},
      {"txn.commit_ratio", ratio(double(In.TxnCommits), In.TxnAttempts),
       "ratio", "commits / attempts"},
      {"txn.aborts.busy", double(In.TxnAbortsBusy), "count", ""},
      {"txn.aborts.validation", double(In.TxnAbortsValidation), "count", ""},
      {"txn.retries_per_commit", ratio(double(TxnAborts), In.TxnCommits),
       "ratio", ""},
      {"load.admit_self_ns", Admit.meanSelfNanos(), "ns", ""},
      {"load.tick_self_ns", Tick.meanSelfNanos(), "ns", ""},
      percentile("load.queue_wait_p99_us", In.QueueWait, 1e3, "us"),
      {"load.shed", double(In.Shed), "count", ""},
      {"load.degraded", double(In.Degraded), "count", ""},
      percentile("load.generator_lag_p99_us", In.GeneratorLag, 1e3, "us"),
  };
  return Out;
}

} // namespace perfbench
