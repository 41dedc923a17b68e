//===- perfbench/src/Workloads.h - Workload entry points -------*- C++ -*-===//
///
/// \file
/// The three workloads and what each one hands back to Main.cpp.
/// Every workload runs in two modes: untraced (end-to-end metrics, with
/// set-up repeated and its median reported) and traced (per-layer
/// metrics from the benchmark's span recorder plus the library's public
/// counters).  A workload's output checks run in both modes; a failed
/// check is recorded in Failures and fails the run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Stats.h"
#include "Trace.h"

#include "core/LockStats.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Protocol;
  uint64_t Seed = 0;
  double Seconds = 0;
  /// CPUs this process may run on; every workload stays within it.
  unsigned Nproc = 1;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Shown in the human-readable listing only (sample counts, refusals).
  std::string Note;
};

/// Counters a workload collects for the per-layer report.  Everything a
/// workload does not do stays zero, which is how predicted zeros show.
struct LayerInputs {
  std::array<KindStats, NumSpanKinds> Spans;
  thinlocks::LockStats::Snapshot Locks;
  uint64_t MonitorsLive = 0;
  uint64_t HeapAllocations = 0;
  uint64_t AttachCalls = 0;
  uint64_t AttachFailures = 0;
  /// Busy time of the threads that call into the library, summed.
  double ThreadNanos = 0;
  uint64_t TxnAttempts = 0;
  uint64_t TxnCommits = 0;
  uint64_t TxnAbortsBusy = 0;
  uint64_t TxnAbortsValidation = 0;
  Histogram QueueWait;
  Histogram GeneratorLag;
  uint64_t Shed = 0;
  uint64_t Degraded = 0;
};

/// One measurement of one workload.
struct Measurement {
  /// Workload-generic end-to-end metrics (the names in BENCHMARK.json).
  std::vector<Metric> EndToEnd;
  /// The same figures under their workload-specific names, plus context.
  std::vector<Metric> Detail;
  LayerInputs Layers;
  /// The figure the traced run's overhead is stated against, and whether
  /// a larger value is better.
  double Headline = 0;
  bool HeadlineHigherIsBetter = true;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string Threads;
};

/// Runs one measurement of \p Seconds.  \p Trace is null for the
/// untraced mode; \p SetupReps set-ups are timed and the median kept.
Measurement measureReplay(const RunConfig &Config, double Seconds,
                          TraceSession *Trace, unsigned SetupReps);
Measurement measureSessions(const RunConfig &Config, double Seconds,
                            TraceSession *Trace, unsigned SetupReps);
Measurement measureTxn(const RunConfig &Config, double Seconds,
                       TraceSession *Trace, unsigned SetupReps);

/// Builds the per-layer metric list (fixed names and order, zeros where a
/// workload does no such work).
std::vector<Metric> layerMetrics(const LayerInputs &In);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
