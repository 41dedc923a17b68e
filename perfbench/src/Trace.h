//===- perfbench/src/Trace.h - Benchmark-side span recorder ----*- C++ -*-===//
///
/// \file
/// The traced run's span recorder.  Spans are recorded by the benchmark
/// around its own calls into each library layer (never from inside the
/// library), kept in per-thread memory, and written out as a Chrome
/// trace when the run ends.  Each span has a kind, start, end, parent and
/// a group id shared by every span of one session, transaction or replay
/// pass.
///
/// Self time is a span's duration minus the durations of its children.
/// A thread's spans nest strictly, so the recorder computes it exactly
/// from its stack of open spans, for every span, even past the point
/// where it stops keeping span records.
///
/// Where a call is too short to time every instance (the replay fast
/// path), the caller counts every call with count() and times a fixed
/// 1-in-N sample with begin()/end(); per-call means come from the sample,
/// totals from the exact count.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Stats.h"

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span kinds, named "<layer>.<call>".
enum class SpanKind : uint8_t {
  CoreLock,
  CoreUnlock,
  CoreTryLock,
  FatInflateHint,
  ParkWait,
  ParkNotify,
  HeapAllocate,
  ThreadsAttach,
  ThreadsDetach,
  TxnExecute,
  LoadAdmit,
  LoadTick,
  Session,
  ReplayPass,
};
inline constexpr unsigned NumSpanKinds =
    static_cast<unsigned>(SpanKind::ReplayPass) + 1;

const char *spanName(SpanKind Kind);

struct Span {
  static constexpr uint32_t NoParent = ~0u;
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t Group = 0;
  uint32_t Parent = NoParent; ///< Index into the same thread's spans.
  SpanKind Kind = SpanKind::CoreLock;
};

/// Per-kind totals.  Calls counts every call; the time fields cover the
/// Timed ones.
struct KindStats {
  uint64_t Calls = 0;
  uint64_t Failures = 0; ///< Failed tryLocks, timed-out waits.
  uint64_t Timed = 0;
  uint64_t TotalNanos = 0;
  uint64_t SelfNanos = 0;
  Histogram Durations;

  void merge(const KindStats &Other);
  double meanSelfNanos() const {
    return Timed == 0 ? 0.0 : static_cast<double>(SelfNanos) / Timed;
  }
  /// Estimated self time of all Calls, scaled up from the timed sample.
  double estimatedSelfNanos() const { return meanSelfNanos() * Calls; }
};

/// One thread's recorder.  Timestamps are passed in, so tests can drive
/// it with synthetic clocks.
class SpanRecorder {
public:
  SpanRecorder(uint32_t Thread, size_t KeepLimit);

  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  void count(SpanKind Kind) { ++Stats[index(Kind)].Calls; }
  void fail(SpanKind Kind) { ++Stats[index(Kind)].Failures; }

  /// Opens a span.  Group 0 inherits the enclosing span's group.
  void begin(SpanKind Kind, uint64_t Start, uint64_t Group = 0);
  /// Closes the innermost open span.
  void end(uint64_t End);
  /// A span with no children.
  void leaf(SpanKind Kind, uint64_t Start, uint64_t End) {
    begin(Kind, Start);
    this->end(End);
  }

  const KindStats &stats(SpanKind Kind) const { return Stats[index(Kind)]; }
  const std::vector<Span> &spans() const { return Kept; }
  uint32_t thread() const { return Thread; }
  size_t openSpans() const { return Stack.size(); }

private:
  static unsigned index(SpanKind Kind) { return static_cast<unsigned>(Kind); }

  struct Open {
    SpanKind Kind;
    uint64_t Start;
    uint64_t Group;
    uint64_t ChildNanos;
    uint32_t Slot; ///< Index in Kept, or NoParent once the limit is hit.
  };

  uint32_t Thread;
  size_t KeepLimit;
  std::vector<Open> Stack;
  std::vector<Span> Kept;
  std::array<KindStats, NumSpanKinds> Stats;
};

/// Owns every thread's recorder for one traced measurement.
class TraceSession {
public:
  explicit TraceSession(size_t KeepPerThread = 20000)
      : KeepPerThread(KeepPerThread) {}

  /// A fresh recorder for the calling thread; lives as long as the session.
  SpanRecorder &newRecorder();

  /// Per-kind totals merged over every thread.
  std::array<KindStats, NumSpanKinds> merged() const;

  /// Writes the kept spans as Chrome trace_event JSON.  \returns false on
  /// an I/O error.
  bool writeChromeTrace(const std::string &Path) const;

private:
  size_t KeepPerThread;
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<SpanRecorder>> Recorders;
};

/// Per-thread probe state read by the instrumented call sites: the span
/// recorder (null when untraced) and the histogram acquire times go to
/// (null when the phase does not measure them), windowed from PhaseStart.
struct ThreadProbe {
  SpanRecorder *Rec = nullptr;
  WindowedHistogram *Acquire = nullptr;
  uint64_t PhaseStart = 0;
};
extern constinit thread_local ThreadProbe Probe;

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
