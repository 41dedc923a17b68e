//===- perfbench/src/Replay.cpp - The `replay` workload -------------------===//
///
/// \file
/// Closed loop, one thread: the paper's 18 Table 1 / Figure 3 profiles
/// replayed round-robin through the concrete protocol type (compile-time
/// dispatch, so no virtual call sits on the fast path being measured).
///
/// Each profile is scaled to about 4096 synchronizations per pass with
/// its own ratios kept: synchronized objects, plain allocations per
/// synchronization and the nesting-depth mix.  A pass is one run of the
/// scaled program on a fresh Heap, so memory stays bounded however fast
/// the passes go.  The op streams are generated from the seed before
/// anything is timed.
///
//===----------------------------------------------------------------------===//

#include "Clock.h"
#include "Common.h"

#include "core/ProtocolRegistry.h"
#include "heap/Heap.h"
#include "threads/ThreadRegistry.h"
#include "workload/MacroReplay.h"
#include "workload/Profiles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace thinlocks;

namespace {

constexpr uint64_t TargetSyncOpsPerPass = 4096;
/// workload::ReplayConfig's default calibration of plain work per sync.
constexpr uint32_t WorkPerSync = 24;
/// One lock, unlock and allocation in this many is timed.
constexpr uint32_t SampleEvery = 64;
/// Long enough for the 1000 passes a per-window p99 needs.
constexpr double WindowSeconds = 2;

struct Sequence {
  uint32_t Object = 0;
  uint16_t Allocations = 0; ///< Plain allocations after the sequence.
  uint8_t Depth = 1;
};

struct ProfileStream {
  const workload::BenchmarkProfile *Profile = nullptr;
  uint32_t SyncObjects = 0;
  std::vector<Sequence> Sequences;
  uint64_t SyncOps = 0;
  uint64_t Allocations = 0; ///< Population plus plain allocations.
  uint64_t DepthCounts[4] = {0, 0, 0, 0};
};

ProfileStream generate(const workload::BenchmarkProfile &Profile,
                       uint64_t Seed) {
  ProfileStream S;
  S.Profile = &Profile;
  uint64_t Divisor = Profile.SyncOperations > TargetSyncOpsPerPass
                         ? Profile.SyncOperations / TargetSyncOpsPerPass
                         : 1;
  uint64_t SyncOps = Profile.SyncOperations / Divisor;
  uint64_t SyncObjects =
      std::max<uint64_t>(1, Profile.SynchronizedObjects / Divisor);
  uint64_t Created = Profile.ObjectsCreated / Divisor;
  uint64_t Plain = Created > SyncObjects ? Created - SyncObjects : 0;
  S.SyncObjects = static_cast<uint32_t>(SyncObjects);
  S.Allocations = SyncObjects;

  SplitMix64 Rng(Seed ^ Profile.SyncOperations);
  double PlainPerOp =
      static_cast<double>(Plain) / static_cast<double>(SyncOps);
  double Debt = 0;
  while (S.SyncOps < SyncOps) {
    Sequence Seq;
    Seq.Object = static_cast<uint32_t>(
        workload::sampleObjectIndex(SyncObjects, Rng));
    uint32_t Depth =
        workload::sampleSequenceDepth(Profile, Rng.nextDouble());
    Depth = std::min<uint64_t>(std::max<uint32_t>(Depth, 1),
                               SyncOps - S.SyncOps);
    Seq.Depth = static_cast<uint8_t>(Depth);
    for (uint32_t D = 0; D < Depth; ++D)
      ++S.DepthCounts[D];
    S.SyncOps += Depth;
    Debt += PlainPerOp * Depth;
    uint64_t Whole = static_cast<uint64_t>(Debt);
    Seq.Allocations = static_cast<uint16_t>(Whole);
    Debt -= static_cast<double>(Whole);
    S.Allocations += Whole;
    S.Sequences.push_back(Seq);
  }
  return S;
}

/// The stream's depth mix must match the profile's Figure 3 fractions up
/// to sampling error (six standard errors plus end-of-stream clamping).
void checkFigure3(const ProfileStream &S, std::vector<std::string> &Failures) {
  double N = static_cast<double>(S.SyncOps);
  for (unsigned B = 0; B < 4; ++B) {
    double Want = S.Profile->DepthMix[B];
    double Got = static_cast<double>(S.DepthCounts[B]) / N;
    double Tolerance = 6 * std::sqrt(Want * (1 - Want) / N) + 4 / N;
    if (std::fabs(Got - Want) > Tolerance) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "replay %s: depth-%u fraction %.4f vs Figure 3 %.4f",
                    S.Profile->Name, B + 1, Got, Want);
      Failures.push_back(Buf);
    }
  }
}

struct ReplayTotals {
  ReplayTotals(uint64_t Begin, WindowPlan Plan)
      : Begin(Begin), PassLatency(0, Plan.Nanos, Plan.Count),
        Acquire(0, Plan.Nanos, Plan.Count), OpsByWindow(Plan.Count, 0),
        NanosByWindow(Plan.Count, 0) {}

  uint64_t Begin;
  uint64_t SyncOps = 0;
  uint64_t PassNanos = 0;
  uint64_t Passes = 0;
  uint64_t DepthMismatches = 0;
  uint64_t HeldAtEnd = 0;
  uint64_t AllocationMismatches = 0;
  uint64_t DepthCounts[4] = {0, 0, 0, 0};
  WindowedHistogram PassLatency;
  WindowedHistogram Acquire;
  std::vector<double> OpsByWindow;
  std::vector<double> NanosByWindow;
};

/// Runs passes round-robin until \p Deadline or \p MaxPasses.  Traced
/// runs count every call and time the same 1-in-SampleEvery calls the
/// untraced run times.
template <bool Traced, typename P>
void runPasses(P &Protocol, const ThreadContext &Thread,
               const std::vector<ProfileStream> &Streams, uint64_t Deadline,
               uint64_t MaxPasses, SpanRecorder *Rec, ReplayTotals &T) {
  std::vector<Object *> Population;
  uint32_t LockCountdown = SampleEvery, UnlockCountdown = SampleEvery,
           AllocCountdown = SampleEvery;
  uint32_t Work = 1;
  size_t Next = 0;

  auto allocate = [&](Heap &H, const ClassInfo &Class) {
    if constexpr (Traced)
      Rec->count(SpanKind::HeapAllocate);
    if (--AllocCountdown != 0)
      return H.allocate(Class);
    AllocCountdown = SampleEvery;
    uint64_t Start = nowNanos();
    Object *Obj = H.allocate(Class);
    if constexpr (Traced)
      Rec->leaf(SpanKind::HeapAllocate, Start, nowNanos());
    return Obj;
  };

  while (T.Passes < MaxPasses && nowNanos() < Deadline) {
    const ProfileStream &S = Streams[Next];
    Next = (Next + 1) % Streams.size();
    uint64_t Start = nowNanos();
    if constexpr (Traced)
      Rec->begin(SpanKind::ReplayPass, Start, T.Passes + 1);
    uint64_t RunEnd, CheckEnd;
    {
      Heap H;
      const ClassInfo &Class =
          H.classes().registerClass(S.Profile->Name, /*SlotCount=*/2);
      Population.clear();
      for (uint32_t I = 0; I < S.SyncObjects; ++I)
        Population.push_back(allocate(H, Class));
      for (const Sequence &Seq : S.Sequences) {
        Object *Obj = Population[Seq.Object];
        for (uint32_t D = 1; D <= Seq.Depth; ++D) {
          if constexpr (Traced)
            Rec->count(SpanKind::CoreLock);
          if (--LockCountdown != 0) {
            Protocol.lock(Obj, Thread);
          } else {
            LockCountdown = SampleEvery;
            uint64_t LockStart = nowNanos();
            Protocol.lock(Obj, Thread);
            uint64_t LockEnd = nowNanos();
            T.Acquire.record(LockStart - T.Begin, LockEnd - LockStart);
            if constexpr (Traced)
              Rec->leaf(SpanKind::CoreLock, LockStart, LockEnd);
            if (Protocol.lockDepth(Obj, Thread) != D)
              ++T.DepthMismatches;
          }
          Work = workload::replayWork(Work, WorkPerSync);
        }
        for (uint32_t D = 0; D < Seq.Depth; ++D) {
          if constexpr (Traced)
            Rec->count(SpanKind::CoreUnlock);
          if (--UnlockCountdown != 0) {
            Protocol.unlock(Obj, Thread);
          } else {
            UnlockCountdown = SampleEvery;
            uint64_t UnlockStart = nowNanos();
            Protocol.unlock(Obj, Thread);
            if constexpr (Traced)
              Rec->leaf(SpanKind::CoreUnlock, UnlockStart, nowNanos());
          }
        }
        for (uint32_t A = 0; A < Seq.Allocations; ++A)
          allocate(H, Class);
      }
      RunEnd = nowNanos();
      // Output checks, untimed: nothing left locked, every allocation
      // accounted for by the heap.
      for (Object *Obj : Population)
        if (Protocol.lockDepth(Obj, Thread) != 0)
          ++T.HeldAtEnd;
      if (H.objectsAllocated() != S.Allocations)
        ++T.AllocationMismatches;
      CheckEnd = nowNanos();
    }
    uint64_t End = nowNanos();
    if constexpr (Traced)
      Rec->end(End);
    uint64_t PassNanos = (RunEnd - Start) + (End - CheckEnd);
    unsigned Window = T.PassLatency.windowOf(End - T.Begin);
    T.PassLatency.record(End - T.Begin, PassNanos);
    T.OpsByWindow[Window] += static_cast<double>(S.SyncOps);
    T.NanosByWindow[Window] += static_cast<double>(PassNanos);
    T.PassNanos += PassNanos;
    T.SyncOps += S.SyncOps;
    ++T.Passes;
    for (unsigned B = 0; B < 4; ++B)
      T.DepthCounts[B] += S.DepthCounts[B];
  }
  (void)Work;
}

} // namespace

Measurement measureReplay(const RunConfig &Config, double Seconds,
                          TraceSession *Trace, unsigned SetupReps) {
  Measurement M;
  M.Threads = "workers=1 (closed loop, no generator thread)";
  std::vector<ProfileStream> Streams;
  for (const workload::BenchmarkProfile &Profile :
       workload::macroBenchmarkProfiles()) {
    Streams.push_back(generate(Profile, Config.Seed));
    checkFigure3(Streams.back(), M.Failures);
  }

  LockStats Stats;
  ProtocolConfig PC;
  if (Trace)
    PC.Stats = &Stats;
  std::unique_ptr<ReplayTotals> Measured;
  std::vector<double> Setups;
  SpanRecorder *Rec = Trace ? &Trace->newRecorder() : nullptr;
  uint64_t MonitorsLive = 0;
  double ThreadNanos = 0;
  // Only the thin-lock manager feeds LockStats.
  bool HasLockStats = false;

  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    uint64_t SetupStart = nowNanos();
    bool Known = withProtocol(
        Config.Protocol, PC, [&](auto &Protocol, ProtocolHandle &Handle) {
          ThreadRegistry Registry;
          uint64_t AttachStart = nowNanos();
          ThreadContext Thread = Registry.attach("replay");
          uint64_t AttachEnd = nowNanos();
          if (Rec) {
            Rec->count(SpanKind::ThreadsAttach);
            Rec->leaf(SpanKind::ThreadsAttach, AttachStart, AttachEnd);
          }
          if (!Thread.isValid()) {
            M.Layers.AttachFailures++;
            M.Failures.push_back("replay: attach failed");
            return;
          }
          // Set-up includes a warm-up round of every profile: the protocol
          // and registry alone take tens of microseconds, mostly zeroing
          // memory, and drift by a third with the host's memory bandwidth,
          // while lazy first-run costs belong to set-up anyway.
          ReplayTotals Warm(nowNanos(), WindowPlan());
          runPasses<false>(Protocol, Thread, Streams, UINT64_MAX,
                           Streams.size(), nullptr, Warm);
          Setups.push_back(static_cast<double>(nowNanos() - SetupStart) /
                           1e9);
          if (Rep + 1 == SetupReps) {
            if (Trace)
              Stats.reset();
            uint64_t Begin = nowNanos();
            uint64_t Deadline =
                Begin + static_cast<uint64_t>(Seconds * 1e9);
            Measured = std::make_unique<ReplayTotals>(
                Begin, planWindows(Seconds, WindowSeconds));
            ReplayTotals &T = *Measured;
            if (Rec)
              runPasses<true>(Protocol, Thread, Streams, Deadline,
                              UINT64_MAX, Rec, T);
            else
              runPasses<false>(Protocol, Thread, Streams, Deadline,
                               UINT64_MAX, nullptr, T);
            ThreadNanos = static_cast<double>(nowNanos() - Begin);
            if (MonitorTable *Monitors = Handle.monitorTable())
              MonitorsLive = Monitors->liveMonitorCount();
            HasLockStats = Handle.thinLocks() != nullptr;
          }
          Registry.detach(Thread);
        });
    if (!Known) {
      M.Failures.push_back("unknown protocol " + Config.Protocol);
      return M;
    }
  }

  if (!Measured) {
    M.Failures.push_back("replay: nothing measured");
    return M;
  }
  const ReplayTotals &T = *Measured;

  // Output checks.
  if (T.Passes == 0)
    M.Failures.push_back("replay: no pass completed");
  if (T.DepthMismatches)
    M.Failures.push_back("replay: lockDepth disagreed with the op stream");
  if (T.HeldAtEnd)
    M.Failures.push_back("replay: a monitor was still held after a pass");
  if (T.AllocationMismatches)
    M.Failures.push_back("replay: heap allocation count mismatch");
  if (Trace) {
    LockStats::Snapshot S = Stats.snapshot();
    if (HasLockStats &&
        !std::equal(T.DepthCounts, T.DepthCounts + 4, S.DepthBuckets.begin()))
      M.Failures.push_back("replay: protocol depth histogram disagrees "
                           "with the op stream");
    M.Layers.Locks = S;
  }

  M.Attempted = T.SyncOps;
  addSetup(M, Setups);
  addPeakRss(M);
  char Note[96];
  std::snprintf(Note, sizeof(Note), "%llu lock ops in %llu passes",
                static_cast<unsigned long long>(T.SyncOps),
                static_cast<unsigned long long>(T.Passes));
  addRate(M, M.EndToEnd, "throughput_per_s", T.OpsByWindow, T.NanosByWindow,
          "1/s", Note);
  M.Headline = M.EndToEnd.back().Value;
  addPercentile(M, M.EndToEnd, "p50_us", T.PassLatency, 500000, 1e3, "us",
                true);

  M.Detail.push_back({"sync_ops_per_s", M.Headline, "ops/s", Note});
  addPercentile(M, M.Detail, "pass_p99_us", T.PassLatency, 990000, 1e3,
                "us", false);
  addPercentile(M, M.Detail, "acquire_p99_ns", T.Acquire, 990000, 1, "ns",
                false);
  M.Detail.push_back({"error_rate", 0, "ratio", "no replay op can fail"});

  if (Trace) {
    M.Layers.Spans = Trace->merged();
    M.Layers.MonitorsLive = MonitorsLive;
    M.Layers.HeapAllocations = M.Layers.Spans[static_cast<unsigned>(
                                                  SpanKind::HeapAllocate)]
                                   .Calls;
    M.Layers.AttachCalls =
        M.Layers.Spans[static_cast<unsigned>(SpanKind::ThreadsAttach)].Calls;
    M.Layers.ThreadNanos = ThreadNanos;
  }
  return M;
}

} // namespace perfbench
