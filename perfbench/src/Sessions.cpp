//===- perfbench/src/Sessions.cpp - The `sessions` workload ---------------===//
///
/// \file
/// Open loop: Poisson session arrivals at a fixed rate, generated from
/// the seed before the run and released on schedule by one generator
/// thread, which also ticks the AdmissionController.  nproc-1 workers
/// serve admitted sessions through load::SessionWorkload (25% heavy,
/// 64 Zipf(0.8) hot objects, wait/notify rendezvous, ephemeral attaches).
///
/// Two phases run back to back after a short warm-up: `nominal` at 2000
/// sessions/s, for the latency percentiles, and `peak` at 4000
/// sessions/s, for goodput within the 10 ms limit.  On a 4-vCPU virtual
/// host goodput falls off near 7000-8000/s, and at the rates of the
/// earlier bench_soak runs (5000 and 10000/s) queueing amplifies every
/// host stall so that neither figure repeats from run to run.  Each
/// session is timed from its *due* time, so a stall that delays later
/// arrivals is charged to them; a shed session counts as +infinity and
/// never as goodput.
///
//===----------------------------------------------------------------------===//

#include "Clock.h"
#include "Common.h"
#include "ProbedSync.h"

#include "core/ProtocolRegistry.h"
#include "heap/Heap.h"
#include "load/AdmissionController.h"
#include "load/SessionWorkload.h"
#include "threads/ThreadRegistry.h"

#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

namespace perfbench {

using namespace thinlocks;

namespace {

constexpr double NominalRate = 2000;
constexpr double PeakRate = 4000;
constexpr double WarmupSeconds = 0.5;
constexpr double HeavyFraction = 0.25;
constexpr size_t HotObjects = 64;
constexpr double ZipfTheta = 0.8;
constexpr uint64_t SloNanos = 10'000'000;
constexpr uint64_t TickNanos = 10'000'000;
/// Bounded queue: overflow sheds, the backpressure of last resort.
constexpr size_t QueueLimit = 4096;
/// How long deferred sessions may wait for the ladder to back off after
/// a phase's last arrival before they are shed.
constexpr uint64_t DeferGraceNanos = 500'000'000;
/// Each phase is reported as the median over windows of this length.
constexpr double WindowSeconds = 1;
/// Share of the measured time given to the nominal phase, whose latency
/// percentiles need more windows than the peak phase's goodput.
constexpr double NominalShare = 2.0 / 3;

enum Phase : uint8_t { Warmup, Nominal, Peak, NumPhases };

struct Arrival {
  uint64_t Id = 0;
  uint64_t DueOffset = 0; ///< From the phase start.
  uint64_t Due = 0;       ///< Absolute, set when the phase starts.
  uint64_t Seed = 0;      ///< The session's own input stream.
  bool Heavy = false;
  bool Degraded = false;
  Phase In = Warmup;
};

std::vector<Arrival> schedule(double Rate, double Seconds, Phase In,
                              SplitMix64 &Rng, uint64_t &NextId) {
  std::vector<Arrival> Out;
  double Clock = 0;
  const double Gap = 1e9 / Rate;
  for (;;) {
    Clock += -std::log(1.0 - Rng.nextDouble()) * Gap;
    if (Clock >= Seconds * 1e9)
      return Out;
    Arrival A;
    A.Id = NextId++;
    A.DueOffset = static_cast<uint64_t>(Clock);
    A.Seed = Rng.next();
    A.Heavy = Rng.nextBool(HeavyFraction);
    A.In = In;
    Out.push_back(A);
  }
}

/// What one worker saw, per phase; merged after each phase drains.
struct WorkerState {
  explicit WorkerState(const std::array<WindowPlan, NumPhases> &Plans) {
    for (const WindowPlan &Plan : Plans) {
      Tally.emplace_back(0, Plan.Nanos, Plan.Count);
      Acquire.emplace_back(0, Plan.Nanos, Plan.Count);
    }
  }
  std::vector<SessionTally> Tally;
  std::vector<WindowedHistogram> Acquire;
  Histogram QueueWait[NumPhases];
  uint64_t HeavyAttaches[NumPhases] = {};
  uint64_t AttachFallbacks[NumPhases] = {};
  uint64_t BusyNanos[NumPhases] = {};
};

/// Everything one set-up builds: protocol, registry, heap, session
/// workload, admission controller and attached workers.
class SessionRig {
public:
  /// \p States (one per worker) belongs to the caller, so building the
  /// benchmark's own tallies is not timed as set-up.
  SessionRig(const RunConfig &Config, std::vector<WorkerState> &States,
             LockStats &Stats, TraceSession *Trace)
      : Stats(Stats),
        Handle(createProtocol(Config.Protocol, protocolConfig(Stats))),
        Probed(Handle->sync()),
        Workload(Probed, TheHeap, Registry, HotObjects, ZipfTheta),
        States(States) {
    BuiltAt = nowNanos();
    const unsigned Workers = static_cast<unsigned>(States.size());
    Threads.reserve(Workers);
    for (unsigned I = 0; I < Workers; ++I)
      Threads.emplace_back([this, I, Trace] { workerLoop(I, Trace); });
    std::unique_lock<std::mutex> Guard(Mu);
    Cv.wait(Guard, [this, Workers] { return Ready == Workers; });
  }

  ~SessionRig() {
    Stop.store(true, std::memory_order_release);
    for (std::thread &T : Threads)
      T.join();
  }

  SessionRig(const SessionRig &) = delete;
  SessionRig &operator=(const SessionRig &) = delete;

  /// Releases \p Arrivals on schedule from the calling thread, then waits
  /// for every admitted session to finish.  Sheds go to \p Generator.
  void runPhase(std::vector<Arrival> &Arrivals, SessionTally &Generator,
                Histogram &Lag, uint64_t &DegradedCount, SpanRecorder *Rec);

  MonitorTable *monitors() { return Handle->monitorTable(); }
  uint64_t heapAllocations() const { return TheHeap.objectsAllocated(); }
  /// When construction finished, before any worker thread started.
  uint64_t builtAt() const { return BuiltAt; }
  /// Time the workers spent in ThreadRegistry::attach, summed.  Read
  /// after the workers reported ready under Mu, so relaxed suffices.
  uint64_t attachNanos() const {
    return AttachNanos.load(std::memory_order_relaxed);
  }
  uint64_t attachFailures() const {
    return FailedAttaches.load(std::memory_order_relaxed);
  }
  uint64_t workerAttaches() const { return Threads.size(); }

private:
  static ProtocolConfig protocolConfig(LockStats &Stats) {
    ProtocolConfig PC;
    // The admission ladder reads emergency inflations from LockStats, and
    // long-lived servers retire idle monitors, as the soak harness does.
    PC.Stats = &Stats;
    PC.DeflateWhenQuiescent = true;
    return PC;
  }

  void workerLoop(unsigned Index, TraceSession *Trace);
  void tick(SpanRecorder *Rec);
  void dispatch(Arrival &A, load::AdmissionDecision Decision,
                SessionTally &Generator, uint64_t &DegradedCount);

  LockStats &Stats;
  ThreadRegistry Registry;
  std::unique_ptr<ProtocolHandle> Handle;
  ProbedSync Probed;
  Heap TheHeap;
  load::SessionWorkload Workload;
  load::AdmissionController Controller;
  std::vector<WorkerState> &States;
  uint64_t BuiltAt = 0;
  std::atomic<uint64_t> AttachNanos{0};
  std::atomic<uint64_t> FailedAttaches{0};

  std::mutex Mu;
  std::condition_variable Cv; ///< Set-up: workers attached.
  std::deque<Arrival> Queue;
  unsigned Ready = 0;
  /// Queue.size(), readable without Mu so idle workers can poll it.
  std::atomic<size_t> Queued{0};
  /// Sessions taken from the queue and not yet finished.
  std::atomic<unsigned> Busy{0};
  std::atomic<bool> Stop{false};
  std::vector<Arrival> Deferred; ///< Generator thread only.

  std::vector<std::thread> Threads; // Last: started after the rest exists.
};

void SessionRig::workerLoop(unsigned Index, TraceSession *Trace) {
  SpanRecorder *Rec = Trace ? &Trace->newRecorder() : nullptr;
  uint64_t AttachStart = nowNanos();
  ThreadContext Self = Registry.attach("perfbench-worker");
  uint64_t AttachEnd = nowNanos();
  AttachNanos.fetch_add(AttachEnd - AttachStart, std::memory_order_relaxed);
  if (Rec) {
    Rec->count(SpanKind::ThreadsAttach);
    Rec->leaf(SpanKind::ThreadsAttach, AttachStart, AttachEnd);
  }
  if (!Self.isValid())
    FailedAttaches.fetch_add(1, std::memory_order_relaxed);
  WorkerState &W = States[Index];
  LatencyHistogram LibraryAcquire; // SessionWorkload's own; unused here.
  {
    std::lock_guard<std::mutex> Guard(Mu);
    ++Ready;
  }
  Cv.notify_all();

  for (;;) {
    // Idle workers poll instead of sleeping on a condition variable: the
    // wake-up of an idle virtual CPU costs the host's scheduling delay,
    // which would be charged to the session as if the library caused it.
    Arrival A;
    bool Got = false;
    while (!Got) {
      if (Queued.load(std::memory_order_acquire) == 0) {
        if (Stop.load(std::memory_order_acquire))
          break;
        std::this_thread::yield();
        continue;
      }
      std::lock_guard<std::mutex> Guard(Mu);
      if (Queue.empty())
        continue;
      A = Queue.front();
      Queue.pop_front();
      Busy.fetch_add(1, std::memory_order_relaxed);
      Queued.store(Queue.size(), std::memory_order_release);
      Got = true;
    }
    if (!Got)
      break;
    if (Self.isValid()) {
      uint64_t PhaseStart = A.Due - A.DueOffset;
      uint64_t Start = nowNanos();
      W.QueueWait[A.In].record(Start > A.Due ? Start - A.Due : 0);
      // Warm-up sessions are not traced.
      Probe.Rec = A.In == Warmup ? nullptr : Rec;
      Probe.Acquire = &W.Acquire[A.In];
      Probe.PhaseStart = PhaseStart;
      if (Probe.Rec)
        Rec->begin(SpanKind::Session, Start, A.Id);
      SplitMix64 Rng(A.Seed);
      load::SessionOutcome Out =
          Workload.run(Self, Rng, A.Heavy, A.Degraded, LibraryAcquire);
      uint64_t End = nowNanos();
      if (Probe.Rec) {
        Rec->count(SpanKind::Session);
        Rec->end(End);
      }
      Probe = ThreadProbe();
      W.Tally[A.In].completed(A.DueOffset, End - PhaseStart, SloNanos);
      W.BusyNanos[A.In] += End - Start;
      if (A.Heavy && !A.Degraded)
        ++W.HeavyAttaches[A.In];
      if (Out.AttachFallback)
        ++W.AttachFallbacks[A.In];
    } else {
      W.Tally[A.In].shed(A.DueOffset);
    }
    Busy.fetch_sub(1, std::memory_order_release);
  }

  if (Self.isValid()) {
    uint64_t DetachStart = nowNanos();
    Registry.detach(Self);
    if (Rec) {
      Rec->count(SpanKind::ThreadsDetach);
      Rec->leaf(SpanKind::ThreadsDetach, DetachStart, nowNanos());
    }
  }
}

void SessionRig::tick(SpanRecorder *Rec) {
  uint64_t Start = nowNanos();
  load::PressureSignals Now;
  MonitorTable *Monitors = Handle->monitorTable();
  Now.MonitorOccupancy = Monitors ? Monitors->occupancy() : 0;
  Now.RegistryOccupancy = Registry.occupancy();
  Now.MonitorExhaustionEvents = Monitors ? Monitors->exhaustionEvents() : 0;
  Now.RegistryExhaustionEvents = Registry.exhaustionEvents();
  Now.EmergencyInflations = Stats.snapshot().EmergencyInflations;
  Controller.tick(Now);
  if (Rec) {
    Rec->count(SpanKind::LoadTick);
    Rec->leaf(SpanKind::LoadTick, Start, nowNanos());
  }
}

void SessionRig::dispatch(Arrival &A, load::AdmissionDecision Decision,
                          SessionTally &Generator, uint64_t &DegradedCount) {
  switch (Decision) {
  case load::AdmissionDecision::Admit:
  case load::AdmissionDecision::AdmitDegraded: {
    A.Degraded = Decision == load::AdmissionDecision::AdmitDegraded;
    {
      std::lock_guard<std::mutex> Guard(Mu);
      if (Queue.size() >= QueueLimit) {
        Generator.shed(A.DueOffset);
        return;
      }
      Queue.push_back(A);
      Queued.store(Queue.size(), std::memory_order_release);
    }
    if (A.Degraded)
      ++DegradedCount;
    return;
  }
  case load::AdmissionDecision::Defer:
    Deferred.push_back(A);
    return;
  case load::AdmissionDecision::Shed:
    Generator.shed(A.DueOffset);
    return;
  }
}

void SessionRig::runPhase(std::vector<Arrival> &Arrivals,
                          SessionTally &Generator, Histogram &Lag,
                          uint64_t &DegradedCount, SpanRecorder *Rec) {
  uint64_t T0 = nowNanos() + 1'000'000;
  uint64_t NextTick = T0;
  auto admit = [&](Arrival &A) {
    uint64_t Start = Rec ? nowNanos() : 0;
    load::AdmissionDecision Decision = Controller.admit(A.Heavy);
    if (Rec) {
      Rec->count(SpanKind::LoadAdmit);
      Rec->leaf(SpanKind::LoadAdmit, Start, nowNanos());
    }
    dispatch(A, Decision, Generator, DegradedCount);
  };
  auto tickIfDue = [&](uint64_t Now) {
    if (Now < NextTick)
      return;
    tick(Rec);
    NextTick += TickNanos;
    // Deferred sessions get their retry once the ladder backs off.
    if (Deferred.empty() ||
        Controller.level() >= load::DegradationLevel::DeferInflation)
      return;
    std::vector<Arrival> Retry;
    Retry.swap(Deferred);
    for (Arrival &A : Retry)
      admit(A);
  };

  for (Arrival &A : Arrivals) {
    A.Due = T0 + A.DueOffset;
    uint64_t Now = nowNanos();
    // Spin rather than sleep until the arrival is due: a timer wake-up on
    // an idle virtual CPU can be milliseconds late.
    while (Now < A.Due) {
      tickIfDue(Now);
      std::this_thread::yield();
      Now = nowNanos();
    }
    Lag.record(Now - A.Due);
    tickIfDue(Now);
    admit(A);
  }

  // Deferred sessions keep their chance to run for a grace period, then
  // count as shed.
  uint64_t GraceEnd = nowNanos() + DeferGraceNanos;
  while (!Deferred.empty() && nowNanos() < GraceEnd) {
    tickIfDue(nowNanos());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const Arrival &A : Deferred)
    Generator.shed(A.DueOffset);
  Deferred.clear();
  // A session is counted in Busy before it leaves the queue, so both
  // reading zero means the phase has drained.
  while (Queued.load(std::memory_order_acquire) != 0 ||
         Busy.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
}

} // namespace

Measurement measureSessions(const RunConfig &Config, double Seconds,
                            TraceSession *Trace, unsigned SetupReps) {
  Measurement M;
  if (!isRegisteredProtocol(Config.Protocol)) {
    M.Failures.push_back("unknown protocol " + Config.Protocol);
    return M;
  }
  const unsigned Workers = Config.Nproc > 1 ? Config.Nproc - 1 : 1;
  char ThreadsBuf[96];
  std::snprintf(ThreadsBuf, sizeof(ThreadsBuf),
                "generator=1 (also ticks admission) workers=%u", Workers);
  M.Threads = ThreadsBuf;

  // Inputs: the whole arrival schedule, from the seed, up front.
  const double NominalSeconds = Seconds * NominalShare;
  const double PeakSeconds = Seconds - NominalSeconds;
  const std::array<WindowPlan, NumPhases> Plans = {
      planWindows(WarmupSeconds, WarmupSeconds),
      planWindows(NominalSeconds, WindowSeconds),
      planWindows(PeakSeconds, WindowSeconds)};
  SplitMix64 Rng(Config.Seed);
  uint64_t NextId = 1;
  std::vector<Arrival> Schedules[NumPhases] = {
      schedule(NominalRate, WarmupSeconds, Warmup, Rng, NextId),
      schedule(NominalRate, NominalSeconds, Nominal, Rng, NextId),
      schedule(PeakRate, PeakSeconds, Peak, Rng, NextId)};

  LockStats Stats;
  std::vector<double> Setups;
  std::vector<WorkerState> States(Workers, WorkerState(Plans));
  std::unique_ptr<SessionRig> Rig;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Rig.reset();
    uint64_t Start = nowNanos();
    Rig = std::make_unique<SessionRig>(Config, States, Stats, Trace);
    // Library work only: construction plus the workers' attaches, not the
    // benchmark's own thread start-up.
    Setups.push_back(
        static_cast<double>(Rig->builtAt() - Start + Rig->attachNanos()) /
        1e9);
  }

  SpanRecorder *Rec = Trace ? &Trace->newRecorder() : nullptr;
  std::vector<SessionTally> Tally;
  for (const WindowPlan &Plan : Plans)
    Tally.emplace_back(0, Plan.Nanos, Plan.Count);
  Histogram Lag[NumPhases];
  uint64_t Degraded[NumPhases] = {};
  LockStats::Snapshot Before;
  uint64_t HeapBefore = 0;
  for (unsigned P = Warmup; P < NumPhases; ++P) {
    if (P == Nominal) {
      Before = Stats.snapshot();
      HeapBefore = Rig->heapAllocations();
    }
    Rig->runPhase(Schedules[P], Tally[P], Lag[P], Degraded[P],
                  P == Warmup ? nullptr : Rec);
  }
  LockStats::Snapshot After = Stats.snapshot();

  std::vector<WindowedHistogram> Acquire;
  for (const WindowPlan &Plan : Plans)
    Acquire.emplace_back(0, Plan.Nanos, Plan.Count);
  Histogram QueueWait;
  uint64_t HeavyAttaches = 0, Fallbacks = 0;
  double BusyNanos = 0;
  for (unsigned P = 0; P < NumPhases; ++P) {
    for (WorkerState &W : States) {
      Tally[P].merge(W.Tally[P]);
      Acquire[P].merge(W.Acquire[P]);
      if (P == Warmup)
        continue;
      QueueWait.merge(W.QueueWait[P]);
      HeavyAttaches += W.HeavyAttaches[P];
      Fallbacks += W.AttachFallbacks[P];
      BusyNanos += static_cast<double>(W.BusyNanos[P]);
    }
  }

  // Output checks.
  for (unsigned P = 0; P < NumPhases; ++P) {
    if (Tally[P].offered() != Schedules[P].size()) {
      char Buf[128];
      std::snprintf(Buf, sizeof(Buf),
                    "sessions phase %u: offered %zu != completed %llu + "
                    "shed %llu",
                    P, Schedules[P].size(),
                    static_cast<unsigned long long>(Tally[P].Completed),
                    static_cast<unsigned long long>(Tally[P].Shed));
      M.Failures.push_back(Buf);
    }
  }
  uint64_t AttachFailureCount = Rig->attachFailures() + Fallbacks;
  if (AttachFailureCount != 0)
    M.Failures.push_back("sessions: threads.attach_failures != 0");

  const SessionTally &Nom = Tally[Nominal];
  const SessionTally &Pk = Tally[Peak];
  M.Attempted = Nom.offered() + Pk.offered();
  M.Failed = Nom.Shed + Pk.Shed;
  double ErrorRate = M.Attempted == 0 ? 0
                                      : static_cast<double>(M.Failed) /
                                            static_cast<double>(M.Attempted);

  addSetup(M, Setups);
  addPeakRss(M);
  char Note[160];
  std::snprintf(Note, sizeof(Note),
                "peak phase: %llu of %llu offered within 10 ms; median of %u "
                "windows",
                static_cast<unsigned long long>(Pk.withinSlo()),
                static_cast<unsigned long long>(Pk.offered()),
                Pk.Latency.windows());
  double Goodput = Pk.goodputPerSecond();
  M.EndToEnd.push_back({"throughput_per_s", Goodput, "1/s", Note});
  addPercentile(M, M.EndToEnd, "p50_us", Nom.Latency, 500000, 1e3, "us", true);
  M.Headline = M.EndToEnd.back().Value;
  M.HeadlineHigherIsBetter = false;

  M.Detail.push_back({"slo_goodput_per_s", Goodput, "sessions/s", Note});
  addPercentile(M, M.Detail, "session_p50_us", Nom.Latency, 500000, 1e3,
                "us", false);
  addPercentile(M, M.Detail, "session_p99_us", Nom.Latency, 990000, 1e3,
                "us", false);
  addPercentile(M, M.Detail, "acquire_p99_ns", Acquire[Nominal], 990000, 1,
                "ns", false);
  M.Detail.push_back({"error_rate", ErrorRate, "ratio", "shed / offered"});
  addPercentile(M, M.Detail, "peak.session_p50_us", Pk.Latency, 500000, 1e3,
                "us", false);
  addPercentile(M, M.Detail, "peak.session_p99_us", Pk.Latency, 990000, 1e3,
                "us", false);
  Histogram AllLag;
  AllLag.merge(Lag[Nominal]);
  AllLag.merge(Lag[Peak]);
  M.Detail.push_back({"generator_lag_p99_us",
                      reportablePercentile(AllLag, 990000) / 1e3, "us",
                      sampleNote(AllLag)});

  LayerInputs &L = M.Layers;
  if (Trace)
    L.Spans = Trace->merged();
  auto minus = [](uint64_t A, uint64_t B) { return A > B ? A - B : 0; };
  L.Locks = After;
  L.Locks.Acquisitions = minus(After.Acquisitions, Before.Acquisitions);
  L.Locks.FastPath = minus(After.FastPath, Before.FastPath);
  L.Locks.FatPath = minus(After.FatPath, Before.FatPath);
  L.Locks.SpinIterations = minus(After.SpinIterations, Before.SpinIterations);
  L.Locks.ContentionInflations =
      minus(After.ContentionInflations, Before.ContentionInflations);
  L.Locks.WaitInflations = minus(After.WaitInflations, Before.WaitInflations);
  L.Locks.OverflowInflations =
      minus(After.OverflowInflations, Before.OverflowInflations);
  L.Locks.Deflations = minus(After.Deflations, Before.Deflations);
  L.Locks.Wakes = minus(After.Wakes, Before.Wakes);
  L.Locks.WakeNanosTotal = minus(After.WakeNanosTotal, Before.WakeNanosTotal);
  if (MonitorTable *Monitors = Rig->monitors())
    L.MonitorsLive = minus(Monitors->liveMonitorCount(),
                           Monitors->retirementEvents());
  L.HeapAllocations = Rig->heapAllocations() - HeapBefore;
  L.AttachCalls = Rig->workerAttaches() + HeavyAttaches;
  L.AttachFailures = AttachFailureCount;
  L.ThreadNanos = BusyNanos;
  L.QueueWait = QueueWait;
  L.GeneratorLag = AllLag;
  L.Shed = M.Failed;
  L.Degraded = Degraded[Nominal] + Degraded[Peak];
  return M;
}

} // namespace perfbench
