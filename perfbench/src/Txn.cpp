//===- perfbench/src/Txn.cpp - The `txn` workload -------------------------===//
///
/// \file
/// Closed loop: nproc-1 workers run Validated (OCC) transactions of 8
/// reads and 2 writes, Zipf(0.9) over 2^20 objects, through
/// TxnEngine::policy().execute.  An aborted transaction is retried with
/// the same access set and a fresh timestamp, up to MaxAttempts; its
/// latency runs from the first attempt to the commit.  Access sets are
/// drawn from the seed before the run into a per-worker pool that the
/// worker cycles through.
///
//===----------------------------------------------------------------------===//

#include "Clock.h"
#include "Common.h"
#include "ProbedSync.h"

#include "core/ProtocolRegistry.h"
#include "heap/Heap.h"
#include "load/Zipf.h"
#include "threads/ThreadRegistry.h"
#include "txn/TxnEngine.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

namespace perfbench {

using namespace thinlocks;

namespace {

constexpr size_t UniverseObjects = size_t(1) << 20;
constexpr double ZipfTheta = 0.9;
constexpr uint32_t ReadsPerTxn = 8;
constexpr uint32_t WritesPerTxn = 2;
constexpr uint32_t IndicesPerTxn = ReadsPerTxn + WritesPerTxn;
constexpr uint32_t MaxAttempts = 100000;
/// Retries after this many aborts yield first: a conflicting committer
/// that lost its CPU mid-window cannot release its marks while we spin.
constexpr uint32_t YieldAfterAttempts = 2;
constexpr size_t PoolTxnsPerWorker = size_t(1) << 16;
constexpr double WarmupSeconds = 0.5;
/// The measured phase is reported as the median over windows this long.
constexpr double WindowSeconds = 1;

/// One worker's counters for the measured phase (warm-up is discarded).
struct WorkerState {
  std::vector<uint32_t> Pool; ///< Writes then reads, IndicesPerTxn each.
  txn::TxnScratch Scratch;    ///< Persists: WritesApplied spans all phases.
  WindowedHistogram Commit{0, 1, 1};
  WindowedHistogram Acquire{0, 1, 1};
  std::vector<double> CommitsByWindow;
  uint64_t Txns = 0;
  uint64_t Attempts = 0; ///< Counted before execute() runs.
  uint64_t Committed = 0;
  uint64_t AbortBusy = 0;
  uint64_t AbortDie = 0;
  uint64_t AbortDeadlock = 0;
  uint64_t AbortValidation = 0;
  uint64_t HitCap = 0;
  uint64_t AllAttempts = 0; ///< Every phase, for the accounting identity.
  uint64_t AllOutcomes = 0;
};

class TxnRig {
public:
  TxnRig(const RunConfig &Config, unsigned Workers, LockStats *Stats,
         TraceSession *Trace)
      : Handle(createProtocol(Config.Protocol, protocolConfig(Stats))),
        Probed(Handle->sync()),
        Engine(Probed, TheHeap, Registry, txn::ConflictPolicyKind::Validated,
               engineParams(Config, Workers)),
        States(Workers) {
    BuiltAt = nowNanos();
    Threads.reserve(Workers);
    for (unsigned I = 0; I < Workers; ++I)
      Threads.emplace_back([this, I, Trace] { workerLoop(I, Trace); });
    std::unique_lock<std::mutex> Guard(Mu);
    Cv.wait(Guard, [this, Workers] { return Ready == Workers; });
  }

  ~TxnRig() {
    {
      std::lock_guard<std::mutex> Guard(Mu);
      Quit = true;
    }
    Cv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  TxnRig(const TxnRig &) = delete;
  TxnRig &operator=(const TxnRig &) = delete;

  std::vector<WorkerState> &states() { return States; }
  txn::TxnEngine &engine() { return Engine; }
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

  /// Runs every worker for \p Seconds, recording into windows of
  /// \p Plan when \p Measured; \returns the elapsed nanoseconds.
  uint64_t runPhase(double Seconds, bool Measured, WindowPlan Plan) {
    uint64_t Start;
    {
      std::lock_guard<std::mutex> Guard(Mu);
      for (WorkerState &W : States) {
        W.Commit = WindowedHistogram(0, Plan.Nanos, Plan.Count);
        W.Acquire = WindowedHistogram(0, Plan.Nanos, Plan.Count);
        W.CommitsByWindow.assign(Plan.Count, 0);
      }
      Measuring = Measured;
      Running = static_cast<unsigned>(Threads.size());
      StopFlag.store(false, std::memory_order_relaxed);
      ++Generation;
      Start = nowNanos();
      PhaseStart = Start;
    }
    Cv.notify_all();
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<uint64_t>(Seconds * 1e9)));
    StopFlag.store(true, std::memory_order_relaxed);
    uint64_t Elapsed = nowNanos() - Start;
    std::unique_lock<std::mutex> Guard(Mu);
    Cv.wait(Guard, [this] { return Running == 0; });
    return Elapsed;
  }

private:
  static ProtocolConfig protocolConfig(LockStats *Stats) {
    ProtocolConfig PC;
    PC.Stats = Stats;
    return PC;
  }

  static txn::TxnParams engineParams(const RunConfig &Config,
                                     unsigned Workers) {
    txn::TxnParams P;
    P.HeapObjects = UniverseObjects;
    P.ZipfTheta = ZipfTheta;
    P.Threads = Workers;
    P.ReadSetSize = ReadsPerTxn;
    P.WriteSetSize = WritesPerTxn;
    P.Seed = Config.Seed;
    return P;
  }

  void workerLoop(unsigned Index, TraceSession *Trace);

  ThreadRegistry Registry;
  std::unique_ptr<ProtocolHandle> Handle;
  ProbedSync Probed;
  Heap TheHeap;
  txn::TxnEngine Engine;
  std::vector<WorkerState> States;
  uint64_t BuiltAt = 0;
  std::atomic<uint64_t> AttachNanos{0};
  std::atomic<uint64_t> FailedAttaches{0};
  std::atomic<uint64_t> Clock{0};
  std::atomic<bool> StopFlag{false};

  std::mutex Mu;
  std::condition_variable Cv;
  unsigned Ready = 0;
  unsigned Running = 0;
  uint64_t Generation = 0;
  uint64_t PhaseStart = 0;
  bool Measuring = false;
  bool Quit = false;

  std::vector<std::thread> Threads; // Last: started after the rest exists.
};

void TxnRig::workerLoop(unsigned Index, TraceSession *Trace) {
  SpanRecorder *Rec = Trace ? &Trace->newRecorder() : nullptr;
  uint64_t AttachStart = nowNanos();
  ThreadContext Self = Registry.attach("perfbench-txn");
  uint64_t AttachEnd = nowNanos();
  AttachNanos.fetch_add(AttachEnd - AttachStart, std::memory_order_relaxed);
  if (Rec) {
    Rec->count(SpanKind::ThreadsAttach);
    Rec->leaf(SpanKind::ThreadsAttach, AttachStart, AttachEnd);
  }
  if (!Self.isValid())
    FailedAttaches.fetch_add(1, std::memory_order_relaxed);
  WorkerState &W = States[Index];
  txn::TxnAccess Access;
  size_t Cursor = 0;
  uint64_t Seen = 0;
  uint64_t TxnId = uint64_t(Index) << 40;
  {
    std::lock_guard<std::mutex> Guard(Mu);
    ++Ready;
  }
  Cv.notify_all();

  for (;;) {
    bool Measured;
    uint64_t Begin;
    {
      std::unique_lock<std::mutex> Guard(Mu);
      Cv.wait(Guard, [&] { return Quit || Generation != Seen; });
      if (Quit)
        break;
      Seen = Generation;
      Measured = Measuring;
      Begin = PhaseStart;
    }
    Probe.Rec = Measured ? Rec : nullptr;
    Probe.Acquire = Measured ? &W.Acquire : nullptr;
    Probe.PhaseStart = Begin;
    while (Self.isValid() && !StopFlag.load(std::memory_order_relaxed)) {
      const uint32_t *Set = &W.Pool[Cursor * IndicesPerTxn];
      Cursor = (Cursor + 1) % PoolTxnsPerWorker;
      Access.Writes.assign(Set, Set + WritesPerTxn);
      Access.Reads.assign(Set + WritesPerTxn, Set + IndicesPerTxn);
      ++TxnId;
      uint64_t First = nowNanos();
      for (uint32_t Attempt = 1;; ++Attempt) {
        uint64_t Ts = Clock.fetch_add(1, std::memory_order_relaxed) + 1;
        ++W.AllAttempts;
        if (Measured)
          ++W.Attempts;
        uint64_t Start = Probe.Rec ? nowNanos() : 0;
        if (Probe.Rec)
          Rec->begin(SpanKind::TxnExecute, Start, TxnId);
        txn::TxnStatus Status =
            Engine.policy().execute(Self, Ts, Access, W.Scratch);
        uint64_t End = nowNanos();
        if (Probe.Rec) {
          Rec->count(SpanKind::TxnExecute);
          Rec->end(End);
        }
        ++W.AllOutcomes;
        if (Status == txn::TxnStatus::Committed) {
          if (Measured) {
            ++W.Committed;
            W.Commit.record(End - Begin, End - First);
            ++W.CommitsByWindow[W.Commit.windowOf(End - Begin)];
          }
          break;
        }
        if (Measured) {
          switch (Status) {
          case txn::TxnStatus::AbortedBusy:
            ++W.AbortBusy;
            break;
          case txn::TxnStatus::AbortedDie:
            ++W.AbortDie;
            break;
          case txn::TxnStatus::AbortedDeadlock:
            ++W.AbortDeadlock;
            break;
          default:
            ++W.AbortValidation;
            break;
          }
        }
        if (Attempt == MaxAttempts) {
          if (Measured)
            ++W.HitCap;
          break;
        }
        if (Attempt >= YieldAfterAttempts)
          std::this_thread::yield();
      }
      if (Measured)
        ++W.Txns;
    }
    Probe = ThreadProbe();
    {
      std::lock_guard<std::mutex> Guard(Mu);
      --Running;
    }
    Cv.notify_all();
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

} // namespace

Measurement measureTxn(const RunConfig &Config, double Seconds,
                       TraceSession *Trace, unsigned SetupReps) {
  Measurement M;
  if (!isRegisteredProtocol(Config.Protocol)) {
    M.Failures.push_back("unknown protocol " + Config.Protocol);
    return M;
  }
  const unsigned Workers = Config.Nproc > 1 ? Config.Nproc - 1 : 1;
  char ThreadsBuf[96];
  std::snprintf(ThreadsBuf, sizeof(ThreadsBuf),
                "workers=%u (closed loop; the main thread only times)",
                Workers);
  M.Threads = ThreadsBuf;

  // Inputs: every worker's access-set pool, from the seed, up front.
  std::vector<std::vector<uint32_t>> Pools(Workers);
  {
    load::ZipfSampler Popularity(UniverseObjects, ZipfTheta);
    txn::TxnAccess Access;
    for (unsigned W = 0; W < Workers; ++W) {
      SplitMix64 Rng(Config.Seed ^ (0x9e3779b97f4a7c15ull * (W + 1)));
      Pools[W].reserve(PoolTxnsPerWorker * IndicesPerTxn);
      for (size_t T = 0; T < PoolTxnsPerWorker; ++T) {
        txn::drawTxnAccess(Popularity, Rng, ReadsPerTxn, WritesPerTxn,
                           Access);
        for (size_t Idx : Access.Writes)
          Pools[W].push_back(static_cast<uint32_t>(Idx));
        for (size_t Idx : Access.Reads)
          Pools[W].push_back(static_cast<uint32_t>(Idx));
      }
    }
  }

  LockStats Stats;
  std::vector<double> Setups;
  std::unique_ptr<TxnRig> Rig;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Rig.reset();
    uint64_t Start = nowNanos();
    Rig = std::make_unique<TxnRig>(Config, Workers, Trace ? &Stats : nullptr,
                                   Trace);
    // Library work only: construction plus the workers' attaches, not the
    // benchmark's own thread start-up.
    Setups.push_back(
        static_cast<double>(Rig->builtAt() - Start + Rig->attachNanos()) /
        1e9);
  }
  for (unsigned W = 0; W < Workers; ++W)
    Rig->states()[W].Pool = std::move(Pools[W]);

  Rig->runPhase(WarmupSeconds, /*Measured=*/false, WindowPlan());
  Stats.reset();
  const WindowPlan Plan = planWindows(Seconds, WindowSeconds);
  uint64_t Elapsed = Rig->runPhase(Seconds, /*Measured=*/true, Plan);

  WorkerState All;
  All.Commit = WindowedHistogram(0, Plan.Nanos, Plan.Count);
  All.Acquire = WindowedHistogram(0, Plan.Nanos, Plan.Count);
  All.CommitsByWindow.assign(Plan.Count, 0);
  // Window lengths; the last one runs until the workers were stopped.
  std::vector<double> WindowNanos(Plan.Count, static_cast<double>(Plan.Nanos));
  WindowNanos.back() = static_cast<double>(Elapsed) -
                       static_cast<double>(Plan.Nanos) * (Plan.Count - 1);
  uint64_t WritesApplied = 0, Violations = 0;
  for (WorkerState &W : Rig->states()) {
    All.Commit.merge(W.Commit);
    All.Acquire.merge(W.Acquire);
    for (unsigned I = 0; I < Plan.Count; ++I)
      All.CommitsByWindow[I] += W.CommitsByWindow[I];
    All.Txns += W.Txns;
    All.Attempts += W.Attempts;
    All.Committed += W.Committed;
    All.AbortBusy += W.AbortBusy;
    All.AbortDie += W.AbortDie;
    All.AbortDeadlock += W.AbortDeadlock;
    All.AbortValidation += W.AbortValidation;
    All.HitCap += W.HitCap;
    All.AllAttempts += W.AllAttempts;
    All.AllOutcomes += W.AllOutcomes;
    WritesApplied += W.Scratch.WritesApplied;
    Violations += W.Scratch.ConsistencyViolations;
  }
  uint64_t Aborted = All.AbortBusy + All.AbortDie + All.AbortDeadlock +
                     All.AbortValidation;

  // Output checks.
  uint64_t VersionSum = Rig->engine().versionSum();
  if (VersionSum != WritesApplied) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "txn: versionSum %llu != writes %llu",
                  static_cast<unsigned long long>(VersionSum),
                  static_cast<unsigned long long>(WritesApplied));
    M.Failures.push_back(Buf);
  }
  if (Violations != 0)
    M.Failures.push_back("txn: ConsistencyViolations != 0");
  if (All.Attempts != All.Committed + Aborted ||
      All.AllAttempts != All.AllOutcomes)
    M.Failures.push_back("txn: started != committed + aborted");
  if (All.Txns != All.Committed + All.HitCap)
    M.Failures.push_back("txn: transactions != committed + retry-capped");
  if (Rig->attachFailures() != 0)
    M.Failures.push_back("txn: a worker failed to attach");
  if (All.Committed == 0)
    M.Failures.push_back("txn: nothing committed");

  M.Attempted = All.Txns;
  M.Failed = All.HitCap;
  addSetup(M, Setups);
  addPeakRss(M);
  char Note[128];
  std::snprintf(Note, sizeof(Note), "%llu commits in %.3f s",
                static_cast<unsigned long long>(All.Committed),
                static_cast<double>(Elapsed) / 1e9);
  addRate(M, M.EndToEnd, "throughput_per_s", All.CommitsByWindow, WindowNanos,
          "1/s", Note);
  double CommitsPerSecond = M.EndToEnd.back().Value;
  M.Headline = CommitsPerSecond;
  addPercentile(M, M.EndToEnd, "p50_us", All.Commit, 500000, 1e3, "us", true);

  M.Detail.push_back({"commits_per_s", CommitsPerSecond, "commits/s", Note});
  addPercentile(M, M.Detail, "commit_p50_us", All.Commit, 500000, 1e3, "us",
                false);
  addPercentile(M, M.Detail, "commit_p99_us", All.Commit, 990000, 1e3, "us",
                false);
  addPercentile(M, M.Detail, "acquire_p99_ns", All.Acquire, 990000, 1, "ns",
                false);
  M.Detail.push_back({"aborts.busy", double(All.AbortBusy), "count", ""});
  M.Detail.push_back(
      {"aborts.validation", double(All.AbortValidation), "count", ""});
  M.Detail.push_back(
      {"error_rate",
       All.Txns == 0 ? 0
                     : static_cast<double>(All.HitCap) /
                           static_cast<double>(All.Txns),
       "ratio", "transactions that hit the retry cap / transactions"});

  LayerInputs &L = M.Layers;
  if (Trace)
    L.Spans = Trace->merged();
  L.Locks = Stats.snapshot();
  if (MonitorTable *Monitors = Rig->monitors())
    L.MonitorsLive = Monitors->liveMonitorCount();
  L.HeapAllocations = Rig->heapAllocations();
  L.AttachCalls = Workers;
  L.AttachFailures = Rig->attachFailures();
  L.ThreadNanos = static_cast<double>(Elapsed) * Workers;
  L.TxnAttempts = All.Attempts;
  L.TxnCommits = All.Committed;
  L.TxnAbortsBusy = All.AbortBusy;
  L.TxnAbortsValidation = All.AbortValidation;
  return M;
}

} // namespace perfbench
