//===- tests/deflation_test.cpp - Deflation extension tests ---------------===//
//
// Tests for the DeflationPolicy::WhenQuiescent extension (the paper keeps
// inflation permanent; deflation is its noted follow-up direction).
// Invariants under test:
//
//  - a fat lock retires exactly when its last hold is released with no
//    queued entrants and no waiters, and the word returns to
//    thin-unlocked with header bits intact;
//  - retirement never happens while anyone could still use the monitor;
//  - threads holding a stale fat word bounce and retry correctly;
//  - mutual exclusion survives inflate/deflate thrash.
//
//===----------------------------------------------------------------------===//

#include "core/ProtocolRegistry.h"
#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "load/SessionWorkload.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace thinlocks;

namespace {
class DeflationTest : public ::testing::Test {
protected:
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks{Monitors, &Stats, DeflationPolicy::WhenQuiescent};
  ThreadContext Main;
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    Main = Registry.attach("main");
    Class = &TheHeap.classes().registerClass("D", 0);
  }
  void TearDown() override { Registry.detach(Main); }

  Object *inflateViaWait(Object *Obj) {
    Locks.lock(Obj, Main);
    Locks.wait(Obj, Main, /*TimeoutNanos=*/100'000);
    EXPECT_TRUE(Locks.isInflated(Obj));
    return Obj;
  }
};
} // namespace

TEST_F(DeflationTest, QuiescentReleaseDeflates) {
  Object *Obj = TheHeap.allocate(*Class);
  uint32_t Header = Obj->headerBits();
  inflateViaWait(Obj);
  FatLock *Fat = Locks.monitorOf(Obj);
  ASSERT_NE(Fat, nullptr);

  Locks.unlock(Obj, Main); // Last hold, nobody queued or waiting.
  EXPECT_FALSE(Locks.isInflated(Obj));
  EXPECT_TRUE(lockword::isUnlocked(Obj->lockWord().load()));
  EXPECT_EQ(lockword::headerBitsOf(Obj->lockWord().load()), Header);
  EXPECT_TRUE(Fat->isRetired());
  EXPECT_EQ(Stats.deflations(), 1u);
}

TEST_F(DeflationTest, ThinSpeedPathIsBackAfterDeflation) {
  Object *Obj = TheHeap.allocate(*Class);
  inflateViaWait(Obj);
  Locks.unlock(Obj, Main); // Deflates.

  // Next acquisition is a plain thin fast path again.
  uint64_t FatOpsBefore = Stats.fatPathAcquisitions();
  Locks.lock(Obj, Main);
  EXPECT_FALSE(Locks.isInflated(Obj));
  EXPECT_EQ(Stats.fatPathAcquisitions(), FatOpsBefore);
  Locks.unlock(Obj, Main);
}

TEST_F(DeflationTest, ReinflationAllocatesAFreshMonitor) {
  Object *Obj = TheHeap.allocate(*Class);
  inflateViaWait(Obj);
  FatLock *First = Locks.monitorOf(Obj);
  Locks.unlock(Obj, Main); // Deflate.

  inflateViaWait(Obj); // Inflate again.
  FatLock *Second = Locks.monitorOf(Obj);
  EXPECT_NE(First, Second); // Retired monitors are never reused.
  EXPECT_TRUE(First->isRetired());
  EXPECT_FALSE(Second->isRetired());
  Locks.unlock(Obj, Main);
  EXPECT_EQ(Stats.deflations(), 2u);
}

TEST_F(DeflationTest, NestedHoldsBlockDeflation) {
  Object *Obj = TheHeap.allocate(*Class);
  Locks.lock(Obj, Main);
  inflateViaWait(Obj); // Now held twice, fat.
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 2u);

  Locks.unlock(Obj, Main); // Still held once: must NOT deflate.
  EXPECT_TRUE(Locks.isInflated(Obj));
  EXPECT_EQ(Stats.deflations(), 0u);

  Locks.unlock(Obj, Main); // Quiescent now: deflates.
  EXPECT_FALSE(Locks.isInflated(Obj));
  EXPECT_EQ(Stats.deflations(), 1u);
}

TEST_F(DeflationTest, WaitersBlockDeflation) {
  Object *Obj = TheHeap.allocate(*Class);
  std::atomic<bool> Waiting{false};
  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(Registry, "waiter");
    Locks.lock(Obj, Attachment.context());
    Waiting.store(true);
    EXPECT_EQ(Locks.wait(Obj, Attachment.context(), -1),
              WaitStatus::Notified);
    Locks.unlock(Obj, Attachment.context());
  });
  while (!Waiting.load())
    std::this_thread::yield();

  // Acquire (proves the waiter is parked), then release: the wait set is
  // non-empty, so deflation must not happen.
  Locks.lock(Obj, Main);
  Locks.unlock(Obj, Main);
  EXPECT_TRUE(Locks.isInflated(Obj));
  EXPECT_EQ(Stats.deflations(), 0u);

  Locks.lock(Obj, Main);
  Locks.notify(Obj, Main);
  Locks.unlock(Obj, Main);
  Waiter.join();
  // The waiter's own final unlock found the monitor quiescent: deflated.
  EXPECT_FALSE(Locks.isInflated(Obj));
  EXPECT_EQ(Stats.deflations(), 1u);
}

TEST_F(DeflationTest, QueuedEntrantBlocksDeflation) {
  Object *Obj = TheHeap.allocate(*Class);
  inflateViaWait(Obj); // Held by main, fat.
  FatLock *Fat = Locks.monitorOf(Obj);

  std::thread Entrant([&] {
    ScopedThreadAttachment Attachment(Registry, "entrant");
    Locks.lock(Obj, Attachment.context());
    Locks.unlock(Obj, Attachment.context());
  });
  while (Fat->entryQueueLength() == 0)
    std::this_thread::yield();

  Locks.unlock(Obj, Main); // Queue non-empty: hands off, no deflation...
  Entrant.join();
  // ...but the entrant's own release was quiescent and deflated.
  EXPECT_FALSE(Locks.isInflated(Obj));
  EXPECT_EQ(Stats.deflations(), 1u);
}

TEST_F(DeflationTest, DefaultPolicyNeverDeflates) {
  ThinLockManager Permanent(Monitors, &Stats);
  Object *Obj = TheHeap.allocate(*Class);
  Permanent.lock(Obj, Main);
  Permanent.wait(Obj, Main, /*TimeoutNanos=*/100'000);
  Permanent.unlock(Obj, Main);
  EXPECT_TRUE(Permanent.isInflated(Obj)); // Paper discipline.
  EXPECT_EQ(Stats.deflations(), 0u);
}

TEST_F(DeflationTest, TryLockSurvivesDeflationCycles) {
  Object *Obj = TheHeap.allocate(*Class);
  // The same cycles through both non-blocking entry points.
  const std::function<bool()> TryAcquires[] = {
      [&] { return Locks.tryLock(Obj, Main); },
      [&] {
        return Locks.tryLockFor(Obj, Main, /*TimeoutNanos=*/1'000'000) ==
               TimedLockStatus::Acquired;
      }};
  for (const auto &TryAcquire : TryAcquires) {
    for (int Round = 0; Round < 10; ++Round) {
      inflateViaWait(Obj);
      EXPECT_TRUE(TryAcquire()); // Nested on the fat lock.
      Locks.unlock(Obj, Main);
      Locks.unlock(Obj, Main); // Deflates.
      EXPECT_FALSE(Locks.isInflated(Obj));
      EXPECT_TRUE(TryAcquire()); // Thin again.
      Locks.unlock(Obj, Main);
    }
  }
  EXPECT_EQ(Stats.deflations(), 20u);
}

TEST_F(DeflationTest, MutualExclusionSurvivesThrash) {
  // The scenario the paper's permanence discipline avoids: repeated
  // inflate/deflate cycles under contention.  Correctness must hold
  // regardless of the performance cost.
  Object *Obj = TheHeap.allocate(*Class);
  constexpr int NumThreads = 4;
  constexpr int PerThread = 4000;
  uint64_t Shared = 0; // Protected by Obj.
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&] {
      ScopedThreadAttachment Attachment(Registry);
      for (int I = 0; I < PerThread; ++I) {
        Locks.lock(Obj, Attachment.context());
        ++Shared;
        Locks.unlock(Obj, Attachment.context());
      }
    });
  }
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Shared, static_cast<uint64_t>(NumThreads) * PerThread);
  EXPECT_EQ(Stats.totalAcquisitions(), Stats.totalReleases());
  // Quiescent end state: the last release deflated (or the object ended
  // thin) — either way nobody owns it.
  EXPECT_FALSE(Locks.holdsLock(Obj, Main));
  if (!Locks.isInflated(Obj)) {
    EXPECT_TRUE(lockword::isUnlocked(Obj->lockWord().load()));
  }
}

TEST_F(DeflationTest, HeaderBitsSurviveManyCycles) {
  Object *Obj = TheHeap.allocate(*Class);
  uint32_t Header = Obj->headerBits();
  for (int I = 0; I < 25; ++I) {
    inflateViaWait(Obj);
    Locks.unlock(Obj, Main);
    EXPECT_EQ(lockword::headerBitsOf(Obj->lockWord().load()), Header);
  }
  EXPECT_EQ(Stats.deflations(), 25u);
}

TEST(DeflationLedgerTest, InflationsMinusDeflationsAreTheLiveMonitors) {
  // Every inflation allocates one monitor and every deflation retires
  // one, so the LockStats ledger and the MonitorTable ledger must agree
  // after a sessions-style run that inflates by wait and by hint and
  // deflates at quiescence.
  LockStats Stats;
  ProtocolConfig Config;
  Config.DeflateWhenQuiescent = true;
  Config.Stats = &Stats;
  std::unique_ptr<ProtocolHandle> Handle = createProtocol("ThinLock", Config);
  ASSERT_NE(Handle, nullptr);
  MonitorTable *Monitors = Handle->monitorTable();
  ASSERT_NE(Monitors, nullptr);
  Heap TheHeap;
  ThreadRegistry Registry;
  load::SessionWorkload Workload(Handle->sync(), TheHeap, Registry,
                                 /*HotObjects=*/16, /*ZipfTheta=*/0.8);
  {
    ScopedThreadAttachment Worker(Registry);
    SplitMix64 Rng(1);
    LatencyHistogram Acquire;
    for (int I = 0; I < 40; ++I)
      Workload.run(Worker.context(), Rng, /*Heavy=*/I % 2 == 0,
                   /*Degraded=*/false, Acquire);
  }
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_GT(S.HintInflations, 0u);
  EXPECT_GT(S.Deflations, 0u);
  ASSERT_GE(S.inflations(), S.Deflations);
  EXPECT_EQ(S.inflations() - S.Deflations,
            Monitors->liveMonitorCount() - Monitors->retirementEvents());
}

using obs::InflateCause;
using InflationLedgerTest =
    ::testing::TestWithParam<std::tuple<InflateCause, DeflationPolicy>>;

TEST_P(InflationLedgerTest, OneInflationThenFullRelease) {
  // Counted by cause, retired only at quiescence, ledgers in step.
  auto [Cause, Deflation] = GetParam();
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks(Monitors, &Stats, Deflation);
  Object *Obj = TheHeap.allocate(TheHeap.classes().registerClass("L", 0));
  ScopedThreadAttachment Attachment(Registry);
  const ThreadContext &Me = Attachment.context();
  const int Holds = Cause == InflateCause::Overflow ? 257 : 1;
  for (int I = 0; I < Holds; ++I)
    Locks.lock(Obj, Me);
  if (Cause == InflateCause::Hint)
    Locks.inflate(Obj, Me);
  if (Cause == InflateCause::Wait)
    Locks.wait(Obj, Me, /*TimeoutNanos=*/100'000);
  for (int I = 0; I < Holds; ++I)
    Locks.unlock(Obj, Me);
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.HintInflations, Cause == InflateCause::Hint ? 1u : 0u);
  EXPECT_EQ(S.OverflowInflations, Cause == InflateCause::Overflow ? 1u : 0u);
  EXPECT_EQ(S.WaitInflations, Cause == InflateCause::Wait ? 1u : 0u);
  const bool Retires = Deflation == DeflationPolicy::WhenQuiescent;
  EXPECT_EQ(Locks.isInflated(Obj), !Retires);
  EXPECT_EQ(S.Deflations, Retires ? 1u : 0u);
  EXPECT_EQ(S.inflations() - S.Deflations,
            Monitors.liveMonitorCount() - Monitors.retirementEvents());
}

INSTANTIATE_TEST_SUITE_P(
    CausesAndPolicies, InflationLedgerTest,
    ::testing::Combine(::testing::Values(InflateCause::Hint,
                                         InflateCause::Overflow,
                                         InflateCause::Wait),
                       ::testing::Values(DeflationPolicy::Never,
                                         DeflationPolicy::WhenQuiescent)),
    [](const auto &Info) {
      return std::string(obs::inflateCauseName(std::get<0>(Info.param))) +
             (std::get<1>(Info.param) == DeflationPolicy::Never ? "_never"
                                                                : "_quiescent");
    });
