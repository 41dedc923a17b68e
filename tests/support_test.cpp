//===- tests/support_test.cpp - Support utility tests ---------------------===//

#include "support/Histogram.h"
#include "support/MathExtras.h"
#include "support/SpinWait.h"
#include "support/SplitMix64.h"
#include "support/StatsCounter.h"
#include "support/TableFormatter.h"
#include "support/ThreadStripe.h"
#include "support/Timer.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>

using namespace thinlocks;

//===----------------------------------------------------------------------===//
// MathExtras
//===----------------------------------------------------------------------===//

TEST(MathExtras, PowerOf2Detection) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_FALSE(isPowerOf2(3));
  EXPECT_TRUE(isPowerOf2(1ull << 40));
  EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(MathExtras, NextPowerOf2) {
  EXPECT_EQ(nextPowerOf2(0), 1u);
  EXPECT_EQ(nextPowerOf2(1), 1u);
  EXPECT_EQ(nextPowerOf2(2), 2u);
  EXPECT_EQ(nextPowerOf2(3), 4u);
  EXPECT_EQ(nextPowerOf2(1000), 1024u);
}

TEST(MathExtras, AlignTo) {
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(8, 8), 8u);
  EXPECT_EQ(alignTo(9, 8), 16u);
  EXPECT_EQ(alignTo(17, 16), 32u);
}

TEST(MathExtras, Log2Floor) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(2), 1u);
  EXPECT_EQ(log2Floor(3), 1u);
  EXPECT_EQ(log2Floor(1024), 10u);
  EXPECT_EQ(log2Floor(1025), 10u);
}

TEST(MathExtras, ExtractBits) {
  EXPECT_EQ(extractBits(0xABCD1234u, 0, 8), 0x34u);
  EXPECT_EQ(extractBits(0xABCD1234u, 8, 8), 0x12u);
  EXPECT_EQ(extractBits(0xABCD1234u, 16, 16), 0xABCDu);
  EXPECT_EQ(extractBits(0xFFFFFFFFu, 0, 32), 0xFFFFFFFFu);
}

TEST(MathExtras, SaturatingAdd) {
  EXPECT_EQ(saturatingAdd(1, 2), 3u);
  EXPECT_EQ(saturatingAdd(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(UINT64_MAX - 1, 1), UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// SplitMix64
//===----------------------------------------------------------------------===//

TEST(SplitMix64, DeterministicFromSeed) {
  SplitMix64 A(7), B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(SplitMix64, BoundedStaysInBounds) {
  SplitMix64 Rng(99);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBounded(17), 17u);
}

TEST(SplitMix64, BoundedCoversRange) {
  SplitMix64 Rng(3);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 400; ++I)
    Seen.insert(Rng.nextBounded(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(SplitMix64, DoubleInUnitInterval) {
  SplitMix64 Rng(5);
  for (int I = 0; I < 1000; ++I) {
    double V = Rng.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(SplitMix64, NextBoolRespectsProbabilityRoughly) {
  SplitMix64 Rng(11);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += Rng.nextBool(0.25) ? 1 : 0;
  EXPECT_GT(Hits, 2000);
  EXPECT_LT(Hits, 3000);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketsAndOverflow) {
  Histogram<3> H;
  H.record(0);
  H.record(1);
  H.record(1);
  H.record(2);
  H.record(3); // overflow
  H.record(99); // overflow
  EXPECT_EQ(H.count(0), 1u);
  EXPECT_EQ(H.count(1), 2u);
  EXPECT_EQ(H.count(2), 1u);
  EXPECT_EQ(H.count(Histogram<3>::OverflowBucket), 2u);
  EXPECT_EQ(H.total(), 6u);
}

TEST(Histogram, Fractions) {
  Histogram<2> H;
  EXPECT_DOUBLE_EQ(H.fraction(0), 0.0);
  H.record(0);
  H.record(0);
  H.record(1);
  H.record(5);
  EXPECT_DOUBLE_EQ(H.fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(H.fraction(1), 0.25);
  EXPECT_DOUBLE_EQ(H.fraction(Histogram<2>::OverflowBucket), 0.25);
}

TEST(Histogram, MergeAndReset) {
  Histogram<2> A, B;
  A.record(0);
  B.record(0);
  B.record(1);
  A.merge(B);
  EXPECT_EQ(A.count(0), 2u);
  EXPECT_EQ(A.count(1), 1u);
  A.reset();
  EXPECT_EQ(A.total(), 0u);
}

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

TEST(LatencyHistogram, EmptyIsAllZeros) {
  LatencyHistogram H;
  EXPECT_TRUE(H.empty());
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.mean(), 0u);
  EXPECT_EQ(H.quantile(0.0), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  EXPECT_EQ(H.quantile(1.0), 0u);
}

TEST(LatencyHistogram, SingleSampleIsEveryQuantile) {
  LatencyHistogram H;
  H.record(12345);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(H.min(), 12345u);
  EXPECT_EQ(H.max(), 12345u);
  EXPECT_EQ(H.mean(), 12345u);
  for (double Q : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0})
    EXPECT_EQ(H.quantile(Q), 12345u) << "Q=" << Q;
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Values below SubBuckets have their own unit-width buckets.
  LatencyHistogram H;
  for (uint64_t V = 0; V < LatencyHistogram::SubBuckets; ++V)
    EXPECT_EQ(LatencyHistogram::bucketOf(V), V);
  H.record(3);
  H.record(7);
  H.record(7);
  H.record(9);
  EXPECT_EQ(H.quantile(0.5), 7u);
  EXPECT_EQ(H.quantile(1.0), 9u);
  EXPECT_EQ(H.quantile(0.0), 3u);
}

TEST(LatencyHistogram, QuantileOrderIsMonotone) {
  LatencyHistogram H;
  SplitMix64 Rng(17);
  for (int I = 0; I < 5000; ++I)
    H.record(Rng.nextBounded(1u << 20));
  uint64_t Prev = 0;
  for (double Q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    uint64_t Value = H.quantile(Q);
    EXPECT_GE(Value, Prev) << "quantile regressed at Q=" << Q;
    EXPECT_GE(Value, H.min());
    EXPECT_LE(Value, H.max());
    Prev = Value;
  }
}

TEST(LatencyHistogram, QuantileRelativeErrorIsBounded) {
  // Log-linear bucketing promises <= 1/16 relative bucket width: a
  // quantile estimate never overshoots the true value by more than that
  // (estimates report the bucket's high bound).
  LatencyHistogram H;
  for (uint64_t I = 1; I <= 10000; ++I)
    H.record(I);
  for (double Q : {0.5, 0.9, 0.99}) {
    double Exact = Q * 10000;
    double Estimate = static_cast<double>(H.quantile(Q));
    EXPECT_GE(Estimate, Exact * 0.99) << "Q=" << Q;
    EXPECT_LE(Estimate, Exact * 1.08) << "Q=" << Q;
  }
}

TEST(LatencyHistogram, SaturationReportsTrueMax) {
  LatencyHistogram H;
  H.record(100);
  uint64_t Huge = LatencyHistogram::MaxTrackable + 12345;
  H.record(Huge);
  EXPECT_EQ(H.saturatedCount(), 1u);
  // A quantile landing in the saturation bucket must report the real
  // recorded max, not a bucket bound.
  EXPECT_EQ(H.quantile(1.0), Huge);
  EXPECT_EQ(H.quantile(0.999), Huge);
  EXPECT_EQ(H.max(), Huge);
}

TEST(LatencyHistogram, BucketBoundsRoundTrip) {
  for (size_t I = 0; I < LatencyHistogram::NumBuckets; ++I) {
    uint64_t Low = LatencyHistogram::bucketLow(I);
    uint64_t High = LatencyHistogram::bucketHigh(I);
    EXPECT_LE(Low, High);
    EXPECT_EQ(LatencyHistogram::bucketOf(Low), I);
    EXPECT_EQ(LatencyHistogram::bucketOf(High), I);
    if (I > 0)
      EXPECT_EQ(LatencyHistogram::bucketHigh(I - 1) + 1, Low)
          << "gap or overlap before bucket " << I;
  }
}

TEST(LatencyHistogram, MergeCombinesEverything) {
  LatencyHistogram A, B, Reference;
  SplitMix64 Rng(29);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = Rng.nextBounded(1u << 24);
    (I % 2 == 0 ? A : B).record(V);
    Reference.record(V);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), Reference.count());
  EXPECT_EQ(A.min(), Reference.min());
  EXPECT_EQ(A.max(), Reference.max());
  EXPECT_EQ(A.mean(), Reference.mean());
  for (double Q : {0.1, 0.5, 0.99})
    EXPECT_EQ(A.quantile(Q), Reference.quantile(Q));
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentityBothWays) {
  LatencyHistogram A, Empty;
  A.record(5);
  A.record(500);
  LatencyHistogram Copy = A;
  A.merge(Empty);
  EXPECT_EQ(A.count(), 2u);
  EXPECT_EQ(A.min(), Copy.min());
  EXPECT_EQ(A.max(), Copy.max());
  Empty.merge(Copy);
  EXPECT_EQ(Empty.count(), 2u);
  EXPECT_EQ(Empty.min(), 5u);
  EXPECT_EQ(Empty.max(), 500u);
}

// Saturated-histogram merge regression (PR-10 satellite).  When the
// merged-in histogram carries saturated samples, the destination must
// preserve the *true* recorded max (not a bucket bound — saturation
// bucket bounds are meaningless), accumulate the saturation count, and
// keep the min from whichever side holds it.
TEST(LatencyHistogram, MergePreservesSaturationTruth) {
  const uint64_t Huge = LatencyHistogram::MaxTrackable + 12345;

  LatencyHistogram A;
  A.record(7);
  A.record(Huge); // A is saturated and owns the true max.
  LatencyHistogram B;
  B.record(100);
  B.record(LatencyHistogram::MaxTrackable + 99); // Saturated, smaller max.

  A.merge(B);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_EQ(A.saturatedCount(), 2u) << "saturation count lost in merge";
  EXPECT_EQ(A.min(), 7u);
  EXPECT_EQ(A.max(), Huge) << "true max clobbered by merged-in bound";
  // The tail quantile lands in the saturation bucket; it must report
  // the surviving true max, exactly as the single-histogram
  // SaturationReportsTrueMax contract requires.
  EXPECT_EQ(A.quantile(1.0), Huge);
  EXPECT_EQ(A.quantile(0.999), Huge);

  // Merging saturated data into an *empty* histogram must adopt the
  // source's max/min wholesale (the Total == 0 branch).
  LatencyHistogram Empty;
  Empty.merge(A);
  EXPECT_EQ(Empty.count(), 4u);
  EXPECT_EQ(Empty.saturatedCount(), 2u);
  EXPECT_EQ(Empty.min(), 7u);
  EXPECT_EQ(Empty.max(), Huge);
  EXPECT_EQ(Empty.quantile(1.0), Huge);

  // And the reverse direction: the side with the *larger* true max
  // merged into the side with the smaller one must win.
  LatencyHistogram C;
  C.record(LatencyHistogram::MaxTrackable + 1);
  C.merge(A);
  EXPECT_EQ(C.saturatedCount(), 3u);
  EXPECT_EQ(C.max(), Huge);
  EXPECT_EQ(C.quantile(1.0), Huge);
}

//===----------------------------------------------------------------------===//
// StatsCounter
//===----------------------------------------------------------------------===//

TEST(StatsCounter, IncrementAndReset) {
  StatsCounter C;
  EXPECT_EQ(C.value(), 0u);
  C.increment();
  C.increment(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(StatsCounter, ConcurrentIncrementsAllLand) {
  StatsCounter C;
  constexpr int Threads = 4;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&C] {
      for (int I = 0; I < PerThread; ++I)
        C.increment();
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads) * PerThread);
}

TEST(StatsCounter, AttachedThreadsSumExactlyAcrossStripes) {
  // Attached threads write exclusive (plain-store) stripes; the sum must
  // still be exact because registry indices are unique among live
  // threads.  Mix in unattached threads to race the hashed shared
  // stripes against them.
  StatsCounter C;
  ThreadRegistry Registry;
  constexpr int Threads = 8;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&C, &Registry, T] {
      std::unique_ptr<ScopedThreadAttachment> Attach;
      if (T % 2)
        Attach = std::make_unique<ScopedThreadAttachment>(Registry, "inc");
      for (int I = 0; I < PerThread; ++I)
        C.increment();
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads) * PerThread);
}

TEST(StatsCounter, LargeThreadIndicesShareStripesExactly) {
  // Hold enough attachments live at once to push indices past the
  // exclusive-stripe range; those land in the shared fetch-add region
  // and must still count exactly.
  StatsCounter C;
  ThreadRegistry Registry;
  constexpr uint32_t NumContexts = ThreadStripe::NumExclusive + 8;
  std::vector<ThreadContext> Contexts;
  for (uint32_t I = 0; I < NumContexts; ++I) {
    Contexts.push_back(Registry.attach("wide"));
    ASSERT_TRUE(Contexts.back().isValid());
    C.increment(); // Recorded under the context just attached.
  }
  EXPECT_EQ(C.value(), static_cast<uint64_t>(NumContexts));
  for (auto It = Contexts.rbegin(); It != Contexts.rend(); ++It)
    Registry.detach(*It);
}

TEST(StatsCounter, ResetZeroesEveryStripe) {
  StatsCounter C;
  ThreadRegistry Registry;
  // Populate several distinct stripes: attached workers (exclusive
  // slots) and an unattached worker (hashed shared slot).
  std::vector<std::thread> Workers;
  for (int T = 0; T < 4; ++T)
    Workers.emplace_back([&C, &Registry, T] {
      std::unique_ptr<ScopedThreadAttachment> Attach;
      if (T % 2)
        Attach = std::make_unique<ScopedThreadAttachment>(Registry, "rst");
      C.increment(100);
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), 400u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
  C.increment(7);
  EXPECT_EQ(C.value(), 7u);
}

//===----------------------------------------------------------------------===//
// Timer
//===----------------------------------------------------------------------===//

TEST(Timer, MonotonicNanosAdvances) {
  uint64_t A = monotonicNanos();
  uint64_t B = monotonicNanos();
  EXPECT_GE(B, A);
}

TEST(Timer, StopWatchMeasuresSomething) {
  StopWatch Watch;
  volatile uint64_t X = 0;
  for (int I = 0; I < 100000; ++I)
    X = X + 1;
  EXPECT_GT(Watch.elapsedNanos(), 0u);
}

TEST(Timer, MedianElapsedRunsBodyExactly) {
  int Runs = 0;
  medianElapsedNanos(5, [&Runs] { ++Runs; });
  EXPECT_EQ(Runs, 5);
}

TEST(Timer, DeadlineAfterSaturatesInsteadOfWrapping) {
  using Clock = std::chrono::steady_clock;
  EXPECT_EQ(deadlineAfter(INT64_MAX), Clock::time_point::max());
  // Just below the saturation point still lands in the far future.
  EXPECT_GT(deadlineAfter(INT64_MAX / 2), Clock::now());
  for (int64_t Nanos : {int64_t{0}, int64_t{-1}, INT64_MIN}) {
    auto Deadline = deadlineAfter(Nanos);
    EXPECT_LE(Deadline, Clock::now()) << Nanos;
  }
  auto Before = Clock::now();
  auto Deadline = deadlineAfter(1'000'000'000);
  auto After = Clock::now();
  EXPECT_GE(Deadline - Before, std::chrono::seconds(1));
  EXPECT_LE(Deadline - After, std::chrono::seconds(1));
}

//===----------------------------------------------------------------------===//
// SpinWait
//===----------------------------------------------------------------------===//

TEST(SpinWait, BackoffGrowsThenYields) {
  SpinWait Spinner;
  for (int I = 0; I < 10; ++I)
    Spinner.spinOnce();
  EXPECT_GT(Spinner.totalSpins(), 10u);
  EXPECT_GT(Spinner.totalYields(), 0u);
}

TEST(SpinWait, NoYieldInEarlyRounds) {
  SpinWait Spinner;
  for (unsigned I = 0; I < SpinWait::YieldThresholdRound; ++I)
    Spinner.spinOnce();
  EXPECT_EQ(Spinner.totalYields(), 0u);
}

TEST(SpinWait, DefaultLadderParksFromItsThresholdRound) {
  // nextRound() reports the park rung instead of sleeping it out, so the
  // whole default ladder is checkable without a single sleep.
  SpinWait Spinner;
  for (unsigned I = 0; I < DefaultSpinPolicy.ParkThresholdRound; ++I)
    EXPECT_EQ(Spinner.nextRound(), 0u) << "round " << I;
  EXPECT_FALSE(Spinner.isParking());
  EXPECT_EQ(Spinner.totalYields(), DefaultSpinPolicy.ParkThresholdRound -
                                       DefaultSpinPolicy.YieldThresholdRound);
  EXPECT_EQ(Spinner.nextRound(), DefaultSpinPolicy.MinParkNanos);
  EXPECT_EQ(Spinner.nextRound(), 2 * DefaultSpinPolicy.MinParkNanos);
  EXPECT_TRUE(Spinner.isParking());
  uint64_t Last = 0;
  for (int I = 0; I < 16; ++I)
    Last = Spinner.nextRound();
  EXPECT_EQ(Last, DefaultSpinPolicy.MaxParkNanos);
  EXPECT_EQ(Spinner.totalParks(), 18u);
}

//===----------------------------------------------------------------------===//
// TableFormatter
//===----------------------------------------------------------------------===//

TEST(TableFormatter, AlignsColumns) {
  TableFormatter Table({"name", "value"});
  Table.addRow({"a", "1"});
  Table.addRow({"longer", "12345"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("name   | value"), std::string::npos);
  EXPECT_NE(Out.find("a      |     1"), std::string::npos);
  EXPECT_NE(Out.find("longer | 12345"), std::string::npos);
}

TEST(TableFormatter, FormatWithCommas) {
  EXPECT_EQ(TableFormatter::formatWithCommas(0), "0");
  EXPECT_EQ(TableFormatter::formatWithCommas(999), "999");
  EXPECT_EQ(TableFormatter::formatWithCommas(1000), "1,000");
  EXPECT_EQ(TableFormatter::formatWithCommas(12975639), "12,975,639");
}

TEST(TableFormatter, FormatDouble) {
  EXPECT_EQ(TableFormatter::formatDouble(1.234, 2), "1.23");
  EXPECT_EQ(TableFormatter::formatDouble(22.7, 1), "22.7");
}

TEST(TableFormatter, SeparatorRows) {
  TableFormatter Table({"x"});
  Table.addRow({"1"});
  Table.addSeparator();
  Table.addRow({"2"});
  std::string Out = Table.render();
  // Header separator plus the explicit one.
  size_t First = Out.find("-");
  EXPECT_NE(First, std::string::npos);
}
