//===- perfbench/tests/StatsTest.cpp - Tests of the benchmark's statistics ===//
///
/// \file
/// Self-contained (no test framework, so the benchmark builds with
/// nothing but a compiler): the percentile reporting rule, due-time
/// session latency with shed sessions, histogram interpolation, windowed
/// medians, and self-time subtraction for nested spans.  Exits non-zero
/// when any expectation fails.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What, int Line) {
  if (!Ok) {
    std::printf("FAILED line %d: %s\n", Line, What);
    ++Failures;
  }
}
#define EXPECT(Cond) expect((Cond), #Cond, __LINE__)

bool near(double A, double B, double Tolerance) {
  return std::fabs(A - B) <= Tolerance;
}

void testReportingRule() {
  // p99 needs ten samples beyond it: 1000 samples, not 999.
  EXPECT(!percentileReportable(990000, 999));
  EXPECT(percentileReportable(990000, 1000));
  EXPECT(!percentileReportable(500000, 19));
  EXPECT(percentileReportable(500000, 20));
  EXPECT(highestReportablePercentile(0) == 0);
  EXPECT(highestReportablePercentile(19) == 0);
  EXPECT(highestReportablePercentile(20) == 500000);
  EXPECT(highestReportablePercentile(99) == 500000);
  EXPECT(highestReportablePercentile(100) == 900000);
  EXPECT(highestReportablePercentile(999) == 900000);
  EXPECT(highestReportablePercentile(1000) == 990000);
  EXPECT(highestReportablePercentile(10000) == 999000);
  EXPECT(highestReportablePercentile(100000) == 999900);

  Histogram H;
  for (int I = 0; I < 999; ++I)
    H.record(100);
  EXPECT(std::isnan(reportablePercentile(H, 990000)));
  EXPECT(!std::isnan(reportablePercentile(H, 900000)));
  H.record(100);
  EXPECT(!std::isnan(reportablePercentile(H, 990000)));
  // Shed samples count toward the sample total.
  Histogram Shed;
  for (int I = 0; I < 990; ++I)
    Shed.record(5);
  for (int I = 0; I < 10; ++I)
    Shed.recordInfinite();
  EXPECT(!std::isnan(reportablePercentile(Shed, 990000)));
}

void testQuantiles() {
  Histogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  EXPECT(near(H.quantile(0.5), 500.5, 1e-9));
  EXPECT(near(H.quantile(0.99), 990.5, 1e-9));

  // Tied integers interpolate across their unit interval.
  Histogram Ties;
  for (int I = 0; I < 100; ++I)
    Ties.record(7);
  EXPECT(near(Ties.quantile(0.5), 7.0, 1e-9));
  EXPECT(near(Ties.quantile(0.99), 7.49, 1e-9));

  // Above the exact range a quantile stays within one bucket (<0.8%).
  Histogram Big;
  for (int I = 0; I < 1000; ++I)
    Big.record(1'000'000);
  double Q = Big.quantile(0.5);
  EXPECT(Q > 1'000'000 * 0.992 && Q < 1'000'000 * 1.008);

  for (uint64_t V : {0ull, 1ull, 1023ull, 1024ull, 1025ull, 4095ull, 4096ull,
                     123456789ull, (1ull << 35) + 12345}) {
    unsigned B = Histogram::bucketOf(V);
    EXPECT(Histogram::bucketLow(B) <= V && V < Histogram::bucketHigh(B));
    double Width = static_cast<double>(Histogram::bucketHigh(B) -
                                       Histogram::bucketLow(B));
    EXPECT(Width <= 1.0 || Width / static_cast<double>(V) <= 1.0 / 128);
  }
  // Beyond the range values saturate into the last bucket.
  EXPECT(Histogram::bucketOf(1ull << 50) == Histogram::numBuckets() - 1);

  Histogram A, B;
  A.record(10);
  B.record(30);
  B.recordInfinite();
  A.merge(B);
  EXPECT(A.count() == 3 && A.finiteCount() == 2 && A.infiniteCount() == 1);
  EXPECT(std::isinf(A.quantile(0.9)));
}

void testDueTimeLatency() {
  const uint64_t Slo = 10'000'000;
  SessionTally T(0, 1'000'000'000, 1);
  // Due at 1 ms, dequeued late at 5 ms, done at 6 ms: the latency is 5 ms
  // from the due time, not the 1 ms of service.
  T.completed(1'000'000, 6'000'000, Slo);
  EXPECT(near(T.Latency.total().quantile(0.5), 5'000'000,
              5'000'000 * 0.008));
  // A session that finished before it was due (clock granularity) is 0.
  SessionTally Early(0, 1'000'000'000, 1);
  Early.completed(2'000, 1'000, Slo);
  EXPECT(Early.Latency.total().quantile(0.5) < 1.0);

  // Two one-second windows; 1000 offered in each: 970 fast, 20 over the
  // limit, 10 shed.
  SessionTally P(0, 1'000'000'000, 2);
  for (uint64_t Window = 0; Window < 2; ++Window) {
    uint64_t Due = Window * 1'000'000'000 + 500'000'000;
    for (int I = 0; I < 970; ++I)
      P.completed(Due, Due + 1'000'000, Slo);
    for (int I = 0; I < 20; ++I)
      P.completed(Due, Due + 50'000'000, Slo);
    for (int I = 0; I < 10; ++I)
      P.shed(Due);
  }
  EXPECT(P.offered() == 2000);
  EXPECT(P.Completed == 1980 && P.Shed == 20 && P.withinSlo() == 1940);
  // Shed sessions are excluded from goodput, late ones too.
  EXPECT(near(P.goodputPerSecond(), 970.0, 1e-9));
  // Shed sessions are +infinity: 1% shed puts p99 among them.
  EXPECT(std::isinf(P.Latency.medianPercentile(990000)));
  EXPECT(P.Latency.medianPercentile(900000) < 10'000'000);
  EXPECT(near(P.Latency.medianPercentile(500000), 1'000'000,
              1'000'000 * 0.008));
  Histogram All = P.Latency.total();
  EXPECT(All.count() == 2000 && All.infiniteCount() == 20);
  EXPECT(All.quantile(0.985) > 10'000'000 && !std::isinf(All.quantile(0.985)));

  SessionTally Merged(0, 1'000'000'000, 2);
  Merged.merge(P);
  Merged.merge(P);
  EXPECT(Merged.offered() == 4000 && Merged.withinSlo() == 3880);
}

void testWindowedMedian() {
  // Five windows; one holds a stall.  The median over windows ignores it.
  WindowedHistogram H(100, 1000, 5);
  for (uint64_t W = 0; W < 5; ++W)
    for (int I = 0; I < 1000; ++I)
      H.record(100 + W * 1000 + 10, W == 2 ? 5000 + I : 10 + I % 10);
  EXPECT(H.windowOf(0) == 0 && H.windowOf(100 + 4999) == 4);
  EXPECT(H.windowOf(1'000'000) == 4); // Clamped into the last window.
  double P99 = H.medianPercentile(990000);
  EXPECT(P99 > 9 && P99 < 20);
  EXPECT(H.total().quantile(0.99) > 5000);
  // A window with too few samples for p99 does not vote; fewer than half
  // the windows voting refuses the figure.
  WindowedHistogram Sparse(0, 10, 4);
  for (int I = 0; I < 1000; ++I)
    Sparse.record(5, 7);
  for (int I = 0; I < 10; ++I)
    Sparse.record(15, 9);
  EXPECT(std::isnan(Sparse.medianPercentile(990000)));
  for (int I = 0; I < 1000; ++I)
    Sparse.record(25, 8);
  EXPECT(near(Sparse.medianPercentile(500000), 7.5, 1e-9));
}

void testSelfTime() {
  SpanRecorder Rec(0, /*KeepLimit=*/16);
  Rec.begin(SpanKind::Session, 0, 7);   // [0, 100)
  Rec.leaf(SpanKind::CoreLock, 10, 30); // 20
  Rec.begin(SpanKind::ParkWait, 40);    // [40, 70)
  Rec.leaf(SpanKind::ParkNotify, 50, 55); // 5, nested two deep
  Rec.end(70);
  Rec.end(100);
  EXPECT(Rec.openSpans() == 0);
  EXPECT(Rec.stats(SpanKind::Session).TotalNanos == 100);
  EXPECT(Rec.stats(SpanKind::Session).SelfNanos == 100 - 20 - 30);
  EXPECT(Rec.stats(SpanKind::ParkWait).SelfNanos == 30 - 5);
  EXPECT(Rec.stats(SpanKind::CoreLock).SelfNanos == 20);
  EXPECT(Rec.stats(SpanKind::ParkNotify).SelfNanos == 5);

  const std::vector<Span> &S = Rec.spans();
  EXPECT(S.size() == 4);
  EXPECT(S[0].Parent == Span::NoParent && S[0].End == 100);
  EXPECT(S[1].Parent == 0 && S[2].Parent == 0 && S[3].Parent == 2);
  for (const Span &X : S)
    EXPECT(X.Group == 7); // Children share their session's id.

  // Sampled calls: exact counts, means from the timed sample.
  Rec.count(SpanKind::CoreLock);
  Rec.count(SpanKind::CoreLock);
  EXPECT(Rec.stats(SpanKind::CoreLock).Calls == 2);
  EXPECT(Rec.stats(SpanKind::CoreLock).Timed == 1);
  EXPECT(near(Rec.stats(SpanKind::CoreLock).estimatedSelfNanos(), 40, 1e-9));

  // Past the keep limit spans are dropped but self time stays exact.
  SpanRecorder Small(1, /*KeepLimit=*/1);
  Small.begin(SpanKind::TxnExecute, 0, 3);
  Small.leaf(SpanKind::CoreTryLock, 1, 4);
  Small.end(10);
  EXPECT(Small.spans().size() == 1);
  EXPECT(Small.stats(SpanKind::TxnExecute).SelfNanos == 7);
}

} // namespace

int main() {
  testReportingRule();
  testQuantiles();
  testDueTimeLatency();
  testWindowedMedian();
  testSelfTime();
  if (Failures == 0)
    std::printf("perfbench_stats_test: all passed\n");
  return Failures == 0 ? 0 : 1;
}
