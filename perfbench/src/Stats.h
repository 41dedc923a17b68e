//===- perfbench/src/Stats.h - Benchmark statistics ------------*- C++ -*-===//
///
/// \file
/// The statistics every perfbench metric is computed with, kept in the
/// benchmark (not the library) so a change under test cannot move the
/// yardstick:
///
///  - Histogram: integer samples (nanoseconds) in exact unit buckets
///    below 1024 and 128 sub-buckets per octave above (width <= 0.8%),
///    plus a count of +infinity samples (shed sessions).  Quantiles
///    interpolate linearly inside the bucket that holds the target rank,
///    treating the integers a bucket covers as the interval
///    [lo - 0.5, hi - 0.5): a quantile of tied integer samples is then
///    a measured value with all its digits rather than a step that
///    repeats exactly from run to run.
///
///  - The reporting rule: a timing is reported as its median and the
///    highest standard percentile with at least ten samples beyond it.
///    p99 therefore needs 1000 samples and is refused below that.
///
///  - WindowedHistogram: a run split into fixed windows; a timing is
///    the median over windows of its per-window percentile.
///
///  - SessionTally: open-loop session accounting.  Latency runs from
///    the session's *due* time, a shed session counts as +infinity in
///    the percentiles and is excluded from goodput.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Log-linear histogram of non-negative integer samples.
class Histogram {
public:
  static constexpr unsigned ExactLimitLog2 = 10;
  static constexpr unsigned SubBucketsLog2 = 7;
  static constexpr unsigned MaxLog2 = 36; ///< Values >= 2^36 (68 s) saturate.

  Histogram();

  void record(uint64_t Value);
  /// Records a sample that missed every limit (a shed session).
  void recordInfinite() { ++Infinite; }
  void merge(const Histogram &Other);

  /// Finite plus infinite samples.
  uint64_t count() const { return Finite + Infinite; }
  uint64_t finiteCount() const { return Finite; }
  uint64_t infiniteCount() const { return Infinite; }

  /// \returns the \p Q quantile (0 <= Q < 1) by grouped-data
  /// interpolation, +infinity when the rank falls among the infinite
  /// samples, and 0 for an empty histogram.
  double quantile(double Q) const;

  /// Bucket geometry, exposed for the tests.
  static unsigned bucketOf(uint64_t Value);
  static uint64_t bucketLow(unsigned Bucket);
  static uint64_t bucketHigh(unsigned Bucket); ///< Exclusive.
  static unsigned numBuckets();

private:
  std::vector<uint64_t> Counts;
  uint64_t Finite = 0;
  uint64_t Infinite = 0;
};

/// Standard percentiles in parts per million (50, 90, 99, 99.9, 99.99).
inline constexpr uint32_t StandardPercentilesPpm[] = {500000, 900000,
                                                      990000, 999000,
                                                      999900};

/// \returns true when percentile \p Ppm (parts per million) of \p N
/// samples has at least ten samples beyond it.
bool percentileReportable(uint32_t Ppm, uint64_t N);

/// \returns the highest standard percentile (ppm) reportable for \p N
/// samples, or 0 when not even the median is.
uint32_t highestReportablePercentile(uint64_t N);

/// A percentile refused for too few samples is reported as NaN.
inline double refused() { return std::numeric_limits<double>::quiet_NaN(); }

/// \returns percentile \p Ppm of \p H, or refused() when the rule above
/// does not allow it.
double reportablePercentile(const Histogram &H, uint32_t Ppm);

/// A run's samples split into fixed windows by when each was taken.  A
/// timing is reported as the median over the windows of its per-window
/// percentile, so a host stall that lands in one window moves one window,
/// not the run's figure.
class WindowedHistogram {
public:
  WindowedHistogram(uint64_t Start, uint64_t WindowNanos, unsigned Windows);

  /// A sample taken at \p When (clamped into the first or last window).
  void record(uint64_t When, uint64_t Value) {
    Windows[windowOf(When)].record(Value);
  }
  void recordInfinite(uint64_t When) {
    Windows[windowOf(When)].recordInfinite();
  }
  /// Adds \p Other's windows to ours; the geometry must match.
  void merge(const WindowedHistogram &Other);

  unsigned windowOf(uint64_t When) const;
  unsigned windows() const { return static_cast<unsigned>(Windows.size()); }
  double windowSeconds() const { return static_cast<double>(Width) / 1e9; }
  /// Every window merged.
  Histogram total() const;

  /// The median over windows of percentile \p Ppm, counting only windows
  /// where the reporting rule allows it; refused() unless at least half
  /// the windows do.
  double medianPercentile(uint32_t Ppm) const;

private:
  uint64_t Start;
  uint64_t Width;
  std::vector<Histogram> Windows;
};

/// Open-loop accounting for one phase of session arrivals, windowed by
/// due time.
struct SessionTally {
  SessionTally(uint64_t Start, uint64_t WindowNanos, unsigned Windows)
      : Latency(Start, WindowNanos, Windows),
        WithinSloByWindow(Latency.windows(), 0) {}

  WindowedHistogram Latency;
  std::vector<uint64_t> WithinSloByWindow;
  uint64_t Completed = 0;
  uint64_t Shed = 0;

  /// A session due at \p DueNanos finished at \p EndNanos.  The start
  /// time is deliberately not an input: queueing counts.
  void completed(uint64_t DueNanos, uint64_t EndNanos, uint64_t SloNanos);
  /// A shed session: +infinity, due at \p DueNanos.
  void shed(uint64_t DueNanos);
  void merge(const SessionTally &Other);

  uint64_t offered() const { return Completed + Shed; }
  uint64_t withinSlo() const;
  /// Median over windows of the sessions due in the window that finished
  /// within the limit, per second.
  double goodputPerSecond() const;
};

/// \returns the median of \p Values (NaN when empty).
double median(std::vector<double> Values);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
