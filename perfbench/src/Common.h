//===- perfbench/src/Common.h - Helpers shared by the workloads -*- C++ -*-===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Workloads.h"

#include <string>

namespace perfbench {

/// Appends the median over windows of percentile \p Ppm of \p H
/// (nanoseconds) to \p Out as \p Name in \p Unit (divided by
/// \p UnitNanos), with its sample count.  When the ten-beyond rule
/// refuses a \p Required figure (an end-to-end metric) that is a failure
/// of \p M: a figure that cannot be stated must not pass as measured.
/// Other refusals are noted and reported as 0.
void addPercentile(Measurement &M, std::vector<Metric> &Out,
                   const std::string &Name, const WindowedHistogram &H,
                   uint32_t Ppm, double UnitNanos, const std::string &Unit,
                   bool Required);

/// Appends the median over windows of \p Counts[i] / \p Nanos[i] as a
/// per-second rate.
void addRate(Measurement &M, std::vector<Metric> &Out, const std::string &Name,
             const std::vector<double> &Counts,
             const std::vector<double> &Nanos, const std::string &Unit,
             const std::string &Note);

/// A measured phase split into Count windows of Nanos each.
struct WindowPlan {
  unsigned Count = 1;
  uint64_t Nanos = 1;
};
/// Splits \p Seconds into whole windows of about \p WindowSeconds.
WindowPlan planWindows(double Seconds, double WindowSeconds);

/// The "n=..; highest reportable pNN" note for a timing.
std::string sampleNote(const Histogram &H);

/// Records the median of \p SetupSeconds as setup_s.
void addSetup(Measurement &M, const std::vector<double> &SetupSeconds);

/// Adds peak_rss_mb.
void addPeakRss(Measurement &M);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
