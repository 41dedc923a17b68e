//===- support/Timer.h - Monotonic timing helpers --------------*- C++ -*-===//
///
/// \file
/// Thin wrappers over the steady clock.  The paper reports elapsed time of
/// the median of 10 runs; MedianTimer implements that discipline for the
/// hand-rolled harness parts that do not go through google-benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_TIMER_H
#define THINLOCKS_SUPPORT_TIMER_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace thinlocks {

/// \returns nanoseconds from an arbitrary, monotonically increasing origin.
inline uint64_t monotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \returns the steady-clock instant \p Nanos from now.  Saturates at
/// time_point::max() instead of overflowing, so a huge timeout means
/// "no deadline" rather than wrapping into the past; a non-positive
/// \p Nanos yields an instant that has already passed.
inline std::chrono::steady_clock::time_point deadlineAfter(int64_t Nanos) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Now = Clock::now();
  const auto Room = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::time_point::max() - Now);
  if (Nanos >= Room.count())
    return Clock::time_point::max();
  return Now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::nanoseconds(Nanos));
}

/// Measures one interval from construction to stop().
class StopWatch {
  uint64_t StartNanos;

public:
  StopWatch() : StartNanos(monotonicNanos()) {}

  /// \returns nanoseconds elapsed since construction or the last restart().
  uint64_t elapsedNanos() const { return monotonicNanos() - StartNanos; }

  void restart() { StartNanos = monotonicNanos(); }
};

/// Runs a callable \p Samples times and reports the median elapsed time,
/// mirroring the paper's "median of 10 sample runs" methodology.
template <typename Fn>
uint64_t medianElapsedNanos(unsigned Samples, Fn &&Body) {
  std::vector<uint64_t> Times;
  Times.reserve(Samples);
  for (unsigned I = 0; I < Samples; ++I) {
    StopWatch Watch;
    Body();
    Times.push_back(Watch.elapsedNanos());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

} // namespace thinlocks

#endif // THINLOCKS_SUPPORT_TIMER_H
