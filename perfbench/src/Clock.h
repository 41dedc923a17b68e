//===- perfbench/src/Clock.h - Benchmark clock -----------------*- C++ -*-===//

#ifndef PERFBENCH_CLOCK_H
#define PERFBENCH_CLOCK_H

#include <chrono>
#include <cstdint>

namespace perfbench {

/// Monotonic nanoseconds from the benchmark's own clock.
inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace perfbench

#endif // PERFBENCH_CLOCK_H
