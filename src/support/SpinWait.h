//===- support/SpinWait.h - Bounded escalation-ladder backoff --*- C++ -*-===//
///
/// \file
/// Spin-wait policy used while a contending thread waits for a thin lock's
/// owner to release it (paper §2.3.4).  The paper notes that "standard
/// back-off techniques [Anderson 1990] for reducing the cost of
/// spin-locking can be applied"; this class implements a three-rung
/// escalation ladder:
///
///   pause  — truncated exponential batches of CPU pause instructions;
///   yield  — every round past YieldThresholdRound also yields the CPU
///            (the evaluation host, like the paper's RS/6000 43T, is a
///            uniprocessor: spinning without yielding would livelock
///            against the lock owner);
///   park   — every round past ParkThresholdRound sleeps for an
///            exponentially growing, capped interval, so a thread stuck
///            behind a descheduled (or deadlocked) owner stops burning
///            CPU and the caller gets cheap, bounded-frequency points at
///            which to run watchdog checks (see ThinLockImpl's deadlock
///            detection).
///
/// The rung boundaries and park interval are configurable via SpinPolicy;
/// the defaults preserve the pause/yield behaviour the benchmarks were
/// tuned on and add parking only after ~a dozen failed rounds.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_SPINWAIT_H
#define THINLOCKS_SUPPORT_SPINWAIT_H

#include "support/FailPoint.h"

#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace thinlocks {

/// Executes one CPU-level pause; a hint to SMT siblings and the memory
/// system that this is a spin loop.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  // Fallback: a compiler barrier so the loop is not collapsed.
  asm volatile("" ::: "memory");
#endif
}

/// Tunable rung boundaries for the SpinWait escalation ladder.
struct SpinPolicy {
  /// Number of doubling rounds of pure pause-spinning before every
  /// further round also yields the processor.
  unsigned YieldThresholdRound = 4;
  /// Rounds before every further round also parks (sleeps).  Must be
  /// >= YieldThresholdRound.
  unsigned ParkThresholdRound = 12;
  /// Cap on the per-round pause count (truncation of the exponential).
  unsigned MaxPausesPerRound = 64;
  /// First park interval; doubles per parking round up to MaxParkNanos.
  uint64_t MinParkNanos = 50 * 1000;        // 50us
  uint64_t MaxParkNanos = 2 * 1000 * 1000;  // 2ms
};

/// The one default ladder every thin-lock contention path escalates on
/// (lockSlow, tryLock's fat-Retired retry, tryLockFor).  Tuning the
/// ladder means editing this policy, not hunting per-call-site copies.
inline constexpr SpinPolicy DefaultSpinPolicy{};

/// Truncated exponential backoff with yield and park escalation.  Call
/// spinOnce() each time the guarded condition is observed false.
class SpinWait {
  SpinPolicy Policy;
  unsigned Round = 0;
  uint64_t Spins = 0;
  uint64_t Yields = 0;
  uint64_t Parks = 0;

public:
  /// Historical aliases kept for tests and callers tuned to defaults.
  static constexpr unsigned YieldThresholdRound = 4;
  static constexpr unsigned MaxPausesPerRound = 64;

  SpinWait() = default;
  explicit SpinWait(const SpinPolicy &Policy) : Policy(Policy) {}

  /// Runs the pause/yield portion of one backoff round and advances the
  /// ladder.  \returns 0 while on the pause/yield rungs, or the length
  /// (nanoseconds) of this round's park once the ladder has escalated to
  /// its park rung — the *caller* owns the sleep, so a blind
  /// `sleep_for` and a wakeable deadline-park in the ParkingLot (see
  /// ThinLockImpl::lockSlow) share one ladder.
  uint64_t nextRound() {
    if (TL_FAILPOINT(SpinWaitPreempt)) {
      // Injected preemption: model the scheduler seizing the CPU in the
      // middle of a backoff round (the adverse schedule that motivates
      // the ladder's park rung).
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++Yields;
    }
    unsigned Pauses = 1u << (Round < 6 ? Round : 6);
    if (Pauses > Policy.MaxPausesPerRound)
      Pauses = Policy.MaxPausesPerRound;
    for (unsigned I = 0; I < Pauses; ++I)
      cpuRelax();
    Spins += Pauses;
    uint64_t ParkNanos = 0;
    if (Round >= Policy.ParkThresholdRound) {
      ParkNanos = Policy.MinParkNanos;
      unsigned Doublings = Round - Policy.ParkThresholdRound;
      // Saturate instead of shifting past 63 bits.
      for (unsigned I = 0; I < Doublings && ParkNanos < Policy.MaxParkNanos;
           ++I)
        ParkNanos *= 2;
      if (ParkNanos > Policy.MaxParkNanos)
        ParkNanos = Policy.MaxParkNanos;
      ++Parks;
    } else if (Round >= Policy.YieldThresholdRound) {
      std::this_thread::yield();
      ++Yields;
    }
    ++Round;
    return ParkNanos;
  }

  /// Performs one backoff step, sleeping out the park rung in place.
  void spinOnce() {
    if (uint64_t ParkNanos = nextRound())
      std::this_thread::sleep_for(std::chrono::nanoseconds(ParkNanos));
  }

  /// Resets the policy after a successful acquisition.
  void reset() { Round = 0; }

  /// \returns true once the ladder has escalated to its park rung — the
  /// natural cadence for callers to run deadlock / watchdog checks.
  bool isParking() const { return Round > Policy.ParkThresholdRound; }

  /// \returns the total pause iterations executed (for tests/stats).
  uint64_t totalSpins() const { return Spins; }

  /// \returns the total scheduler yields executed (for tests/stats).
  uint64_t totalYields() const { return Yields; }

  /// \returns the total timed sleeps executed (for tests/stats).
  uint64_t totalParks() const { return Parks; }
};

} // namespace thinlocks

#endif // THINLOCKS_SUPPORT_SPINWAIT_H
