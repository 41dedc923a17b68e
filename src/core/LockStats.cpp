//===- core/LockStats.cpp - Lock operation characterization ---------------===//

#include "core/LockStats.h"

#include <cstdio>

using namespace thinlocks;

namespace {

/// Saturating subtraction: a raw counter read concurrently with
/// recording can lag the baseline captured a moment later, so clamp at
/// zero instead of wrapping to ~2^64.
uint64_t minus(uint64_t Raw, uint64_t Base) {
  return Raw >= Base ? Raw - Base : 0;
}

} // namespace

LockStats::Snapshot LockStats::rawSnapshot() const {
  Snapshot S;
  S.FastPath = FastPathAcquires.value();
  // Fast-path acquires are depth-1 by construction; fold them into
  // bucket 0 so the buckets (and their sum) cover every acquisition.
  S.DepthBuckets[0] = S.FastPath;
  for (unsigned Bucket = 0; Bucket < NumDepthBuckets; ++Bucket) {
    S.DepthBuckets[Bucket] += DepthBuckets[Bucket].value();
    S.Acquisitions += S.DepthBuckets[Bucket];
  }
  S.Releases = Releases.value();
  S.FatPath = FatPath.value();
  S.SpinIterations = SpinIterations.value();
  S.ContentionInflations = ContentionInflations.value();
  S.OverflowInflations = OverflowInflations.value();
  S.WaitInflations = WaitInflations.value();
  S.HintInflations = HintInflations.value();
  S.Deflations = Deflations.value();
  S.EmergencyInflations = EmergencyInflations.value();
  S.TimedOutAcquisitions = TimedOutAcquisitions.value();
  S.DeadlocksDetected = DeadlocksDetected.value();
  for (unsigned Bucket = 0; Bucket < NumWakeBuckets; ++Bucket) {
    S.WakeBuckets[Bucket] = WakeBuckets[Bucket].value();
    S.Wakes += S.WakeBuckets[Bucket];
  }
  S.WakeNanosTotal = WakeNanosTotal.value();
  S.WakeNanosMax = WakeNanosMax.load(std::memory_order_relaxed);
  return S;
}

LockStats::Snapshot LockStats::snapshot() const {
  Snapshot S = rawSnapshot();
  LockGuard Guard(BaselineMutex);
  S.Acquisitions = minus(S.Acquisitions, Baseline.Acquisitions);
  S.Releases = minus(S.Releases, Baseline.Releases);
  S.FastPath = minus(S.FastPath, Baseline.FastPath);
  S.FatPath = minus(S.FatPath, Baseline.FatPath);
  S.SpinIterations = minus(S.SpinIterations, Baseline.SpinIterations);
  S.ContentionInflations =
      minus(S.ContentionInflations, Baseline.ContentionInflations);
  S.OverflowInflations =
      minus(S.OverflowInflations, Baseline.OverflowInflations);
  S.WaitInflations = minus(S.WaitInflations, Baseline.WaitInflations);
  S.HintInflations = minus(S.HintInflations, Baseline.HintInflations);
  S.Deflations = minus(S.Deflations, Baseline.Deflations);
  S.EmergencyInflations =
      minus(S.EmergencyInflations, Baseline.EmergencyInflations);
  S.TimedOutAcquisitions =
      minus(S.TimedOutAcquisitions, Baseline.TimedOutAcquisitions);
  S.DeadlocksDetected =
      minus(S.DeadlocksDetected, Baseline.DeadlocksDetected);
  for (unsigned Bucket = 0; Bucket < NumDepthBuckets; ++Bucket)
    S.DepthBuckets[Bucket] =
        minus(S.DepthBuckets[Bucket], Baseline.DepthBuckets[Bucket]);
  for (unsigned Bucket = 0; Bucket < NumWakeBuckets; ++Bucket)
    S.WakeBuckets[Bucket] =
        minus(S.WakeBuckets[Bucket], Baseline.WakeBuckets[Bucket]);
  S.Wakes = minus(S.Wakes, Baseline.Wakes);
  S.WakeNanosTotal = minus(S.WakeNanosTotal, Baseline.WakeNanosTotal);
  // WakeNanosMax is a high-water mark, not a sum; it was re-zeroed at
  // reset() time so the raw value already reflects this epoch.
  return S;
}

double LockStats::Snapshot::depthFraction(unsigned Bucket) const {
  if (Acquisitions == 0)
    return 0.0;
  return static_cast<double>(DepthBuckets[Bucket]) /
         static_cast<double>(Acquisitions);
}

double LockStats::depthFraction(unsigned Bucket) const {
  return snapshot().depthFraction(Bucket);
}

void LockStats::reset() {
  // Epoch reset: never zero the live stripes (concurrent snapshots
  // would mix pre- and post-wipe stripe values); just move the
  // baseline forward.  See the header comment on reset().
  Snapshot Raw = rawSnapshot();
  LockGuard Guard(BaselineMutex);
  Baseline = Raw;
  WakeNanosMax.store(0, std::memory_order_relaxed);
}

std::string LockStats::summary() const {
  Snapshot S = snapshot();
  char Buffer[512];
  std::snprintf(
      Buffer, sizeof(Buffer),
      "locks=%llu unlocks=%llu fast=%llu fat=%llu spins=%llu\n"
      "inflations: contention=%llu overflow=%llu wait=%llu hint=%llu "
      "emergency=%llu deflations=%llu\n"
      "degraded: timeouts=%llu deadlocks=%llu\n"
      "depth: first=%.1f%% second=%.1f%% third=%.1f%% fourth+=%.1f%%\n"
      "wake: count=%llu avg=%.1fus max=%.1fus\n",
      static_cast<unsigned long long>(S.Acquisitions),
      static_cast<unsigned long long>(S.Releases),
      static_cast<unsigned long long>(S.FastPath),
      static_cast<unsigned long long>(S.FatPath),
      static_cast<unsigned long long>(S.SpinIterations),
      static_cast<unsigned long long>(S.ContentionInflations),
      static_cast<unsigned long long>(S.OverflowInflations),
      static_cast<unsigned long long>(S.WaitInflations),
      static_cast<unsigned long long>(S.HintInflations),
      static_cast<unsigned long long>(S.EmergencyInflations),
      static_cast<unsigned long long>(S.Deflations),
      static_cast<unsigned long long>(S.TimedOutAcquisitions),
      static_cast<unsigned long long>(S.DeadlocksDetected),
      S.depthFraction(0) * 100.0, S.depthFraction(1) * 100.0,
      S.depthFraction(2) * 100.0, S.depthFraction(3) * 100.0,
      static_cast<unsigned long long>(S.Wakes),
      static_cast<double>(S.avgWakeNanos()) / 1000.0,
      static_cast<double>(S.WakeNanosMax) / 1000.0);
  return Buffer;
}
