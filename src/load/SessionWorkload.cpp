//===- load/SessionWorkload.cpp - Session-scoped soak workload ------------===//

#include "load/SessionWorkload.h"

#include "heap/Heap.h"
#include "support/Timer.h"

#include <algorithm>

using namespace thinlocks;
using namespace thinlocks::load;

namespace {

// The session shape.
constexpr uint32_t LightRequests = 24;
constexpr uint32_t HeavyRequests = 10;
/// Private objects a heavy session allocates and inflates.
constexpr uint32_t HeavyPrivateObjects = 3;
/// Busy-think inside each critical section (the served "request").
constexpr uint64_t ThinkNanos = 1500;
/// Heavy sessions' Object.wait timeout (each wait inflates).
constexpr int64_t WaitTimeoutNanos = 2000;
/// One request in this many nests recursively on its hot object.
constexpr uint32_t NestOneIn = 4;
/// Heavy sessions park on the shared rendezvous object for up to this
/// long; light sessions notifyAll it (one in NotifyOneIn requests), so
/// sustained load produces genuine directed wakes — the unpark-to-resume
/// latency behind the SLO's time-to-wake quantiles.  Waits that draw no
/// notify in time bound the stall at this timeout.
constexpr int64_t RendezvousTimeoutNanos = 1'000'000;
constexpr uint32_t NotifyOneIn = 6;

/// Busy-think standing in for request service time.  Spinning (not
/// sleeping) keeps sub-10µs think times honest on a 1-CPU host, where a
/// sleep's wakeup quantum would dwarf the think itself.
void thinkFor(uint64_t Nanos) {
  if (Nanos == 0)
    return;
  uint64_t Deadline = monotonicNanos() + Nanos;
  while (monotonicNanos() < Deadline) {
  }
}

} // namespace

SessionWorkload::SessionWorkload(SyncBackend &Sync, Heap &TheHeap,
                                 ThreadRegistry &Registry, size_t HotObjects,
                                 double ZipfTheta)
    : Sync(Sync), TheHeap(TheHeap), Registry(Registry),
      Popularity(std::max<size_t>(HotObjects, 1), ZipfTheta) {
  HotClass = &TheHeap.classes().registerClass("SoakHot", 2);
  PrivateClass = &TheHeap.classes().registerClass("SoakPrivate", 1);
  Hot.reserve(Popularity.universe());
  for (size_t I = 0; I < Popularity.universe(); ++I)
    Hot.push_back(TheHeap.allocate(*HotClass));
  Rendezvous = TheHeap.allocate(*HotClass);
}

void SessionWorkload::lightRequest(const ThreadContext &Ctx,
                                   SplitMix64 &Rng, SessionOutcome &Out,
                                   LatencyHistogram &AcquireHist) {
  Object *Obj = Hot[Popularity.sample(Rng)];
  bool Nest = Rng.nextBounded(NestOneIn) == 0;
  StopWatch Watch;
  Sync.lock(Obj, Ctx);
  uint64_t AcquireNanos = Watch.elapsedNanos();
  AcquireHist.record(AcquireNanos);
  Out.MaxAcquireNanos = std::max(Out.MaxAcquireNanos, AcquireNanos);
  if (Nest) {
    // Exercise the paper's §2.3.3 inline-nesting path under load.
    Sync.lock(Obj, Ctx);
    thinkFor(ThinkNanos / 2);
    Sync.unlock(Obj, Ctx);
    thinkFor(ThinkNanos / 2);
  } else {
    thinkFor(ThinkNanos);
  }
  Sync.unlock(Obj, Ctx);
  if (Rng.nextBounded(NotifyOneIn) == 0) {
    // Release any heavy sessions parked at the rendezvous: the directed
    // unpark behind the time-to-wake quantiles.
    Sync.lock(Rendezvous, Ctx);
    Sync.notifyAll(Rendezvous, Ctx);
    Sync.unlock(Rendezvous, Ctx);
  }
  ++Out.Requests;
}

SessionOutcome SessionWorkload::run(const ThreadContext &Worker,
                                    SplitMix64 &Rng, bool Heavy,
                                    bool Degraded,
                                    LatencyHistogram &AcquireHist) {
  SessionOutcome Out;
  if (!Heavy || Degraded) {
    // Light shape — including heavy sessions admitted degraded: same
    // request volume, zero monitor allocations (the EmergencyOnly
    // contract).
    uint32_t N = Heavy ? HeavyRequests : LightRequests;
    for (uint32_t I = 0; I < N; ++I)
      lightRequest(Worker, Rng, Out, AcquireHist);
    return Out;
  }

  // Heavy shape.  First consume a registry slot the way a real tenant
  // thread would: an ephemeral attach.  Under the
  // `threadregistry.exhausted` failpoint (or a genuinely full registry)
  // this yields the typed AttachError and the session degrades to the
  // worker's identity instead of failing — the error feeds admission
  // control through the registry's exhaustion counter.
  AttachError Error = AttachError::None;
  ThreadContext Ephemeral = Registry.attach("soak-session", &Error);
  const ThreadContext &Ctx = Ephemeral.isValid() ? Ephemeral : Worker;
  Out.AttachFallback = !Ephemeral.isValid();

  // Inflation-heavy phase: private objects driven onto their fat-lock
  // representation, each costing one MonitorTable::allocate().  A
  // wait-timeout inflates per the paper (only fat locks have wait
  // queues); the hint inflations model pre-inflated shared structures.
  for (uint32_t I = 0; I < HeavyPrivateObjects; ++I) {
    Object *Priv = TheHeap.allocate(*PrivateClass);
    StopWatch Watch;
    Sync.lock(Priv, Ctx);
    uint64_t AcquireNanos = Watch.elapsedNanos();
    AcquireHist.record(AcquireNanos);
    Out.MaxAcquireNanos = std::max(Out.MaxAcquireNanos, AcquireNanos);
    if (I == 0 || !Sync.inflateHint(Priv, Ctx)) {
      // Either the deliberate wait-timeout inflation, or the portable
      // fallback for protocols without an inflation notion: a short
      // timed wait exercises the same wait-queue machinery.
      Sync.wait(Priv, Ctx, WaitTimeoutNanos);
    }
    Sync.unlock(Priv, Ctx);
    ++Out.Requests;
  }

  // Park at the shared rendezvous until a light session notifies (or the
  // bounded timeout).  A notified wake is a real blocked-park unpark, so
  // this is what populates the Wake histogram under load.
  Sync.lock(Rendezvous, Ctx);
  Sync.wait(Rendezvous, Ctx, RendezvousTimeoutNanos);
  Sync.unlock(Rendezvous, Ctx);

  // Then serve its requests against the shared hot set like any tenant.
  for (uint32_t I = 0; I < HeavyRequests; ++I)
    lightRequest(Ctx, Rng, Out, AcquireHist);

  if (Ephemeral.isValid())
    Registry.detach(Ephemeral);
  return Out;
}
