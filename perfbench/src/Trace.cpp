//===- perfbench/src/Trace.cpp - Benchmark-side span recorder -------------===//

#include "Trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

constinit thread_local ThreadProbe Probe;

const char *spanName(SpanKind Kind) {
  switch (Kind) {
  case SpanKind::CoreLock:
    return "core.lock";
  case SpanKind::CoreUnlock:
    return "core.unlock";
  case SpanKind::CoreTryLock:
    return "core.trylock";
  case SpanKind::FatInflateHint:
    return "fatlock.inflate_hint";
  case SpanKind::ParkWait:
    return "park.wait";
  case SpanKind::ParkNotify:
    return "park.notify";
  case SpanKind::HeapAllocate:
    return "heap.allocate";
  case SpanKind::ThreadsAttach:
    return "threads.attach";
  case SpanKind::ThreadsDetach:
    return "threads.detach";
  case SpanKind::TxnExecute:
    return "txn.execute";
  case SpanKind::LoadAdmit:
    return "load.admit";
  case SpanKind::LoadTick:
    return "load.tick";
  case SpanKind::Session:
    return "load.session";
  case SpanKind::ReplayPass:
    return "replay.pass";
  }
  return "?";
}

void KindStats::merge(const KindStats &Other) {
  Calls += Other.Calls;
  Failures += Other.Failures;
  Timed += Other.Timed;
  TotalNanos += Other.TotalNanos;
  SelfNanos += Other.SelfNanos;
  Durations.merge(Other.Durations);
}

SpanRecorder::SpanRecorder(uint32_t Thread, size_t KeepLimit)
    : Thread(Thread), KeepLimit(KeepLimit) {
  Stack.reserve(16);
  Kept.reserve(KeepLimit);
}

void SpanRecorder::begin(SpanKind Kind, uint64_t Start, uint64_t Group) {
  uint32_t Parent = Span::NoParent;
  if (!Stack.empty()) {
    Parent = Stack.back().Slot;
    if (Group == 0)
      Group = Stack.back().Group;
  }
  uint32_t Slot = Span::NoParent;
  if (Kept.size() < KeepLimit) {
    Slot = static_cast<uint32_t>(Kept.size());
    Span S;
    S.Start = Start;
    S.Group = Group;
    S.Parent = Parent;
    S.Kind = Kind;
    Kept.push_back(S);
  }
  Stack.push_back(Open{Kind, Start, Group, 0, Slot});
}

void SpanRecorder::end(uint64_t End) {
  Open Top = Stack.back();
  Stack.pop_back();
  uint64_t Duration = End > Top.Start ? End - Top.Start : 0;
  uint64_t Self = Duration > Top.ChildNanos ? Duration - Top.ChildNanos : 0;
  KindStats &S = Stats[index(Top.Kind)];
  ++S.Timed;
  S.TotalNanos += Duration;
  S.SelfNanos += Self;
  S.Durations.record(Duration);
  if (Top.Slot != Span::NoParent)
    Kept[Top.Slot].End = End;
  if (!Stack.empty())
    Stack.back().ChildNanos += Duration;
}

SpanRecorder &TraceSession::newRecorder() {
  std::lock_guard<std::mutex> Guard(Mu);
  Recorders.push_back(std::make_unique<SpanRecorder>(
      static_cast<uint32_t>(Recorders.size()), KeepPerThread));
  return *Recorders.back();
}

std::array<KindStats, NumSpanKinds> TraceSession::merged() const {
  std::lock_guard<std::mutex> Guard(Mu);
  std::array<KindStats, NumSpanKinds> All;
  for (const auto &Rec : Recorders)
    for (unsigned K = 0; K < NumSpanKinds; ++K)
      All[K].merge(Rec->stats(static_cast<SpanKind>(K)));
  return All;
}

bool TraceSession::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Guard(Mu);
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  uint64_t Origin = UINT64_MAX;
  for (const auto &Rec : Recorders)
    for (const Span &S : Rec->spans())
      Origin = S.Start < Origin ? S.Start : Origin;
  std::fputs("{\"traceEvents\":[", Out);
  bool First = true;
  for (const auto &Rec : Recorders) {
    const std::vector<Span> &Spans = Rec->spans();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (S.End == 0)
        continue; // Still open when the run ended.
      std::fprintf(Out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%" PRIu32 ",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"group\":%" PRIu64
                   ",\"id\":%zu,\"parent\":%lld}}",
                   First ? "" : ",", spanName(S.Kind), Rec->thread(),
                   static_cast<double>(S.Start - Origin) / 1e3,
                   static_cast<double>(S.End - S.Start) / 1e3, S.Group, I,
                   S.Parent == Span::NoParent
                       ? -1LL
                       : static_cast<long long>(S.Parent));
      First = false;
    }
  }
  std::fputs("\n]}\n", Out);
  return std::fclose(Out) == 0;
}

} // namespace perfbench
