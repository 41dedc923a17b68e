//===- perfbench/src/Stats.cpp - Benchmark statistics ---------------------===//

#include "Stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {

namespace {

constexpr unsigned ExactBuckets = 1u << Histogram::ExactLimitLog2;
constexpr unsigned SubBuckets = 1u << Histogram::SubBucketsLog2;
constexpr unsigned Octaves = Histogram::MaxLog2 - Histogram::ExactLimitLog2;

} // namespace

unsigned Histogram::numBuckets() { return ExactBuckets + Octaves * SubBuckets; }

unsigned Histogram::bucketOf(uint64_t Value) {
  if (Value < ExactBuckets)
    return static_cast<unsigned>(Value);
  unsigned Log2 = 63 - static_cast<unsigned>(std::countl_zero(Value));
  if (Log2 >= MaxLog2)
    return numBuckets() - 1;
  unsigned Shift = Log2 - SubBucketsLog2;
  unsigned Sub = static_cast<unsigned>(Value >> Shift) - SubBuckets;
  return ExactBuckets + (Log2 - ExactLimitLog2) * SubBuckets + Sub;
}

uint64_t Histogram::bucketLow(unsigned Bucket) {
  if (Bucket < ExactBuckets)
    return Bucket;
  unsigned Octave = (Bucket - ExactBuckets) / SubBuckets;
  unsigned Sub = (Bucket - ExactBuckets) % SubBuckets;
  unsigned Shift = Octave + ExactLimitLog2 - SubBucketsLog2;
  return static_cast<uint64_t>(SubBuckets + Sub) << Shift;
}

uint64_t Histogram::bucketHigh(unsigned Bucket) {
  if (Bucket < ExactBuckets)
    return Bucket + 1;
  unsigned Octave = (Bucket - ExactBuckets) / SubBuckets;
  unsigned Shift = Octave + ExactLimitLog2 - SubBucketsLog2;
  return bucketLow(Bucket) + (uint64_t(1) << Shift);
}

Histogram::Histogram() : Counts(numBuckets(), 0) {}

void Histogram::record(uint64_t Value) {
  ++Counts[bucketOf(Value)];
  ++Finite;
}

void Histogram::merge(const Histogram &Other) {
  for (size_t I = 0; I < Counts.size(); ++I)
    Counts[I] += Other.Counts[I];
  Finite += Other.Finite;
  Infinite += Other.Infinite;
}

double Histogram::quantile(double Q) const {
  uint64_t N = count();
  if (N == 0)
    return 0.0;
  double Rank = Q * static_cast<double>(N);
  if (Rank >= static_cast<double>(Finite))
    return std::numeric_limits<double>::infinity();
  uint64_t Below = 0;
  for (unsigned B = 0; B < Counts.size(); ++B) {
    uint64_t C = Counts[B];
    if (C == 0)
      continue;
    if (Rank < static_cast<double>(Below + C)) {
      double Low = static_cast<double>(bucketLow(B)) - 0.5;
      double Width = static_cast<double>(bucketHigh(B) - bucketLow(B));
      double Fraction = (Rank - static_cast<double>(Below)) /
                        static_cast<double>(C);
      return Low + Width * Fraction;
    }
    Below += C;
  }
  return static_cast<double>(bucketHigh(numBuckets() - 1));
}

bool percentileReportable(uint32_t Ppm, uint64_t N) {
  // N * (1 - Ppm/1e6) >= 10, in integers so p99 at exactly 1000 samples
  // is not lost to rounding.
  return static_cast<unsigned __int128>(N) * (1000000u - Ppm) >=
         static_cast<unsigned __int128>(10) * 1000000u;
}

uint32_t highestReportablePercentile(uint64_t N) {
  uint32_t Best = 0;
  for (uint32_t Ppm : StandardPercentilesPpm)
    if (percentileReportable(Ppm, N))
      Best = Ppm;
  return Best;
}

double reportablePercentile(const Histogram &H, uint32_t Ppm) {
  if (!percentileReportable(Ppm, H.count()))
    return refused();
  return H.quantile(static_cast<double>(Ppm) / 1e6);
}

WindowedHistogram::WindowedHistogram(uint64_t Start, uint64_t WindowNanos,
                                     unsigned Windows)
    : Start(Start), Width(WindowNanos == 0 ? 1 : WindowNanos),
      Windows(Windows == 0 ? 1 : Windows) {}

unsigned WindowedHistogram::windowOf(uint64_t When) const {
  uint64_t Index = When > Start ? (When - Start) / Width : 0;
  return static_cast<unsigned>(
      std::min<uint64_t>(Index, Windows.size() - 1));
}

void WindowedHistogram::merge(const WindowedHistogram &Other) {
  for (size_t I = 0; I < Windows.size() && I < Other.Windows.size(); ++I)
    Windows[I].merge(Other.Windows[I]);
}

Histogram WindowedHistogram::total() const {
  Histogram All;
  for (const Histogram &W : Windows)
    All.merge(W);
  return All;
}

double WindowedHistogram::medianPercentile(uint32_t Ppm) const {
  std::vector<double> Values;
  for (const Histogram &W : Windows)
    if (percentileReportable(Ppm, W.count()))
      Values.push_back(W.quantile(static_cast<double>(Ppm) / 1e6));
  if (Values.empty() || Values.size() * 2 < Windows.size())
    return refused();
  return median(std::move(Values));
}

void SessionTally::completed(uint64_t DueNanos, uint64_t EndNanos,
                             uint64_t SloNanos) {
  uint64_t Nanos = EndNanos > DueNanos ? EndNanos - DueNanos : 0;
  Latency.record(DueNanos, Nanos);
  ++Completed;
  if (Nanos <= SloNanos)
    ++WithinSloByWindow[Latency.windowOf(DueNanos)];
}

void SessionTally::shed(uint64_t DueNanos) {
  Latency.recordInfinite(DueNanos);
  ++Shed;
}

void SessionTally::merge(const SessionTally &Other) {
  Latency.merge(Other.Latency);
  for (size_t I = 0; I < WithinSloByWindow.size(); ++I)
    WithinSloByWindow[I] += Other.WithinSloByWindow[I];
  Completed += Other.Completed;
  Shed += Other.Shed;
}

uint64_t SessionTally::withinSlo() const {
  uint64_t Sum = 0;
  for (uint64_t N : WithinSloByWindow)
    Sum += N;
  return Sum;
}

double SessionTally::goodputPerSecond() const {
  std::vector<double> Rates;
  for (uint64_t N : WithinSloByWindow)
    Rates.push_back(static_cast<double>(N) / Latency.windowSeconds());
  return median(std::move(Rates));
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return std::nan("");
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 == 1 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

} // namespace perfbench
