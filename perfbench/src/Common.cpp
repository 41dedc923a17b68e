//===- perfbench/src/Common.cpp - Helpers shared by the workloads ---------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

std::string sampleNote(const Histogram &H) {
  char Buf[96];
  uint32_t Best = highestReportablePercentile(H.count());
  std::snprintf(Buf, sizeof(Buf), "n=%llu, highest reportable p%g",
                static_cast<unsigned long long>(H.count()),
                static_cast<double>(Best) / 1e4);
  return Buf;
}

void addPercentile(Measurement &M, std::vector<Metric> &Out,
                   const std::string &Name, const WindowedHistogram &H,
                   uint32_t Ppm, double UnitNanos, const std::string &Unit,
                   bool Required) {
  double Value = H.medianPercentile(Ppm);
  Histogram Total = H.total();
  char Windows[64];
  std::snprintf(Windows, sizeof(Windows), "; median of %u windows of %gs",
                H.windows(), H.windowSeconds());
  std::string Note = sampleNote(Total) + Windows;
  if (std::isnan(Value)) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%s refused: %llu samples in %u windows leave fewer than "
                  "10 beyond it in most windows",
                  Name.c_str(), static_cast<unsigned long long>(Total.count()),
                  H.windows());
    if (Required)
      M.Failures.push_back(Buf);
    Note += "; refused, reported as 0";
    Value = 0;
  }
  Out.push_back({Name, Value / UnitNanos, Unit, Note});
}

void addRate(Measurement &M, std::vector<Metric> &Out, const std::string &Name,
             const std::vector<double> &Counts,
             const std::vector<double> &Nanos, const std::string &Unit,
             const std::string &Note) {
  std::vector<double> Rates;
  for (size_t I = 0; I < Counts.size() && I < Nanos.size(); ++I)
    if (Nanos[I] > 0)
      Rates.push_back(Counts[I] * 1e9 / Nanos[I]);
  std::vector<double> Sorted = Rates;
  std::sort(Sorted.begin(), Sorted.end());
  double Value = median(Rates);
  if (std::isnan(Value)) {
    M.Failures.push_back(Name + ": no window measured");
    Value = 0;
  }
  char Windows[128];
  std::snprintf(Windows, sizeof(Windows),
                "; median of %zu windows, which ranged %.6g..%.6g",
                Rates.size(), Rates.empty() ? 0.0 : Sorted.front(),
                Rates.empty() ? 0.0 : Sorted.back());
  Out.push_back({Name, Value, Unit, Note + Windows});
}

WindowPlan planWindows(double Seconds, double WindowSeconds) {
  WindowPlan Plan;
  Plan.Count = static_cast<unsigned>(
      std::max(1.0, std::round(Seconds / WindowSeconds)));
  Plan.Nanos = static_cast<uint64_t>(Seconds * 1e9 / Plan.Count);
  return Plan;
}

void addSetup(Measurement &M, const std::vector<double> &SetupSeconds) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "median of %zu set-ups",
                SetupSeconds.size());
  M.EndToEnd.push_back({"setup_s", median(SetupSeconds), "s", Buf});
}

void addPeakRss(Measurement &M) {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  M.EndToEnd.push_back({"peak_rss_mb",
                        static_cast<double>(Usage.ru_maxrss) / 1024.0, "MB",
                        "ru_maxrss"});
}

} // namespace perfbench
