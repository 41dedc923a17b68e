//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
///
/// \file
/// perfbench: the repository benchmark.  One process runs one workload
/// (or all three with --workload all), prints every metric by name with
/// its unit, runs every output check, and ends its standard output with
/// one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// --trace 0 measures the end-to-end metrics untraced.  --trace 1 runs
/// the same workload twice for half the time each, untraced and then
/// under the span recorder, and reports the per-layer metrics of the
/// traced half plus its overhead against the untraced half.
///
/// Exit status: 0 when every check passed, 1 when a check failed (the
/// JSON line still says what was measured), 2 for bad arguments or a
/// build that must not be measured.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/ProtocolRegistry.h"
#include "support/FailPoint.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <malloc.h>
#include <sched.h>
#include <string>
#include <thread>

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

using namespace perfbench;

namespace {

struct WorkloadInfo {
  const char *Name;
  Measurement (*Measure)(const RunConfig &, double, TraceSession *, unsigned);
  /// Set-ups timed per untraced run (cheap set-ups get more, so the
  /// median of a run is steady).
  unsigned SetupReps;
  /// Per-layer metric-name prefixes this workload must leave at zero.
  std::vector<std::string> PredictedZero;
};

const std::vector<WorkloadInfo> &workloads() {
  static const std::vector<WorkloadInfo> All = {
      {"replay", measureReplay, 5,
       {"fatlock.", "park.", "txn.", "load.", "core.trylock"}},
      {"sessions", measureSessions, 101, {"txn."}},
      {"txn", measureTxn, 5,
       {"park.wait_calls", "park.notify_calls", "fatlock.inflate_hint",
        "load."}},
  };
  return All;
}

unsigned availableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload replay|sessions|txn|all "
               "--seed N --seconds S --trace 0|1 --protocol NAME "
               "[--trace-out PATH]\n",
               Why);
  std::exit(2);
}

/// A JSON number with all its digits (shortest round-trip form).
std::string jsonNumber(double Value) {
  if (std::isnan(Value))
    Value = 0;
  if (std::isinf(Value))
    Value = Value > 0 ? std::numeric_limits<double>::max()
                      : std::numeric_limits<double>::lowest();
  char Buf[64];
  auto Result = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  return std::string(Buf, Result.ptr);
}

void printMetric(const std::string &Prefix, const Metric &M) {
  std::printf("metric %s%s = %s %s%s%s%s\n", Prefix.c_str(), M.Name.c_str(),
              jsonNumber(M.Value).c_str(), M.Unit.c_str(),
              M.Note.empty() ? "" : "  (", M.Note.c_str(),
              M.Note.empty() ? "" : ")");
}

struct Outcome {
  std::vector<std::pair<std::string, Metric>> Reported;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

void runOne(const WorkloadInfo &W, const RunConfig &Config, bool Traced,
            const std::string &TraceOut, const std::string &Prefix,
            Outcome &Out) {
  if (!Traced) {
    Measurement M = W.Measure(Config, Config.Seconds, nullptr, W.SetupReps);
    std::printf("# %s threads: %s\n", W.Name, M.Threads.c_str());
    for (const Metric &X : M.Detail)
      printMetric(Prefix, X);
    for (const Metric &X : M.EndToEnd) {
      printMetric(Prefix, X);
      Out.Reported.emplace_back(Prefix + X.Name, X);
    }
    Out.Failures.insert(Out.Failures.end(), M.Failures.begin(),
                        M.Failures.end());
    Out.Attempted += M.Attempted;
    Out.Failed += M.Failed;
    return;
  }

  double Half = Config.Seconds / 2;
  Measurement Plain = W.Measure(Config, Half, nullptr, 1);
  TraceSession Session;
  Measurement Spanned = W.Measure(Config, Half, &Session, 1);
  std::printf("# %s threads: %s\n", W.Name, Spanned.Threads.c_str());
  std::vector<Metric> Layers = layerMetrics(Spanned.Layers);
  double Overhead =
      Plain.HeadlineHigherIsBetter
          ? (Spanned.Headline == 0 ? 0 : Plain.Headline / Spanned.Headline - 1)
          : (Plain.Headline == 0 ? 0 : Spanned.Headline / Plain.Headline - 1);
  char Note[160];
  std::snprintf(Note, sizeof(Note),
                "headline untraced %s vs traced %s (%s is better)",
                jsonNumber(Plain.Headline).c_str(),
                jsonNumber(Spanned.Headline).c_str(),
                Plain.HeadlineHigherIsBetter ? "higher" : "lower");
  Layers.push_back({"trace.overhead_ratio", Overhead, "ratio", Note});
  for (const Metric &X : Layers) {
    printMetric(Prefix, X);
    Out.Reported.emplace_back(Prefix + X.Name, X);
    for (const std::string &Zero : W.PredictedZero)
      if (X.Name.compare(0, Zero.size(), Zero) == 0 && X.Value != 0)
        Out.Failures.push_back(std::string(W.Name) + ": predicted zero " +
                               X.Name + " is " + jsonNumber(X.Value));
  }
  for (const Measurement *M : {&Plain, &Spanned}) {
    Out.Failures.insert(Out.Failures.end(), M->Failures.begin(),
                        M->Failures.end());
    Out.Attempted += M->Attempted;
    Out.Failed += M->Failed;
  }
  if (!TraceOut.empty()) {
    if (Session.writeChromeTrace(TraceOut))
      std::printf("# spans written to %s\n", TraceOut.c_str());
    else
      Out.Failures.push_back("could not write " + TraceOut);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, Protocol, TraceOut;
  const char *Seed = nullptr, *Seconds = nullptr, *Trace = nullptr;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    if (Arg == "--workload")
      WorkloadName = Value;
    else if (Arg == "--seed")
      Seed = Value;
    else if (Arg == "--seconds")
      Seconds = Value;
    else if (Arg == "--trace")
      Trace = Value;
    else if (Arg == "--protocol")
      Protocol = Value;
    else if (Arg == "--trace-out")
      TraceOut = Value;
    else
      usage(("unknown argument " + Arg).c_str());
  }
  if (WorkloadName.empty() || !Seed || !Seconds || !Trace || Protocol.empty())
    usage("--workload, --seed, --seconds, --trace and --protocol are "
          "all required");

  RunConfig Config;
  char *End = nullptr;
  Config.Seed = std::strtoull(Seed, &End, 10);
  if (*Seed == '\0' || *End != '\0')
    usage("--seed must be a whole number");
  Config.Seconds = std::strtod(Seconds, &End);
  if (*End != '\0' || !(Config.Seconds > 0) || Config.Seconds > 600)
    usage("--seconds must be in (0, 600]");
  if (std::strcmp(Trace, "0") != 0 && std::strcmp(Trace, "1") != 0)
    usage("--trace must be 0 or 1");
  bool Traced = Trace[0] == '1';
  if (!thinlocks::isRegisteredProtocol(Protocol))
    usage(("unknown protocol " + Protocol).c_str());
  Config.Protocol = Protocol;
  Config.Nproc = availableCpus();

  // Pin what is measured: never numbers from a build with asserts or
  // with failpoint sites compiled in.
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build without "
                       "NDEBUG (flags: " PERFBENCH_BUILD_FLAGS ")\n");
  return 2;
#endif
  if (thinlocks::failpoint::compiledIn()) {
    std::fprintf(stderr, "perfbench: refusing to measure a build with "
                         "failpoints compiled in\n");
    return 2;
  }

  // Keep freed memory in the process: replay builds and drops a heap per
  // pass, and returning those pages to the kernel would make every pass
  // pay page faults, whose cost the host decides, not the library.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  std::vector<const WorkloadInfo *> Selected;
  for (const WorkloadInfo &W : workloads())
    if (WorkloadName == "all" || WorkloadName == W.Name)
      Selected.push_back(&W);
  if (Selected.empty())
    usage(("unknown workload " + WorkloadName).c_str());

  std::printf("# perfbench workload=%s protocol=%s build=\"%s\" "
              "failpoints=off adaptive_policy=off nproc=%u seed=%" PRIu64
              " seconds=%s trace=%d\n",
              WorkloadName.c_str(), Protocol.c_str(), PERFBENCH_BUILD_FLAGS,
              Config.Nproc, Config.Seed, jsonNumber(Config.Seconds).c_str(),
              Traced ? 1 : 0);

  Outcome Out;
  for (const WorkloadInfo *W : Selected) {
    std::string Prefix = Selected.size() > 1 ? std::string(W->Name) + "." : "";
    std::string Path = TraceOut;
    if (!Path.empty() && Selected.size() > 1)
      Path += std::string(".") + W->Name;
    runOne(*W, Config, Traced, Path, Prefix, Out);
    std::fflush(stdout);
  }

  for (const std::string &F : Out.Failures)
    std::printf("check FAILED: %s\n", F.c_str());
  if (Out.Failures.empty())
    std::printf("check all output checks passed\n");

  std::string Json = "{\"correct\": ";
  Json += Out.Failures.empty() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Out.Reported.size(); ++I) {
    const auto &[Name, M] = Out.Reported[I];
    Json += (I ? ", \"" : "\"") + Name + "\": {\"value\": " +
            jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Out.Failures.empty() ? 0 : 1;
}
