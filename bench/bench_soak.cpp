//===- bench/bench_soak.cpp - Sustained-load soak driver ------------------===//
//
// The long-running robustness harness (DESIGN.md §12): open-loop session
// load over the thin-lock substrate with SLO tracking, admission
// control, and graceful overload degradation.  Sized by *arrival rate*
// (not thread count) so the 1-CPU CI host and a real soak box run the
// same program at different --rate/--duration-s.
//
// Modes:
//   default        sustained load, no fault injection.
//   --chaos        additionally runs the seeded failpoint schedule
//                  (registry/monitor exhaustion, spurious wakes, widened
//                  race windows) under load.  Requires a
//                  -DTHINLOCKS_FAILPOINTS=ON build; exits 77 (ctest
//                  SKIP_RETURN_CODE) otherwise.
//   --smoke        CI profile: short duration, modest rate.
//
// The binary is its own referee: quantile monotonicity, the accounting
// identity offered == completed + shed, typed-error bookkeeping, trace
// validity, and — under chaos — that the ladder escalated, every phase
// ran, and admission *recovered* (final level Normal, post-chaos
// admits).  Any violated check exits non-zero, which is what makes it
// usable from ctest and bench/run_benches.sh (BENCH_SOAK=1).
//
// The harness is protocol-generic: --protocol NAME (or the
// THINLOCKS_PROTOCOL env var) soaks any registered protocol; the name
// lands in the SLO snapshot, the config block, and every trace span.
//
// Usage:
//   bench_soak [--duration-s N] [--rate R] [--workers N] [--seed S]
//              [--protocol NAME] [--chaos] [--smoke]
//              [--out BENCH_soak.json] [--trace-out PATH]
//
//===----------------------------------------------------------------------===//

#include "core/ProtocolRegistry.h"
#include "load/SoakHarness.h"
#include "obs/ChromeTrace.h"
#include "support/FailPoint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

using namespace thinlocks;
using namespace thinlocks::load;

namespace {

struct Options {
  double DurationSeconds = 10;
  double Rate = 300;
  unsigned Workers = 3;
  uint64_t Seed = 1;
  bool Chaos = false;
  bool Smoke = false;
  /// Empty = resolve via $THINLOCKS_PROTOCOL, then the default.
  const char *Protocol = "";
  const char *Out = "BENCH_soak.json";
  const char *TraceOut = nullptr;
};

[[noreturn]] void usage(const char *Argv0, int Exit) {
  std::fprintf(stderr,
               "usage: %s [--duration-s N] [--rate R] [--workers N]\n"
               "          [--seed S] [--protocol NAME] [--chaos] [--smoke]\n"
               "          [--out PATH] [--trace-out PATH]\n",
               Argv0);
  std::exit(Exit);
}

bool parseOptions(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(Argv[0], 2);
      return Argv[++I];
    };
    if (std::strcmp(Argv[I], "--duration-s") == 0)
      Opts.DurationSeconds = std::strtod(next(), nullptr);
    else if (std::strcmp(Argv[I], "--rate") == 0)
      Opts.Rate = std::strtod(next(), nullptr);
    else if (std::strcmp(Argv[I], "--workers") == 0)
      Opts.Workers =
          static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    else if (std::strcmp(Argv[I], "--seed") == 0)
      Opts.Seed = std::strtoull(next(), nullptr, 10);
    else if (std::strcmp(Argv[I], "--chaos") == 0)
      Opts.Chaos = true;
    else if (std::strcmp(Argv[I], "--smoke") == 0)
      Opts.Smoke = true;
    else if (std::strcmp(Argv[I], "--protocol") == 0)
      Opts.Protocol = next();
    else if (std::strncmp(Argv[I], "--protocol=", 11) == 0)
      Opts.Protocol = Argv[I] + 11;
    else if (std::strcmp(Argv[I], "--out") == 0)
      Opts.Out = next();
    else if (std::strcmp(Argv[I], "--trace-out") == 0)
      Opts.TraceOut = next();
    else if (std::strcmp(Argv[I], "--help") == 0)
      usage(Argv[0], 0);
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Argv[I]);
      return false;
    }
  }
  return true;
}

int Failures = 0;

void check(bool Ok, const char *What) {
  if (Ok)
    return;
  std::fprintf(stderr, "FAIL: %s\n", What);
  ++Failures;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseOptions(Argc, Argv, Opts))
    return 2;

  if (Opts.Chaos && !failpoint::compiledIn()) {
    std::fprintf(stderr,
                 "skip: --chaos needs a -DTHINLOCKS_FAILPOINTS=ON build\n");
    return 77; // ctest SKIP_RETURN_CODE.
  }

  std::string Protocol = resolveProtocolName(Opts.Protocol);
  if (!isRegisteredProtocol(Protocol)) {
    std::fprintf(stderr, "error: unknown protocol '%s'; registered:",
                 Protocol.c_str());
    for (const std::string &Name : registeredProtocolNames())
      std::fprintf(stderr, " %s", Name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  SoakConfig Config;
  Config.Protocol = Protocol;
  Config.ArrivalsPerSecond = Opts.Rate;
  Config.DurationSeconds = Opts.Smoke ? 3.0 : Opts.DurationSeconds;
  Config.Workers = Opts.Workers;
  Config.Seed = Opts.Seed;
  Config.Chaos = Opts.Chaos;
  if (Opts.Chaos) {
    // Shrunk resource spaces: occupancy signals move visibly, while the
    // injected exhaustion (transient by design) supplies the typed
    // errors.  Genuine permanent exhaustion would — correctly — pin the
    // ladder high, and this run must end recovered.
    Config.MonitorCapacity = 1u << 16;
    Config.RegistryCapacity = 256;
  }

  std::printf("bench_soak: protocol=%s rate=%.0f/s duration=%.1fs "
              "workers=%u seed=%llu chaos=%d\n",
              Protocol.c_str(), Config.ArrivalsPerSecond,
              Config.DurationSeconds, Config.Workers,
              static_cast<unsigned long long>(Config.Seed),
              Opts.Chaos ? 1 : 0);

  SoakResult Result = runSoak(Config);
  const obs::SloSnapshot &Slo = Result.Slo;

  std::printf(
      "completed=%llu offered=%llu shed=%llu (%.1f%%) deferred=%llu "
      "degraded=%llu\n",
      static_cast<unsigned long long>(Slo.SessionsCompleted),
      static_cast<unsigned long long>(Slo.SessionsOffered),
      static_cast<unsigned long long>(Slo.SessionsShed),
      Slo.ShedRate * 100.0,
      static_cast<unsigned long long>(Slo.SessionsDeferred),
      static_cast<unsigned long long>(Slo.SessionsDegraded));
  std::printf("acquire p50=%lluns p99=%lluns p999=%lluns max=%lluns\n",
              static_cast<unsigned long long>(Slo.Acquire.P50),
              static_cast<unsigned long long>(Slo.Acquire.P99),
              static_cast<unsigned long long>(Slo.Acquire.P999),
              static_cast<unsigned long long>(Slo.Acquire.Max));
  std::printf("session p50=%lluns p99=%lluns p999=%lluns max=%lluns\n",
              static_cast<unsigned long long>(Slo.Session.P50),
              static_cast<unsigned long long>(Slo.Session.P99),
              static_cast<unsigned long long>(Slo.Session.P999),
              static_cast<unsigned long long>(Slo.Session.Max));
  std::printf("wake p50=%lluns p99=%lluns count=%llu\n",
              static_cast<unsigned long long>(Slo.Wake.P50),
              static_cast<unsigned long long>(Slo.Wake.P99),
              static_cast<unsigned long long>(Slo.Wake.Count));
  std::printf("errors: monitor_exhaustion=%llu registry_exhaustion=%llu "
              "emergency_inflations=%llu attach_fallbacks=%llu\n",
              static_cast<unsigned long long>(Slo.MonitorExhaustionEvents),
              static_cast<unsigned long long>(Slo.RegistryExhaustionEvents),
              static_cast<unsigned long long>(Slo.EmergencyInflations),
              static_cast<unsigned long long>(Result.AttachFallbacks));
  std::printf("ladder: transitions=%llu final=%s ticks=[%llu %llu %llu "
              "%llu]\n",
              static_cast<unsigned long long>(Slo.LevelTransitions),
              degradationLevelName(
                  static_cast<DegradationLevel>(Slo.FinalLevel)),
              static_cast<unsigned long long>(Slo.TicksAtLevel[0]),
              static_cast<unsigned long long>(Slo.TicksAtLevel[1]),
              static_cast<unsigned long long>(Slo.TicksAtLevel[2]),
              static_cast<unsigned long long>(Slo.TicksAtLevel[3]));
  for (const auto &Transition : Result.LevelTimeline)
    std::printf("  ladder -> %s\n",
                degradationLevelName(Transition.second));

  // --- Self-checks -------------------------------------------------------
  check(Slo.Protocol == Protocol,
        "SLO snapshot not labeled with the protocol under load");
  check(Slo.SessionsCompleted > 0, "no sessions completed");
  check(Slo.RequestsCompleted > 0, "no requests completed");
  check(Slo.Acquire.monotone(), "acquire quantiles not monotone");
  check(Slo.Session.monotone(), "session quantiles not monotone");
  check(Slo.Wake.monotone(), "wake quantiles not monotone");
  check(Slo.SessionsOffered ==
            Slo.SessionsCompleted + Slo.SessionsShed,
        "accounting identity offered == completed + shed violated");
  if (!Result.WorstTraceJson.empty()) {
    std::string Error;
    check(obs::validateChromeTraceJson(Result.WorstTraceJson, &Error),
          "worst-sessions trace failed validation");
    if (!Error.empty())
      std::fprintf(stderr, "  trace error: %s\n", Error.c_str());
  }
  check(!Result.WorstSessions.empty(), "no worst-session spans retained");

  if (Opts.Chaos) {
    check(Result.ChaosPhasesRun == buildChaosSchedule(Config.ChaosSeed).size(),
          "not every chaos phase ran (raise --duration-s)");
    check(Result.Admission.Escalations > 0,
          "chaos ran but the ladder never escalated");
    check(Slo.MonitorExhaustionEvents + Slo.RegistryExhaustionEvents +
                  Slo.EmergencyInflations >
              0,
          "chaos ran but no typed exhaustion errors were recorded");
    check(Slo.SessionsShed > 0, "chaos ran but nothing was shed");
    check(Slo.FinalLevel ==
              static_cast<unsigned>(DegradationLevel::Normal),
          "admission did not recover to Normal after pressure lifted");
    check(Result.AdmitsAfterChaos > 0,
          "no sessions admitted after the chaos phases ended");
  }

  // --- Artifacts ---------------------------------------------------------
  std::string Json = "{\n  \"config\": {\"protocol\": \"" + Protocol +
                     "\", \"rate_per_s\": " +
                     std::to_string(Config.ArrivalsPerSecond) +
                     ", \"duration_s\": " +
                     std::to_string(Config.DurationSeconds) +
                     ", \"workers\": " + std::to_string(Config.Workers) +
                     ", \"seed\": " + std::to_string(Config.Seed) +
                     ", \"chaos\": " +
                     (Opts.Chaos ? std::string("true") : std::string("false")) +
                     ", \"heavy_fraction\": " +
                     std::to_string(Config.HeavyFraction) +
                     ", \"hot_objects\": " +
                     std::to_string(Config.HotObjects) +
                     ", \"zipf_theta\": " +
                     std::to_string(Config.ZipfTheta) +
                     "},\n  \"slo\": ";
  Json += Slo.toJson();
  Json += ",\n  \"monitor_retirements\": " +
          std::to_string(Result.MonitorRetirements);
  if (!Result.ProtocolStatsJson.empty())
    Json += ",\n  \"protocol_stats\": " + Result.ProtocolStatsJson;
  Json += "}\n";
  std::ofstream OutFile(Opts.Out, std::ios::binary | std::ios::trunc);
  if (!OutFile || !(OutFile << Json) || !OutFile.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", Opts.Out);
    return 1;
  }
  std::printf("wrote %s (%zu bytes)\n", Opts.Out, Json.size());
  if (Opts.TraceOut != nullptr && !Result.WorstTraceJson.empty()) {
    std::ofstream TraceFile(Opts.TraceOut,
                            std::ios::binary | std::ios::trunc);
    if (!TraceFile || !(TraceFile << Result.WorstTraceJson) ||
        !TraceFile.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.TraceOut);
      return 1;
    }
    std::printf("wrote %s (%zu bytes, %zu spans)\n", Opts.TraceOut,
                Result.WorstTraceJson.size(), Result.WorstSessions.size());
  }

  if (Failures != 0) {
    std::fprintf(stderr, "bench_soak: %d self-check(s) failed\n", Failures);
    return 1;
  }
  std::printf("bench_soak: all self-checks passed\n");
  return 0;
}
