//===- bench/bench_txn.cpp - Transactional scenario grid ------------------===//
//
// Runs the transactional scenario engine (src/txn/, DESIGN.md §15) over
// every registered protocol x every conflict policy and publishes the
// grid as one JSON artifact (BENCH_txn.json via run_benches.sh
// BENCH_TXN=1):
//
//   NoWait      tryLock 2PL, abort on any conflict
//   WaitDie     timestamp-ordered 2PL over tryLockFor; on thin locks
//               the cycle detector's Deadlock verdict is a precise
//               abort signal
//   Validated   OCC reads + short lock-only commit window
//
// Each cell draws Zipf(0.8) read/write sets from a large per-run object
// universe, so the hot head concentrates conflicts onto a few monitors
// (inflation/morphing territory) while the tail stays thin.  Rows carry
// commit/abort counts split by cause, commit throughput, and the
// abort-latency p99.
//
// Self-checking: the grid must cover all 5 protocols
// x 3 policies, every cell must satisfy `started == committed +
// aborted`, commit at least once, and report zero serializability
// violations, or the binary exits non-zero.
//
// Usage:
//   bench_txn [--smoke] [--out BENCH_txn.json]
//
//===----------------------------------------------------------------------===//

#include "core/ProtocolRegistry.h"
#include "txn/TxnEngine.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::txn;

namespace {

struct Options {
  bool Smoke = false;
  const char *Out = "BENCH_txn.json";
};

/// Grid sizing; --smoke shrinks everything for CI.
struct Sizes {
  size_t HeapObjects = 1'000'000;
  unsigned Threads = 4;
  uint64_t TxnsPerThread = 50'000;
  uint32_t ReadSetSize = 4;
  uint32_t WriteSetSize = 2;
  double ZipfTheta = 0.8;
};

struct Cell {
  std::string Protocol;
  std::string ProtocolImpl;
  std::string Policy;
  TxnStats Stats;
  uint64_t ElapsedNanos = 0;
  double CommitsPerSec = 0;
  bool IntegrityOk = false;
};

int Failures = 0;

void check(bool Ok, const char *What) {
  if (Ok)
    return;
  std::fprintf(stderr, "FAIL: %s\n", What);
  ++Failures;
}

std::string renderJson(const std::vector<Cell> &Cells,
                       const std::vector<std::string> &Protocols,
                       const std::vector<std::string> &Policies) {
  std::string Json = "{\n  \"schema\": \"thinlocks-bench-txn-v1\",\n";
#ifdef NDEBUG
  Json += "  \"build_type\": \"release\",\n";
#else
  Json += "  \"build_type\": \"debug\",\n";
#endif
  auto appendList = [&Json](const char *Key,
                            const std::vector<std::string> &Values) {
    Json += "  \"";
    Json += Key;
    Json += "\": [";
    for (size_t I = 0; I < Values.size(); ++I) {
      if (I != 0)
        Json += ", ";
      Json += "\"" + Values[I] + "\"";
    }
    Json += "],\n";
  };
  appendList("protocols", Protocols);
  appendList("policies", Policies);
  Json += "  \"rows\": [\n";
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    char Buf[1024];
    int Len = std::snprintf(
        Buf, sizeof(Buf),
        "    {\"protocol\": \"%s\", \"protocol_impl\": \"%s\", "
        "\"policy\": \"%s\", \"started\": %llu, \"committed\": %llu, "
        "\"aborted\": %llu, "
        "\"aborts\": {\"busy\": %llu, \"die\": %llu, \"deadlock\": %llu, "
        "\"validation\": %llu}, "
        "\"commits_per_sec\": %.1f, \"abort_p99_ns\": %llu, "
        "\"commit_p99_ns\": %llu, \"consistency_violations\": %llu, "
        "\"attach_failures\": %llu, \"elapsed_ns\": %llu}%s\n",
        C.Protocol.c_str(), C.ProtocolImpl.c_str(), C.Policy.c_str(),
        static_cast<unsigned long long>(C.Stats.Started),
        static_cast<unsigned long long>(C.Stats.Committed),
        static_cast<unsigned long long>(C.Stats.aborted()),
        static_cast<unsigned long long>(C.Stats.AbortedBusy),
        static_cast<unsigned long long>(C.Stats.AbortedDie),
        static_cast<unsigned long long>(C.Stats.AbortedDeadlock),
        static_cast<unsigned long long>(C.Stats.AbortedValidation),
        C.CommitsPerSec,
        static_cast<unsigned long long>(C.Stats.AbortLatency.quantile(0.99)),
        static_cast<unsigned long long>(C.Stats.CommitLatency.quantile(0.99)),
        static_cast<unsigned long long>(C.Stats.ConsistencyViolations),
        static_cast<unsigned long long>(C.Stats.AttachFailures),
        static_cast<unsigned long long>(C.ElapsedNanos),
        I + 1 == Cells.size() ? "" : ",");
    // A truncated row is malformed JSON that would otherwise only fail
    // later at the schema gate; fail here, loudly.
    check(Len > 0 && static_cast<size_t>(Len) < sizeof(Buf),
          "json row truncated (raise the row buffer size)");
    Json += Buf;
  }
  Json += "  ]\n}\n";
  return Json;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Opts.Smoke = true;
    else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc)
      Opts.Out = Argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", Argv[0]);
      return 2;
    }
  }

  Sizes S;
  if (Opts.Smoke) {
    S.HeapObjects = 4096;
    S.Threads = 3;
    S.TxnsPerThread = 1500;
  }

  const std::vector<std::string> &Protocols = registeredProtocolNames();
  std::vector<std::string> Policies;
  for (ConflictPolicyKind Kind : allConflictPolicies())
    Policies.push_back(conflictPolicyName(Kind));

  std::vector<Cell> Cells;
  for (const std::string &Name : Protocols) {
    for (ConflictPolicyKind Kind : allConflictPolicies()) {
      TxnScenarioConfig Config;
      Config.Protocol = Name;
      Config.Policy = Kind;
      Config.Params.HeapObjects = S.HeapObjects;
      Config.Params.ZipfTheta = S.ZipfTheta;
      Config.Params.Threads = S.Threads;
      Config.Params.TxnsPerThread = S.TxnsPerThread;
      Config.Params.ReadSetSize = S.ReadSetSize;
      Config.Params.WriteSetSize = S.WriteSetSize;
      Config.Params.Seed = 0x7a11 + Cells.size();
      TxnScenarioResult Result = runTxnScenario(Config);

      Cell C;
      C.Protocol = Name;
      C.ProtocolImpl = Result.ProtocolImpl;
      C.Policy = conflictPolicyName(Kind);
      C.Stats = Result.Stats;
      C.ElapsedNanos = Result.ElapsedNanos;
      C.CommitsPerSec = Result.commitsPerSecond();
      C.IntegrityOk = Result.IntegrityOk;
      std::printf("  %-12s %-10s committed=%-8llu aborted=%-7llu "
                  "%10.0f commits/s  abort_p99=%lluns\n",
                  C.Protocol.c_str(), C.Policy.c_str(),
                  static_cast<unsigned long long>(C.Stats.Committed),
                  static_cast<unsigned long long>(C.Stats.aborted()),
                  C.CommitsPerSec,
                  static_cast<unsigned long long>(
                      C.Stats.AbortLatency.quantile(0.99)));
      Cells.push_back(std::move(C));
    }
  }

  // --- Self-checks -------------------------------------------------------
  check(Protocols.size() >= 5, "grid needs all 5 registered protocols");
  check(Policies.size() == 3, "grid needs all 3 conflict policies");
  check(Cells.size() == Protocols.size() * Policies.size(),
        "grid is not complete (some protocol skipped a policy)");
  for (const Cell &C : Cells) {
    check(!C.Protocol.empty() && !C.ProtocolImpl.empty() && !C.Policy.empty(),
          "cell missing its labels");
    check(C.Stats.identityHolds(),
          "accounting identity started == committed + aborted violated");
    check(C.Stats.Committed > 0, "cell committed zero transactions");
    check(C.Stats.ConsistencyViolations == 0,
          "serializability spot-check failed (value != version)");
    check(C.IntegrityOk,
          "version-sum integrity violated (lost or phantom writes)");
    check(C.Stats.LeakedLocks == 0, "aborted transaction leaked a lock");
    check(C.Stats.AttachFailures == 0,
          "a worker failed to attach (throughput under-reported)");
  }

  std::string Json = renderJson(Cells, Protocols, Policies);
  std::ofstream OutFile(Opts.Out, std::ios::binary | std::ios::trunc);
  if (!OutFile || !(OutFile << Json) || !OutFile.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", Opts.Out);
    return 1;
  }
  std::printf("wrote %s (%zu bytes, %zu cells)\n", Opts.Out, Json.size(),
              Cells.size());

  if (Failures != 0) {
    std::fprintf(stderr, "bench_txn: %d self-check(s) failed\n", Failures);
    return 1;
  }
  std::printf("bench_txn: all self-checks passed\n");
  return 0;
}
