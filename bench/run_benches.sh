#!/usr/bin/env bash
#===- bench/run_benches.sh - Machine-readable bench trajectory ----------===#
#
# Runs the google-benchmark suites in JSON mode and aggregates the
# results into BENCH_fastpath.json and BENCH_contention.json at the repo
# root.  These files are the committed perf trajectory: regenerate them
# from a `bench` preset build when a PR touches a hot path, and compare
# against the committed copy before overwriting it.
#
# Failure discipline: every suite run and every merge is checked, and the
# merged files are staged in a temp directory and only moved over the
# committed copies after *all* of them built successfully.  A crashing
# suite or a malformed JSON therefore fails the script fast (non-zero
# exit) and leaves the prior BENCH_*.json bit-for-bit untouched — no more
# half-regenerated trajectories where fastpath was overwritten before the
# contention merge died.
#
# Usage:
#   cmake --preset bench && cmake --build --preset bench -j
#   bench/run_benches.sh [build-dir]     # default: build-bench
#
# Environment:
#   BENCH_OUT_DIR   where the merged BENCH_*.json land (default: repo
#                   root).  Used by tests to exercise the script against
#                   stub binaries without touching the committed files.
#   BENCH_TRACE=1   also run macro_trace (if built) and stage
#                   BENCH_trace.json, a Chrome trace_event artifact of a
#                   traced macro replay (see DESIGN.md §10).
#   BENCH_MATRIX=1  also run bench_matrix (every registered protocol x
#                   the shared workload battery, DESIGN.md §14) and stage
#                   BENCH_matrix.json; BENCH_MATRIX_ARGS overrides the
#                   default (full-size) profile, e.g. --smoke.
#   BENCH_TXN=1     also run bench_txn (every registered protocol x every
#                   conflict policy through the transactional scenario
#                   engine, DESIGN.md §15) and stage BENCH_txn.json;
#                   BENCH_TXN_ARGS overrides the default (full-size)
#                   profile, e.g. --smoke.
#
# Every suite must have been built with NDEBUG (the bench preset): the
# merge refuses to publish a document whose thinlocks_build_type context
# field is not "release" (see bench/BenchContext.h for why the library's
# own library_build_type field cannot be the gate).
#
#===----------------------------------------------------------------------===#
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build-bench}"
case "$BUILD_DIR" in /*) ;; *) BUILD_DIR="$ROOT/$BUILD_DIR" ;; esac
OUT_DIR="${BENCH_OUT_DIR:-$ROOT}"

# Suites per trajectory file.  bench_fastpath is the per-operation cost
# ledger (paper §2/§3.3); bench_inflation_storm is the multi-thread
# inflation/allocation sweep behind the hot-path-scalability work;
# bench_wakeup is the waiting-substrate suite (wake-handoff latency and
# notifyAll storms, with std::mutex/condvar reference rows in the same
# JSON).  The contention suites also emit a cpu_ns_per_op counter
# (bench/BenchRusage.h) next to wall time.
FASTPATH_SUITES=(bench_fastpath)
CONTENTION_SUITES=(bench_inflation_storm bench_wakeup)

for Suite in "${FASTPATH_SUITES[@]}" "${CONTENTION_SUITES[@]}"; do
  if [ ! -x "$BUILD_DIR/bench/$Suite" ]; then
    echo "error: $BUILD_DIR/bench/$Suite not found." >&2
    echo "Build it first:  cmake --preset bench && cmake --build --preset bench -j" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

run_suite() {
  local Suite="$1"; shift
  echo "== $Suite" >&2
  local Status=0
  "$BUILD_DIR/bench/$Suite" "$@" \
    --benchmark_format=console \
    --benchmark_out="$TMP/$Suite.json" \
    --benchmark_out_format=json >&2 || Status=$?
  if [ "$Status" -ne 0 ]; then
    echo "error: $Suite exited with status $Status; aborting without" \
         "touching the committed BENCH_*.json files." >&2
    exit "$Status"
  fi
}

# Fast-path benches are single-run by default (interactive use); for the
# committed trajectory force repetitions so the JSON records medians.
# The contention suites set Repetitions(5) per-benchmark already.
for Suite in "${FASTPATH_SUITES[@]}"; do
  run_suite "$Suite" \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
done
for Suite in "${CONTENTION_SUITES[@]}"; do
  run_suite "$Suite"
done

# Merge the per-suite JSON files: one shared context (identical flags for
# every suite in a run) plus the concatenated benchmark records, each
# tagged with its suite of origin.  Merges write into $TMP/staged — a
# failed json.load here (truncated or garbage suite output) must not
# clobber anything committed.
mkdir -p "$TMP/staged"

merge() {
  local Name="$1"; shift
  if ! python3 - "$TMP/staged/$Name" "$@" <<'PYEOF'
import json, sys

out_path, *inputs = sys.argv[1:]
merged = {"context": None, "benchmarks": []}
for path in inputs:
    with open(path) as f:
        doc = json.load(f)
    suite = path.rsplit("/", 1)[-1].removesuffix(".json")
    # Refuse to publish a trajectory built without NDEBUG.  The gate is
    # our own context field (bench/BenchContext.h): the library's
    # `library_build_type` is compiled into libbenchmark itself, so a
    # distro-packaged .so reports the *library's* build type no matter
    # how the suites were compiled — it cannot vouch for the measured
    # code.  Asserting here (inside the staged merge) keeps the committed
    # BENCH_*.json bit-for-bit untouched on refusal.
    build_type = doc.get("context", {}).get("thinlocks_build_type")
    assert build_type == "release", (
        f"{suite}: thinlocks_build_type is {build_type!r}, not 'release' "
        "— rebuild with the bench preset (cmake --preset bench) before "
        "publishing a trajectory")
    if merged["context"] is None:
        ctx = doc.get("context", {})
        ctx.pop("executable", None)  # per-suite; the suite tag replaces it
        merged["context"] = ctx
    for bench in doc.get("benchmarks", []):
        bench["suite"] = suite
        merged["benchmarks"].append(bench)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"merged {out_path.rsplit('/', 1)[-1]} ({len(merged['benchmarks'])} benchmarks)")
PYEOF
  then
    echo "error: merging $Name failed; aborting without touching the" \
         "committed BENCH_*.json files." >&2
    exit 1
  fi
  STAGED+=("$Name")
}

STAGED=()
FASTPATH_INPUTS=(); for S in "${FASTPATH_SUITES[@]}"; do FASTPATH_INPUTS+=("$TMP/$S.json"); done
CONTENTION_INPUTS=(); for S in "${CONTENTION_SUITES[@]}"; do CONTENTION_INPUTS+=("$TMP/$S.json"); done

merge BENCH_fastpath.json "${FASTPATH_INPUTS[@]}"
merge BENCH_contention.json "${CONTENTION_INPUTS[@]}"

# Optional tracing artifact: a Chrome trace of one traced macro replay
# plus the hot-lock table on stderr.  Staged with the same all-or-nothing
# discipline.
if [ "${BENCH_TRACE:-0}" != 0 ]; then
  if [ ! -x "$BUILD_DIR/bench/macro_trace" ]; then
    echo "error: BENCH_TRACE=1 but $BUILD_DIR/bench/macro_trace is not built." >&2
    exit 1
  fi
  echo "== macro_trace" >&2
  if ! "$BUILD_DIR/bench/macro_trace" --out "$TMP/staged/BENCH_trace.json" >&2; then
    echo "error: macro_trace failed; aborting without touching the" \
         "committed BENCH_*.json files." >&2
    exit 1
  fi
  STAGED+=(BENCH_trace.json)
fi

# Optional sustained-load soak artifact: SLO quantiles, admission-ladder
# residency, and typed-error accounting from one self-checking bench_soak
# run (BENCH_SOAK_ARGS overrides the default profile, e.g. a longer
# --duration-s or --chaos against a failpoints build).  Staged with the
# same all-or-nothing discipline — a failed self-check publishes nothing.
if [ "${BENCH_SOAK:-0}" != 0 ]; then
  if [ ! -x "$BUILD_DIR/bench/bench_soak" ]; then
    echo "error: BENCH_SOAK=1 but $BUILD_DIR/bench/bench_soak is not built." >&2
    exit 1
  fi
  echo "== bench_soak" >&2
  # shellcheck disable=SC2086  # word-splitting of the args is the point
  if ! "$BUILD_DIR/bench/bench_soak" ${BENCH_SOAK_ARGS:---duration-s 10} \
       --out "$TMP/staged/BENCH_soak.json" >&2; then
    echo "error: bench_soak failed; aborting without touching the" \
         "committed BENCH_*.json files." >&2
    exit 1
  fi
  STAGED+=(BENCH_soak.json)
fi

# Optional cross-protocol matrix artifact: every registered protocol
# through the same workload battery (bench_matrix is self-checking; a
# failed grid publishes nothing).  The schema gate below mirrors the
# merge()'s build-type refusal: a debug matrix never lands.
if [ "${BENCH_MATRIX:-0}" != 0 ]; then
  if [ ! -x "$BUILD_DIR/bench/bench_matrix" ]; then
    echo "error: BENCH_MATRIX=1 but $BUILD_DIR/bench/bench_matrix is not built." >&2
    exit 1
  fi
  echo "== bench_matrix" >&2
  # shellcheck disable=SC2086  # word-splitting of the args is the point
  if ! "$BUILD_DIR/bench/bench_matrix" ${BENCH_MATRIX_ARGS:-} \
       --out "$TMP/staged/BENCH_matrix.json" >&2; then
    echo "error: bench_matrix failed; aborting without touching the" \
         "committed BENCH_*.json files." >&2
    exit 1
  fi
  if ! python3 - "$TMP/staged/BENCH_matrix.json" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema") == "thinlocks-bench-matrix-v1", doc.get("schema")
assert doc.get("build_type") == "release", (
    f"build_type is {doc.get('build_type')!r}, not 'release' — rebuild "
    "with the bench preset (cmake --preset bench) before publishing")
protocols, workloads = doc["protocols"], doc["workloads"]
assert len(protocols) >= 4, protocols
assert len(workloads) >= 3, workloads
rows = doc["rows"]
assert len(rows) == len(protocols) * len(workloads), len(rows)
for row in rows:
    assert row["protocol"] in protocols and row["workload"] in workloads
    assert row["protocol_impl"] and row["ops"] > 0
print(f"BENCH_matrix.json ok ({len(protocols)} protocols x "
      f"{len(workloads)} workloads)")
PYEOF
  then
    echo "error: BENCH_matrix.json failed schema validation; aborting" \
         "without touching the committed BENCH_*.json files." >&2
    exit 1
  fi
  STAGED+=(BENCH_matrix.json)
fi

# Optional transactional-scenario artifact: every registered protocol x
# every conflict policy (NoWait / WaitDie / Validated) through the txn
# engine (bench_txn self-checks the grid, the per-cell accounting
# identity, and the serializability spot-checks; a failed cell publishes
# nothing).  Same staged all-or-nothing discipline and schema gate.
if [ "${BENCH_TXN:-0}" != 0 ]; then
  if [ ! -x "$BUILD_DIR/bench/bench_txn" ]; then
    echo "error: BENCH_TXN=1 but $BUILD_DIR/bench/bench_txn is not built." >&2
    exit 1
  fi
  echo "== bench_txn" >&2
  # shellcheck disable=SC2086  # word-splitting of the args is the point
  if ! "$BUILD_DIR/bench/bench_txn" ${BENCH_TXN_ARGS:-} \
       --out "$TMP/staged/BENCH_txn.json" >&2; then
    echo "error: bench_txn failed; aborting without touching the" \
         "committed BENCH_*.json files." >&2
    exit 1
  fi
  if ! python3 - "$TMP/staged/BENCH_txn.json" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema") == "thinlocks-bench-txn-v1", doc.get("schema")
assert doc.get("build_type") == "release", (
    f"build_type is {doc.get('build_type')!r}, not 'release' — rebuild "
    "with the bench preset (cmake --preset bench) before publishing")
protocols, policies = doc["protocols"], doc["policies"]
assert len(protocols) >= 5, protocols
assert len(policies) == 3, policies
rows = doc["rows"]
assert len(rows) == len(protocols) * len(policies), len(rows)
for row in rows:
    assert row["protocol"] in protocols and row["policy"] in policies
    assert row["protocol_impl"] and row["started"] > 0
    assert row["started"] == row["committed"] + row["aborted"], row
    assert row["committed"] > 0 and row["commits_per_sec"] > 0, row
    assert row["consistency_violations"] == 0, row
    assert row.get("attach_failures", 0) == 0, row
    assert "abort_p99_ns" in row and "commit_p99_ns" in row, row
print(f"BENCH_txn.json ok ({len(protocols)} protocols x "
      f"{len(policies)} policies)")
PYEOF
  then
    echo "error: BENCH_txn.json failed schema validation; aborting" \
         "without touching the committed BENCH_*.json files." >&2
    exit 1
  fi
  STAGED+=(BENCH_txn.json)
fi

# Everything succeeded: publish the staged files together.
for Name in "${STAGED[@]}"; do
  mv -f "$TMP/staged/$Name" "$OUT_DIR/$Name"
  echo "wrote $OUT_DIR/$Name"
done
