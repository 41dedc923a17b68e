#!/usr/bin/env python3
"""Compare a fresh BENCH_soak.json against the committed baseline.

Usage:
  tools/soak_slo_diff.py BASELINE CANDIDATE [--quantile-tolerance R]
                         [--throughput-tolerance R] [--shed-slack S]

The nightly soak job regenerates the soak trajectory and runs this diff
against the committed BENCH_soak.json; a regression fails the job.  The
checks, in order of severity:

  1. Typed error counters (monitor/registry exhaustion, emergency
     inflations) must be zero in the candidate — these are correctness
     escapes, not noise, so no tolerance applies.
  2. Latency quantiles (p50/p99/p999 of the acquire, session, and wake
     histograms) may not exceed baseline * quantile-tolerance.  An
     absolute floor of 1us on the *delta* filters scheduler jitter on
     nanosecond-scale values: a 40ns -> 90ns p50 is a 2.25x ratio but
     means nothing on a shared runner.
  3. Throughput (requests_per_s, sessions_per_s) may not fall below
     baseline * throughput-tolerance, and shed_rate may not rise more
     than --shed-slack above baseline.

Config fields that shape the workload (offered rate, workers, chaos)
must match between the two documents — comparing a chaos run against a
clean baseline would "regress" by design.  duration_s is
deliberately NOT matched: the nightly runs longer than the committed
baseline, and every compared metric is either a quantile or already
normalized per second.
"""

import argparse
import json
import sys

QUANTILE_KEYS = ("p50_ns", "p99_ns", "p999_ns")
HISTOGRAMS = ("acquire", "session", "wake")
ERROR_COUNTERS = (
    "monitor_exhaustion_events",
    "registry_exhaustion_events",
    "emergency_inflations",
)
MATCHED_CONFIG = ("rate_per_s", "workers", "chaos")
JITTER_FLOOR_NS = 1_000


def load(path):
    with open(path) as f:
        doc = json.load(f)
    for key in ("config", "slo"):
        if key not in doc:
            sys.exit(f"error: {path} has no '{key}' section — not a "
                     "bench_soak trajectory?")
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--quantile-tolerance", type=float, default=1.5,
                    help="max allowed candidate/baseline quantile ratio "
                         "(default: %(default)s)")
    ap.add_argument("--throughput-tolerance", type=float, default=0.7,
                    help="min allowed candidate/baseline throughput ratio "
                         "(default: %(default)s)")
    ap.add_argument("--shed-slack", type=float, default=0.05,
                    help="max allowed shed_rate rise over baseline "
                         "(default: %(default)s)")
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    for key in MATCHED_CONFIG:
        b, c = base["config"].get(key), cand["config"].get(key)
        if b != c:
            sys.exit(f"error: config mismatch on '{key}' (baseline {b!r}, "
                     f"candidate {c!r}); the runs are not comparable")

    regressions = []
    rows = []

    bslo, cslo = base["slo"], cand["slo"]

    for counter in ERROR_COUNTERS:
        value = cslo.get(counter, 0)
        rows.append((counter, bslo.get(counter, 0), value, "== 0"))
        if value != 0:
            regressions.append(f"{counter} = {value} (must be 0)")

    for hist in HISTOGRAMS:
        bh, ch = bslo.get(hist), cslo.get(hist)
        if bh is None or ch is None:
            regressions.append(f"histogram '{hist}' missing from "
                               f"{'baseline' if bh is None else 'candidate'}")
            continue
        for q in QUANTILE_KEYS:
            b, c = bh[q], ch[q]
            limit = f"<= {args.quantile_tolerance:g}x"
            rows.append((f"{hist}.{q}", b, c, limit))
            if c > b * args.quantile_tolerance and c - b > JITTER_FLOOR_NS:
                regressions.append(
                    f"{hist}.{q}: {b} -> {c} ns "
                    f"({c / b if b else float('inf'):.2f}x, limit "
                    f"{args.quantile_tolerance:g}x)")

    for rate in ("requests_per_s", "sessions_per_s"):
        b, c = bslo.get(rate, 0.0), cslo.get(rate, 0.0)
        rows.append((rate, round(b, 1), round(c, 1),
                     f">= {args.throughput_tolerance:g}x"))
        if c < b * args.throughput_tolerance:
            regressions.append(
                f"{rate}: {b:.1f} -> {c:.1f} "
                f"(limit {args.throughput_tolerance:g}x baseline)")

    b, c = bslo.get("shed_rate", 0.0), cslo.get("shed_rate", 0.0)
    rows.append(("shed_rate", round(b, 4), round(c, 4),
                 f"<= base + {args.shed_slack:g}"))
    if c > b + args.shed_slack:
        regressions.append(f"shed_rate: {b:.4f} -> {c:.4f} "
                           f"(slack {args.shed_slack:g})")

    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'candidate':>12}  limit")
    for name, b, c, limit in rows:
        print(f"{name:<{width}}  {b:>12}  {c:>12}  {limit}")

    if regressions:
        print(f"\n{len(regressions)} SLO regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for r in regressions:
            print(f"  - {r}", file=sys.stderr)
        return 1
    print(f"\nno SLO regressions vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
