#!/usr/bin/env python3
"""Checks tools/soak_slo_diff.py, the nightly soak's SLO gate.

Usage: soak_slo_diff_test.py TOOL BASELINE

Runs the gate on copies of a real bench_soak document (BASELINE, the
committed BENCH_soak.json).  Identical documents must pass; a 1.6x
session p999, a non-zero emergency-inflation count and a run of another
length must each be refused.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def main():
    tool, baseline = sys.argv[1:3]
    with open(baseline) as f:
        base = json.load(f)
    slower, erred, longer = (copy.deepcopy(base) for _ in range(3))
    session = slower["slo"]["session"]
    session["p999_ns"] = int(session["p999_ns"] * 1.6)
    erred["slo"]["emergency_inflations"] = 1
    longer["config"]["duration_s"] *= 2
    cases = [
        ("identical documents pass", base, 0, "no SLO regressions"),
        ("a 1.6x session p999 fails", slower, 1, "session.p999_ns:"),
        ("an emergency inflation fails", erred, 1,
         "emergency_inflations = 1"),
        ("a run of another length is refused", longer, 1,
         "config mismatch on 'duration_s'"),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        cand_path = os.path.join(tmp, "candidate.json")
        with open(base_path, "w") as f:
            json.dump(base, f)
        for name, cand, want_status, want_text in cases:
            with open(cand_path, "w") as f:
                json.dump(cand, f)
            done = subprocess.run([sys.executable, tool, base_path, cand_path],
                                  capture_output=True, text=True, check=False)
            ok = (done.returncode == want_status
                  and want_text in done.stdout + done.stderr)
            failures += not ok
            print(f"{'ok' if ok else 'FAIL'}: {name} (exit {done.returncode})")
            if not ok:
                print(done.stdout + done.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
