#!/usr/bin/env python3
"""Smoke test of cachescope-perf; ctest runs it under CACHESCOPE_QUICK=1.

    smoke_test.py CACHESCOPE_PERF BENCHMARK_JSON

Checks that `run` and `layers` pass their correctness gates and emit,
for every workload, every metric BENCHMARK.json names, finite and with a
well-formed name; that two runs print identical digests; and that
`compare` gives the known verdict on synthetic run sets.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def fail(what):
    print("FAIL: " + what)
    sys.exit(1)


def measure(binary, mode, out):
    """Run `mode` on every workload; return (result line, digests)."""
    proc = subprocess.run([binary, mode, "--seconds", "0", "--out", out],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{mode} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        fail(f"{mode} reports incorrect outputs: {lines[-1]}")
    digests = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[1] == "digest":
            digests[fields[0]] = fields[2]
    return result, digests


def check_metrics(result, workloads, metrics, mode):
    for workload in workloads:
        for metric in metrics:
            key = f"{workload}.{metric['name']}"
            if key not in result["metrics"]:
                fail(f"{mode} does not report {key}")
            entry = result["metrics"][key]
            if not math.isfinite(entry["value"]):
                fail(f"{mode}: {key} is not finite")
            if entry["unit"] != metric["unit"]:
                fail(f"{mode}: {key} has unit {entry['unit']}, "
                     f"BENCHMARK.json says {metric['unit']}")
    for key in result["metrics"]:
        if not NAME.match(key):
            fail(f"{mode}: metric name {key!r} is malformed")


def verdict(binary, tmp, case, parent, change):
    """Write one perf.json per run; return compare's gap_sweep verdict
    and its exit code."""
    sides = []
    for side, values in (("parent", parent), ("change", change)):
        dirs = []
        for i, value in enumerate(values):
            directory = os.path.join(tmp, f"{case}-{side}-{i}")
            os.makedirs(directory)
            with open(os.path.join(directory, "perf.json"), "w") as f:
                json.dump({"schema": "cachescope-metrics-v1", "name": "run",
                           "wall_ms": 0,
                           "gauges": {"gap_sweep": {"campaign_s": value}}},
                          f)
            dirs.append(directory)
        sides.append(dirs)
    proc = subprocess.run([binary, "compare"] + sides[0] + ["--"] + sides[1],
                          capture_output=True, text=True)
    rows = [line for line in proc.stdout.splitlines()
            if line.startswith("gap_sweep")]
    if len(rows) != 1:
        fail(f"compare printed no gap_sweep row:\n{proc.stdout}"
             f"{proc.stderr}")
    for known in ("no regression", "improved", "unresolved", "regression"):
        if rows[0].endswith(known):
            return known, proc.returncode
    fail(f"compare row has no verdict: {rows[0]}")


def main():
    binary, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        first, digests = measure(binary, "run", os.path.join(tmp, "run1"))
        check_metrics(first, workloads, bench["end_to_end"], "run")
        if sorted(digests) != sorted(workloads):
            fail(f"run printed digests for {sorted(digests)}")
        _, again = measure(binary, "run", os.path.join(tmp, "run2"))
        if again != digests:
            fail(f"digests differ between runs: {digests} vs {again}")

        layers, _ = measure(binary, "layers", os.path.join(tmp, "layers"))
        check_metrics(layers, workloads, bench["per_layer"], "layers")
        if not os.path.exists(os.path.join(tmp, "layers", "spans.json")):
            fail("layers wrote no spans.json")

        # Nine of ten pairs won by a margin beyond the parent's IQR.
        parent = [10.0, 10.1, 10.2, 10.05, 10.15, 10.0, 10.1, 10.2, 10.05,
                  10.15]
        change = [v - 1.0 for v in parent[:9]] + [parent[9] + 0.5]
        got = verdict(binary, tmp, "improved", parent, change)
        if got != ("improved", 0):
            fail(f"9/10 wins beyond the IQR gave {got}, not improved")
        # Overlapping quartiles, spread far beyond the bound.
        parent = [6.0, 14.0, 7.0, 13.0, 10.0, 6.5, 13.5, 8.0, 12.0, 10.0]
        change = [13.0, 7.0, 12.0, 6.5, 14.0, 10.0, 8.0, 13.5, 6.0, 10.0]
        got = verdict(binary, tmp, "unresolved", parent, change)
        if got != ("unresolved", 0):
            fail(f"overlapping IQRs gave {got}, not unresolved")
        # Every change run slower than every parent run, spread wide.
        parent = [6.0, 9.0, 7.0, 8.5, 10.0, 6.5, 9.5, 8.0, 7.5, 10.0]
        change = [v + 5.0 for v in parent]
        got = verdict(binary, tmp, "regression", parent, change)
        if got != ("regression", 1):
            fail(f"all runs slower gave {got}, not regression exiting 1")
    print("PASS")


if __name__ == "__main__":
    main()
