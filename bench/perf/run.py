#!/usr/bin/env python3
"""Build cachescope-perf from this checkout and run one benchmark workload.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds bench/perf (Release, link-time optimization) into
$CARGO_TARGET_DIR/cachescope-perf, default .bench_build/cachescope-perf,
then runs `cachescope-perf run` (--trace 0: the end-to-end metrics) or
`cachescope-perf layers` (--trace 1: the per-layer metrics) on the
workload. Its last stdout line is the JSON result; build output
goes to stderr. Exits non-zero, printing no result, when the build fails,
for example in a directory without the simulator sources.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "cachescope-perf")
    jobs = str(min(os.cpu_count() or 1, 4))
    for step in (["cmake", "-S", os.path.join(ROOT, "bench", "perf"),
                  "-B", build],
                 ["cmake", "--build", build, "-j", jobs,
                  "--target", "cachescope-perf"]):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("cachescope-perf: build failed", file=sys.stderr)
            return 1

    command = [os.path.join(build, "cachescope-perf"),
               "layers" if args.trace else "run",
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--out", os.path.join(build, "out")]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
