#!/usr/bin/env python3
"""Build twq_e2e from this checkout and run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --selftest

Run from the root of a checkout. The benchmark is built (Release) into
.bench_build/e2e at the root on first use; later runs only re-check
the build. `--trace 1` writes the Chrome-trace JSON of the run to
.bench_build/traces/ and prints the per-layer metrics instead of the
end-to-end ones. The last line of standard output is the result JSON;
on any failure the script exits non-zero without printing one.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "twq_e2e"


def build():
    """Configure and build the benchmark; False (with the log) on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "twq_e2e",
              "-j", jobs]]
    # A configure that failed part way leaves a cache but no Makefile.
    if not (BUILD / "Makefile").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return BINARY.exists()


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict)
            and set(r) == {"correct", "attempted", "failed", "metrics"})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 1

    if args.selftest:
        cmd = [str(BINARY), "--selftest", "--benchmark",
               str(ROOT / "BENCHMARK.json")]
        return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=175)
    except subprocess.TimeoutExpired:
        print("run.py: twq_e2e timed out", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        print(f"run.py: twq_e2e exited {done.returncode} without a "
              "result", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
