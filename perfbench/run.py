#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
the simulator from ../src plus the benchmark program into
.bench_build/perfbench (Release); later runs rebuild only what changed.
The program's output is passed through; its last line is the result
object {correct, attempted, failed, metrics}. The benchmark's own spans
are written to .bench_build/perfbench/spans/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("suite-warm", "deep-cascade", "fleet-diurnal")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build; the build log goes to stderr."""
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def committed_fig11_speedup():
    """overall_avg_speedup of the committed Fig. 11 snapshot, or None."""
    try:
        report = json.loads((ROOT / "BENCH_fig11_speedup.json").read_text())
        return report["metrics"]["overall_avg_speedup"]["value"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2
    spans = BUILD_DIR / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(BUILD_DIR / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out",
           str(spans / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4

    print("\n".join(lines[:-1]))
    if args.workload == "suite-warm":
        committed = committed_fig11_speedup()
        if committed is not None:
            print(f"  committed BENCH_fig11_speedup.json overall_avg_speedup "
                  f"{committed:.4f}x (seed 42, 250 requests per point)")
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
