#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N]

For every workload, runs the benchmark briefly twice untraced and once
traced, and checks that:
  - every run exits 0 with correct == true and failed == 0;
  - the untraced runs print every end_to_end metric of BENCHMARK.json
    and the traced run every per_layer metric, each with its unit;
  - the two untraced runs print the same digest and identical sim.*
    values (simulated results are deterministic per seed).
Exits 0 when every check holds.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")),
                  None)
    return proc.returncode, json.loads(lines[-1]), digest


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print("FAIL:", what)

    for wl in (w["name"] for w in spec["workloads"]):
        runs = [run(wl, args.seed, 0), run(wl, args.seed, 0),
                run(wl, args.seed, 1)]
        for (code, result, _), kind in zip(runs, ("e2e", "e2e", "layer")):
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{wl} {kind}: exit {code}, failed {result['failed']}")
            wanted = spec["end_to_end" if kind == "e2e" else "per_layer"]
            got = result["metrics"]
            expect(set(got) == {m["name"] for m in wanted},
                   f"{wl} {kind}: metric names differ from BENCHMARK.json")
            for m in wanted:
                expect(got.get(m["name"], {}).get("unit") == m["unit"],
                       f"{wl} {kind}: {m['name']} unit")
        (_, a, da), (_, b, db) = runs[0], runs[1]
        expect(da is not None and da == db, f"{wl}: digests {da} != {db}")
        for name, m in a["metrics"].items():
            if name.startswith("sim."):
                expect(m == b["metrics"][name], f"{wl}: {name} differs")
        print(f"{wl}: digest {da}, {len(problems)} problem(s) so far")

    print("selftest:", "ok" if not problems else f"{len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
