#!/usr/bin/env python3
"""Run perfbench once per workload and check its simulated metrics.

Usage (from the repository root):

  python3 scripts/perfbench_sim_check.py [--out DIR]

Runs `perfbench/run.py --seed 1 --seconds 1 --trace 0` for each workload
(office, writehot, nvm, fleet; perfbench builds its own Release tree, see
perfbench/README.md) and keeps each run's JSON result line in
DIR/perfbench-<workload>.json (default DIR: bench-artifacts). Each result
must report a correct run with no failed operations, and its simulated
metrics must equal tests/golden/perfbench_sim.json exactly: they depend only
on the seed, not on run length or host, so a host-time-only change cannot
move a simulated number. Exits non-zero on the first workload that fails.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "perfbench_sim.json"
WORKLOADS = ("office", "writehot", "nvm", "fleet")


def check(w, result_path, golden_path):
    with open(result_path) as f:
        r = json.load(f)
    with open(golden_path) as f:
        golden = json.load(f)[w]
    if r["correct"] is not True or r["failed"] != 0:
        sys.exit(f"perfbench {w}: correct={r['correct']} "
                 f"failed={r['failed']}")
    moved = {k: (v, r["metrics"][k]["value"]) for k, v in golden.items()
             if r["metrics"][k]["value"] != v}
    if moved:
        sys.exit(f"perfbench {w}: simulated metrics differ from "
                 f"tests/golden/perfbench_sim.json (golden, got): {moved}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="bench-artifacts",
                        help="directory for the per-workload JSON results")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for w in WORKLOADS:
        run = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", w, "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = run.stdout.splitlines()
        if not lines:
            sys.exit(f"perfbench {w}: no result (exit {run.returncode})")
        result_path = out / f"perfbench-{w}.json"
        result_path.write_text(lines[-1] + "\n")
        check(w, result_path, GOLDEN)
        print(f"perfbench {w}: correct, simulated metrics match")


if __name__ == "__main__":
    main()
