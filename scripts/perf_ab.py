#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: a base revision against the
working tree.

    python3 scripts/perf_ab.py --base <rev> --workload writehot --seed 1 \\
        --seconds 8 --pairs 10

Exports the base revision's committed files (`git archive`) into a
temporary directory, then runs each tree's `perfbench/run.py`, which builds
that tree's perfbench in its own CARGO_TARGET_DIR, in alternating pairs (base first on even pairs, head
first on odd ones, so a slow drift of the host lands on both sides) and
prints, for every end-to-end metric in BENCHMARK.json, each side's median
and quartiles, the change of the median, and how many pairs each side won.
A change is resolved when the head wins nearly every pair and the gap
between the medians exceeds the base's interquartile range.

Exits 1 if any run is incorrect, has failed ops, or exits non-zero, or if
any sim_* metric differs between runs (simulated numbers are exact per
seed, so a host-speed change must leave them identical). It is a
measurement, not a CI gate: host time is only comparable between two
builds on one machine.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export_revision(rev: str, dest: pathlib.Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: pathlib.Path, build_dir: pathlib.Path,
             args: argparse.Namespace) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        return {"error": f"exit code {proc.returncode}\n{tail}"}
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree to")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--work-dir",
                        help="keep the base export and both builds here "
                             "(reused by a later call); default: a "
                             "temporary directory, removed at the end")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    work = pathlib.Path(args.work_dir or tempfile.mkdtemp(prefix="perf_ab-"))
    try:
        base_tree = work / "base"
        if not base_tree.exists():
            export_revision(args.base, base_tree)
        # perfbench/run.py builds each tree on its first run.
        sides = {"base": (base_tree, work / "base-build"),
                 "head": (ROOT, work / "head-build")}
        runs = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(*sides[side], args)
                if "error" in result:
                    print(f"perf_ab: {side} run failed: {result['error']}",
                          file=sys.stderr)
                    return 1
                runs[side].append(result)
                host = result["metrics"]["host_us_per_op"]["value"]
                print(f"pair {pair + 1}/{args.pairs} {side}: host_us_per_op "
                      f"{host:.4f}", file=sys.stderr)
    except subprocess.CalledProcessError as err:
        print(f"perf_ab: {err}", file=sys.stderr)
        return 2
    finally:
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)

    ok = True
    for side, results in runs.items():
        for i, r in enumerate(results):
            if not r.get("correct") or r.get("failed") != 0:
                print(f"perf_ab: {side} run {i + 1} is incorrect or has "
                      f"{r.get('failed')} failed ops", file=sys.stderr)
                ok = False
    if not ok:
        return 1

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs, "
          f"{args.pairs} alternating pairs; base {args.base}, head the "
          f"working tree")
    print(f"{'metric':<22} {'base median [q1, q3]':<34} "
          f"{'head median [q1, q3]':<34} {'change':>8}  head/base wins")
    for name, better in metrics:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        if name.startswith("sim_") and len(set(base + head)) != 1:
            print(f"perf_ab: {name} differs between runs: base {base}, "
                  f"head {head}", file=sys.stderr)
            ok = False
        sign = -1 if better == "lower" else 1
        head_wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        base_wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        cells = []
        for values in (base, head):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.4g} "
                         f"[{q1:.4g}, {q3:.4g}]")
        b_med, h_med = statistics.median(base), statistics.median(head)
        change = (h_med - b_med) / b_med * 100 if b_med else 0.0
        b_q1, b_q3 = quartiles(base)
        resolved = abs(h_med - b_med) > b_q3 - b_q1
        print(f"{name:<22} {cells[0]:<34} {cells[1]:<34} {change:>+7.1f}%  "
              f"{head_wins}/{base_wins}"
              f"{'  (gap > base IQR)' if resolved else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
