#!/usr/bin/env python3
"""Builds the ssmc benchmark program from this checkout's sources and runs it.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload <office|writehot|nvm|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to the
checkout root; an up-to-date build costs about a second. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. With
--trace 1 the first spans of the run are written to
<build dir>/spans/<workload>-<seed>.json (Chrome trace format). Exits non-zero,
printing no result, if the build or the run fails.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("office", "writehot", "nvm", "fleet")


def build(build_dir: pathlib.Path) -> pathlib.Path:
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        program = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(exist_ok=True)
        command += ["--spans",
                    str(spans_dir / f"{args.workload}-{args.seed}.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
