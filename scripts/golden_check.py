#!/usr/bin/env python3
"""Diffs every experiment bench's console output against tests/golden/.

Runs each bench_e* binary in BENCH_BINDIR once, from a scratch working
directory, with --trace/--metrics capture on, then:

  * masks the few host-dependent parts of the output (below) and compares
    it with tests/golden/<bench>.txt byte for byte;
  * compares the BENCH_{migration,nvm,qos,recovery}.json files the benches
    wrote into the scratch directory with the committed copies at the repo
    root, byte for byte (those rows are simulated, hence deterministic).

Everything the benches print is deterministic simulated output except:

  * the "[trace|metrics written to ...]" footer --trace/--metrics append;
  * bench_e11_scaleout's host-time, speedup, ops/host-s, RSS and bytes/user
    columns, and the two speedup figures in its "At K=..." sentence. The
    script runs it with SSMC_JOBS=4 so its K sweep has the same shape on
    every host.

Usage, from the repository root:

    python3 scripts/golden_check.py build-release/bench
    python3 scripts/golden_check.py --out bench-artifacts build-release/bench
    python3 scripts/golden_check.py --update build-release/bench

--out keeps the raw console outputs, traces, metrics and BENCH_*.json files
in that directory (default: a temporary directory, removed afterwards).
--update rewrites tests/golden/ from this run instead of comparing; use it
only when a change is meant to move an experiment's output, and say so in
the change description. Exit status is 1 if any output differs.
"""

import argparse
import difflib
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "golden")
EXACT_JSON = [
    "BENCH_migration.json",
    "BENCH_nvm.json",
    "BENCH_qos.json",
    "BENCH_recovery.json",
]

# bench_e11_scaleout table columns that measure the host, not the model.
E11_HOST_COLUMNS = {
    "host time (ms)",
    "host time (s)",
    "speedup vs K=1",
    "ops/host-s",
    "RSS (MiB)",
    "bytes/user",
}

# The footer: a blank line, "[trace written to ...]", "[metrics written to
# ...]" (either line only when its flag was given).
TRACE_FOOTER_RE = re.compile(r"\n\[trace written to [^\]\n]*\]\n")
METRICS_FOOTER_RE = re.compile(r"^\[metrics written to [^\]\n]*\]\n",
                               re.MULTILINE)
E11_SPEEDUP_RE = re.compile(
    r"^(At K=\d+ on \d+ CPUs: )[\d.]+(x host-time speedup \()[\d.]+(x per CPU)",
    re.MULTILINE)


def mask_e11_tables(text):
    """Replaces host-measured cells of bench_e11's tables with '*'.

    Column widths depend on the masked values, so every table line is
    re-rendered with single-space padding.
    """
    out = []
    masked = None  # Column indexes to mask in the current table.
    for line in text.split("\n"):
        if line.startswith("+") and line.endswith("+"):
            out.append("+")
            continue
        if not (line.startswith("|") and line.endswith("|")):
            masked = None
            out.append(line)
            continue
        cells = [c.strip() for c in line[1:-1].split("|")]
        if masked is None:  # Header row.
            masked = {i for i, c in enumerate(cells) if c in E11_HOST_COLUMNS}
        else:
            cells = ["*" if i in masked else c for i, c in enumerate(cells)]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


def mask(name, text):
    text = METRICS_FOOTER_RE.sub("", TRACE_FOOTER_RE.sub("", text))
    if name == "bench_e11_scaleout":
        text = E11_SPEEDUP_RE.sub(r"\1*\2*\3", text)
        text = mask_e11_tables(text)
    return text


def run_benches(bindir, workdir):
    """Runs every bench; returns {name: masked console output}."""
    outputs = {}
    env = dict(os.environ, SSMC_JOBS="4")
    for bench in sorted(glob.glob(os.path.join(bindir, "bench_e*"))):
        name = os.path.basename(bench)
        print(f"=== {name}", flush=True)
        result = subprocess.run(
            [
                os.path.abspath(bench),
                f"--trace={name}.trace.json",
                f"--metrics={name}.metrics.json",
            ],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            check=True,
            text=True,
        )
        with open(os.path.join(workdir, f"{name}.txt"), "w") as f:
            f.write(result.stdout)
        outputs[name] = mask(name, result.stdout)
    if not outputs:
        raise SystemExit(f"no bench_e* binaries in {bindir}")
    return outputs


def diff(label, want, got):
    """Prints a unified diff and returns True when `want` != `got`."""
    if want == got:
        return False
    sys.stdout.writelines(
        difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            fromfile=f"{label} (golden)",
            tofile=f"{label} (fresh)",
        )
    )
    return True


def read(path):
    with open(path) as f:
        return f.read()


def check(outputs, workdir):
    failed = []
    goldens = {
        os.path.basename(p)[: -len(".txt")]
        for p in glob.glob(os.path.join(GOLDEN_DIR, "bench_e*.txt"))
    }
    for name in sorted(goldens - outputs.keys()):
        print(f"{name}: golden output exists but the bench did not run")
        failed.append(name)
    for name, got in sorted(outputs.items()):
        golden = os.path.join(GOLDEN_DIR, f"{name}.txt")
        if not os.path.exists(golden):
            print(f"{name}: no golden output in tests/golden/")
            failed.append(name)
        elif diff(name, read(golden), got):
            failed.append(name)
    for json_name in EXACT_JSON:
        fresh = os.path.join(workdir, json_name)
        if not os.path.exists(fresh):
            print(f"{json_name}: not written by any bench")
            failed.append(json_name)
        elif diff(json_name, read(os.path.join(REPO_ROOT, json_name)),
                  read(fresh)):
            failed.append(json_name)
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("bindir", help="directory holding bench_e* binaries")
    parser.add_argument("--out", help="keep raw outputs in this directory")
    parser.add_argument("--update", action="store_true",
                        help="rewrite tests/golden/ instead of comparing")
    args = parser.parse_args()

    workdir = args.out or tempfile.mkdtemp(prefix="golden-")
    os.makedirs(workdir, exist_ok=True)
    try:
        outputs = run_benches(args.bindir, workdir)
        if args.update:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            for name, text in outputs.items():
                with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), "w") as f:
                    f.write(text)
            print(f"Rewrote {len(outputs)} golden outputs in tests/golden/.")
            return 0
        failed = check(outputs, workdir)
    finally:
        if args.out is None:
            shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        print(f"FAIL: {len(failed)} output(s) differ from the golden copies: "
              f"{', '.join(failed)}")
        return 1
    print(f"OK: {len(outputs)} bench outputs and {len(EXACT_JSON)} JSON "
          "files match byte for byte.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
