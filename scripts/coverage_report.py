#!/usr/bin/env python3
"""Per-file gcov line coverage of src/ from a --coverage build.

Run after the build's tests (scripts/check.sh coverage does both):

  python3 scripts/coverage_report.py build-coverage
  python3 scripts/coverage_report.py build-coverage src/fs/memory_fs.cc

Every .gcda file under the build directory is read with `gcov --json-format
--stdout`. A header compiled into several objects (a template, an inline
function) counts a line as run when any object ran it. Prints one row per
src/ file (lines run, lines instrumented, percent) and a total. Each file
named after the build directory also gets its never-run line numbers. This
is a measurement, not a gate: it exits non-zero only when gcov fails or
there is no coverage data.
"""

import json
import os
import subprocess
import sys
from collections import defaultdict


def ranges(lines):
    """Compresses sorted line numbers into "a-b" runs."""
    out = []
    for n in lines:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    build = os.path.abspath(sys.argv[1])
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(repo, "src") + os.sep
    show = {os.path.normpath(os.path.join(repo, f)) for f in sys.argv[2:]}

    gcdas = sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(build)
        for name in names
        if name.endswith(".gcda"))
    if not gcdas:
        sys.exit(f"no .gcda files under {build}: build the coverage preset "
                 "and run its tests first")

    # file -> line -> executed anywhere
    run = defaultdict(dict)
    for gcda in gcdas:
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "-o", os.path.dirname(gcda),
             gcda],
            cwd=build, check=True, capture_output=True, text=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            data = json.loads(doc)
            cwd = data.get("current_working_directory", build)
            for f in data["files"]:
                path = os.path.normpath(os.path.join(cwd, f["file"]))
                if not path.startswith(src):
                    continue
                if not f["lines"]:
                    continue
                lines = run[path]
                for line in f["lines"]:
                    n = line["line_number"]
                    lines[n] = lines.get(n, False) or line["count"] > 0

    total_run = total = 0
    width = max(len(os.path.relpath(p, repo)) for p in run)
    for path in sorted(run):
        lines = run[path]
        hit = sum(lines.values())
        total_run += hit
        total += len(lines)
        rel = os.path.relpath(path, repo)
        print(f"{rel:<{width}}  {hit:5d} / {len(lines):5d}  "
              f"{100.0 * hit / len(lines):5.1f}%")
    print(f"{'total':<{width}}  {total_run:5d} / {total:5d}  "
          f"{100.0 * total_run / max(total, 1):5.1f}%")
    for path in sorted(show):
        missed = sorted(n for n, hit in run.get(path, {}).items() if not hit)
        print(f"\n{os.path.relpath(path, repo)} never run: "
              f"{ranges(missed) or 'none'}")


if __name__ == "__main__":
    main()
