#!/usr/bin/env python3
"""Host-time benchmark report against the committed BENCH_*.json baselines.

Prints freshly measured host-time numbers next to the committed baselines at
the repo root. It never fails: host time measured on one machine says little
about a baseline recorded on another (two back-to-back runs of an unchanged
tree on one host already moved the million-user bytes_per_user by 17%), so
these rows are a report, not a gate. Compare host time only as a same-runner
A/B, base and head built on one machine.

Which rows are reported is decided by the fresh file's basename:

BENCH_micro.json — the hot paths a change is most likely to slow:

  * BM_SimCoreReplay            — whole-machine replay (sim_ops_per_s);
  * BM_MachineConstruct         — building and destroying one notebook
                                  machine, a fleet user's setup (ns_per_op);
  * BM_TraceGenerationUser      — generating one fleet user's two-second
                                  trace (ns_per_op);
  * BM_TraceReplay              — replaying a one-minute office trace on a
                                  fresh notebook machine: replayer and FS
                                  data path (ns_per_op);
  * BM_LargeStoreRandOverwrite/65536 — FTL write + cleaning under steady
                                  overwrite pressure (ns_per_op);
  * BM_CleaningRelocation/{512,4096} — the cleaner's zero-copy relocation
                                  path in isolation (ns_per_op).

BENCH_scaleout.json — the million-user fleet row:

  * scaleout/users/1000000 sim_ops_per_host_s — streaming replay rate at
                                  fleet scale;
  * scaleout/users/1000000 bytes_per_user — resident footprint per user.

Deterministic simulated results are not reported here: every bench_e*
console table and the BENCH_{migration,nvm,qos,recovery}.json files are
compared byte for byte by scripts/golden_check.py.

    python3 scripts/bench_gate.py build-release/bench/BENCH_micro.json \
        bench-artifacts/BENCH_scaleout.json
"""

import json
import os
import sys

# basename -> [(op, key, higher_is_better)], matched against row["op"].
REPORTS = {
    "BENCH_micro.json": [
        ("BM_SimCoreReplay", "sim_ops_per_s", True),
        ("BM_MachineConstruct", "ns_per_op", False),
        ("BM_TraceGenerationUser", "ns_per_op", False),
        ("BM_TraceReplay", "ns_per_op", False),
        ("BM_LargeStoreRandOverwrite/65536", "ns_per_op", False),
        ("BM_CleaningRelocation/512", "ns_per_op", False),
        ("BM_CleaningRelocation/4096", "ns_per_op", False),
    ],
    "BENCH_scaleout.json": [
        ("scaleout/users/1000000", "sim_ops_per_host_s", True),
        ("scaleout/users/1000000", "bytes_per_user", False),
    ],
}


def load_value(path, op, key):
    with open(path) as f:
        rows = json.load(f)
    for row in rows:
        if row.get("op") == op:
            value = row.get(key)
            return None if value is None else float(value)
    return None


def report_file(fresh_path, baseline_path, rows):
    for op, key, higher_is_better in rows:
        baseline = load_value(baseline_path, op, key)
        fresh = load_value(fresh_path, op, key)
        if baseline is None or fresh is None or baseline == 0 or fresh == 0:
            print(f"{op} [{key}]: baseline {baseline}, measured {fresh}")
            continue
        # Normalize so ratio > 1 always means "got better".
        ratio = fresh / baseline if higher_is_better else baseline / fresh
        print(
            f"{op} [{key}]: baseline {baseline:,.1f}, "
            f"measured {fresh:,.1f} ({ratio:.2%} of baseline)"
        )


def main():
    if len(sys.argv) < 2:
        raise SystemExit(
            f"usage: {sys.argv[0]} <fresh BENCH_*.json> [<more fresh files>]"
        )
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for fresh_path in sys.argv[1:]:
        name = os.path.basename(fresh_path)
        rows = REPORTS.get(name)
        if rows is None:
            raise SystemExit(
                f"{fresh_path}: no report rows defined for {name} "
                f"(known: {', '.join(sorted(REPORTS))})"
            )
        report_file(fresh_path, os.path.join(repo_root, name), rows)
    print("Host-time report only (never fails); compare host numbers as a "
          "same-runner A/B.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
