#!/usr/bin/env bash
# Tier-1 verification: build and run the full test suite in Release, then
# again under AddressSanitizer + UndefinedBehaviorSanitizer (including the
# E13 journal crash-injection sweep — torn programs + remount is exactly
# where a stale-pointer or double-free would hide), then run the
# parallel-harness tests (thread pool, parallel runner, sharded scale-out,
# log sink, the shared Zipf table) under ThreadSanitizer. Run from the repository root:
#
#   scripts/check.sh            # all three configurations
#   scripts/check.sh release    # just the optimized build
#   scripts/check.sh asan       # just the sanitizer build
#   scripts/check.sh tsan       # just the ThreadSanitizer leg
#
# Two more legs are not in the default list. The first is a measurement,
# not a gate; the second is the byte-identical bench check CI's bench-smoke
# job runs (every experiment bench's output, BENCH_*.json, --metrics JSON
# and trace digest against tests/golden/, then one perfbench run per
# workload against tests/golden/perfbench_sim.json; ~10 min on 4 vCPUs):
#
#   scripts/check.sh coverage   # gcov build + tests, per-file src/ coverage
#   scripts/check.sh golden     # release build, golden_check.py, then
#                               # perfbench_sim_check.py
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ $# -eq 0 ]; then presets=(release asan tsan); fi

for preset in "${presets[@]}"; do
  if [ "${preset}" = golden ]; then
    echo "=== golden: release build ==="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)"
    echo "=== golden: bench outputs vs tests/golden ==="
    python3 scripts/golden_check.py build-release/bench
    echo "=== golden: perfbench simulated metrics vs tests/golden ==="
    python3 scripts/perfbench_sim_check.py
    continue
  fi
  echo "=== ${preset}: configure ==="
  cmake --preset "${preset}"
  echo "=== ${preset}: build ==="
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "=== ${preset}: test ==="
  ctest --preset "${preset}"
  if [ "${preset}" = coverage ]; then
    echo "=== coverage: src/ line coverage ==="
    python3 scripts/coverage_report.py build-coverage
  fi
done
echo "All checks passed."
