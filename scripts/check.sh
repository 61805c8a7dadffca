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
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ $# -eq 0 ]; then presets=(release asan tsan); fi

for preset in "${presets[@]}"; do
  echo "=== ${preset}: configure ==="
  cmake --preset "${preset}"
  echo "=== ${preset}: build ==="
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "=== ${preset}: test ==="
  ctest --preset "${preset}"
done
echo "All checks passed."
