#!/usr/bin/env bash
# Regenerates the experiment artifacts after a change that may move numbers:
# rebuilds the release preset, runs every experiment bench (E1-E12, E14,
# E16) plus the microbenchmarks, and refreshes the machine-readable result
# files (BENCH_micro.json, BENCH_scaleout.json, BENCH_migration.json,
# BENCH_qos.json, BENCH_nvm.json) at the repository root. bench_e11_scaleout
# runs with SSMC_JOBS=4 so BENCH_scaleout.json does not take the host's job
# count. CI's bench-smoke
# leg diffs every bench's console output against tests/golden/ and the
# simulated BENCH_{migration,nvm,qos,recovery}.json files against the
# committed copies byte for byte (scripts/golden_check.py), and reports
# BM_SimCoreReplay, BM_LargeStoreRandOverwrite/65536, BM_CleaningRelocation,
# and the million-user scale-out row against BENCH_micro.json /
# BENCH_scaleout.json without gating them (scripts/bench_gate.py).
#
#   scripts/regen_experiments.sh             # everything
#   scripts/regen_experiments.sh --no-micro  # skip bench_micro/e11 (fast)
#
# Per-bench console output lands in experiments_out/<bench>.txt so a diff
# against the previous run shows exactly which tables moved; EXPERIMENTS.md
# quotes those tables, so any diff here means EXPERIMENTS.md needs a matching
# prose update and tests/golden/ a refresh (scripts/golden_check.py
# --update). The numbers are deterministic: an unchanged simulator
# reproduces them byte-for-byte. The E8 FIFO-vs-priority scheduling ablation
# (opt-in: bench_e8_banks --tail) is captured alongside the default output.
set -euo pipefail
cd "$(dirname "$0")/.."

run_micro=1
if [ "${1:-}" = "--no-micro" ]; then run_micro=0; fi

echo "=== release: configure + build ==="
cmake --preset release
cmake --build --preset release -j "$(nproc)"

bindir="build-release/bench"
outdir="experiments_out"
mkdir -p "${outdir}"

# The JSON artifact a bench writes (passed as --json=<path>), if any.
json_artifact() {
  case "$1" in
    bench_e11_scaleout) echo "BENCH_scaleout.json" ;;
    bench_e12_migration) echo "BENCH_migration.json" ;;
    bench_e13_recovery) echo "BENCH_recovery.json" ;;
    bench_e14_qos) echo "BENCH_qos.json" ;;
    bench_e16_nvm) echo "BENCH_nvm.json" ;;
  esac
}

for bench in "${bindir}"/bench_e[0-9]*; do
  name="$(basename "${bench}")"
  case "${name}" in
    bench_e11_scaleout) continue ;;  # runs below, with the micro suite
  esac
  args=()
  artifact="$(json_artifact "${name}")"
  if [ -n "${artifact}" ]; then args+=("--json=${artifact}"); fi
  echo "=== ${name} ==="
  "${bench}" "${args[@]}" | tee "${outdir}/${name}.txt"
done
# bench_e12_migration, bench_e13_recovery, bench_e14_qos, and bench_e16_nvm
# (in the loop above) refresh BENCH_migration.json / BENCH_recovery.json /
# BENCH_qos.json / BENCH_nvm.json at the repo root; fail loudly if they did
# not.
test -s BENCH_migration.json
test -s BENCH_recovery.json
test -s BENCH_qos.json
test -s BENCH_nvm.json

echo "=== bench_e8_banks --tail (scheduling ablation) ==="
"${bindir}/bench_e8_banks" --tail | tee "${outdir}/bench_e8_banks_tail.txt"

if [ "${run_micro}" -eq 1 ]; then
  echo "=== bench_e11_scaleout ==="
  # A fixed job count, as scripts/golden_check.py uses, so the K sweep and
  # its host columns do not depend on the machine's CPU count.
  SSMC_JOBS=4 "${bindir}/bench_e11_scaleout" \
    "--json=$(json_artifact bench_e11_scaleout)" |
    tee "${outdir}/bench_e11_scaleout.txt"

  echo "=== bench_micro ==="
  (cd "${bindir}" && ./bench_micro) | tee "${outdir}/bench_micro.txt"
  cp "${bindir}/BENCH_micro.json" BENCH_micro.json
fi

echo
echo "Done. Console tables: ${outdir}/ ; JSON artifacts refreshed in repo root."
echo "If any table changed, update the matching section of EXPERIMENTS.md."
