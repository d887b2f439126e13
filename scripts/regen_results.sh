#!/usr/bin/env bash
# Regenerate every committed experiment artifact in one command:
#
#   scripts/regen_results.sh
#
# Runs all exp_* binaries at full scale into results/ (reports,
# forensics exemplars, heat lists, move plans) and validates the whole
# directory with check_telemetry. The fresh results/BENCH_summary.json
# is also the baseline `check_regression` compares later runs against.
#
# The reports `scripts/check_reports.sh` lists are virtual-time
# deterministic: same toolchain + same seed (BENCH_SEED, default
# per-experiment) reproduces byte-identical JSON. Run this after any
# intentional perf or schema change and commit the refreshed results/
# wholesale — see DESIGN.md (baseline-refresh policy) for when that is
# legitimate.

set -euo pipefail
cd "$(dirname "$0")/.."

EXPERIMENTS=(
  exp_c1_cache_ratio
  exp_c2_locks
  exp_c3_cc_protocols
  exp_c4_timestamps
  exp_c5_buffer_policies
  exp_c6_cache_vs_offload
  exp_c7_durability
  exp_c8_availability
  exp_c9_indexes
  exp_c10_dsn_vs_dsm
  exp_c11_commit
  exp_c12_hierarchy
  exp_c13_chaos
  exp_f1_pooling
  exp_f2_scaling
  exp_f3_architectures
  exp_a1_ablations
  exp_e1_reshard
  exp_o1_contention
  exp_o2_timeline
  exp_o3_watchdog
  exp_o4_tailpath
  exp_o5_heatmap
)

echo "== build (release) =="
cargo build --release

for exp in "${EXPERIMENTS[@]}"; do
  echo "== $exp =="
  BENCH_RESULTS_DIR=results BENCH_SCALE=1 "./target/release/$exp" >/dev/null
done
echo "== check_telemetry =="
BENCH_RESULTS_DIR=results ./target/release/check_telemetry
echo "regen complete: results/ is fresh"
