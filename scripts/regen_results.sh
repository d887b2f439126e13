#!/usr/bin/env bash
# Regenerate every committed experiment artifact and both regression
# baselines in one deterministic command:
#
#   scripts/regen_results.sh
#
# Pass 1 runs all exp_* binaries at full scale into results/ (reports,
# forensics exemplars, heat top-K, move plans), validates
# the whole directory with check_telemetry, then promotes the fresh
# BENCH_summary.json to results/BENCH_baseline.json.
#
# Pass 2 repeats the sweep at BENCH_SCALE=10 (the exact reduced scale
# CI uses) into a scratch directory and promotes that summary to
# results/BENCH_baseline_smoke.json, so the CI perf gate compares
# smoke-scale runs against a smoke-scale baseline.
#
# Everything is virtual-time deterministic: same toolchain + same seed
# (BENCH_SEED, default per-experiment) reproduces byte-identical JSON.
# Run this after any intentional perf or schema change and commit the
# refreshed results/ wholesale — see DESIGN.md (baseline-refresh
# policy) for when that is legitimate.

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

run_sweep() {
  local dir="$1" scale="${2-}"
  mkdir -p "$dir"
  for exp in "${EXPERIMENTS[@]}"; do
    echo "== $exp (BENCH_SCALE=${scale:-1} -> $dir) =="
    BENCH_RESULTS_DIR="$dir" BENCH_SCALE="${scale:-1}" "./target/release/$exp" >/dev/null
  done
  echo "== check_telemetry ($dir) =="
  BENCH_RESULTS_DIR="$dir" ./target/release/check_telemetry
}

# Pass 1: full scale -> committed results/ + full-scale baseline.
run_sweep results
cp results/BENCH_summary.json results/BENCH_baseline.json
echo "refreshed results/BENCH_baseline.json"

# Pass 2: CI smoke scale -> smoke baseline only (scratch dir discarded).
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
run_sweep "$SMOKE_DIR" 10
cp "$SMOKE_DIR/BENCH_summary.json" results/BENCH_baseline_smoke.json
echo "refreshed results/BENCH_baseline_smoke.json"

# Sanity: the fresh artifacts gate green against the baselines we just
# promoted (tautological by construction, but catches tooling drift).
./target/release/check_regression results/BENCH_baseline.json results/BENCH_summary.json
./target/release/check_regression results/BENCH_baseline_smoke.json "$SMOKE_DIR/BENCH_summary.json"
echo "regen complete: results/ + both baselines are fresh"
