#!/usr/bin/env bash
# Regenerate every committed experiment file in one command:
#
#   scripts/regen_results.sh
#
# Runs every crates/bench/src/bin/exp_*.rs at full scale into results/
# (21 reports and the O5 move plan) and validates the whole directory
# with check_telemetry.
#
# Every report but exp_c12_hierarchy is virtual-time deterministic:
# same toolchain + same seed (BENCH_SEED, default per-experiment)
# reproduces byte-identical JSON on any host and core count, and
# `scripts/check_reports.sh` holds them to that. So a regeneration is a
# reviewed diff: run this after any intentional perf or schema change
# and commit the refreshed results/ wholesale — see DESIGN.md
# (baseline-refresh policy) for when that is legitimate. C12 drives its
# own threads, so its report changes on every regeneration.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

for src in crates/bench/src/bin/exp_*.rs; do
  exp="$(basename "$src" .rs)"
  echo "== $exp =="
  BENCH_RESULTS_DIR=results BENCH_SCALE=1 "./target/release/$exp" >/dev/null
done
echo "== check_telemetry =="
BENCH_RESULTS_DIR=results ./target/release/check_telemetry
echo "regen complete: results/ is fresh"
