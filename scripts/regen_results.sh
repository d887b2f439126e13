#!/usr/bin/env bash
# Regenerate every committed experiment file in one command:
#
#   scripts/regen_results.sh
#
# Runs every crates/bench/src/bin/exp_*.rs at full scale on its own seed
# with no trace export (BENCH_SCALE=1, BENCH_SEED and BENCH_TRACE unset,
# whatever the caller's environment says) into results/ (21 reports and
# the O5 move plan), from ${CARGO_TARGET_DIR:-target}, and validates the
# whole directory with check_telemetry.
#
# Every report but exp_c12_hierarchy is virtual-time deterministic:
# same toolchain + same per-experiment seed
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
BIN="${CARGO_TARGET_DIR:-target}/release"

for src in crates/bench/src/bin/exp_*.rs; do
  exp="$(basename "$src" .rs)"
  echo "== $exp =="
  env -u BENCH_SEED -u BENCH_TRACE BENCH_SCALE=1 BENCH_RESULTS_DIR=results "$BIN/$exp" >/dev/null
done
echo "== check_telemetry =="
BENCH_RESULTS_DIR=results "$BIN/check_telemetry"
echo "regen complete: results/ is fresh"
