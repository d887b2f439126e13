#!/usr/bin/env bash
# The observed-path overhead gate: what the five telemetry planes cost in
# wall clock, as the benchmark's own same-process ratio
#
#   telemetry.host_overhead_ratio
#     = host ns per txn with the planes on / with the planes off
#
# on `direct_rmw` (24 verbs per txn, no cache: the workload on which the
# planes weigh most). Both sides run in one process on one runner, so
# runner speed cancels. Every `exp_*` binary runs with the planes on:
# this ratio, not the verb path, bounds regen_results.sh and
# check_reports.sh.
#
#   scripts/check_overhead.sh
#
# Runs the already-built benchmark binary (~3 s); build it first with
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Fails above LIMIT, set with headroom over the 1.8 this scale measures.

set -euo pipefail
cd "$(dirname "$0")/.."

LIMIT=2.5
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

last_line="$("$BIN" --workload direct_rmw --seconds 1 --trace 1 --seed 42 | tail -n 1)"
ratio="$(grep -o '"telemetry.host_overhead_ratio":{"value":[0-9.eE+-]*' <<<"$last_line" | sed 's/.*://')"
if [[ -z "$ratio" ]]; then
  echo "check_overhead: no telemetry.host_overhead_ratio in the benchmark's last line" >&2
  exit 1
fi

if awk -v r="$ratio" -v limit="$LIMIT" 'BEGIN { exit !(r <= limit) }'; then
  echo "check_overhead: observed/bare host time per txn on direct_rmw = $ratio (limit $LIMIT)"
else
  echo "check_overhead: observed/bare host time per txn on direct_rmw = $ratio exceeds $LIMIT" >&2
  exit 1
fi
