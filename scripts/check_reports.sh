#!/usr/bin/env bash
# The byte-identity oracle: rerun every experiment whose report is
# reproducible on any host and `cmp` what it writes against the
# committed results/.
#
#   scripts/check_reports.sh
#
# Runs every crates/bench/src/bin/exp_*.rs but the one exclusion below,
# then `cmp`s every exp_*.json the runs wrote (20 reports and the O5
# move plan) against results/. Exits non-zero and names the differing
# files on mismatch (~10 s after the build on a 2-thread VM). A refactor of the verb path or a telemetry
# plane that leaves this green has provably not moved a committed
# number: not in the rows and headlines of any report, nor in the
# `timeseries`, `alerts` and `forensics` sections that the
# observability reports (exp_c13, exp_e1, exp_o1, exp_o4, exp_o5)
# carry, nor in O5's `utilization` section and move plan. The
# thread-driven reports are checked too: `run_cluster_workload` starts
# each transaction in virtual-time order, so they come out the same on
# any host and core count (`taskset -c 0 scripts/check_reports.sh`
# checks the one-core case).
#
# The binaries run at full scale on their own seeds with no trace
# export (BENCH_SCALE=1, BENCH_SEED and BENCH_TRACE unset) whatever the
# caller's environment says, from ${CARGO_TARGET_DIR:-target}.
#
# Excluded: exp_c12_hierarchy. It drives its own threads for a CAS
# storm, whose point is overlap the transaction gate would remove; it
# joins the check once verbs, not transactions, run in virtual-time
# order.

set -euo pipefail
cd "$(dirname "$0")/.."

EXCLUDED=exp_c12_hierarchy

cargo build --release
BIN="${CARGO_TARGET_DIR:-target}/release"

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

runs=0
for src in crates/bench/src/bin/exp_*.rs; do
  exp="$(basename "$src" .rs)"
  [[ "$exp" == "$EXCLUDED" ]] && continue
  env -u BENCH_SEED -u BENCH_TRACE BENCH_SCALE=1 BENCH_RESULTS_DIR="$OUT" "$BIN/$exp" >/dev/null
  runs=$((runs + 1))
done

written=0
differing=()
for file in "$OUT"/exp_*.json; do
  name="$(basename "$file")"
  written=$((written + 1))
  cmp -s "results/$name" "$file" || differing+=("$name")
done

if ((${#differing[@]})); then
  echo "check_reports: ${#differing[@]} file(s) differ from results/:" >&2
  printf '  %s\n' "${differing[@]}" >&2
  exit 1
fi
echo "check_reports: $written files from $runs experiments byte-identical to results/"
