#!/usr/bin/env bash
# The byte-identity oracle: rerun every experiment whose report is
# reproducible on any host and `cmp` it against the committed results/.
#
#   scripts/check_reports.sh
#
# Exits non-zero and names the differing files on mismatch (~10 s). A
# refactor of the verb path or a telemetry plane that leaves this green
# has provably not moved a committed number: not in the rows and
# headlines of any listed report, nor in the `timeseries`, `alerts` and
# `forensics` sections that the observability reports (exp_c13,
# exp_e1, exp_o1-o5) carry, nor in O5's `utilization` section and the
# three artifacts.
#
# Excluded (8 of 23): exp_a1_ablations, exp_c2_locks,
# exp_c3_cc_protocols, exp_c10_dsn_vs_dsm, exp_c11_commit,
# exp_c12_hierarchy, exp_f2_scaling, exp_f3_architectures. Their sessions
# run on free-running OS threads, so the interleaving — and with it the
# report — differs run to run even on one host. ROADMAP's deterministic
# virtual-time scheduler is what moves them onto this list.

set -euo pipefail
cd "$(dirname "$0")/.."

EXPERIMENTS=(
  exp_c1_cache_ratio
  exp_c4_timestamps
  exp_c5_buffer_policies
  exp_c6_cache_vs_offload
  exp_c7_durability
  exp_c8_availability
  exp_c9_indexes
  exp_c13_chaos
  exp_e1_reshard
  exp_f1_pooling
  exp_o1_contention
  exp_o2_timeline
  exp_o3_watchdog
  exp_o4_tailpath
  exp_o5_heatmap
)
ARTIFACTS=(
  exp_o4_tailpath_exemplars
  exp_o5_heatmap_heat
  exp_o5_heatmap_moveplan
)

cargo build --release
BIN="${CARGO_TARGET_DIR:-target}/release"

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

for exp in "${EXPERIMENTS[@]}"; do
  BENCH_RESULTS_DIR="$OUT" "$BIN/$exp" >/dev/null
done

differing=()
for name in "${EXPERIMENTS[@]}" "${ARTIFACTS[@]}"; do
  cmp -s "results/$name.json" "$OUT/$name.json" || differing+=("$name.json")
done

if ((${#differing[@]})); then
  echo "check_reports: ${#differing[@]} file(s) differ from results/:" >&2
  printf '  %s\n' "${differing[@]}" >&2
  exit 1
fi
echo "check_reports: ${#EXPERIMENTS[@]} reports + ${#ARTIFACTS[@]} artifacts byte-identical to results/"
