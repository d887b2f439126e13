#!/usr/bin/env bash
# Five gates read off four runs of the benchmark, one verdict each.
#
# From one `direct_rmw` run (3-5 rmw per txn on 4 memory nodes x 2
# replicas, no cache: two doorbells of ~24 verbs per txn, the workload on
# which the planes weigh most):
#
# 1. The observed-path overhead: what the four telemetry planes cost in
#    wall clock, as the benchmark's own same-process ratio
#
#      telemetry.host_overhead_ratio
#        = host ns per txn with the planes on / with the planes off
#
#    Both sides run in one process on one runner, so runner speed
#    cancels. Every `exp_*` binary runs with the planes on: this ratio,
#    not the verb path, bounds regen_results.sh and check_reports.sh.
#    Fails above LIMIT: one run, one verdict.
# 2. The two-doorbell transaction: `rdma-sim.wire_rts_per_txn`, exact on
#    the sim clock (2.10 at this seed: acquire + release, plus the lock
#    ladder of the 1-in-50 ghosted txns). A change that un-batches the
#    2PL path (16.14 when every verb was its own round trip) fails
#    above WIRE_RT_LIMIT.
#
# From one `coherent_rw` run (3b invalidate, 2 nodes, single-op txns):
#
# 3. The coherent-cache transaction is two doorbells too:
#    `rdma-sim.wire_rts_per_txn`, exact on the sim clock (2.1823 at this
#    seed = 2 + the 0.1823 coherence messages per txn, which the metric
#    counts). The sharer word rides the lock word's round trips; a change
#    that gives the directory round trips of its own again (4.4187 when
#    it had them) fails above COHERENT_WIRE_RT_LIMIT.
#
# From one `index_probe` run (B+tree with cached internals and RACE hash,
# 90 % lookups):
#
# 4. An index lookup is one round trip: `index.btree_sim_rts_per_search`
#    and `index.race_sim_rts_per_get`, exact on the sim clock (1.0000
#    each: the leaf READ; the bucket READ with its validation READ riding
#    the same doorbell). A change that gives the root pointer, a
#    refilled internal node or the validation read a round trip of its
#    own again (2.78 and 2.00 when they had them) fails above
#    INDEX_RT_LIMIT.
#
# From one `xshard_2pc` run (3c, 2 nodes, 10 % cross-shard transfers):
#
# 5. A cross-shard transaction is one message round trip:
#    `rdma-sim.msgs_per_txn`, exact on the sim clock (0.2008 at this seed:
#    the coordinator's `PrepareCommit` and the last agent's vote, on 10 %
#    of the txns). A change that brings back the decision and ack round of
#    classic two-phase commit (0.4016 when it had it) fails above
#    MSG_LIMIT.
#
#   scripts/check_overhead.sh
#
# Runs the already-built benchmark binary (~3 s per run); build it first with
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml

set -euo pipefail
cd "$(dirname "$0")/.."

LIMIT=2.5
WIRE_RT_LIMIT=4
COHERENT_WIRE_RT_LIMIT=2.5
INDEX_RT_LIMIT=1.1
MSG_LIMIT=0.3
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

# metric <name>: its value in the benchmark's last-line JSON.
metric() {
  local value
  value="$(grep -o "\"$1\":{\"value\":[0-9.eE+-]*" <<<"$last_line" | sed 's/.*://')"
  if [[ -z "$value" ]]; then
    echo "check_overhead: no $1 in the benchmark's last line" >&2
    exit 1
  fi
  echo "$value"
}

# gate <what> <value> <limit>: fail unless value <= limit.
gate() {
  if awk -v v="$2" -v limit="$3" 'BEGIN { exit !(v <= limit) }'; then
    echo "check_overhead: $1 = $2 (limit $3)"
  else
    echo "check_overhead: $1 = $2 exceeds $3" >&2
    exit 1
  fi
}

# run <workload>: the benchmark's last-line JSON of one traced 1 s run.
run() {
  "$BIN" --workload "$1" --seconds 1 --trace 1 --seed 42 | tail -n 1
}

last_line="$(run direct_rmw)"
ratio="$(metric telemetry.host_overhead_ratio)"
wire_rts="$(metric rdma-sim.wire_rts_per_txn)"
last_line="$(run coherent_rw)"
coherent_wire_rts="$(metric rdma-sim.wire_rts_per_txn)"
last_line="$(run index_probe)"
btree_rts="$(metric index.btree_sim_rts_per_search)"
race_rts="$(metric index.race_sim_rts_per_get)"
last_line="$(run xshard_2pc)"
msgs="$(metric rdma-sim.msgs_per_txn)"
gate "wire round trips per txn on direct_rmw" "$wire_rts" "$WIRE_RT_LIMIT"
gate "wire round trips per txn on coherent_rw" "$coherent_wire_rts" "$COHERENT_WIRE_RT_LIMIT"
gate "wire round trips per B+tree search on index_probe" "$btree_rts" "$INDEX_RT_LIMIT"
gate "wire round trips per RACE get on index_probe" "$race_rts" "$INDEX_RT_LIMIT"
gate "messages per txn on xshard_2pc" "$msgs" "$MSG_LIMIT"
gate "observed/bare host time per txn on direct_rmw" "$ratio" "$LIMIT"
