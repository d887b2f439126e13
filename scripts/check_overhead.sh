#!/usr/bin/env bash
# Six gates read off five runs of the benchmark, one verdict each.
#
# From one `direct_rmw` run (3-5 rmw per txn on 4 memory nodes x 2
# replicas, no cache: two doorbells of ~24 verbs per txn, the workload on
# which the planes weigh most):
#
# 1. The observed-path overhead: what the telemetry planes (windowed
#    series, flight-recorder ring, forensics) cost in wall clock, as the
#    benchmark's own same-process ratio
#
#      telemetry.host_overhead_ratio
#        = host ns per txn with the planes on / with the planes off
#
#    Both sides run in one process on one runner, so runner speed
#    cancels. Every `exp_*` binary runs with the planes on: this ratio,
#    not the verb path, bounds regen_results.sh and check_reports.sh.
#    Fails above LIMIT: one run, one verdict. Since the series and the
#    contention profile became folds over the flight-recorder ring (the
#    ring is the only recorder on the verb path), twelve runs on a
#    2-thread VM read 1.03 / 1.42 / 1.49 (min / median / max), against
#    1.30 / 1.37 / 1.51 for the parent binary in runs alternated with
#    them. Twenty runs with utilization folded and the series recorded
#    beside the ring once read up to 1.86, which is why LIMIT stays 2.5
#    rather than ROADMAP E's 1.8.
# 2. The two-doorbell transaction: `rdma-sim.wire_rts_per_txn`, exact on
#    the sim clock (2.10 at this seed: acquire + release, plus the lock
#    ladder of the 1-in-50 ghosted txns). A change that un-batches the
#    2PL path (16.14 when every verb was its own round trip) fails
#    above WIRE_RT_LIMIT.
#
# From one `coherent_rw` run (3b invalidate, 2 nodes, single-op txns),
# 6 s long like the benchmark's own runs, so the pool is past its
# warm-up (at 1 s its hit rate is 0.49, at 6 s 0.68):
#
# 3. A read of resident pages costs no round trip, and any other
#    coherent-cache transaction is two doorbells:
#    `rdma-sim.wire_rts_per_txn`, exact on the sim clock (1.1096 at this
#    seed = 2 on the half of the txns that are not resident reads + the
#    0.127 invalidations per txn the sessions send, which the metric
#    counts; the acks are the node handlers' verbs). A change that takes
#    the locks for a resident read again (2.2540 when it did, the acks
#    then counted too) or gives the directory round trips of its own
#    fails above COHERENT_WIRE_RT_LIMIT.
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
#    `rdma-sim.msgs_per_txn`, exact on the sim clock. The benchmark counts
#    the sessions' sends only, and the last agent's vote is its node
#    handler's send, so this reads 0.1004 at this seed: the coordinator's
#    `PrepareCommit` on 10 % of the txns. A change that brings back the
#    decision round of classic two-phase commit (0.2008 on the sessions)
#    or serves the vote on a session again (0.2008 too) fails above
#    MSG_LIMIT.
#
# From one `fit_read` run (3c, 1 session, half the records cached, 95/5
# zipf-0.99 16-op txns):
#
# 6. A single-shard transaction whose writes need no fetched byte is one
#    doorbell: `rdma-sim.wire_rts_per_txn`, exact on the sim clock
#    (1.0735 at this seed: the write-through rides the page fetch when
#    every page written was a hit). A change that gives the write-through
#    a round trip of its own again (1.461 when it had one) fails above
#    CACHED_WIRE_RT_LIMIT.
#
#   scripts/check_overhead.sh
#
# Runs the already-built benchmark binary (~3 s per 1 s run, ~5 s for the
# 6 s one); build it first with
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml

set -euo pipefail
cd "$(dirname "$0")/.."

LIMIT=2.5
WIRE_RT_LIMIT=4
COHERENT_WIRE_RT_LIMIT=1.2
INDEX_RT_LIMIT=1.1
MSG_LIMIT=0.15
CACHED_WIRE_RT_LIMIT=1.2
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

# run <workload> [seconds]: the benchmark's last-line JSON of one traced
# run, 1 s unless said otherwise.
run() {
  "$BIN" --workload "$1" --seconds "${2:-1}" --trace 1 --seed 42 | tail -n 1
}

last_line="$(run direct_rmw)"
ratio="$(metric telemetry.host_overhead_ratio)"
wire_rts="$(metric rdma-sim.wire_rts_per_txn)"
last_line="$(run coherent_rw 6)"
coherent_wire_rts="$(metric rdma-sim.wire_rts_per_txn)"
last_line="$(run index_probe)"
btree_rts="$(metric index.btree_sim_rts_per_search)"
race_rts="$(metric index.race_sim_rts_per_get)"
last_line="$(run xshard_2pc)"
msgs="$(metric rdma-sim.msgs_per_txn)"
last_line="$(run fit_read)"
cached_wire_rts="$(metric rdma-sim.wire_rts_per_txn)"
gate "wire round trips per txn on direct_rmw" "$wire_rts" "$WIRE_RT_LIMIT"
gate "wire round trips per txn on coherent_rw" "$coherent_wire_rts" "$COHERENT_WIRE_RT_LIMIT"
gate "wire round trips per B+tree search on index_probe" "$btree_rts" "$INDEX_RT_LIMIT"
gate "wire round trips per RACE get on index_probe" "$race_rts" "$INDEX_RT_LIMIT"
gate "messages per txn on xshard_2pc" "$msgs" "$MSG_LIMIT"
gate "wire round trips per txn on fit_read" "$cached_wire_rts" "$CACHED_WIRE_RT_LIMIT"
gate "observed/bare host time per txn on direct_rmw" "$ratio" "$LIMIT"
