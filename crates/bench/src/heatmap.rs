//! Deterministic harness for experiment **O5**: the fabric-utilization
//! heatmap — who consumes the disaggregated memory pool, and does the
//! placement advisor's move plan actually fix a skewed placement?
//!
//! Two test beds over the same single-threaded, virtual-clock workload
//! (sessions round-robin in lockstep; all randomness from `StdRng`
//! seeded off the config — two same-seed runs are byte-identical):
//!
//! * **Striped bed** (`HeatBed::striped`) — a [`RecordTable`] striped
//!   over `m` memory nodes, with app keys mapped *range-partitioned*:
//!   app key `k` lives in node `k / (records/m)`'s extent. A Zipf key
//!   chooser (rank 0 hottest) therefore concentrates heat on node 0,
//!   and node imbalance is a clean monotone function of theta. This is
//!   the sweep bed: the per-range heat top-K must name node 0's base
//!   ranges and the Gini index over per-node bytes must track theta.
//! * **Contiguous bed** (`HeatBed::contiguous`) — the whole table in
//!   one extent on node 0 of a 1-group layer, plus `cold` empty mirror
//!   groups joined afterwards ([`DsmLayer::join_group`] — the same
//!   memory-node-join path exp_e1 exercises). This is the advisor bed:
//!   [`telemetry::placement_advisor`] proposes hot-range → cold-node
//!   moves, [`replay_move_plan`] executes them through the epoch-fenced
//!   [`Migrator`] (the exact machinery behind exp_e1's online reshard),
//!   and a re-run of the same workload must land on a smaller measured
//!   Gini index.
//!
//! Utilization capture is free: [`drive`] with `window_ns = 0` charges
//! the identical virtual makespan, because the recorder only *reads*
//! the per-thread clock.

use std::sync::Arc;

use dsm::{DsmConfig, DsmLayer};
use dsmdb::Migrator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::{Endpoint, Fabric, NetworkProfile, Phase, UtilSnapshot, DEFAULT_WINDOW_NS};
use telemetry::{heat_key_base_offset, heat_key_node, MovePlan, HEAT_RANGE_BYTES};
use txn::RecordTable;

use crate::Planes;

/// One heat run's knobs. `window_ns = 0` disables utilization capture
/// entirely (the zero-cost control); series sampling stays on either
/// way so the report always carries a timeseries section.
#[derive(Debug, Clone, Copy)]
pub struct HeatConfig {
    pub seed: u64,
    /// Virtual sessions, round-robin on one real thread.
    pub sessions: usize,
    /// Operations per session.
    pub ops_per_session: usize,
    /// Record slots in the table. Must divide evenly by the bed's
    /// group count.
    pub records: u64,
    /// Payload bytes per record (40 → a 64-byte slot, 1024 slots per
    /// 64 KiB heat range).
    pub payload: usize,
    /// Zipf skew over app keys; 0 = uniform.
    pub theta: f64,
    /// Percentage of operations that are reads (rest are writes).
    pub read_pct: u32,
    /// Utilization window width; 0 turns the utilization plane off.
    pub window_ns: u64,
}

impl Default for HeatConfig {
    fn default() -> Self {
        Self {
            seed: 0x05EA7,
            sessions: 4,
            ops_per_session: 2000,
            records: 16384,
            payload: 40,
            theta: 0.9,
            read_pct: 80,
            window_ns: DEFAULT_WINDOW_NS,
        }
    }
}

/// A fabric + layer + table the workload runs against. Kept alive
/// across [`drive`] calls so the advisor's move plan can be replayed
/// *between* two measured runs of the same bed.
pub struct HeatBed {
    pub fabric: Arc<Fabric>,
    pub layer: Arc<DsmLayer>,
    pub table: Arc<RecordTable>,
    /// Stripe groups at table-creation time (the contiguous bed is 1
    /// even after cold groups join).
    pub stripe_groups: u64,
}

/// What one [`drive`] pass measured.
pub struct HeatOutcome {
    pub makespan_ns: u64,
    pub ops: u64,
    pub reads: u64,
    pub writes: u64,
    /// Series and (unless `window_ns` is 0) utilization with
    /// every group's occupancy stamped, merged across the sessions.
    pub planes: Planes,
}

impl HeatBed {
    /// The sweep bed: table striped over `memory_nodes` groups.
    pub fn striped(cfg: &HeatConfig, memory_nodes: usize) -> Self {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes,
                capacity_per_node: 32 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        assert!(
            cfg.records.is_multiple_of(memory_nodes as u64),
            "records must stripe evenly over {memory_nodes} groups"
        );
        let table = Arc::new(RecordTable::create(&layer, cfg.records, cfg.payload, 1).unwrap());
        Self {
            fabric,
            layer,
            table,
            stripe_groups: memory_nodes as u64,
        }
    }

    /// The advisor bed: one contiguous extent on node 0, plus `cold`
    /// freshly-joined empty groups for the advisor to move heat onto.
    pub fn contiguous(cfg: &HeatConfig, cold: usize) -> Self {
        let bed = Self::striped(cfg, 1);
        for _ in 0..cold {
            bed.layer.join_group(32 << 20, 1, 4.0);
        }
        bed
    }

    /// Map a Zipf rank (0 hottest) to a record key such that ranks are
    /// *range-partitioned* over the stripe groups: ranks `[0, per)` sit
    /// in group 0's extent at ascending offsets, `[per, 2*per)` in
    /// group 1's, and so on. With one stripe group this is the
    /// identity, i.e. a contiguous hot prefix.
    pub fn key_of(&self, rank: u64) -> u64 {
        let per = self.table.n_records() / self.stripe_groups;
        (rank % per) * self.stripe_groups + rank / per
    }
}

/// Run the workload once over `bed` and measure it. Fresh endpoints
/// (fresh virtual clocks) every call, so makespans of successive drives
/// are directly comparable.
pub fn drive(bed: &HeatBed, cfg: &HeatConfig) -> HeatOutcome {
    let eps: Vec<Endpoint> = (0..cfg.sessions).map(|_| bed.fabric.endpoint()).collect();
    for (t, ep) in eps.iter().enumerate() {
        Planes::enable(ep, DEFAULT_WINDOW_NS);
        ep.enable_utilization(cfg.window_ns);
        ep.set_util_session(t as u64 + 1);
    }
    let mut rngs: Vec<StdRng> = (0..cfg.sessions)
        .map(|t| StdRng::seed_from_u64(cfg.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1))))
        .collect();
    let zipf = workload::ZipfGenerator::new(cfg.records, cfg.theta);
    let (mut ops, mut reads, mut writes) = (0u64, 0u64, 0u64);
    let mut buf = vec![0u8; cfg.payload];
    for _ in 0..cfg.ops_per_session {
        for (t, ep) in eps.iter().enumerate() {
            let rank = zipf.next(&mut rngs[t]);
            let key = bed.key_of(rank);
            if rngs[t].gen_range(0..100) < cfg.read_pct {
                let _g = ep.span(Phase::PageFetch);
                bed.layer
                    .read(ep, bed.table.payload_read_addr(key, 0), &mut buf)
                    .unwrap();
                reads += 1;
            } else {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = (key as u8).wrapping_add(i as u8);
                }
                let _g = ep.span(Phase::Writeback);
                bed.layer
                    .write(ep, bed.table.payload_addr(key, 0), &buf)
                    .unwrap();
                writes += 1;
            }
            ops += 1;
        }
    }
    let makespan_ns = eps.iter().map(|e| e.clock().now_ns()).max().unwrap_or(0);
    let mut planes = Planes::of_endpoints(&eps);
    planes.stamp_occupancy(&bed.layer);
    HeatOutcome { makespan_ns, ops, reads, writes, planes }
}

/// Gini index over a snapshot's per-node remote bytes — the imbalance
/// number the sweep tracks and the advisor minimizes.
pub fn measured_gini(util: &UtilSnapshot) -> f64 {
    let loads: Vec<u64> = util.node_bytes().iter().map(|&(_, b)| b).collect();
    telemetry::gini(&loads)
}

/// Execute an advisor [`MovePlan`] against the bed through the
/// epoch-fenced [`Migrator`] — the same begin / copy / handover / flip
/// machine exp_e1 drives, one full migration per recommended range.
/// Returns `(moves_applied, payload_bytes_migrated)`.
///
/// A heat range is mapped back to the record keys whose slots overlap
/// it via the table's base extent; ranges that fall outside the table
/// (or were already migrated by an earlier, hotter move) are trimmed or
/// skipped, so overlapping recommendations cannot double-move keys.
pub fn replay_move_plan(bed: &HeatBed, plan: &MovePlan) -> (u64, u64) {
    assert_eq!(
        bed.stripe_groups, 1,
        "move-plan replay assumes the contiguous bed (1 stripe group)"
    );
    let ep = bed.fabric.endpoint();
    let base_addr = bed.table.slot_addr(0);
    let base_node = base_addr.node() as u64;
    let base_off = base_addr.offset();
    let slot = bed.table.slot_size();
    let migrator = Migrator::create(&bed.layer, &bed.table, &ep, 0).unwrap();
    let mut moved: Vec<(u64, u64)> = Vec::new();
    let (mut applied, mut bytes) = (0u64, 0u64);
    for (i, mv) in plan.moves.iter().enumerate() {
        if heat_key_node(mv.range_key) != base_node {
            continue; // not a table range (shouldn't happen on this bed)
        }
        let range_start = heat_key_base_offset(mv.range_key);
        let range_end = range_start + HEAT_RANGE_BYTES;
        if range_end <= base_off {
            continue;
        }
        let mut lo = range_start.saturating_sub(base_off) / slot;
        let mut hi = (range_end - base_off).div_ceil(slot).min(bed.table.n_records());
        // Trim boundary slots an earlier (hotter) move already took.
        for &(a, b) in &moved {
            if lo < b && a < hi {
                if a <= lo {
                    lo = lo.max(b);
                } else {
                    hi = hi.min(a);
                }
            }
        }
        if lo >= hi {
            continue;
        }
        let dst_group = bed
            .layer
            .group_index_of(mv.dst_node as rdma_sim::NodeId)
            .expect("advisor names a live node");
        bytes += migrator
            .run_to_completion(&ep, dst_group, lo, hi, i as u64 + 1, 64)
            .unwrap();
        moved.push((lo, hi));
        applied += 1;
    }
    (applied, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::placement_advisor;

    fn small(theta: f64, window_ns: u64) -> HeatConfig {
        HeatConfig {
            sessions: 2,
            ops_per_session: 300,
            records: 2048,
            theta,
            window_ns,
            ..HeatConfig::default()
        }
    }

    #[test]
    fn skew_concentrates_heat_on_the_base_node_and_raises_gini() {
        let cfg_uni = small(0.0, DEFAULT_WINDOW_NS);
        let cfg_hot = small(1.2, DEFAULT_WINDOW_NS);
        let uni = drive(&HeatBed::striped(&cfg_uni, 4), &cfg_uni);
        let hot = drive(&HeatBed::striped(&cfg_hot, 4), &cfg_hot);
        assert!(
            measured_gini(&hot.planes.utilization) > measured_gini(&uni.planes.utilization) + 0.1,
            "theta 1.2 gini {} must clearly exceed uniform gini {}",
            measured_gini(&hot.planes.utilization),
            measured_gini(&uni.planes.utilization)
        );
        // The hottest heat range is the base of node 0's extent — where
        // rank 0 lives under the range-partitioned key map.
        let bed = HeatBed::striped(&cfg_hot, 4);
        let out = drive(&bed, &cfg_hot);
        let a = bed.table.slot_addr(bed.key_of(0));
        let expect = telemetry::heat_key(a.node() as u64, a.offset());
        assert_eq!(out.planes.utilization.heat_bytes.ranked()[0].key, expect);
    }

    #[test]
    fn capture_off_is_byte_identical_in_virtual_time() {
        let on_cfg = small(0.9, DEFAULT_WINDOW_NS);
        let off_cfg = small(0.9, 0);
        let on = drive(&HeatBed::striped(&on_cfg, 2), &on_cfg);
        let off = drive(&HeatBed::striped(&off_cfg, 2), &off_cfg);
        assert_eq!(on.makespan_ns, off.makespan_ns, "utilization capture must be free");
        assert_eq!(on.ops, off.ops);
        assert!(off.planes.utilization.node_bytes().iter().all(|&(_, b)| b == 0));
    }

    #[test]
    fn advisor_replay_through_the_migrator_shrinks_measured_gini() {
        let cfg = small(1.2, DEFAULT_WINDOW_NS);
        let bed = HeatBed::contiguous(&cfg, 3);
        let before = drive(&bed, &cfg);
        let g_before = measured_gini(&before.planes.utilization);
        let plan = placement_advisor(&before.planes.utilization, 8);
        assert!(!plan.moves.is_empty(), "skewed contiguous bed must yield moves");
        assert!(plan.index_projected < plan.index_before);
        let (applied, bytes) = replay_move_plan(&bed, &plan);
        assert!(applied > 0 && bytes > 0);
        let after = drive(&bed, &cfg);
        let g_after = measured_gini(&after.planes.utilization);
        assert!(
            g_after < g_before,
            "replaying the move plan must shrink gini: before {g_before} after {g_after}"
        );
    }
}
