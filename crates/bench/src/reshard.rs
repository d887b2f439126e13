//! Deterministic harness for experiment **E1**: online reshard under
//! fire — epoch-fenced live page migration with node join/leave and
//! crash-during-migration chaos.
//!
//! One run = one scenario over the same timeline skeleton, all driven
//! from ONE real thread on the virtual clock (sessions round-robin,
//! faults at fixed round boundaries, splitmix64 randomness from the
//! seed — two same-seed runs are byte-identical):
//!
//! 1. **pre** — compute node 0's sessions run transfers; the
//!    background-noise plan ([`crate::chaos::scenarios`]) is absorbed
//!    by the DSM retry policy.
//! 2. **join + migrate** — a fresh mirror group *joins* (memory-node
//!    join), compute node 1 joins and adds sessions, and the
//!    [`Migrator`] starts copying the whole table to the new group
//!    while traffic keeps committing: dual-ownership window open,
//!    writes land on both homes, reads prefer the new home below the
//!    watermark. The scenario's fault fires mid-copy (or
//!    mid-handover).
//! 3. **flip + leave** — the handover commits, compute caches are
//!    dropped, the drained source groups *retire* (memory-node leave),
//!    and compute node 1 leaves (epoch bump + mark Down).
//! 4. **post** — node 0's sessions alone, on the new home.
//!
//! Scenarios: [`Scenario::Clean`] measures the migration tax;
//! [`Scenario::CrashSource`] kills the source primary mid-copy (copier
//! and readers fail over to the mirror, lock CASes abort typed until
//! the rebuild); [`Scenario::CrashDest`] kills the destination primary
//! (the coordinator rolls the window back rather than flip to an
//! unreplicated home, rebuilds, and re-runs); and
//! [`Scenario::PartitionCoordinator`] cuts the coordinator off
//! mid-handover — the recovery path bumps the epoch, rolls back, and
//! the zombie's commit CAS is fenced.
//!
//! Audits after every scenario: zero lost writes (committed-transfer
//! model replay), zero stuck locks (janitor sweep), and zero
//! dual-home divergent reads (both homes of every sampled in-window
//! key byte-equal).

use dsmdb::{
    Architecture, CcProtocol, Cluster, ClusterConfig, MigrateError, MigrationState, Migrator,
    NodeStatus, RecoveryOutcome, Session,
};
use rdma_sim::{NetworkProfile, DEFAULT_WINDOW_NS};
use telemetry::analysis;
use telemetry::RecoveryFacts;
use txn::table::RecordTable;

use crate::chaos::{scenarios, WindowStats};
use crate::fleet::{max_clock, splitmix64, Audit, Fleet};
use crate::report::{abort_causes_json, Json, Report};
use crate::{AbortCauses, Metric, Planes};

/// Which fault the timeline injects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scenario {
    /// No fault: measure the migration tax alone.
    #[default]
    Clean,
    /// Source primary dies mid-copy; mirror failover carries both the
    /// copier and degraded reads until the rebuild.
    CrashSource,
    /// Destination primary dies mid-copy; the window rolls back (no
    /// flip to an unreplicated home), the member is rebuilt, and the
    /// migration re-runs to completion.
    CrashDest,
    /// The coordinator is partitioned away after the copy finishes but
    /// before the flip; recovery bumps the epoch, rolls back, fences
    /// the zombie's commit, and re-runs under the new epoch.
    PartitionCoordinator,
}

impl Scenario {
    /// All scenarios in report order.
    pub const ALL: [Scenario; 4] = [
        Scenario::Clean,
        Scenario::CrashSource,
        Scenario::CrashDest,
        Scenario::PartitionCoordinator,
    ];

    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::CrashSource => "crash_source",
            Scenario::CrashDest => "crash_dest",
            Scenario::PartitionCoordinator => "partition_coordinator",
        }
    }
}

/// Knobs for one reshard run. Full-scale defaults; shrink `records` and
/// `rounds` via [`crate::scale_down`].
#[derive(Debug, Clone, Copy)]
pub struct ReshardConfig {
    /// Master seed: workload keys, audit sampling.
    pub seed: u64,
    /// Sessions per compute node (node 1 adds the same number while
    /// joined).
    pub sessions: usize,
    /// Rounds; the timeline is carved in fifths.
    pub rounds: usize,
    /// Records in the table. With `payload` this sets the migrated
    /// volume: `records * slot_size` bytes.
    pub records: u64,
    /// Payload bytes per record.
    pub payload: usize,
}

/// Lease horizon of every lock word of a reshard run, virtual ns.
const LEASE_NS: u64 = 300_000;
/// Copier pacing charge per chunk, virtual ns.
const PACE_NS: u64 = 500;
/// The protocol of every reshard run, under [`LEASE_NS`] leases.
const CC: CcProtocol = CcProtocol::TplExclusive;

impl Default for ReshardConfig {
    fn default() -> Self {
        Self {
            seed: 0xE1,
            sessions: 8,
            rounds: 2_200,
            records: 16_384,
            payload: 8_192,
        }
    }
}

impl ReshardConfig {
    /// Bytes one slot occupies ([`RecordTable::slot_size_for`]).
    pub fn slot_size(&self) -> u64 {
        RecordTable::slot_size_for(self.payload, CC.versions())
    }

    /// Bytes the copier moves for a full-table migration.
    pub fn migration_bytes(&self) -> u64 {
        self.records * self.slot_size()
    }
}

/// Everything one scenario run measures.
#[derive(Debug, Clone, Default)]
pub struct ReshardOutcome {
    /// Which fault ran.
    pub scenario: Scenario,
    /// Healthy baseline before the join.
    pub pre: WindowStats,
    /// Join + dual-ownership window + (scenario fault). Runs 2x the
    /// sessions (node 1 is joined for its whole span).
    pub migrate: WindowStats,
    /// Between the flip and the compute-node leave: window closed but
    /// node 1 still running (2x sessions).
    pub settle: WindowStats,
    /// After the leaves — node 0's sessions alone, on the new home.
    pub post: WindowStats,
    /// Abort causes across the whole run.
    pub aborts: AbortCauses,
    /// Bytes the copier moved (re-runs count again).
    pub migrated_bytes: u64,
    /// Dual-home audit samples read.
    pub dual_reads_checked: u64,
    /// Samples whose two homes diverged (must be 0).
    pub divergent_dual_reads: u64,
    /// Committed writes lost and locks left held at the new home (both
    /// must be 0), and the expired leftovers the janitor reclaimed.
    pub audit: Audit,
    /// Stale-coordinator commits refused by the epoch fence.
    pub fenced_commits: u64,
    /// Expired leases stolen by workers.
    pub steals: u64,
    /// Final descriptor state (must be `Done`).
    pub final_state: MigrationState,
    /// Coordinator epoch the final handover was signed with.
    pub final_epoch: u64,
    /// Virtual instant the migration began, ns.
    pub t_begin_ns: u64,
    /// Virtual instant the scenario fault fired (0 for `Clean`).
    pub t_fault_ns: u64,
    /// Virtual instant the range flipped to its new home, ns.
    pub t_flip_ns: u64,
    /// Recovery facts around the disturbance (fault instant, or
    /// migration start for `Clean`), from the merged series.
    pub recovery: RecoveryFacts,
    /// post tps / pre tps (both windows run the same session count).
    pub recovered_tps_ratio: f64,
    /// 1 − migrate tps / settle tps: throughput the *open* window cost.
    /// Both windows run the same sessions and membership — the only
    /// difference is copier traffic + dual writes + old-home routing —
    /// so this isolates the migration from the capacity the join added.
    pub migration_tax: f64,
    /// Telemetry merged across all sessions. The migration counters
    /// are noted on a session endpoint, so the coordinator, recovery
    /// and leave endpoints record nothing.
    pub planes: Planes,
}

fn fleet_clock(core: &[Session], joiners: &[Session]) -> u64 {
    max_clock(core).max(max_clock(joiners))
}

/// How the copier is currently being driven.
enum Drive {
    /// Not started yet.
    Idle,
    /// Copying up to `cap` keys per round across the copier streams.
    /// With `throttle` the streams' clocks are held behind the fleet,
    /// so the device time they book on the memory-node timelines
    /// overlaps the foreground's — the migration tax is physically
    /// felt, not hidden in a copier clock that raced ahead.
    Copying { cap: u64, throttle: bool },
    /// Handover fence taken; draining header words to the new home in
    /// batched chunks, throttled the same way the copy was.
    Draining { cap: u64, throttle: bool },
    /// Coordinator partitioned away mid-handover.
    Silent,
    /// Rolled back after a destination loss; awaiting rebuild.
    RolledBack,
    /// Flipped; nothing left to drive.
    Done,
}

/// Run one scenario. Deterministic in `cfg` and `scenario`.
pub fn run_reshard(cfg: &ReshardConfig, scenario: Scenario) -> ReshardOutcome {
    assert!(cfg.rounds >= 40, "need at least two rounds per twentieth");
    let slot = cfg.slot_size();
    // Each of the two source groups holds half the stripe; the joined
    // group takes the whole table contiguously. Slack covers the
    // membership table, the descriptor, and allocator headers.
    let src_capacity = (cfg.records / 2 + 1) * slot + (4 << 20);
    let dst_capacity = cfg.records * slot + (4 << 20);
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 2,
        threads_per_node: cfg.sessions,
        memory_nodes: 4,
        replication: 2,
        capacity_per_node: src_capacity as usize,
        n_records: cfg.records,
        payload_size: cfg.payload,
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::NoCacheNoShard,
        cc: CC,
        lease_ns: Some(LEASE_NS),
        ..Default::default()
    })
    .expect("reshard cluster");
    let layer = cluster.layer().clone();
    let fabric = cluster.fabric().clone();
    let table = cluster.table().clone();
    let g0_primary = layer.group_primary(0).id();
    let g1_primary = layer.group_primary(1).id();

    // Compute node 1 has not joined yet.
    {
        let ep = fabric.endpoint();
        cluster
            .membership()
            .mark(&layer, &ep, 1, NodeStatus::Down)
            .expect("mark joiner down");
    }

    // Background noise from round 0, absorbed by the retry policy.
    fabric.install_fault_plan(scenarios::background_noise(g1_primary));

    let mut core: Vec<Session> = (0..cfg.sessions).map(|t| cluster.session(0, t)).collect();
    let mut joiners: Vec<Session> = Vec::new();
    let coord = fabric.endpoint();
    for s in &core {
        s.endpoint().enable_timeseries(DEFAULT_WINDOW_NS);
    }
    // The coordinator records NO series: its clock sits at the fleet
    // edge while it drives the copier, and an extra series would stretch
    // the merged window range without adding commit signal. Migration
    // begins and ends, like copier progress, are noted on a session
    // endpoint, which is fleet-timed by construction.
    let note = |core: &[Session], metric: Metric, delta: u64| {
        core[0].endpoint().series_note(metric, delta);
    };

    // Copier streams: series-less endpoints that do the bulk copy in
    // parallel. Each round they advance until they catch the fleet
    // clock, so their verbs contend with foreground traffic on the
    // memory-node timelines instead of booking far-future device time.
    let streams: Vec<_> = (0..8).map(|_| fabric.endpoint()).collect();

    let migrator = Migrator::create(&layer, &table, &coord, PACE_NS).expect("descriptor");
    let mut epoch = cluster
        .membership()
        .epoch(&layer, &coord, 0)
        .expect("coordinator epoch");

    let r_join = cfg.rounds / 5;
    let r_fault = 2 * cfg.rounds / 5;
    let r_rec = r_fault + cfg.rounds / 20;
    let r_leave = 4 * cfg.rounds / 5;
    // Past this round any still-open window copies unthrottled, so a
    // rolled-back migration is guaranteed to flip before the leave.
    let r_rush = 7 * cfg.rounds / 10;
    // Finish the copy around round 3/5 — well past the fault round at
    // 2/5 — so every scenario faults with the window still open, yet
    // has headroom to roll back and still flip before the leave.
    let copy_rounds = (2 * cfg.rounds / 5).max(2) as u64;
    let chunk = cfg.records.div_ceil(copy_rounds);

    let mut fleet = Fleet::new(cfg.seed, cfg.records);
    let mut out = ReshardOutcome { scenario, ..ReshardOutcome::default() };

    let mut drive = Drive::Idle;
    let mut dst_group = usize::MAX;
    let mut silent_since = 0usize;
    let mut payload_buf_a = vec![0u8; cfg.payload];
    let mut payload_buf_b = vec![0u8; cfg.payload];

    for round in 0..cfg.rounds {
        // --- Membership events ---------------------------------------
        if round == r_join {
            let t = max_clock(&core);
            out.pre.end_ns = t;
            out.migrate.start_ns = t;
            // Memory-node join: a fresh mirror group with room for the
            // whole table.
            dst_group = layer.join_group(dst_capacity as usize, 2);
            // Compute-node join: node 1 comes up and adds sessions with
            // clocks aligned to the fleet.
            cluster
                .membership()
                .mark(&layer, &coord, 1, NodeStatus::Up)
                .expect("joiner up");
            joiners = (0..cfg.sessions).map(|t| cluster.session(1, t)).collect();
            for s in &joiners {
                s.endpoint().charge_local(t);
                s.endpoint().enable_timeseries(DEFAULT_WINDOW_NS);
            }
            coord.charge_local(t.saturating_sub(coord.clock().now_ns()));
            for st in &streams {
                st.charge_local(t.saturating_sub(st.clock().now_ns()));
            }
            migrator
                .begin(&coord, dst_group, 0, cfg.records, epoch)
                .expect("begin migration");
            note(&core, Metric::MigrationsBegun, 1);
            out.t_begin_ns = max_clock(&core);
            drive = Drive::Copying { cap: chunk, throttle: true };
        }

        // --- Scenario faults ------------------------------------------
        if round == r_fault {
            let t = max_clock(&core);
            match scenario {
                Scenario::Clean => {}
                Scenario::CrashSource => {
                    out.t_fault_ns = t;
                    // The source primary dies mid-copy. Reads (copier
                    // included) fail over to the mirror; lock CASes on
                    // its stripe abort typed until the rebuild.
                    layer.crash_member(0, 0).expect("crash source primary");
                    fabric.install_fault_plan(scenarios::survivor_slowdown(g1_primary, t, 1_000));
                }
                Scenario::CrashDest => {
                    out.t_fault_ns = t;
                    layer
                        .crash_member(dst_group, 0)
                        .expect("crash dest primary");
                    // Policy: never flip to an unreplicated home — roll
                    // the window back and retry after the rebuild.
                    migrator.abort(&coord, epoch).expect("abort after dest loss");
                    note(&core, Metric::MigrationsEnded, 1);
                    drive = Drive::RolledBack;
                }
                Scenario::PartitionCoordinator => {
                    // Handled at copy completion (mid-handover), not at
                    // a fixed round.
                }
            }
        }
        if round == r_rec {
            match scenario {
                Scenario::CrashSource => {
                    fabric.clear_fault_plan();
                    let rec = fabric.endpoint();
                    rec.charge_local(fleet_clock(&core, &joiners));
                    layer
                        .recover_member_from_mirror(&rec, 0, 0)
                        .expect("rebuild source member");
                }
                Scenario::CrashDest => {
                    let rec = fabric.endpoint();
                    rec.charge_local(fleet_clock(&core, &joiners));
                    layer
                        .recover_member_from_mirror(&rec, dst_group, 0)
                        .expect("rebuild dest member");
                    // Re-run the migration; the bigger unthrottled cap
                    // still lands the flip before the leave.
                    migrator
                        .begin(&coord, dst_group, 0, cfg.records, epoch)
                        .expect("re-begin after rebuild");
                    note(&core, Metric::MigrationsBegun, 1);
                    drive = Drive::Copying { cap: chunk * 6, throttle: false };
                }
                _ => {}
            }
        }
        if matches!(drive, Drive::Silent) && round == silent_since + cfg.rounds / 20 {
            // The cluster gives up on the partitioned coordinator: heal
            // the network, bump the epoch, resolve the descriptor.
            fabric.clear_fault_plan();
            let rec = fabric.endpoint();
            rec.charge_local(fleet_clock(&core, &joiners));
            let new_epoch = cluster
                .membership()
                .bump_epoch(&layer, &rec, 0)
                .expect("fence epoch");
            let recovered = Migrator::attach(&layer, &table, migrator.descriptor(), PACE_NS);
            let outcome = recovered.recover(&rec, new_epoch).expect("resolve descriptor");
            assert_eq!(
                outcome,
                RecoveryOutcome::RolledBack(MigrationState::Copying),
                "mid-handover window must roll back"
            );
            note(&core, Metric::MigrationsEnded, 1);
            // The zombie coordinator comes back and tries to finish:
            // its CAS is signed with the stale epoch and must fail.
            match migrator.commit(&coord, epoch) {
                Err(MigrateError::Fenced { .. }) => out.fenced_commits += 1,
                other => panic!("zombie commit must be fenced, got {other:?}"),
            }
            // Sessions re-read the bumped epoch before doing new work.
            for s in core.iter_mut().chain(joiners.iter_mut()) {
                s.refresh_epoch().expect("epoch refresh");
            }
            epoch = new_epoch;
            migrator
                .begin(&coord, dst_group, 0, cfg.records, epoch)
                .expect("re-begin under new epoch");
            note(&core, Metric::MigrationsBegun, 1);
            drive = Drive::Copying { cap: chunk * 6, throttle: false };
        }

        // --- Copier step ----------------------------------------------
        if let Drive::Copying { cap, throttle } = drive {
            let fleet_t = fleet_clock(&core, &joiners);
            // Keep the coordinator on the fleet clock so its verbs land
            // in the same virtual present the sessions live in.
            coord.charge_local(fleet_t.saturating_sub(coord.clock().now_ns()));
            let throttled = throttle && round < r_rush;
            let mut budget = cap;
            'streams: for st in &streams {
                while budget > 0 && (!throttled || st.clock().now_ns() < fleet_t) {
                    let n = budget.min(4);
                    let moved = migrator.copy_step(st, n).expect("copy step");
                    if moved == 0 {
                        break 'streams;
                    }
                    out.migrated_bytes += moved;
                    // Streams are series-less; account their progress
                    // on a fleet-timed session endpoint so the
                    // `migration_stalled` rule sees per-window bytes.
                    note(&core, Metric::MigratedBytes, moved);
                    budget -= n;
                }
            }
            let done = table
                .migration_progress()
                .map(|(_, high, wm)| wm >= high)
                .unwrap_or(false);
            if done {
                if scenario == Scenario::PartitionCoordinator && out.fenced_commits == 0 {
                    // Mid-handover: the coordinator is cut off between
                    // finishing the copy and flipping. Foreground
                    // traffic rides out the partition on retries.
                    let t = fleet_clock(&core, &joiners);
                    out.t_fault_ns = t;
                    silent_since = round;
                    fabric.install_fault_plan(scenarios::coordinator_partition(
                        g0_primary,
                        t,
                        t + 30_000,
                    ));
                    drive = Drive::Silent;
                } else {
                    migrator.start_handover(&coord, epoch).expect("handover fence");
                    drive = Drive::Draining { cap: chunk * 16, throttle };
                }
            }
        } else if let Drive::Draining { cap, throttle } = drive {
            let fleet_t = fleet_clock(&core, &joiners);
            coord.charge_local(fleet_t.saturating_sub(coord.clock().now_ns()));
            let throttled = throttle && round < r_rush;
            let mut budget = cap;
            let mut drained_all = false;
            'drain: for st in &streams {
                while budget > 0 && (!throttled || st.clock().now_ns() < fleet_t) {
                    let n = budget.min(64);
                    let d = migrator.drain_step(st, n).expect("drain step");
                    if d == 0 {
                        drained_all = true;
                        break 'drain;
                    }
                    out.migrated_bytes += d;
                    note(&core, Metric::MigratedBytes, d);
                    budget -= n;
                }
            }
            if drained_all {
                migrator.finish_handover(&coord, epoch).expect("handover");
                note(&core, Metric::MigrationsEnded, 1);
                out.t_flip_ns = fleet_clock(&core, &joiners).max(coord.clock().now_ns());
                out.final_epoch = epoch;
                // Cached frames were fetched from the old home.
                cluster.drop_compute_caches(&coord);
                // Memory-node leave: the drained source groups stop
                // taking allocations (their extents stay readable
                // until reclaimed).
                layer.retire_group(0);
                layer.retire_group(1);
                drive = Drive::Done;
                let t = fleet_clock(&core, &joiners);
                out.migrate.end_ns = t;
                out.settle.start_ns = t;
            }
        }

        // --- Compute-node leave ---------------------------------------
        if round == r_leave && !joiners.is_empty() {
            let t = fleet_clock(&core, &joiners);
            out.settle.end_ns = t;
            out.post.start_ns = t;
            let leave_ep = fabric.endpoint();
            leave_ep.charge_local(t);
            cluster
                .membership()
                .bump_epoch(&layer, &leave_ep, 1)
                .expect("leave epoch");
            cluster
                .membership()
                .mark(&layer, &leave_ep, 1, NodeStatus::Down)
                .expect("joiner down");
            for s in joiners.drain(..) {
                out.steals += s.lock_steals();
                out.planes.collect_session(&s);
            }
        }

        // --- One workload round ---------------------------------------
        let seg = if round < r_join {
            &mut out.pre
        } else if out.t_flip_ns == 0 {
            &mut out.migrate
        } else if round < r_leave {
            &mut out.settle
        } else {
            &mut out.post
        };
        for (t, s) in core.iter_mut().chain(joiners.iter_mut()).enumerate() {
            fleet.transfer(s, t, round, None, seg);
        }

        // --- Dual-home divergence audit -------------------------------
        // While the window is open, both homes of a copied key must
        // hold identical bytes — "no page is ever readable from two
        // live homes with different contents".
        if let Some((low, _, wm)) = table.migration_progress() {
            if wm > low {
                let audit = &coord;
                for i in 0..2u64 {
                    let key = low + splitmix64(cfg.seed ^ 0xD1 ^ (round as u64) ^ i) % (wm - low);
                    if let Some((old, new)) = table.dual_payload_addrs(key, 0) {
                        layer.read(audit, old, &mut payload_buf_a).expect("old home");
                        layer.read(audit, new, &mut payload_buf_b).expect("new home");
                        out.dual_reads_checked += 1;
                        if payload_buf_a != payload_buf_b {
                            out.divergent_dual_reads += 1;
                        }
                    }
                }
            }
        }
    }

    out.aborts = fleet.aborts;
    let t_end = max_clock(&core);
    out.post.end_ns = t_end;
    out.pre.start_ns = 0;
    out.final_state = migrator.state(&coord).expect("final state").0;
    out.recovered_tps_ratio = if out.pre.tps() > 0.0 {
        out.post.tps() / out.pre.tps()
    } else {
        0.0
    };
    // Settle is the controlled baseline for the tax: identical sessions
    // and membership, window closed. (Pre would confound the comparison
    // — the join adds real memory-node capacity, which the migration
    // should not get credit for.)
    out.migration_tax = if out.settle.tps() > 0.0 {
        (1.0 - out.migrate.tps() / out.settle.tps()).max(0.0)
    } else {
        0.0
    };
    for s in &core {
        out.steals += s.lock_steals();
        out.planes.collect_session(s);
    }
    drop(core);

    // The disturbance the recovery story is measured around: the fault
    // for crash scenarios, the copier start for the clean tax run. The
    // analysis is bounded to the joined regime [t_begin, leave) — the
    // run has three session-count regimes, and windows from another
    // regime would poison both the baseline and the recovery scan.
    let t_disturb = if out.t_fault_ns > 0 { out.t_fault_ns } else { out.t_begin_ns };
    if !out.planes.series.is_empty() {
        out.recovery = analysis::recovery_facts_between(
            &out.planes.series,
            t_disturb,
            0.9,
            out.t_begin_ns,
            out.settle.end_ns,
        );
    }

    // Zero lost writes, and zero locks held forever at the NEW home.
    out.audit = fleet.audit(&cluster, t_end);
    out
}

/// Build the E1 report over all scenario outcomes (shared by the binary
/// and the determinism test so both render the exact same JSON).
pub fn report_for(cfg: &ReshardConfig, outs: &[ReshardOutcome]) -> Report {
    let mut rep = Report::new(
        "exp_e1_reshard",
        "E1: online reshard under fire — epoch-fenced live migration",
    );
    rep.meta("seed", Json::U(cfg.seed));
    rep.meta("sessions", Json::U(cfg.sessions as u64));
    rep.meta("rounds", Json::U(cfg.rounds as u64));
    rep.meta("records", Json::U(cfg.records));
    rep.meta("payload", Json::U(cfg.payload as u64));
    rep.meta("migration_bytes", Json::U(cfg.migration_bytes()));
    rep.meta("window_ns", Json::U(DEFAULT_WINDOW_NS));
    rep.meta("pace_ns", Json::U(PACE_NS));
    for out in outs {
        rep.row(
            out.scenario.name(),
            vec![
                ("scenario", Json::S(out.scenario.name().to_string())),
                ("pre_tps", Json::F(out.pre.tps())),
                ("migrate_tps", Json::F(out.migrate.tps())),
                ("settle_tps", Json::F(out.settle.tps())),
                ("post_tps", Json::F(out.post.tps())),
                ("migration_tax", Json::F(out.migration_tax)),
                ("recovered_tps_ratio", Json::F(out.recovered_tps_ratio)),
                ("migrated_bytes", Json::U(out.migrated_bytes)),
                ("dual_reads_checked", Json::U(out.dual_reads_checked)),
                ("divergent_dual_reads", Json::U(out.divergent_dual_reads)),
                ("lost_writes", Json::U(out.audit.lost_writes)),
                ("stuck_locks", Json::U(out.audit.stuck_locks)),
                ("janitor_reclaims", Json::U(out.audit.janitor_reclaims)),
                ("fenced_commits", Json::U(out.fenced_commits)),
                ("steals", Json::U(out.steals)),
                ("final_state", Json::S(format!("{:?}", out.final_state))),
                ("final_epoch", Json::U(out.final_epoch)),
                ("t_begin_ns", Json::U(out.t_begin_ns)),
                ("t_fault_ns", Json::U(out.t_fault_ns)),
                ("t_flip_ns", Json::U(out.t_flip_ns)),
                ("dip_depth", Json::F(out.recovery.dip_depth)),
                (
                    "time_to_recovery_ns",
                    out.recovery.time_to_recovery_ns.map_or(Json::Null, Json::U),
                ),
                ("abort_causes", abort_causes_json(&out.aborts)),
            ],
        );
    }
    let clean = outs.iter().find(|o| o.scenario == Scenario::Clean);
    let crash = outs.iter().find(|o| o.scenario == Scenario::CrashSource);
    if let Some(c) = clean {
        // Node 1 is joined for most of the run: 2x sessions feed the
        // watchdog's lock-wait budget.
        c.planes.attach(&mut rep, c.post.end_ns, &c.planes.alerts((cfg.sessions * 2) as u32));
        rep.headline("pre_tps", Json::F(c.pre.tps()));
        rep.headline("migrate_tps", Json::F(c.migrate.tps()));
        rep.headline("post_tps", Json::F(c.post.tps()));
        rep.headline("migration_tax", Json::F(c.migration_tax));
        rep.headline("migrated_bytes", Json::U(c.migrated_bytes));
    }
    if let Some(c) = crash {
        rep.headline("dip_depth", Json::F(c.recovery.dip_depth));
        rep.headline(
            "time_to_recovery_ns",
            c.recovery.time_to_recovery_ns.map_or(Json::Null, Json::U),
        );
    }
    let lost: u64 = outs.iter().map(|o| o.audit.lost_writes).sum();
    let stuck: u64 = outs.iter().map(|o| o.audit.stuck_locks).sum();
    let divergent: u64 = outs.iter().map(|o| o.divergent_dual_reads).sum();
    rep.headline("lost_writes", Json::U(lost));
    rep.headline("stuck_locks", Json::U(stuck));
    rep.headline("divergent_dual_reads", Json::U(divergent));
    rep
}
