//! Deterministic chaos harness for experiment **C13**: kill a memory
//! node and a lock-holding compute session mid-workload, watch the
//! engine degrade gracefully, recover, and prove that *no committed
//! write is lost* and *no lock stays held forever*.
//!
//! Everything is driven from ONE real thread on the virtual clock —
//! sessions run round-robin, faults fire at fixed round boundaries, and
//! all randomness is splitmix64 from [`ChaosConfig::seed`] — so two runs
//! with the same seed produce byte-identical reports.
//!
//! Timeline (rounds split in thirds):
//!
//! 1. **pre** — healthy baseline. A fault plan injects first-N
//!    transient failures and a short partition of a group-1 node; the
//!    DSM retry policy absorbs both (they never surface as aborts).
//! 2. **fault** — a "zombie" session takes leased locks on hot keys and
//!    stops (simulated compute crash); group 0's primary memory node is
//!    hard-crashed; a latency spike slows the surviving group.
//!    Transactions on dead-group keys abort with the typed
//!    [`dsmdb::TxnError::NodeUnavailable`]; zombie-held keys are busy until
//!    the lease expires, then get stolen.
//! 3. **post** — the fault plan is cleared, the dead member is rebuilt
//!    from its mirror, the membership epoch is bumped (crash-recover
//!    cycle on record), and the zombie wakes to find every lock fenced.
//!
//! The audit then replays the committed-transfer model against DSM
//! (zero lost writes) and runs a janitor over every lock word (zero
//! permanently-held locks).
//!
//! [`C13`] is the experiment whole: a fault-free twin of the run
//! (`inject: false`) arms the watchdog's p99 objective, and the
//! watchdog replays both runs' series after the fact.

use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, NodeStatus, Session};
use rdma_sim::{ChromeTrace, NetworkProfile, DEFAULT_WINDOW_NS};
use telemetry::analysis;
use telemetry::watchdog::{run_over, windowed_p99};
use telemetry::{blame_name, Blame, RecoveryFacts};
use txn::{ExclusiveLock, LeaseLock, LockWord};

use crate::fleet::{max_clock, Audit, Fleet};
use crate::report::{abort_causes_json, phases_json, Json, Report};
use crate::{
    blame_share, share_cells, tail_blame, tail_majority, AbortCauses, AlertEvent, AlertKind,
    AlertState, Planes, WatchdogConfig,
};

/// Flight-recorder ring capacity per session: deep enough to keep the
/// interesting tail (fault window + recovery) of a smoke-scale run.
const TRACE_RING: usize = 4096;

/// Ground-truth instant the background partition of group 1's primary
/// begins (virtual ns) — the earliest injected fault of the run.
pub const PARTITION_START_NS: u64 = 40_000;

/// Ground-truth instant the background partition heals (virtual ns).
pub const PARTITION_END_NS: u64 = 70_000;

/// Named fault scenarios shared by every chaos-family experiment
/// (C13 via [`run_chaos`], E1) so the plans cannot drift apart.
pub mod scenarios {
    use rdma_sim::{FaultPlan, NodeId};

    use super::{PARTITION_END_NS, PARTITION_START_NS};

    /// Baseline-phase noise: first-N transient completions plus a short
    /// early partition of `victim`. Both are absorbed by the DSM retry
    /// policy (reads degrade to the mirror mid-partition) — the
    /// watchdog must stay silent through this.
    pub fn background_noise(victim: NodeId) -> FaultPlan {
        FaultPlan::new()
            .transient_first_n(victim, 2)
            .partition(victim, PARTITION_START_NS, PARTITION_END_NS)
    }

    /// Crash aftershock: from `from_ns` on, every verb against the
    /// surviving node `survivor` pays an extra `spike_ns` — the cluster
    /// limps rather than failing clean.
    pub fn survivor_slowdown(survivor: NodeId, from_ns: u64, spike_ns: u64) -> FaultPlan {
        FaultPlan::new().latency_spike(survivor, from_ns, u64::MAX, spike_ns)
    }

    /// Partition `coordinator` away during `[from_ns, to_ns)` — the
    /// mid-handover coordinator loss E1 resolves with epoch fencing.
    pub fn coordinator_partition(coordinator: NodeId, from_ns: u64, to_ns: u64) -> FaultPlan {
        FaultPlan::new().partition(coordinator, from_ns, to_ns)
    }
}

/// Payload bytes per record of a chaos run.
pub const PAYLOAD: usize = 64;

/// Knobs for one chaos run. All sizes are full-scale; callers shrink via
/// [`crate::scale_down`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Master seed: workload keys, jitter.
    pub seed: u64,
    /// Virtual sessions (threads on the single compute node).
    pub sessions: usize,
    /// Rounds per session; each round is one transfer attempt.
    pub rounds: usize,
    /// Records in the table (striped across 2 mirror groups), of
    /// [`PAYLOAD`] bytes each.
    pub records: u64,
    /// Lease horizon of every lock word, virtual ns.
    pub lease_ns: u64,
    /// Time-series window width, virtual ns (0 disables sampling; the
    /// recovery facts then stay at their zero defaults).
    pub window_ns: u64,
    /// Whether to inject the faults at all. `false` runs the identical
    /// workload with no crash, no zombie, and no fault plan: C13's
    /// fault-free twin, on which the watchdog must stay silent.
    pub inject: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xC13,
            sessions: 8,
            rounds: 900,
            records: 256,
            lease_ns: 300_000,
            window_ns: DEFAULT_WINDOW_NS,
            inject: true,
        }
    }
}

/// Commit/abort tally over one timeline segment.
#[derive(Debug, Default, Clone, Copy)]
pub struct WindowStats {
    /// Committed transfers.
    pub commits: u64,
    /// Aborted attempts (all causes).
    pub aborts: u64,
    /// Virtual time at segment start (max session clock), ns.
    pub start_ns: u64,
    /// Virtual time at segment end, ns.
    pub end_ns: u64,
}

impl WindowStats {
    /// Committed transactions per virtual second inside the window.
    pub fn tps(&self) -> f64 {
        let span = self.end_ns.saturating_sub(self.start_ns);
        if span == 0 {
            0.0
        } else {
            self.commits as f64 * 1e9 / span as f64
        }
    }
}

/// Everything a chaos run measures.
#[derive(Debug, Clone, Default)]
pub struct ChaosOutcome {
    /// Segment tallies: pre-fault, fault, post-recovery.
    pub pre: WindowStats,
    /// The fault window (memory node dead, zombie locks held).
    pub fault: WindowStats,
    /// After mirror rebuild + epoch bump.
    pub post: WindowStats,
    /// Abort causes across the whole run (shared taxonomy with
    /// [`crate::WorkloadResult`]).
    pub aborts: AbortCauses,
    /// Expired leases stolen by workers.
    pub steals: u64,
    /// Zombie locks fenced (release refused: stolen or wiped).
    pub zombie_fenced: u64,
    /// Zombie locks released cleanly (lease never contested).
    pub zombie_survived: u64,
    /// Committed writes lost and locks left held (both must be 0), and
    /// the expired leftovers the janitor reclaimed.
    pub audit: Audit,
    /// Degraded (mirror-fallback) reads observed during the outage.
    pub degraded_reads: u64,
    /// Bytes copied rebuilding the dead member from its mirror.
    pub recovery_bytes: u64,
    /// Node 0's membership epoch after the crash-recover cycle.
    pub final_epoch: u64,
    /// Virtual instant of the crash (max session clock at the fault
    /// round), ns.
    pub t_crash_ns: u64,
    /// Recovery facts computed from the merged series around
    /// [`ChaosOutcome::t_crash_ns`] at the 90%-of-baseline threshold
    /// (all zeros/None when sampling was off).
    pub recovery: RecoveryFacts,
    /// post tps / pre tps.
    pub recovered_tps_ratio: f64,
    /// Telemetry merged across all sessions. The series is empty when
    /// [`ChaosConfig::window_ns`] is 0.
    pub planes: Planes,
    /// Chrome `trace_event` timeline of the run (one thread track per
    /// session), built from each endpoint's flight-recorder ring; empty
    /// for [`C13`]'s fault-free twin, which nothing reads it from.
    pub trace: ChromeTrace,
    /// Per-transaction `(virtual completion ns, latency ns)` samples in
    /// round-robin order — the raw feed for windowed p99s.
    pub latency_samples: Vec<(u64, u64)>,
}

/// Run the chaos experiment. Deterministic in `cfg` (and nothing else).
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    run(cfg, true)
}

/// [`run_chaos`], its Chrome trace built only if `trace`.
fn run(cfg: &ChaosConfig, trace: bool) -> ChaosOutcome {
    assert!(cfg.rounds >= 9, "need at least 3 rounds per segment");
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 1,
        threads_per_node: cfg.sessions,
        memory_nodes: 4,
        replication: 2,
        capacity_per_node: 8 << 20,
        n_records: cfg.records,
        payload_size: PAYLOAD,
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::NoCacheNoShard,
        cc: CcProtocol::TplExclusive,
        lease_ns: Some(cfg.lease_ns),
        ..Default::default()
    })
    .expect("chaos cluster");
    let layer = cluster.layer().clone();
    let fabric = cluster.fabric().clone();
    let table = cluster.table().clone();

    // One hot key per mirror group: the group-1 key exercises the
    // lease-steal path (its lock survives the memory-node crash), the
    // group-0 key the typed-unavailability path.
    let hot_g0 = (0..cfg.records).find(|&k| table.group_of(k) == 0).expect("group-0 key");
    let hot_g1 = (0..cfg.records).find(|&k| table.group_of(k) == 1).expect("group-1 key");
    let g1_primary = layer.group_primary(1).id();

    // Background noise from round 0: first-N transient completions and a
    // short partition of group 1's primary. Both are absorbed by the DSM
    // retry policy (reads degrade to the mirror mid-partition).
    if cfg.inject {
        fabric.install_fault_plan(scenarios::background_noise(g1_primary));
    }

    let mut sessions: Vec<Session> = (0..cfg.sessions).map(|t| cluster.session(0, t)).collect();
    // Flight recording and series sampling are free in virtual time,
    // so enabling them cannot perturb the measured timeline.
    for s in &mut sessions {
        Planes::enable_forensics(s, TRACE_RING);
        s.endpoint().enable_timeseries(cfg.window_ns);
    }
    let mut fleet = Fleet::new(cfg.seed, cfg.records);
    let mut out = ChaosOutcome {
        latency_samples: Vec::with_capacity(cfg.sessions * cfg.rounds),
        ..ChaosOutcome::default()
    };

    let r_crash = cfg.rounds / 3;
    let r_recover = 2 * cfg.rounds / 3;
    let mut zombie: Option<(rdma_sim::Endpoint, Vec<LockWord>)> = None;
    let mut t_crash = 0u64;

    for round in 0..cfg.rounds {
        if round == r_crash {
            t_crash = max_clock(&sessions);
            out.pre.end_ns = t_crash;
            out.fault.start_ns = t_crash;
        }
        if round == r_crash && cfg.inject {
            // A compute session crashes while holding lease locks on the
            // hot keys: a fresh endpoint (clock aligned with the fleet)
            // acquires them and then goes silent.
            let zep = fabric.endpoint();
            zep.charge_local(t_crash);
            let mut held = [hot_g0, hot_g1].map(|k| LockWord::new(table.lock_addr(k)));
            ExclusiveLock::acquire_set(&layer, &zep, &mut held, &mut [], LeaseLock::tag(999, 1, cfg.lease_ns), 4)
                .expect("locks are free between rounds");
            zombie = Some((zep, held.to_vec()));

            // Group 0's primary memory node dies for real.
            layer.crash_member(0, 0).expect("crash member");
            cluster
                .membership()
                .mark(&layer, sessions[0].endpoint(), 0, NodeStatus::Down)
                .ok();

            // Degraded read: the dead group still answers from its mirror.
            let probe = fabric.endpoint();
            let mut buf = vec![0u8; PAYLOAD];
            if layer.read(&probe, table.payload_addr(hot_g0, 0), &mut buf).is_ok() {
                out.degraded_reads += 1;
            }

            // Survivors also get slower: latency spike on group 1.
            fabric.install_fault_plan(scenarios::survivor_slowdown(g1_primary, t_crash, 2_000));
        }
        if round == r_recover {
            let t = max_clock(&sessions);
            out.fault.end_ns = t;
            out.post.start_ns = t;
        }
        if round == r_recover && cfg.inject {
            let t = max_clock(&sessions);
            fabric.clear_fault_plan();
            let rec_ep = fabric.endpoint();
            rec_ep.charge_local(t);
            out.recovery_bytes = layer
                .recover_member_from_mirror(&rec_ep, 0, 0)
                .expect("mirror rebuild");
            // The crash-recover cycle goes on record: epoch bump fences
            // anything still signed with the old epoch.
            out.final_epoch = cluster
                .membership()
                .bump_epoch(&layer, &rec_ep, 0)
                .expect("epoch bump");
            cluster
                .membership()
                .mark(&layer, &rec_ep, 0, NodeStatus::Up)
                .expect("mark up");

            // The zombie wakes up and tries to release: every contested
            // lock must refuse it (stolen by a worker, or wiped by the
            // mirror rebuild).
            if let Some((zep, mut held)) = zombie.take() {
                for word in held.chunks_mut(1) {
                    match ExclusiveLock::release_set(&layer, &zep, &[], word) {
                        Err(_) => out.zombie_fenced += 1,
                        Ok(()) => out.zombie_survived += 1,
                    }
                }
            }
        }

        let seg = if round < r_crash {
            &mut out.pre
        } else if round < r_recover {
            &mut out.fault
        } else {
            &mut out.post
        };
        // Keep the hot keys hot so zombie leases get contested.
        let hot = if round % 3 == 0 {
            Some(hot_g1)
        } else if round % 5 == 0 {
            Some(hot_g0)
        } else {
            None
        };
        for (t, s) in sessions.iter_mut().enumerate() {
            out.latency_samples.push(fleet.transfer(s, t, round, hot, seg));
        }
    }
    out.aborts = fleet.aborts;
    let t_end = max_clock(&sessions);
    out.post.end_ns = t_end;
    out.pre.start_ns = 0;
    out.recovered_tps_ratio = if out.pre.tps() > 0.0 {
        out.post.tps() / out.pre.tps()
    } else {
        0.0
    };
    out.steals = sessions.iter().map(|s| s.lock_steals()).sum();
    if trace {
        out.trace.name_process(0, "compute0");
    }
    for (t, s) in sessions.iter().enumerate() {
        out.planes.collect_session(s);
        if trace {
            out.trace.name_thread(0, t as u64 + 1, &format!("session{t}"));
            s.endpoint().export_chrome_trace(&mut out.trace, 0, t as u64 + 1);
        }
    }
    drop(sessions);
    out.t_crash_ns = t_crash;
    // The recovery story is *computed* from the windowed series — the
    // printed dip/recovery numbers can no longer drift from the data.
    if !out.planes.series.is_empty() {
        out.recovery = analysis::recovery_facts(&out.planes.series, t_crash, 0.9);
    }

    // Zero lost writes and zero permanently-held locks are the claims.
    out.audit = fleet.audit(&cluster, t_end);
    out
}

/// Replay a finished chaos run through the online watchdog — counter
/// windows and exact windowed p99s against the
/// (optional) `slo_p99_ns` objective, every other threshold at its
/// [`WatchdogConfig::new`] default — and return the typed alert log.
/// Deterministic bookkeeping over closed windows: two same-seed runs
/// produce byte-identical logs.
fn watchdog_log(
    cfg: &ChaosConfig,
    out: &ChaosOutcome,
    slo_p99_ns: Option<u64>,
) -> Vec<AlertEvent> {
    let series = &out.planes.series;
    if series.is_empty() {
        return Vec::new();
    }
    let p99s = windowed_p99(&out.latency_samples, series.window_ns, series.len());
    let mut wd = WatchdogConfig::new(cfg.window_ns, cfg.sessions as u32);
    wd.slo_p99_ns = slo_p99_ns;
    run_over(wd, series, Some(&p99s))
}

/// Experiment C13 whole: the fault-free twin, the faulted run, and the
/// watchdog replayed over both with its p99 objective armed from the
/// twin.
#[derive(Debug, Clone)]
pub struct C13 {
    /// The faulted run.
    pub out: ChaosOutcome,
    /// The same workload with [`ChaosConfig::inject`] off.
    pub twin: ChaosOutcome,
    /// The p99 objective: twice the twin's worst windowed p99 (`None`
    /// when the twin sampled no series).
    pub slo_p99_ns: Option<u64>,
    /// The twin's alert log; any event in it is a false alert.
    pub twin_log: Vec<AlertEvent>,
    /// The faulted run's alert log.
    pub log: Vec<AlertEvent>,
}

impl C13 {
    /// Run the twin of `cfg`, arm the p99 objective from it, then run
    /// `cfg` itself.
    pub fn run(cfg: &ChaosConfig) -> Self {
        let twin = run(&ChaosConfig { inject: false, ..*cfg }, false);
        let series = &twin.planes.series;
        let worst_p99 = if series.is_empty() {
            0
        } else {
            windowed_p99(&twin.latency_samples, series.window_ns, series.len())
                .into_iter()
                .flatten()
                .max()
                .unwrap_or(0)
        };
        let slo_p99_ns = (worst_p99 > 0).then_some(worst_p99 * 2);
        let out = run_chaos(cfg);
        Self {
            twin_log: watchdog_log(cfg, &twin, slo_p99_ns),
            log: watchdog_log(cfg, &out, slo_p99_ns),
            out,
            twin,
            slo_p99_ns,
        }
    }

    /// The detections in the faulted log of the plan's two faults: the
    /// background partition by `p99_slo_breach` (only if that opens
    /// before the crash: at small scales the partition is shorter than
    /// the rule's debounce), and the crash by `throughput_dip`,
    /// `lease_steal_storm` and `p99_slo_breach`.
    pub fn detections(&self) -> Vec<Detection> {
        let caught = |fault, t_fault_ns, rule, before| {
            self.log
                .iter()
                .find(|e| e.kind == rule && e.state == AlertState::Open && e.at_ns >= t_fault_ns)
                .filter(|e| e.at_ns < before)
                .map(|e| Detection { fault, rule, t_fault_ns, latency_ns: e.at_ns - t_fault_ns })
        };
        let t_crash = self.out.t_crash_ns;
        let crash = [AlertKind::ThroughputDip, AlertKind::LeaseStealStorm, AlertKind::P99SloBreach];
        std::iter::once(caught("partition", PARTITION_START_NS, AlertKind::P99SloBreach, t_crash))
            .chain(crash.map(|rule| caught("crash", t_crash, rule, u64::MAX)))
            .flatten()
            .collect()
    }
}

/// One injected fault caught by one watchdog rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// `partition` or `crash`.
    pub fault: &'static str,
    /// The rule that caught it.
    pub rule: AlertKind,
    /// Ground-truth instant of the fault, virtual ns.
    pub t_fault_ns: u64,
    /// First `open` of `rule` at or after `t_fault_ns`, minus
    /// `t_fault_ns`.
    pub latency_ns: u64,
}

/// Build the C13 report (shared by the binary and the determinism test
/// so both render the exact same JSON).
pub fn report_for(cfg: &ChaosConfig, c13: &C13) -> Report {
    let out = &c13.out;
    let mut rep = Report::new(
        "exp_c13_chaos",
        "C13: chaos — node crash, lease steal, graceful degradation",
    );
    rep.meta("seed", Json::U(cfg.seed));
    rep.meta("sessions", Json::U(cfg.sessions as u64));
    rep.meta("rounds", Json::U(cfg.rounds as u64));
    rep.meta("records", Json::U(cfg.records));
    rep.meta("lease_ns", Json::U(cfg.lease_ns));
    rep.meta("window_ns", Json::U(cfg.window_ns));
    rep.meta("inject", Json::Bool(cfg.inject));
    rep.meta("slo_p99_ns", c13.slo_p99_ns.map_or(Json::Null, Json::U));
    for (name, w) in [("pre", &out.pre), ("fault", &out.fault), ("post", &out.post)] {
        rep.row(
            &format!("window={name}"),
            vec![
                ("window", Json::S(name.to_string())),
                ("commits", Json::U(w.commits)),
                ("aborts", Json::U(w.aborts)),
                ("tps", Json::F(w.tps())),
                ("start_ns", Json::U(w.start_ns)),
                ("end_ns", Json::U(w.end_ns)),
            ],
        );
    }
    rep.row("aborts", vec![("abort_causes", abort_causes_json(&out.aborts))]);
    rep.row("contention", vec![("contention", out.planes.contention.to_json())]);
    rep.row(
        "invariants",
        vec![
            ("lost_writes", Json::U(out.audit.lost_writes)),
            ("stuck_locks", Json::U(out.audit.stuck_locks)),
            ("janitor_reclaims", Json::U(out.audit.janitor_reclaims)),
            ("zombie_fenced", Json::U(out.zombie_fenced)),
            ("zombie_survived", Json::U(out.zombie_survived)),
        ],
    );
    rep.row(
        "recovery",
        vec![
            ("steals", Json::U(out.steals)),
            ("degraded_reads", Json::U(out.degraded_reads)),
            ("recovery_bytes", Json::U(out.recovery_bytes)),
            ("final_epoch", Json::U(out.final_epoch)),
            ("t_crash_ns", Json::U(out.t_crash_ns)),
            ("baseline_tps", Json::F(out.recovery.baseline_tps)),
            ("dip_tps", Json::F(out.recovery.dip_tps)),
            ("dip_depth", Json::F(out.recovery.dip_depth)),
            (
                "time_to_detection_ns",
                out.recovery.time_to_detection_ns.map_or(Json::Null, Json::U),
            ),
            (
                "time_to_recovery_ns",
                out.recovery.time_to_recovery_ns.map_or(Json::Null, Json::U),
            ),
            ("phases", phases_json(&out.planes.phases)),
        ],
    );
    let twin = &c13.twin;
    rep.row(
        "twin",
        vec![
            ("commits", Json::U(twin.pre.commits + twin.fault.commits + twin.post.commits)),
            ("baseline_alerts", Json::U(c13.twin_log.len() as u64)),
        ],
    );
    let detections = c13.detections();
    for d in &detections {
        rep.row(
            &format!("detect={}/{}", d.fault, d.rule.name()),
            vec![
                ("fault", Json::S(d.fault.into())),
                ("alert", Json::S(d.rule.name().into())),
                ("t_fault_ns", Json::U(d.t_fault_ns)),
                ("detection_latency_ns", Json::U(d.latency_ns)),
            ],
        );
    }
    // The crash's tail: the worst-K exemplars' pooled blame.
    let f = &out.planes.forensics;
    let tail = tail_blame(f);
    let mut cells = vec![
        ("txns", Json::U(f.txns)),
        ("critical_path_wire_share", Json::F(f.wire_share())),
        ("tail_dominant", Json::S(blame_name(tail_majority(f)).into())),
    ];
    cells.extend(share_cells(&tail));
    rep.row("tail", cells);
    out.planes.attach(&mut rep, out.post.end_ns, &c13.log);
    rep.headline("pre_tps", Json::F(out.pre.tps()));
    rep.headline("fault_tps", Json::F(out.fault.tps()));
    rep.headline("post_tps", Json::F(out.post.tps()));
    rep.headline("recovered_tps_ratio", Json::F(out.recovered_tps_ratio));
    rep.headline("dip_depth", Json::F(out.recovery.dip_depth));
    rep.headline(
        "time_to_recovery_ns",
        out.recovery.time_to_recovery_ns.map_or(Json::Null, Json::U),
    );
    rep.headline(
        "dip_detection_latency_ns",
        detections
            .iter()
            .find(|d| d.fault == "crash" && d.rule == AlertKind::ThroughputDip)
            .map_or(Json::Null, |d| Json::U(d.latency_ns)),
    );
    rep.headline("crash_tail_backoff_share", Json::F(blame_share(&tail, Blame::BackoffRetry as usize)));
    rep.headline("steals", Json::U(out.steals));
    rep.headline("lost_writes", Json::U(out.audit.lost_writes));
    rep.headline("stuck_locks", Json::U(out.audit.stuck_locks));
    rep
}
