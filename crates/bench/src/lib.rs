//! # bench — experiment harnesses for every figure and claim in the paper
//!
//! Each `exp_*` binary regenerates one experiment from DESIGN.md §4
//! (`cargo run --release -p bench --bin exp_<id>`); Criterion
//! microbenchmarks for the hot substrate paths live in `benches/`.
//!
//! This library holds the shared measurement machinery:
//!
//! * [`lockstep`] — drive N logically concurrent virtual clients from one
//!   real thread, interleaving their operations so shared
//!   [`rdma_sim::clock::SharedTimeline`]s see realistic arrival patterns
//!   (sequential per-client loops would serialize behind device tails);
//! * [`run_cluster_workload`] — the real-thread driver for
//!   message-passing architectures (3b coherence, 3c 2PC): every session
//!   runs its share and keeps serving peers until the fleet is done;
//! * [`table`] — fixed-width table printing so experiment output reads
//!   like the paper's tables.

pub mod chaos;
pub mod config;
pub mod heatmap;
pub mod observatory;
pub mod regression;
pub mod reshard;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dsmdb::{AbortCause, Cluster, Op, Session, TxnError};
use rdma_sim::{
    ContentionSnapshot, Endpoint, HealthSnapshot, HistSnapshot, PhaseSnapshot, SeriesSnapshot,
    UtilSnapshot, DEFAULT_WINDOW_NS,
};

pub use config::scale_down;
pub use telemetry::{
    sparkline, AlertEvent, AlertKind, AlertState, ForensicsSnapshot, Gauge, Metric, Watchdog,
    WatchdogConfig,
};

/// Flight-recorder ring depth [`run_cluster_workload`] gives each
/// session: deep enough to hold any single transaction's event chain
/// (forensics only reads back the current txn's events), shallow enough
/// to stay cheap at thousands of sessions.
pub const WORKLOAD_TRACE_RING: usize = 1024;

/// Drive `clients` virtual clients in lockstep for `rounds` rounds. The
/// closure runs one operation for one client; returns the makespan (max
/// virtual clock) in nanoseconds.
pub fn lockstep<F>(eps: &[Endpoint], rounds: usize, mut f: F) -> u64
where
    F: FnMut(usize, &Endpoint),
{
    for _ in 0..rounds {
        for (i, ep) in eps.iter().enumerate() {
            f(i, ep);
        }
    }
    eps.iter().map(|e| e.clock().now_ns()).max().unwrap_or(0)
}

/// Typed abort-cause taxonomy. Every aborted attempt is classified by
/// *why* it aborted, so experiment reports can show the abort mix
/// shifting (e.g. validation failures giving way to lock timeouts as
/// contention rises) instead of one opaque count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AbortCauses {
    /// A no-wait lock was held by someone else for the whole retry
    /// budget (`lock-busy`, and the sharded engine's local lock table).
    pub lock_busy: u64,
    /// The lock holder never released within the bounded-retry budget
    /// (likely crashed or stalled).
    pub lock_timeout: u64,
    /// Commit-time validation failed: OCC read-set drift, TSO/MVCC
    /// version conflicts.
    pub validation_fail: u64,
    /// A lease expired mid-transaction and another worker stole the
    /// lock; the ex-owner must not commit.
    pub lease_stolen: u64,
    /// A node the transaction must reach is down (typed
    /// [`TxnError::NodeUnavailable`]).
    pub node_unavailable: u64,
    /// A transient fabric fault leaked past the DSM retry budget.
    pub transient: u64,
    /// Anything else (unclassified CC labels, infrastructure errors).
    pub other: u64,
}

impl AbortCauses {
    /// Tally one failed attempt under its typed cause (the mapping
    /// lives in [`TxnError::cause`], shared with the per-window series).
    pub fn classify(&mut self, e: &TxnError) {
        match e.cause() {
            AbortCause::LockBusy => self.lock_busy += 1,
            AbortCause::LockTimeout => self.lock_timeout += 1,
            AbortCause::ValidationFail => self.validation_fail += 1,
            AbortCause::LeaseStolen => self.lease_stolen += 1,
            AbortCause::NodeUnavailable => self.node_unavailable += 1,
            AbortCause::Transient => self.transient += 1,
            AbortCause::Other => self.other += 1,
        }
    }

    /// Total aborted attempts across all causes.
    pub fn total(&self) -> u64 {
        self.lock_busy
            + self.lock_timeout
            + self.validation_fail
            + self.lease_stolen
            + self.node_unavailable
            + self.transient
            + self.other
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, o: &AbortCauses) {
        self.lock_busy += o.lock_busy;
        self.lock_timeout += o.lock_timeout;
        self.validation_fail += o.validation_fail;
        self.lease_stolen += o.lease_stolen;
        self.node_unavailable += o.node_unavailable;
        self.transient += o.transient;
        self.other += o.other;
    }
}

/// Outcome of a cluster workload run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Committed transactions across all sessions.
    pub commits: u64,
    /// Aborted attempts, by typed cause.
    pub aborts: AbortCauses,
    /// Makespan: max session virtual time, ns.
    pub makespan_ns: u64,
    /// Sum of round trips (verbs) across sessions.
    pub round_trips: u64,
    /// Round trips actually paid on the wire: verbs minus the ops that
    /// rode along in doorbell groups behind their leader.
    pub wire_round_trips: u64,
    /// End-to-end transaction latency distribution (virtual ns), merged
    /// across every session — committed and aborted attempts alike.
    pub latency: HistSnapshot,
    /// Per-phase virtual-time/verb attribution, merged across sessions.
    pub phases: PhaseSnapshot,
    /// Hot-key/wait-for/coherence contention profile, merged across
    /// every session endpoint.
    pub contention: ContentionSnapshot,
    /// Windowed time-series (commits, aborts by cause, verbs, cache,
    /// locks) merged across every session endpoint.
    pub series: SeriesSnapshot,
    /// Per-node health plane (gauge deltas: sessions in flight, locks
    /// held, pool occupancy, outstanding verbs, membership epoch)
    /// merged across every session endpoint.
    pub health: HealthSnapshot,
    /// Concurrent sessions that fed the run (nodes x threads) — the
    /// watchdog's lock-wait budget denominator.
    pub sessions: u32,
    /// Tail-latency forensics: blame-share histogram over every
    /// transaction plus the worst-K exemplar reservoir, merged across
    /// sessions.
    pub forensics: ForensicsSnapshot,
    /// Fabric-utilization plane: per-memory-node windowed load with
    /// occupancy stamps, page-range heat top-K, and session/phase
    /// splits, merged across every session endpoint.
    pub utilization: UtilSnapshot,
}

impl WorkloadResult {
    /// Committed transactions per virtual second.
    pub fn tps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.commits as f64 * 1e9 / self.makespan_ns as f64
        }
    }

    /// Abort ratio over all attempts.
    pub fn abort_rate(&self) -> f64 {
        let aborts = self.aborts.total();
        let total = self.commits + aborts;
        if total == 0 {
            0.0
        } else {
            aborts as f64 / total as f64
        }
    }

    /// Mean round trips (verbs) per committed transaction.
    pub fn rts_per_txn(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.round_trips as f64 / self.commits as f64
        }
    }

    /// Mean *wire* round trips per committed transaction (doorbell
    /// batching collapses a group of verbs into one of these).
    pub fn wire_rts_per_txn(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.wire_round_trips as f64 / self.commits as f64
        }
    }

    /// Transaction-latency percentile ladder `(p50, p95, p99, p999)`,
    /// virtual ns.
    pub fn latency_percentiles(&self) -> (u64, u64, u64, u64) {
        self.latency.percentiles()
    }

    /// Compact sparkline of the windowed commit rate (empty when the
    /// series was not recorded).
    pub fn tps_sparkline(&self, max_chars: usize) -> String {
        sparkline(&self.series.rate_per_sec(Metric::Commits), max_chars)
    }
}

/// Run `txns_per_session` transactions on every session of `cluster`
/// using real worker threads (needed whenever sessions must answer each
/// other: coherence acks, 2PC votes). `gen` produces the ops for session
/// `(node, thread)`'s `i`-th transaction; aborted transactions retry
/// until they commit (counted).
pub fn run_cluster_workload<G>(
    cluster: &std::sync::Arc<Cluster>,
    txns_per_session: usize,
    gen: G,
) -> WorkloadResult
where
    G: Fn(usize, usize, usize) -> Vec<Op> + Sync,
{
    let nodes = cluster.config().compute_nodes;
    let threads = cluster.config().threads_per_node;
    let total_workers = nodes * threads;
    let finished = AtomicUsize::new(0);
    let commits = AtomicUsize::new(0);
    let aborts = Mutex::new(AbortCauses::default());
    let contention = Mutex::new(ContentionSnapshot::default());
    let makespan = std::sync::atomic::AtomicU64::new(0);
    let rts = std::sync::atomic::AtomicU64::new(0);
    let wire_rts = std::sync::atomic::AtomicU64::new(0);
    let latency = Mutex::new(HistSnapshot::empty());
    let phases = Mutex::new(PhaseSnapshot::default());
    let series = Mutex::new(SeriesSnapshot::empty());
    let health = Mutex::new(HealthSnapshot::empty());
    let forensics = Mutex::new(ForensicsSnapshot::empty());
    let utilization = Mutex::new(UtilSnapshot::empty());
    std::thread::scope(|sc| {
        for n in 0..nodes {
            for t in 0..threads {
                let cluster = cluster.clone();
                let gen = &gen;
                let finished = &finished;
                let commits = &commits;
                let aborts = &aborts;
                let contention = &contention;
                let makespan = &makespan;
                let rts = &rts;
                let wire_rts = &wire_rts;
                let latency = &latency;
                let phases = &phases;
                let series = &series;
                let health = &health;
                let forensics = &forensics;
                let utilization = &utilization;
                sc.spawn(move || {
                    let mut s: Session = cluster.session(n, t);
                    s.endpoint().enable_timeseries(DEFAULT_WINDOW_NS);
                    s.endpoint().enable_health(DEFAULT_WINDOW_NS);
                    s.endpoint().enable_utilization(DEFAULT_WINDOW_NS);
                    // Stable worker id (1-based; 0 = untagged) for the
                    // by-session heat split.
                    s.endpoint().set_util_session((n * threads + t + 1) as u64);
                    s.endpoint().enable_flight_recorder(WORKLOAD_TRACE_RING);
                    s.enable_forensics(config::exemplars());
                    let mut my_aborts = AbortCauses::default();
                    for i in 0..txns_per_session {
                        let ops = gen(n, t, i);
                        loop {
                            match s.execute(&ops) {
                                Ok(_) => {
                                    commits.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                Err(e @ TxnError::Aborted(_)) => {
                                    my_aborts.classify(&e);
                                    s.serve_pending(8);
                                    // Real-thread fairness: give the lock
                                    // holder a chance instead of spinning
                                    // it off the CPU.
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("workload failed: {e}"),
                            }
                        }
                    }
                    finished.fetch_add(1, Ordering::Release);
                    while finished.load(Ordering::Acquire) < total_workers {
                        if !s.serve_pending(16) {
                            std::thread::yield_now();
                        }
                    }
                    s.serve_pending(usize::MAX >> 1);
                    makespan.fetch_max(s.endpoint().clock().now_ns(), Ordering::Relaxed);
                    let snap = s.endpoint().stats();
                    rts.fetch_add(snap.round_trips(), Ordering::Relaxed);
                    wire_rts.fetch_add(snap.wire_round_trips(), Ordering::Relaxed);
                    latency.lock().unwrap().merge(&s.latency());
                    phases.lock().unwrap().merge(&s.phases());
                    aborts.lock().unwrap().merge(&my_aborts);
                    contention
                        .lock()
                        .unwrap()
                        .merge(&s.endpoint().contention_snapshot());
                    series.lock().unwrap().merge(&s.endpoint().series_snapshot());
                    health.lock().unwrap().merge(&s.endpoint().health_snapshot());
                    forensics.lock().unwrap().merge(&s.forensics_snapshot());
                    utilization
                        .lock()
                        .unwrap()
                        .merge(&s.endpoint().utilization_snapshot());
                });
            }
        }
    });
    // Occupancy is allocator state, not fabric flow: stamp it onto the
    // merged snapshot from the layer that owns the memory nodes (cold
    // groups get idle tracks, which is what imbalance-over-occupancy
    // needs to see).
    let mut utilization = utilization.into_inner().unwrap();
    let layer = cluster.layer();
    for g in 0..layer.group_count() {
        let primary = layer.group_primary(g);
        let stats = primary.alloc_stats();
        utilization.stamp_occupancy(primary.id() as u64, stats.capacity, stats.allocated);
    }
    WorkloadResult {
        commits: commits.load(Ordering::Relaxed) as u64,
        aborts: aborts.into_inner().unwrap(),
        makespan_ns: makespan.load(Ordering::Relaxed),
        round_trips: rts.load(Ordering::Relaxed),
        wire_round_trips: wire_rts.load(Ordering::Relaxed),
        latency: latency.into_inner().unwrap(),
        phases: phases.into_inner().unwrap(),
        contention: contention.into_inner().unwrap(),
        series: series.into_inner().unwrap(),
        health: health.into_inner().unwrap(),
        sessions: total_workers as u32,
        forensics: forensics.into_inner().unwrap(),
        utilization,
    }
}

/// Turn on windowed time-series sampling and gauge health (default
/// width) on every endpoint of an endpoint-level run. Sampling reads
/// the virtual clock but never advances it, so enabling this cannot
/// perturb the run.
pub fn enable_series(eps: &[Endpoint]) {
    for ep in eps {
        ep.enable_timeseries(DEFAULT_WINDOW_NS);
        ep.enable_health(DEFAULT_WINDOW_NS);
        ep.enable_utilization(DEFAULT_WINDOW_NS);
    }
}

/// Fold one telemetry plane across `eps`: `snapshot` copies the plane
/// out of an endpoint, `merge` is that plane's (order-independent)
/// merge, and `S::default()` is its identity.
fn merged<S: Default>(
    eps: &[Endpoint],
    snapshot: impl Fn(&Endpoint) -> S,
    merge: impl Fn(&mut S, &S),
) -> S {
    let mut out = S::default();
    for ep in eps {
        merge(&mut out, &snapshot(ep));
    }
    out
}

/// Merge the windowed series recorded by `eps` (for runs that drive
/// endpoints directly instead of going through
/// [`run_cluster_workload`]).
pub fn merged_series(eps: &[Endpoint]) -> SeriesSnapshot {
    merged(eps, Endpoint::series_snapshot, SeriesSnapshot::merge)
}

/// Merge the gauge health planes recorded by `eps` (the companion of
/// [`merged_series`] for endpoint-level runs).
pub fn merged_health(eps: &[Endpoint]) -> HealthSnapshot {
    merged(eps, Endpoint::health_snapshot, HealthSnapshot::merge)
}

/// Merge the fabric-utilization planes recorded by `eps` (the third
/// companion of [`merged_series`] for endpoint-level runs). Occupancy
/// is not stamped here — callers that own the allocators stamp it onto
/// the returned snapshot.
pub fn merged_utilization(eps: &[Endpoint]) -> UtilSnapshot {
    merged(eps, Endpoint::utilization_snapshot, UtilSnapshot::merge)
}

/// Machine-readable experiment output: every `exp_*` binary builds a
/// [`telemetry::Report`] alongside its printed table and calls
/// [`report::emit`], which writes `results/<experiment>.json` and folds
/// the headline into `results/BENCH_summary.json`.
pub mod report {
    use std::path::PathBuf;

    pub use telemetry::report::{
        alerts_from_json, alerts_json, health_from_json, health_json, hist_json, phases_json,
        series_from_json, series_json,
    };
    pub use telemetry::{
        forensics_from_json, forensics_json, move_plan_from_json, move_plan_json,
        utilization_from_json, utilization_json, Json, Report,
    };

    use crate::{AbortCauses, AlertEvent, WatchdogConfig, WorkloadResult};

    /// Where reports land: `$BENCH_RESULTS_DIR`, defaulting to
    /// `results/` under the current directory.
    pub fn results_dir() -> PathBuf {
        crate::config::results_dir()
    }

    /// Write `report` and merge its headline into `BENCH_summary.json`.
    pub fn emit(report: &Report) {
        let dir = results_dir();
        let summary = dir.join("BENCH_summary.json");
        match report.write(&dir, &summary) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write report: {e}"),
        }
    }

    /// Per-cause abort tally as a JSON object (fixed key order).
    pub fn abort_causes_json(a: &AbortCauses) -> Json {
        Json::obj(vec![
            ("lock_busy", Json::U(a.lock_busy)),
            ("lock_timeout", Json::U(a.lock_timeout)),
            ("validation_fail", Json::U(a.validation_fail)),
            ("lease_stolen", Json::U(a.lease_stolen)),
            ("node_unavailable", Json::U(a.node_unavailable)),
            ("transient", Json::U(a.transient)),
            ("other", Json::U(a.other)),
        ])
    }

    /// The standard metrics object for one workload run: throughput,
    /// aborts (total + per-cause), round trips, the latency ladder, the
    /// phase breakdown, and the contention profile.
    pub fn workload_json(r: &WorkloadResult) -> Json {
        Json::obj(vec![
            ("commits", Json::U(r.commits)),
            ("aborts", Json::U(r.aborts.total())),
            ("abort_rate", Json::F(r.abort_rate())),
            ("abort_causes", abort_causes_json(&r.aborts)),
            ("makespan_ns", Json::U(r.makespan_ns)),
            ("tps", Json::F(r.tps())),
            ("rts_per_txn", Json::F(r.rts_per_txn())),
            ("wire_rts_per_txn", Json::F(r.wire_rts_per_txn())),
            ("latency", hist_json(&r.latency)),
            ("phases", phases_json(&r.phases)),
            ("contention", r.contention.to_json()),
        ])
    }

    /// Install the standard headline block for the run the experiment
    /// considers its flagship configuration: tps, the latency ladder
    /// through p999 and max (p99 alone hides the exemplars the
    /// forensics section exists for), wire round trips per txn, and
    /// phase shares — and attach the flagship run's windowed
    /// time-series, health plane, watchdog alert log, and forensics as
    /// the report's schema-v3/v4 sections.
    pub fn standard_headline(rep: &mut Report, r: &WorkloadResult) {
        let (p50, _p95, p99, p999) = r.latency.percentiles();
        rep.headline("tps", Json::F(r.tps()));
        rep.headline("p50_ns", Json::U(p50));
        rep.headline("p99_ns", Json::U(p99));
        rep.headline("p999_ns", Json::U(p999));
        rep.headline("max_ns", Json::U(r.latency.max()));
        rep.headline("wire_rts_per_txn", Json::F(r.wire_rts_per_txn()));
        rep.headline("phases", phases_json(&r.phases));
        attach_timeseries(rep, r);
        attach_live_plane(rep, r);
        rep.forensics(forensics_json(&r.forensics));
        rep.utilization(utilization_json(&r.utilization));
    }

    /// Replay the flagship run through a default-threshold [`crate::Watchdog`]
    /// and attach the health plane plus the resulting alert log. The
    /// replay is deterministic bookkeeping over already-closed windows,
    /// so this cannot change any measured number.
    pub fn attach_live_plane(rep: &mut Report, r: &WorkloadResult) {
        rep.health(health_json(&r.health));
        rep.alerts(alerts_json(&standard_alerts(r)));
    }

    /// The default-threshold watchdog log for one workload run (empty
    /// when the series was not recorded).
    pub fn standard_alerts(r: &WorkloadResult) -> Vec<AlertEvent> {
        watchdog_replay(&r.series, &r.health, r.sessions)
    }

    /// Attach `r`'s windowed series as the report's `timeseries`
    /// section (the flagship run only — per-row series would multiply
    /// report size without adding a claim).
    pub fn attach_timeseries(rep: &mut Report, r: &WorkloadResult) {
        rep.timeseries(series_json(&r.series, r.makespan_ns));
    }

    /// Attach the merged series of an endpoint-level flagship run.
    pub fn attach_endpoint_series(
        rep: &mut Report,
        eps: &[rdma_sim::Endpoint],
        makespan_ns: u64,
    ) {
        rep.timeseries(series_json(&crate::merged_series(eps), makespan_ns));
    }

    /// Attach the live plane of an endpoint-level flagship run: the
    /// merged gauge health across `eps` plus a default-threshold
    /// watchdog replay over the merged series (one "session" per
    /// endpoint for the wait-budget denominator).
    pub fn attach_endpoint_live_plane(rep: &mut Report, eps: &[rdma_sim::Endpoint]) {
        let series = crate::merged_series(eps);
        let health = crate::merged_health(eps);
        rep.health(health_json(&health));
        rep.alerts(alerts_json(&watchdog_replay(&series, &health, eps.len() as u32)));
        rep.utilization(utilization_json(&crate::merged_utilization(eps)));
    }

    /// The default-threshold watchdog log over an already-recorded
    /// series + health plane (empty when the series was not recorded).
    pub fn watchdog_replay(
        series: &rdma_sim::SeriesSnapshot,
        health: &rdma_sim::HealthSnapshot,
        sessions: u32,
    ) -> Vec<AlertEvent> {
        if series.is_empty() {
            return Vec::new();
        }
        let cfg = WatchdogConfig::new(series.window_ns, sessions);
        telemetry::watchdog::run_over(cfg, series, (!health.is_empty()).then_some(health), None)
    }
}

/// Fixed-width table printing.
pub mod table {
    /// Print a header row plus separator.
    pub fn header(cols: &[&str]) {
        let row = cols
            .iter()
            .map(|c| format!("{c:>14}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("{row}");
        println!("{}", "-".repeat(row.len()));
    }

    /// Print one data row.
    pub fn row(cells: &[String]) {
        println!(
            "{}",
            cells
                .iter()
                .map(|c| format!("{c:>14}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    /// Format helpers.
    pub fn f2(x: f64) -> String {
        format!("{x:.2}")
    }
    /// One-decimal float.
    pub fn f1(x: f64) -> String {
        format!("{x:.1}")
    }
    /// Integer with thousands grouping.
    pub fn n(x: u64) -> String {
        let s = x.to_string();
        let mut out = String::new();
        for (i, c) in s.chars().rev().enumerate() {
            if i > 0 && i % 3 == 0 {
                out.push(',');
            }
            out.push(c);
        }
        out.chars().rev().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmdb::{Architecture, CcProtocol, ClusterConfig};
    use rdma_sim::NetworkProfile;

    #[test]
    fn lockstep_returns_max_clock() {
        let fabric = rdma_sim::Fabric::new(NetworkProfile::zero());
        let eps: Vec<Endpoint> = (0..3).map(|_| fabric.endpoint()).collect();
        let makespan = lockstep(&eps, 10, |i, ep| ep.charge_local((i as u64 + 1) * 10));
        assert_eq!(makespan, 10 * 30);
    }

    #[test]
    fn run_cluster_workload_counts_commits() {
        let cluster = Cluster::build(ClusterConfig {
            compute_nodes: 2,
            threads_per_node: 1,
            n_records: 32,
            payload_size: 16,
            profile: NetworkProfile::rdma_cx6(),
            architecture: Architecture::NoCacheNoShard,
            cc: CcProtocol::Occ,
            ..Default::default()
        })
        .unwrap();
        let r = run_cluster_workload(&cluster, 50, |n, _t, i| {
            vec![Op::Rmw {
                key: ((n * 50 + i) % 32) as u64,
                delta: 1,
            }]
        });
        assert_eq!(r.commits, 100);
        assert!(r.makespan_ns > 0);
        assert!(r.tps() > 0.0);
        // The merged series must agree with the aggregate counters.
        assert_eq!(r.series.total(Metric::Commits), r.commits);
        assert_eq!(r.series.total(Metric::Aborts), r.aborts.total());
        assert!(!r.tps_sparkline(24).is_empty());
        // The health plane rode along: sessions entered and left, and
        // the cluster-level gauges return to zero at the end.
        assert_eq!(r.sessions, 2);
        assert!(!r.health.is_empty());
        assert_eq!(r.health.final_level(Gauge::SessionsInFlight), 0);
        assert_eq!(r.health.final_level(Gauge::LocksHeld), 0);
        assert!(r.health.min_level(Gauge::SessionsInFlight) >= 0);
        assert!(r.health.max_level(Gauge::SessionsInFlight) >= 1);
    }

    #[test]
    fn table_number_grouping() {
        assert_eq!(table::n(1_234_567), "1,234,567");
        assert_eq!(table::n(42), "42");
    }
}
