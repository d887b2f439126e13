//! # bench — experiment harnesses for every figure and claim in the paper
//!
//! Each `exp_*` binary regenerates one experiment from DESIGN.md §4
//! (`cargo run --release -p bench --bin exp_<id>`).
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
//! * [`Planes`] — the one telemetry bundle every run records, merges and
//!   attaches to its report;
//! * [`report`] — report emission, and the validator of everything the
//!   experiments write to `results/`;
//! * [`table`] — fixed-width table printing so experiment output reads
//!   like the paper's tables.

pub mod chaos;
pub mod config;
mod fleet;
pub mod heatmap;
pub mod observatory;
mod planes;
pub mod regression;
pub mod reshard;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use dsmdb::{AbortCause, Cluster, Op, Session, TxnError};
use rdma_sim::{Endpoint, DEFAULT_WINDOW_NS};

pub use config::scale_down;
pub use fleet::Audit;
pub use planes::{Planes, EXEMPLARS};
pub use telemetry::{
    sparkline, AlertEvent, AlertKind, AlertState, ForensicsSnapshot, Metric, Watchdog,
    WatchdogConfig,
};

/// Flight-recorder ring depth [`run_cluster_workload`] gives each
/// session: deep enough to hold any single transaction's event chain,
/// shallow enough to stay cheap at thousands of sessions.
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

/// Aborted attempts per typed cause, indexed by [`AbortCause`]. Every
/// aborted attempt is classified by *why* it aborted, so experiment
/// reports can show the abort mix shifting (e.g. validation failures
/// giving way to lock timeouts as contention rises) instead of one
/// opaque count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AbortCauses([u64; AbortCause::NAMES.len()]);

impl AbortCauses {
    /// Tally one failed attempt under its typed cause (the mapping
    /// lives in [`TxnError::cause`], shared with the per-window series).
    pub fn classify(&mut self, e: &TxnError) {
        self.0[e.cause() as usize] += 1;
    }

    /// Total aborted attempts across all causes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, o: &AbortCauses) {
        for (n, m) in self.0.iter_mut().zip(o.0) {
            *n += m;
        }
    }

    /// Every cause's report name and count, in [`AbortCause::NAMES`]
    /// order.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        AbortCause::NAMES.into_iter().zip(self.0)
    }
}

impl std::ops::Index<AbortCause> for AbortCauses {
    type Output = u64;

    fn index(&self, cause: AbortCause) -> &u64 {
        &self.0[cause as usize]
    }
}

/// Outcome of a cluster workload run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Committed transactions across all sessions.
    pub commits: u64,
    /// Aborted attempts, by typed cause.
    pub aborts: AbortCauses,
    /// Makespan: max session virtual time, ns.
    pub makespan_ns: u64,
    /// Sum of round trips (verbs) across sessions and node handlers.
    pub round_trips: u64,
    /// Round trips actually paid on the wire: verbs minus the ops that
    /// rode along in doorbell groups behind their leader.
    pub wire_round_trips: u64,
    /// The latency, phase, contention, series and forensics planes,
    /// merged across every session.
    pub planes: Planes,
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
        self.planes.latency.percentiles()
    }

    /// Fold one worker's share into the run's.
    fn merge(&mut self, o: &WorkloadResult) {
        self.commits += o.commits;
        self.aborts.merge(&o.aborts);
        self.makespan_ns = self.makespan_ns.max(o.makespan_ns);
        self.round_trips += o.round_trips;
        self.wire_round_trips += o.wire_round_trips;
        self.planes.merge(&o.planes);
    }
}

/// Counts its worker as finished when dropped — on the normal path
/// before the worker starts draining, and during unwinding if the
/// worker panics (which also fails the run, so the peers stop issuing
/// transactions it would have to answer) — so no exit path leaves the
/// peers waiting for it.
struct Finished<'a> {
    count: &'a AtomicUsize,
    failure: &'a OnceLock<String>,
}

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.failure.set("a workload session panicked".into());
        }
        self.count.fetch_add(1, Ordering::Release);
    }
}

/// Run `txns_per_session` transactions on every session of `cluster`
/// using real worker threads (needed whenever sessions must answer each
/// other: coherence acks, 2PC votes). `gen` produces the ops for session
/// `(node, thread)`'s `i`-th transaction; aborted transactions retry
/// until they commit (counted).
///
/// # Panics
///
/// With the first non-abort error any session hit. That session and
/// its peers stop issuing transactions but keep answering each other
/// until all have stopped, so the run ends instead of waiting on a
/// worker that is gone.
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
    let failure: OnceLock<String> = OnceLock::new();
    let total = Mutex::new(WorkloadResult::default());
    // Each node's handler answers its peers for all of the node's
    // sessions. Its clock restarts with this run's sessions, which start
    // at 0, and its verbs count once per cluster, as what this run added.
    let handlers: Vec<_> = (0..nodes).filter_map(|n| cluster.handler(n)).collect();
    let handler_rts = || {
        handlers.iter().fold((0, 0), |(verbs, wire), h| {
            let s = h.stats();
            (verbs + s.round_trips(), wire + s.wire_round_trips())
        })
    };
    handlers.iter().for_each(|h| h.restart_clock());
    let before = handler_rts();
    std::thread::scope(|sc| {
        for n in 0..nodes {
            for t in 0..threads {
                let (cluster, gen, finished, failure, total) =
                    (cluster.clone(), &gen, &finished, &failure, &total);
                sc.spawn(move || {
                    let working = Finished { count: finished, failure };
                    let mut s: Session = cluster.session(n, t);
                    s.endpoint().enable_timeseries(DEFAULT_WINDOW_NS);
                    Planes::enable_forensics(&mut s, WORKLOAD_TRACE_RING);
                    let mut mine = WorkloadResult::default();
                    for i in 0..txns_per_session {
                        let ops = gen(n, t, i);
                        // Retry until it commits — or any session,
                        // this one included, has failed for good.
                        while failure.get().is_none() {
                            match s.execute(&ops) {
                                Ok(_) => {
                                    mine.commits += 1;
                                    break;
                                }
                                Err(e @ TxnError::Aborted(_)) => {
                                    mine.aborts.classify(&e);
                                    s.serve_pending(8);
                                    // Real-thread fairness: give the lock
                                    // holder a chance instead of spinning
                                    // it off the CPU.
                                    std::thread::yield_now();
                                }
                                Err(e) => {
                                    let _ = failure.set(format!("workload failed: {e}"));
                                }
                            }
                        }
                        if failure.get().is_some() {
                            break;
                        }
                    }
                    drop(working);
                    while finished.load(Ordering::Acquire) < total_workers {
                        if !s.serve_pending(16) {
                            std::thread::yield_now();
                        }
                    }
                    s.serve_pending(usize::MAX >> 1);
                    mine.makespan_ns = s.endpoint().clock().now_ns();
                    let snap = s.endpoint().stats();
                    mine.round_trips = snap.round_trips();
                    mine.wire_round_trips = snap.wire_round_trips();
                    mine.planes.collect_session(&s);
                    total.lock().expect("no worker panics while merging").merge(&mine);
                });
            }
        }
    });
    if let Some(e) = failure.get() {
        panic!("{e}");
    }
    let mut total = total.into_inner().expect("no worker panics while merging");
    let after = handler_rts();
    total.round_trips += after.0 - before.0;
    total.wire_round_trips += after.1 - before.1;
    total
}

/// Machine-readable experiment output: every `exp_*` binary builds a
/// [`telemetry::Report`] alongside its printed table and calls
/// [`report::emit`], which writes `results/<experiment>.json` and folds
/// the headline into `results/BENCH_summary.json`;
/// [`report::dir_violations`] is the validator of what lands there.
pub mod report {
    use std::path::{Path, PathBuf};

    pub use telemetry::report::{
        alerts_json, hist_json, phases_json, series_from_json, series_json, violations, Section,
    };
    pub use telemetry::{forensics_json, move_plan_json, utilization_json, Json, Report};

    pub use crate::config::results_dir;
    use crate::{AbortCauses, WorkloadResult};
    use telemetry::report::{check, embedded_violations};
    use telemetry::{move_plan_from_json, MovePlan};

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
        Json::O(a.named().map(|(name, n)| (name.to_string(), Json::U(n))).collect())
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
            ("latency", hist_json(&r.planes.latency)),
            ("phases", phases_json(&r.planes.phases)),
            ("contention", r.planes.contention.to_json()),
        ])
    }

    /// Install the standard headline block for the run the experiment
    /// considers its flagship configuration: tps, the latency ladder
    /// through p999 and max (p99 alone hides the tail), wire round trips
    /// per txn, and phase shares.
    pub fn standard_headline(rep: &mut Report, r: &WorkloadResult) {
        let (p50, _p95, p99, p999) = r.planes.latency.percentiles();
        rep.headline("tps", Json::F(r.tps()));
        rep.headline("p50_ns", Json::U(p50));
        rep.headline("p99_ns", Json::U(p99));
        rep.headline("p999_ns", Json::U(p999));
        rep.headline("max_ns", Json::U(r.planes.latency.max()));
        rep.headline("wire_rts_per_txn", Json::F(r.wire_rts_per_txn()));
        rep.headline("phases", phases_json(&r.planes.phases));
    }

    /// Why a parsed document is not a valid instance of one kind.
    type Rule = fn(&Json) -> Vec<String>;

    /// What a file in the results directory holds, by the suffix of
    /// its stem; anything else named `exp_*.json` is a report.
    const ARTIFACTS: [(&str, Rule); 5] = [
        // A Chrome `trace_event` export: a non-empty `traceEvents`
        // array whose entries carry a `ph` tag.
        ("_trace", |doc| match doc.get("traceEvents").and_then(Json::as_array) {
            Some(events) if !events.is_empty() => events
                .iter()
                .position(|ev| ev.get("ph").and_then(Json::as_str).is_none())
                .map(|i| format!("traceEvents[{i}] has no \"ph\" tag"))
                .into_iter()
                .collect(),
            _ => vec!["no traceEvents".into()],
        }),
        // The watchdog's log, exactly an `alerts` section.
        ("_alerts", |doc| Section::Alerts.violations(doc, None)),
        // Worst-K chains: part name -> `forensics` section.
        ("_exemplars", |doc| match doc {
            Json::O(parts) if !parts.is_empty() => parts
                .iter()
                .flat_map(|(name, part)| {
                    let found = Section::Forensics.violations(part, None);
                    found.into_iter().map(move |v| format!("part \"{name}\": forensics: {v}"))
                })
                .collect(),
            _ => vec!["not a non-empty object of forensics sections".into()],
        }),
        // The flagship heat snapshot, exactly a `utilization` section.
        ("_heat", |doc| Section::Utilization.violations(doc, None)),
        // The placement advisor's typed plan.
        ("_moveplan", |doc| {
            check(doc, move_plan_from_json(doc), move_plan_json, MovePlan::violations)
        }),
    ];

    fn load(path: &Path) -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
        Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))
    }

    /// Why the file at `path` is not what its name says it is (empty
    /// when it is): a report must be valid ([`violations`]) and named
    /// after its experiment, an artifact must be a valid instance of
    /// the section its suffix names. Each message starts with the path.
    pub fn file_violations(path: &Path) -> Vec<String> {
        let doc = match load(path) {
            Ok(doc) => doc,
            Err(e) => return vec![format!("{}: {e}", path.display())],
        };
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let mut found = match ARTIFACTS.iter().find(|(suffix, _)| stem.ends_with(suffix)) {
            Some((_, check)) => check(&doc),
            None => violations(&doc),
        };
        let named = doc.get("experiment").and_then(Json::as_str);
        if named.is_some_and(|name| name != stem) {
            found.push(format!("experiment {named:?} does not match the file name"));
        }
        found.into_iter().map(|v| format!("{}: {v}", path.display())).collect()
    }

    /// Validate everything the experiments wrote to `dir`: every
    /// `exp_*.json` ([`file_violations`]) and `BENCH_summary.json`,
    /// whose entries must each have a report file and valid embedded
    /// phase shares. Returns how many files were checked and every
    /// violation found; a directory with no report is itself one.
    pub fn dir_violations(dir: &Path) -> (usize, Vec<String>) {
        let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
            Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
            Err(e) => return (0, vec![format!("cannot read {}: {e}", dir.display())]),
        };
        paths.retain(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("exp_") && name.ends_with(".json")
        });
        paths.sort();
        let mut found: Vec<String> = paths.iter().flat_map(|p| file_violations(p)).collect();
        if paths.is_empty() {
            found.push(format!("no exp_*.json reports in {}", dir.display()));
        }
        let summary = dir.join("BENCH_summary.json");
        let mut in_summary = Vec::new();
        match load(&summary) {
            Ok(doc) => match doc.get("experiments") {
                // Headlines are keyed by experiment name, sorted on merge.
                Some(Json::O(entries)) if !entries.is_empty() => {
                    for (name, _) in entries {
                        if !dir.join(format!("{name}.json")).exists() {
                            in_summary.push(format!("entry \"{name}\" has no report file"));
                        }
                    }
                    embedded_violations("$", &doc, &mut in_summary);
                }
                _ => in_summary.push("no experiments".into()),
            },
            Err(e) => in_summary.push(e),
        }
        found.extend(in_summary.into_iter().map(|v| format!("{}: {v}", summary.display())));
        (paths.len() + 1, found)
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
        assert_eq!(r.planes.series.total(Metric::Commits), r.commits);
        assert_eq!(r.planes.series.total(Metric::Aborts), r.aborts.total());
        assert!(!r.planes.tps_sparkline(24).is_empty());
        // Every txn that began ended in a commit or an abort, so no
        // session is left in flight.
        assert_eq!(r.planes.series.total(Metric::Begins), r.commits + r.aborts.total());
        assert_eq!(r.planes.series.violations(r.makespan_ns), Vec::<String>::new());
    }

    /// Thread 0 only touches keys of memory group 0, which is down, so
    /// its first transaction fails for good; thread 1 only touches
    /// group 1 and finishes. The run must end with thread 0's error —
    /// not leave thread 1 waiting forever for a peer that is gone.
    #[test]
    fn one_failed_worker_fails_the_run_instead_of_hanging_it() {
        let cluster = Cluster::build(ClusterConfig {
            compute_nodes: 1,
            threads_per_node: 2,
            memory_nodes: 2,
            replication: 1,
            n_records: 64,
            payload_size: 16,
            profile: NetworkProfile::rdma_cx6(),
            architecture: Architecture::NoCacheNoShard,
            cc: CcProtocol::TplExclusive,
            ..Default::default()
        })
        .unwrap();
        let keys = [0, 1].map(|g| {
            let in_group = (0..64u64).filter(|&k| cluster.table().group_of(k) == g);
            in_group.collect::<Vec<_>>()
        });
        cluster.layer().crash_member(0, 0).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_cluster_workload(&cluster, 200, |_n, t, i| {
                    vec![Op::Rmw { key: keys[t][i % keys[t].len()], delta: 1 }]
                })
            }));
            let _ = tx.send(run.map(|r| r.commits).map_err(|p| match p.downcast::<String>() {
                Ok(msg) => *msg,
                Err(_) => "a panic without a message".to_string(),
            }));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_cluster_workload hung on a failed worker");
        runner.join().unwrap();
        let msg = outcome.expect_err("a run with a dead memory group must not succeed");
        assert!(msg.starts_with("workload failed: "), "{msg}");
    }

    #[test]
    fn table_number_grouping() {
        assert_eq!(table::n(1_234_567), "1,234,567");
        assert_eq!(table::n(42), "42");
    }
}
