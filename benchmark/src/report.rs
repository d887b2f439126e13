//! One run of one workload: which repetitions it makes, how the metrics
//! are computed from them, and what is printed and written.

use std::path::PathBuf;

use rdma_sim::Phase;
use telemetry::{Json, OTHER_BUCKET};

use crate::driver::{Mode, Rep};
use crate::engine::{self, EngineSpec};
use crate::estimate::{
    best_cost, floor_gap, highest_supported_percentile, iqr_share, median, rep_spread,
    samples_beyond, tick_quantile,
};
use crate::index_probe;
use crate::ladder::{self, Ladder};
use crate::metrics::{Clock, END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans;

/// Bare and observed repetitions of an end-to-end run. The machine's
/// speed drifts over seconds (shared memory system), so many short
/// repetitions, bare and observed interleaved, find its quiet floor
/// better than few long ones.
const REPS: usize = 5;
/// Bare repetitions of a traced run (enough for the repetition spread).
const TRACED_BARE_REPS: usize = 2;

/// Where traces and per-run detail files go: `out/` beside the crate's
/// manifest, wherever the checkout lives.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `(metric name, value)` in manifest order.
type Values = Vec<(&'static str, f64)>;

/// A workload by name.
pub enum Target {
    Engine(Box<EngineSpec>),
    Index,
}

impl Target {
    pub fn by_name(name: &str) -> Option<Target> {
        if name == index_probe::NAME {
            return Some(Target::Index);
        }
        engine::spec(name).map(|s| Target::Engine(Box::new(s)))
    }

    fn rep(&self, mode: Mode, seed: u64, seconds: u64) -> Rep {
        match self {
            Target::Engine(spec) => engine::run_rep(spec, mode, seed, seconds),
            Target::Index => index_probe::run_rep(mode, seed, seconds),
        }
    }
}

/// What one run printed as its last line, plus what `all` and `compare`
/// want beside it.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// How well the repetitions resolve a metric, by name: the gap between
    /// the two best for best-of metrics, the quartile distance for
    /// medians, max - min for sim numbers (0 when they repeat).
    pub spreads: Values,
    pub stream_hash: u64,
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn quantile_us(rep: &Rep, q: f64) -> f64 {
    tick_quantile(&rep.latencies, q) / 1e3
}

fn print_reps(reps: &[Rep]) {
    for (i, r) in reps.iter().enumerate() {
        println!(
            "  rep {i} {:<8} setup {:.4} s | sim {:>12.1} txn/s p50 {:>9.4} us p99.9 {:>9.4} us | host {:>9.1} ns/txn slice-spread {:.3} | txns {} failed {} mismatches {}",
            r.mode.name(),
            r.setup_s,
            r.sim_tps,
            quantile_us(r, 0.5),
            quantile_us(r, 0.999),
            r.host_ns_per_txn,
            iqr_share(&r.slice_costs),
            r.timed_txns,
            r.failed,
            r.mismatches,
        );
    }
}

fn costs(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.host_ns_per_txn).collect()
}

/// The end-to-end run: [`REPS`] bare and [`REPS`] observed repetitions.
fn end_to_end(target: &Target, seed: u64, seconds: u64) -> (Vec<Rep>, Values, Values) {
    let mut bare = Vec::new();
    let mut observed = Vec::new();
    let mut rss_mb = 0.0;
    for i in 0..REPS {
        bare.push(target.rep(Mode::Bare, seed, seconds));
        if i == 0 {
            rss_mb = peak_rss_mb();
        }
        observed.push(target.rep(Mode::Observed, seed, seconds));
    }
    let over = |f: &dyn Fn(&Rep) -> f64| median(&bare.iter().map(f).collect::<Vec<_>>());
    let setups: Vec<f64> = bare.iter().chain(&observed).map(|r| r.setup_s).collect();
    let metrics = vec![
        ("sim_tps", over(&|r| r.sim_tps)),
        ("sim_p50_us", over(&|r| quantile_us(r, 0.5))),
        ("sim_p999_us", over(&|r| quantile_us(r, 0.999))),
        ("host_txn_per_s", 1e9 / best_cost(&costs(&bare))),
        (
            "host_txn_per_s_observed",
            1e9 / best_cost(&costs(&observed)),
        ),
        ("host_rss_mb", rss_mb),
        ("setup_s", median(&setups)),
    ];
    let spreads = vec![
        (
            "sim_tps",
            rep_spread(&bare.iter().map(|r| r.sim_tps).collect::<Vec<_>>()),
        ),
        ("host_txn_per_s", floor_gap(&costs(&bare))),
        ("host_txn_per_s_observed", floor_gap(&costs(&observed))),
        ("setup_s", iqr_share(&setups)),
    ];
    bare.extend(observed);
    (bare, metrics, spreads)
}

/// The traced run: bare, observed and traced repetitions plus the ladder.
fn per_layer(target: &Target, name: &str, seed: u64, seconds: u64) -> (Vec<Rep>, Values) {
    let mut reps: Vec<Rep> = (0..TRACED_BARE_REPS)
        .map(|_| target.rep(Mode::Bare, seed, seconds))
        .collect();
    let obs = target.rep(Mode::Observed, seed, seconds);
    let traced = target.rep(Mode::Traced, seed, seconds);
    let direct_rmw = engine::spec("direct_rmw").expect("ladder cluster");
    let ladder = ladder::run(&direct_rmw, seconds);
    print_ladder(&ladder);

    let trace_path = out_dir().join(format!("trace-{name}.json"));
    match spans::write_trace(&trace_path, &traced.spans) {
        Ok(()) => println!(
            "  wrote {} ({} spans)",
            trace_path.display(),
            traced.spans.len()
        ),
        Err(e) => println!("  could not write {}: {e}", trace_path.display()),
    }

    let bare = &reps[0];
    let c = &obs.counters;
    let n = obs.timed_txns as f64;
    let per_txn = |x: u64| x as f64 / n;
    let phase = |p: Phase| per_txn(c.phase(p));
    let phase_total: u64 = c.phase_ns.iter().sum();
    let idx = traced.index.unwrap_or_default();
    let drift: i64 = obs
        .half_clock_ns
        .iter()
        .zip(&bare.half_clock_ns)
        .map(|(o, b)| *o as i64 - *b as i64)
        .sum();
    let attempted: u64 = reps
        .iter()
        .chain([&obs, &traced])
        .map(|r| r.attempted)
        .sum();
    let failures: u64 = reps.iter().chain([&obs, &traced]).map(Rep::failures).sum();
    let values: Values = vec![
        ("rdma-sim.verbs_per_txn", per_txn(c.verbs)),
        ("rdma-sim.wire_rts_per_txn", per_txn(c.wire_rts)),
        ("rdma-sim.bytes_per_txn", per_txn(c.bytes)),
        (
            "rdma-sim.doorbell_rider_share",
            ratio(c.coalesced as f64, c.verbs as f64),
        ),
        (
            "rdma-sim.cas_fail_share",
            ratio(c.cas_failures as f64, c.cas as f64),
        ),
        ("rdma-sim.msgs_per_txn", per_txn(c.sends)),
        (
            "rdma-sim.sim_ns_per_verb",
            ratio(c.verb_lat_ns as f64, c.verb_lat_count as f64),
        ),
        (
            "rdma-sim.host_ns_per_read_64B",
            ladder.ns("rdma-sim.read_64B"),
        ),
        (
            "rdma-sim.host_ns_per_write_64B",
            ladder.ns("rdma-sim.write_64B"),
        ),
        ("rdma-sim.host_ns_per_cas", ladder.ns("rdma-sim.cas")),
        (
            "rdma-sim.host_ns_per_read_batch16",
            ladder.ns("rdma-sim.read_batch16"),
        ),
        (
            "rdma-sim.host_ns_per_send_recv",
            ladder.ns("rdma-sim.send_recv"),
        ),
        (
            "dsm.host_self_ns_per_read_64B",
            ladder.self_ns("dsm.read_64B"),
        ),
        (
            "dsm.host_self_ns_per_write_64B_r2",
            ladder.self_ns("dsm.write_64B_r2"),
        ),
        ("dsm.host_self_ns_per_cas", ladder.self_ns("dsm.cas")),
        (
            "dsm.host_self_ns_per_read_batch16",
            ladder.self_ns("dsm.read_batch16"),
        ),
        ("dsm.write_verbs_per_write", obs.write_fanout),
        (
            "memnode.alloc_bytes_per_user_byte",
            obs.alloc_bytes_per_user_byte,
        ),
        (
            "memnode.host_ns_per_alloc_free",
            ladder.ns("memnode.alloc_free"),
        ),
        (
            "buffer.hit_rate",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        ),
        ("buffer.evictions_per_txn", per_txn(c.evictions)),
        ("buffer.writebacks_per_txn", per_txn(c.writebacks)),
        ("buffer.sim_fetch_ns_per_txn", phase(Phase::PageFetch)),
        ("buffer.sim_writeback_ns_per_txn", phase(Phase::Writeback)),
        ("buffer.host_ns_per_hit", ladder.ns("buffer.hit")),
        (
            "buffer.host_self_ns_per_miss",
            ladder.self_ns("buffer.miss"),
        ),
        (
            "index.btree_sim_rts_per_search",
            ratio(idx.btree_search_rts as f64, idx.btree_searches as f64),
        ),
        (
            "index.race_sim_rts_per_get",
            ratio(idx.race_get_rts as f64, idx.race_gets as f64),
        ),
        (
            "index.btree_stale_retry_share",
            ratio(idx.btree_stale_retries as f64, idx.btree_ops as f64),
        ),
        ("index.sim_lookup_ns_per_txn", phase(Phase::IndexLookup)),
        (
            "index.host_ns_per_btree_search",
            ladder.ns("index.btree_search"),
        ),
        (
            "index.host_ns_per_btree_insert",
            ladder.ns("index.btree_insert"),
        ),
        ("index.host_ns_per_race_get", ladder.ns("index.race_get")),
        ("index.host_ns_per_race_put", ladder.ns("index.race_put")),
        ("txn.sim_lock_ns_per_txn", phase(Phase::LockAcquire)),
        ("txn.lock_wait_ns_per_txn", per_txn(c.lock_wait_ns)),
        (
            "txn.sim_2pc_ns_per_txn",
            phase(Phase::TwoPcPrepare) + phase(Phase::TwoPcDecide),
        ),
        (
            "txn.abort_share",
            ratio(c.aborts as f64, (c.aborts + c.commits) as f64),
        ),
        (
            "txn.host_ns_per_lock_acq_rel",
            ladder.ns("txn.lock_acq_rel"),
        ),
        (
            "txn.host_self_ns_per_rmw_2pl",
            ladder.self_ns("txn.2pl_rmw"),
        ),
        (
            "txn.host_self_ns_per_rmw_occ",
            ladder.self_ns("txn.occ_rmw"),
        ),
        ("dsmdb.sim_execute_ns_per_txn", phase(Phase::Execute)),
        (
            "dsmdb.sim_coherence_ns_per_txn",
            phase(Phase::CoherenceInval),
        ),
        (
            "dsmdb.sim_unattributed_ns_per_txn",
            per_txn(c.phase_ns[OTHER_BUCKET]),
        ),
        (
            "dsmdb.host_self_ns_per_rmw",
            ladder.self_ns("dsmdb.execute_rmw"),
        ),
        (
            "dsmdb.host_unattributed_ns_per_rmw",
            ladder.unattributed_ns(),
        ),
        ("dsmdb.cross_shard_share", per_txn(c.cross_shard)),
        (
            "dsmdb.invals_per_write",
            ratio(c.inval_msgs as f64, obs.write_ops as f64),
        ),
        ("dsmdb.sim_p999_us", quantile_us(&obs, 0.999)),
        (
            "telemetry.host_overhead_ratio",
            obs.host_ns_per_txn / best_cost(&costs(&reps)),
        ),
        ("telemetry.flight_events_per_txn", per_txn(c.flight_pushed)),
        ("telemetry.sim_drift_ns", drift as f64),
        ("workload.host_ns_per_txn_gen", bare.gen_ns_per_txn),
        ("benchmark.host_slice_spread", iqr_share(&bare.slice_costs)),
        ("benchmark.host_rep_spread", rep_spread(&costs(&reps))),
        (
            "benchmark.tracing_overhead_ratio",
            traced.host_ns_per_txn / obs.host_ns_per_txn,
        ),
        (
            "benchmark.sim_phase_residual_ns",
            obs.mean_latency_ns - per_txn(phase_total),
        ),
        ("benchmark.failed_share", failures as f64 / attempted as f64),
    ];
    println!(
        "  sim reconciliation (observed rep): mean latency {:.1} ns = phases {:.1} ns + residual {:.1} ns (time spent answering peers between txns)",
        obs.mean_latency_ns,
        per_txn(phase_total),
        obs.mean_latency_ns - per_txn(phase_total),
    );
    reps.push(obs);
    reps.push(traced);
    (reps, values)
}

fn print_ladder(ladder: &Ladder) {
    println!("  layer ladder (host ns per call, slice-q1):");
    for r in &ladder.rungs {
        let kids: Vec<String> = r
            .children
            .iter()
            .map(|(n, c)| format!("{n} x {c}"))
            .collect();
        println!(
            "    {:<28} {:>9.1}  self {:>9.1}  {}",
            r.name,
            r.ns,
            ladder.self_ns(r.name),
            if kids.is_empty() {
                String::new()
            } else {
                format!("calls {}", kids.join(", "))
            }
        );
    }
    let v = &ladder.session_verbs;
    println!(
        "    Session::execute(1 rmw) issued {} cas, {} reads, {} writes in {} doorbell groups; ladder residual {:.1} ns of {:.1} ns",
        v.cas,
        v.reads,
        v.writes,
        v.doorbells,
        ladder.unattributed_ns(),
        ladder.ns("dsmdb.execute_rmw"),
    );
}

/// Run `workload` as the driver asks and print the result: every metric
/// by name with unit and clock, then the one-line JSON object.
pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let target = Target::by_name(workload).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{workload}` (known: {})",
            known.join(", ")
        )
    })?;
    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(traced)
    );
    let (reps, metrics, spreads) = if traced {
        let (reps, metrics) = per_layer(&target, workload, seed, seconds);
        (reps, metrics, Vec::new())
    } else {
        end_to_end(&target, seed, seconds)
    };
    print_reps(&reps);
    let bare = &reps[0];
    let n = bare.timed_txns;
    println!(
        "  {} timed txns per bare repetition: {} samples beyond p99.9 (highest percentile with >= 10 beyond: p{}), op-stream hash {:016x}",
        n,
        samples_beyond(n, 0.999),
        highest_supported_percentile(n) * 100.0,
        bare.hash.0,
    );
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(Rep::failures).sum();
    for (name, value) in &metrics {
        let (unit, clock) = unit_and_clock(name);
        println!("  {name:<40} {value:>16.4} {unit:<6} {}", clock.name());
    }
    println!(
        "  failed_share {} / {} logical txns and read-back checks",
        failed, attempted
    );
    let result = RunResult {
        workload: workload.to_string(),
        seed,
        traced,
        attempted,
        failed,
        metrics,
        spreads,
        stream_hash: bare.hash.0,
    };
    Ok(result)
}

fn unit_and_clock(name: &str) -> (&'static str, Clock) {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.clock))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.clock))
        })
        .expect("metric is in the manifest")
}

impl RunResult {
    /// The object the driver reads from the last line of stdout.
    pub fn driver_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let (unit, _) = unit_and_clock(name);
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::F(*value)),
                        ("unit", Json::S(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::U(self.attempted)),
            ("failed", Json::U(self.failed)),
            ("metrics", Json::O(metrics)),
        ])
    }

    /// The richer record `all` stores per run.
    pub fn detail_json(&self) -> Json {
        let pairs = |v: &[(&'static str, f64)]| {
            Json::O(
                v.iter()
                    .map(|(n, x)| (n.to_string(), Json::F(*x)))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("workload", Json::S(self.workload.clone())),
            ("seed", Json::U(self.seed)),
            ("trace", Json::U(u64::from(self.traced))),
            ("attempted", Json::U(self.attempted)),
            ("failed", Json::U(self.failed)),
            ("stream_hash", Json::S(format!("{:016x}", self.stream_hash))),
            ("metrics", pairs(&self.metrics)),
            ("rep_spread", pairs(&self.spreads)),
        ])
    }
}
