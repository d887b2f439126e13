//! The closed loop every workload runs, and what one repetition reports.
//!
//! One *repetition* runs a warm-up slice plus [`SLICES`] (bare) or
//! `SLICES / 2` (observed, traced) timed slices of a fixed txn count on a
//! freshly built system. Fixed counts — never a duration — keep every
//! sim number exact for a fixed seed. The loop reads the system only
//! through its endpoint's public snapshots.

use std::time::Instant;

use dsmdb::SessionStats;
use rdma_sim::{Endpoint, Metric, OpKind, Phase, DEFAULT_WINDOW_NS};
use telemetry::OTHER_BUCKET;

use crate::estimate::{slice_q1, SLICES};
use crate::ops::StreamHash;
use crate::spans::Span;

/// Flight-recorder ring depth of the `observed` mode — the value
/// `bench::run_cluster_workload` gives every `exp_*` binary.
const TRACE_RING: usize = 1024;

/// How much of the telemetry is switched on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Telemetry planes off.
    Bare,
    /// The planes every `exp_*` binary enables.
    Observed,
    /// `Observed` plus the benchmark's own span per logical txn.
    Traced,
}

impl Mode {
    /// Timed slices of one repetition: the non-bare modes run the first
    /// half of the same sequence.
    pub fn slices(self) -> usize {
        match self {
            Mode::Bare => SLICES,
            Mode::Observed | Mode::Traced => SLICES / 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::Bare => "bare",
            Mode::Observed => "observed",
            Mode::Traced => "traced",
        }
    }
}

/// Switch on the endpoint-level planes exactly as
/// `bench::run_cluster_workload` does (forensics is session-level and is
/// enabled by the engine workloads themselves).
pub fn enable_endpoint_planes(ep: &Endpoint, worker: u64) {
    ep.enable_timeseries(DEFAULT_WINDOW_NS);
    ep.enable_health(DEFAULT_WINDOW_NS);
    ep.enable_utilization(DEFAULT_WINDOW_NS);
    ep.set_util_session(worker);
    ep.enable_flight_recorder(TRACE_RING);
}

/// Counters read from one session through public snapshots. All are
/// cumulative; a repetition reports `end - after_warm_up`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub clock_ns: u64,
    pub verbs: u64,
    pub wire_rts: u64,
    pub bytes: u64,
    pub coalesced: u64,
    pub cas: u64,
    pub cas_failures: u64,
    pub sends: u64,
    pub verb_lat_ns: u64,
    pub verb_lat_count: u64,
    /// Virtual ns per phase bucket (`[OTHER_BUCKET]` = unspanned).
    pub phase_ns: [u64; OTHER_BUCKET + 1],
    pub commits: u64,
    pub aborts: u64,
    pub cross_shard: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub lock_wait_ns: u64,
    pub inval_msgs: u64,
    pub flight_pushed: u64,
}

impl Counters {
    /// Read everything `ep` and `stats` expose right now.
    pub fn read(ep: &Endpoint, stats: SessionStats) -> Self {
        let st = ep.stats();
        let mut verb_lat_ns = 0;
        let mut verb_lat_count = 0;
        for kind in [
            OpKind::Read,
            OpKind::Write,
            OpKind::Cas,
            OpKind::Faa,
            OpKind::Send,
        ] {
            let h = ep.verb_latency(kind);
            verb_lat_ns += (h.mean() * h.count() as f64).round() as u64;
            verb_lat_count += h.count();
        }
        let series = ep.series_snapshot();
        Self {
            clock_ns: ep.clock().now_ns(),
            verbs: st.round_trips(),
            wire_rts: st.wire_round_trips(),
            // RECVs observe bytes the sender already put on the wire.
            bytes: st.total_bytes() - st.bytes_recvd,
            coalesced: st.coalesced,
            cas: st.cas,
            cas_failures: st.cas_failures,
            sends: st.sends,
            verb_lat_ns,
            verb_lat_count,
            phase_ns: ep.phase_snapshot().ns,
            commits: stats.commits,
            aborts: stats.aborts,
            cross_shard: stats.cross_shard,
            cache_hits: series.total(Metric::CacheHits),
            cache_misses: series.total(Metric::CacheMisses),
            evictions: series.total(Metric::Evictions),
            writebacks: series.total(Metric::Writebacks),
            lock_wait_ns: series.total(Metric::LockWaitNs),
            inval_msgs: ep.contention_snapshot().inval_msgs,
            flight_pushed: ep.flight_pushed(),
        }
    }

    /// Apply `f(self_field, other_field)` to every field.
    fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        let mut phase_ns = self.phase_ns;
        for (a, b) in phase_ns.iter_mut().zip(&o.phase_ns) {
            *a = f(*a, *b);
        }
        Counters {
            clock_ns: f(self.clock_ns, o.clock_ns),
            verbs: f(self.verbs, o.verbs),
            wire_rts: f(self.wire_rts, o.wire_rts),
            bytes: f(self.bytes, o.bytes),
            coalesced: f(self.coalesced, o.coalesced),
            cas: f(self.cas, o.cas),
            cas_failures: f(self.cas_failures, o.cas_failures),
            sends: f(self.sends, o.sends),
            verb_lat_ns: f(self.verb_lat_ns, o.verb_lat_ns),
            verb_lat_count: f(self.verb_lat_count, o.verb_lat_count),
            phase_ns,
            commits: f(self.commits, o.commits),
            aborts: f(self.aborts, o.aborts),
            cross_shard: f(self.cross_shard, o.cross_shard),
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            evictions: f(self.evictions, o.evictions),
            writebacks: f(self.writebacks, o.writebacks),
            lock_wait_ns: f(self.lock_wait_ns, o.lock_wait_ns),
            inval_msgs: f(self.inval_msgs, o.inval_msgs),
            flight_pushed: f(self.flight_pushed, o.flight_pushed),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |a, b| a - b)
    }

    /// `self + other`, field by field (sessions of one repetition).
    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }

    /// Virtual ns in one named phase.
    pub fn phase(&self, p: Phase) -> u64 {
        self.phase_ns[p as usize]
    }
}

/// One session's system under test.
pub trait Sut {
    fn endpoint(&self) -> &Endpoint;
    fn stats(&self) -> SessionStats;
    /// Called before each logical txn; returns once this session may run
    /// it. Sessions that share a system take turns here.
    fn await_turn(&mut self) {}
    /// Called after each logical txn.
    fn pass_turn(&mut self) {}
}

/// What the loop needs to know about the repetition it is part of.
pub struct Plan {
    pub mode: Mode,
    /// Logical txns per slice.
    pub slice_len: usize,
    /// Host-clock origin of the repetition's spans.
    pub epoch: Instant,
    /// 1-based worker id, the high half of span txn ids.
    pub worker: u64,
}

/// What one session measured in one repetition (timed slices only unless
/// stated otherwise).
pub struct SessionRun {
    /// Logical txns run, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// Per-logical-txn virtual latency, ns.
    pub latencies: Vec<u32>,
    /// Host ns per txn of each timed slice.
    pub slice_costs: Vec<f64>,
    /// Committed logical txns per virtual second.
    pub sim_tps: f64,
    /// Virtual clock when slice `SLICES / 2` ended.
    pub half_clock_ns: u64,
    pub counters: Counters,
    pub spans: Vec<Span>,
}

/// Drive `sut` through the warm-up slice and the mode's timed slices.
/// `gen(sut, idx)` produces slice `idx`'s input outside the timed region;
/// `run(sut, input, i)` executes its `i`-th logical txn and says whether
/// it committed with a correct result.
pub fn drive<T: Sut, S>(
    sut: &mut T,
    plan: &Plan,
    mut gen: impl FnMut(&mut T, usize) -> S,
    mut run: impl FnMut(&mut T, &S, usize) -> bool,
) -> SessionRun {
    let slices = plan.mode.slices();
    let traced = plan.mode == Mode::Traced;
    let host_now = || plan.epoch.elapsed().as_nanos() as u64;
    let mut out = SessionRun {
        attempted: 0,
        failed: 0,
        latencies: Vec::with_capacity(slices * plan.slice_len),
        slice_costs: Vec::with_capacity(slices),
        sim_tps: 0.0,
        half_clock_ns: 0,
        counters: Counters::default(),
        spans: Vec::new(),
    };
    if traced {
        out.spans.push(Span {
            name: "run",
            start_host_ns: host_now(),
            end_host_ns: 0,
            start_sim_ns: sut.endpoint().clock().now_ns(),
            end_sim_ns: 0,
            parent: None,
            txn: 0,
        });
    }
    let mut after_warm_up = Counters::default();
    // Slice 0 is the untimed warm-up (5 % of a bare repetition).
    for idx in 0..=slices {
        let input = gen(sut, idx);
        if idx == 1 {
            after_warm_up = Counters::read(sut.endpoint(), sut.stats());
        }
        let t = Instant::now();
        for i in 0..plan.slice_len {
            sut.await_turn();
            let sim0 = sut.endpoint().clock().now_ns();
            let host0 = traced.then(host_now);
            let ok = run(sut, &input, i);
            let sim1 = sut.endpoint().clock().now_ns();
            sut.pass_turn();
            out.attempted += 1;
            out.failed += u64::from(!ok);
            if idx >= 1 {
                out.latencies
                    .push((sim1 - sim0).min(u32::MAX as u64) as u32);
            }
            if let Some(host0) = host0 {
                out.spans.push(Span {
                    name: "dsmdb.execute",
                    start_host_ns: host0,
                    end_host_ns: host_now(),
                    start_sim_ns: sim0,
                    end_sim_ns: sim1,
                    parent: Some(0),
                    txn: (plan.worker << 32) | out.attempted,
                });
            }
        }
        if idx >= 1 {
            out.slice_costs
                .push(t.elapsed().as_nanos() as f64 / plan.slice_len as f64);
        }
        if idx == SLICES / 2 {
            out.half_clock_ns = sut.endpoint().clock().now_ns();
        }
    }
    out.counters = Counters::read(sut.endpoint(), sut.stats()).since(&after_warm_up);
    out.sim_tps = out.latencies.len() as f64 * 1e9 / out.counters.clock_ns as f64;
    if let Some(root) = out.spans.first_mut() {
        root.end_host_ns = host_now();
        root.end_sim_ns = sut.endpoint().clock().now_ns();
    }
    out
}

/// One repetition's results, sessions merged.
pub struct Rep {
    pub mode: Mode,
    /// Build (cluster or index load) until the first txn could run.
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Records or keys whose read-back value was wrong.
    pub mismatches: u64,
    /// Timed logical txns, all sessions.
    pub timed_txns: u64,
    /// Sorted per-logical-txn virtual latencies, ns.
    pub latencies: Vec<u32>,
    pub mean_latency_ns: f64,
    /// Committed logical txns per virtual second (sessions' rates summed).
    pub sim_tps: f64,
    /// Slice-q1 host cost, ns per txn (sessions' rates summed, inverted).
    pub host_ns_per_txn: f64,
    /// Session 0's slice costs (for the slice spread).
    pub slice_costs: Vec<f64>,
    /// Per-session virtual clock at the half-way txn.
    pub half_clock_ns: Vec<u64>,
    pub counters: Counters,
    /// Write operations in the timed input.
    pub write_ops: u64,
    /// Host ns the generator spent per logical txn.
    pub gen_ns_per_txn: f64,
    pub hash: StreamHash,
    /// WRITE verbs one `DsmLayer::write` issues on this system.
    pub write_fanout: f64,
    /// Allocated DSM bytes per byte of user data, after set-up.
    pub alloc_bytes_per_user_byte: f64,
    /// Index workload only, traced mode: `(wire RTs, calls)` of B+tree
    /// searches and RACE gets, and the tree's stale-retry share.
    pub index: Option<IndexCounts>,
    /// Session 0's spans (traced mode).
    pub spans: Vec<Span>,
}

/// Per-structure counts of the index workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexCounts {
    pub btree_search_rts: u64,
    pub btree_searches: u64,
    pub race_get_rts: u64,
    pub race_gets: u64,
    pub btree_stale_retries: u64,
    pub btree_ops: u64,
}

impl Rep {
    /// Merge the sessions of one repetition. The caller fills in what
    /// only it knows (`mismatches`, `write_ops`, generator cost, hash,
    /// fan-out, allocation ratio, index counts).
    pub fn merge(mode: Mode, setup_s: f64, runs: Vec<SessionRun>) -> Rep {
        let mut rep = Rep {
            mode,
            setup_s,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            timed_txns: 0,
            latencies: Vec::new(),
            mean_latency_ns: 0.0,
            sim_tps: 0.0,
            host_ns_per_txn: 0.0,
            slice_costs: runs[0].slice_costs.clone(),
            half_clock_ns: Vec::new(),
            counters: Counters::default(),
            write_ops: 0,
            gen_ns_per_txn: 0.0,
            hash: StreamHash::default(),
            write_fanout: 0.0,
            alloc_bytes_per_user_byte: 0.0,
            index: None,
            spans: Vec::new(),
        };
        let mut host_rate = 0.0;
        for (i, run) in runs.into_iter().enumerate() {
            rep.attempted += run.attempted;
            rep.failed += run.failed;
            rep.sim_tps += run.sim_tps;
            host_rate += 1e9 / slice_q1(&run.slice_costs);
            rep.half_clock_ns.push(run.half_clock_ns);
            rep.counters = rep.counters.plus(&run.counters);
            rep.latencies.extend(run.latencies);
            if i == 0 {
                rep.spans = run.spans;
            }
        }
        rep.timed_txns = rep.latencies.len() as u64;
        rep.latencies.sort_unstable();
        rep.mean_latency_ns =
            rep.latencies.iter().map(|&l| l as f64).sum::<f64>() / rep.timed_txns as f64;
        rep.host_ns_per_txn = 1e9 / host_rate;
        rep
    }

    /// Failed logical txns plus wrong read-back values.
    pub fn failures(&self) -> u64 {
        self.failed + self.mismatches
    }
}
