//! Contention-observatory harness for experiment **O1**: sweep Zipf
//! skew and watch the contention profile move — which pages get hot,
//! how deep the wait-for chains grow, and how the abort-cause mix
//! shifts from "almost nothing" to "lock waits everywhere".
//!
//! Like the C13 chaos harness, everything runs from ONE real thread on
//! the virtual clock: sessions execute round-robin and all randomness
//! is `StdRng::seed_from_u64` of a value derived from
//! [`ObsConfig::seed`], so two runs with the same config produce
//! byte-identical reports *and* byte-identical Chrome traces.
//!
//! Round-robin sessions never overlap their lock holds (each `execute`
//! runs to completion before the next starts), so contention is
//! supplied by a deterministic *antagonist*: every round it grabs the
//! exclusive lock of one Zipf-drawn key and sits on it while the whole
//! fleet runs. The skew knob thereby translates directly into lock
//! contention — at theta 0 the antagonist is rarely in anyone's way,
//! at theta 1.2 it squats on the same few hot records everyone wants —
//! without sacrificing bit-for-bit reproducibility.
//!
//! The harness also measures the flight recorder's own cost the honest
//! way: it runs the identical workload with the recorder off and on
//! and compares virtual-time throughput. Recording reads the virtual
//! clock but never advances it, so the measured overhead must be 0% —
//! comfortably under the <2% budget the observatory promises.

use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op, Session, TxnError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::{ChromeTrace, NetworkProfile, DEFAULT_WINDOW_NS};
use telemetry::MERGED_TOP_K;
use txn::locks::ExclusiveLock;
use workload::ZipfGenerator;

use crate::fleet::max_clock;
use crate::{AbortCauses, Planes};

/// Lock-word tag the antagonist signs its holds with; far outside the
/// session worker-tag range so wait-for edges name it unambiguously.
const ANTAGONIST_TAG: u64 = 0xA11;

/// Knobs for one observatory run.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Master seed for key choice.
    pub seed: u64,
    /// Virtual sessions (threads on the single compute node).
    pub sessions: usize,
    /// Rounds per session; each round is one transaction attempt.
    pub rounds: usize,
    /// Records in the table.
    pub records: u64,
    /// Payload bytes per record.
    pub payload: usize,
    /// Zipf skew (0.0 = uniform).
    pub theta: f64,
    /// Share of read-only transactions, percent.
    pub read_pct: u32,
    /// Concurrency control under test.
    pub cc: CcProtocol,
    /// Capacity of each session's flight-recorder ring (0 = off).
    pub trace_ring: usize,
    /// Time-series window width, virtual ns (0 = off).
    pub window_ns: u64,
    /// First round the antagonist squats from (0 = from the start). A
    /// late onset gives the watchdog a clean before/after edge: lock
    /// waits are ~zero until this round, then concentrate.
    pub antagonist_from_round: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            seed: 0x01,
            sessions: 8,
            rounds: 600,
            records: 1024,
            payload: 64,
            theta: 0.9,
            read_pct: 20,
            cc: CcProtocol::TplExclusive,
            trace_ring: 4096,
            window_ns: DEFAULT_WINDOW_NS,
            antagonist_from_round: 0,
        }
    }
}

/// Everything one observatory run measures.
#[derive(Debug, Clone, Default)]
pub struct ObsOutcome {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts, by typed cause.
    pub aborts: AbortCauses,
    /// Max session virtual time, ns.
    pub makespan_ns: u64,
    /// Telemetry merged across all sessions: the series is empty when
    /// `window_ns` is 0, forensics when `trace_ring` is 0.
    pub planes: Planes,
    /// Hot keys: `(record key, wait ns)` for the [`MERGED_TOP_K`] lock
    /// words that waited longest, resolved back from lock addresses to
    /// record ids.
    pub hot_keys: Vec<(u64, u64)>,
    /// Chrome trace of the run (empty when `trace_ring` is 0).
    pub trace: ChromeTrace,
    /// Virtual instant of the antagonist's first squat (max session
    /// clock at the onset round), ns; 0 when it squats from round 0.
    pub t_antagonist_ns: u64,
}

impl ObsOutcome {
    /// Committed transactions per virtual second.
    pub fn tps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.commits as f64 * 1e9 / self.makespan_ns as f64
        }
    }
}

/// Run one skew point. Deterministic in `cfg` (and nothing else).
pub fn run_observatory(cfg: &ObsConfig) -> ObsOutcome {
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 1,
        threads_per_node: cfg.sessions,
        memory_nodes: 2,
        n_records: cfg.records,
        payload_size: cfg.payload,
        versions: if cfg.cc == CcProtocol::Mvcc { 4 } else { 1 },
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::NoCacheNoShard,
        cc: cfg.cc,
        ..Default::default()
    })
    .expect("observatory cluster");
    let table = cluster.table().clone();
    let layer = cluster.layer().clone();
    let fabric = cluster.fabric().clone();
    let zipf = ZipfGenerator::new(cfg.records, cfg.theta);
    let antagonist = fabric.endpoint();

    let mut sessions: Vec<Session> =
        (0..cfg.sessions).map(|t| cluster.session(0, t)).collect();
    for s in &mut sessions {
        if cfg.trace_ring > 0 {
            Planes::enable_forensics(s, cfg.trace_ring);
        }
        s.endpoint().enable_timeseries(cfg.window_ns);
    }

    let mut out = ObsOutcome::default();

    for round in 0..cfg.rounds {
        // From the onset round, the antagonist squats on one Zipf-hot
        // lock for the round.
        let squat = if round >= cfg.antagonist_from_round {
            if round == cfg.antagonist_from_round && round > 0 {
                out.t_antagonist_ns = max_clock(&sessions);
            }
            let mut arng = StdRng::seed_from_u64(cfg.seed ^ 0xA11A ^ ((round as u64) << 16));
            let key = zipf.next(&mut arng);
            // Announce a synthetic per-squat trace id so sessions that
            // block on the squat can name the antagonist as the holder
            // (otherwise their waits degrade to anonymous backoff).
            fabric.announce_trace(ANTAGONIST_TAG, (ANTAGONIST_TAG << 32) | (round as u64 + 1));
            ExclusiveLock::acquire(&layer, &antagonist, table.lock_addr(key), ANTAGONIST_TAG, 0)
                .expect("all locks are free between rounds");
            Some(key)
        } else {
            None
        };
        for (t, s) in sessions.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ ((t as u64) << 40) ^ ((round as u64) << 8),
            );
            let a = zipf.next(&mut rng);
            let mut b = zipf.next(&mut rng);
            while b == a {
                b = zipf.next(&mut rng);
            }
            let ops = if rng.gen_range(0..100) < cfg.read_pct {
                [Op::Read(a), Op::Read(b)]
            } else {
                [Op::Rmw { key: a, delta: -1 }, Op::Rmw { key: b, delta: 1 }]
            };
            match s.execute(&ops) {
                Ok(_) => out.commits += 1,
                Err(e @ (TxnError::Aborted(_) | TxnError::NodeUnavailable { .. })) => {
                    out.aborts.classify(&e)
                }
                Err(e) => panic!("observatory run failed: {e}"),
            }
        }
        if let Some(key) = squat {
            ExclusiveLock::release(&layer, &antagonist, table.lock_addr(key))
                .expect("antagonist owns its squat");
            fabric.retire_trace(ANTAGONIST_TAG);
        }
    }

    out.makespan_ns = max_clock(&sessions);
    out.trace.name_process(0, "compute0");
    for (t, s) in sessions.iter().enumerate() {
        out.planes.collect_session(s);
        if cfg.trace_ring > 0 {
            out.trace.name_thread(0, t as u64 + 1, &format!("session{t}"));
            s.endpoint().export_chrome_trace(&mut out.trace, 0, t as u64 + 1);
        }
    }

    // Resolve the hottest lock addresses back to record keys so the
    // report names records, not raw fabric addresses.
    let mut by_addr = std::collections::BTreeMap::new();
    for k in 0..cfg.records {
        by_addr.insert(table.lock_addr(k).to_raw(), k);
        by_addr.insert(table.payload_addr(k, 0).to_raw(), k);
    }
    out.hot_keys = out
        .planes
        .contention
        .wait_top
        .ranked()
        .iter()
        .take(MERGED_TOP_K)
        .filter_map(|e| by_addr.get(&e.key).map(|&k| (k, e.count)))
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_runs_are_identical_including_the_trace() {
        let cfg = ObsConfig {
            sessions: 4,
            rounds: 40,
            records: 64,
            theta: 0.99,
            ..ObsConfig::default()
        };
        let a = run_observatory(&cfg);
        let b = run_observatory(&cfg);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.planes.contention, b.planes.contention);
        // The Chrome trace must be byte-identical, not merely similar.
        assert_eq!(a.trace.render(), b.trace.render());
        assert!(!a.trace.is_empty());
    }

    #[test]
    fn recorder_costs_zero_virtual_time() {
        let on = ObsConfig { sessions: 4, rounds: 40, records: 64, ..ObsConfig::default() };
        let off = ObsConfig { trace_ring: 0, window_ns: 0, ..on };
        let a = run_observatory(&on);
        let b = run_observatory(&off);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.commits, b.commits);
        assert!(b.trace.is_empty() && !a.trace.is_empty());
        // Same zero-cost contract for the time-series sampler.
        assert!(b.planes.series.is_empty() && !a.planes.series.is_empty());
        assert_eq!(a.planes.series.total(crate::Metric::Commits), a.commits);
    }

    #[test]
    fn skew_concentrates_waits_on_few_keys() {
        let uniform = run_observatory(&ObsConfig {
            sessions: 6,
            rounds: 80,
            records: 256,
            theta: 0.0,
            read_pct: 0,
            ..ObsConfig::default()
        });
        let skewed = run_observatory(&ObsConfig {
            sessions: 6,
            rounds: 80,
            records: 256,
            theta: 1.2,
            read_pct: 0,
            ..ObsConfig::default()
        });
        // Heavier skew ⇒ more lock-wait time overall, and the top key
        // holds a larger share of it.
        assert!(skewed.planes.contention.wait_ns_total > uniform.planes.contention.wait_ns_total);
        assert!(!skewed.hot_keys.is_empty());
    }
}
