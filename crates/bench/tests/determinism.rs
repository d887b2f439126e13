//! Reproducibility: the virtual clock makes experiment runs exactly
//! repeatable, so two identical runs must render byte-identical report
//! JSON — the property the machine-readable experiment output relies on
//! for diffing results across commits. This holds for thread-driven runs
//! too: `run_cluster_workload` starts each attempt in virtual-time order,
//! whatever the OS scheduler does with its worker threads.

use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, WorkloadResult};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, CoherenceMode, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::NetworkProfile;
use workload::ZipfGenerator;

const RECORDS: u64 = 512;

/// One session, 80/20 single-op read/rmw at zipf 0.9 on 3c 2PL.
fn run_once() -> WorkloadResult {
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 1,
        threads_per_node: 1,
        memory_nodes: 2,
        n_records: RECORDS,
        payload_size: 64,
        cache_frames: 64,
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::CacheShard,
        cc: CcProtocol::TplExclusive,
        ..Default::default()
    })
    .unwrap();
    let zipf = ZipfGenerator::new(RECORDS, 0.9);
    run_cluster_workload(&cluster, 300, move |_n, _t, i| {
        let mut rng = StdRng::seed_from_u64(i as u64);
        let key = zipf.next(&mut rng);
        if rng.gen_range(0..100) < 80 {
            vec![Op::Read(key)]
        } else {
            vec![Op::Rmw { key, delta: 1 }]
        }
    })
}

/// 2 nodes x 2 threads contending on `architecture` under `cc`: three
/// ops per transaction over the whole key space at zipf `theta`, half of
/// them read-modify-writes, so 3b invalidates, 3c runs cross-shard 2PC
/// and a hot key is shared by all four sessions.
fn run_threaded(architecture: Architecture, cc: CcProtocol, theta: f64) -> WorkloadResult {
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 2,
        threads_per_node: 2,
        memory_nodes: 2,
        n_records: RECORDS,
        payload_size: 64,
        cache_frames: 64,
        profile: NetworkProfile::rdma_cx6(),
        architecture,
        cc,
        ..Default::default()
    })
    .unwrap();
    let zipf = ZipfGenerator::new(RECORDS, theta);
    run_cluster_workload(&cluster, 200, move |n, t, i| {
        let mut rng = StdRng::seed_from_u64((n * 1_000_000 + t * 1_000 + i) as u64);
        let mut keys: Vec<u64> = (0..3).map(|_| zipf.next(&mut rng)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|key| if rng.gen_bool(0.5) { Op::Read(key) } else { Op::Rmw { key, delta: 1 } })
            .collect()
    })
}

fn render(r: &WorkloadResult) -> String {
    let mut rep = Report::new("determinism_probe", "repeatability probe");
    rep.meta("records", Json::U(RECORDS));
    rep.row("all", vec![("workload", report::workload_json(r))]);
    report::standard_headline(&mut rep, r);
    rep.to_json().render_pretty(2)
}

#[test]
fn identical_runs_render_identical_json() {
    let ra = run_once();
    // The probe must carry real signal, not an all-zero report.
    assert!(ra.planes.latency.count() > 0, "probe committed no transactions");
    let a = render(&ra);
    let b = render(&run_once());
    assert_eq!(a, b, "two identical single-session runs diverged");
    assert!(a.contains("\"tps\""));
    // The tail rungs ride along with p99.
    assert!(a.contains("\"p99_ns\""));
    assert!(a.contains("\"p999_ns\""));
    assert!(a.contains("\"max_ns\""));
}

#[test]
fn forensics_section_is_byte_identical_and_fully_attributed() {
    let ra = run_once();
    let rb = run_once();
    assert!(ra.planes.forensics.txns > 0, "probe recorded no transactions");
    assert!(!ra.planes.forensics.worst.is_empty(), "empty worst-K reservoir");
    let a = report::forensics_json(&ra.planes.forensics).render_pretty(2);
    let b = report::forensics_json(&rb.planes.forensics).render_pretty(2);
    assert_eq!(a, b, "same-seed forensics sections diverged");
    // The probe's ring is big enough that nothing wraps: every exemplar
    // must be 100% attributed to typed categories.
    for t in &ra.planes.forensics.worst {
        assert!(
            (t.attributed_share() - 1.0).abs() < 1e-12,
            "exemplar {} lost coverage: attributed {}",
            t.trace,
            t.attributed_share()
        );
        assert_eq!(t.blame_ns.iter().sum::<u64>(), t.total_ns);
        assert!(!t.chain.is_empty(), "exemplar {} has an empty chain", t.trace);
    }
}

#[test]
fn phase_shares_cover_the_txn_timeline() {
    let r = run_once();
    let phases = r.planes.phases;
    let total: u64 = phases.ns.iter().sum();
    assert!(total > 0, "no phase time recorded");
    // Everything inside Session::execute is covered by the Execute span
    // (or an inner phase), so unattributed time should be a small slice
    // of the workload: setup, scheduling, and pool maintenance only.
    let latency_total = (r.planes.latency.count() as f64 * r.planes.latency.mean()) as u64;
    assert!(
        total >= latency_total / 2,
        "phase time {total} implausibly small vs txn time {latency_total}"
    );
}

/// Run a threaded probe twice and require the same report to the byte.
fn threaded_runs_are_identical(architecture: Architecture, cc: CcProtocol, theta: f64) {
    let ra = run_threaded(architecture, cc, theta);
    assert_eq!(ra.commits, 4 * 200, "probe lost transactions");
    let a = render(&ra);
    let b = render(&run_threaded(architecture, cc, theta));
    assert_eq!(a, b, "two identical {architecture:?} {cc:?} runs on 2 x 2 threads diverged");
}

#[test]
fn coherent_cache_runs_on_four_threads_are_byte_identical() {
    threaded_runs_are_identical(Architecture::CacheNoShard(CoherenceMode::Invalidate), CcProtocol::TplExclusive, 0.9);
}

#[test]
fn sharded_2pc_runs_on_four_threads_are_byte_identical() {
    threaded_runs_are_identical(Architecture::CacheShard, CcProtocol::TplExclusive, 0.9);
}

#[test]
fn contended_occ_runs_on_four_threads_are_byte_identical() {
    threaded_runs_are_identical(Architecture::NoCacheNoShard, CcProtocol::Occ, 1.2);
}
