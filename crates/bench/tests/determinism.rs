//! Reproducibility: the virtual clock makes single-threaded experiment
//! runs exactly repeatable, so two identical runs must render
//! byte-identical report JSON — the property the machine-readable
//! experiment output relies on for diffing results across commits.

use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, WorkloadResult};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::NetworkProfile;
use workload::ZipfGenerator;

const RECORDS: u64 = 512;

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

fn render(r: &WorkloadResult) -> String {
    let mut rep = Report::new("determinism_probe", "single-threaded repeatability probe");
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
    assert_eq!(a, b, "two identical single-threaded runs diverged");
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
