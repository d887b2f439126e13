//! Experiment C2 (§4 Challenge 6): RDMA lock primitives and whether
//! shared locks pay for themselves.
//!
//! Part 1 — primitive cost: the exclusive CAS spinlock completes in one
//! round trip; the shared-exclusive lock (latch + metadata, footnote 2)
//! needs two, and two more to give back.
//!
//! Part 2 — "It remains open if the allowed extra concurrency can offset
//! the performance overhead of the advanced locks": 2PL with exclusive
//! locks everywhere vs 2PL with shared-exclusive locks, swept over read
//! ratio on a small hot table (so read-read concurrency matters).
//!
//! Expected shape: exclusive wins at write-heavy and low-contention
//! mixes (fewer RTs); shared-exclusive wins only when the workload is
//! read-dominated *and* hot enough that readers actually queue.

use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, scale_down, table};
use dsm::{DsmConfig, DsmLayer};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::{Fabric, NetworkProfile};
use txn::{ExclusiveLock, SharedExclusiveLock};
use workload::ZipfGenerator;

fn primitive_costs(rep: &mut Report) {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 20,
            ..Default::default()
        },
    );
    let addr = layer.alloc(16).unwrap();

    let ep = fabric.endpoint();
    ExclusiveLock::acquire(&layer, &ep, addr, 1, 0).unwrap();
    let excl_acquire = ep.clock().now_ns();
    ExclusiveLock::release(&layer, &ep, addr).unwrap();
    let excl_total = ep.clock().now_ns();

    // One shared hold of one lock: the latch, then the metadata.
    let shared = [(layer.alloc(16).unwrap(), false)];
    let ep2 = fabric.endpoint();
    SharedExclusiveLock::acquire_set(&layer, &ep2, &shared, &mut [], 1, 0).unwrap();
    let sh_acquire = ep2.clock().now_ns();
    SharedExclusiveLock::release_set(&layer, &ep2, &[], &shared, 1).unwrap();
    let sh_total = ep2.clock().now_ns();

    println!("Part 1 — uncontended lock primitive cost (ConnectX-6 profile)\n");
    table::header(&["lock", "acquire ns", "acq+rel ns", "verbs", "wire RTs"]);
    let rows = [("exclusive", excl_acquire, excl_total, &ep), ("shared-excl", sh_acquire, sh_total, &ep2)];
    for (name, acquire, total, ep) in rows {
        let s = ep.stats();
        table::row(&[
            name.into(),
            table::n(acquire),
            table::n(total),
            s.round_trips().to_string(),
            s.wire_round_trips().to_string(),
        ]);
        rep.row(
            &format!("primitive={name}"),
            vec![
                ("acquire_ns", Json::U(acquire)),
                ("acquire_release_ns", Json::U(total)),
                ("verbs", Json::U(s.round_trips())),
                ("wire_rts", Json::U(s.wire_round_trips())),
            ],
        );
    }
    println!(
        "\n(paper: the shared-exclusive lock \"needs at least 2 round trips\")\n"
    );
}

fn txn_sweep(rep: &mut Report, txns: usize) {
    println!("Part 2 — 2PL exclusive vs shared-exclusive, 4 threads, 64 hot records\n");
    table::header(&[
        "read %", "cc", "txn/s", "abort %", "p50 us", "p95 us", "p99 us",
    ]);
    let mut headline_run = None;
    for &read_pct in &[100u32, 95, 80, 50, 0] {
        for cc in [CcProtocol::TplExclusive, CcProtocol::TplSharedExclusive] {
            let cluster = Cluster::build(ClusterConfig {
                compute_nodes: 2,
                threads_per_node: 2,
                memory_nodes: 1,
                n_records: 64,
                payload_size: 64,
                profile: NetworkProfile::rdma_cx6(),
                architecture: Architecture::NoCacheNoShard,
                cc,
                ..Default::default()
            })
            .unwrap();
            let zipf = ZipfGenerator::new(64, 0.9);
            let r = run_cluster_workload(&cluster, txns, move |n, t, i| {
                let mut rng = StdRng::seed_from_u64((n * 997 + t * 131 + i) as u64);
                let a = zipf.next(&mut rng);
                let b = zipf.next(&mut rng);
                if rng.gen_range(0..100) < read_pct {
                    vec![Op::Read(a), Op::Read(b)]
                } else {
                    vec![Op::Rmw { key: a, delta: 1 }]
                }
            });
            let name = if cc == CcProtocol::TplExclusive {
                "exclusive"
            } else {
                "shared-excl"
            };
            let (p50, p95, p99, _) = r.latency_percentiles();
            table::row(&[
                read_pct.to_string(),
                name.into(),
                table::n(r.tps() as u64),
                table::f2(r.abort_rate() * 100.0),
                table::f1(p50 as f64 / 1000.0),
                table::f1(p95 as f64 / 1000.0),
                table::f1(p99 as f64 / 1000.0),
            ]);
            rep.row(
                &format!("read={read_pct}% cc={name}"),
                vec![
                    ("read_pct", Json::U(read_pct as u64)),
                    ("cc", Json::S(name.to_string())),
                    ("workload", report::workload_json(&r)),
                ],
            );
            if read_pct == 95 && cc == CcProtocol::TplExclusive {
                headline_run = Some(r);
            }
        }
        println!();
    }
    report::standard_headline(rep, headline_run.as_ref().expect("95% exclusive point"));
    println!(
        "Shape check: exclusive's 1-RT lock wins at every read ratio. Transactions \
         start one at a time in virtual-time order, so readers never share a lock \
         here and the extra round trips are never recovered."
    );
}

fn main() {
    println!("\nC2 — RDMA lock round trips and the shared-lock trade\n");
    let mut rep = Report::new(
        "exp_c2_locks",
        "C2: RDMA lock primitives and the shared-lock trade",
    );
    let txns = scale_down(400);
    rep.meta("txns", Json::U(txns as u64));
    primitive_costs(&mut rep);
    txn_sweep(&mut rep, txns);
    report::emit(&rep);
}
