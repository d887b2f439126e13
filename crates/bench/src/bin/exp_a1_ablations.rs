//! Ablations for the design choices DESIGN.md calls out.
//!
//! A — **doorbell batching** (§6 factor 1: "which RDMA primitive to
//!     use"): replicating a log record to k memory nodes with one doorbell
//!     vs k independent round trips.
//! B — **invalidation vs update coherence** (§4 Approach #2: "many
//!     implementation details can affect performance, e.g., invalidation-
//!     vs. update-based"): the 3b engine under a shared-hot read-mostly
//!     workload and a private-write control. Finding: invalidation wins
//!     even when remote rereads are common, because it *clears* the
//!     sharer bits — after one invalidation round the writer goes quiet
//!     until the peer rereads — while update mode pays a synchronous
//!     update+ack round on *every* write forever; and because a resident
//!     page is a read permission only in invalidate mode, whose reads of
//!     it take no lock, while update mode locks every read.
//! C — **fabric sensitivity**: the C1 cache-fraction knee at ConnectX-6
//!     vs an older 56 Gb/s fabric vs datacenter TCP — the gap-ratio
//!     argument of §5 in one table.

use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, scale_down, table};
use dsm::{DsmConfig, DsmLayer};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, CoherenceMode, Op};
use rdma_sim::{Fabric, NetworkProfile, NodeId};

fn ablation_doorbell(rep: &mut Report) {
    println!("A — doorbell batching: k-way replicated 256 B write\n");
    table::header(&["k", "unbatched us", "batched us", "speedup"]);
    for &k in &[2usize, 3, 5, 8] {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let nodes: Vec<NodeId> = (0..k).map(|_| fabric.register_node(4096)).collect();
        let payload = [0xAAu8; 256];

        let seq = fabric.endpoint();
        for &n in &nodes {
            seq.write(n, 0, &payload).unwrap();
        }
        let bat = fabric.endpoint();
        let ops: Vec<(NodeId, u64, &[u8])> =
            nodes.iter().map(|&n| (n, 0, payload.as_slice())).collect();
        bat.write_batch(&ops).unwrap();

        table::row(&[
            k.to_string(),
            table::f2(seq.clock().now_ns() as f64 / 1e3),
            table::f2(bat.clock().now_ns() as f64 / 1e3),
            format!(
                "{:.2}x",
                seq.clock().now_ns() as f64 / bat.clock().now_ns() as f64
            ),
        ]);
        rep.row(
            &format!("doorbell k={k}"),
            vec![
                ("k", Json::U(k as u64)),
                ("unbatched_ns", Json::U(seq.clock().now_ns())),
                ("batched_ns", Json::U(bat.clock().now_ns())),
                (
                    "speedup",
                    Json::F(seq.clock().now_ns() as f64 / bat.clock().now_ns() as f64),
                ),
            ],
        );
        if k == 8 {
            rep.headline(
                "doorbell_speedup_k8",
                Json::F(seq.clock().now_ns() as f64 / bat.clock().now_ns() as f64),
            );
        }
    }
    println!();
}

fn ablation_coherence(rep: &mut Report, txns: usize) {
    println!("B — coherence protocol: invalidate vs update (2 nodes x 1 thread)\n");
    table::header(&["workload", "mode", "txn/s"]);
    // Shared-hot: both nodes reread a hot set that both occasionally
    // update — update-mode keeps remote copies warm, invalidation forces
    // refetches. Private: each node only touches its own keys (control:
    // coherence traffic should be ~zero and the modes should tie).
    for workload in ["shared-hot 90/10", "private-writes"] {
        for mode in [CoherenceMode::Invalidate, CoherenceMode::Update] {
            let cluster = Cluster::build(ClusterConfig {
                compute_nodes: 2,
                threads_per_node: 1,
                memory_nodes: 1,
                n_records: 128,
                payload_size: 64,
                cache_frames: 128,
                profile: NetworkProfile::rdma_cx6(),
                architecture: Architecture::CacheNoShard(mode),
                cc: CcProtocol::TplExclusive,
                ..Default::default()
            })
            .unwrap();
            let shared = workload.starts_with("shared");
            let r = run_cluster_workload(&cluster, txns, move |n, _t, i| {
                if shared {
                    let key = (i % 32) as u64;
                    if i % 10 == n {
                        vec![Op::Rmw { key, delta: 1 }]
                    } else {
                        vec![Op::Read(key)]
                    }
                } else {
                    let key = (n as u64) * 64 + (i % 64) as u64;
                    vec![Op::Rmw { key, delta: 1 }]
                }
            });
            let name = if mode == CoherenceMode::Invalidate {
                "invalidate"
            } else {
                "update"
            };
            table::row(&[workload.into(), name.into(), table::n(r.tps() as u64)]);
            rep.row(
                &format!("coherence {workload} mode={name}"),
                vec![
                    ("workload_name", Json::S(workload.to_string())),
                    ("mode", Json::S(name.to_string())),
                    ("workload", report::workload_json(&r)),
                ],
            );
        }
        println!();
    }
}

fn ablation_fabric(rep: &mut Report, txns: usize) {
    println!("C — fabric sensitivity: 10% cache, YCSB-B-style reads (1 node)\n");
    table::header(&["fabric", "gap vs DRAM", "txn/s"]);
    for profile in [
        NetworkProfile::rdma_cx6(),
        NetworkProfile::rdma_ib56(),
        NetworkProfile::tcp_dc(),
    ] {
        // Gap shown directly from the cost model.
        let _ = DsmLayer::build(
            &Fabric::new(profile),
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                ..Default::default()
            },
        );
        let cluster = Cluster::build(ClusterConfig {
            compute_nodes: 1,
            threads_per_node: 1,
            memory_nodes: 2,
            n_records: 8_192,
            payload_size: 64,
            cache_frames: 819,
            profile,
            architecture: Architecture::CacheShard,
            cc: CcProtocol::TplExclusive,
            ..Default::default()
        })
        .unwrap();
        let zipf = workload::ZipfGenerator::new(8_192, 0.99);
        let r = run_cluster_workload(&cluster, txns, move |_n, _t, i| {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(i as u64);
            let key = workload::zipf::scramble(zipf.next(&mut rng), 8_192);
            if i % 20 == 0 {
                vec![Op::Rmw { key, delta: 1 }]
            } else {
                vec![Op::Read(key)]
            }
        });
        table::row(&[
            profile.name.into(),
            format!("{:.0}x", profile.gap_vs_local()),
            table::n(r.tps() as u64),
        ]);
        rep.row(
            &format!("fabric={}", profile.name),
            vec![
                ("fabric", Json::S(profile.name.to_string())),
                ("gap_vs_local", Json::F(profile.gap_vs_local())),
                ("workload", report::workload_json(&r)),
            ],
        );
    }
    println!(
        "\nShape check: the slower the fabric, the more the miss penalty \
         dominates — the §5 argument in reverse (TCP behaves disk-like)."
    );
}

fn main() {
    println!("\nA1 — design-choice ablations\n");
    let mut rep = Report::new("exp_a1_ablations", "A1: design-choice ablations");
    ablation_doorbell(&mut rep);
    ablation_coherence(&mut rep, scale_down(1_500));
    ablation_fabric(&mut rep, scale_down(8_000));
    report::emit(&rep);
}
