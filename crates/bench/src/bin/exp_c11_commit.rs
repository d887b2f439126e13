//! Experiment C11 (§4 Challenge 5): rethinking distributed commit.
//!
//! Two ways to run the same two-key transfer mix on two compute nodes:
//!
//! * **3c + 2PC** — keys are sharded; a cross-shard transfer ships the
//!   remote half to its owner, which as the last agent prepares and
//!   commits in one message round (`PrepareCommit`, `VoteYes`);
//! * **3a one-sided** — no sharding: the transaction executes entirely at
//!   its origin with one-sided verbs and RDMA locks; "if a compute node
//!   uses one-sided RDMA to access memory nodes, it knows whether or not
//!   a write is successful" — no distributed commit at all.
//!
//! Swept over the cross-shard fraction. Expected shape: at 0% cross the
//! sharded design wins big (owner-local locks + cache); as cross-shard
//! grows its message round erodes the advantage until the
//! one-sided/no-sharding design overtakes it — the paper's reason to
//! question whether 2PC is "still applicable in DSM-DB".

use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, scale_down, table, WorkloadResult};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::NetworkProfile;

const RECORDS: u64 = 8_192;

fn run(arch: Architecture, cross_pct: u32, txns: usize) -> WorkloadResult {
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 2,
        threads_per_node: 1,
        memory_nodes: 2,
        n_records: RECORDS,
        payload_size: 64,
        cache_frames: 2_048,
        profile: NetworkProfile::rdma_cx6(),
        architecture: arch,
        cc: CcProtocol::TplExclusive,
        ..Default::default()
    })
    .unwrap();
    // Shard split: node 0 owns [0, half), node 1 owns [half, n).
    let half = RECORDS / 2;
    run_cluster_workload(&cluster, txns, move |n, _t, i| {
        let mut rng = StdRng::seed_from_u64((n * 100_003 + i) as u64);
        let own_base = if n == 0 { 0 } else { half };
        let other_base = if n == 0 { half } else { 0 };
        let a = own_base + rng.gen_range(0..half);
        let b = if rng.gen_range(0..100) < cross_pct {
            other_base + rng.gen_range(0..half)
        } else {
            let mut b = own_base + rng.gen_range(0..half);
            while b == a {
                b = own_base + rng.gen_range(0..half);
            }
            b
        };
        vec![Op::Rmw { key: a, delta: -1 }, Op::Rmw { key: b, delta: 1 }]
    })
}

fn main() {
    let txns = scale_down(1_500);
    println!("\nC11 — distributed commit: 2PC function-shipping vs one-sided RDMA\n");
    let mut rep = Report::new(
        "exp_c11_commit",
        "C11: distributed commit — 2PC function-shipping vs one-sided RDMA",
    );
    rep.meta("records", Json::U(RECORDS));
    rep.meta("txns", Json::U(txns as u64));
    table::header(&[
        "cross %",
        "3c+2pc txn/s",
        "3a 1-sided txn/s",
        "3c RT/txn",
        "3a RT/txn",
    ]);
    for &cross in &[0u32, 5, 20, 50, 100] {
        let sharded = run(Architecture::CacheShard, cross, txns);
        let direct = run(Architecture::NoCacheNoShard, cross, txns);
        table::row(&[
            cross.to_string(),
            table::n(sharded.tps() as u64),
            table::n(direct.tps() as u64),
            table::f2(sharded.wire_rts_per_txn()),
            table::f2(direct.wire_rts_per_txn()),
        ]);
        rep.row(
            &format!("cross={cross}%"),
            vec![
                ("cross_pct", Json::U(cross as u64)),
                ("sharded_2pc", report::workload_json(&sharded)),
                ("onesided", report::workload_json(&direct)),
            ],
        );
        if cross == 50 {
            rep.headline("sharded_2pc_tps_50cross", Json::F(sharded.tps()));
            rep.headline("onesided_tps_50cross", Json::F(direct.tps()));
        }
    }
    report::emit(&rep);
    println!(
        "\nShape check (§4 Challenge 5): sharding + 2PC dominates while \
         transactions stay single-shard; the one-sided no-shard design is \
         immune to the cross-shard fraction, so the curves cross."
    );
}
