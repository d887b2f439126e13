//! Experiment F2 (Figure 2 + §2 benefit 5, §8): multi-master write
//! scaling — DSM-DB vs the single-writer shared-storage baseline.
//!
//! Every DSM-DB compute node executes read-write transactions against the
//! shared memory pool; the DSS baseline funnels all writes through one
//! primary. Workload: single-record increments over a wide uniform
//! keyspace (low conflict), the best case for both systems.
//!
//! Expected shape: DSM-DB write throughput grows near-linearly with
//! compute nodes; DSS-DB stays flat at the primary's ceiling (its
//! replicas only help reads).

use baseline::DssCluster;
use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, scale_down, table, WorkloadResult};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op};
use rdma_sim::{Fabric, NetworkProfile};

fn dsm_run(nodes: usize, txns: usize) -> WorkloadResult {
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: nodes,
        threads_per_node: 2,
        memory_nodes: 4,
        n_records: 100_000,
        payload_size: 64,
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::NoCacheNoShard,
        cc: CcProtocol::Occ,
        ..Default::default()
    })
    .unwrap();
    run_cluster_workload(&cluster, txns, |n, t, i| {
        // Uniform spread, mostly conflict-free.
        let key = ((n * 7919 + t * 104729 + i * 31) % 100_000) as u64;
        vec![Op::Rmw { key, delta: 1 }]
    })
}

fn dss_tps(clients: usize, txns: usize) -> f64 {
    let dss = DssCluster::new(4, NetworkProfile::rdma_cx6());
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let eps: Vec<_> = (0..clients * 2).map(|_| fabric.endpoint()).collect();
    let makespan = bench::lockstep(&eps, txns, |i, ep| {
        dss.write_txn(ep, &[((i * 31) as u64 % 100_000, 1)]);
    });
    (eps.len() * txns) as f64 * 1e9 / makespan as f64
}

fn main() {
    let txns = scale_down(2_000);
    println!("\nF2 — multi-master write scaling (writes/s, virtual time)\n");
    let mut rep = Report::new(
        "exp_f2_scaling",
        "F2: multi-master write scaling — DSM-DB vs single-writer DSS",
    );
    rep.meta("txns", Json::U(txns as u64));
    table::header(&["compute nodes", "DSM-DB tps", "DSS-DB tps", "DSM speedup"]);
    let base_dsm = dsm_run(1, txns).tps();
    let base_dss = dss_tps(1, txns);
    for &nodes in &[1usize, 2, 4, 8] {
        let dsm = dsm_run(nodes, txns);
        let dss = dss_tps(nodes, txns);
        table::row(&[
            nodes.to_string(),
            table::n(dsm.tps() as u64),
            table::n(dss as u64),
            format!("{:.2}x", dsm.tps() / base_dsm),
        ]);
        rep.row(
            &format!("nodes={nodes}"),
            vec![
                ("nodes", Json::U(nodes as u64)),
                ("dss_tps", Json::F(dss)),
                ("dsm_speedup", Json::F(dsm.tps() / base_dsm)),
                ("dsm_workload", report::workload_json(&dsm)),
            ],
        );
        if nodes == 8 {
            rep.headline("dsm_speedup_8n", Json::F(dsm.tps() / base_dsm));
            rep.headline("dsm_tps_8n", Json::F(dsm.tps()));
            rep.headline("dss_tps_8n", Json::F(dss));
        }
        let _ = base_dss;
    }
    report::emit(&rep);
    println!(
        "\nShape check: DSM-DB scales with compute nodes (multi-master); \
         DSS-DB write throughput is capped by its single primary."
    );
}
