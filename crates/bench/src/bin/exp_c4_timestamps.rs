//! Experiment C4 (§4 Challenge 6): timestamp generation.
//!
//! "One-sided RDMA (RDMA Fetch & Add) is more preferable than two-sided
//! RDMA in case that the centralized timestamp generator becomes a
//! bottleneck." Three oracles, clients swept 1..64:
//!
//! * FAA on a DSM counter (one-sided; NIC serializes, no CPU),
//! * RPC sequencer (two-sided; single server CPU saturates),
//! * hybrid clock (coordination-free; no network at all).
//!
//! Expected shape: hybrid is flat and cheapest; FAA scales with clients
//! until the atomic's latency floor; RPC collapses once the sequencer
//! CPU saturates.

use bench::report::{self, Json, Report};
use bench::{lockstep, scale_down, table};
use dsm::{DsmConfig, DsmLayer};
use rdma_sim::{Fabric, NetworkProfile};
use txn::{FaaOracle, HybridClockOracle, RpcOracle, TimestampOracle};

fn throughput(
    oracle: &dyn TimestampOracle,
    fabric: &std::sync::Arc<Fabric>,
    clients: usize,
    per_client: usize,
) -> f64 {
    let eps: Vec<_> = (0..clients).map(|_| fabric.endpoint()).collect();
    let makespan = lockstep(&eps, per_client, |_i, ep| {
        oracle.next_ts(ep).unwrap();
    });
    (clients * per_client) as f64 * 1e9 / makespan.max(1) as f64
}

fn main() {
    let per_client = scale_down(5_000);
    println!("\nC4 — timestamp oracle throughput (timestamps/s, virtual)\n");
    let mut rep = Report::new("exp_c4_timestamps", "C4: timestamp oracle scalability");
    rep.meta("per_client", Json::U(per_client as u64));
    table::header(&["clients", "faa", "rpc", "hybrid"]);

    for &clients in &[1usize, 4, 16, 64] {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                ..Default::default()
            },
        );
        let faa = FaaOracle::new(&layer).unwrap();
        let rpc = RpcOracle::new(250);
        // Hybrid: one oracle per client (coordination-free by design); use
        // a representative single instance since cost is identical.
        let hybrid = HybridClockOracle::new(1);
        let faa_tps = throughput(&faa, &fabric, clients, per_client);
        let rpc_tps = throughput(&rpc, &fabric, clients, per_client);
        let hybrid_tps = throughput(&hybrid, &fabric, clients, per_client);
        table::row(&[
            clients.to_string(),
            table::n(faa_tps as u64),
            table::n(rpc_tps as u64),
            table::n(hybrid_tps as u64),
        ]);
        rep.row(
            &format!("clients={clients}"),
            vec![
                ("clients", Json::U(clients as u64)),
                ("faa_ts_per_s", Json::F(faa_tps)),
                ("rpc_ts_per_s", Json::F(rpc_tps)),
                ("hybrid_ts_per_s", Json::F(hybrid_tps)),
            ],
        );
        if clients == 64 {
            rep.headline("faa_ts_per_s_64c", Json::F(faa_tps));
            rep.headline("rpc_ts_per_s_64c", Json::F(rpc_tps));
            rep.headline("hybrid_ts_per_s_64c", Json::F(hybrid_tps));
        }
    }
    report::emit(&rep);
    println!(
        "\nShape check: hybrid >> faa > rpc at high client counts; the rpc \
         sequencer saturates first (the bottleneck §4 warns about)."
    );
}
