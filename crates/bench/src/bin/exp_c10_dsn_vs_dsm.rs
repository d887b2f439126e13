//! Experiment C10 (§7 "Distributed Shared-Nothing vs. DSM", §8): skew
//! shift and resharding.
//!
//! A hotspot migrates across the keyspace. Both engines reshard to chase
//! it:
//!
//! * **DSN-DB** must physically move the hot range's records to the new
//!   owner — the partitions are blocked for the transfer;
//! * **DSM-DB (3c)** updates the shard map only; the data never moves
//!   (it already lives in the shared memory pool).
//!
//! We run windows of single-key transactions; after every window the
//! hotspot jumps and both systems reshard. Expected shape: both serve
//! the stable windows comparably (DSN a bit faster: pure-local DRAM),
//! but DSN's per-window throughput craters in the window after each
//! shift while DSM-DB barely notices — the §8 "more resilient to skew
//! due to fast resharding" claim.

use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, scale_down, table};
use baseline::DsnCluster;
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op};
use rdma_sim::NetworkProfile;

const KEYSPACE: u64 = 8_192;
const NODES: usize = 2;
/// Hot range width — a quarter of the keyspace moves on every shift, so
/// the DSN transfer is substantial (the paper's resharding pain).
const HOT: u64 = 2_048;

fn hotspot_center(window: usize) -> u64 {
    // Deterministic jumps around the keyspace.
    (window as u64 * 3_203) % (KEYSPACE - HOT)
}

fn main() {
    let txns_per_window = scale_down(400);
    let windows = 6;

    println!("\nC10 — skew shift: DSN data-moving reshard vs DSM metadata reshard");
    println!("(window txn/s INCLUDES the reshard pause that precedes the window)\n");
    let mut rep = Report::new(
        "exp_c10_dsn_vs_dsm",
        "C10: skew shift — DSN data-moving reshard vs DSM metadata reshard",
    );
    rep.meta("keyspace", Json::U(KEYSPACE));
    rep.meta("hot_range", Json::U(HOT));
    rep.meta("txns_per_window", Json::U(txns_per_window as u64));
    table::header(&[
        "window",
        "dsn txn/s",
        "dsm txn/s",
        "dsn reshard us",
        "dsm reshard us",
    ]);

    // DSN setup.
    let mut dsn = DsnCluster::new(NODES, KEYSPACE, NetworkProfile::rdma_cx6());
    let dsn_fabric = rdma_sim::Fabric::new(NetworkProfile::rdma_cx6());

    // DSM setup (3c, two compute nodes).
    let dsm = Cluster::build(ClusterConfig {
        compute_nodes: NODES,
        threads_per_node: 1,
        memory_nodes: 2,
        n_records: KEYSPACE,
        payload_size: 64,
        cache_frames: HOT as usize * 2,
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::CacheShard,
        cc: CcProtocol::TplExclusive,
        ..Default::default()
    })
    .unwrap();

    let mut center = hotspot_center(0);
    for w in 0..windows {
        // The hotspot jumps on even windows; odd windows are stable and
        // show each system's steady state for contrast.
        let shifted = w % 2 == 0;
        let (dsn_reshard_ns, dsm_reshard_ns) = if shifted {
            center = hotspot_center(w);
            let dsn_ep = dsn_fabric.endpoint();
            dsn.reshard(&dsn_ep, center, center + HOT, 0);
            let dsm_ep = dsm.fabric().endpoint();
            dsm.reshard(&dsm_ep, center, center + HOT, 0);
            (dsn_ep.clock().now_ns(), dsm_ep.clock().now_ns())
        } else {
            (0, 0)
        };

        // Window workload: hot-range single-key increments from both
        // nodes.
        let key_of = move |i: usize| center + (i as u64 * 37) % HOT;

        // DSN window (lockstep clients, one per node).
        let eps: Vec<_> = (0..NODES).map(|_| dsn_fabric.endpoint()).collect();
        let makespan = bench::lockstep(&eps, txns_per_window, |i, ep| {
            dsn.execute(ep, i % NODES, &[(key_of(i), 1)]);
        });
        let dsn_total = makespan.max(1) + dsn_reshard_ns;
        let dsn_tps = (NODES * txns_per_window) as f64 * 1e9 / dsn_total as f64;

        // DSM window.
        let r = run_cluster_workload(&dsm, txns_per_window, move |_n, _t, i| {
            vec![Op::Rmw {
                key: key_of(i),
                delta: 1,
            }]
        });
        let dsm_total = r.makespan_ns.max(1) + dsm_reshard_ns;
        let dsm_tps = r.commits as f64 * 1e9 / dsm_total as f64;

        table::row(&[
            format!("{w}{}", if shifted { "*" } else { " " }),
            bench::table::n(dsn_tps as u64),
            bench::table::n(dsm_tps as u64),
            bench::table::f1(dsn_reshard_ns as f64 / 1e3),
            bench::table::f1(dsm_reshard_ns as f64 / 1e3),
        ]);
        rep.row(
            &format!("window={w}"),
            vec![
                ("window", Json::U(w as u64)),
                ("shifted", Json::Bool(shifted)),
                ("dsn_tps", Json::F(dsn_tps)),
                ("dsm_tps", Json::F(dsm_tps)),
                ("dsn_reshard_ns", Json::U(dsn_reshard_ns)),
                ("dsm_reshard_ns", Json::U(dsm_reshard_ns)),
                ("dsm_workload", report::workload_json(&r)),
            ],
        );
        if w == 2 {
            rep.headline("dsn_tps_after_shift", Json::F(dsn_tps));
            rep.headline("dsm_tps_after_shift", Json::F(dsm_tps));
        }
    }
    let moved = dsn.stats().reshard_bytes;
    rep.headline("dsn_reshard_bytes", Json::U(moved));
    report::emit(&rep);
    println!(
        "\nDSN moved {} MiB of records across {} reshards; DSM moved only \
         shard-map metadata.",
        moved >> 20,
        windows
    );
    println!(
        "Shape check (§8): DSM resharding is orders of magnitude cheaper, \
         making DSM-DB resilient to skew shifts."
    );
}
