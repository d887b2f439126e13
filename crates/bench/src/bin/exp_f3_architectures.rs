//! Experiment F3 (Figure 3, §4 Challenge 4): the three cache-coherence
//! architectures under YCSB-style point transactions.
//!
//! * 3a — no cache, no sharding: every access is a remote verb.
//! * 3b — cache + software coherence (invalidation mode).
//! * 3c — cache + logical sharding: owner-local locks, last-agent 2PC
//!   across shards.
//!
//! Swept over read ratio at Zipf 0.9 with 2 compute nodes x 2 threads.
//! Expected shape: 3c wins when transactions stay in-shard (single-key
//! txns always do); 3b approaches it for read-heavy mixes but pays
//! invalidation traffic as writes grow; 3a pays full round trips
//! everywhere but has zero coherence cost, overtaking 3b at write-heavy
//! extremes.

use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, scale_down, table, WorkloadResult};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, CoherenceMode, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::NetworkProfile;
use workload::ZipfGenerator;

const RECORDS: u64 = 8_192;

fn run(arch: Architecture, read_pct: u32, txns: usize) -> WorkloadResult {
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 2,
        threads_per_node: 2,
        memory_nodes: 2,
        n_records: RECORDS,
        payload_size: 64,
        cache_frames: (RECORDS / 4) as usize,
        profile: NetworkProfile::rdma_cx6(),
        architecture: arch,
        cc: CcProtocol::TplExclusive,
        ..Default::default()
    })
    .unwrap();
    // Clients route transactions to the key's home node (standard OLTP
    // front-end routing); 10% deliberately land on the other node to keep
    // a cross-traffic component.
    let zipf = ZipfGenerator::new(RECORDS / 2, 0.9);
    run_cluster_workload(&cluster, txns, move |n, t, i| {
        let mut rng = StdRng::seed_from_u64((n * 1000 + t * 100 + i) as u64);
        let local = rng.gen_range(0..100) < 90;
        let half = RECORDS / 2;
        let base = if (n == 0) == local { 0 } else { half };
        let key = base + workload::zipf::scramble(zipf.next(&mut rng), half);
        if rng.gen_range(0..100) < read_pct {
            vec![Op::Read(key)]
        } else {
            vec![Op::Rmw { key, delta: 1 }]
        }
    })
}

fn main() {
    let txns = scale_down(800);
    println!("\nF3 — Figure 3 architectures, YCSB point txns, zipf 0.9, 2 nodes x 2 threads\n");
    let mut rep = Report::new(
        "exp_f3_architectures",
        "F3: the three cache-coherence architectures (Figure 3)",
    );
    rep.meta("records", Json::U(RECORDS));
    rep.meta("txns", Json::U(txns as u64));
    let mut headline_run = None;
    table::header(&[
        "read %",
        "arch",
        "txn/s",
        "abort %",
        "RT/txn",
    ]);
    for &read_pct in &[95u32, 50, 0] {
        for (name, arch) in [
            ("3a no-cache", Architecture::NoCacheNoShard),
            (
                "3b coherent",
                Architecture::CacheNoShard(CoherenceMode::Invalidate),
            ),
            ("3c sharded", Architecture::CacheShard),
        ] {
            let r = run(arch, read_pct, txns);
            table::row(&[
                read_pct.to_string(),
                name.to_string(),
                table::n(r.tps() as u64),
                table::f2(r.abort_rate() * 100.0),
                table::f2(r.wire_rts_per_txn()),
            ]);
            rep.row(
                &format!("read={read_pct}% arch={name}"),
                vec![
                    ("read_pct", Json::U(read_pct as u64)),
                    ("arch", Json::S(name.to_string())),
                    ("workload", report::workload_json(&r)),
                ],
            );
            if read_pct == 95 && name == "3c sharded" {
                headline_run = Some(r);
            }
        }
        println!();
    }
    report::standard_headline(&mut rep, headline_run.as_ref().expect("3c read-heavy point"));
    report::emit(&rep);
    println!(
        "Shape check: sharded (3c) leads on single-shard txns; caching (3b) \
         helps reads and costs coherence on writes; 3a pays RTs everywhere."
    );
}
