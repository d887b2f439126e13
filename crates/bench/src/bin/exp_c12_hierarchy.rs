//! Experiment C12 (§4 Challenge 7): massive concurrency via local/global
//! CC separation.
//!
//! Worker threads on ONE compute node all hammer a handful of hot
//! records. Flat CC: every thread CASes the remote lock word itself.
//! Hierarchical CC: threads queue on a node-local lease; only the first
//! claimant per episode touches the fabric.
//!
//! Expected shape: as threads per node grow, the flat design's CAS
//! traffic (and retry storms) grows with thread count while the
//! hierarchical design's fabric traffic stays roughly flat — the paper's
//! "local concurrency control within the same compute node and global
//! concurrency control across compute nodes".

use bench::report::{self, Json, Report};
use bench::{scale_down, table};
use dsm::{DsmConfig, DsmLayer};
use rdma_sim::{Fabric, NetworkProfile};
use txn::hierarchy::HierarchicalLocks;
use txn::{ExclusiveLock, LockError};

const HOT_RECORDS: usize = 4;

fn run(threads: usize, sections: usize, hierarchical: bool) -> (f64, u64) {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 20,
            ..Default::default()
        },
    );
    let locks: Vec<_> = (0..HOT_RECORDS).map(|_| layer.alloc(8).unwrap()).collect();
    let data: Vec<_> = (0..HOT_RECORDS).map(|_| layer.alloc(8).unwrap()).collect();
    let mgr = HierarchicalLocks::new(1);
    let total_cas = std::sync::atomic::AtomicU64::new(0);
    let makespan = std::sync::atomic::AtomicU64::new(0);
    let barrier = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (fabric, layer, mgr, locks, data) =
                (fabric.clone(), layer.clone(), mgr.clone(), locks.clone(), data.clone());
            let total_cas = &total_cas;
            let makespan = &makespan;
            let barrier = &barrier;
            s.spawn(move || {
                let ep = fabric.endpoint();
                barrier.wait();
                for i in 0..sections {
                    let idx = (t + i) % HOT_RECORDS;
                    if hierarchical {
                        let g = loop {
                            match mgr.acquire(&layer, &ep, locks[idx], 1_000) {
                                Ok(g) => break g,
                                Err(LockError::Busy) => {
                                    std::thread::yield_now();
                                    continue;
                                }
                                Err(e) => panic!("{e}"),
                            }
                        };
                        let v = layer.read_u64(&ep, data[idx]).unwrap();
                        layer.write_u64(&ep, data[idx], v + 1).unwrap();
                        mgr.release(&layer, &ep, g).unwrap();
                    } else {
                        loop {
                            match ExclusiveLock::acquire(&layer, &ep, locks[idx], t as u64 + 1, 1_000)
                            {
                                Ok(()) => break,
                                Err(LockError::Busy) => {
                                    std::thread::yield_now();
                                    continue;
                                }
                                Err(e) => panic!("{e}"),
                            }
                        }
                        let v = layer.read_u64(&ep, data[idx]).unwrap();
                        layer.write_u64(&ep, data[idx], v + 1).unwrap();
                        ExclusiveLock::release(&layer, &ep, locks[idx]).unwrap();
                    }
                }
                total_cas.fetch_add(ep.stats().cas, std::sync::atomic::Ordering::Relaxed);
                makespan.fetch_max(ep.clock().now_ns(), std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    let total = (threads * sections) as f64;
    let ns = makespan.load(std::sync::atomic::Ordering::Relaxed);
    (
        total * 1e9 / ns.max(1) as f64,
        total_cas.load(std::sync::atomic::Ordering::Relaxed),
    )
}

fn main() {
    let sections = scale_down(2_000);
    println!("\nC12 — flat vs hierarchical locking, {HOT_RECORDS} hot records, 1 compute node\n");
    let mut rep = Report::new(
        "exp_c12_hierarchy",
        "C12: flat vs hierarchical (local/global) concurrency control",
    );
    rep.meta("hot_records", Json::U(HOT_RECORDS as u64));
    rep.meta("sections", Json::U(sections as u64));
    table::header(&[
        "threads",
        "flat ops/s",
        "hier ops/s",
        "flat CAS",
        "hier CAS",
    ]);
    for &threads in &[1usize, 2, 4, 8] {
        let (flat_tps, flat_cas) = run(threads, sections, false);
        let (hier_tps, hier_cas) = run(threads, sections, true);
        table::row(&[
            threads.to_string(),
            table::n(flat_tps as u64),
            table::n(hier_tps as u64),
            table::n(flat_cas),
            table::n(hier_cas),
        ]);
        rep.row(
            &format!("threads={threads}"),
            vec![
                ("threads", Json::U(threads as u64)),
                ("flat_ops_per_s", Json::F(flat_tps)),
                ("hier_ops_per_s", Json::F(hier_tps)),
                ("flat_cas", Json::U(flat_cas)),
                ("hier_cas", Json::U(hier_cas)),
            ],
        );
        if threads == 8 {
            rep.headline("flat_cas_8t", Json::U(flat_cas));
            rep.headline("hier_cas_8t", Json::U(hier_cas));
        }
    }
    report::emit(&rep);
    println!(
        "\nShape check (§4 Challenge 7): hierarchical locking slashes global \
         CAS verbs as local thread counts grow, keeping throughput up where \
         the flat design melts into CAS retry storms."
    );
}
