//! SmallBank over DSM-DB: concurrent multi-master transfers with a
//! conservation check.
//!
//! ```bash
//! cargo run --release -p dsmdb --example bank
//! ```
//!
//! Four worker threads across two compute nodes run a SmallBank-style
//! mix against shared memory; at the end the sum of all balances must equal
//! the initial endowment — a serializability smoke test you can point at
//! any architecture/CC combination by editing the config.

use std::sync::atomic::{AtomicU64, Ordering};

use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op, TxnError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::NetworkProfile;
use workload::ZipfGenerator;

const ACCOUNTS: u64 = 1_000;
const INITIAL: i64 = 100;

/// The next transaction of the mix, over Zipf-0.9 customers. Checking
/// account of customer `c` is record `2c`, savings is `2c + 1`. One in
/// five reads both balances of a customer; the rest *move* money from
/// one customer's checking to a customer's savings (balanced deltas), so
/// the bank total is a serializability invariant.
fn next_txn(zipf: &ZipfGenerator, rng: &mut StdRng) -> Vec<Op> {
    let c = zipf.next(rng);
    if rng.gen_bool(0.2) {
        return vec![Op::Read(2 * c), Op::Read(2 * c + 1)];
    }
    let (to, amt) = (zipf.next(rng), rng.gen_range(1..100));
    vec![
        Op::Rmw { key: 2 * c, delta: -amt },
        Op::Rmw { key: 2 * to + 1, delta: amt },
    ]
}

fn main() {
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 2,
        threads_per_node: 2,
        memory_nodes: 2,
        n_records: ACCOUNTS * 2,
        payload_size: 64,
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::NoCacheNoShard,
        cc: CcProtocol::Occ,
        ..Default::default()
    })
    .expect("cluster");

    // Endow every checking account (single session, pre-load phase).
    let mut loader = cluster.session(0, 0);
    for c in 0..ACCOUNTS {
        loader
            .execute(&[Op::Rmw {
                key: 2 * c,
                delta: INITIAL,
            }])
            .expect("load");
    }

    // Money movement only (Balance reads + transfers): total conserved.
    let commits = AtomicU64::new(0);
    let aborts = AtomicU64::new(0);
    let makespan = AtomicU64::new(0);
    std::thread::scope(|s| {
        for node in 0..2 {
            for thread in 0..2 {
                let cluster = cluster.clone();
                let commits = &commits;
                let aborts = &aborts;
                let makespan = &makespan;
                s.spawn(move || {
                    let mut session = cluster.session(node, thread);
                    let zipf = ZipfGenerator::new(ACCOUNTS, 0.9);
                    let mut rng = StdRng::seed_from_u64((node * 2 + thread) as u64);
                    for _ in 0..1_000 {
                        let ops = next_txn(&zipf, &mut rng);
                        loop {
                            match session.execute(&ops) {
                                Ok(_) => {
                                    commits.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                Err(TxnError::Aborted(_)) => {
                                    aborts.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("{e}"),
                            }
                        }
                    }
                    makespan
                        .fetch_max(session.endpoint().clock().now_ns(), Ordering::Relaxed);
                });
            }
        }
    });

    // Conservation audit.
    let mut auditor = cluster.session(0, 0);
    let mut total = 0i64;
    for c in 0..ACCOUNTS {
        let out = auditor
            .execute(&[Op::Read(2 * c), Op::Read(2 * c + 1)])
            .expect("audit read");
        for (_, payload) in &out.reads {
            total += i64::from_le_bytes(payload[0..8].try_into().unwrap());
        }
    }
    let commits = commits.load(Ordering::Relaxed);
    let aborts = aborts.load(Ordering::Relaxed);
    let ns = makespan.load(Ordering::Relaxed);
    println!(
        "{commits} transactions committed ({aborts} aborts) in {:.2} virtual ms -> {:.0} txn/s",
        ns as f64 / 1e6,
        commits as f64 * 1e9 / ns as f64
    );
    println!("total balance = {total} (expected {})", ACCOUNTS as i64 * INITIAL);
    assert_eq!(total, ACCOUNTS as i64 * INITIAL, "money leaked!");
    println!("bank example OK — serializability held under multi-master load");
}
