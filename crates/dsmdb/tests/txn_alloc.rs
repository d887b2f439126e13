//! Heap allocations per transaction in steady state, pinned as ceilings:
//! exclusive 2PL on one warmed session of each Figure 3 architecture, and
//! every other protocol on 3a, two read-modify-writes and a read per
//! transaction. Counted, not argued —
//! this binary's allocator counts the calls made on the test's own
//! thread. A change may lower a ceiling, and then restates it; one more
//! `Vec` per transaction breaks it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, CoherenceMode, Op};
use rdma_sim::NetworkProfile;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged, so its contract
// holds; the counter is a const-initialised thread-local `Cell` without a
// destructor, which is usable for as long as its thread allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RECORDS: u64 = 4_096;
const WARM: u64 = 2_000;
const COUNTED: u64 = 10_000;

/// Transaction `i`: read-modify-writes of two keys and a read of a third,
/// all distinct, walking the table.
fn txn(i: u64) -> [Op; 3] {
    let key = |k: u64| (i * 7 + k * 1_361) % RECORDS;
    [Op::Rmw { key: key(0), delta: 1 }, Op::Rmw { key: key(1), delta: -1 }, Op::Read(key(2))]
}

/// Allocations per transaction on one session of a cluster of `config`,
/// after a warm-up.
fn allocs_per_txn(config: ClusterConfig) -> f64 {
    let cluster = Cluster::build(ClusterConfig {
        n_records: RECORDS,
        payload_size: 64,
        profile: NetworkProfile::rdma_cx6(),
        compute_nodes: 1,
        threads_per_node: 1,
        ..config
    })
    .unwrap();
    let mut session = cluster.session(0, 0);
    for i in 0..WARM {
        session.execute(&txn(i)).unwrap();
    }
    let before = ALLOCS.with(Cell::get);
    for i in WARM..WARM + COUNTED {
        session.execute(&txn(i)).unwrap();
    }
    (ALLOCS.with(Cell::get) - before) as f64 / COUNTED as f64
}

#[test]
fn exclusive_2pl_allocates_no_more_per_transaction_than_its_ceiling() {
    let runs = [
        (
            "3a",
            ClusterConfig {
                memory_nodes: 4,
                replication: 2,
                architecture: Architecture::NoCacheNoShard,
                ..Default::default()
            },
            11.0,
        ),
        (
            "3b",
            ClusterConfig {
                cache_frames: 1_024,
                architecture: Architecture::CacheNoShard(CoherenceMode::Invalidate),
                ..Default::default()
            },
            11.0,
        ),
        (
            "3c",
            ClusterConfig { cache_frames: 1_024, architecture: Architecture::CacheShard, ..Default::default() },
            10.0,
        ),
    ];
    assert_under_ceilings(runs);
}

/// The same transactions on 3a under every other protocol: MVCC with four
/// versions per record.
#[test]
fn every_3a_protocol_allocates_no_more_per_transaction_than_its_ceiling() {
    let on_3a = |cc, versions| ClusterConfig {
        memory_nodes: 4,
        replication: 2,
        architecture: Architecture::NoCacheNoShard,
        cc,
        versions,
        ..Default::default()
    };
    assert_under_ceilings([
        ("2pl-shared", on_3a(CcProtocol::TplSharedExclusive, 1), 11.0),
        ("occ", on_3a(CcProtocol::Occ, 1), 24.0),
        ("tso", on_3a(CcProtocol::Tso, 1), 29.0),
        ("mvcc", on_3a(CcProtocol::Mvcc, 4), 59.0),
    ]);
}

/// Every run of `runs` — a name, its config, its ceiling — allocates no
/// more per transaction than its ceiling.
fn assert_under_ceilings<const N: usize>(runs: [(&str, ClusterConfig, f64); N]) {
    let over: Vec<String> = (runs.into_iter())
        .map(|(name, config, ceiling)| (name, allocs_per_txn(config), ceiling))
        .inspect(|(name, per_txn, _)| eprintln!("{name}: {per_txn} allocations per transaction"))
        .filter(|&(_, per_txn, ceiling)| per_txn > ceiling + 1e-9)
        .map(|(name, per_txn, ceiling)| format!("{name}: {per_txn} allocations per transaction, ceiling {ceiling}"))
        .collect();
    assert!(over.is_empty(), "{over:?}");
}
