//! Property-based tests: every buffer policy, checked against a
//! reference model (a plain HashMap standing for the DSM ground truth).

use std::collections::HashMap;
use std::sync::Arc;

use buffer::{all_policies, BufferPool, ClockPolicy, WriteMode};
use dsm::{DsmConfig, DsmLayer, GlobalAddr};
use proptest::prelude::*;
use rdma_sim::{Endpoint, Fabric, NetworkProfile};

const PAGE: usize = 32;
const PAGES: u64 = 64;

/// The first byte of the page at `addr`, read straight from DSM.
fn dsm_first(l: &DsmLayer, ep: &Endpoint, addr: GlobalAddr) -> u8 {
    let mut direct = [0u8; PAGE];
    l.read(ep, addr, &mut direct).unwrap();
    direct[0]
}

/// [`dsm_first`] of each of the `PAGES` pages.
fn dsm_firsts(l: &DsmLayer, ep: &Endpoint, addr: impl Fn(u64) -> GlobalAddr) -> Vec<u8> {
    (0..PAGES).map(|k| dsm_first(l, ep, addr(k))).collect()
}

/// The model's first byte of each of the `PAGES` pages: 0 if unwritten.
fn firsts(model: &HashMap<u64, u8>) -> Vec<u8> {
    (0..PAGES).map(|k| model.get(&k).copied().unwrap_or(0)).collect()
}

fn layer() -> Arc<DsmLayer> {
    let fabric = Fabric::new(NetworkProfile::zero());
    DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 20,
            replication: 1,
            mem_cores: 1,
        },
    )
}

#[derive(Debug, Clone)]
enum PoolOp {
    Read(u64),
    Write(u64, u8),
    Invalidate(u64),
}

fn op_strategy() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0..PAGES).prop_map(PoolOp::Read),
        ((0..PAGES), any::<u8>()).prop_map(|(k, v)| PoolOp::Write(k, v)),
        (0..PAGES).prop_map(PoolOp::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every policy, under arbitrary op interleavings on a tiny pool,
    /// reads always return the most recently written value (the pool is
    /// a *cache*, never a source of staleness), and after every op DSM
    /// holds it too: a write goes through within its call, and an
    /// invalidation loses nothing.
    #[test]
    fn pool_is_transparent_for_every_policy(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        for policy in all_policies(8) {
            let name = policy.name();
            let l = layer();
            let base = l.alloc(PAGES * PAGE as u64).unwrap();
            let addr = |k: u64| GlobalAddr::new(base.node(), base.offset() + k * PAGE as u64);
            let pool = BufferPool::new(l.clone(), PAGE, 8, policy, WriteMode::WriteThrough);
            let (ep, probe) = (l.fabric().endpoint(), l.fabric().endpoint());
            let mut model: HashMap<u64, u8> = HashMap::new();
            let mut buf = vec![0u8; PAGE];
            for op in &ops {
                match *op {
                    PoolOp::Read(k) => {
                        pool.read_page(&ep, addr(k), &mut buf).unwrap();
                        let expect = model.get(&k).copied().unwrap_or(0);
                        prop_assert_eq!(buf[0], expect, "{}: stale read of {}", name, k);
                    }
                    PoolOp::Write(k, v) => {
                        let mut page = vec![0u8; PAGE];
                        page[0] = v;
                        pool.write_page(&ep, addr(k), &page).unwrap();
                        model.insert(k, v);
                    }
                    PoolOp::Invalidate(k) => {
                        pool.invalidate(&ep, addr(k));
                    }
                }
                let dsm = dsm_firsts(&l, &probe, addr);
                prop_assert_eq!(dsm, firsts(&model), "{}: dsm divergence after {:?}", name, op);
            }
        }
    }

    /// Residency never exceeds capacity, and hit+miss counts equal the
    /// number of reads+writes issued.
    #[test]
    fn accounting_invariants(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let l = layer();
        let base = l.alloc(PAGES * PAGE as u64).unwrap();
        let addr = |k: u64| GlobalAddr::new(base.node(), base.offset() + k * PAGE as u64);
        let policy = all_policies(4).remove(1); // lru
        let pool = BufferPool::new(l.clone(), PAGE, 4, policy, WriteMode::WriteThrough);
        let ep = l.fabric().endpoint();
        let mut accesses = 0u64;
        let mut buf = vec![0u8; PAGE];
        for op in &ops {
            match *op {
                PoolOp::Read(k) => {
                    pool.read_page(&ep, addr(k), &mut buf).unwrap();
                    accesses += 1;
                }
                PoolOp::Write(k, v) => {
                    let mut page = vec![0u8; PAGE];
                    page[0] = v;
                    pool.write_page(&ep, addr(k), &page).unwrap();
                    accesses += 1;
                }
                PoolOp::Invalidate(k) => {
                    pool.invalidate(&ep, addr(k));
                }
            }
            prop_assert!(pool.resident() <= 4);
        }
        let s = pool.stats();
        prop_assert_eq!(s.hits + s.misses, accesses);
    }

    /// The striped pool with batched reads/writes (including duplicate
    /// keys inside one batch) is as transparent as the single-lock pool:
    /// reads see the latest write, and after every batch DSM holds it.
    #[test]
    fn striped_batched_pool_matches_model(
        batches in proptest::collection::vec(
            proptest::collection::vec(((0..PAGES), any::<bool>(), any::<u8>()), 1..8),
            1..40,
        ),
    ) {
        let l = layer();
        let base = l.alloc(PAGES * PAGE as u64).unwrap();
        let addr = |k: u64| GlobalAddr::new(base.node(), base.offset() + k * PAGE as u64);
        let pool = BufferPool::new_striped(
            l.clone(),
            PAGE,
            8,
            4,
            |cap| Box::new(ClockPolicy::new(cap)),
        );
        let (ep, probe) = (l.fabric().endpoint(), l.fabric().endpoint());
        let mut model: HashMap<u64, u8> = HashMap::new();
        for batch in &batches {
            let reads: Vec<u64> =
                batch.iter().filter(|(_, w, _)| !w).map(|&(k, _, _)| k).collect();
            let writes: Vec<(u64, u8)> =
                batch.iter().filter(|(_, w, _)| *w).map(|&(k, _, v)| (k, v)).collect();
            if !reads.is_empty() {
                let mut bufs = vec![0u8; reads.len() * PAGE];
                let mut reqs: Vec<_> = reads
                    .iter()
                    .zip(bufs.chunks_exact_mut(PAGE))
                    .map(|(&k, b)| (addr(k), &mut b[..]))
                    .collect();
                pool.read_pages(&ep, &mut reqs).unwrap();
                for (&k, b) in reads.iter().zip(bufs.chunks_exact(PAGE)) {
                    let expect = model.get(&k).copied().unwrap_or(0);
                    prop_assert_eq!(b[0], expect, "stale batched read of {}", k);
                }
            }
            if !writes.is_empty() {
                let mut pages = vec![0u8; writes.len() * PAGE];
                for ((_, v), b) in writes.iter().zip(pages.chunks_exact_mut(PAGE)) {
                    b[0] = *v;
                }
                let reqs: Vec<_> = writes
                    .iter()
                    .zip(pages.chunks_exact(PAGE))
                    .map(|(&(k, _), b)| (addr(k), b))
                    .collect();
                pool.write_pages(&ep, &reqs, &[]).unwrap();
                for &(k, v) in &writes {
                    model.insert(k, v);
                }
            }
            prop_assert!(pool.resident() <= 8);
            prop_assert_eq!(dsm_firsts(&l, &probe, addr), firsts(&model), "dsm divergence after {:?}", batch);
        }
    }

    /// Concurrent access across shards: real threads hammer a striped
    /// pool (each key owned by exactly one writer thread). Afterwards no
    /// page is lost or duplicated, the hit/miss/eviction counters sum
    /// consistently, and DSM holds every key's last write.
    #[test]
    fn concurrent_striped_pool_is_coherent(
        seeds in proptest::collection::vec(any::<u64>(), 4..=4),
    ) {
        const THREADS: usize = 4;
        const KEYS_PER_THREAD: u64 = 16;
        const OPS: usize = 150;
        const CAP: usize = 16;
        let l = layer();
        let base = l.alloc(THREADS as u64 * KEYS_PER_THREAD * PAGE as u64).unwrap();
        let addr = |k: u64| GlobalAddr::new(base.node(), base.offset() + k * PAGE as u64);
        let pool = Arc::new(BufferPool::new_striped(
            l.clone(),
            PAGE,
            CAP,
            4,
            |cap| Box::new(ClockPolicy::new(cap)),
        ));
        // Each owner thread's final value of every key it wrote.
        let mut last_write: HashMap<u64, u8> = HashMap::new();
        let mut accesses = [0u64; THREADS];
        std::thread::scope(|sc| {
            let mut handles = Vec::new();
            for (t, &seed) in seeds.iter().enumerate() {
                let pool = pool.clone();
                let l = l.clone();
                handles.push(sc.spawn(move || {
                    let ep = l.fabric().endpoint();
                    let my_base = t as u64 * KEYS_PER_THREAD;
                    let mut x = seed | 1;
                    let mut rng = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    let mut last: HashMap<u64, u8> = HashMap::new();
                    let mut n = 0u64;
                    let mut buf = vec![0u8; PAGE];
                    for _ in 0..OPS {
                        let r = rng();
                        match r % 4 {
                            0 => {
                                // Write my own key (single writer per key).
                                let k = my_base + rng() % KEYS_PER_THREAD;
                                let v = (rng() % 251 + 1) as u8;
                                let mut page = vec![0u8; PAGE];
                                page[0] = v;
                                pool.write_page(&ep, addr(k), &page).unwrap();
                                last.insert(k, v);
                                n += 1;
                            }
                            1 => {
                                // Batched read of my own keys: must see my
                                // latest writes.
                                let ks: Vec<u64> = (0..3)
                                    .map(|_| my_base + rng() % KEYS_PER_THREAD)
                                    .collect();
                                let mut bufs = vec![0u8; ks.len() * PAGE];
                                let mut reqs: Vec<_> = ks
                                    .iter()
                                    .zip(bufs.chunks_exact_mut(PAGE))
                                    .map(|(&k, b)| (addr(k), &mut b[..]))
                                    .collect();
                                pool.read_pages(&ep, &mut reqs).unwrap();
                                for (&k, b) in ks.iter().zip(bufs.chunks_exact(PAGE)) {
                                    let expect = last.get(&k).copied().unwrap_or(0);
                                    assert_eq!(b[0], expect, "thread {t} stale read of own key {k}");
                                }
                                n += ks.len() as u64;
                            }
                            _ => {
                                // Read a foreign key: any committed value of
                                // its single writer (or 0) is acceptable —
                                // this is pure shard-contention traffic.
                                let k = rng() % (THREADS as u64 * KEYS_PER_THREAD);
                                pool.read_page(&ep, addr(k), &mut buf).unwrap();
                                n += 1;
                            }
                        }
                    }
                    (t, n, last.into_iter().collect::<Vec<_>>())
                }));
            }
            for h in handles {
                let (t, n, last) = h.join().unwrap();
                accesses[t] = n;
                last_write.extend(last);
            }
        });
        let s = pool.stats();
        let total: u64 = accesses.iter().sum();
        // Counters sum consistently: every access is a hit or a miss, and
        // every miss either evicted someone or grew residency.
        prop_assert_eq!(s.hits + s.misses, total);
        prop_assert_eq!(s.misses, s.evictions + pool.resident() as u64);
        // No page lost or duplicated: residency equals the number of
        // distinct keys the pool claims to hold, and never exceeds capacity.
        prop_assert!(pool.resident() <= CAP);
        let held = (0..THREADS as u64 * KEYS_PER_THREAD)
            .filter(|&k| pool.contains(addr(k)))
            .count();
        prop_assert_eq!(held, pool.resident());
        // Every write went through: DSM holds each key's final
        // owner-written value, and 0 where no owner wrote.
        let ep = l.fabric().endpoint();
        let keys = THREADS as u64 * KEYS_PER_THREAD;
        let dsm: Vec<u8> = (0..keys).map(|k| dsm_first(&l, &ep, addr(k))).collect();
        let want: Vec<u8> = (0..keys).map(|k| last_write.get(&k).copied().unwrap_or(0)).collect();
        prop_assert_eq!(dsm, want);
    }
}
