//! Property-based tests: every buffer policy, checked against a
//! reference model (a plain HashMap standing for the DSM ground truth).

use std::collections::HashMap;
use std::sync::Arc;

use buffer::{all_policies, BufferPool, ClockPolicy, WriteMode};
use dsm::{DsmConfig, DsmLayer, GlobalAddr};
use proptest::prelude::*;
use rdma_sim::{Fabric, NetworkProfile};

const PAGE: usize = 32;
const PAGES: u64 = 64;

fn layer() -> Arc<DsmLayer> {
    let fabric = Fabric::new(NetworkProfile::zero());
    DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 20,
            replication: 1,
            mem_cores: 1,
            weak_cpu_factor: 4.0,
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
    /// a *cache*, never a source of staleness) in both write modes.
    #[test]
    fn pool_is_transparent_for_every_policy(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        write_back in any::<bool>(),
    ) {
        for policy in all_policies(8) {
            let name = policy.name();
            let l = layer();
            let base = l.alloc(PAGES * PAGE as u64).unwrap();
            let addr = |k: u64| GlobalAddr::new(base.node(), base.offset() + k * PAGE as u64);
            let mode = if write_back { WriteMode::WriteBack } else { WriteMode::WriteThrough };
            let pool = BufferPool::new(l.clone(), PAGE, 8, policy, mode);
            let ep = l.fabric().endpoint();
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
                        // Coherence-style invalidation discards the local
                        // copy; in write-back mode unwritten dirt is lost,
                        // so the model must fall back to the DSM state.
                        pool.invalidate(&ep, addr(k));
                        let mut direct = vec![0u8; PAGE];
                        l.read(&ep, addr(k), &mut direct).unwrap();
                        model.insert(k, direct[0]);
                    }
                }
            }
            // After a flush, DSM agrees with the model everywhere.
            pool.flush_all(&ep).unwrap();
            for (k, v) in &model {
                let mut direct = vec![0u8; PAGE];
                l.read(&ep, addr(*k), &mut direct).unwrap();
                prop_assert_eq!(direct[0], *v, "{}: dsm divergence at {}", name, k);
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
    /// reads see the latest write, and a final flush converges the DSM.
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
            WriteMode::WriteBack,
        );
        let ep = l.fabric().endpoint();
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
        }
        pool.flush_all(&ep).unwrap();
        for (k, v) in &model {
            let mut direct = vec![0u8; PAGE];
            l.read(&ep, addr(*k), &mut direct).unwrap();
            prop_assert_eq!(direct[0], *v, "dsm divergence at {} after flush", k);
        }
    }

    /// Concurrent access across shards: real threads hammer a striped
    /// pool (each key owned by exactly one writer thread). Afterwards no
    /// page is lost or duplicated, the hit/miss/eviction counters sum
    /// consistently, and `flush_all` observes every dirty frame.
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
            WriteMode::WriteBack,
        ));
        // last_write[k] = final value each owner thread wrote to its key.
        let mut last_write: Vec<Vec<(u64, u8)>> = Vec::new();
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
                last_write.push(last);
            }
        });
        let ep = l.fabric().endpoint();
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
        // flush_all observes every dirty frame: afterwards the DSM holds
        // each key's final owner-written value.
        pool.flush_all(&ep).unwrap();
        for per_thread in &last_write {
            for &(k, v) in per_thread {
                let mut direct = vec![0u8; PAGE];
                l.read(&ep, addr(k), &mut direct).unwrap();
                prop_assert_eq!(direct[0], v, "flush_all lost dirty page {}", k);
            }
        }
    }
}
