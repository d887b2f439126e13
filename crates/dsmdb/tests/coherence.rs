//! The Figure 3b coherence protocol, checked from outside it: what each
//! class of access costs on the wire and on the clock, what a write to
//! shared records costs whatever the serving session's clock reads, what
//! a crash between a transaction's two doorbells leaves behind, lock-free
//! reads racing transfers, and random transactions from two nodes against
//! an in-memory model. Lock words and sharer words are read straight off
//! the memory nodes' regions, never through the engine.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use buffer::cost::{ATOMIC_NS, LOCK_NS, MAP_OP_NS};
use dsm::GlobalAddr;
use dsmdb::{
    Architecture, CcProtocol, Cluster, ClusterConfig, CoherenceMode, Op, Session, TxnError,
};
use proptest::prelude::*;
use rdma_sim::{FaultPlan, NetworkProfile};

const PAYLOAD: usize = 64;

fn cluster(mode: CoherenceMode, profile: NetworkProfile, n_records: u64, frames: usize) -> Arc<Cluster> {
    Cluster::build(ClusterConfig {
        compute_nodes: 2,
        threads_per_node: 2,
        memory_nodes: 2,
        n_records,
        payload_size: PAYLOAD,
        cache_frames: frames,
        profile,
        architecture: Architecture::CacheNoShard(mode),
        cc: CcProtocol::TplExclusive,
        ..Default::default()
    })
    .unwrap()
}

/// The word at `addr`, read off its memory node (no verb, no clock).
fn word(cluster: &Cluster, addr: GlobalAddr) -> u64 {
    let region = cluster.fabric().region(addr.node()).unwrap();
    region.read_u64(addr.offset()).unwrap()
}

fn lock_word(cluster: &Cluster, key: u64) -> u64 {
    word(cluster, cluster.table().lock_addr(key))
}

fn sharer_word(cluster: &Cluster, key: u64) -> u64 {
    word(cluster, cluster.table().sharers_addr(key))
}

fn resident(cluster: &Cluster, node: usize, key: u64) -> bool {
    let pool = &cluster.node_cache(node).expect("3b cache").pool;
    pool.contains(cluster.table().payload_addr(key, 0))
}

fn payload(counter: i64) -> Vec<u8> {
    let mut value = vec![0u8; PAYLOAD];
    value[..8].copy_from_slice(&counter.to_le_bytes());
    value
}

/// Run `body` while a thread of its own answers both nodes' coherence
/// inboxes, so a writer's wait for acks ends whichever session it is.
fn with_peer<R>(cluster: &Arc<Cluster>, body: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let served = (0..2).filter(|&n| cluster.node_cache(n).unwrap().serve_one()).count();
                if served == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let out = body();
        stop.store(true, Ordering::Release);
        out
    })
}

/// What one committed transaction cost its session.
#[derive(Debug, PartialEq, Eq)]
struct Cost {
    ns: u64,
    /// One-sided verbs and atomics.
    verbs: u64,
    /// Wire round trips of those (messages not counted).
    wire_rts: u64,
    /// Verbs that rode a doorbell behind its leader.
    riders: u64,
    sends: u64,
}

fn cost_of(s: &mut Session, ops: &[Op]) -> Cost {
    let (t0, before) = (s.endpoint().clock().now_ns(), s.endpoint().stats());
    s.execute(ops).unwrap();
    let after = s.endpoint().stats();
    let sends = after.sends - before.sends;
    Cost {
        ns: s.endpoint().clock().now_ns() - t0,
        verbs: after.round_trips() - before.round_trips() - sends,
        wire_rts: after.wire_round_trips() - before.wire_round_trips() - sends,
        riders: after.coalesced - before.coalesced,
        sends,
    }
}

#[test]
fn every_access_class_costs_what_the_model_gives() {
    let p = NetworkProfile::rdma_cx6();
    // The acquire doorbell's leader is the lock CAS, with its turn at the
    // atomic unit; every READ behind it pays the marginal batched cost.
    let cas = p.atomic_cost_ns() + p.atomic_unit_ns;
    let slot = p.batched_cost_ns(16 + PAYLOAD); // sharers | wts | payload
    let word8 = p.batched_cost_ns(8); // the sharer word, or an unlock
    // The pool under CLOCK: latch-free read hit, latched write path.
    let pool_hit = MAP_OP_NS + ATOMIC_NS;
    let install_hit = MAP_OP_NS + LOCK_NS + ATOMIC_NS;
    let install_miss = MAP_OP_NS + LOCK_NS + MAP_OP_NS + ATOMIC_NS;

    let c = cluster(CoherenceMode::Invalidate, p, 64, 64);
    let mut s0 = c.session(0, 0);
    // Past anything cluster bring-up reserved on the atomic units.
    s0.endpoint().charge_local(1_000_000);

    // Not resident, read: the slot rides the CAS, the sharer bit the unlock.
    let fill = cost_of(&mut s0, &[Op::Read(1)]);
    let want = Cost {
        ns: cas + slot + install_miss + p.rw_cost_ns(8) + word8,
        verbs: 4,
        wire_rts: 2,
        riders: 2,
        sends: 0,
    };
    assert_eq!(fill, want);
    assert_eq!(fill.ns, 3_835);
    assert_eq!((sharer_word(&c, 1), resident(&c, 0, 1)), (0b01, true));

    // Resident, read: the pool hit and nothing else — no lock, no verb.
    let hit = cost_of(&mut s0, &[Op::Read(1)]);
    assert_eq!(hit, Cost { ns: pool_hit, verbs: 0, wire_rts: 0, riders: 0, sends: 0 });
    assert_eq!(hit.ns, 37);

    // Resident, written, no other sharer: the sharer word rides the CAS
    // and, unchanged, stays home; the payload leads the release.
    let write = cost_of(&mut s0, &[Op::Rmw { key: 1, delta: 5 }]);
    let want = Cost {
        ns: cas + word8 + pool_hit + install_hit + p.rw_cost_ns(PAYLOAD) + word8,
        verbs: 4,
        wire_rts: 2,
        riders: 2,
        sends: 0,
    };
    assert_eq!(write, want);
    assert_eq!(write.ns, 3_846);
    assert_eq!(sharer_word(&c, 1), 0b01);

    // Not resident, written: slot in, payload and sharer bit out.
    let write_fill = cost_of(&mut s0, &[Op::Rmw { key: 2, delta: 5 }]);
    let want = Cost {
        ns: cas + slot + install_miss + p.rw_cost_ns(PAYLOAD) + 2 * word8,
        verbs: 5,
        wire_rts: 2,
        riders: 3,
        sends: 0,
    };
    assert_eq!(write_fill, want);
    assert_eq!(write_fill.ns, 3_987);
    assert_eq!((sharer_word(&c, 2), resident(&c, 0, 2)), (0b01, true));

    // Not resident, overwritten blind: no op sees the old payload, so
    // only the sharer word comes in.
    let blind = cost_of(&mut s0, &[Op::Update { key: 3, value: payload(9) }]);
    assert_eq!(blind.ns, cas + word8 + install_miss + p.rw_cost_ns(PAYLOAD) + 2 * word8);
    assert_eq!((blind.verbs, blind.wire_rts), (5, 2));
    assert_eq!(s0.execute(&[Op::Read(3)]).unwrap().reads[0].1, payload(9));

    // Several resident keys, only read: one pool hit each, still no verb.
    let read_set = [Op::Read(1), Op::Read(2), Op::Read(3)];
    let resident_set = cost_of(&mut s0, &read_set);
    assert_eq!(resident_set, Cost { ns: 3 * pool_hit, verbs: 0, wire_rts: 0, riders: 0, sends: 0 });
    // One key of the set not resident: the whole set takes the locks —
    // two CAS, key 5's slot and sharer bit, two unlocks — and key 1 comes
    // out of the pool under its lock.
    let one_missing = cost_of(&mut s0, &[Op::Read(1), Op::Read(5)]);
    assert_eq!((one_missing.verbs, one_missing.wire_rts, one_missing.sends), (6, 2, 0));
    assert!(resident(&c, 0, 5));
    assert_eq!(cost_of(&mut s0, &[Op::Read(1), Op::Read(5)]).verbs, 0);

    // Several keys of several classes are still two doorbells.
    let mixed = cost_of(&mut s0, &[Op::Read(1), Op::Rmw { key: 4, delta: 1 }, Op::Read(6), Op::Rmw { key: 2, delta: 1 }]);
    assert_eq!((mixed.wire_rts, mixed.sends), (2, 0));
    // 4 CAS + slot(4) + slot(6) + sharers(2) | payload(4) + sharers(4) +
    // sharers(6) + payload(2) + 4 unlocks.
    assert_eq!(mixed.verbs, 7 + 8);
    for key in 0..8 {
        assert_eq!(lock_word(&c, key), 0, "key {key}");
    }
}

#[test]
fn a_write_finds_its_remote_sharer_in_the_word_that_came_with_the_lock() {
    for mode in [CoherenceMode::Invalidate, CoherenceMode::Update] {
        let c = cluster(mode, NetworkProfile::rdma_cx6(), 64, 64);
        let (mut s0, mut s1) = (c.session(0, 0), c.session(1, 0));
        s1.execute(&[Op::Read(5)]).unwrap();
        assert_eq!((sharer_word(&c, 5), resident(&c, 1, 5)), (0b10, true));
        // Node 0 writes: two doorbells and one message round, no READ or
        // CAS on a directory in between.
        let write = with_peer(&c, || cost_of(&mut s0, &[Op::Rmw { key: 5, delta: 7 }]));
        assert_eq!((write.wire_rts, write.sends), (2, 1), "{mode:?}");
        let hits = c.node_cache(1).unwrap().pool.stats().hits;
        match mode {
            CoherenceMode::Invalidate => {
                assert!(!resident(&c, 1, 5), "the remote copy is gone");
                assert_eq!(sharer_word(&c, 5), 0b01);
            }
            CoherenceMode::Update => {
                assert!(resident(&c, 1, 5), "the remote copy was refreshed in place");
                assert_eq!(sharer_word(&c, 5), 0b11);
            }
        }
        assert_eq!(s1.execute(&[Op::Read(5)]).unwrap().reads[0].1, payload(7), "{mode:?}");
        let served_locally = c.node_cache(1).unwrap().pool.stats().hits == hits + 1;
        assert_eq!(served_locally, mode == CoherenceMode::Update);
        assert_eq!(sharer_word(&c, 5), 0b11);
        assert_eq!(lock_word(&c, 5), 0);
    }
}

/// `ops` on `s0` while `s1`, a session of the other node, answers its
/// node's inbox.
fn cost_served_by(s0: &mut Session, s1: &mut Session, ops: &[Op]) -> Cost {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if !s1.serve_pending(1) {
                    std::thread::yield_now();
                }
            }
        });
        let cost = cost_of(s0, ops);
        done.store(true, Ordering::Release);
        cost
    })
}

#[test]
fn an_ack_costs_the_same_whatever_the_serving_sessions_clock_reads() {
    let p = NetworkProfile::rdma_cx6();
    let c = cluster(CoherenceMode::Invalidate, p, 64, 64);
    let (mut s0, mut s1) = (c.session(0, 0), c.session(1, 0));
    s0.endpoint().charge_local(1_000_000);
    s0.execute(&[Op::Read(5)]).unwrap();
    let mut costs = Vec::new();
    for peer_ahead in [false, true] {
        s1.execute(&[Op::Read(5)]).unwrap();
        assert_eq!(sharer_word(&c, 5), 0b11);
        let (now0, now1) = (s0.endpoint().clock().now_ns(), s1.endpoint().clock().now_ns());
        if peer_ahead {
            s1.endpoint().charge_local(now0 + 1_000_000 - now1);
        } else {
            assert!(now1 < now0);
        }
        costs.push(cost_served_by(&mut s0, &mut s1, &[Op::Rmw { key: 5, delta: 1 }]));
    }
    assert_eq!(costs[0], costs[1]);
    // Resident, written, one remote sharer: the sharer word rides the
    // CAS; the invalidation out, the handler's drop and the ack back; the
    // install; payload, sharer word and unlock.
    let (cas, word8) = (p.atomic_cost_ns() + p.atomic_unit_ns, p.batched_cost_ns(8));
    let round = p.send_cost_ns(17) + (MAP_OP_NS + LOCK_NS + ATOMIC_NS) + p.send_cost_ns(17);
    let install_hit = MAP_OP_NS + LOCK_NS + ATOMIC_NS;
    let want = cas + word8 + (MAP_OP_NS + ATOMIC_NS) + round + install_hit + p.rw_cost_ns(PAYLOAD) + 2 * word8;
    assert_eq!((costs[0].ns, costs[0].wire_rts, costs[0].sends), (want, 2, 1));
    assert_eq!(want, 8_853);
}

#[test]
fn a_write_to_several_shared_records_is_one_message_round() {
    let p = NetworkProfile::rdma_cx6();
    let c = cluster(CoherenceMode::Invalidate, p, 64, 64);
    let (mut s0, mut s1) = (c.session(0, 0), c.session(1, 0));
    s0.endpoint().charge_local(1_000_000);
    // Keys 5 and 6 live on different memory nodes; both nodes cache both.
    let (five, six) = (Op::Rmw { key: 5, delta: 1 }, Op::Rmw { key: 6, delta: 1 });
    s0.execute(&[Op::Read(5), Op::Read(6)]).unwrap();
    s1.execute(&[Op::Read(5), Op::Read(6)]).unwrap();
    let write = cost_served_by(&mut s0, &mut s1, &[five, six]);
    // One message to node 1 naming both pages, one ack.
    assert_eq!((write.wire_rts, write.sends, s0.endpoint().stats().recvs), (2, 1, 1));
    let (cas, word8) = (p.atomic_cost_ns() + p.atomic_unit_ns, p.batched_cost_ns(8));
    let acquire = cas + word8 + (word8 + p.atomic_unit_ns) + word8;
    let round = p.send_cost_ns(1 + 8 + 2 * 8) + 2 * (MAP_OP_NS + LOCK_NS + ATOMIC_NS) + p.send_cost_ns(17);
    let pool = 2 * (MAP_OP_NS + ATOMIC_NS) + 2 * (MAP_OP_NS + LOCK_NS + ATOMIC_NS);
    let release = p.rw_cost_ns(PAYLOAD) + p.batched_cost_ns(PAYLOAD) + 4 * word8;
    assert_eq!(write.ns, acquire + pool + round + release);
    for key in [5, 6] {
        assert!(!resident(&c, 1, key), "key {key}");
        assert_eq!(sharer_word(&c, key), 0b01, "key {key}");
    }
}

/// Commit `ops` on `s`, retrying aborts.
fn commit(s: &mut Session, ops: &[Op]) -> Vec<(u64, Vec<u8>)> {
    loop {
        match s.execute(ops) {
            Ok(out) => return out.reads,
            Err(TxnError::Aborted(_)) => {
                s.serve_pending(8);
            }
            Err(e) => panic!("{e}"),
        }
    }
}

#[test]
fn a_lock_free_read_sees_a_transfer_whole_or_not_at_all() {
    const A: u64 = 2;
    const B: u64 = 3;
    const ROUNDS: usize = 300;
    let c = cluster(CoherenceMode::Invalidate, NetworkProfile::rdma_cx6(), 64, 64);
    let finished = AtomicUsize::new(0);
    let lock_free = AtomicUsize::new(0);
    let transfer = |i: usize| {
        let delta = if i.is_multiple_of(2) { 1 } else { -1 };
        [Op::Rmw { key: A, delta: -delta }, Op::Rmw { key: B, delta }]
    };
    // Session `(node, thread)` runs `txn` ROUNDS times, then answers its
    // node's inbox until all three sessions are done.
    let run = |node: usize, thread: usize, txn: &(dyn Fn(&mut Session, usize) + Sync)| {
        let mut s = c.session(node, thread);
        for i in 0..ROUNDS {
            txn(&mut s, i);
        }
        finished.fetch_add(1, Ordering::AcqRel);
        while finished.load(Ordering::Acquire) < 3 {
            if !s.serve_pending(8) {
                std::thread::yield_now();
            }
        }
    };
    std::thread::scope(|sc| {
        // Node 0 moves money between A and B.
        sc.spawn(|| {
            run(0, 0, &|s, i| {
                commit(s, &transfer(i));
            })
        });
        // Node 1's reader: {A, B} sums to zero, with or without the locks.
        sc.spawn(|| {
            run(1, 0, &|s, _| {
                let rts = s.endpoint().stats().round_trips();
                let reads = commit(s, &[Op::Read(A), Op::Read(B)]);
                let sum: i64 = reads.iter().map(|(_, v)| i64::from_le_bytes(v[..8].try_into().unwrap())).sum();
                assert_eq!(sum, 0, "{reads:?}");
                if s.endpoint().stats().round_trips() == rts {
                    lock_free.fetch_add(1, Ordering::Relaxed);
                }
            })
        });
        // Its sibling refills B, and moves money the other way in between.
        sc.spawn(|| {
            run(1, 1, &|s, i| {
                if i.is_multiple_of(2) {
                    c.node_cache(1).unwrap().pool.invalidate(s.endpoint(), c.table().payload_addr(B, 0));
                    commit(s, &[Op::Read(B)]);
                } else {
                    commit(s, &transfer(i));
                }
            })
        });
    });
    assert!(lock_free.load(Ordering::Relaxed) > 0, "no read went without the locks");
    let balance = |key| word(&c, c.table().payload_addr(key, 0)) as i64;
    assert_eq!(balance(A) + balance(B), 0);
    assert_eq!((lock_word(&c, A), lock_word(&c, B)), (0, 0));
}

#[test]
fn a_failed_release_leaves_no_page_it_filled_and_no_bit_it_meant_to_set() {
    let c = cluster(CoherenceMode::Invalidate, NetworkProfile::rdma_cx6(), 64, 64);
    let mut s0 = c.session(0, 0);
    s0.execute(&[Op::Rmw { key: 2, delta: 1 }]).unwrap();
    // Odd keys live on the second memory node, which disappears right
    // after this transaction's acquire doorbell left.
    let dead = c.table().lock_addr(1).node();
    assert_ne!(dead, c.table().lock_addr(0).node());
    let now = s0.endpoint().clock().now_ns();
    c.fabric().install_fault_plan(FaultPlan::new(1).crash(dead, now + 1, u64::MAX));
    let ops = [Op::Read(0), Op::Read(1), Op::Rmw { key: 2, delta: 1 }, Op::Rmw { key: 3, delta: 1 }];
    let err = s0.execute(&ops).unwrap_err();
    assert_eq!(err, TxnError::NodeUnavailable { node: dead });
    for key in 0..4 {
        assert!(!resident(&c, 0, key), "key {key} outlived its transaction");
    }
    // Key 2's bit is from the committed transaction before; nothing of
    // this one reached a sharer word, a payload, or stayed locked where
    // an unlock could still go.
    assert_eq!([0, 1, 2, 3].map(|key| sharer_word(&c, key)), [0, 0, 0b01, 0]);
    assert_eq!(word(&c, c.table().payload_addr(2, 0)), 1);
    assert_eq!((lock_word(&c, 0), lock_word(&c, 2)), (0, 0));
    // The reachable half still works, from DSM.
    let out = s0.execute(&[Op::Read(0), Op::Read(2)]).unwrap();
    assert_eq!(out.reads[1].1, payload(1));
}

/// One generated op: `(kind, which of the txn's keys, value)`.
type OpSeed = (u8, usize, i64);

fn op_of((kind, which, value): OpSeed, keys: &[u64]) -> Op {
    let key = keys[which % keys.len()];
    match kind {
        0 => Op::Read(key),
        1 => Op::Update { key, value: payload(value) },
        _ => Op::Rmw { key, delta: value },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random transactions (1-4 keys, repeated keys, blind and observed
    /// writes) issued from either node, with pools too small to hold the
    /// table: every read equals an in-memory model's, and after every
    /// transaction no word is locked and each sharer word covers every
    /// node whose pool holds the page.
    #[test]
    fn two_nodes_match_a_model_and_the_sharer_word_covers_every_copy(
        update_mode in any::<bool>(),
        txns in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec(0u64..12, 1..=4),
                proptest::collection::vec((0u8..3, 0usize..4, -50i64..50), 1..=6),
            ),
            1..40,
        ),
    ) {
        const RECORDS: u64 = 12;
        let mode = if update_mode { CoherenceMode::Update } else { CoherenceMode::Invalidate };
        let c = cluster(mode, NetworkProfile::zero(), RECORDS, 8);
        let mut sessions = [c.session(0, 0), c.session(1, 0)];
        let mut model = vec![payload(0); RECORDS as usize];
        with_peer(&c, || {
            for (on_node_1, keys, seeds) in &txns {
                let ops: Vec<Op> = seeds.iter().map(|&seed| op_of(seed, keys)).collect();
                let mut want = Vec::new();
                for op in &ops {
                    let record = &mut model[op.key() as usize];
                    match op {
                        Op::Read(key) => want.push((*key, record.clone())),
                        Op::Update { value, .. } => record.clone_from(value),
                        Op::Rmw { key, delta } => {
                            want.push((*key, record.clone()));
                            let counter = i64::from_le_bytes(record[..8].try_into().unwrap());
                            record[..8].copy_from_slice(&(counter + delta).to_le_bytes());
                        }
                    }
                }
                let out = sessions[usize::from(*on_node_1)].execute(&ops).unwrap();
                prop_assert_eq!(&out.reads, &want, "{:?} {:?}", mode, ops);
                for key in 0..RECORDS {
                    prop_assert_eq!(lock_word(&c, key), 0, "key {} after {:?}", key, ops);
                    let holders = (0..2).filter(|&n| resident(&c, n, key)).fold(0u64, |bits, n| bits | 1 << n);
                    let sharers = sharer_word(&c, key);
                    prop_assert_eq!(sharers & holders, holders, "key {}: sharers {:#b}, copies on {:#b}", key, sharers, holders);
                }
            }
            Ok(())
        })?;
    }
}
