//! Property tests for the CC layer: serial equivalence against a
//! reference interpreter, for every protocol, and the two-doorbell 2PL
//! transaction against a sequential in-memory model on every layout.

use std::sync::Arc;

use dsm::{DsmConfig, DsmLayer};
use proptest::prelude::*;
use rdma_sim::{Fabric, NetworkProfile};
use txn::{
    ConcurrencyControl, DirectIo, FaaOracle, Mvcc, Occ, Op, RecordTable, TwoPhaseLocking, Tso,
    TxnCtx, TxnError,
};

fn table(versions: usize) -> Arc<RecordTable> {
    let fabric = Fabric::new(NetworkProfile::zero());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 2,
            capacity_per_node: 4 << 20,
            replication: 1,
            mem_cores: 1,
            weak_cpu_factor: 4.0,
        },
    );
    Arc::new(RecordTable::create(&layer, 32, 16, versions).unwrap())
}

#[derive(Debug, Clone)]
enum TxnKind {
    Transfer(u64, u64, i64),
    Readonly(u64, u64),
    Blind(u64, i64),
}

fn txns() -> impl Strategy<Value = Vec<TxnKind>> {
    proptest::collection::vec(
        prop_oneof![
            ((0u64..32), (0u64..32), (-50i64..50)).prop_map(|(a, b, d)| TxnKind::Transfer(a, b, d)),
            ((0u64..32), (0u64..32)).prop_map(|(a, b)| TxnKind::Readonly(a, b)),
            ((0u64..32), (-50i64..50)).prop_map(|(k, d)| TxnKind::Blind(k, d)),
        ],
        1..60,
    )
}

fn as_ops(t: &TxnKind) -> Vec<Op> {
    match *t {
        TxnKind::Transfer(a, b, d) => vec![
            Op::Rmw { key: a, delta: -d },
            Op::Rmw { key: b, delta: d },
        ],
        TxnKind::Readonly(a, b) => vec![Op::Read(a), Op::Read(b)],
        TxnKind::Blind(k, d) => {
            let mut v = vec![0u8; 16];
            v[0..8].copy_from_slice(&d.to_le_bytes());
            vec![Op::Update { key: k, value: v }]
        }
    }
}

/// Run the same transaction sequence serially through a protocol and a
/// reference interpreter; final states must agree exactly. The protocol
/// is built *from the table's layer* so oracle state lives in the same
/// pool as the data.
fn serial_equivalence(
    make_cc: impl FnOnce(&Arc<DsmLayer>) -> Box<dyn ConcurrencyControl>,
    versions: usize,
    seq: &[TxnKind],
) {
    let t = table(versions);
    let cc = make_cc(t.layer());
    let cc = cc.as_ref();
    let ep = t.layer().fabric().endpoint();
    let ctx = TxnCtx {
        ep: &ep,
        table: &t,
        io: &DirectIo,
        worker_tag: 1,
    };
    let mut model = [0i64; 32];
    for k in seq {
        let result = cc.execute(&ctx, &as_ops(k));
        match result {
            Ok(out) => {
                match *k {
                    TxnKind::Transfer(a, b, d) => {
                        // Pre-images must match the model.
                        assert_eq!(
                            i64::from_le_bytes(out.reads[0].1[0..8].try_into().unwrap()),
                            model[a as usize],
                            "{}: pre-image of {a}",
                            cc.name()
                        );
                        model[a as usize] -= d;
                        model[b as usize] += d;
                    }
                    TxnKind::Readonly(a, b) => {
                        assert_eq!(
                            i64::from_le_bytes(out.reads[0].1[0..8].try_into().unwrap()),
                            model[a as usize]
                        );
                        assert_eq!(
                            i64::from_le_bytes(out.reads[1].1[0..8].try_into().unwrap()),
                            model[b as usize]
                        );
                    }
                    TxnKind::Blind(kk, d) => {
                        model[kk as usize] = d;
                    }
                }
            }
            Err(TxnError::Aborted(_)) => {
                // Serial single-worker aborts are allowed (e.g. same-key
                // transfer in MVCC hits write-too-old) but must leave the
                // state untouched — verified by subsequent reads.
            }
            Err(e) => panic!("{}: {e}", cc.name()),
        }
    }
    // Final state agreement.
    for key in 0..32u64 {
        let out = cc
            .execute(&ctx, &[Op::Read(key)])
            .expect("read-only commit");
        assert_eq!(
            i64::from_le_bytes(out.reads[0].1[0..8].try_into().unwrap()),
            model[key as usize],
            "{}: final state of {key}",
            cc.name()
        );
    }
}

const KEYS: u64 = 12;
const PAYLOAD: usize = 16;

/// Arbitrary op lists: 1–8 ops over 12 keys, so keys repeat within a
/// transaction in every combination of read, overwrite and
/// read-modify-write.
fn op_lists() -> impl Strategy<Value = Vec<Vec<Op>>> {
    let op = prop_oneof![
        (0..KEYS).prop_map(Op::Read),
        ((0..KEYS), any::<u8>()).prop_map(|(key, fill)| Op::Update {
            key,
            value: vec![fill; PAYLOAD]
        }),
        ((0..KEYS), (-50i64..50)).prop_map(|(key, delta)| Op::Rmw { key, delta }),
    ];
    proptest::collection::vec(proptest::collection::vec(op, 1..=8), 1..24)
}

/// Run `txns` through exclusive 2PL over `DirectIo` on `groups` mirror
/// groups of `replication` members and through a plain array; reads,
/// the bytes on every replica and every lock word must agree with the
/// array afterwards.
fn two_doorbells_match_the_model(groups: usize, replication: usize, txns: &[Vec<Op>]) {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: groups * replication,
            capacity_per_node: 1 << 20,
            replication,
            mem_cores: 1,
            weak_cpu_factor: 4.0,
        },
    );
    let t = RecordTable::create(&layer, KEYS, PAYLOAD, 1).unwrap();
    let ep = fabric.endpoint();
    let ctx = TxnCtx {
        ep: &ep,
        table: &t,
        io: &DirectIo,
        worker_tag: 1,
    };
    let cc = TwoPhaseLocking::exclusive();
    let mut model = vec![[0u8; PAYLOAD]; KEYS as usize];
    for ops in txns {
        let before = ep.stats();
        let out = cc.execute(&ctx, ops).expect("a lone session never aborts");
        let mut expected = Vec::new();
        for op in ops {
            let record = &mut model[op.key() as usize];
            match op {
                Op::Read(key) => expected.push((*key, record.to_vec())),
                Op::Update { value, .. } => record.copy_from_slice(value),
                Op::Rmw { key, delta } => {
                    expected.push((*key, record.to_vec()));
                    let counter = i64::from_le_bytes(record[0..8].try_into().unwrap());
                    record[0..8].copy_from_slice(&(counter + delta).to_le_bytes());
                }
            }
        }
        assert_eq!(out.reads, expected, "{ops:?}");
        let after = ep.stats();
        assert_eq!(after.wire_round_trips() - before.wire_round_trips(), 2, "{ops:?}");
    }
    for key in 0..KEYS {
        let (lock, payload) = (t.lock_addr(key), t.payload_addr(key, 0));
        let group = layer.group_index_of(lock.node()).expect("table group");
        for member in layer.group_members(group) {
            let mut bytes = [0u8; PAYLOAD];
            member.region().read(payload.offset(), &mut bytes).unwrap();
            assert_eq!(bytes, model[key as usize], "key {key} on node {}", member.id());
            let word = member.region().read_u64(lock.offset()).unwrap();
            assert_eq!(word, 0, "lock of key {key} on node {}", member.id());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tpl_two_doorbells_match_a_sequential_model(
        groups in 1usize..=4,
        replication in 1usize..=2,
        txns in op_lists(),
    ) {
        two_doorbells_match_the_model(groups, replication, &txns);
    }

    #[test]
    fn tpl_exclusive_serial_equivalence(seq in txns()) {
        serial_equivalence(|_| Box::new(TwoPhaseLocking::exclusive()), 1, &seq);
    }

    #[test]
    fn tpl_shared_serial_equivalence(seq in txns()) {
        serial_equivalence(|_| Box::new(TwoPhaseLocking::shared_exclusive()), 1, &seq);
    }

    #[test]
    fn occ_serial_equivalence(seq in txns()) {
        serial_equivalence(|_| Box::new(Occ::new()), 1, &seq);
    }

    #[test]
    fn tso_serial_equivalence(seq in txns()) {
        serial_equivalence(
            |layer| Box::new(Tso::new(Arc::new(FaaOracle::new(layer).unwrap()))),
            1,
            &seq,
        );
    }

    #[test]
    fn mvcc_serial_equivalence(seq in txns()) {
        serial_equivalence(
            |layer| Box::new(Mvcc::new(Arc::new(FaaOracle::new(layer).unwrap()))),
            4,
            &seq,
        );
    }
}
