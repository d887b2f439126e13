//! Property-based tests: each index vs a reference `HashMap`/`BTreeMap`.

use std::collections::BTreeMap;
use std::sync::Arc;

use dsm::{DsmConfig, DsmLayer};
use index::{BloomFilter, RaceHash, RemoteBTree, RemoteLsm};
use proptest::prelude::*;
use rdma_sim::{Fabric, NetworkProfile};

fn layer() -> Arc<DsmLayer> {
    let fabric = Fabric::new(NetworkProfile::zero());
    let l = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 2,
            capacity_per_node: 8 << 20,
            replication: 1,
            mem_cores: 1,
        },
    );
    RemoteLsm::register_offload(&l);
    l
}

#[derive(Debug, Clone)]
enum IdxOp {
    Put(u64, u64),
    Get(u64),
    Del(u64),
}

fn ops() -> impl Strategy<Value = Vec<IdxOp>> {
    proptest::collection::vec(
        prop_oneof![
            ((1u64..200), any::<u64>()).prop_map(|(k, v)| IdxOp::Put(k, v)),
            (1u64..200).prop_map(IdxOp::Get),
            (1u64..200).prop_map(IdxOp::Del),
        ],
        1..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The remote B+tree behaves exactly like a BTreeMap under arbitrary
    /// put/get/delete interleavings (splits included).
    #[test]
    fn btree_matches_reference(ops in ops(), cached in any::<bool>()) {
        let l = layer();
        let (t, _) = RemoteBTree::create(&l, cached, 1).unwrap();
        let ep = l.fabric().endpoint();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                IdxOp::Put(k, v) => {
                    t.insert(&ep, k, v).unwrap();
                    model.insert(k, v);
                }
                IdxOp::Get(k) => {
                    prop_assert_eq!(t.search(&ep, k).unwrap(), model.get(&k).copied());
                }
                IdxOp::Del(k) => {
                    prop_assert_eq!(t.remove(&ep, k).unwrap(), model.remove(&k).is_some());
                }
            }
        }
        // Scan agreement over the whole range.
        let scanned = t.scan(&ep, 0, 500).unwrap();
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(scanned, expected);
    }

    /// The RACE hash matches the reference map (splits included).
    #[test]
    fn race_hash_matches_reference(ops in ops()) {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 1, 1).unwrap();
        let ep = l.fabric().endpoint();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                IdxOp::Put(k, v) => {
                    h.put(&ep, k, v).unwrap();
                    model.insert(k, v);
                }
                IdxOp::Get(k) => {
                    prop_assert_eq!(h.get(&ep, k).unwrap(), model.get(&k).copied());
                }
                IdxOp::Del(k) => {
                    prop_assert_eq!(h.delete(&ep, k).unwrap(), model.remove(&k).is_some());
                }
            }
        }
    }

    /// The LSM matches the reference for put/get (no deletes in its API),
    /// across flush and local compaction boundaries.
    #[test]
    fn lsm_matches_reference(
        puts in proptest::collection::vec(((1u64..200), any::<u64>()), 1..120),
        memtable_limit in 4usize..32,
    ) {
        let l = layer();
        let mut t = RemoteLsm::new(&l, 0, memtable_limit);
        let ep = l.fabric().endpoint();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &(k, v) in &puts {
            t.put(&ep, k, v).unwrap();
            model.insert(k, v);
        }
        for (&k, &v) in &model {
            prop_assert_eq!(t.get(&ep, k).unwrap(), Some(v), "pre-compaction {}", k);
        }
        t.flush(&ep).unwrap();
        t.compact_local(&ep).unwrap();
        for (&k, &v) in &model {
            prop_assert_eq!(t.get(&ep, k).unwrap(), Some(v), "post-compaction {}", k);
        }
        prop_assert_eq!(t.get(&ep, 9_999).unwrap(), None);
    }

    /// Bloom filters never produce false negatives.
    #[test]
    fn bloom_no_false_negatives(keys in proptest::collection::vec(any::<u64>(), 1..300)) {
        let mut f = BloomFilter::new(keys.len(), 10);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            prop_assert!(f.contains(k));
        }
    }
}
