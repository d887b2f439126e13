//! Property-based tests for the DSM layer and the erasure codec.

use std::sync::Arc;

use dsm::{DsmConfig, DsmLayer, ErasureConfig, GlobalAddr};
use proptest::prelude::*;
use rdma_sim::{Fabric, NetworkProfile};

fn layer(nodes: usize, replication: usize) -> Arc<DsmLayer> {
    let fabric = Fabric::new(NetworkProfile::zero());
    DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: nodes,
            capacity_per_node: 1 << 20,
            replication,
            mem_cores: 1,
        },
    )
}

proptest! {
    /// Reed–Solomon: any loss pattern of <= m shards decodes to the
    /// original for arbitrary (k, m) and data.
    #[test]
    fn erasure_decodes_any_recoverable_loss(
        k in 2usize..6,
        m in 1usize..4,
        seed in any::<u64>(),
        len_units in 1usize..16,
    ) {
        let cfg = ErasureConfig { data_shards: k, parity_shards: m };
        // Deterministic pseudo-random data of a length divisible by k.
        let len = len_units * k * 8;
        let mut x = seed | 1;
        let data: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let shards = dsm::erasure::encode(cfg, &data);
        prop_assert_eq!(shards.len(), k + m);
        // Knock out up to m shards chosen by the seed.
        let mut present: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        let losses = (seed as usize % (m + 1)).min(m);
        let start = seed as usize % (k + m);
        for j in 0..losses {
            present[(start + j * 2 + j) % (k + m)] = None;
        }
        // Deduplicate: ensure we really lost exactly `losses` (collisions
        // in the stride just mean fewer losses, still recoverable).
        prop_assert_eq!(dsm::erasure::decode(cfg, &present), Some(data));
    }

    /// Pool allocations are disjoint and survive write/read roundtrips
    /// under arbitrary size sequences.
    #[test]
    fn dsm_allocations_are_disjoint(sizes in proptest::collection::vec(1u64..2_048, 1..40)) {
        let l = layer(3, 1);
        let ep = l.fabric().endpoint();
        let mut spans: Vec<(GlobalAddr, u64)> = Vec::new();
        for (i, &sz) in sizes.iter().enumerate() {
            let addr = l.alloc(sz).unwrap();
            // Tag the first byte of each allocation distinctly.
            l.write(&ep, addr, &[i as u8]).unwrap();
            for &(other, other_sz) in &spans {
                if other.node() == addr.node() {
                    let a = addr.offset()..addr.offset() + sz;
                    let b = other.offset()..other.offset() + other_sz;
                    prop_assert!(a.end <= b.start || b.end <= a.start, "overlap");
                }
            }
            spans.push((addr, sz));
        }
        // Tags intact (no clobbering across allocations).
        for (i, &(addr, _)) in spans.iter().enumerate() {
            let mut b = [0u8; 1];
            l.read(&ep, addr, &mut b).unwrap();
            prop_assert_eq!(b[0], i as u8);
        }
    }

    /// Mirrored writes keep all replicas bit-identical for arbitrary
    /// write sequences.
    #[test]
    fn mirrors_stay_identical(
        writes in proptest::collection::vec((0u64..512, any::<u8>()), 1..60)
    ) {
        let l = layer(3, 3);
        let ep = l.fabric().endpoint();
        let base = l.alloc(1_024).unwrap();
        for &(off, val) in &writes {
            l.write(&ep, base.offset_by(off), &[val]).unwrap();
        }
        let mut images = Vec::new();
        for m in l.group_members(0) {
            let mut img = vec![0u8; 1_024];
            m.region().read(base.offset(), &mut img).unwrap();
            images.push(img);
        }
        prop_assert_eq!(&images[0], &images[1]);
        prop_assert_eq!(&images[0], &images[2]);
    }

    /// GlobalAddr pack/unpack is lossless over its whole domain.
    #[test]
    fn global_addr_roundtrip(node in 0u16..u16::MAX, offset in 0u64..(1u64 << 48)) {
        let a = GlobalAddr::new(node, offset);
        prop_assert_eq!(a.node(), node);
        prop_assert_eq!(a.offset(), offset);
        prop_assert_eq!(GlobalAddr::from_raw(a.to_raw()), a);
    }
}
