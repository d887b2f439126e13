//! The `index_probe` workload: the `index` crate alone on a two-node
//! `DsmLayer`, one endpoint, one op = one "txn".
//!
//! A `RemoteBTree` (cached internals) and a `RaceHash` are each loaded
//! with [`KEYS`] keys; ops alternate between the two structures, 90 %
//! zipf-0.9 lookups of loaded keys and 10 % inserts of fresh keys. The
//! load is this workload's set-up, which is what makes `setup_s` mean
//! something. [`KEYS`] is small because a RACE load is superlinear on
//! the host (every bucket split re-reads the directory: 16 k keys load
//! in 0.4 s, 50 k in 3.8 s, 100 k in 21 s here) and every repetition
//! loads afresh.

use std::sync::Arc;
use std::time::Instant;

use dsm::{DsmConfig, DsmLayer};
use dsmdb::SessionStats;
use index::{RaceHash, RemoteBTree};
use rand::Rng;
use rdma_sim::{Endpoint, Fabric, NetworkProfile};
use workload::zipf::scramble;
use workload::ZipfGenerator;

use crate::driver::{drive, enable_endpoint_planes, IndexCounts, Mode, Plan, Rep, Sut};
use crate::engine::slice_len;
use crate::ops::{slice_rng, StreamHash};

pub const NAME: &str = "index_probe";
/// Keys loaded into each structure before the first op.
pub const KEYS: u64 = 16_384;
/// Loaded and fresh keys are spread over `2 * KEY_SPACE` values.
const KEY_SPACE: u64 = 1 << 20;
/// Stream id mixed into the generator seed.
const STREAM: u64 = 6;
/// Timed ops in a bare repetition, per second of `--seconds`.
const OPS_PER_SECOND: usize = 21_000;
const INSERT_PCT: u32 = 10;
/// Odd multiplier, so `c -> c * STRIDE % KEY_SPACE` is a permutation.
const STRIDE: u64 = 7_368_787;

/// Loaded keys are even, fresh keys odd, both scattered over the same
/// range (and never 0, which RACE reserves), so inserts land between
/// loaded keys everywhere in the tree.
fn loaded_key(i: u64) -> u64 {
    2 * (i * STRIDE % KEY_SPACE) + 2
}

/// The `counter`-th fresh key: distinct for the first [`KEY_SPACE`]
/// inserts per structure (later ones would overwrite, which is harmless).
fn fresh_key(counter: u64) -> u64 {
    2 * (counter * STRIDE % KEY_SPACE) + 1
}

fn value_of(key: u64) -> u64 {
    key * 3 + 1
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdxOp {
    BtreeGet(u64),
    BtreePut(u64),
    RaceGet(u64),
    RacePut(u64),
}

struct IndexSut {
    ep: Endpoint,
    btree: RemoteBTree,
    race: RaceHash,
    ops_done: u64,
    /// Wire RTs and calls per lookup kind, counted in traced mode only
    /// (two extra counter reads per op).
    counts: Option<IndexCounts>,
}

impl Sut for IndexSut {
    fn endpoint(&self) -> &Endpoint {
        &self.ep
    }
    fn stats(&self) -> SessionStats {
        SessionStats {
            commits: self.ops_done,
            ..Default::default()
        }
    }
}

impl IndexSut {
    fn run(&mut self, op: IdxOp) -> bool {
        let rts0 = self.counts.map(|_| self.ep.sample().wire_rts);
        let ok = match op {
            IdxOp::BtreeGet(k) => self
                .btree
                .search(&self.ep, k)
                .is_ok_and(|v| v == Some(value_of(k))),
            IdxOp::RaceGet(k) => self
                .race
                .get(&self.ep, k)
                .is_ok_and(|v| v == Some(value_of(k))),
            IdxOp::BtreePut(k) => self.btree.insert(&self.ep, k, value_of(k)).is_ok(),
            IdxOp::RacePut(k) => self.race.put(&self.ep, k, value_of(k)).is_ok(),
        };
        self.ops_done += 1;
        if let (Some(c), Some(rts0)) = (&mut self.counts, rts0) {
            let rts = self.ep.sample().wire_rts - rts0;
            match op {
                IdxOp::BtreeGet(_) => {
                    c.btree_search_rts += rts;
                    c.btree_searches += 1;
                }
                IdxOp::RaceGet(_) => {
                    c.race_get_rts += rts;
                    c.race_gets += 1;
                }
                _ => {}
            }
        }
        ok
    }
}

/// Slice `idx` of the op sequence; slices are generated in order. Each
/// structure's fresh keys are numbered by how many it has received so far
/// (`inserted` holds every earlier insert), so both structures grow
/// through the same key sequence whatever the seed; the seed decides
/// *when* inserts happen and which keys are looked up.
fn gen_slice(
    seed: u64,
    zipf: &ZipfGenerator,
    idx: usize,
    len: usize,
    inserted: &mut Vec<IdxOp>,
) -> Vec<IdxOp> {
    let mut rng = slice_rng(seed, STREAM, 0, idx);
    let mut into_btree = inserted
        .iter()
        .filter(|op| matches!(op, IdxOp::BtreePut(_)))
        .count() as u64;
    let mut into_race = inserted.len() as u64 - into_btree;
    (0..len)
        .map(|i| {
            let on_btree = (idx * len + i).is_multiple_of(2);
            if rng.gen_range(0..100u32) < INSERT_PCT {
                let op = if on_btree {
                    into_btree += 1;
                    IdxOp::BtreePut(fresh_key(into_btree))
                } else {
                    into_race += 1;
                    IdxOp::RacePut(fresh_key(into_race))
                };
                inserted.push(op);
                op
            } else {
                let key = loaded_key(scramble(zipf.next(&mut rng), KEYS));
                if on_btree {
                    IdxOp::BtreeGet(key)
                } else {
                    IdxOp::RaceGet(key)
                }
            }
        })
        .collect()
}

fn hash_slice(hash: &mut StreamHash, ops: &[IdxOp]) {
    for op in ops {
        let (tag, key) = match *op {
            IdxOp::BtreeGet(k) => (0, k),
            IdxOp::BtreePut(k) => (1, k),
            IdxOp::RaceGet(k) => (2, k),
            IdxOp::RacePut(k) => (3, k),
        };
        hash.word(tag);
        hash.word(key);
    }
}

/// Run one repetition in `mode`.
pub fn run_rep(mode: Mode, seed: u64, seconds: u64) -> Rep {
    let t_setup = Instant::now();
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer: Arc<DsmLayer> = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 2,
            capacity_per_node: 16 << 20,
            ..Default::default()
        },
    );
    let ep = fabric.endpoint();
    let (btree, _) = RemoteBTree::create(&layer, true, 1).expect("tree root fits");
    let (race, _) = RaceHash::create(&layer, 8, 1).expect("directory fits");
    for i in 0..KEYS {
        let k = loaded_key(i);
        btree.insert(&ep, k, value_of(k)).expect("load b+tree");
        race.put(&ep, k, value_of(k)).expect("load race");
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    // 16 bytes of user data (key + value) per entry per structure.
    let alloc_bytes_per_user_byte = layer.pool_stats().allocated as f64 / (2 * KEYS * 16) as f64;

    // The endpoint that loaded also runs the ops: a fresh one would start
    // at virtual time 0 and its first CAS would queue behind everything
    // the loader's clock already reserved on the atomic unit (a 0.4 s
    // virtual stall). The load is not in the counts, which are deltas
    // from the end of the warm-up.
    let mut sut = IndexSut {
        ep,
        btree,
        race,
        ops_done: 0,
        counts: (mode == Mode::Traced).then(IndexCounts::default),
    };
    if mode != Mode::Bare {
        enable_endpoint_planes(&sut.ep, 1);
    }
    let len = slice_len(OPS_PER_SECOND, seconds);
    let zipf = ZipfGenerator::new(KEYS, 0.9);
    let mut inserted = Vec::new();
    let mut hash = StreamHash::default();
    let mut gen_ns = 0u64;
    let mut write_ops = 0u64;
    let stale0 = sut.btree.stats();
    let plan = Plan {
        mode,
        slice_len: len,
        epoch: Instant::now(),
        worker: 1,
    };
    let run = drive(
        &mut sut,
        &plan,
        |_, idx| {
            let t = Instant::now();
            let before = inserted.len();
            let ops = gen_slice(seed, &zipf, idx, len, &mut inserted);
            gen_ns += t.elapsed().as_nanos() as u64;
            hash_slice(&mut hash, &ops);
            if idx >= 1 {
                write_ops += (inserted.len() - before) as u64;
            }
            ops
        },
        |sut, ops: &Vec<IdxOp>, i| sut.run(ops[i]),
    );
    let mut rep = Rep::merge(mode, setup_s, vec![run]);
    rep.hash = hash;
    rep.write_ops = write_ops;
    rep.gen_ns_per_txn = gen_ns as f64 / rep.attempted as f64;
    rep.write_fanout = 1.0;
    rep.alloc_bytes_per_user_byte = alloc_bytes_per_user_byte;
    let stats = sut.btree.stats();
    rep.index = sut.counts.map(|c| IndexCounts {
        btree_stale_retries: stats.stale_retries - stale0.stale_retries,
        btree_ops: (stats.searches + stats.inserts) - (stale0.searches + stale0.inserts),
        ..c
    });
    // Every key inserted during the run must now be found with its value.
    let check_ep = fabric.endpoint();
    for op in inserted {
        let found = match op {
            IdxOp::BtreePut(k) => {
                sut.btree.search(&check_ep, k).ok().flatten() == Some(value_of(k))
            }
            IdxOp::RacePut(k) => sut.race.get(&check_ep, k).ok().flatten() == Some(value_of(k)),
            _ => true,
        };
        rep.mismatches += u64::from(!found);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_keys_never_repeat_or_collide_with_loaded_keys() {
        let mut seen = std::collections::HashSet::new();
        for c in 0..KEY_SPACE {
            let k = fresh_key(c);
            assert!(k % 2 == 1, "fresh keys are odd");
            assert!(seen.insert(k), "fresh key {k} repeats at {c}");
        }
        for i in 0..KEYS {
            let k = loaded_key(i);
            assert!(
                k != 0 && k.is_multiple_of(2),
                "loaded keys are even and non-zero"
            );
            assert!(seen.insert(k), "loaded key {k} repeats at {i}");
        }
    }

    #[test]
    fn same_seed_same_ops() {
        let zipf = ZipfGenerator::new(KEYS, 0.9);
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        assert_eq!(
            gen_slice(42, &zipf, 3, 500, &mut a),
            gen_slice(42, &zipf, 3, 500, &mut b)
        );
        assert_ne!(
            gen_slice(42, &zipf, 3, 500, &mut a),
            gen_slice(7, &zipf, 3, 500, &mut c)
        );
        assert!(
            (25..=80).contains(&b.len()),
            "{} inserts in 500 ops",
            b.len()
        );
    }
}
