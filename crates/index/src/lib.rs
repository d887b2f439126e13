//! # index — RDMA-conscious index structures for DSM-DB
//!
//! §6 of the paper: "Index design needs to be hardware conscious … In
//! DSM-DB, compute nodes access remote memory, i.e., the DSM layer, via
//! RDMA. The intrinsic properties of RDMA networking need to be at the
//! core of index design." The three designs the section discusses are all
//! here, each instrumented for the §6 metrics (round trips per op, local
//! memory footprint):
//!
//! * [`btree::RemoteBTree`] — a Sherman-style \[62\] B+tree: one-sided
//!   verbs only, RDMA exclusive locks + version/fence validation for
//!   writes, and an optional **local cache of internal nodes** ("Sherman
//!   caches all internal nodes into local memory, which consumes more
//!   memory"). A warm search is one round trip — the leaf READ, reached
//!   through the cached root address and a level word that tells a cached
//!   node its children are leaves — and an insert is two doorbells. A
//!   leaf split is part of the insert that found the leaf full: six round
//!   trips in all, the leaf lock kept throughout. With the cache off it
//!   doubles as the naive remote B+tree baseline of experiment **C9**.
//! * [`hash::RaceHash`] — a RACE-style \[76\] extendible hash: a lookup
//!   is one round trip (bucket READ and seqlock re-read in one doorbell),
//!   inserts with slot-CAS, lock-free on the fast path, directory cached
//!   locally as one shared image and refreshed by version. A bucket split
//!   places the key of the put that found the bucket full: six round
//!   trips in all when the directory does not double.
//! * [`lsm::RemoteLsm`] — an LSM over the local/remote hierarchy (§6:
//!   "LSM-trees can hold filters and fence pointers in compute nodes as
//!   they help protect from unnecessary round trips"), with compaction
//!   offloadable to the memory node's weak CPU.
//!
//! [`bloom::BloomFilter`] is the from-scratch filter the LSM keeps in
//! compute-node memory.
//!
//! **The rule the tree and the hash batch by** (DESIGN §5.4): the members
//! of one [`DsmLayer::doorbell`] execute in posting order only on one
//! queue pair, so members whose order matters address the same memory
//! node — a lock word and the image it guards, a bucket and its header,
//! the words of one slot. A publication step that crosses nodes (a new
//! node before the pointer that names it) stays a round trip of its own;
//! a new node that nothing names yet may ride an earlier doorbell.

pub mod bloom;
pub mod btree;
pub mod hash;
pub mod lsm;

pub use bloom::BloomFilter;
pub use btree::RemoteBTree;
pub use hash::RaceHash;
pub use lsm::RemoteLsm;

use dsm::{DsmLayer, DsmResult, GlobalAddr, GlobalWr};
use rdma_sim::Endpoint;

/// The acquire doorbell both structures lock with: CAS the word at `lock`
/// from 0 to `tag`, with the READ of `dst.len()` bytes at `image` — on
/// the same memory node, so it executes after the CAS — riding behind
/// it, and then the WRITE `rider`, if any: a new node that nothing names
/// yet, so it may land whether or not the CAS wins. Returns whether the
/// lock was won; `dst` was then read under it. If the doorbell fails
/// after the CAS won, the lock is given back before the error is
/// returned.
pub(crate) fn lock_and_read(
    layer: &DsmLayer,
    ep: &Endpoint,
    lock: GlobalAddr,
    tag: u64,
    image: GlobalAddr,
    dst: &mut [u8],
    rider: Option<(GlobalAddr, &[u8])>,
) -> DsmResult<bool> {
    // Any value but 0: a CAS that never ran leaves it in place.
    let mut prev = u64::MAX;
    let cas = GlobalWr::Cas { addr: lock, expected: 0, new: tag, prev: &mut prev };
    let read = GlobalWr::Read { addr: image, dst };
    let posted = match rider {
        None => layer.doorbell(ep, &mut [cas, read]),
        Some((addr, src)) => layer.doorbell(ep, &mut [cas, read, GlobalWr::Write { addr, src, unlock: false }]),
    };
    if posted.is_err() && prev == 0 {
        let _ = layer.write_u64(ep, lock, 0);
    }
    posted.map(|()| prev == 0)
}

/// What one call cost on `ep`: (wire round trips, verbs, virtual ns).
#[cfg(test)]
pub(crate) fn cost<T>(ep: &Endpoint, op: impl FnOnce() -> T) -> (u64, u64, u64) {
    let (s0, t0) = (ep.stats(), ep.clock().now_ns());
    op();
    let s1 = ep.stats();
    (
        s1.wire_round_trips() - s0.wire_round_trips(),
        s1.round_trips() - s0.round_trips(),
        ep.clock().now_ns() - t0,
    )
}
