//! Two-phase locking over RDMA locks.
//!
//! The growing phase takes every lock before the transaction executes,
//! the shrinking phase releases everything after it. Two lock
//! configurations per §4 Challenge 6:
//!
//! * `shared_locks = false` — the 1-RT exclusive spinlock for *every*
//!   access, reads included. Cheap locks, zero read-read concurrency —
//!   and the whole transaction is two doorbells, whatever sits in front
//!   of the payloads. **Acquire:** one CAS per distinct key, each with
//!   the READs the [`PayloadIo`](super::PayloadIo) wants right behind it
//!   (no cache: the key's payload; a coherent cache: the sharer word
//!   beside the lock word, with the payload if the key is not resident).
//!   **Execute** on transaction-local copies, ops in program order.
//!   **Release:** every write the io hands back — payloads, a changed
//!   sharer word — then every unlock. A set no op writes is first
//!   offered to the io's lock-free read (a coherent cache in invalidate
//!   mode serves it from resident pages: no lock, no verb).
//! * `shared_locks = true` — the 2-RT shared-exclusive lock: readers
//!   admit concurrently, writers drain. More round trips per lock, more
//!   concurrency, taken and released key by key in sorted order. ("It
//!   remains open if the allowed extra concurrency can offset the
//!   performance overhead of the advanced locks" — experiment C2 answers
//!   this for our fabric.)
//!
//! Neither waits: a lock still busy after its bounded retries aborts the
//! transaction, so holding part of a set while retrying the rest cannot
//! deadlock.
//!
//! Note: the shared-exclusive lock stores holder metadata in the record's
//! `rts` word, so this configuration must not be mixed with TSO/MVCC on
//! the same table.

use dsm::GlobalAddr;
use rdma_sim::Phase;

use super::{
    apply_delta, key_sets, key_uses, ConcurrencyControl, KeyUse, Op, TxnCtx, TxnError, TxnOutput,
};
use crate::locks::{ExclusiveLock, LockWord, SharedExclusiveLock};

/// 2PL with no-wait bounded-retry acquisition.
pub struct TwoPhaseLocking {
    /// Use shared-exclusive locks for read-only keys.
    pub shared_locks: bool,
    /// CAS retries before declaring a lock busy (aborting).
    pub max_retries: u32,
}

impl TwoPhaseLocking {
    /// Exclusive-only 2PL (the 1-RT lock everywhere).
    pub fn exclusive() -> Self {
        Self {
            shared_locks: false,
            max_retries: 3,
        }
    }

    /// Shared-exclusive 2PL (readers share).
    pub fn shared_exclusive() -> Self {
        Self {
            shared_locks: true,
            max_retries: 3,
        }
    }

    /// A transaction under exclusive locks: acquire doorbell, execute on
    /// the transaction's own copies, release doorbell. What rides the two
    /// doorbells beside the lock words is the [`PayloadIo`]'s to say, and
    /// whether a read-only set needs them at all.
    fn execute_exclusive(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let (ep, table, io) = (ctx.ep, ctx.table, ctx.io);
        let layer = table.layer();
        let mut uses = key_uses(ops);
        let mut words: Vec<LockWord> =
            uses.iter().map(|u| LockWord::new(table.lock_addr(u.key))).collect();
        // One chunk per key, in key order: the io's header bytes, then the
        // transaction's own copy of the payload.
        let (hdr, psize) = (io.header_len(), table.payload_size());
        let mut buf = vec![0u8; uses.len() * (hdr + psize)];
        if uses.iter().all(|u| !u.written) && io.read_unlocked(ep, table, &uses, &mut buf) {
            return Ok(run_on_copies(ops, &uses, &mut buf, hdr, psize));
        }

        let grown = {
            let mut riders = Vec::new();
            io.ride(table, &mut uses, &mut buf, &mut riders);
            let _span = ep.span(Phase::LockAcquire);
            ExclusiveLock::acquire_set(layer, ep, &mut words, &mut riders, ctx.worker_tag, self.max_retries)
        };

        // Execute (only if fully locked).
        let mut out = TxnOutput::default();
        let mut failed = grown.err().map(TxnError::from);
        if failed.is_none() {
            failed = io.admit(ep, table, &mut uses, &mut buf).err().map(TxnError::from);
        }
        if failed.is_none() {
            out = run_on_copies(ops, &uses, &mut buf, hdr, psize);
        }

        // Release: always unlock what we hold; write back only a txn
        // that ran to its end.
        let mut writes: Vec<(GlobalAddr, &[u8])> = Vec::new();
        let ran = failed.is_none();
        if ran {
            failed = io.retire(ep, table, &uses, &mut buf, &mut writes).err().map(TxnError::from);
            if failed.is_some() {
                writes.clear();
            }
        }
        // A doorbell is one span, riders included: the doorbell that
        // carries a payload home is write-back, any other is lock work.
        let phase = if !writes.is_empty() && uses.iter().any(|u| u.written) {
            Phase::Writeback
        } else {
            Phase::LockAcquire
        };
        let released = {
            let _span = ep.span(phase);
            ExclusiveLock::release_set(layer, ep, &writes, &mut words, ctx.worker_tag)
        };
        if ran {
            io.settle(ep, table, &uses, failed.is_none() && released.is_ok());
        }
        match failed {
            Some(e) => Err(e),
            None => released.map(|()| out).map_err(TxnError::from),
        }
    }

    /// A transaction under shared-exclusive locks, key by key.
    fn execute_shared(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let (all_keys, write_keys) = key_sets(ops);
        let layer = ctx.table.layer();
        // `(key, taken for writing)` of every lock held.
        let mut held: Vec<(u64, bool)> = Vec::with_capacity(all_keys.len());

        // Growing phase, sorted order.
        let mut failed = None;
        let grow_span = ctx.ep.span(Phase::LockAcquire);
        for &key in &all_keys {
            let lock = ctx.table.lock_addr(key);
            let is_write = write_keys.binary_search(&key).is_ok();
            let result = if is_write {
                SharedExclusiveLock::acquire_exclusive(layer, ctx.ep, lock, self.max_retries)
            } else {
                SharedExclusiveLock::acquire_shared(layer, ctx.ep, lock, self.max_retries)
            };
            match result {
                Ok(()) => held.push((key, is_write)),
                Err(e) => {
                    failed = Some(TxnError::from(e));
                    break;
                }
            }
        }
        drop(grow_span);

        // Execute (only if fully locked).
        let mut out = TxnOutput::default();
        if failed.is_none() {
            failed = run_ops(ctx, ops, &mut out).err();
        }

        // Shrinking phase: attempt every release — one that fails must
        // not leave the rest held — and report the first failure.
        let _shrink_span = ctx.ep.span(Phase::LockAcquire);
        for (key, is_write) in held.into_iter().rev() {
            let lock = ctx.table.lock_addr(key);
            // Releases must eventually succeed: retry hard.
            let released = if is_write {
                SharedExclusiveLock::release_exclusive(layer, ctx.ep, lock, 10_000)
            } else {
                SharedExclusiveLock::release_shared(layer, ctx.ep, lock, 10_000)
            };
            if let Err(e) = released {
                failed.get_or_insert(e.into());
            }
        }

        match failed {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }
}

/// Run `ops` in program order on the transaction's copies in `buf`, one
/// chunk of `hdr` io bytes and `psize` payload bytes per key of `uses`.
fn run_on_copies(ops: &[Op], uses: &[KeyUse], buf: &mut [u8], hdr: usize, psize: usize) -> TxnOutput {
    let mut out = TxnOutput::default();
    for op in ops {
        let slot = uses
            .binary_search_by_key(&op.key(), |u| u.key)
            .expect("every op's key is in `uses`");
        let copy = &mut buf[slot * (hdr + psize) + hdr..][..psize];
        match op {
            Op::Read(key) => out.reads.push((*key, copy.to_vec())),
            Op::Update { value, .. } => copy[..value.len()].copy_from_slice(value),
            Op::Rmw { key, delta } => {
                out.reads.push((*key, copy.to_vec()));
                apply_delta(copy, *delta);
            }
        }
    }
    out
}

/// Run `ops` in program order, each payload access through `ctx.io`.
fn run_ops(ctx: &TxnCtx<'_>, ops: &[Op], out: &mut TxnOutput) -> Result<(), TxnError> {
    let mut buf = vec![0u8; ctx.table.payload_size()];
    for op in ops {
        match op {
            Op::Read(key) => {
                let _span = ctx.ep.span(Phase::PageFetch);
                ctx.io.read_payload(ctx.ep, ctx.table, *key, 0, &mut buf)?;
                out.reads.push((*key, buf.clone()));
            }
            Op::Update { key, value } => {
                let _span = ctx.ep.span(Phase::Writeback);
                ctx.io.write_payload(ctx.ep, ctx.table, *key, 0, value)?;
            }
            Op::Rmw { key, delta } => {
                {
                    let _span = ctx.ep.span(Phase::PageFetch);
                    ctx.io.read_payload(ctx.ep, ctx.table, *key, 0, &mut buf)?;
                }
                out.reads.push((*key, buf.clone()));
                apply_delta(&mut buf, *delta);
                let _span = ctx.ep.span(Phase::Writeback);
                ctx.io.write_payload(ctx.ep, ctx.table, *key, 0, &buf)?;
            }
        }
    }
    Ok(())
}

impl ConcurrencyControl for TwoPhaseLocking {
    fn name(&self) -> &'static str {
        if self.shared_locks {
            "2pl-shared"
        } else {
            "2pl-excl"
        }
    }

    fn execute(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        if self.shared_locks {
            self.execute_shared(ctx, ops)
        } else {
            self.execute_exclusive(ctx, ops)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use rdma_sim::FaultPlan;

    use super::*;
    use crate::protocols::testutil::{bank_invariant_holds, table, timed_table, CrashAfter};
    use crate::protocols::DirectIo;
    use crate::table::RecordTable;

    fn rmw_each(keys: &[u64]) -> Vec<Op> {
        keys.iter().map(|&key| Op::Rmw { key, delta: 1 }).collect()
    }

    /// The lock word and the leading counter of `key`, read off the
    /// primary's memory (no verb, no fault plan).
    fn word_and_counter(t: &RecordTable, key: u64) -> (u64, i64) {
        let fabric = t.layer().fabric();
        let (lock, payload) = (t.lock_addr(key), t.payload_addr(key, 0));
        let region = fabric.region(lock.node()).unwrap();
        let counter = region.read_u64(payload.offset()).unwrap() as i64;
        (region.read_u64(lock.offset()).unwrap(), counter)
    }

    #[test]
    fn a_busy_word_climbs_the_ladder_alone_then_one_doorbell_frees_the_rest() {
        let t = timed_table(1);
        let layer = t.layer();
        let holder = layer.fabric().endpoint();
        ExclusiveLock::acquire(layer, &holder, t.lock_addr(2), 42, 0).unwrap();
        let ep = layer.fabric().endpoint();
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 7 };
        let cc = TwoPhaseLocking::exclusive();
        let err = cc.execute(&ctx, &rmw_each(&[0, 1, 2, 3])).unwrap_err();
        assert_eq!(err, TxnError::Aborted("lock-busy"));
        let s = ep.stats();
        // Word 2 lost in the acquire doorbell and on every rung.
        assert_eq!(s.cas_failures, cc.max_retries as u64 + 1);
        assert_eq!(s.cas, 4 + cc.max_retries as u64);
        assert_eq!(s.reads, s.cas, "each CAS brought its payload READ");
        // Acquire doorbell, one doorbell per rung, one release doorbell
        // of three unlocks and no write-back.
        assert_eq!(s.wire_round_trips(), 1 + cc.max_retries as u64 + 1);
        assert_eq!(s.writes, 3);
        for key in 0..4 {
            let held_by = if key == 2 { 42 } else { 0 };
            assert_eq!(word_and_counter(&t, key), (held_by, 0), "key {key}");
        }
        // Today's ladder, unchanged: 100 + 200 + 400 ns of backoff, every
        // wait-for edge naming the holder.
        let seen = ep.contention_snapshot();
        assert_eq!(seen.wait_ns_total, 700);
        assert!(!seen.edges.is_empty());
        assert!(seen.edges.iter().all(|e| (e.waiter, e.holder) == (7, 42)));
    }

    #[test]
    fn a_transient_on_either_doorbell_retries_the_whole_group() {
        let cc = TwoPhaseLocking::exclusive();
        // Acquire: group 1's primary refuses its first verb. Had the
        // first attempt taken word 0, the second would lose it to itself.
        let t = timed_table(1);
        let second = t.lock_addr(1).node();
        t.layer().fabric().install_fault_plan(FaultPlan::new(1).transient_first_n(second, 1));
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 7 };
        cc.execute(&ctx, &rmw_each(&[0, 1])).unwrap();
        let s = ep.stats();
        assert_eq!((s.cas, s.cas_failures, s.writes), (2, 0, 4));
        assert_eq!((word_and_counter(&t, 0), word_and_counter(&t, 1)), ((0, 1), (0, 1)));

        // Release: the acquire doorbell is pre-flighted at t = 0, the
        // release doorbell inside the partition, its retry after it.
        let t = timed_table(1);
        t.layer()
            .fabric()
            .install_fault_plan(FaultPlan::new(1).partition(second, 1, 12_000));
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 7 };
        cc.execute(&ctx, &rmw_each(&[0, 1])).unwrap();
        assert!(ep.clock().now_ns() > 12_000, "the release waited the partition out");
        let s = ep.stats();
        assert_eq!((s.cas, s.writes), (2, 4), "nothing was written or unlocked twice");
        assert_eq!((word_and_counter(&t, 0), word_and_counter(&t, 1)), ((0, 1), (0, 1)));
    }

    #[test]
    fn a_crash_between_the_doorbells_leaves_no_word_held_on_a_reachable_node() {
        let t = timed_table(1);
        let dead = t.lock_addr(1).node();
        // Group 1 disappears right after the acquire doorbell left.
        t.layer().fabric().install_fault_plan(FaultPlan::new(1).crash(dead, 1, u64::MAX));
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 7 };
        let err = TwoPhaseLocking::exclusive()
            .execute(&ctx, &rmw_each(&[0, 1, 2, 3]))
            .unwrap_err();
        assert_eq!(err, TxnError::NodeUnavailable { node: dead });
        // The write-back could not be posted, so nothing of it landed; the
        // words on the live group came free one by one.
        for key in [0, 2] {
            assert_eq!(word_and_counter(&t, key), (0, 0), "key {key}");
        }
        for key in [1, 3] {
            assert_eq!(word_and_counter(&t, key).0, 7, "key {key} is beyond reach");
        }
    }

    #[test]
    fn a_failed_unlock_does_not_leak_the_other_locks() {
        for cc in [TwoPhaseLocking::exclusive(), TwoPhaseLocking::shared_exclusive()] {
            let t = timed_table(1);
            let dead = t.lock_addr(1).node();
            let ep = t.layer().fabric().endpoint();
                // Group 1 dies under the last payload call, with every lock
            // held: its unlocks fail, group 0's must not be skipped.
            let io = CrashAfter { node: dead, calls: AtomicUsize::new(4) };
            let ctx = TxnCtx { ep: &ep, table: &t, io: &io, worker_tag: 7 };
            let ops = [Op::Read(0), Op::Read(1), Op::Read(2), Op::Read(3)];
            let err = cc.execute(&ctx, &ops).unwrap_err();
            assert_eq!(err, TxnError::NodeUnavailable { node: dead }, "{}", cc.name());
            for key in [0, 2] {
                // Lock word (exclusive) or latch and holder metadata
                // (shared-exclusive): all clear.
                let slot = t.slot_addr(key);
                let region = t.layer().fabric().region(slot.node()).unwrap();
                let words = [0, 8].map(|off| region.read_u64(slot.offset() + off).unwrap());
                assert_eq!(words, [0, 0], "{}: key {key} leaked", cc.name());
            }
        }
    }

    #[test]
    fn exclusive_2pl_preserves_bank_invariant() {
        let t = table(16, 16, 1);
        bank_invariant_holds(&TwoPhaseLocking::exclusive(), &t, 4, 300);
    }

    #[test]
    fn shared_exclusive_2pl_preserves_bank_invariant() {
        let t = table(16, 16, 1);
        bank_invariant_holds(&TwoPhaseLocking::shared_exclusive(), &t, 4, 200);
    }

    #[test]
    fn read_sees_committed_update() {
        let t = table(8, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 1,
        };
        let cc = TwoPhaseLocking::exclusive();
        let mut val = vec![0u8; 16];
        val[0..8].copy_from_slice(&99i64.to_le_bytes());
        cc.execute(&ctx, &[Op::Update { key: 3, value: val.clone() }])
            .unwrap();
        let out = cc.execute(&ctx, &[Op::Read(3)]).unwrap();
        assert_eq!(out.reads[0].1, val);
    }

    #[test]
    fn rmw_returns_pre_image() {
        let t = table(8, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 1,
        };
        let cc = TwoPhaseLocking::exclusive();
        cc.execute(&ctx, &[Op::Rmw { key: 0, delta: 10 }]).unwrap();
        let out = cc.execute(&ctx, &[Op::Rmw { key: 0, delta: 5 }]).unwrap();
        assert_eq!(
            i64::from_le_bytes(out.reads[0].1[0..8].try_into().unwrap()),
            10,
            "rmw returns the pre-modification value"
        );
    }

    #[test]
    fn conflicting_writer_aborts_not_blocks() {
        let t = table(4, 16, 1);
        let ep1 = t.layer().fabric().endpoint();
        let layer = t.layer();
        // Manually hold key 2's lock.
        ExclusiveLock::acquire(layer, &ep1, t.lock_addr(2), 42, 0).unwrap();
        let ep2 = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep2,
            table: &t,
            io: &DirectIo,
            worker_tag: 7,
        };
        let cc = TwoPhaseLocking::exclusive();
        let err = cc
            .execute(&ctx, &[Op::Rmw { key: 2, delta: 1 }])
            .unwrap_err();
        assert_eq!(err, TxnError::Aborted("lock-busy"));
        // Locks on other keys must have been released: key 2 still held
        // by us, everything else free.
        assert_eq!(layer.read_u64(&ep1, t.lock_addr(2)).unwrap(), 42);
        assert_eq!(layer.read_u64(&ep1, t.lock_addr(0)).unwrap(), 0);
    }

    #[test]
    fn duplicate_keys_in_txn_lock_once() {
        let t = table(4, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 1,
        };
        let cc = TwoPhaseLocking::exclusive();
        // Same key twice: would self-deadlock if locked twice.
        let out = cc
            .execute(
                &ctx,
                &[Op::Rmw { key: 1, delta: 2 }, Op::Rmw { key: 1, delta: 3 }],
            )
            .unwrap();
        assert_eq!(out.reads.len(), 2);
        let read_back = cc.execute(&ctx, &[Op::Read(1)]).unwrap();
        assert_eq!(
            i64::from_le_bytes(read_back.reads[0].1[0..8].try_into().unwrap()),
            5
        );
    }
}
