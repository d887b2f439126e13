//! Lease-based two-phase locking: 2PL that survives owner crashes.
//!
//! Classic RDMA 2PL has a fatal failure mode on disaggregated memory:
//! the lock words live on memory nodes, so when a compute session dies
//! mid-transaction its locks stay set forever and every future acquirer
//! aborts until an operator intervenes. [`LeasedTpl`] fixes this with
//! [`LeaseLock`]s (owner | epoch | lease-expiry in the word): a crashed
//! owner's locks become CAS-stealable once the lease runs out on the
//! virtual clock, Lotus-style.
//!
//! Stealability cuts the other way — a *live-but-slow* owner can lose a
//! lock it thinks it holds. Two defenses make that safe:
//!
//! * **Writes are buffered locally** during execution and applied only
//!   at commit, in a *single* doorbell-batched write. Nothing dirty ever
//!   sits in shared memory under a stealable lock.
//! * **Commit revalidates every lock word in one batched read** before
//!   applying the buffered writes. Any word that changed means the lease
//!   was stolen: the transaction aborts having written nothing — the
//!   zombie owner is fenced.
//!
//! The remaining window (steal between revalidation and the commit
//! write) is governed by the standard lease-margin assumption: the lease
//! must exceed the worst-case commit latency, which the engine's
//! defaults guarantee by orders of magnitude.
//!
//! Releases never decide the transaction's outcome. Every held lease is
//! released, and one that cannot be — stolen, wiped by memory-node
//! recovery (lock state is rebuilt, not replicated), or behind a
//! partition that outlasts the retry budget — is left to expire: that
//! is what the lease is for. A committed transaction whose unlock
//! failed has still committed, and must not invite a retry that would
//! apply its writes twice.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dsm::GlobalAddr;
use rdma_sim::{Metric, Phase};

use super::{apply_delta, distinct_keys, ConcurrencyControl, Op, TxnCtx, TxnError, TxnOutput};
use crate::locks::{LeaseLock, LeaseToken};

/// 2PL over [`LeaseLock`]s with buffered writes and commit-time fencing.
pub struct LeasedTpl {
    /// Lease horizon granted per acquired lock, virtual ns.
    pub lease_ns: u64,
    /// Acquisition attempts before aborting with lock-timeout.
    pub max_retries: u32,
    steals: AtomicU64,
}

impl LeasedTpl {
    /// Leased 2PL with the given lease horizon.
    pub fn new(lease_ns: u64) -> Self {
        Self {
            lease_ns,
            max_retries: 3,
            steals: AtomicU64::new(0),
        }
    }

    /// Low 16 bits of the worker tag: the lease owner id.
    fn owner_of(worker_tag: u64) -> u16 {
        (worker_tag & 0xFFFF) as u16
    }

    /// Bits 16..32 of the worker tag: the owner's membership epoch.
    fn epoch_of(worker_tag: u64) -> u16 {
        ((worker_tag >> 16) & 0xFFFF) as u16
    }

    /// Growing phase: a leased exclusive lock on every key of `ops`, in
    /// sorted order, up to the first that fails. Returns what is held —
    /// give it back with [`LeasedTpl::release_all`] whatever happens — and
    /// the failure.
    fn grow(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> (Vec<(u64, LeaseToken)>, Option<TxnError>) {
        let (owner, epoch) = (Self::owner_of(ctx.worker_tag), Self::epoch_of(ctx.worker_tag));
        debug_assert!(owner != 0, "worker tag low 16 bits must be nonzero");
        let keys = distinct_keys(ops);
        let mut held = Vec::with_capacity(keys.len());
        let _grow = ctx.ep.span(Phase::LockAcquire);
        for key in keys {
            let lock = ctx.table.lock_addr(key);
            match LeaseLock::acquire(ctx.table.layer(), ctx.ep, lock, owner, epoch, self.lease_ns, self.max_retries) {
                Ok(token) => {
                    if token.stole {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        ctx.ep.series_note(Metric::LockSteals, 1);
                    }
                    held.push((key, token));
                }
                Err(e) => return (held, Some(e.into())),
            }
        }
        (held, None)
    }

    /// Execute with locally buffered writes, sorted by key: reads see the
    /// transaction's own pending writes; shared memory stays clean until
    /// commit.
    fn run(ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<(TxnOutput, BTreeMap<u64, Vec<u8>>), TxnError> {
        let mut out = TxnOutput::default();
        let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut buf = vec![0u8; ctx.table.payload_size()];
        for op in ops {
            let key = op.key();
            if let Some(v) = pending.get(&key) {
                buf.copy_from_slice(v);
            } else if !matches!(op, Op::Update { .. }) {
                let _span = ctx.ep.span(Phase::PageFetch);
                ctx.table.read_payload(ctx.ep, key, 0, &mut buf)?;
            }
            match op {
                Op::Read(_) => out.reads.push((key, buf.clone())),
                Op::Update { value, .. } => {
                    pending.insert(key, value.clone());
                }
                Op::Rmw { delta, .. } => {
                    out.reads.push((key, buf.clone()));
                    apply_delta(&mut buf, *delta);
                    pending.insert(key, buf.clone());
                }
            }
        }
        Ok((out, pending))
    }

    /// Commit: revalidate every lock word in one batched read, then apply
    /// all buffered writes in one doorbell. A changed word means the lease
    /// was stolen while we executed — the thief may already be working on
    /// those records; abort writing nothing.
    fn commit(ctx: &TxnCtx<'_>, held: &[(u64, LeaseToken)], pending: &BTreeMap<u64, Vec<u8>>) -> Result<(), TxnError> {
        let layer = ctx.table.layer();
        if !held.is_empty() {
            let mut wordbuf = vec![0u8; 8 * held.len()];
            let mut reqs: Vec<(GlobalAddr, &mut [u8])> = wordbuf
                .chunks_mut(8)
                .zip(held)
                .map(|(chunk, (key, _))| (ctx.table.lock_addr(*key), chunk))
                .collect();
            layer.read_batch(ctx.ep, &mut reqs)?;
            drop(reqs);
            let intact = wordbuf
                .chunks_exact(8)
                .zip(held)
                .all(|(word, (_, token))| u64::from_le_bytes(word.try_into().unwrap()) == token.word);
            if !intact {
                return Err(TxnError::Aborted("lease-stolen"));
            }
        }
        if !pending.is_empty() {
            let _span = ctx.ep.span(Phase::Writeback);
            // A dual-homed key's write lands on both homes, in the same
            // doorbell.
            let reqs: Vec<(GlobalAddr, &[u8])> =
                pending.iter().flat_map(|(&key, v)| ctx.table.payload_writes(key, 0, v)).collect();
            layer.write_batch(ctx.ep, &reqs)?;
        }
        Ok(())
    }

    /// Attempt the release of every held lease. A release that fails
    /// leaves its word to expire with its lease; it neither skips the
    /// others nor reaches the caller.
    fn release_all(&self, ctx: &TxnCtx<'_>, held: &[(u64, LeaseToken)]) {
        let _shrink = ctx.ep.span(Phase::LockAcquire);
        let layer = ctx.table.layer();
        for (key, token) in held.iter().rev() {
            let _ = LeaseLock::release(layer, ctx.ep, ctx.table.lock_addr(*key), *token);
        }
    }
}

impl ConcurrencyControl for LeasedTpl {
    fn name(&self) -> &'static str {
        "2pl-leased"
    }

    fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    fn execute(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let (held, grown) = self.grow(ctx, ops);
        let done = match grown {
            Some(e) => Err(e),
            None => Self::run(ctx, ops).and_then(|(out, pending)| Self::commit(ctx, &held, &pending).map(|()| out)),
        };
        self.release_all(ctx, &held);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testutil::{bank_invariant_holds, table, timed_table};
    use crate::protocols::DirectIo;
    use rdma_sim::{Endpoint, EventKind, FaultPlan};

    const LEASE: u64 = 500_000_000; // 500 virtual ms — never expires in tests

    #[test]
    fn leased_2pl_preserves_bank_invariant() {
        let t = table(16, 16, 1);
        bank_invariant_holds(&LeasedTpl::new(LEASE), &t, 4, 300);
    }

    #[test]
    fn read_sees_own_buffered_write() {
        let t = table(8, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 1,
        };
        let cc = LeasedTpl::new(LEASE);
        let mut val = vec![0u8; 16];
        val[0..8].copy_from_slice(&7i64.to_le_bytes());
        let out = cc
            .execute(
                &ctx,
                &[
                    Op::Update { key: 2, value: val.clone() },
                    Op::Read(2),
                    Op::Rmw { key: 2, delta: 3 },
                ],
            )
            .unwrap();
        // The read and the rmw pre-image both see the buffered update.
        assert_eq!(out.reads[0].1, val);
        assert_eq!(out.reads[1].1, val);
        let back = cc.execute(&ctx, &[Op::Read(2)]).unwrap();
        assert_eq!(i64::from_le_bytes(back.reads[0].1[0..8].try_into().unwrap()), 10);
    }

    #[test]
    fn held_unexpired_lock_aborts_with_timeout() {
        let t = table(4, 16, 1);
        let owner = t.layer().fabric().endpoint();
        LeaseLock::acquire(t.layer(), &owner, t.lock_addr(2), 42, 1, LEASE, 0).unwrap();
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 7,
        };
        let err = LeasedTpl::new(LEASE)
            .execute(&ctx, &[Op::Rmw { key: 2, delta: 1 }])
            .unwrap_err();
        assert_eq!(err, TxnError::Aborted("lock-timeout"));
    }

    #[test]
    fn expired_lock_is_stolen_and_counted() {
        let t = table(4, 16, 1);
        let crashed = t.layer().fabric().endpoint();
        // A "crashed" session holding key 2 with a 50 µs lease.
        LeaseLock::acquire(t.layer(), &crashed, t.lock_addr(2), 42, 1, 50_000, 0).unwrap();
        let ep = t.layer().fabric().endpoint();
        ep.charge_local(10_000_000); // sail past the lease
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 7,
        };
        let cc = LeasedTpl::new(LEASE);
        cc.execute(&ctx, &[Op::Rmw { key: 2, delta: 5 }]).unwrap();
        assert_eq!(cc.steals(), 1, "the takeover must be counted");
        // And the lock is free again afterwards.
        assert_eq!(t.layer().read_u64(&ep, t.lock_addr(2)).unwrap(), 0);
    }

    /// Group 1 is partitioned for 10 ms, past the retry deadline, from
    /// the moment the commit doorbell has landed, so key 1's release
    /// fails. The transaction committed: it must say so (a retry would
    /// apply its deltas twice), and key 0's release must still run.
    #[test]
    fn a_failed_release_after_commit_neither_aborts_nor_skips_the_rest() {
        let ops = [Op::Rmw { key: 0, delta: 1 }, Op::Rmw { key: 1, delta: 1 }];
        let run = |t: &crate::table::RecordTable, ep: &Endpoint| {
            let ctx = TxnCtx { ep, table: t, io: &DirectIo, worker_tag: 7 };
            LeasedTpl::new(LEASE).execute(&ctx, &ops)
        };
        // When the commit doorbell lands, timed on a fault-free twin.
        let twin = timed_table(1);
        let ep = twin.layer().fabric().endpoint();
        ep.enable_flight_recorder(64);
        run(&twin, &ep).unwrap();
        let committed_at = ep
            .flight_events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Verb(_)) && e.phase == Phase::Writeback as u8)
            .map(|e| e.ts_ns + e.dur_ns)
            .max()
            .expect("the twin posted a commit doorbell");

        let t = timed_table(1);
        let cut = t.lock_addr(1).node();
        let partition = FaultPlan::new(1).partition(cut, committed_at, committed_at + 10_000_000);
        t.layer().fabric().install_fault_plan(partition);
        let ep = t.layer().fabric().endpoint();
        run(&t, &ep).expect("a committed transaction reports its commit");
        let word = |addr: GlobalAddr| {
            let region = t.layer().fabric().region(addr.node()).unwrap();
            region.read_u64(addr.offset()).unwrap()
        };
        for key in [0, 1] {
            assert_eq!(word(t.payload_addr(key, 0)), 1, "key {key} incremented once");
        }
        assert_eq!(word(t.lock_addr(0)), 0, "key 0's release was skipped");
        assert_ne!(word(t.lock_addr(1)), 0, "key 1's lease is left to expire");
    }

    /// The owner stalls between its execute and commit steps, long enough
    /// for a thief to steal its expired lease: the commit step must see the
    /// changed word and write nothing.
    #[test]
    fn zombie_owner_is_fenced_at_commit_and_writes_nothing() {
        let t = table(4, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 7,
        };
        // Short lease so the thief's takeover is legitimate.
        let cc = LeasedTpl::new(10_000);
        let ops = [Op::Rmw { key: 2, delta: 100 }];
        let (held, failed) = cc.grow(&ctx, &ops);
        assert_eq!(failed, None);
        let (_, pending) = LeasedTpl::run(&ctx, &ops).unwrap();
        let thief = t.layer().fabric().endpoint();
        thief.charge_local(60_000_000_000); // minutes later
        LeaseLock::acquire(t.layer(), &thief, t.lock_addr(2), 999, 1, LEASE, 0)
            .expect("steal must succeed: lease long expired");
        let err = LeasedTpl::commit(&ctx, &held, &pending).unwrap_err();
        assert_eq!(err, TxnError::Aborted("lease-stolen"));
        cc.release_all(&ctx, &held);
        // The zombie wrote nothing: payload still zero.
        let check = t.layer().fabric().endpoint();
        let mut buf = [0u8; 16];
        t.layer().read(&check, t.payload_addr(2, 0), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16], "fenced transaction must not write");
        // The thief still owns the word (we did not clear it).
        let (owner, _, _) = LeaseLock::decode(t.layer().read_u64(&check, t.lock_addr(2)).unwrap());
        assert_eq!(owner, 999);
    }
}
