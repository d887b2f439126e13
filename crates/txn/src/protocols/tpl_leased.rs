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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dsm::GlobalAddr;
use rdma_sim::{Metric, Phase};

use super::{apply_delta, key_sets, ConcurrencyControl, Op, TxnCtx, TxnError, TxnOutput};
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

    /// Attempt the release of every held lease. A release that fails
    /// leaves its word to expire with its lease; it neither skips the
    /// others nor reaches the caller.
    fn release_all(&self, ctx: &TxnCtx<'_>, held: &[(u64, LeaseToken)]) {
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
        let (all_keys, _) = key_sets(ops);
        let layer = ctx.table.layer();
        let owner = Self::owner_of(ctx.worker_tag);
        let epoch = Self::epoch_of(ctx.worker_tag);
        debug_assert!(owner != 0, "worker tag low 16 bits must be nonzero");

        // Growing phase: leased exclusive locks in sorted key order.
        let mut held: Vec<(u64, LeaseToken)> = Vec::with_capacity(all_keys.len());
        let mut failed: Option<TxnError> = None;
        {
            let _grow = ctx.ep.span(Phase::LockAcquire);
            for &key in &all_keys {
                match LeaseLock::acquire(
                    layer,
                    ctx.ep,
                    ctx.table.lock_addr(key),
                    owner,
                    epoch,
                    self.lease_ns,
                    self.max_retries,
                ) {
                    Ok(token) => {
                        if token.stole {
                            self.steals.fetch_add(1, Ordering::Relaxed);
                            ctx.ep.series_note(Metric::LockSteals, 1);
                        }
                        held.push((key, token));
                    }
                    Err(e) => {
                        failed = Some(e.into());
                        break;
                    }
                }
            }
        }

        // Execute with locally buffered writes: reads see our own
        // pending writes; shared memory stays clean until commit.
        let mut out = TxnOutput::default();
        let mut pending: HashMap<u64, Vec<u8>> = HashMap::new();
        if failed.is_none() {
            let psize = ctx.table.payload_size();
            let mut buf = vec![0u8; psize];
            for op in ops {
                let r: Result<(), TxnError> = (|| {
                    let key = op.key();
                    if let Some(v) = pending.get(&key) {
                        buf.copy_from_slice(v);
                    } else if !matches!(op, Op::Update { .. }) {
                        let _span = ctx.ep.span(Phase::PageFetch);
                        ctx.io.read_payload(ctx.ep, ctx.table, key, 0, &mut buf)?;
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
                    Ok(())
                })();
                if let Err(e) = r {
                    failed = Some(e);
                    break;
                }
            }
        }

        // Commit: revalidate every lock word in one batched read, then
        // apply all buffered writes in one doorbell. A changed word
        // means the lease was stolen while we executed — the thief may
        // already be working on those records; abort writing nothing.
        if failed.is_none() && !held.is_empty() {
            let mut wordbuf = vec![0u8; 8 * held.len()];
            let mut reqs: Vec<(GlobalAddr, &mut [u8])> = wordbuf
                .chunks_mut(8)
                .zip(held.iter())
                .map(|(chunk, (key, _))| (ctx.table.lock_addr(*key), chunk))
                .collect();
            let revalidation = layer.read_batch(ctx.ep, &mut reqs).map_err(TxnError::from);
            drop(reqs);
            match revalidation {
                Err(e) => failed = Some(e),
                Ok(()) => {
                    let intact = held.iter().enumerate().all(|(i, (_, token))| {
                        u64::from_le_bytes(wordbuf[i * 8..i * 8 + 8].try_into().unwrap())
                            == token.word
                    });
                    if !intact {
                        failed = Some(TxnError::Aborted("lease-stolen"));
                    }
                }
            }
        }
        if failed.is_none() && !pending.is_empty() {
            let _span = ctx.ep.span(Phase::Writeback);
            let mut writes: Vec<(u64, &Vec<u8>)> = pending.iter().map(|(k, v)| (*k, v)).collect();
            writes.sort_unstable_by_key(|(k, _)| *k);
            // While a key sits in an open dual-ownership window the
            // write must land on both homes; the batch carries both
            // targets in one doorbell.
            let mut reqs: Vec<(GlobalAddr, &[u8])> = Vec::with_capacity(writes.len());
            for (k, v) in &writes {
                let (old, dual) = ctx.table.payload_write_targets(*k, 0);
                reqs.push((old, v.as_slice()));
                if let Some(new) = dual {
                    reqs.push((new, v.as_slice()));
                }
            }
            if let Err(e) = layer.write_batch(ctx.ep, &reqs) {
                failed = Some(e.into());
            }
        }

        // Shrinking phase.
        {
            let _shrink = ctx.ep.span(Phase::LockAcquire);
            self.release_all(ctx, &held);
        }

        match failed {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testutil::{bank_invariant_holds, table, timed_table};
    use crate::protocols::{DirectIo, PayloadIo};
    use dsm::DsmResult;
    use rdma_sim::{Endpoint, EventKind, FaultPlan};
    use std::sync::atomic::AtomicBool;

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

    /// PayloadIo that simulates the owner stalling mid-execution while a
    /// thief steals its (expired) lease: on the first read, a separate
    /// session fast-forwards past the lease and takes the lock.
    struct StealDuringRead(AtomicBool);

    impl PayloadIo for StealDuringRead {
        fn read_payload(
            &self,
            ep: &Endpoint,
            table: &crate::table::RecordTable,
            key: u64,
            v: usize,
            dst: &mut [u8],
        ) -> DsmResult<()> {
            if !self.0.swap(true, Ordering::SeqCst) {
                let thief = table.layer().fabric().endpoint();
                thief.charge_local(60_000_000_000); // minutes later
                LeaseLock::acquire(table.layer(), &thief, table.lock_addr(key), 999, 1, LEASE, 0)
                    .expect("steal must succeed: lease long expired");
            }
            DirectIo.read_payload(ep, table, key, v, dst)
        }

        fn write_payload(
            &self,
            ep: &Endpoint,
            table: &crate::table::RecordTable,
            key: u64,
            v: usize,
            src: &[u8],
        ) -> DsmResult<()> {
            DirectIo.write_payload(ep, table, key, v, src)
        }
    }

    #[test]
    fn zombie_owner_is_fenced_at_commit_and_writes_nothing() {
        let t = table(4, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let io = StealDuringRead(AtomicBool::new(false));
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &io,
            worker_tag: 7,
        };
        // Short lease so the thief's takeover is legitimate.
        let cc = LeasedTpl::new(10_000);
        let err = cc
            .execute(&ctx, &[Op::Rmw { key: 2, delta: 100 }])
            .unwrap_err();
        assert_eq!(err, TxnError::Aborted("lease-stolen"));
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
