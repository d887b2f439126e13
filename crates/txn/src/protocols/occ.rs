//! Optimistic concurrency control with version validation.
//!
//! The RDMA-native protocol (Sherman \[62\] uses the same ingredients for
//! its index): read without locks, remember versions; at commit, lock the
//! write set, re-read the read set's lock and version words, and install
//! writes with a version bump. Four doorbells at most, whatever the key
//! count:
//!
//! 1. **Read:** one READ of `[wts | payload]` per key whose old value the
//!    transaction observes; the ops then run on per-key copies.
//! 2. **Lock:** one [`ExclusiveLock`](crate::locks::ExclusiveLock) set over
//!    the write set, each CAS with a READ of its key's `[rts | wts]`
//!    behind it: a written key that was read must still carry the version
//!    seen.
//! 3. **Validate:** per key read but not written, a READ of its lock word
//!    and then one of its `wts` — lock free, version unchanged. The lock
//!    word is read first: a writer frees it only after its `wts` landed,
//!    so a word seen free with the version unchanged means no writer
//!    installed the key in between (read the other way round, a writer
//!    could land `wts` and free the word between the two loads, and both
//!    it and this transaction pass). It is posted only once the
//!    lock doorbell has returned: a validation READ may ride only behind
//!    the CAS of its own key, or two transactions that each read what the
//!    other writes could both pass (write skew).
//! 4. **Install:** payload, then version bump, per key, then every unlock
//!    — one doorbell, ordered, so a reader that raced a partial write
//!    always sees a version mismatch at validation.
//!
//! A read-only transaction posts 1 and 3; one that writes every key it
//! reads posts 1, 2 and 4. A blind write is not read: its new version is
//! the one found under the lock, plus one.

use rdma_sim::Phase;

use super::{
    commit_set, key_uses, read_chunks, read_lock_first, run_on_copies, word, ConcurrencyControl, Install, Op, TxnCtx,
    TxnError, TxnOutput, HEADER,
};

/// OCC with bounded-retry write-set locking.
pub struct Occ {
    /// CAS retries before aborting on a busy write-set lock.
    pub max_retries: u32,
}

impl Occ {
    /// Default configuration (3 retries).
    pub fn new() -> Self {
        Self { max_retries: 3 }
    }
}

impl Default for Occ {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrencyControl for Occ {
    fn name(&self) -> &'static str {
        "occ"
    }

    fn execute(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let (table, psize) = (ctx.table, ctx.table.payload_size());
        let uses = key_uses(ops);
        // One chunk per key, in key order: the version read, then the
        // transaction's copy of the payload.
        let mut buf = vec![0u8; uses.len() * (8 + psize)];
        {
            let _span = ctx.ep.span(Phase::PageFetch);
            read_chunks(ctx, &uses, &mut buf, |u| u.reads_old.then(|| table.wts_addr(u.key, 0)))?;
        }
        let out = run_on_copies(ops, &uses, &mut buf, 8, psize);
        let (written, read): (Vec<_>, Vec<_>) =
            uses.iter().zip(buf.chunks_exact(8 + psize)).partition(|(u, _)| u.written);
        let keys: Vec<u64> = written.iter().map(|(u, _)| u.key).collect();

        let validate = || {
            // `[wts | lock]` per key only read, the lock word READ first.
            let mut seen = vec![0u8; uses.len() * 16];
            read_lock_first(ctx, &uses, &mut seen, |u| (!u.written).then(|| table.wts_addr(u.key, 0)))?;
            let seen = uses.iter().zip(seen.chunks_exact(16)).filter(|(u, _)| !u.written);
            for ((_, seen), (_, copy)) in seen.zip(&read) {
                if word(seen, 1) != 0 {
                    return Err(TxnError::Aborted("validate-locked"));
                }
                if word(seen, 0) != word(copy, 0) {
                    return Err(TxnError::Aborted("validate-version"));
                }
            }
            Ok(())
        };
        commit_set(ctx, &keys, self.max_retries, |_| HEADER, validate, |i, hdr| {
            let (u, copy) = written[i];
            let wts = word(hdr, 1);
            if u.reads_old && wts != word(copy, 0) {
                return Err(TxnError::Aborted("validate-version"));
            }
            Ok(Install { version: 0, value: copy[8..].to_vec(), wts: wts + 1 })
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use rdma_sim::{EventKind, OpKind};

    use super::*;
    use crate::locks::ExclusiveLock;
    use crate::protocols::testutil::{
        a_failed_unlock_leaves_no_reachable_lock_held, bank_invariant_holds, table, timed_table,
    };
    use crate::protocols::DirectIo;

    fn ctx_on<'a>(
        t: &'a crate::table::RecordTable,
        ep: &'a rdma_sim::Endpoint,
        tag: u64,
    ) -> TxnCtx<'a> {
        TxnCtx {
            ep,
            table: t,
            io: &DirectIo,
            worker_tag: tag,
        }
    }

    #[test]
    fn occ_preserves_bank_invariant() {
        let t = table(16, 16, 1);
        bank_invariant_holds(&Occ::new(), &t, 4, 300);
    }

    #[test]
    fn a_failed_unlock_does_not_leak_the_other_locks() {
        a_failed_unlock_leaves_no_reachable_lock_held(1, |_| Occ::new());
    }

    #[test]
    fn read_your_writes_within_txn() {
        let t = table(4, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let ctx = ctx_on(&t, &ep, 1);
        let cc = Occ::new();
        let out = cc
            .execute(
                &ctx,
                &[
                    Op::Rmw { key: 0, delta: 7 },
                    Op::Read(0), // must see the buffered +7
                ],
            )
            .unwrap();
        assert_eq!(
            i64::from_le_bytes(out.reads[1].1[0..8].try_into().unwrap()),
            7
        );
    }

    #[test]
    fn stale_read_aborts_at_validation() {
        let t = table(4, 16, 1);
        let ep1 = t.layer().fabric().endpoint();
        let ep2 = t.layer().fabric().endpoint();
        let cc = Occ::new();

        // Txn A reads key 0 (read phase done by hand): we emulate the
        // interleaving by running a full conflicting txn B between A's
        // read and A's commit. Easiest: A = Rmw(0) executed after B bumped
        // the version between A's fetch and validation. We approximate by
        // checking that two sequential Rmws from different workers both
        // commit, and that a version bump invalidates a concurrent reader:
        // run B first, then A's read must see B's value.
        let ctx_b = ctx_on(&t, &ep2, 2);
        cc.execute(&ctx_b, &[Op::Rmw { key: 0, delta: 3 }]).unwrap();
        let ctx_a = ctx_on(&t, &ep1, 1);
        let out = cc.execute(&ctx_a, &[Op::Read(0)]).unwrap();
        assert_eq!(
            i64::from_le_bytes(out.reads[0].1[0..8].try_into().unwrap()),
            3
        );
    }

    #[test]
    fn write_set_lock_conflict_aborts() {
        let t = table(4, 16, 1);
        let layer = t.layer();
        let ep_holder = layer.fabric().endpoint();
        crate::locks::ExclusiveLock::acquire(layer, &ep_holder, t.lock_addr(1), 99, 0).unwrap();
        let ep = layer.fabric().endpoint();
        let ctx = ctx_on(&t, &ep, 1);
        let err = Occ::new()
            .execute(&ctx, &[Op::Rmw { key: 1, delta: 1 }])
            .unwrap_err();
        assert_eq!(err, TxnError::Aborted("lock-busy"));
    }

    /// Key 0 is read, key 1 (the other group) written.
    fn read_0_write_1() -> [Op; 2] {
        [Op::Read(0), Op::Rmw { key: 1, delta: 1 }]
    }

    /// Key 0's validation — its lock word, then its version (the READ of
    /// `wts` alone; the read phase's from there runs on into the payload)
    /// — leaves only once key 1 is locked, and the lock word is read
    /// first: a writer that lands `wts` and frees the word between the two
    /// loads must not pass unseen.
    #[test]
    fn a_read_only_key_is_validated_only_once_the_write_set_is_locked() {
        let t = timed_table(1);
        let ep = t.layer().fabric().endpoint();
        ep.enable_flight_recorder(256);
        Occ::new().execute(&ctx_on(&t, &ep, 1), &read_0_write_1()).unwrap();
        let events = ep.flight_events();
        let at = |kind: OpKind, addr: dsm::GlobalAddr| {
            events.iter().filter(move |e| e.kind == EventKind::Verb(kind) && e.addr == addr.to_raw())
        };
        let locked_at = at(OpKind::Cas, t.lock_addr(1)).map(|e| e.end_ns).max().expect("key 1 was locked");
        let lock: Vec<_> = at(OpKind::Read, t.lock_addr(0)).collect();
        let version: Vec<_> = at(OpKind::Read, t.wts_addr(0, 0)).filter(|e| e.bytes == 8).collect();
        let ([lock], [version]) = (&lock[..], &version[..]) else {
            panic!("key 0 was validated by one READ of each word: {lock:?} {version:?}");
        };
        assert!(lock.ts_ns() >= locked_at, "{lock:?} vs {locked_at}");
        assert!(lock.end_ns < version.end_ns, "the lock word is read first: {lock:?} {version:?}");
    }

    #[test]
    fn a_locked_read_only_key_fails_validation() {
        let t = table(4, 16, 1);
        let layer = t.layer();
        let holder = layer.fabric().endpoint();
        ExclusiveLock::acquire(layer, &holder, t.lock_addr(0), 99, 0).unwrap();
        let ep = layer.fabric().endpoint();
        let err = Occ::new().execute(&ctx_on(&t, &ep, 1), &read_0_write_1()).unwrap_err();
        assert_eq!(err, TxnError::Aborted("validate-locked"));
        assert_eq!(layer.read_u64(&ep, t.lock_addr(1)).unwrap(), 0, "the write set was released");
        assert_eq!(layer.read_u64(&ep, t.payload_addr(1, 0)).unwrap(), 0, "nothing was installed");
    }

    #[test]
    fn version_bumps_once_per_commit() {
        let t = table(4, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let ctx = ctx_on(&t, &ep, 1);
        let cc = Occ::new();
        for _ in 0..5 {
            cc.execute(&ctx, &[Op::Rmw { key: 2, delta: 1 }]).unwrap();
        }
        let wts = t.layer().read_u64(&ep, t.wts_addr(2, 0)).unwrap();
        assert_eq!(wts, 5);
    }
}
