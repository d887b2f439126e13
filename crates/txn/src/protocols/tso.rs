//! Timestamp ordering (TSO).
//!
//! Each transaction takes one timestamp from the oracle; records carry
//! `rts` (largest reader) and `wts` (largest writer). Reads of the future
//! are impossible (single-version), so `ts < wts` aborts a read; writes
//! abort when a later reader or writer already passed (`ts < rts` or
//! `ts < wts`). The `rts` advance is an RDMA CAS-max — the "latch over
//! shared state" cost §4 Challenge 6 attributes to non-lock-based
//! protocols.
//!
//! Besides the oracle's FAA, four doorbells at most, whatever the key
//! count: per key read, a READ of its lock word and then one of the rest
//! of the slot, `[rts | wts | payload]` (a writer that held the word when
//! the read began is caught, as when the word led the slot); one `rts`
//! CAS per key read (a lost CAS re-posts alone); one lock
//! set over the write set, each CAS with a READ of `[rts | wts]` behind it —
//! the payload too for a read-modify-write, whose delta is re-applied to
//! the value read under the lock; and one install of payload, then `wts`,
//! per key, then every unlock. A read-only transaction posts the first
//! two.

use std::sync::Arc;

use rdma_sim::Phase;

use super::{
    advance_rts, commit_set, key_uses, read_lock_first, slot_of, stage, word, ConcurrencyControl, Install, Op, Staged,
    TxnCtx, TxnError, TxnOutput, HEADER,
};
use crate::oracle::TimestampOracle;

/// TSO with a pluggable timestamp oracle.
pub struct Tso {
    oracle: Arc<dyn TimestampOracle>,
    /// CAS retries for the short write lock.
    pub max_retries: u32,
}

impl Tso {
    /// TSO drawing timestamps from `oracle`.
    pub fn new(oracle: Arc<dyn TimestampOracle>) -> Self {
        Self {
            oracle,
            max_retries: 8,
        }
    }
}

impl ConcurrencyControl for Tso {
    fn name(&self) -> &'static str {
        "tso"
    }

    fn execute(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let (table, psize) = (ctx.table, ctx.table.payload_size());
        let ts = self.oracle.next_ts(ctx.ep)?;
        let uses = key_uses(ops);
        // One chunk per key, in key order: the slot, [rts | wts | payload | lock],
        // its lock word READ first.
        let chunk = table.slot_size() as usize;
        let mut buf = vec![0u8; uses.len() * chunk];
        {
            let _span = ctx.ep.span(Phase::PageFetch);
            read_lock_first(ctx, &uses, &mut buf, |u| u.reads_old.then(|| table.slot_addr(u.key)))?;
            let mut rts = Vec::with_capacity(uses.len());
            for (u, seen) in uses.iter().zip(buf.chunks_exact(chunk)).filter(|(u, _)| u.reads_old) {
                let lock = word(seen, chunk / 8 - 1);
                if lock != 0 && lock != ctx.worker_tag {
                    // A writer is mid-install: its payload/wts pair is not
                    // yet consistent, so reading now is unsafe.
                    return Err(TxnError::Aborted("tso-read-locked"));
                }
                if ts < word(seen, 1) {
                    return Err(TxnError::Aborted("tso-read-too-old"));
                }
                rts.push((u.key, word(seen, 0)));
            }
            advance_rts(ctx, ts, &rts, &mut [])?;
        }
        let (out, staged) = stage(ops, |key| buf[slot_of(&uses, key) * chunk + HEADER..][..psize].to_vec());

        let keys: Vec<u64> = staged.iter().map(|(key, _)| *key).collect();
        let view_len = |i: usize| match staged[i].1 {
            Staged::Abs(_) => HEADER,
            Staged::Delta(_) => HEADER + psize,
        };
        commit_set(ctx, &keys, self.max_retries, view_len, || Ok(()), |i, view| {
            if ts < word(view, 0) {
                return Err(TxnError::Aborted("tso-write-after-read"));
            }
            if ts < word(view, 1) {
                // Thomas write rule would skip; we abort for strict
                // serializability of multi-key transactions.
                return Err(TxnError::Aborted("tso-write-too-old"));
            }
            Ok(Install { version: 0, value: staged[i].1.value(&view[HEADER..]), wts: ts })
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use rdma_sim::{EventKind, OpKind};

    use super::*;
    use crate::oracle::FaaOracle;
    use crate::protocols::testutil::{a_failed_unlock_leaves_no_reachable_lock_held, bank_invariant_holds, table};
    use crate::protocols::DirectIo;

    #[test]
    fn tso_preserves_bank_invariant() {
        let t = table(16, 16, 1);
        let oracle = Arc::new(FaaOracle::new(t.layer()).unwrap());
        bank_invariant_holds(&Tso::new(oracle), &t, 4, 300);
    }

    #[test]
    fn a_failed_unlock_does_not_leak_the_other_locks() {
        a_failed_unlock_leaves_no_reachable_lock_held(1, |t| Tso::new(Arc::new(FaaOracle::new(t.layer()).unwrap())));
    }

    /// A read finds a key's word held and aborts; the word is read ahead
    /// of the rest of the slot, so a writer that held it when the read
    /// began is caught even if it frees it before the read ends.
    #[test]
    fn a_read_checks_the_lock_word_first() {
        let t = crate::protocols::testutil::timed_table(1);
        let cc = Tso::new(Arc::new(FaaOracle::new(t.layer()).unwrap()));
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 1 };
        let holder = t.layer().fabric().endpoint();
        crate::locks::ExclusiveLock::acquire(t.layer(), &holder, t.lock_addr(0), 99, 0).unwrap();
        assert_eq!(cc.execute(&ctx, &[Op::Read(0)]).unwrap_err(), TxnError::Aborted("tso-read-locked"));

        ep.enable_flight_recorder(64);
        cc.execute(&ctx, &[Op::Read(1)]).unwrap();
        let events = ep.flight_events();
        let read_at = |addr: dsm::GlobalAddr| {
            let mut at = events.iter().filter(|e| e.kind == EventKind::Verb(OpKind::Read) && e.addr == addr.to_raw());
            at.next().map(|e| e.end_ns).expect("one READ")
        };
        assert!(read_at(t.lock_addr(1)) < read_at(t.slot_addr(1)), "the lock word is read first");
    }

    #[test]
    fn later_ts_reads_earlier_write() {
        let t = table(4, 16, 1);
        let oracle = Arc::new(FaaOracle::new(t.layer()).unwrap());
        let cc = Tso::new(oracle);
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 1,
        };
        cc.execute(&ctx, &[Op::Rmw { key: 0, delta: 4 }]).unwrap();
        let out = cc.execute(&ctx, &[Op::Read(0)]).unwrap();
        assert_eq!(
            i64::from_le_bytes(out.reads[0].1[0..8].try_into().unwrap()),
            4
        );
    }

    #[test]
    fn write_after_later_read_aborts() {
        let t = table(4, 16, 1);
        let oracle = Arc::new(FaaOracle::new(t.layer()).unwrap());
        let cc = Tso::new(oracle);
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 1,
        };
        // Force rts of key 1 into the future.
        t.layer().write(&ep, t.rts_addr(1), &1_000_000u64.to_le_bytes()).unwrap();
        let err = cc
            .execute(&ctx, &[Op::Update { key: 1, value: vec![0; 16] }])
            .unwrap_err();
        assert_eq!(err, TxnError::Aborted("tso-write-after-read"));
    }

    #[test]
    fn read_of_future_write_aborts() {
        let t = table(4, 16, 1);
        let oracle = Arc::new(FaaOracle::new(t.layer()).unwrap());
        let cc = Tso::new(oracle);
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table: &t,
            io: &DirectIo,
            worker_tag: 1,
        };
        t.layer().write(&ep, t.wts_addr(1, 0), &1_000_000u64.to_le_bytes()).unwrap();
        let err = cc.execute(&ctx, &[Op::Read(1)]).unwrap_err();
        assert_eq!(err, TxnError::Aborted("tso-read-too-old"));
    }
}
