//! Timestamp ordering (TSO).
//!
//! Each transaction takes one timestamp from the oracle; records carry
//! `rts` (largest reader) and `wts` (largest writer). Reads of the future
//! are impossible (single-version), so `ts < wts` aborts a read; writes
//! abort when a later reader or writer already passed (`ts < rts` or
//! `ts < wts`). The `rts` advance uses an RDMA CAS-max loop — the "latch
//! over shared state" cost §4 Challenge 6 attributes to non-lock-based
//! protocols.

use std::sync::Arc;

use rdma_sim::Phase;

use super::{lock_all, release_all, stage, ConcurrencyControl, Op, TxnCtx, TxnError, TxnOutput};
use crate::oracle::TimestampOracle;

/// TSO with a pluggable timestamp oracle.
pub struct Tso {
    oracle: Arc<dyn TimestampOracle>,
    /// CAS retries for the short write lock / rts advance.
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
        let layer = ctx.table.layer();
        let psize = ctx.table.payload_size();
        let ts = self.oracle.next_ts(ctx.ep)?;

        let read_value = |key: u64| -> Result<Vec<u8>, TxnError> {
            // Read header+payload in one READ: [lock|rts|wts|payload].
            let _span = ctx.ep.span(Phase::PageFetch);
            let mut buf = vec![0u8; 24 + psize];
            layer.read(ctx.ep, ctx.table.lock_addr(key), &mut buf)?;
            let lock = u64::from_le_bytes(buf[0..8].try_into().unwrap());
            if lock != 0 && lock != ctx.worker_tag {
                // A writer is mid-install: its payload/wts pair is not yet
                // consistent, so reading now is unsafe.
                return Err(TxnError::Aborted("tso-read-locked"));
            }
            let wts = u64::from_le_bytes(buf[16..24].try_into().unwrap());
            if ts < wts {
                return Err(TxnError::Aborted("tso-read-too-old"));
            }
            // Advance rts to max(rts, ts) with a CAS loop.
            let mut cur = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            while cur < ts {
                let prev = layer.cas(ctx.ep, ctx.table.rts_addr(key), cur, ts)?;
                if prev == cur {
                    break;
                }
                cur = prev;
            }
            Ok(buf[24..].to_vec())
        };
        let (out, staged) = stage(ops, read_value)?;

        // Install writes, sorted by key, each under the record lock.
        let write_keys: Vec<u64> = staged.keys().copied().collect();
        let lock_span = ctx.ep.span(Phase::LockAcquire);
        let (held, mut abort) = lock_all(ctx, &write_keys, self.max_retries);

        if abort.is_none() {
            // Write rule check under locks: one READ of [rts|wts] per key.
            for &key in &write_keys {
                let mut hdr = [0u8; 16];
                if let Err(e) = layer.read(ctx.ep, ctx.table.rts_addr(key), &mut hdr) {
                    abort = Some(e.into());
                    break;
                }
                let rts = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
                let wts = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
                if ts < rts {
                    abort = Some(TxnError::Aborted("tso-write-after-read"));
                    break;
                }
                if ts < wts {
                    // Thomas write rule would skip; we abort for strict
                    // serializability of multi-key transactions.
                    abort = Some(TxnError::Aborted("tso-write-too-old"));
                    break;
                }
            }
        }
        drop(lock_span);

        if abort.is_none() {
            let _span = ctx.ep.span(Phase::Writeback);
            for (&key, write) in &staged {
                let r: Result<(), TxnError> = (|| {
                    // Fresh read under the lock: serializes the
                    // read-modify-write against all other writers.
                    let value = write.value(|| {
                        let mut v = vec![0u8; psize];
                        layer.read(ctx.ep, ctx.table.payload_addr(key, 0), &mut v)?;
                        Ok(v)
                    })?;
                    ctx.table.write_payload(ctx.ep, key, 0, &value)?;
                    layer.write_u64(ctx.ep, ctx.table.wts_addr(key, 0), ts)?;
                    Ok(())
                })();
                if let Err(e) = r {
                    abort = Some(e);
                    break;
                }
            }
        }

        release_all(ctx, &write_keys[..held], &mut abort);
        match abort {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
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
        t.layer().write_u64(&ep, t.rts_addr(1), 1_000_000).unwrap();
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
        t.layer()
            .write_u64(&ep, t.wts_addr(1, 0), 1_000_000)
            .unwrap();
        let err = cc.execute(&ctx, &[Op::Read(1)]).unwrap_err();
        assert_eq!(err, TxnError::Aborted("tso-read-too-old"));
    }
}
