//! Optimistic concurrency control with version validation.
//!
//! The RDMA-native protocol (Sherman \[62\] uses the same ingredients for
//! its index): read without locks, remember versions; at commit, lock the
//! write set (1-RT CAS each, sorted), re-read the read set's lock+version
//! words, and install writes with a version bump. Write order within a
//! record — payload first, then version, then lock release — guarantees a
//! reader that raced a partial write always sees a version mismatch at
//! validation.

use rdma_sim::Phase;

use super::{
    apply_delta, lock_all, release_all, ConcurrencyControl, Op, TxnCtx, TxnError, TxnOutput,
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
        let layer = ctx.table.layer();
        let psize = ctx.table.payload_size();
        let mut out = TxnOutput::default();

        // --- Read phase ------------------------------------------------
        // Per accessed key: (version_seen, latest_local_value). Writes are
        // buffered; reads of keys written earlier in the txn see the
        // buffered value (read-your-writes).
        let mut versions: Vec<(u64, u64)> = Vec::new(); // (key, wts seen)
        let mut local: Vec<(u64, Vec<u8>)> = Vec::new(); // write buffer
        let mut write_keys: Vec<u64> = Vec::new();

        let fetch = |key: u64,
                     versions: &mut Vec<(u64, u64)>|
         -> Result<Vec<u8>, TxnError> {
            // One READ covering [wts | payload] (contiguous in the slot).
            let _span = ctx.ep.span(Phase::PageFetch);
            let mut buf = vec![0u8; 8 + psize];
            layer.read(ctx.ep, ctx.table.wts_addr(key, 0), &mut buf)?;
            let wts = u64::from_le_bytes(buf[0..8].try_into().unwrap());
            if !versions.iter().any(|&(k, _)| k == key) {
                versions.push((key, wts));
            }
            Ok(buf[8..].to_vec())
        };

        for op in ops {
            let key = op.key();
            let cached = local.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
            match op {
                Op::Read(_) => {
                    let val = match cached {
                        Some(v) => v,
                        None => fetch(key, &mut versions)?,
                    };
                    out.reads.push((key, val));
                }
                Op::Update { value, .. } => {
                    if cached.is_none() {
                        // Still record the version for write-write
                        // validation via locking (no read needed for a
                        // blind write, but version tracking is free here).
                        let _ = fetch(key, &mut versions)?;
                    }
                    local.push((key, value.clone()));
                    write_keys.push(key);
                }
                Op::Rmw { delta, .. } => {
                    let mut val = match cached {
                        Some(v) => v,
                        None => fetch(key, &mut versions)?,
                    };
                    out.reads.push((key, val.clone()));
                    apply_delta(&mut val, *delta);
                    local.push((key, val));
                    write_keys.push(key);
                }
            }
        }
        write_keys.sort_unstable();
        write_keys.dedup();

        // --- Validation phase -------------------------------------------
        // Lock the write set in sorted order.
        let validate_span = ctx.ep.span(Phase::LockAcquire);
        let (held, mut abort) = lock_all(ctx, &write_keys, self.max_retries);

        // Validate the read set: lock word free (or ours) and version
        // unchanged. One READ covers [lock | rts | wts].
        if abort.is_none() {
            for &(key, seen_wts) in &versions {
                let mut hdr = [0u8; 24];
                if let Err(e) = layer.read(ctx.ep, ctx.table.lock_addr(key), &mut hdr) {
                    abort = Some(e.into());
                    break;
                }
                let lock = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
                let wts = u64::from_le_bytes(hdr[16..24].try_into().unwrap());
                let lock_ok = lock == 0 || lock == ctx.worker_tag;
                if !lock_ok {
                    abort = Some(TxnError::Aborted("validate-locked"));
                    break;
                }
                if wts != seen_wts {
                    abort = Some(TxnError::Aborted("validate-version"));
                    break;
                }
            }
        }

        drop(validate_span);

        // --- Write phase -------------------------------------------------
        if abort.is_none() {
            let _span = ctx.ep.span(Phase::Writeback);
            for &key in &write_keys {
                let value = local
                    .iter()
                    .rev()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v.clone())
                    .expect("buffered write");
                let seen = versions
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|&(_, v)| v)
                    .unwrap_or(0);
                let r: Result<(), TxnError> = (|| {
                    // payload, then wts bump, then lock release — one
                    // doorbell, ordered.
                    ctx.table.write_payload(ctx.ep, key, 0, &value)?;
                    layer.write_u64(ctx.ep, ctx.table.wts_addr(key, 0), seen + 1)?;
                    Ok(())
                })();
                if let Err(e) = r {
                    abort = Some(e);
                    break;
                }
            }
        }

        // Release locks regardless of outcome.
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
    use crate::protocols::testutil::{a_failed_unlock_leaves_no_reachable_lock_held, bank_invariant_holds, table};
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
