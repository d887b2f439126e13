//! Multi-version concurrency control with an in-record version ring.
//!
//! Each slot carries `V` versions `(wts, payload)`; writers install into
//! the slot holding the *oldest* version (ring overwrite), readers pick
//! the newest version with `wts <= ts`. Read-only transactions therefore
//! read a consistent snapshot and never block writers; they abort only
//! when the ring has already overwritten the version their snapshot needs
//! (the classic "version too old" of bounded version stores).
//!
//! §4 Challenge 6 places MVCC among the protocols whose RDMA cost is the
//! occasional latch plus timestamp traffic; experiment C3 shows its
//! read-heavy advantage.

use std::sync::Arc;

use rdma_sim::Phase;

use super::{
    apply_delta, lock_all, release_all, ConcurrencyControl, Op, TxnCtx, TxnError, TxnOutput,
};
use crate::oracle::TimestampOracle;

/// MVCC over a table created with `versions >= 2`.
pub struct Mvcc {
    oracle: Arc<dyn TimestampOracle>,
    /// Lock retries before aborting a writer.
    pub max_retries: u32,
}

impl Mvcc {
    /// MVCC drawing timestamps from `oracle`.
    pub fn new(oracle: Arc<dyn TimestampOracle>) -> Self {
        Self {
            oracle,
            max_retries: 8,
        }
    }
}

struct SlotView {
    rts: u64,
    /// (wts, payload) per version slot.
    versions: Vec<(u64, Vec<u8>)>,
}

fn parse_slot(buf: &[u8], psize: usize, v: usize) -> SlotView {
    let stride = 8 + ((psize + 7) & !7);
    let rts = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let versions = (0..v)
        .map(|i| {
            let base = 16 + i * stride;
            let wts = u64::from_le_bytes(buf[base..base + 8].try_into().unwrap());
            (wts, buf[base + 8..base + 8 + psize].to_vec())
        })
        .collect();
    SlotView { rts, versions }
}

impl ConcurrencyControl for Mvcc {
    fn name(&self) -> &'static str {
        "mvcc"
    }

    fn execute(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let layer = ctx.table.layer();
        let psize = ctx.table.payload_size();
        let nv = ctx.table.versions();
        assert!(nv >= 2, "Mvcc requires a table with >= 2 versions");
        let ts = self.oracle.next_ts(ctx.ep)?;
        let mut out = TxnOutput::default();
        let slot_len = ctx.table.slot_size() as usize;

        enum Staged {
            Abs(Vec<u8>),
            Delta(i64),
        }
        let mut staged: Vec<(u64, Staged)> = Vec::new();

        // Snapshot read: whole slot in one READ, pick newest wts <= ts,
        // then validate that version's wts did not change underneath us.
        let read_snapshot = |key: u64| -> Result<Vec<u8>, TxnError> {
            let _span = ctx.ep.span(Phase::PageFetch);
            for _attempt in 0..3 {
                let mut buf = vec![0u8; slot_len];
                layer.read(ctx.ep, ctx.table.slot_addr(key), &mut buf)?;
                let view = parse_slot(&buf, psize, nv);
                let best = view
                    .versions
                    .iter()
                    .enumerate()
                    .filter(|(_, (wts, _))| *wts <= ts)
                    .max_by_key(|(_, (wts, _))| *wts);
                let Some((vi, (wts, payload))) = best.map(|(i, v)| (i, v.clone())) else {
                    return Err(TxnError::Aborted("mvcc-version-gone"));
                };
                // Validate: the chosen slot's wts unchanged (guards the
                // torn-read window against a ring overwrite).
                let check = layer.read_u64(ctx.ep, ctx.table.wts_addr(key, vi))?;
                if check != wts {
                    continue; // raced a writer into this slot; retry
                }
                // Advance rts for writer validation.
                let mut cur = view.rts;
                while cur < ts {
                    let prev = layer.cas(ctx.ep, ctx.table.rts_addr(key), cur, ts)?;
                    if prev == cur {
                        break;
                    }
                    cur = prev;
                }
                return Ok(payload);
            }
            Err(TxnError::Aborted("mvcc-read-unstable"))
        };

        for op in ops {
            match op {
                Op::Read(key) => {
                    let v = read_snapshot(*key)?;
                    out.reads.push((*key, v));
                }
                Op::Update { key, value } => {
                    staged.push((*key, Staged::Abs(value.clone())));
                }
                Op::Rmw { key, delta } => {
                    let v = read_snapshot(*key)?;
                    out.reads.push((*key, v));
                    match staged.iter_mut().rev().find(|(k, _)| *k == *key) {
                        Some((_, Staged::Delta(d))) => *d += delta,
                        _ => staged.push((*key, Staged::Delta(*delta))),
                    }
                }
            }
        }

        // Install writes under per-record locks, sorted.
        let mut write_keys: Vec<u64> = staged.iter().map(|(k, _)| *k).collect();
        write_keys.sort_unstable();
        write_keys.dedup();
        let lock_span = ctx.ep.span(Phase::LockAcquire);
        let (held, mut abort) = lock_all(ctx, &write_keys, self.max_retries);

        // Validate every write key under its lock BEFORE installing
        // anything — interleaving validation with installs would leave a
        // partial commit behind on a late abort.
        let mut views: Vec<(u64, SlotView)> = Vec::with_capacity(write_keys.len());
        if abort.is_none() {
            for &key in &write_keys {
                let mut buf = vec![0u8; slot_len];
                if let Err(e) = layer.read(ctx.ep, ctx.table.slot_addr(key), &mut buf) {
                    abort = Some(e.into());
                    break;
                }
                let view = parse_slot(&buf, psize, nv);
                let max_wts = view.versions.iter().map(|(w, _)| *w).max().unwrap_or(0);
                if ts < view.rts {
                    abort = Some(TxnError::Aborted("mvcc-write-after-read"));
                    break;
                }
                if ts <= max_wts {
                    abort = Some(TxnError::Aborted("mvcc-write-too-old"));
                    break;
                }
                views.push((key, view));
            }
        }
        drop(lock_span);

        if abort.is_none() {
            let _span = ctx.ep.span(Phase::Writeback);
            'install: for (key, view) in &views {
                let key = *key;
                let value = match staged
                    .iter()
                    .rev()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v)
                    .expect("staged")
                {
                    Staged::Abs(v) => v.clone(),
                    Staged::Delta(d) => {
                        // Latest version under the lock.
                        let latest = view
                            .versions
                            .iter()
                            .max_by_key(|(w, _)| *w)
                            .map(|(_, p)| p.clone())
                            .unwrap_or_else(|| vec![0u8; psize]);
                        let mut v = latest;
                        apply_delta(&mut v, *d);
                        v
                    }
                };
                // Victim = oldest version slot; payload then wts.
                let (victim, _) = view
                    .versions
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (w, _))| *w)
                    .expect("versions >= 2");
                let r: Result<(), TxnError> = (|| {
                    ctx.io.write_payload(ctx.ep, ctx.table, key, victim, &value)?;
                    layer.write_u64(ctx.ep, ctx.table.wts_addr(key, victim), ts)?;
                    Ok(())
                })();
                if let Err(e) = r {
                    abort = Some(e);
                    break 'install;
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
    use crate::protocols::testutil::{
        a_failed_unlock_leaves_no_reachable_lock_held, bank_invariant_holds, table, timed_table,
    };
    use crate::protocols::DirectIo;
    use crate::table::RecordTable;
    use rdma_sim::Endpoint;

    fn ctx_on<'a>(t: &'a RecordTable, ep: &'a Endpoint, tag: u64) -> TxnCtx<'a> {
        TxnCtx {
            ep,
            table: t,
            io: &DirectIo,
            worker_tag: tag,
        }
    }

    #[test]
    fn mvcc_preserves_bank_invariant() {
        let t = table(16, 16, 4);
        let oracle = Arc::new(FaaOracle::new(t.layer()).unwrap());
        bank_invariant_holds(&Mvcc::new(oracle), &t, 4, 250);
    }

    #[test]
    fn a_failed_unlock_does_not_leak_the_other_locks() {
        let t = timed_table(2);
        let oracle = Arc::new(FaaOracle::new(t.layer()).unwrap());
        a_failed_unlock_leaves_no_reachable_lock_held(&Mvcc::new(oracle), &t);
    }

    #[test]
    fn old_snapshot_reads_old_version() {
        let t = table(4, 16, 4);
        let oracle = Arc::new(FaaOracle::new(t.layer()).unwrap());
        let cc = Mvcc::new(oracle.clone());
        let ep = t.layer().fabric().endpoint();
        let ctx = ctx_on(&t, &ep, 1);

        // Commit value 10 at some ts, then 20 at a later ts.
        let mut v10 = vec![0u8; 16];
        v10[0..8].copy_from_slice(&10i64.to_le_bytes());
        cc.execute(&ctx, &[Op::Update { key: 0, value: v10.clone() }]).unwrap();
        // Capture a timestamp *between* the two writes by burning one.
        let mid_ts = oracle.next_ts(&ep).unwrap();
        let mut v20 = vec![0u8; 16];
        v20[0..8].copy_from_slice(&20i64.to_le_bytes());
        cc.execute(&ctx, &[Op::Update { key: 0, value: v20 }]).unwrap();

        // A reader pinned at mid_ts must see 10. We emulate a pinned
        // snapshot by scanning versions directly.
        let mut buf = vec![0u8; t.slot_size() as usize];
        t.layer().read(&ep, t.slot_addr(0), &mut buf).unwrap();
        let view = super::parse_slot(&buf, 16, 4);
        let at_mid = view
            .versions
            .iter()
            .filter(|(w, _)| *w <= mid_ts)
            .max_by_key(|(w, _)| *w)
            .unwrap();
        assert_eq!(at_mid.1, v10, "old version still readable");
    }

    #[test]
    fn read_only_txn_commits_against_writers() {
        let t = table(8, 16, 4);
        let oracle = Arc::new(FaaOracle::new(t.layer()).unwrap());
        let cc = std::sync::Arc::new(Mvcc::new(oracle));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // A writer hammering key 0.
            {
                let t = t.clone();
                let cc = cc.clone();
                let stop = &stop;
                s.spawn(move || {
                    let ep = t.layer().fabric().endpoint();
                    let ctx = ctx_on(&t, &ep, 1);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let _ = cc.execute(&ctx, &[Op::Rmw { key: 0, delta: 1 }]);
                    }
                });
            }
            // Readers must keep committing (aborts allowed only from ring
            // overwrite; count successes).
            let t2 = t.clone();
            let cc2 = cc.clone();
            let reader = s.spawn(move || {
                let ep = t2.layer().fabric().endpoint();
                let ctx = ctx_on(&t2, &ep, 2);
                let mut ok = 0;
                for _ in 0..500 {
                    if cc2.execute(&ctx, &[Op::Read(0)]).is_ok() {
                        ok += 1;
                    }
                }
                ok
            });
            let ok = reader.join().unwrap();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(ok > 450, "readers mostly commit, got {ok}/500");
        });
    }

    #[test]
    fn version_ring_overwrites_oldest() {
        let t = table(2, 16, 2);
        let oracle = Arc::new(FaaOracle::new(t.layer()).unwrap());
        let cc = Mvcc::new(oracle);
        let ep = t.layer().fabric().endpoint();
        let ctx = ctx_on(&t, &ep, 1);
        for i in 1..=5i64 {
            let mut v = vec![0u8; 16];
            v[0..8].copy_from_slice(&(i * 100).to_le_bytes());
            cc.execute(&ctx, &[Op::Update { key: 1, value: v }]).unwrap();
        }
        // Only the two newest versions (400, 500) survive in the ring.
        let mut buf = vec![0u8; t.slot_size() as usize];
        t.layer().read(&ep, t.slot_addr(1), &mut buf).unwrap();
        let view = super::parse_slot(&buf, 16, 2);
        let mut vals: Vec<i64> = view
            .versions
            .iter()
            .map(|(_, p)| i64::from_le_bytes(p[0..8].try_into().unwrap()))
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![400, 500]);
    }
}
