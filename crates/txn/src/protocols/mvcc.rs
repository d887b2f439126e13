//! Multi-version concurrency control with an in-record version ring.
//!
//! Each slot carries `V` versions `(wts, payload)`; writers install into
//! the slot holding the *oldest* version (ring overwrite), readers pick
//! the newest version with `wts <= ts`. Read-only transactions therefore
//! read a consistent snapshot and never block writers; they abort only
//! when the ring has already overwritten the version their snapshot needs
//! (the classic "version too old" of bounded version stores).
//!
//! Besides the oracle's FAA, four doorbells at most, whatever the key
//! count: one READ of the whole slot per key read; one `rts` CAS per key
//! read (a lost CAS re-posts alone), each with a READ of the picked
//! version's `wts` behind it; one lock set over the write set, each CAS
//! with a READ of the slot behind it; and one install of payload, then
//! `wts`, into each key's oldest version, then every unlock. A read-only
//! transaction posts the first two.
//!
//! §4 Challenge 6 places MVCC among the protocols whose RDMA cost is the
//! occasional latch plus timestamp traffic; experiment C3 shows its
//! read-heavy advantage.

use std::sync::Arc;

use dsm::GlobalAddr;
use rdma_sim::Phase;

use super::{
    advance_rts, commit_set, key_uses, read_chunks, slot_of, stage, ConcurrencyControl, Install, Op, TxnCtx,
    TxnError, TxnOutput,
};
use crate::oracle::TimestampOracle;
use crate::table::{RTS_OFF, VER0_OFF};

/// MVCC over a table created with `versions >= 2`.
pub struct Mvcc {
    oracle: Arc<dyn TimestampOracle>,
}

impl Mvcc {
    /// Lock retries of one writer's lock before it is declared busy (the
    /// transaction aborts).
    pub const MAX_RETRIES: u32 = 8;

    /// MVCC drawing timestamps from `oracle`.
    pub fn new(oracle: Arc<dyn TimestampOracle>) -> Self {
        Self { oracle }
    }
}

struct SlotView {
    rts: u64,
    /// (wts, payload) per version slot.
    versions: Vec<(u64, Vec<u8>)>,
}

fn parse_slot(buf: &[u8], psize: usize, v: usize) -> SlotView {
    let stride = 8 + ((psize + 7) & !7);
    let rts = u64::from_le_bytes(buf[RTS_OFF as usize..][..8].try_into().unwrap());
    let versions = (0..v)
        .map(|i| {
            let base = VER0_OFF as usize + i * stride;
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
        let (table, psize, nv) = (ctx.table, ctx.table.payload_size(), ctx.table.versions());
        assert!(nv >= 2, "Mvcc requires a table with >= 2 versions");
        let ts = self.oracle.next_ts(ctx.ep)?;
        let slot_len = table.slot_size() as usize;
        let uses = key_uses(ops);
        // The payload of the version each key read picked.
        let mut snapshot = vec![Vec::new(); uses.len()];
        {
            let _span = ctx.ep.span(Phase::PageFetch);
            let mut slots = vec![0u8; uses.len() * slot_len];
            read_chunks(ctx, &uses, &mut slots, |u| u.reads_old.then(|| table.slot_addr(u.key)))?;
            let (mut rts, mut picked) = (Vec::with_capacity(uses.len()), Vec::with_capacity(uses.len()));
            for (i, (u, slot)) in uses.iter().zip(slots.chunks_exact(slot_len)).enumerate().filter(|(_, (u, _))| u.reads_old) {
                let mut view = parse_slot(slot, psize, nv);
                let newest_at_ts = (0..nv).filter(|&v| view.versions[v].0 <= ts).max_by_key(|&v| view.versions[v].0);
                let v = newest_at_ts.ok_or(TxnError::Aborted("mvcc-version-gone"))?;
                rts.push((u.key, view.rts));
                picked.push((table.wts_addr(u.key, v), view.versions[v].0));
                snapshot[i] = std::mem::take(&mut view.versions[v].1);
            }
            // The picked version's wts, re-read behind the rts advances,
            // guards the torn-read window: if it changed, the ring
            // overwrote that version under the read, and the transaction
            // aborts rather than read the slot again.
            let mut now = vec![[0u8; 8]; picked.len()];
            let mut reads: Vec<(GlobalAddr, &mut [u8])> =
                picked.iter().zip(&mut now).map(|(&(addr, _), dst)| (addr, &mut dst[..])).collect();
            advance_rts(ctx, ts, &rts, &mut reads)?;
            if picked.iter().zip(&now).any(|(&(_, wts), now)| u64::from_le_bytes(*now) != wts) {
                return Err(TxnError::Aborted("mvcc-version-gone"));
            }
        }
        let (out, staged) = stage(ops, |key| snapshot[slot_of(&uses, key)].clone());

        let keys: Vec<u64> = staged.iter().map(|(key, _)| *key).collect();
        commit_set(ctx, &keys, Self::MAX_RETRIES, |_| slot_len, || Ok(()), |i, slot| {
            let view = parse_slot(slot, psize, nv);
            let by_wts = |v: &usize| view.versions[*v].0;
            let (oldest, newest) = ((0..nv).min_by_key(by_wts), (0..nv).max_by_key(by_wts));
            let (oldest, newest) = (oldest.expect("versions >= 2"), newest.expect("versions >= 2"));
            if ts < view.rts {
                return Err(TxnError::Aborted("mvcc-write-after-read"));
            }
            if ts <= view.versions[newest].0 {
                return Err(TxnError::Aborted("mvcc-write-too-old"));
            }
            Ok(Install { version: oldest, value: staged[i].1.value(&view.versions[newest].1), wts: ts })
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FaaOracle;
    use crate::protocols::testutil::{a_failed_unlock_leaves_no_reachable_lock_held, bank_invariant_holds, table};
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
        a_failed_unlock_leaves_no_reachable_lock_held(2, |t| Mvcc::new(Arc::new(FaaOracle::new(t.layer()).unwrap())));
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
