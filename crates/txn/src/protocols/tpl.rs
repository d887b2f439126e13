//! Two-phase locking over RDMA locks.
//!
//! The growing phase takes every lock before the transaction executes,
//! the shrinking phase releases everything after it. One body serves both
//! lock configurations of §4 Challenge 6; they differ only in how a key
//! that no op writes takes its word:
//!
//! * [`TwoPhaseLocking::exclusive`] — the 1-RT exclusive spinlock for
//!   *every* access, reads included. Cheap locks, zero read-read
//!   concurrency.
//! * [`TwoPhaseLocking::shared_exclusive`] — the one-word shared-exclusive
//!   lock on the same lock word: a key only read takes it as one of its
//!   readers ([`LockWord::reader`]), so readers admit concurrently and
//!   writers wait them out. ("It remains open if the allowed extra
//!   concurrency can offset the performance overhead of the advanced
//!   locks" — experiment C2 measures it for our fabric.)
//!
//! A key some op writes takes its word exclusively in both. Either way the
//! whole transaction is two doorbells, whatever sits in front of the
//! payloads. **Acquire:** one CAS per distinct key, each with the READs
//! the [`PayloadIo`](super::PayloadIo) wants right behind it (no cache:
//! the key's payload, unless a blind overwrite comes first; a coherent
//! cache: the sharer word in front of the payload, with the payload if
//! the key is not resident). **Execute** on transaction-local copies, ops
//! in program order. **Release:** every write the io hands back — a
//! changed sharer word, then each written key's payload, which runs on
//! into the key's lock word and frees it — then the unlocks of the keys
//! only read: a WRITE of 0 for an exclusive word, a fetch-and-add for a
//! reader's. A set no op writes is first offered to the io's lock-free
//! read (a coherent cache in invalidate mode serves it from resident
//! pages: no lock, no verb).
//!
//! **Leased**, when the worker tag is a [`LeaseLock::tag`] (exclusive
//! words only): a crashed owner's words are stolen once its lease runs
//! out. A transaction that writes seals its words in one doorbell of CASes
//! after it ran (the fence), which no steal gets past: a word already
//! stolen aborts it with `lease-stolen`, having written nothing. An unlock
//! that finds a thief's word aborts a read-only set the same way.
//!
//! Neither waits: a lock still busy after its bounded retries aborts the
//! transaction, so holding part of a set while retrying the rest cannot
//! deadlock.

use rdma_sim::Phase;

use super::{key_uses, run_on_copies, ConcurrencyControl, Op, TxnCtx, TxnError, TxnOutput};
use crate::locks::{ExclusiveLock, LeaseLock, LockWord, WriteBack};

/// 2PL with no-wait bounded-retry acquisition.
pub struct TwoPhaseLocking {
    /// Whether a key no op writes takes its word as one of its readers.
    shared_locks: bool,
}

impl TwoPhaseLocking {
    /// CAS retries of one word before it is declared busy (the
    /// transaction aborts).
    pub const MAX_RETRIES: u32 = 3;

    /// Exclusive-only 2PL (the 1-RT lock everywhere).
    pub fn exclusive() -> Self {
        Self { shared_locks: false }
    }

    /// Shared-exclusive 2PL (readers share).
    pub fn shared_exclusive() -> Self {
        Self { shared_locks: true }
    }
}

impl ConcurrencyControl for TwoPhaseLocking {
    fn name(&self) -> &'static str {
        if self.shared_locks {
            "2pl-shared"
        } else {
            "2pl-excl"
        }
    }

    /// Acquire doorbell, execute on the transaction's own copies, release
    /// doorbell. What rides the two doorbells beside the lock words is the
    /// [`PayloadIo`](super::PayloadIo)'s to say, and whether a read-only
    /// set needs them at all.
    fn execute(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let (ep, table, io) = (ctx.ep, ctx.table, ctx.io);
        let layer = table.layer();
        let mut uses = key_uses(ops);
        // One chunk per key, in key order: the io's header bytes, then the
        // transaction's own copy of the payload.
        let (hdr, psize) = (io.header_len(), table.payload_size());
        let mut buf = vec![0u8; uses.len() * (hdr + table.copy_len())];
        if uses.iter().all(|u| !u.written) && io.read_unlocked(ep, table, &uses, &mut buf) {
            return Ok(run_on_copies(ops, &uses, &mut buf, hdr, psize));
        }
        let mut words: Vec<LockWord> = (uses.iter())
            .map(|u| {
                let addr = table.lock_addr(u.key);
                if self.shared_locks && !u.written {
                    LockWord::reader(addr)
                } else {
                    LockWord::new(addr)
                }
            })
            .collect();

        let grown = {
            let mut riders = Vec::new();
            io.ride(table, &mut uses, &mut buf, &mut riders);
            let _span = ep.span(Phase::LockAcquire);
            ExclusiveLock::acquire_set(layer, ep, &mut words, &mut riders, ctx.worker_tag, Self::MAX_RETRIES)
        };

        // Execute (only if fully locked).
        let mut out = TxnOutput::default();
        let mut failed = grown.err().map(TxnError::from);
        if failed.is_none() {
            failed = io.admit(ep, table, &mut uses, &mut buf).err().map(TxnError::from);
        }
        if failed.is_none() {
            out = run_on_copies(ops, &uses, &mut buf, hdr, psize);
            if LeaseLock::leased(ctx.worker_tag) && uses.iter().any(|u| u.written) {
                let _span = ep.span(Phase::LockAcquire);
                failed = ExclusiveLock::fence(layer, ep, &mut words).err().map(TxnError::from);
            }
        }

        // Release: always unlock what we hold; write back only a txn
        // that ran to its end.
        let mut writes: Vec<WriteBack<'_>> = Vec::new();
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
            ExclusiveLock::release_set(layer, ep, &writes, &mut words)
        };
        if ran {
            io.settle(ep, table, &uses, failed.is_none() && released.is_ok());
        }
        match failed {
            Some(e) => Err(e),
            None => released.map(|()| out).map_err(TxnError::from),
        }
    }
}

#[cfg(test)]
mod tests {
    use dsm::DsmResult;
    use rdma_sim::{Endpoint, FaultPlan, Metric};

    use super::*;
    use crate::locks::{LockError, Rider};
    use crate::protocols::testutil::{
        bank_invariant_holds, bank_invariant_holds_as, crash_group_1_after, table, timed_table,
    };
    use crate::protocols::{DirectIo, KeyUse, PayloadIo};
    use crate::table::RecordTable;

    /// A lease no test outlives: 500 virtual ms.
    const LEASE: u64 = 500_000_000;

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
        // The contention profile is a fold over the flight recorder.
        ep.enable_flight_recorder(64);
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 7 };
        let cc = TwoPhaseLocking::exclusive();
        let err = cc.execute(&ctx, &rmw_each(&[0, 1, 2, 3])).unwrap_err();
        assert_eq!(err, TxnError::Aborted("lock-busy"));
        let s = ep.stats();
        // Word 2 lost in the acquire doorbell and on every rung.
        let retries = TwoPhaseLocking::MAX_RETRIES as u64;
        assert_eq!(s.cas_failures, retries + 1);
        assert_eq!(s.cas, 4 + retries);
        assert_eq!(s.reads, s.cas, "each CAS brought its payload READ");
        // Acquire doorbell, one doorbell per rung, one release doorbell
        // of three unlocks and no write-back.
        assert_eq!(s.wire_round_trips(), 1 + retries + 1);
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
        t.layer().fabric().install_fault_plan(FaultPlan::new().transient_first_n(second, 1));
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 7 };
        cc.execute(&ctx, &rmw_each(&[0, 1])).unwrap();
        let s = ep.stats();
        assert_eq!((s.cas, s.cas_failures, s.writes), (2, 0, 2), "each write-back freed its lock");
        assert_eq!((word_and_counter(&t, 0), word_and_counter(&t, 1)), ((0, 1), (0, 1)));

        // Release: the acquire doorbell is pre-flighted at t = 0, the
        // release doorbell inside the partition, its retry after it.
        let t = timed_table(1);
        t.layer()
            .fabric()
            .install_fault_plan(FaultPlan::new().partition(second, 1, 12_000));
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 7 };
        cc.execute(&ctx, &rmw_each(&[0, 1])).unwrap();
        assert!(ep.clock().now_ns() > 12_000, "the release waited the partition out");
        let s = ep.stats();
        assert_eq!((s.cas, s.writes), (2, 2), "nothing was written or unlocked twice");
        assert_eq!((word_and_counter(&t, 0), word_and_counter(&t, 1)), ((0, 1), (0, 1)));
    }

    /// Also guards `release_set`'s fallback: when the release doorbell
    /// cannot be posted, every word it would have freed on a reachable
    /// node is freed on its own — by a CAS from the word installed, a
    /// lease's included.
    #[test]
    fn a_crash_between_the_doorbells_leaves_no_word_held_on_a_reachable_node() {
        for worker_tag in [7, LeaseLock::tag(7, 1, LEASE)] {
            let t = timed_table(1);
            let dead = t.lock_addr(1).node();
            // Group 1 disappears right after the acquire doorbell left; a
            // leased set finds out at its fence.
            t.layer().fabric().install_fault_plan(FaultPlan::new().crash(dead, 1, u64::MAX));
            let ep = t.layer().fabric().endpoint();
            let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag };
            let err = TwoPhaseLocking::exclusive()
                .execute(&ctx, &rmw_each(&[0, 1, 2, 3]))
                .unwrap_err();
            assert_eq!(err, TxnError::NodeUnavailable { node: dead });
            // The write-back could not be posted, so nothing of it landed;
            // the words on the live group came free one by one.
            for key in [0, 2] {
                assert_eq!(word_and_counter(&t, key), (0, 0), "key {key}");
            }
            for key in [1, 3] {
                assert_eq!(LeaseLock::holder(word_and_counter(&t, key).0), 7, "key {key} is beyond reach");
            }
        }
    }

    #[test]
    fn a_failed_unlock_does_not_leak_the_other_locks() {
        for cc in [TwoPhaseLocking::exclusive(), TwoPhaseLocking::shared_exclusive()] {
            // Group 1 dies as key 1's payload READ returns, with every lock
            // held: its unlocks fail, group 0's must not be skipped.
            let ops = [Op::Read(0), Op::Read(1), Op::Read(2), Op::Read(3)];
            let key_1s_payload = |t: &RecordTable, e: &rdma_sim::Event| e.addr == t.payload_addr(1, 0).to_raw();
            let t = crash_group_1_after(1, key_1s_payload, |t, ep| {
                cc.execute(&TxnCtx { ep, table: t, io: &DirectIo, worker_tag: 7 }, &ops)
            });
            for key in [0, 2] {
                assert_eq!(word_and_counter(&t, key).0, 0, "{}: key {key} leaked", cc.name());
            }
        }
    }

    #[test]
    fn exclusive_2pl_preserves_bank_invariant() {
        let t = table(16, 16, 1);
        bank_invariant_holds(&TwoPhaseLocking::exclusive(), &t, 4, 300);
    }

    #[test]
    fn leased_2pl_preserves_bank_invariant() {
        let t = table(16, 16, 1);
        bank_invariant_holds_as(&TwoPhaseLocking::exclusive(), &t, 4, 300, |id| LeaseLock::tag(id as u16, 1, LEASE));
    }

    #[test]
    fn held_unexpired_lock_aborts_with_timeout() {
        let t = table(4, 16, 1);
        let owner = t.layer().fabric().endpoint();
        ExclusiveLock::acquire(t.layer(), &owner, t.lock_addr(2), LeaseLock::tag(42, 1, LEASE), 0).unwrap();
        let ep = t.layer().fabric().endpoint();
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: LeaseLock::tag(7, 1, LEASE) };
        let err = TwoPhaseLocking::exclusive().execute(&ctx, &[Op::Rmw { key: 2, delta: 1 }]).unwrap_err();
        assert_eq!(err, TxnError::Aborted("lock-busy"));
    }

    #[test]
    fn expired_lock_is_stolen_and_counted() {
        let t = table(4, 16, 1);
        let crashed = t.layer().fabric().endpoint();
        // A "crashed" session holding key 2 with a 50 µs lease.
        ExclusiveLock::acquire(t.layer(), &crashed, t.lock_addr(2), LeaseLock::tag(42, 1, 50_000), 0).unwrap();
        let ep = t.layer().fabric().endpoint();
        ep.charge_local(10_000_000); // sail past the lease
        ep.enable_timeseries(1_000_000);
        let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: LeaseLock::tag(7, 1, LEASE) };
        TwoPhaseLocking::exclusive().execute(&ctx, &[Op::Rmw { key: 2, delta: 5 }]).unwrap();
        assert_eq!(ep.series_snapshot().total(Metric::LockSteals), 1, "the takeover must be counted");
        // And the lock is free again afterwards.
        assert_eq!(t.layer().read_u64(&ep, t.lock_addr(2)).unwrap(), 0);
    }

    /// [`DirectIo`], except that the owner stalls at one step — once every
    /// lock is won (`admit`), or once its fence passed (`retire`) — and
    /// the closure runs meanwhile.
    struct Stall<F>(&'static str, F);

    impl<F: Fn() + Send + Sync> PayloadIo for Stall<F> {
        fn ride<'a>(&self, table: &RecordTable, uses: &mut [KeyUse], buf: &'a mut [u8], riders: &mut Vec<Rider<'a>>) {
            DirectIo.ride(table, uses, buf, riders);
        }

        fn admit(&self, _: &Endpoint, _: &RecordTable, _: &mut [KeyUse], _: &mut [u8]) -> DsmResult<()> {
            if self.0 == "admit" {
                (self.1)();
            }
            Ok(())
        }

        fn retire<'a>(
            &self,
            ep: &Endpoint,
            table: &RecordTable,
            uses: &[KeyUse],
            buf: &'a mut [u8],
            writes: &mut Vec<WriteBack<'a>>,
        ) -> DsmResult<()> {
            if self.0 == "retire" {
                (self.1)();
            }
            DirectIo.retire(ep, table, uses, buf, writes)
        }
    }

    /// A thief whose clock runs far ahead of a live owner's takes `key`
    /// of `t`, or fails to.
    fn steal(t: &RecordTable, key: u64) -> Result<(), LockError> {
        let thief = t.layer().fabric().endpoint();
        thief.charge_local(60_000_000_000); // minutes later
        ExclusiveLock::acquire(t.layer(), &thief, t.lock_addr(key), LeaseLock::tag(999, 1, LEASE), 0)
    }

    /// The owner stalls between taking its locks and running its ops, long
    /// enough for a thief to steal its expired lease of key 2: a
    /// transaction that writes must find the stolen word at its fence and
    /// write nothing; one that only read finds it at its unlock, and
    /// aborts too.
    #[test]
    fn zombie_owner_is_fenced_at_commit_and_writes_nothing() {
        let cc = TwoPhaseLocking::exclusive();
        let t = table(4, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let io = Stall("admit", || steal(&t, 2).expect("steal must succeed: lease long expired"));
        let ctx = TxnCtx { ep: &ep, table: &t, io: &io, worker_tag: LeaseLock::tag(7, 1, 10_000) };
        let err = cc.execute(&ctx, &[Op::Rmw { key: 2, delta: 100 }, Op::Rmw { key: 3, delta: 1 }]).unwrap_err();
        assert_eq!(err, TxnError::Aborted("lease-stolen"));
        for key in [2, 3] {
            assert_eq!(word_and_counter(&t, key).1, 0, "fenced transaction must not write key {key}");
        }
        // The thief still owns the word (we did not clear it); key 3 is free.
        assert_eq!(LeaseLock::decode(word_and_counter(&t, 2).0).0, 999);
        assert_eq!(word_and_counter(&t, 3).0, 0);

        let t = table(4, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let io = Stall("admit", || steal(&t, 2).unwrap());
        let ctx = TxnCtx { ep: &ep, table: &t, io: &io, worker_tag: LeaseLock::tag(7, 1, 10_000) };
        assert_eq!(cc.execute(&ctx, &[Op::Read(2)]).unwrap_err(), TxnError::Aborted("lease-stolen"));
        assert_eq!(LeaseLock::decode(word_and_counter(&t, 2).0).0, 999);
    }

    /// The lost update leased 2PL let through: an owner passed its fence
    /// and, before its write-back landed, a thief whose clock ran far ahead
    /// took the lease and read the old value. A sealed word turns the
    /// thief away, and the owner's write-back stands.
    #[test]
    fn a_thief_after_the_fence_cannot_take_the_word_before_the_write_back() {
        let t = table(4, 16, 1);
        let ep = t.layer().fabric().endpoint();
        let io = Stall("retire", || assert_eq!(steal(&t, 2), Err(LockError::Busy)));
        let ctx = TxnCtx { ep: &ep, table: &t, io: &io, worker_tag: LeaseLock::tag(7, 1, 10_000) };
        TwoPhaseLocking::exclusive().execute(&ctx, &[Op::Rmw { key: 2, delta: 100 }]).unwrap();
        assert_eq!(word_and_counter(&t, 2), (0, 100));
    }

    #[test]
    fn shared_exclusive_2pl_preserves_bank_invariant() {
        let t = table(16, 16, 1);
        bank_invariant_holds(&TwoPhaseLocking::shared_exclusive(), &t, 4, 200);
    }

    /// A key in a migration's dual window takes a committed write on both
    /// homes, the new one first: the committed home's WRITE, which frees
    /// the lock, is the last of the release doorbell.
    #[test]
    fn a_write_lands_on_both_homes_of_a_dual_homed_key() {
        for cc in [TwoPhaseLocking::exclusive(), TwoPhaseLocking::shared_exclusive()] {
            let t = table(4, 16, 1);
            let ep = t.layer().fabric().endpoint();
            t.begin_migration(t.layer().join_group(1 << 20, 1), 0, 4).unwrap();
            while t.migrate_chunk(&ep, 4).unwrap() > 0 {}
            let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 7 };
            ep.enable_flight_recorder(64);
            cc.execute(&ctx, &[Op::Rmw { key: 2, delta: 5 }]).unwrap();
            let (old, new) = t.dual_payload_addrs(2, 0).expect("dual-homed");
            for home in [old, new] {
                assert_eq!(t.layer().read_u64(&ep, home).unwrap(), 5, "{}", cc.name());
            }
            let writes: Vec<u64> = (ep.flight_events().iter())
                .filter(|e| e.kind == rdma_sim::EventKind::Verb(rdma_sim::OpKind::Write))
                .map(|e| e.addr)
                .collect();
            assert_eq!(writes, [new.to_raw(), old.to_raw()], "{}", cc.name());
        }
    }

    /// Two sessions take turns with read-modify-writes of one dual-homed
    /// key, each reading the new home behind its CAS: the lock comes free
    /// only once both homes hold the last write, so no update is lost.
    #[test]
    fn dual_homed_read_modify_writes_lose_no_update() {
        const ROUNDS: i64 = 2_000;
        let t = table(4, 16, 1);
        let ep = t.layer().fabric().endpoint();
        t.begin_migration(t.layer().join_group(1 << 20, 1), 0, 4).unwrap();
        while t.migrate_chunk(&ep, 4).unwrap() > 0 {}
        let cc = TwoPhaseLocking::exclusive();
        std::thread::scope(|s| {
            for tag in 1..=2 {
                let (t, cc) = (&t, &cc);
                s.spawn(move || {
                    let ep = t.layer().fabric().endpoint();
                    let ctx = TxnCtx { ep: &ep, table: t, io: &DirectIo, worker_tag: tag };
                    let mut done = 0;
                    while done < ROUNDS {
                        match cc.execute(&ctx, &[Op::Rmw { key: 2, delta: 1 }]) {
                            Ok(_) => done += 1,
                            Err(TxnError::Aborted(_)) => std::thread::yield_now(),
                            Err(e) => panic!("{e}"),
                        }
                    }
                });
            }
        });
        let (old, new) = t.dual_payload_addrs(2, 0).expect("dual-homed");
        for home in [old, new] {
            assert_eq!(t.layer().read_u64(&ep, home).unwrap() as i64, 2 * ROUNDS);
        }
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
