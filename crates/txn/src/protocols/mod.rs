//! Concurrency-control protocols over the simulated RDMA fabric.
//!
//! §4 Challenge 6: "A systematic evaluation of different concurrency
//! control protocols over RDMA is necessary." The four classical families
//! are implemented against the same [`RecordTable`]:
//!
//! * [`TwoPhaseLocking`] — lock-based, with either the 1-RT exclusive
//!   spinlock everywhere or shared-exclusive (2-RT) locks for reads;
//! * [`Occ`] — optimistic with version validation (the Sherman-style
//!   choice for RDMA);
//! * [`Tso`] — timestamp ordering with rts/wts words;
//! * [`Mvcc`] — multi-version with a small in-record version ring;
//!   read-only transactions never abort.
//!
//! All of them acquire locks in sorted key order (no deadlocks) and use
//! no-wait semantics with bounded retries — blocking on a remote lock
//! wastes round trips, so an abort-and-retry at the workload layer is the
//! standard RDMA choice.

mod mvcc;
mod occ;
mod tpl;
mod tpl_leased;
mod tso;

pub use mvcc::Mvcc;
pub use occ::Occ;
pub use tpl::TwoPhaseLocking;
pub use tpl_leased::LeasedTpl;
pub use tso::Tso;

use dsm::{DsmError, DsmResult, GlobalAddr};
use rdma_sim::{Endpoint, Phase};

use crate::locks::{ExclusiveLock, LockError, Rider};
use crate::table::RecordTable;

/// One operation inside a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read the record's payload.
    Read(u64),
    /// Overwrite the record's payload.
    Update {
        /// Record key.
        key: u64,
        /// New payload (must be `payload_size` bytes).
        value: Vec<u8>,
    },
    /// Read-modify-write: add `delta` to the i64 in payload bytes 0..8.
    Rmw {
        /// Record key.
        key: u64,
        /// Signed delta applied to the leading counter.
        delta: i64,
    },
}

impl Op {
    /// The key the op touches.
    pub fn key(&self) -> u64 {
        match *self {
            Op::Read(k) | Op::Update { key: k, .. } | Op::Rmw { key: k, .. } => k,
        }
    }

    /// True if the op writes.
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Read(_))
    }
}

/// What a committed transaction returns.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TxnOutput {
    /// `(key, payload)` for every `Read` and `Rmw` (pre-modification
    /// value for `Rmw`), in op order.
    pub reads: Vec<(u64, Vec<u8>)>,
}

/// Why a transaction did not commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// CC-level abort; retry is safe. The label names the rule that fired.
    Aborted(&'static str),
    /// A node the transaction must reach is down: the transaction aborted
    /// cleanly (no partial state) and retry only helps after recovery.
    NodeUnavailable {
        /// The unreachable fabric node (a mirror-group primary when the
        /// whole group is out).
        node: u16,
    },
    /// Infrastructure failure; retry may not help.
    Dsm(DsmError),
}

/// Typed abort-cause taxonomy. One place owns the mapping from CC
/// abort labels to causes, so the bench tally and the per-window
/// abort metrics can never drift apart. `cause as usize` indexes
/// [`AbortCause::NAMES`] and every per-cause tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// A no-wait lock was held by someone else for the whole retry
    /// budget (`lock-busy`, and the sharded engine's local lock table).
    LockBusy,
    /// The lock holder never released within the bounded-retry budget
    /// (likely crashed or stalled).
    LockTimeout,
    /// Commit-time validation failed: OCC read-set drift, TSO/MVCC
    /// version conflicts.
    ValidationFail,
    /// A lease expired mid-transaction and another worker stole the
    /// lock; the ex-owner must not commit.
    LeaseStolen,
    /// A node the transaction must reach is down.
    NodeUnavailable,
    /// A transient fabric fault leaked past the DSM retry budget.
    Transient,
    /// Anything else (unclassified CC labels, infrastructure errors).
    Other,
}

impl AbortCause {
    /// Report name of every cause, in declaration order.
    pub const NAMES: [&'static str; 7] = [
        "lock_busy",
        "lock_timeout",
        "validation_fail",
        "lease_stolen",
        "node_unavailable",
        "transient",
        "other",
    ];
}

impl TxnError {
    /// Classify this abort under the typed taxonomy.
    pub fn cause(&self) -> AbortCause {
        match self {
            TxnError::NodeUnavailable { .. } => AbortCause::NodeUnavailable,
            TxnError::Aborted(why) => match *why {
                "lock-busy" | "local-lock-busy" => AbortCause::LockBusy,
                "lock-timeout" => AbortCause::LockTimeout,
                "lease-stolen" => AbortCause::LeaseStolen,
                "transient-fault" => AbortCause::Transient,
                w if w.starts_with("validate-")
                    || w.starts_with("tso-")
                    || w.starts_with("mvcc-") =>
                {
                    AbortCause::ValidationFail
                }
                _ => AbortCause::Other,
            },
            TxnError::Dsm(_) => AbortCause::Other,
        }
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Aborted(why) => write!(f, "transaction aborted: {why}"),
            TxnError::NodeUnavailable { node } => {
                write!(f, "transaction aborted: node {node} unavailable")
            }
            TxnError::Dsm(e) => write!(f, "transaction failed: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<DsmError> for TxnError {
    fn from(e: DsmError) -> Self {
        match e {
            // Hard unreachability becomes the typed degradation signal.
            DsmError::Rdma(rdma_sim::RdmaError::NodeUnreachable(n)) => {
                TxnError::NodeUnavailable { node: n }
            }
            DsmError::GroupUnavailable { primary } => {
                TxnError::NodeUnavailable { node: primary }
            }
            // A transient that leaked through the DSM retry budget is a
            // clean retryable abort at the transaction level.
            e if e.is_transient() => TxnError::Aborted("transient-fault"),
            e => TxnError::Dsm(e),
        }
    }
}

impl From<LockError> for TxnError {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Busy => TxnError::Aborted("lock-busy"),
            LockError::Timeout => TxnError::Aborted("lock-timeout"),
            LockError::Stolen => TxnError::Aborted("lease-stolen"),
            LockError::ReleaseViolation(_) => TxnError::Aborted("lock-release-violation"),
            LockError::Dsm(e) => e.into(),
        }
    }
}

/// How one transaction under exclusive locks uses one of its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyUse {
    /// The record.
    pub key: u64,
    /// Some op writes the key.
    pub written: bool,
    /// The key's first op observes the value from before the transaction
    /// (it is not a blind [`Op::Update`]).
    pub reads_old: bool,
    /// The [`PayloadIo`]'s own note from one step to the next: the key's
    /// bytes in the transaction's buffer came from DSM, not from a cache.
    pub fetched: bool,
}

/// The distinct keys of `ops`, sorted, each with how `ops` use it.
pub(crate) fn key_uses(ops: &[Op]) -> Vec<KeyUse> {
    let mut uses: Vec<KeyUse> = Vec::with_capacity(ops.len());
    for op in ops {
        match uses.iter_mut().find(|u| u.key == op.key()) {
            Some(u) => u.written |= op.is_write(),
            None => uses.push(KeyUse {
                key: op.key(),
                written: op.is_write(),
                reads_old: !matches!(op, Op::Update { .. }),
                fetched: false,
            }),
        }
    }
    uses.sort_unstable_by_key(|u| u.key);
    uses
}

/// How protocols reach record payloads. Lock words always go straight to
/// DSM — synchronization state cannot be cached — but payload bytes may be
/// served by a compute-node cache (Figure 3b/c). The engine crate supplies
/// cached implementations; [`DirectIo`] is the no-cache Figure 3a path.
///
/// There are two ways in. A protocol that works key by key calls
/// [`read_payload`](PayloadIo::read_payload) and
/// [`write_payload`](PayloadIo::write_payload). A protocol that holds a
/// whole exclusive lock set ([`TwoPhaseLocking`]) moves the payloads
/// inside its own two doorbells instead and asks the io three things, in
/// order, about the set's [`KeyUse`]s; the provided answers fall back on
/// the two calls above. A read-only set is first offered to
/// [`read_unlocked`](PayloadIo::read_unlocked), which may serve it with no
/// lock at all. All of them see one buffer, one chunk of
/// [`header_len`](PayloadIo::header_len)` + payload_size` bytes per key in
/// key order: the io's header bytes, then the transaction's copy of the
/// payload.
pub trait PayloadIo: Send + Sync {
    /// Read version `v`'s payload of `key` into `dst`.
    fn read_payload(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        key: u64,
        v: usize,
        dst: &mut [u8],
    ) -> DsmResult<()>;

    /// Write version `v`'s payload of `key`.
    fn write_payload(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        key: u64,
        v: usize,
        src: &[u8],
    ) -> DsmResult<()>;

    /// Bytes the io keeps for itself in front of each key's payload copy.
    fn header_len(&self) -> usize {
        0
    }

    /// Step 0, for a set no op writes, before any lock is taken: copy
    /// every key's committed payload into its chunk of `buf` without a
    /// lock or a verb, as of one instant, and return true — or copy
    /// nothing and return false, and the set takes the lock path. The
    /// provided answer is false.
    fn read_unlocked(&self, _ep: &Endpoint, _table: &RecordTable, _uses: &[KeyUse], _buf: &mut [u8]) -> bool {
        false
    }

    /// Step 1, before any lock is taken: the READs that ride the acquire
    /// doorbell behind each key's lock CAS, fetching into the key's chunk
    /// of `buf`.
    fn ride<'a>(
        &self,
        _table: &RecordTable,
        _uses: &mut [KeyUse],
        _buf: &'a mut [u8],
        _riders: &mut Vec<Rider<'a>>,
    ) {
    }

    /// Step 2, once every lock is won: see that each key whose old value
    /// is observed has it in its payload copy.
    fn admit(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        uses: &mut [KeyUse],
        buf: &mut [u8],
    ) -> DsmResult<()> {
        let hdr = self.header_len();
        let chunks = buf.chunks_exact_mut(hdr + table.payload_size());
        for (u, chunk) in uses.iter().zip(chunks).filter(|(u, _)| u.reads_old) {
            let _span = ep.span(Phase::PageFetch);
            self.read_payload(ep, table, u.key, 0, &mut chunk[hdr..])?;
        }
        Ok(())
    }

    /// Step 3, after the ops ran on the copies and before the release
    /// doorbell: do what a committed transaction owes beyond that doorbell
    /// and append to `writes` what must ride it, ahead of the unlocks.
    fn retire<'a>(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        uses: &[KeyUse],
        buf: &'a mut [u8],
        _writes: &mut Vec<(GlobalAddr, &'a [u8])>,
    ) -> DsmResult<()> {
        let hdr = self.header_len();
        let chunks = buf.chunks_exact(hdr + table.payload_size());
        for (u, chunk) in uses.iter().zip(chunks).filter(|(u, _)| u.written) {
            let _span = ep.span(Phase::Writeback);
            self.write_payload(ep, table, u.key, 0, &chunk[hdr..])?;
        }
        Ok(())
    }

    /// Step 4, once [`retire`](PayloadIo::retire) ran: the release doorbell
    /// returned and what the transaction wrote is committed, or one of the
    /// two failed and nothing the transaction left on this node may
    /// outlive it.
    fn settle(&self, _ep: &Endpoint, _table: &RecordTable, _uses: &[KeyUse], _committed: bool) {}
}

/// Payload access via plain one-sided verbs (Figure 3a: no cache).
pub struct DirectIo;

impl PayloadIo for DirectIo {
    fn read_payload(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        key: u64,
        v: usize,
        dst: &mut [u8],
    ) -> DsmResult<()> {
        table.layer().read(ep, table.payload_read_addr(key, v), dst)
    }

    fn write_payload(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        key: u64,
        v: usize,
        src: &[u8],
    ) -> DsmResult<()> {
        let (old, dual) = table.payload_write_targets(key, v);
        table.layer().write(ep, old, src)?;
        if let Some(new) = dual {
            table.layer().write(ep, new, src)?;
        }
        Ok(())
    }

    /// Every key's payload READ rides its lock CAS.
    fn ride<'a>(
        &self,
        table: &RecordTable,
        uses: &mut [KeyUse],
        buf: &'a mut [u8],
        riders: &mut Vec<Rider<'a>>,
    ) {
        let copies = buf.chunks_exact_mut(table.payload_size());
        riders.extend(uses.iter().zip(copies).enumerate().map(|(word, (u, dst))| Rider {
            word,
            addr: table.payload_read_addr(u.key, 0),
            dst,
        }));
    }

    fn admit(&self, _: &Endpoint, _: &RecordTable, _: &mut [KeyUse], _: &mut [u8]) -> DsmResult<()> {
        Ok(())
    }

    /// Every written key's payload rides the release doorbell.
    fn retire<'a>(
        &self,
        _ep: &Endpoint,
        table: &RecordTable,
        uses: &[KeyUse],
        buf: &'a mut [u8],
        writes: &mut Vec<(GlobalAddr, &'a [u8])>,
    ) -> DsmResult<()> {
        let buf: &'a [u8] = buf;
        let copies = buf.chunks_exact(table.payload_size());
        for (u, copy) in uses.iter().zip(copies).filter(|(u, _)| u.written) {
            let (old, dual) = table.payload_write_targets(u.key, 0);
            writes.push((old, copy));
            writes.extend(dual.map(|new| (new, copy)));
        }
        Ok(())
    }
}

/// Everything a protocol needs to run one transaction.
pub struct TxnCtx<'a> {
    /// The worker's endpoint (clock + stats).
    pub ep: &'a Endpoint,
    /// The table the transaction operates on.
    pub table: &'a RecordTable,
    /// Payload access path (direct or cached).
    pub io: &'a dyn PayloadIo,
    /// Nonzero unique tag for lock ownership.
    pub worker_tag: u64,
}

/// A concurrency-control protocol.
pub trait ConcurrencyControl: Send + Sync {
    /// Protocol name for experiment output.
    fn name(&self) -> &'static str;
    /// Execute one transaction; `Err(Aborted)` means retry-able conflict.
    fn execute(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError>;
    /// Expired-lease locks stolen from crashed/stalled owners so far
    /// (only nonzero for lease-based protocols).
    fn steals(&self) -> u64 {
        0
    }
}

/// Apply an [`Op::Rmw`] delta to a payload buffer in place.
pub(crate) fn apply_delta(payload: &mut [u8], delta: i64) {
    let cur = i64::from_le_bytes(payload[0..8].try_into().expect("payload >= 8 bytes"));
    payload[0..8].copy_from_slice(&(cur + delta).to_le_bytes());
}

/// Take the exclusive lock of every key in `keys`, in order, each on its
/// own CAS ladder, and stop at the first that fails. Returns how many
/// leading keys are now held — give them back with [`release_all`]
/// whatever happens — and the failure. Opens no span: the time goes to
/// the caller's phase.
pub(crate) fn lock_all(ctx: &TxnCtx<'_>, keys: &[u64], max_retries: u32) -> (usize, Option<TxnError>) {
    for (held, &key) in keys.iter().enumerate() {
        let lock = ctx.table.lock_addr(key);
        if let Err(e) = ExclusiveLock::acquire(ctx.table.layer(), ctx.ep, lock, ctx.worker_tag, max_retries) {
            return (held, Some(e.into()));
        }
    }
    (keys.len(), None)
}

/// Release the exclusive lock of every key in `locked`, last taken
/// first. Every release is attempted — one that fails must not leave the
/// rest held, as there is no lease to expire them — and the first failure
/// lands in `failed` unless it already holds one.
pub(crate) fn release_all(ctx: &TxnCtx<'_>, locked: &[u64], failed: &mut Option<TxnError>) {
    let _span = ctx.ep.span(Phase::LockAcquire);
    for &key in locked.iter().rev() {
        if let Err(e) = ExclusiveLock::release(ctx.table.layer(), ctx.ep, ctx.table.lock_addr(key)) {
            failed.get_or_insert(e.into());
        }
    }
}

/// Sorted, deduplicated keys of `ops`.
pub(crate) fn distinct_keys<'a>(ops: impl Iterator<Item = &'a Op>) -> Vec<u64> {
    let mut keys: Vec<u64> = ops.map(Op::key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Sorted, deduplicated keys of the full set and of the write set.
pub(crate) fn key_sets(ops: &[Op]) -> (Vec<u64>, Vec<u64>) {
    (
        distinct_keys(ops.iter()),
        distinct_keys(ops.iter().filter(|o| o.is_write())),
    )
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use dsm::{DsmConfig, DsmLayer};
    use rdma_sim::{Fabric, NetworkProfile, NodeId};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A small striped table on a zero-latency fabric (tests assert
    /// semantics, not timing).
    pub fn table(n_records: u64, payload: usize, versions: usize) -> Arc<RecordTable> {
        let fabric = Fabric::new(NetworkProfile::zero());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 2,
                capacity_per_node: 8 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        Arc::new(RecordTable::create(&layer, n_records, payload, versions).unwrap())
    }

    /// Eight 16-byte records of `versions` versions striped over two
    /// unreplicated groups (even keys on group 0) of a ConnectX-6 fabric,
    /// so tests can place faults in virtual time.
    pub fn timed_table(versions: usize) -> Arc<RecordTable> {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 2,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        Arc::new(RecordTable::create(&layer, 8, 16, versions).unwrap())
    }

    /// [`DirectIo`] behind a cache's face, crashing `node` once `calls`
    /// payload calls have been served.
    pub struct CrashAfter {
        pub node: NodeId,
        pub calls: AtomicUsize,
    }

    impl CrashAfter {
        fn served(&self, ep: &Endpoint) {
            if self.calls.fetch_sub(1, Ordering::Relaxed) == 1 {
                ep.fabric().crash(self.node).unwrap();
            }
        }
    }

    impl PayloadIo for CrashAfter {
        fn read_payload(&self, ep: &Endpoint, table: &RecordTable, key: u64, v: usize, dst: &mut [u8]) -> DsmResult<()> {
            DirectIo.read_payload(ep, table, key, v, dst)?;
            self.served(ep);
            Ok(())
        }

        fn write_payload(&self, ep: &Endpoint, table: &RecordTable, key: u64, v: usize, src: &[u8]) -> DsmResult<()> {
            DirectIo.write_payload(ep, table, key, v, src)?;
            self.served(ep);
            Ok(())
        }
    }

    /// One Rmw on each of keys 0..4 of `t` (a [`timed_table`]) under
    /// `cc`, with group 1 dying under the write phase, right after key 1's
    /// payload landed: its unlocks fail, and group 0's must not be
    /// skipped.
    pub fn a_failed_unlock_leaves_no_reachable_lock_held<C: ConcurrencyControl>(cc: &C, t: &RecordTable) {
        let dead = t.lock_addr(1).node();
        let ep = t.layer().fabric().endpoint();
        let io = CrashAfter { node: dead, calls: AtomicUsize::new(2) };
        let ctx = TxnCtx { ep: &ep, table: t, io: &io, worker_tag: 7 };
        let ops: Vec<Op> = (0..4).map(|key| Op::Rmw { key, delta: 1 }).collect();
        let err = cc.execute(&ctx, &ops).unwrap_err();
        assert_eq!(err, TxnError::NodeUnavailable { node: dead }, "{}", cc.name());
        // The dead node's words stay held (their unlocks failed); the
        // reachable node's were all freed.
        for (key, left) in [(0, 0), (1, 7), (2, 0), (3, 7)] {
            let lock = t.lock_addr(key);
            let word = t.layer().fabric().region(lock.node()).unwrap().read_u64(lock.offset()).unwrap();
            assert_eq!(word, left, "{}: key {key}", cc.name());
        }
    }

    /// Run `threads` workers, each executing `txns_per_worker` transfer
    /// transactions between random account pairs, retrying aborts. Then
    /// assert the total balance is conserved. This is the serializability
    /// smoke test every protocol must pass.
    pub fn bank_invariant_holds<C: ConcurrencyControl>(
        cc: &C,
        table: &Arc<RecordTable>,
        threads: u64,
        txns_per_worker: u64,
    ) {
        let n = table.n_records();
        std::thread::scope(|s| {
            for t in 0..threads {
                let table = table.clone();
                s.spawn(move || {
                    let ep = table.layer().fabric().endpoint();
                    let ctx = TxnCtx {
                        ep: &ep,
                        table: &table,
                        io: &DirectIo,
                        worker_tag: t + 1,
                    };
                    let mut rng_state = 0x1234_5678u64.wrapping_add(t);
                    let mut rand = move || {
                        rng_state ^= rng_state << 13;
                        rng_state ^= rng_state >> 7;
                        rng_state ^= rng_state << 17;
                        rng_state
                    };
                    for _ in 0..txns_per_worker {
                        let a = rand() % n;
                        let mut b = rand() % n;
                        while b == a {
                            b = rand() % n;
                        }
                        let ops = [
                            Op::Rmw { key: a, delta: -5 },
                            Op::Rmw { key: b, delta: 5 },
                        ];
                        // Retry until commit.
                        loop {
                            match cc.execute(&ctx, &ops) {
                                Ok(_) => break,
                                Err(TxnError::Aborted(_)) => {
                                    std::thread::yield_now();
                                    continue;
                                }
                                Err(e) => panic!("unexpected {e}"),
                            }
                        }
                    }
                });
            }
        });
        // Sum all balances (latest version per record).
        let ep = table.layer().fabric().endpoint();
        let ctx = TxnCtx {
            ep: &ep,
            table,
            io: &DirectIo,
            worker_tag: 999,
        };
        let mut total: i64 = 0;
        for k in 0..n {
            let out = cc
                .execute(&ctx, &[Op::Read(k)])
                .expect("read-only commit");
            total += i64::from_le_bytes(out.reads[0].1[0..8].try_into().unwrap());
        }
        assert_eq!(total, 0, "{}: money leaked", cc.name());
    }
}
