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

use std::collections::BTreeMap;

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

/// How exclusive 2PL reaches record payloads. Lock words always go
/// straight to DSM — synchronization state cannot be cached — but payload
/// bytes may be served by a compute-node cache (Figure 3b). [`DirectIo`]
/// is the no-cache Figure 3a path; the engine crate supplies the coherent
/// one. Every other protocol runs in 3a only and goes to the
/// [`RecordTable`] for its payloads.
///
/// [`TwoPhaseLocking::exclusive`] holds a whole lock set and moves the
/// payloads inside its own two doorbells: it asks the io three things, in
/// order, about the set's [`KeyUse`]s, and tells it the outcome. A
/// read-only set is first offered to
/// [`read_unlocked`](PayloadIo::read_unlocked), which may serve it with no
/// lock at all. Every step sees one buffer, one chunk of
/// [`header_len`](PayloadIo::header_len)` + payload_size` bytes per key in
/// key order: the io's header bytes, then the transaction's copy of the
/// payload. No provided step posts a verb.
pub trait PayloadIo: Send + Sync {
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
    fn ride<'a>(&self, table: &RecordTable, uses: &mut [KeyUse], buf: &'a mut [u8], riders: &mut Vec<Rider<'a>>);

    /// Step 2, once every lock is won: see that each key whose old value
    /// is observed has it in its payload copy.
    fn admit(&self, ep: &Endpoint, table: &RecordTable, uses: &mut [KeyUse], buf: &mut [u8]) -> DsmResult<()>;

    /// Step 3, after the ops ran on the copies and before the release
    /// doorbell: do what a committed transaction owes beyond that doorbell
    /// and append to `writes` what must ride it, ahead of the unlocks.
    fn retire<'a>(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        uses: &[KeyUse],
        buf: &'a mut [u8],
        writes: &mut Vec<(GlobalAddr, &'a [u8])>,
    ) -> DsmResult<()>;

    /// Step 4, once [`retire`](PayloadIo::retire) ran: the release doorbell
    /// returned and what the transaction wrote is committed, or one of the
    /// two failed and nothing the transaction left on this node may
    /// outlive it.
    fn settle(&self, _ep: &Endpoint, _table: &RecordTable, _uses: &[KeyUse], _committed: bool) {}
}

/// Payload access via plain one-sided verbs (Figure 3a: no cache).
pub struct DirectIo;

impl PayloadIo for DirectIo {
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
            writes.extend(table.payload_writes(u.key, 0, copy));
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
    /// The payload path exclusive 2PL drives: [`DirectIo`] in 3a, the
    /// node's coherent cache in 3b. The other protocols ignore it.
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

/// Apply an [`Op::Rmw`] delta to a payload buffer in place. The counter
/// wraps at the ends of `i64`, as a fetch-and-add on its word does.
pub fn apply_delta(payload: &mut [u8], delta: i64) {
    let cur = i64::from_le_bytes(payload[0..8].try_into().expect("payload >= 8 bytes"));
    payload[0..8].copy_from_slice(&cur.wrapping_add(delta).to_le_bytes());
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
pub fn distinct_keys<'a>(ops: impl IntoIterator<Item = &'a Op>) -> Vec<u64> {
    let mut keys: Vec<u64> = ops.into_iter().map(Op::key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Sorted, deduplicated keys of the full set and of the write set.
pub(crate) fn key_sets(ops: &[Op]) -> (Vec<u64>, Vec<u64>) {
    (distinct_keys(ops), distinct_keys(ops.iter().filter(|o| o.is_write())))
}

/// A timestamp protocol's write to one key, staged until it installs
/// under the record's lock.
pub(crate) enum Staged {
    /// The value to install.
    Abs(Vec<u8>),
    /// A read-modify-write's delta, re-applied to the value read under the
    /// lock: installing the optimistically read value would lose a
    /// concurrent update.
    Delta(i64),
}

impl Staged {
    /// The value to install; `latest` reads the committed one under the
    /// lock, and only a delta asks for it.
    pub(crate) fn value(&self, latest: impl FnOnce() -> Result<Vec<u8>, TxnError>) -> Result<Vec<u8>, TxnError> {
        match self {
            Staged::Abs(v) => Ok(v.clone()),
            Staged::Delta(d) => latest().map(|mut v| {
                apply_delta(&mut v, *d);
                v
            }),
        }
    }
}

/// Run `ops` in program order for a timestamp protocol, staging one write
/// per key, sorted by key. Every [`Op::Read`] and [`Op::Rmw`] posts `read`,
/// the protocol's read of the committed value under its read rule, and
/// sees the key's staged write over it. An overwrite stages its value, and
/// so does a read-modify-write of a key already overwritten; any other
/// read-modify-write adds its delta.
pub(crate) fn stage(
    ops: &[Op],
    mut read: impl FnMut(u64) -> Result<Vec<u8>, TxnError>,
) -> Result<(TxnOutput, BTreeMap<u64, Staged>), TxnError> {
    let mut out = TxnOutput::default();
    let mut staged = BTreeMap::new();
    for op in ops {
        let key = op.key();
        if let Op::Update { value, .. } = op {
            staged.insert(key, Staged::Abs(value.clone()));
            continue;
        }
        let mut seen = read(key)?;
        match staged.get(&key) {
            Some(Staged::Abs(v)) => seen.clone_from(v),
            Some(Staged::Delta(d)) => apply_delta(&mut seen, *d),
            None => {}
        }
        out.reads.push((key, seen.clone()));
        if let Op::Rmw { delta, .. } = *op {
            let next = match staged.remove(&key) {
                Some(Staged::Abs(_)) => {
                    apply_delta(&mut seen, delta);
                    Staged::Abs(seen)
                }
                Some(Staged::Delta(d)) => Staged::Delta(d.wrapping_add(delta)),
                None => Staged::Delta(delta),
            };
            staged.insert(key, next);
        }
    }
    Ok((out, staged))
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use dsm::{DsmConfig, DsmLayer};
    use rdma_sim::{EventKind, Fabric, FaultPlan, NetworkProfile};
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

    /// Run `run` on a [`timed_table`] of `versions` whose group 1 crashes
    /// the moment the last verb on key 1's payload returns, timed on a
    /// fault-free twin, and see it fail with that group unavailable.
    /// Returns the table.
    pub fn crash_group_1_after_key_1s_payload(
        versions: usize,
        run: impl Fn(&RecordTable, &Endpoint) -> Result<TxnOutput, TxnError>,
    ) -> Arc<RecordTable> {
        let twin = timed_table(versions);
        let ep = twin.layer().fabric().endpoint();
        ep.enable_flight_recorder(256);
        run(&twin, &ep).expect("the twin commits");
        let payload = twin.payload_addr(1, 0).to_raw();
        let crash_at = ep
            .flight_events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Verb(_)) && e.addr == payload)
            .map(|e| e.end_ns)
            .max()
            .expect("the twin reached key 1's payload");
        let t = timed_table(versions);
        let dead = t.lock_addr(1).node();
        t.layer().fabric().install_fault_plan(FaultPlan::new(1).crash(dead, crash_at, u64::MAX));
        let ep = t.layer().fabric().endpoint();
        assert_eq!(run(&t, &ep).unwrap_err(), TxnError::NodeUnavailable { node: dead });
        t
    }

    /// One Rmw on each of keys 0..4 of a [`timed_table`] of `versions`
    /// under the protocol `make` builds, with group 1 dying under the
    /// write phase, right after key 1's payload landed: its unlocks fail,
    /// and group 0's must not be skipped.
    pub fn a_failed_unlock_leaves_no_reachable_lock_held<C: ConcurrencyControl>(
        versions: usize,
        make: impl Fn(&RecordTable) -> C,
    ) {
        let ops: Vec<Op> = (0..4).map(|key| Op::Rmw { key, delta: 1 }).collect();
        let t = crash_group_1_after_key_1s_payload(versions, |t, ep| {
            make(t).execute(&TxnCtx { ep, table: t, io: &DirectIo, worker_tag: 7 }, &ops)
        });
        // The dead node's words stay held (their unlocks failed); the
        // reachable node's were all freed.
        for (key, left) in [(0, 0), (1, 7), (2, 0), (3, 7)] {
            let lock = t.lock_addr(key);
            let word = t.layer().fabric().region(lock.node()).unwrap().read_u64(lock.offset()).unwrap();
            assert_eq!(word, left, "key {key}");
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::testutil::timed_table;
    use super::*;
    use crate::oracle::FaaOracle;

    /// Builds a protocol on its table.
    type Make = fn(&RecordTable) -> Box<dyn ConcurrencyControl>;

    /// Every protocol config, with the versions its table needs.
    fn protocols() -> [(usize, Make); 6] {
        [
            (1, |_| Box::new(TwoPhaseLocking::exclusive())),
            (1, |_| Box::new(TwoPhaseLocking::shared_exclusive())),
            (1, |_| Box::new(LeasedTpl::new(500_000_000))),
            (1, |_| Box::new(Occ::new())),
            (1, |t| Box::new(Tso::new(Arc::new(FaaOracle::new(t.layer()).unwrap())))),
            (2, |t| Box::new(Mvcc::new(Arc::new(FaaOracle::new(t.layer()).unwrap())))),
        ]
    }

    /// Run `script` on a fresh [`timed_table`] under each protocol, one
    /// session, every transaction committing; `then` sees the endpoint.
    fn each_protocol<R>(script: &[Vec<Op>], then: impl Fn(&str, &Endpoint, Vec<TxnOutput>) -> R) -> Vec<R> {
        let run = |(versions, make): (usize, Make)| {
            let t = timed_table(versions);
            let cc = make(&t);
            let ep = t.layer().fabric().endpoint();
            let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag: 7 };
            let outs = script
                .iter()
                .map(|ops| cc.execute(&ctx, ops).unwrap_or_else(|e| panic!("{}: {ops:?}: {e}", cc.name())))
                .collect();
            then(cc.name(), &ep, outs)
        };
        protocols().into_iter().map(run).collect()
    }

    fn counter(n: i64) -> Vec<u8> {
        let mut v = vec![0u8; 16];
        v[..8].copy_from_slice(&n.to_le_bytes());
        v
    }

    #[test]
    fn every_protocol_shows_a_transaction_its_own_writes() {
        let script = [
            vec![Op::Update { key: 2, value: counter(7) }, Op::Read(2), Op::Rmw { key: 2, delta: 3 }],
            vec![Op::Read(2)],
        ];
        let seen = each_protocol(&script, |name, _, outs| {
            let reads: Vec<_> = outs.into_iter().flat_map(|o| o.reads).map(|(_, v)| v).collect();
            (name.to_string(), reads)
        });
        for (name, reads) in seen {
            assert_eq!(reads, [counter(7), counter(7), counter(10)], "{name}");
        }
    }

    /// Each protocol's single-session cost on the ConnectX-6 profile for a
    /// fixed script whose transactions touch each key at most once: verbs
    /// by kind (READ, WRITE, CAS, FAA), wire round trips, bytes read and
    /// written, and the clock at the end in virtual ns. A change to how a
    /// protocol reaches the table shows here first; one that means to move
    /// a protocol's doorbells restates its row.
    #[test]
    fn every_protocol_pays_its_pinned_cost_for_one_script() {
        let script = [
            vec![Op::Rmw { key: 0, delta: 5 }, Op::Rmw { key: 1, delta: -5 }],
            vec![Op::Read(2), Op::Read(3)],
            vec![Op::Update { key: 4, value: counter(9) }, Op::Read(5), Op::Rmw { key: 6, delta: 1 }],
            vec![Op::Read(0), Op::Rmw { key: 4, delta: 2 }, Op::Read(7)],
        ];
        let runs = each_protocol(&script, |name, ep, _| {
            let s = ep.stats();
            let cost = [s.reads, s.writes, s.cas, s.faa, s.wire_round_trips(), s.bytes_read, s.bytes_written];
            (name.to_string(), cost, ep.clock().now_ns())
        });
        let pinned = [
            ("2pl-excl", [10, 15, 10, 0, 8, 160, 160], 18_150),
            ("2pl-shared", [29, 45, 20, 0, 74, 304, 400], 126_400),
            ("2pl-leased", [19, 5, 20, 0, 36, 224, 80], 63_800),
            ("occ", [20, 15, 5, 0, 40, 480, 160], 65_250),
            ("tso", [18, 15, 14, 4, 51, 504, 160], 86_109),
            ("mvcc", [23, 15, 14, 4, 56, 968, 160], 94_128),
        ];
        assert_eq!(runs, pinned.map(|(name, cost, ns)| (name.to_string(), cost, ns)));
    }
}
