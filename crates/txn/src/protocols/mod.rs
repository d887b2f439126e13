//! Concurrency-control protocols over the simulated RDMA fabric.
//!
//! §4 Challenge 6: "A systematic evaluation of different concurrency
//! control protocols over RDMA is necessary." The four classical families
//! are implemented against the same [`RecordTable`]:
//!
//! * [`TwoPhaseLocking`] — lock-based, with either the 1-RT exclusive
//!   spinlock everywhere (leased, when the worker tag is a lease) or
//!   one-word shared-exclusive locks that readers share;
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
//!
//! Every protocol holds its locks as one set
//! ([`ExclusiveLock::acquire_set`] / [`ExclusiveLock::release_set`];
//! shared-exclusive 2PL takes a key it only reads as one of the word's
//! readers, [`LockWord::reader`]) and posts a fixed number of doorbells
//! whatever its key count; only a word that lost its CAS retries alone:
//!
//! | protocol | doorbells |
//! |---|---|
//! | 2PL | {CAS + payload READ per key}, {`[payload\|lock]` per key written, unlocks of the keys only read} — leased and writing: {seal CAS per key} between the two, and every unlock a CAS of its own |
//! | 2PL shared | the same, a key only read taken as a reader: its unlock a FAA |
//! | OCC | {`[wts\|payload]` per key read}, {CAS + `[rts\|wts]` per key written}, {`lock`, then `wts`, per key only read}, {payload, `wts`, per key written, then unlocks} |
//! | TSO | oracle FAA, {`lock`, then `[rts\|wts\|payload]`, per key read}, {`rts` CAS per key read}, {CAS + `[rts\|wts]` — the payload too for a delta — per key written}, {payload, `wts`, unlocks} |
//! | MVCC | oracle FAA, {slot per key read}, {`rts` CAS + picked version's `wts` per key read}, {CAS + slot per key written}, {payload, `wts` into the oldest version, unlocks} |
//!
//! A 2PL write-back frees its key's lock: the lock word is the last word
//! of the slot, right behind the payload, and the write-back runs on into
//! it with 0 there ([`RecordTable::write_back`]). OCC, TSO and MVCC keep
//! their unlocks apart: their readers take no lock and rely on the version
//! word landing after the payload, and in front of it in the slot, so that
//! one READ sees the version before the payload; the last word such an
//! install writes is a version, never the one in front of the lock word.
//! Such a reader READs the lock word on its own, ahead of the version
//! (`read_lock_first`): in a READ of the slot it would come last, and a
//! writer could land its version and free the word in between.
//!
//! A doorbell no key needs is not posted: OCC pays 2 when read-only, 3
//! when it writes every key it reads; TSO and MVCC 2 plus the FAA when
//! read-only. **Ordering rule:** a READ that validates a key may ride
//! only behind the CAS of its own key. OCC validates a key it reads but
//! does not write in a doorbell of its own, posted once the lock doorbell
//! has returned: riding that doorbell, it could run before the CAS of
//! another key, and two transactions that each read what the other
//! writes would both pass (write skew).

mod mvcc;
mod occ;
mod tpl;
mod tso;

pub use mvcc::Mvcc;
pub use occ::Occ;
pub use tpl::TwoPhaseLocking;
pub use tso::Tso;

use std::collections::BTreeMap;

use dsm::{DsmError, DsmResult, GlobalAddr, GlobalWr};
use rdma_sim::{Endpoint, Phase};

use crate::locks::{ExclusiveLock, LockError, LockWord, Rider, WriteBack};
use crate::table::{RecordTable, VER0_OFF};

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
    /// `lock-timeout`: a lock's holders never drained within the retry
    /// budget. No lock returns it now (a busy lock is `lock-busy`); the
    /// cause stays so that every report keeps its `lock_timeout` tally.
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
            LockError::Stolen => TxnError::Aborted("lease-stolen"),
            LockError::ReleaseViolation(_) => TxnError::Aborted("lock-release-violation"),
            LockError::Dsm(e) => e.into(),
        }
    }
}

/// How one transaction uses one of its keys.
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

/// How 2PL reaches record payloads. Lock words always go straight to DSM
/// — synchronization state cannot be cached — but payload bytes may be
/// served by a compute-node cache (Figure 3b, exclusive 2PL only).
/// [`DirectIo`] is the no-cache Figure 3a path; the engine crate supplies
/// the coherent one. OCC, TSO and MVCC run in 3a only: they share the
/// lock-set path with 2PL, but move their payloads with the table's own
/// addresses (the riders and write-back of `commit_set`), not through an
/// io.
///
/// [`TwoPhaseLocking`] holds a whole lock set and moves the payloads
/// inside its own two doorbells: it asks the io three things, in order,
/// about the set's [`KeyUse`]s, and tells it the outcome. A
/// read-only set is first offered to
/// [`read_unlocked`](PayloadIo::read_unlocked), which may serve it with no
/// lock at all. Every step sees one buffer, one chunk of
/// [`header_len`](PayloadIo::header_len)` + `[`RecordTable::copy_len`]
/// bytes per key in key order: the io's header bytes, then the
/// transaction's copy of the payload, whose bytes past the payload stay 0
/// so that its [`RecordTable::write_back`] frees the key's lock. No
/// provided step posts a verb.
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
    /// of `buf`. A key whose first op is a blind overwrite
    /// ([`KeyUse::reads_old`] false) needs none.
    fn ride<'a>(&self, table: &RecordTable, uses: &mut [KeyUse], buf: &'a mut [u8], riders: &mut Vec<Rider<'a>>);

    /// Step 2, once every lock is won: see that each key whose old value
    /// is observed has it in its payload copy.
    fn admit(&self, ep: &Endpoint, table: &RecordTable, uses: &mut [KeyUse], buf: &mut [u8]) -> DsmResult<()>;

    /// Step 3, after the ops ran on the copies and before the release
    /// doorbell: do what a committed transaction owes beyond that doorbell
    /// and append to `writes` what must ride it, ahead of the unlocks: a
    /// key's [`RecordTable::write_back`] last of its writes, since it frees
    /// the key's lock.
    fn retire<'a>(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        uses: &[KeyUse],
        buf: &'a mut [u8],
        writes: &mut Vec<WriteBack<'a>>,
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
    /// The payload READ of every key whose old value is observed rides its
    /// lock CAS.
    fn ride<'a>(
        &self,
        table: &RecordTable,
        uses: &mut [KeyUse],
        buf: &'a mut [u8],
        riders: &mut Vec<Rider<'a>>,
    ) {
        let copies = buf.chunks_exact_mut(table.copy_len());
        riders.extend((uses.iter().zip(copies).enumerate()).filter(|(_, (u, _))| u.reads_old).map(|(word, (u, copy))| {
            Rider { word, addr: table.payload_read_addr(u.key, 0), dst: &mut copy[..table.payload_size()] }
        }));
    }

    fn admit(&self, _: &Endpoint, _: &RecordTable, _: &mut [KeyUse], _: &mut [u8]) -> DsmResult<()> {
        Ok(())
    }

    /// Every written key's write-back rides the release doorbell, and
    /// frees its lock.
    fn retire<'a>(
        &self,
        _ep: &Endpoint,
        table: &RecordTable,
        uses: &[KeyUse],
        buf: &'a mut [u8],
        writes: &mut Vec<WriteBack<'a>>,
    ) -> DsmResult<()> {
        let buf: &'a [u8] = buf;
        let copies = buf.chunks_exact(table.copy_len());
        for (u, copy) in uses.iter().zip(copies).filter(|(u, _)| u.written) {
            writes.extend(table.write_back(u.key, copy));
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
    /// The payload path 2PL drives: [`DirectIo`] in 3a, the node's
    /// coherent cache in 3b. The 3a-only protocols ignore it.
    pub io: &'a dyn PayloadIo,
    /// Nonzero unique tag for lock ownership ([`crate::LeaseLock::tag`]: leased).
    pub worker_tag: u64,
}

/// A concurrency-control protocol.
pub trait ConcurrencyControl: Send + Sync {
    /// Protocol name for experiment output.
    fn name(&self) -> &'static str;
    /// Execute one transaction; `Err(Aborted)` means retry-able conflict.
    fn execute(&self, ctx: &TxnCtx<'_>, ops: &[Op]) -> Result<TxnOutput, TxnError>;
}

/// Apply an [`Op::Rmw`] delta to a payload buffer in place. The counter
/// wraps at the ends of `i64`, as a fetch-and-add on its word does.
pub fn apply_delta(payload: &mut [u8], delta: i64) {
    let cur = i64::from_le_bytes(payload[0..8].try_into().expect("payload >= 8 bytes"));
    payload[0..8].copy_from_slice(&cur.wrapping_add(delta).to_le_bytes());
}

/// Sorted, deduplicated keys of `ops`.
pub fn distinct_keys<'a>(ops: impl IntoIterator<Item = &'a Op>) -> Vec<u64> {
    let mut keys: Vec<u64> = ops.into_iter().map(Op::key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Bytes of a slot's `[rts | wts_0]` header.
pub(crate) const HEADER: usize = VER0_OFF as usize + 8;

/// The `i`-th little-endian word of `bytes`.
pub(crate) fn word(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i * 8..][..8].try_into().expect("8 bytes"))
}

/// Where `key` sits in `uses`.
pub(crate) fn slot_of(uses: &[KeyUse], key: u64) -> usize {
    uses.binary_search_by_key(&key, |u| u.key).expect("every op's key is in `uses`")
}

/// Run `ops` in program order on the transaction's copies in `buf`, one
/// equal chunk per key of `uses`, whose `psize` payload bytes start `hdr`
/// bytes in.
pub(crate) fn run_on_copies(ops: &[Op], uses: &[KeyUse], buf: &mut [u8], hdr: usize, psize: usize) -> TxnOutput {
    let mut out = TxnOutput::default();
    let chunk = buf.len().checked_div(uses.len()).unwrap_or(0);
    for op in ops {
        let copy = &mut buf[slot_of(uses, op.key()) * chunk + hdr..][..psize];
        match op {
            Op::Read(key) => out.reads.push((*key, copy.to_vec())),
            Op::Update { value, .. } => copy[..value.len()].copy_from_slice(value),
            Op::Rmw { key, delta } => {
                out.reads.push((*key, copy.to_vec()));
                apply_delta(copy, *delta);
            }
        }
    }
    out
}

/// One doorbell of READs: every key of `uses` that `at` gives an address
/// fills its chunk of `buf` (equal chunks, in key order) from there, and
/// the other chunks are left as they are. No key, no doorbell.
pub(crate) fn read_chunks(
    ctx: &TxnCtx<'_>,
    uses: &[KeyUse],
    buf: &mut [u8],
    at: impl Fn(&KeyUse) -> Option<GlobalAddr>,
) -> Result<(), TxnError> {
    let Some(len) = buf.len().checked_div(uses.len()).filter(|&len| len > 0) else {
        return Ok(());
    };
    let mut reads: Vec<(GlobalAddr, &mut [u8])> =
        uses.iter().zip(buf.chunks_exact_mut(len)).filter_map(|(u, dst)| Some((at(u)?, dst))).collect();
    if !reads.is_empty() {
        ctx.table.layer().read_batch(ctx.ep, &mut reads)?;
    }
    Ok(())
}

/// [`read_chunks`] for a reader that holds no lock: each chunk ends with
/// the key's lock word, READ first, and the rest of the chunk comes from
/// `at` behind it on the same queue pair. A holder frees the word with the
/// last word it writes, so a word read free means no holder was writing
/// when it was read, and whatever one wrote before has landed.
pub(crate) fn read_lock_first(
    ctx: &TxnCtx<'_>,
    uses: &[KeyUse],
    buf: &mut [u8],
    at: impl Fn(&KeyUse) -> Option<GlobalAddr>,
) -> Result<(), TxnError> {
    let Some(len) = buf.len().checked_div(uses.len()).filter(|&len| len > 8) else {
        return Ok(());
    };
    let mut reads: Vec<(GlobalAddr, &mut [u8])> = Vec::with_capacity(2 * uses.len());
    for (u, chunk) in uses.iter().zip(buf.chunks_exact_mut(len)) {
        if let Some(addr) = at(u) {
            let (rest, lock) = chunk.split_at_mut(len - 8);
            reads.extend([(ctx.table.lock_addr(u.key), lock), (addr, rest)]);
        }
    }
    if !reads.is_empty() {
        ctx.table.layer().read_batch(ctx.ep, &mut reads)?;
    }
    Ok(())
}

/// Advance the `rts` word of every key of `seen` — `(key, the rts read)`
/// — to `ts`: one doorbell of CASes, `reads` riding behind them. A CAS
/// that lost to another reader re-posts alone, from the word it found,
/// until the word is at or past `ts`.
pub(crate) fn advance_rts(
    ctx: &TxnCtx<'_>,
    ts: u64,
    seen: &[(u64, u64)],
    reads: &mut [(GlobalAddr, &mut [u8])],
) -> Result<(), TxnError> {
    let (layer, table) = (ctx.table.layer(), ctx.table);
    let behind: Vec<(u64, u64)> = seen.iter().copied().filter(|&(_, rts)| rts < ts).collect();
    let mut found = vec![0u64; behind.len()];
    let mut wrs: Vec<GlobalWr<'_>> = behind
        .iter()
        .zip(&mut found)
        .map(|(&(key, rts), prev)| GlobalWr::Cas { addr: table.rts_addr(key), expected: rts, new: ts, prev })
        .collect();
    wrs.extend(reads.iter_mut().map(|(addr, dst)| GlobalWr::Read { addr: *addr, dst }));
    if wrs.is_empty() {
        return Ok(());
    }
    layer.doorbell(ctx.ep, &mut wrs)?;
    drop(wrs);
    for (&(key, mut expected), mut prev) in behind.iter().zip(found) {
        while prev != expected && prev < ts {
            expected = prev;
            prev = layer.cas(ctx.ep, table.rts_addr(key), expected, ts)?;
        }
    }
    Ok(())
}

/// What OCC, TSO or MVCC installs in one key it writes: one version's
/// payload and `wts`.
pub(crate) struct Install {
    /// The version slot written.
    pub version: usize,
    /// Its new payload.
    pub value: Vec<u8>,
    /// Its new write timestamp (OCC: version counter).
    pub wts: u64,
}

/// The commit of OCC, TSO and MVCC over the sorted write set `keys`, in
/// two doorbells around the checks:
///
/// 1. acquire: every key's lock CAS with a READ of the first
///    `view_len(i)` bytes of key `i`'s slot behind it — the words the
///    protocol checks under the lock, read after the CAS on the same
///    queue pair;
/// 2. once every lock is held, `validate` (OCC's read set, in a doorbell
///    of its own) and `install` on each key's view, either of which may
///    abort;
/// 3. release: key by key, each payload home and then the `wts`, then
///    every unlock.
///
/// Every lock won is released whatever fails; the first failure is
/// returned.
pub(crate) fn commit_set(
    ctx: &TxnCtx<'_>,
    keys: &[u64],
    max_retries: u32,
    view_len: impl Fn(usize) -> usize,
    validate: impl FnOnce() -> Result<(), TxnError>,
    mut install: impl FnMut(usize, &[u8]) -> Result<Install, TxnError>,
) -> Result<(), TxnError> {
    let (ep, table, layer) = (ctx.ep, ctx.table, ctx.table.layer());
    let mut words: Vec<LockWord> = keys.iter().map(|&key| LockWord::new(table.lock_addr(key))).collect();
    let mut views: Vec<Vec<u8>> = (0..keys.len()).map(|i| vec![0; view_len(i)]).collect();
    let acquired = {
        let mut riders: Vec<Rider<'_>> = keys
            .iter()
            .zip(&mut views)
            .enumerate()
            .map(|(word, (&key, dst))| Rider { word, addr: table.slot_addr(key), dst })
            .collect();
        let _span = ep.span(Phase::LockAcquire);
        ExclusiveLock::acquire_set(layer, ep, &mut words, &mut riders, ctx.worker_tag, max_retries)
    };
    let planned = acquired.map_err(TxnError::from).and_then(|()| {
        {
            let _span = ep.span(Phase::LockAcquire);
            validate()?;
        }
        views.iter().enumerate().map(|(i, view)| install(i, view)).collect::<Result<Vec<_>, _>>()
    });
    let installs = planned.as_deref().unwrap_or_default();
    let stamps: Vec<[u8; 8]> = installs.iter().map(|i| i.wts.to_le_bytes()).collect();
    let mut writes: Vec<WriteBack<'_>> = Vec::with_capacity(3 * installs.len());
    for ((&key, i), wts) in keys.iter().zip(installs).zip(&stamps) {
        writes.extend(table.payload_writes(key, i.version, &i.value));
        writes.push(WriteBack::new(table.wts_addr(key, i.version), wts));
    }
    let released = {
        let _span = ep.span(if writes.is_empty() { Phase::LockAcquire } else { Phase::Writeback });
        ExclusiveLock::release_set(layer, ep, &writes, &mut words)
    };
    planned?;
    Ok(released?)
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
    /// The value to install; `latest` is the committed one read under the
    /// lock, and only a delta looks at it.
    pub(crate) fn value(&self, latest: &[u8]) -> Vec<u8> {
        match self {
            Staged::Abs(v) => v.clone(),
            Staged::Delta(d) => {
                let mut v = latest.to_vec();
                apply_delta(&mut v, *d);
                v
            }
        }
    }
}

/// Run `ops` in program order for a timestamp protocol, staging one write
/// per key; returns the staged writes sorted by key. Every [`Op::Read`]
/// and [`Op::Rmw`] sees `read(key)`, the committed value its read rule
/// admitted, with the key's staged write over it. An overwrite stages its
/// value, and so does a read-modify-write of a key already overwritten;
/// any other read-modify-write adds its delta.
pub(crate) fn stage(ops: &[Op], read: impl Fn(u64) -> Vec<u8>) -> (TxnOutput, Vec<(u64, Staged)>) {
    let mut out = TxnOutput::default();
    let mut staged = BTreeMap::new();
    for op in ops {
        let key = op.key();
        if let Op::Update { value, .. } = op {
            staged.insert(key, Staged::Abs(value.clone()));
            continue;
        }
        let mut seen = read(key);
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
    (out, staged.into_iter().collect())
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use dsm::{DsmConfig, DsmLayer};
    use rdma_sim::{Event, EventKind, Fabric, FaultPlan, NetworkProfile, OpKind};
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
    /// the moment the last verb event that `picks` returns, timed on a
    /// fault-free twin, and see it fail with that group unavailable.
    /// Returns the table.
    pub fn crash_group_1_after(
        versions: usize,
        picks: impl Fn(&RecordTable, &Event) -> bool,
        run: impl Fn(&RecordTable, &Endpoint) -> Result<TxnOutput, TxnError>,
    ) -> Arc<RecordTable> {
        let twin = timed_table(versions);
        let ep = twin.layer().fabric().endpoint();
        ep.enable_flight_recorder(256);
        run(&twin, &ep).expect("the twin commits");
        let crash_at = ep
            .flight_events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Verb(_)) && picks(&twin, e))
            .map(|e| e.end_ns)
            .max()
            .expect("the twin posted the verb");
        let t = timed_table(versions);
        let dead = t.lock_addr(1).node();
        t.layer().fabric().install_fault_plan(FaultPlan::new(1).crash(dead, crash_at, u64::MAX));
        let ep = t.layer().fabric().endpoint();
        assert_eq!(run(&t, &ep).unwrap_err(), TxnError::NodeUnavailable { node: dead });
        t
    }

    /// One Rmw on each of keys 0..4 of a [`timed_table`] of `versions`
    /// under the protocol `make` builds, with group 1 dying the moment
    /// key 1's lock CAS returns, every lock held: the install doorbell
    /// cannot be posted, group 1's unlocks fail, and group 0's must not be
    /// skipped.
    pub fn a_failed_unlock_leaves_no_reachable_lock_held<C: ConcurrencyControl>(
        versions: usize,
        make: impl Fn(&RecordTable) -> C,
    ) {
        let ops: Vec<Op> = (0..4).map(|key| Op::Rmw { key, delta: 1 }).collect();
        let key_1s_lock = |t: &RecordTable, e: &Event| {
            e.kind == EventKind::Verb(OpKind::Cas) && e.addr == t.lock_addr(1).to_raw()
        };
        let t = crash_group_1_after(versions, key_1s_lock, |t, ep| {
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
        bank_invariant_holds_as(cc, table, threads, txns_per_worker, |id| id);
    }

    /// [`bank_invariant_holds`] with worker `id`'s lock words signed
    /// `tag(id)`.
    pub fn bank_invariant_holds_as<C: ConcurrencyControl>(
        cc: &C,
        table: &Arc<RecordTable>,
        threads: u64,
        txns_per_worker: u64,
        tag: fn(u64) -> u64,
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
                        worker_tag: tag(t + 1),
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
            worker_tag: tag(999),
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
    use crate::locks::LeaseLock;
    use crate::oracle::FaaOracle;

    /// Builds a protocol on its table.
    type Make = fn(&RecordTable) -> Box<dyn ConcurrencyControl>;

    /// A lease no test outlives: 500 virtual ms.
    const LEASE_NS: u64 = 500_000_000;

    /// Every protocol config — its name, the versions its table needs, the
    /// worker tag it runs under — with its maker.
    fn protocols() -> [(&'static str, usize, u64, Make); 6] {
        [
            ("2pl-excl", 1, 7, |_| Box::new(TwoPhaseLocking::exclusive())),
            ("2pl-shared", 1, 7, |_| Box::new(TwoPhaseLocking::shared_exclusive())),
            ("2pl-leased", 1, LeaseLock::tag(7, 1, LEASE_NS), |_| Box::new(TwoPhaseLocking::exclusive())),
            ("occ", 1, 7, |_| Box::new(Occ::new())),
            ("tso", 1, 7, |t| Box::new(Tso::new(Arc::new(FaaOracle::new(t.layer()).unwrap())))),
            ("mvcc", 2, 7, |t| Box::new(Mvcc::new(Arc::new(FaaOracle::new(t.layer()).unwrap())))),
        ]
    }

    /// Run `script` on a fresh [`timed_table`] under each protocol, one
    /// session, every transaction committing; `then` sees the endpoint.
    fn each_protocol<R>(script: &[Vec<Op>], then: impl Fn(&str, &Endpoint, Vec<TxnOutput>) -> R) -> Vec<R> {
        let run = |(name, versions, worker_tag, make): (&str, usize, u64, Make)| {
            let t = timed_table(versions);
            let cc = make(&t);
            let ep = t.layer().fabric().endpoint();
            let ctx = TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag };
            let outs = script
                .iter()
                .map(|ops| cc.execute(&ctx, ops).unwrap_or_else(|e| panic!("{name}: {ops:?}: {e}")))
                .collect();
            then(name, &ep, outs)
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

    /// Every lock-set protocol pays the same wire round trips for a
    /// transaction over 2, 4 or 8 keys of both groups: one read-modify-write
    /// of each, or one read of each — the oracle's FAA included.
    #[test]
    fn a_lock_set_protocol_pays_the_same_round_trips_for_any_key_count() {
        let rmw: fn(u64) -> Vec<Op> = |keys| (0..keys).map(|key| Op::Rmw { key, delta: 1 }).collect();
        let read: fn(u64) -> Vec<Op> = |keys| (0..keys).map(Op::Read).collect();
        let runs: Vec<(&str, [u64; 2])> = protocols()
            .into_iter()
            .map(|(name, versions, worker_tag, make)| {
                let rts = |ops: Vec<Op>| {
                    let t = timed_table(versions);
                    let ep = t.layer().fabric().endpoint();
                    make(&t).execute(&TxnCtx { ep: &ep, table: &t, io: &DirectIo, worker_tag }, &ops).unwrap();
                    ep.stats().wire_round_trips()
                };
                let per_size = |txn: fn(u64) -> Vec<Op>| {
                    let at = [2, 4, 8].map(|keys| rts(txn(keys)));
                    assert_eq!(at, [at[0]; 3], "{name}: 2, 4 and 8 keys");
                    at[0]
                };
                (name, [rmw, read].map(per_size))
            })
            .collect();
        assert_eq!(
            runs,
            [
                ("2pl-excl", [2, 2]),
                ("2pl-shared", [2, 2]),
                ("2pl-leased", [3, 2]),
                ("occ", [3, 2]),
                ("tso", [5, 3]),
                ("mvcc", [5, 3])
            ]
        );
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
        // The five keys written under a plain tag are one WRITE each on
        // the primary, payload and unlock (2PL, both lock modes); a leased
        // unlock is a CAS, and OCC, TSO and MVCC unlock apart. No protocol
        // reads the blind overwrite of key 4: 2PL's nine payload READs
        // (16 B each) ride the CASes of the other nine keys. A reader
        // that holds no lock reads the lock word ahead of the version, a
        // READ of its own now that the word ends the slot: OCC's five
        // validations are `lock` then `wts` (8 B each), TSO's nine reads
        // `lock` then `[rts | wts | payload]`. OCC's lock view and TSO's
        // are `[rts | wts]` (16 B).
        let pinned = [
            ("2pl-excl", [9, 10, 10, 0, 8, 144, 160], 17_250),
            ("2pl-shared", [9, 5, 10, 5, 8, 144, 120], 17_700),
            ("2pl-leased", [9, 5, 28, 0, 11, 144, 80], 25_250),
            ("occ", [24, 15, 5, 0, 13, 376, 160], 26_300),
            ("tso", [23, 15, 14, 4, 18, 504, 160], 37_613),
            ("mvcc", [23, 15, 14, 4, 18, 968, 160], 37_628),
        ];
        assert_eq!(runs, pinned.map(|(name, cost, ns)| (name.to_string(), cost, ns)));
    }
}
