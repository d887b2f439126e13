//! One message handler per compute node.
//!
//! Every two-sided request a compute node receives — a 3b invalidation or
//! update, a 3c prepare or decision — lands in the node's one inbox and is
//! answered by its [`NodeHandler`], whichever session of the node happens
//! to call [`NodeHandler::serve_one`]. The handler has an endpoint of its
//! own: its clock moves to each request's delivery time and it takes
//! requests in the order they arrive, so what a reply costs the requester
//! does not depend on how far ahead the serving session's clock is, and no
//! session's clock carries work done for a peer.
//!
//! The handler also owns what the node keeps between transactions: its
//! buffer pool and, in 3c, the shard owner's local lock table and the
//! transactions prepared here awaiting a decision. The owner's lock, fetch,
//! staging and write-back are functions of the node over an endpoint and a
//! page arena: the handler runs them for a coordinator elsewhere, a session
//! for its own transaction's local part.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use buffer::BufferPool;
use dsm::{GlobalAddr, GlobalWr};
use parking_lot::Mutex;
use rdma_sim::{Endpoint, Fabric, Mailbox, StatsSnapshot};
use txn::table::RecordTable;
use txn::twopc::{decode as decode_2pc, encode as encode_2pc, MsgKind};
use txn::{apply_delta, distinct_keys, Op, TxnError, TxnOutput};

use crate::coherence::{self, node_inbox_id};
use crate::membership::Membership;
use crate::shard::LockTable;

/// Reusable scratch for the batched page path: one contiguous buffer
/// sliced into page slots, plus the transaction's unique-page plan. Lives
/// across transactions so the hot path allocates nothing per operation;
/// between prepare and decision its dirty slots are the staged writes.
#[derive(Default)]
pub(crate) struct PageArena {
    buf: Vec<u8>,
    /// Unique page keys in first-touch order (slot i holds keys[i]).
    keys: Vec<u64>,
    /// Whether slot i must be fetched (first op reads the old value);
    /// once the pool has served the hits, whether it is still in flight.
    fetch: Vec<bool>,
    /// Whether slot i was modified and must be written at commit.
    dirty: Vec<bool>,
}

impl PageArena {
    /// Plan `ops`: record unique pages in first-touch order. A page whose
    /// first op fully overwrites it (Update) is never fetched — matching
    /// the unbatched engine, which wrote such pages without reading.
    fn plan(&mut self, ops: &[Op], psize: usize) {
        self.keys.clear();
        self.fetch.clear();
        self.dirty.clear();
        for op in ops {
            let k = op.key();
            if !self.keys.contains(&k) {
                self.keys.push(k);
                self.fetch.push(!matches!(op, Op::Update { .. }));
                self.dirty.push(false);
            }
        }
        // Every slot is either fetched or first overwritten, so stale
        // bytes from the previous transaction are never observed.
        self.buf.resize(self.keys.len() * psize, 0);
    }
}

/// What a transaction body's page fetch carries behind its READs.
enum Ride<'w> {
    /// Nothing: the writes stay staged in the arena.
    Nothing,
    /// The shard owner's epoch-fence READ of the word at `addr`: `epoch`
    /// takes it if a page was fetched, and stays `None` if none was.
    Fence { addr: GlobalAddr, epoch: &'w mut Option<u64> },
    /// The write-through, all of it, when no page being fetched is
    /// overwritten: an `Rmw` of such a page rides as one fetch-and-add of
    /// its deltas. Otherwise it follows the fetch in a doorbell of its own.
    WriteThrough,
}

/// A compute node's message handler and the state it serves from.
pub struct NodeHandler {
    /// This compute node's id.
    pub node: usize,
    /// Record cache (page = one record payload, write-through): coherent
    /// in 3b, the shard owner's in 3c.
    pub pool: BufferPool,
    table: Arc<RecordTable>,
    membership: Arc<Membership>,
    /// The node's inbox (multi-consumer).
    inbox: Mailbox,
    /// The handler's endpoint and page arena: any session of the node may
    /// take them to serve, none lends the handler its own clock.
    serving: Mutex<(Endpoint, PageArena)>,
    /// 3c: the owner-local lock table.
    pub(crate) locks: LockTable,
    /// 3c: transactions prepared here awaiting their coordinator's
    /// decision, by id: their locked keys and their staged arena.
    pub(crate) prepared: Mutex<HashMap<u64, (Vec<u64>, PageArena)>>,
    /// 3c: sub-transactions prepared for a coordinator.
    pub(crate) served_subtxns: AtomicU64,
    /// 3c: decided commits whose write-back failed — the record is left
    /// to mirror rebuild instead of silently dropped.
    pub(crate) apply_failures: AtomicU64,
}

impl NodeHandler {
    /// Compute node `node`'s handler over `pool`, with its inbox
    /// registered on `fabric`.
    pub(crate) fn new(
        fabric: &Arc<Fabric>,
        node: usize,
        pool: BufferPool,
        table: Arc<RecordTable>,
        membership: Arc<Membership>,
    ) -> Self {
        Self {
            node,
            pool,
            table,
            membership,
            inbox: fabric.mailboxes().register(node_inbox_id(node)),
            serving: Mutex::new((fabric.endpoint(), PageArena::default())),
            locks: LockTable::new(),
            prepared: Mutex::new(HashMap::new()),
            served_subtxns: AtomicU64::new(0),
            apply_failures: AtomicU64::new(0),
        }
    }

    /// Serve one pending request, if any, on the handler's endpoint and
    /// send the reply to its sender. Returns whether a message was
    /// processed: false as well when another session is serving right
    /// now. Safe to call from any session of the node; it never touches
    /// the caller's clock.
    pub fn serve_one(&self) -> bool {
        let Some(mut serving) = self.serving.try_lock() else {
            return false;
        };
        let Ok(msg) = self.inbox.try_recv() else {
            return false;
        };
        let (ep, arena) = &mut *serving;
        ep.observe_delivery(&msg);
        let reply = coherence::answer(&self.pool, ep, &msg.payload)
            .or_else(|| self.answer_2pc(ep, arena, &msg.payload));
        if let Some(reply) = reply {
            // The requester may be gone (session ended): ignore.
            let _ = ep.send(msg.from, node_inbox_id(self.node), reply);
        }
        true
    }

    /// Serve up to `budget` requests; returns whether any was served.
    pub(crate) fn serve(&self, budget: usize) -> bool {
        (0..budget).take_while(|_| self.serve_one()).count() > 0
    }

    /// Restart the handler's clock at 0, between experiment phases: a
    /// harness that opens fresh sessions (clocks at 0) on a cluster that
    /// has run before calls this first, or their first request would wait
    /// out the earlier phase's time.
    pub fn restart_clock(&self) {
        self.serving.lock().0.clock().reset();
    }

    /// The handler endpoint's verb counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.serving.lock().0.stats()
    }

    /// Lock `keys` (sorted, unique) in the node's table for the
    /// transaction traced `holder`, charging `ep` for the table work. On a
    /// conflict nothing is held and the wait is noted.
    pub(crate) fn lock(&self, ep: &Endpoint, keys: &[u64], holder: u64) -> Result<(), TxnError> {
        let ns = 50 * keys.len() as u64;
        ep.charge_local(ns);
        self.locks.try_lock_all(keys, holder).map_err(|blocker| {
            ep.note_local_lock_wait(keys[0], ns, blocker);
            TxnError::Aborted("local-lock-busy")
        })
    }

    /// A (sub-)transaction's body on `arena`: plan its unique pages, fetch
    /// every page it must observe in one doorbell group, then apply all
    /// ops on the arena (no per-op allocation, no per-op pool lookup).
    /// Dirty slots stay in the arena for [`NodeHandler::write_back`].
    pub(crate) fn exec(&self, ep: &Endpoint, arena: &mut PageArena, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        self.run(ep, arena, ops, Ride::Nothing)
    }

    /// A single-shard transaction: [`NodeHandler::exec`], then its
    /// write-through. Unless it overwrites a page that missed, the whole
    /// write-through rides the fetch's doorbell — one wire round trip
    /// where there were two: the ops on pages at hand run before the fetch
    /// lands and their pages ride whole, the `Rmw`s of a page that missed
    /// ride as one fetch-and-add of their deltas on its first word, and
    /// the ops on fetched pages are replayed in op order once it has
    /// landed. Otherwise none of it rides, since a write split across two
    /// doorbells could land half.
    pub(crate) fn exec_write(&self, ep: &Endpoint, arena: &mut PageArena, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        self.run(ep, arena, ops, Ride::WriteThrough)
    }

    /// The body of [`NodeHandler::exec`], with `ride` behind the fetch.
    fn run(&self, ep: &Endpoint, arena: &mut PageArena, ops: &[Op], ride: Ride<'_>) -> Result<TxnOutput, TxnError> {
        let psize = self.pool.page_size();
        arena.plan(ops, psize);
        let PageArena { buf, keys, fetch, dirty } = arena;
        let (_, pending) = {
            let mut reqs: Vec<(GlobalAddr, &mut [u8])> = buf
                .chunks_exact_mut(psize)
                .enumerate()
                .filter(|(i, _)| fetch[*i])
                .map(|(i, slot)| (self.table.payload_addr(keys[i], 0), slot))
                .collect();
            self.pool.resolve_reads(ep, &mut reqs)?
        };
        for (j, in_flight) in fetch.iter_mut().filter(|f| **f).enumerate() {
            *in_flight = pending.reserved(j);
        }
        let slot_of = |key: u64| keys.iter().position(|&k| k == key).expect("planned");
        let write_through = matches!(ride, Ride::WriteThrough);
        let writes_ride = write_through
            && !pending.is_empty()
            && !ops.iter().all(|op| matches!(op, Op::Read(_)))
            && !ops.iter().any(|op| matches!(op, Op::Update { .. }) && fetch[slot_of(op.key())]);
        // The fetch the writes ride, still to be completed.
        let pending = if writes_ride {
            Some(pending)
        } else {
            let dsts = buf.chunks_exact_mut(psize).zip(fetch.iter()).filter(|(_, f)| **f);
            let dsts = dsts.map(|(slot, _)| slot);
            match ride {
                Ride::Fence { addr, epoch } if !pending.is_empty() => {
                    let mut word = [0u8; 8];
                    pending.complete(ep, dsts, [GlobalWr::Read { addr, dst: &mut word }])?;
                    *epoch = Some(u64::from_le_bytes(word));
                }
                _ => pending.complete(ep, dsts, None)?,
            }
            fetch.fill(false);
            None
        };
        let mut out = TxnOutput::default();
        // The deltas of the `Rmw`s on each page still in flight.
        let mut adds: Vec<(GlobalAddr, i64)> = Vec::new();
        for op in ops {
            let i = slot_of(op.key());
            let slot = &mut buf[i * psize..(i + 1) * psize];
            match op {
                // A slot still in flight is read once it has landed.
                Op::Read(k) => out.reads.push((*k, if fetch[i] { Vec::new() } else { slot.to_vec() })),
                Op::Update { value, .. } => {
                    slot.copy_from_slice(value);
                    dirty[i] = true;
                }
                Op::Rmw { key, delta } if fetch[i] => {
                    out.reads.push((*key, Vec::new()));
                    let addr = self.table.payload_addr(*key, 0);
                    match adds.iter_mut().find(|a| a.0 == addr) {
                        Some(a) => a.1 = a.1.wrapping_add(*delta),
                        None => adds.push((addr, *delta)),
                    }
                    dirty[i] = true;
                }
                Op::Rmw { key, delta } => {
                    out.reads.push((*key, slot.to_vec()));
                    apply_delta(slot, *delta);
                    dirty[i] = true;
                }
            }
        }
        if let Some(pending) = pending {
            let (mut dsts, mut writes) = (Vec::new(), Vec::new());
            for (i, slot) in buf.chunks_exact_mut(psize).enumerate() {
                if fetch[i] {
                    dsts.push(slot);
                } else if dirty[i] {
                    writes.push((self.table.payload_addr(keys[i], 0), slot as &[u8]));
                }
            }
            let rode = pending.complete_writing(ep, dsts, &writes, &adds)?;
            // The fetched slots finish the reads, and take their deltas, in
            // op order: no op overwrites one.
            let reading = ops.iter().filter(|op| !matches!(op, Op::Update { .. }));
            for (read, op) in out.reads.iter_mut().zip(reading) {
                let i = slot_of(op.key());
                if fetch[i] {
                    let slot = &mut buf[i * psize..(i + 1) * psize];
                    read.1 = slot.to_vec();
                    if let Op::Rmw { delta, .. } = op {
                        apply_delta(slot, *delta);
                    }
                }
            }
            if !rode {
                self.write_back(ep, arena)?;
            }
        } else if write_through {
            self.write_back(ep, arena)?;
        }
        Ok(out)
    }

    /// Write `arena`'s dirty pages through the pool, all in one doorbell
    /// group (the write-through pool folds victim write-backs into it).
    pub(crate) fn write_back(&self, ep: &Endpoint, arena: &PageArena) -> Result<(), TxnError> {
        let psize = self.pool.page_size();
        let writes: Vec<(GlobalAddr, &[u8])> = arena
            .keys
            .iter()
            .enumerate()
            .filter(|(i, _)| arena.dirty[*i])
            .map(|(i, &k)| (self.table.payload_addr(k, 0), &arena.buf[i * psize..(i + 1) * psize]))
            .collect();
        if !writes.is_empty() {
            self.pool.write_pages(ep, &writes)?;
        }
        Ok(())
    }

    /// The shard owner's answer to a 2PC message: a vote for a prepare, an
    /// ack for a decision; `None` for any other message.
    fn answer_2pc(&self, ep: &Endpoint, arena: &mut PageArena, payload: &[u8]) -> Option<Vec<u8>> {
        let m = decode_2pc(payload)?;
        let reply = match m.kind {
            MsgKind::Prepare | MsgKind::PrepareCommit => match self.prepare(ep, arena, &m.body) {
                Some((keys, out)) => {
                    self.served_subtxns.fetch_add(1, Ordering::Relaxed);
                    if m.kind == MsgKind::Prepare {
                        let staged = std::mem::take(arena);
                        self.prepared.lock().insert(m.txn_id, (keys, staged));
                    } else {
                        // The last agent: its yes is the commit.
                        self.finish(ep, &keys, arena, true);
                    }
                    encode_2pc(MsgKind::VoteYes, m.txn_id, &encode_reads(&out.reads))
                }
                None => encode_2pc(MsgKind::VoteNo, m.txn_id, &[]),
            },
            MsgKind::Commit | MsgKind::Abort => {
                let prepared = self.prepared.lock().remove(&m.txn_id);
                if let Some((keys, staged)) = prepared {
                    self.finish(ep, &keys, &staged, m.kind == MsgKind::Commit);
                }
                encode_2pc(MsgKind::Ack, m.txn_id, &[])
            }
            _ => return None,
        };
        Some(reply)
    }

    /// The owner's half of a prepare: lock the keys in the coordinator's
    /// name, read and stage on `arena`, refuse a fenced coordinator.
    /// `None` is a No vote, with nothing held.
    fn prepare(&self, ep: &Endpoint, arena: &mut PageArena, body: &[u8]) -> Option<(Vec<u64>, TxnOutput)> {
        let (coord_epoch, coord_node, coord_trace, ops) = decode_prepare(body);
        let keys = distinct_keys(&ops);
        // Owner locks are held on behalf of the *coordinator's*
        // transaction: later conflicters blame the coordinator's trace.
        self.lock(ep, &keys, coord_trace).ok()?;
        // Epoch fence: once the cluster bumps a node's epoch (declaring it
        // crashed and its locks stealable), prepares signed with the older
        // epoch are refused — a zombie coordinator that was merely
        // partitioned cannot come back and drive a commit with pre-crash
        // state. A last agent runs it too, before it decides. Its READ
        // rides the page fetch; with no page to fetch it goes alone, under
        // the membership's own retries. Membership unreadable: refuse,
        // don't guess.
        let mut epoch = None;
        let fence = Ride::Fence { addr: self.membership.epoch_addr(coord_node), epoch: &mut epoch };
        let admitted = self.run(ep, arena, &ops, fence).ok().filter(|_| {
            let current = epoch.map_or_else(|| self.membership.epoch(self.table.layer(), ep, coord_node), Ok);
            current.is_ok_and(|epoch| coord_epoch >= epoch)
        });
        if admitted.is_none() {
            self.locks.unlock_all(&keys);
        }
        Some((keys, admitted?))
    }

    /// Carry out the decision on a prepared sub-transaction and release
    /// its keys. A commit is final: if the write-back cannot reach DSM
    /// (memory node crashed mid-commit) the failure is counted, not
    /// swallowed — the record's surviving mirrors hold the pre-txn value
    /// until rebuild, and the operator sees the count.
    fn finish(&self, ep: &Endpoint, keys: &[u64], staged: &PageArena, commit: bool) {
        if commit && self.write_back(ep, staged).is_err() {
            self.apply_failures.fetch_add(1, Ordering::Relaxed);
        }
        self.locks.unlock_all(keys);
    }
}

// ---------------------------------------------------------------------------
// Sub-transaction wire codec
// ---------------------------------------------------------------------------

const OP_READ: u8 = 0;
const OP_UPDATE: u8 = 1;
const OP_RMW: u8 = 2;

/// Prepare body: `[epoch u64 | coordinator node u64 | coordinator trace
/// u64 | subtxn]`. The (node, epoch) pair is the coordinator's signature
/// for epoch fencing; the trace id lets the participant hold locks in
/// the coordinator's name so conflicters blame the right transaction.
pub(crate) fn encode_prepare(epoch: u64, node: usize, trace: u64, ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 2 + ops.len() * 12);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(node as u64).to_le_bytes());
    out.extend_from_slice(&trace.to_le_bytes());
    out.extend_from_slice(&encode_subtxn(ops));
    out
}

pub(crate) fn decode_prepare(body: &[u8]) -> (u64, usize, u64, Vec<Op>) {
    let epoch = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let node = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
    let trace = u64::from_le_bytes(body[16..24].try_into().unwrap());
    (epoch, node, trace, decode_subtxn(&body[24..]))
}

pub(crate) fn encode_subtxn(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + ops.len() * 12);
    out.extend_from_slice(&(ops.len() as u16).to_le_bytes());
    for op in ops {
        match op {
            Op::Read(k) => {
                out.push(OP_READ);
                out.extend_from_slice(&k.to_le_bytes());
            }
            Op::Update { key, value } => {
                out.push(OP_UPDATE);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&(value.len() as u16).to_le_bytes());
                out.extend_from_slice(value);
            }
            Op::Rmw { key, delta } => {
                out.push(OP_RMW);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
        }
    }
    out
}

pub(crate) fn decode_subtxn(body: &[u8]) -> Vec<Op> {
    let n = u16::from_le_bytes(body[0..2].try_into().unwrap()) as usize;
    let mut ops = Vec::with_capacity(n);
    let mut pos = 2;
    for _ in 0..n {
        let kind = body[pos];
        let key = u64::from_le_bytes(body[pos + 1..pos + 9].try_into().unwrap());
        pos += 9;
        match kind {
            OP_READ => ops.push(Op::Read(key)),
            OP_UPDATE => {
                let len = u16::from_le_bytes(body[pos..pos + 2].try_into().unwrap()) as usize;
                pos += 2;
                ops.push(Op::Update {
                    key,
                    value: body[pos..pos + len].to_vec(),
                });
                pos += len;
            }
            _ => {
                let delta = i64::from_le_bytes(body[pos..pos + 8].try_into().unwrap());
                pos += 8;
                ops.push(Op::Rmw { key, delta });
            }
        }
    }
    ops
}

pub(crate) fn encode_reads(reads: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(reads.len() as u16).to_le_bytes());
    for (k, v) in reads {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&(v.len() as u16).to_le_bytes());
        out.extend_from_slice(v);
    }
    out
}

pub(crate) fn decode_reads(body: &[u8]) -> Vec<(u64, Vec<u8>)> {
    if body.len() < 2 {
        return Vec::new();
    }
    let n = u16::from_le_bytes(body[0..2].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = 2;
    for _ in 0..n {
        let k = u64::from_le_bytes(body[pos..pos + 8].try_into().unwrap());
        let len = u16::from_le_bytes(body[pos + 8..pos + 10].try_into().unwrap()) as usize;
        pos += 10;
        out.push((k, body[pos..pos + len].to_vec()));
        pos += len;
    }
    out
}
