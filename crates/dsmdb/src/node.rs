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
//!
//! A 3c last agent also does a coordinator's DSM work for it. The
//! coordinator stages its pages that are resident and ships the ops on the
//! ones that are not (`NodeHandler::stage`); the last agent reads the
//! shipped pages behind its own fetch and epoch fence, in one doorbell,
//! runs the shipped ops on scratch slots outside its pool, and writes its
//! own pages, the coordinator's staged images and the shipped pages' new
//! images in its one commit doorbell. Its vote says whether that doorbell
//! landed and returns the shipped ops' reads, from which the coordinator
//! rebuilds the shipped pages and puts every written page in its pool
//! (`NodeHandler::take_vote`) without touching DSM.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use buffer::BufferPool;
use dsm::{GlobalAddr, GlobalWr};
use parking_lot::Mutex;
use rdma_sim::{Endpoint, Fabric, Mailbox, Message, StatsSnapshot};
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
    /// once the pool has served the hits, whether it is still in flight
    /// (on a coordinator, whether it is shipped).
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

    /// The slot of planned page `key`.
    fn index(&self, key: u64) -> usize {
        self.keys.iter().position(|&k| k == key).expect("planned")
    }

    /// Slot `i`'s page of `psize` bytes.
    fn slot(&mut self, i: usize, psize: usize) -> &mut [u8] {
        &mut self.buf[i * psize..(i + 1) * psize]
    }

    /// Run `op` on its slot, which holds its page: the read it returns,
    /// if any.
    fn apply(&mut self, op: &Op, psize: usize) -> Option<(u64, Vec<u8>)> {
        let i = self.index(op.key());
        self.dirty[i] |= !matches!(op, Op::Read(_));
        let slot = self.slot(i, psize);
        match op {
            Op::Read(k) => Some((*k, slot.to_vec())),
            Op::Update { value, .. } => {
                slot.copy_from_slice(value);
                None
            }
            Op::Rmw { key, delta } => {
                let read = slot.to_vec();
                apply_delta(slot, *delta);
                Some((*key, read))
            }
        }
    }
}

/// What a transaction body's page fetch carries behind its READs.
enum Ride<'w> {
    /// The shard owner's epoch-fence READ of the word at `addr`, and the
    /// READs of a coordinator's shipped pages into `shipped`'s slots:
    /// `epoch` takes the word if a page was fetched or shipped, and stays
    /// `None` if none was.
    Fence { addr: GlobalAddr, epoch: &'w mut Option<u64>, shipped: &'w mut PageArena },
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
    /// The node's inbox, polled on the serving endpoint.
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
        let (ep, arena) = &mut *serving;
        let Ok(msg) = ep.try_recv(&self.inbox) else {
            return false;
        };
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

    /// The one wait for a reply: poll `reply` on `ep` until `keep` takes a
    /// message, dropping the ones it refuses. Each empty poll serves one
    /// request from this node's inbox, or yields when there is none: the
    /// peer being waited for may be waiting for this node. A 3c
    /// coordinator waits here for its votes and acks, a 3b writer for its
    /// invalidation acks.
    pub(crate) fn wait_for<T>(&self, ep: &Endpoint, reply: &Mailbox, mut keep: impl FnMut(&Message) -> Option<T>) -> T {
        loop {
            match ep.try_recv(reply) {
                Ok(msg) => {
                    if let Some(kept) = keep(&msg) {
                        return kept;
                    }
                }
                Err(_) => {
                    if !self.serve_one() {
                        std::thread::yield_now();
                    }
                }
            }
        }
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

    /// Run `f` on the handler's endpoint.
    #[cfg(test)]
    pub(crate) fn with_endpoint<R>(&self, f: impl FnOnce(&Endpoint) -> R) -> R {
        f(&self.serving.lock().0)
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

    /// A single-shard transaction: plan its unique pages on `arena`, fetch
    /// every page it must observe in one doorbell group, apply all ops on
    /// the arena (no per-op allocation, no per-op pool lookup), then write
    /// the dirty slots through. Unless it overwrites a page that missed,
    /// the whole write-through rides the fetch's doorbell — one wire round
    /// trip where there were two: the ops on pages at hand run before the
    /// fetch lands and their pages ride whole, the `Rmw`s of a page that
    /// missed ride as one fetch-and-add of their deltas on its first word,
    /// and the ops on fetched pages are replayed in op order once it has
    /// landed. Otherwise none of it rides, since a write split across two
    /// doorbells could land half.
    pub(crate) fn exec_write(&self, ep: &Endpoint, arena: &mut PageArena, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        self.run(ep, arena, ops, Ride::WriteThrough)
    }

    /// A (sub-)transaction's body on `arena`, with `ride` behind the
    /// fetch. Under a fence the dirty slots stay in the arena for
    /// [`NodeHandler::write_back`].
    fn run(&self, ep: &Endpoint, arena: &mut PageArena, ops: &[Op], ride: Ride<'_>) -> Result<TxnOutput, TxnError> {
        let psize = self.pool.page_size();
        arena.plan(ops, psize);
        let (_, pending) = {
            let PageArena { buf, keys, fetch, .. } = &mut *arena;
            let mut reqs: Vec<(GlobalAddr, &mut [u8])> = buf
                .chunks_exact_mut(psize)
                .zip(keys.iter())
                .zip(fetch.iter())
                .filter(|(_, fetch)| **fetch)
                .map(|((slot, &k), _)| (self.table.payload_addr(k, 0), slot))
                .collect();
            self.pool.resolve_reads(ep, &mut reqs)?
        };
        for (j, in_flight) in arena.fetch.iter_mut().filter(|f| **f).enumerate() {
            *in_flight = pending.reserved(j);
        }
        let write_through = matches!(ride, Ride::WriteThrough);
        let writes_ride = write_through
            && !pending.is_empty()
            && !ops.iter().all(|op| matches!(op, Op::Read(_)))
            && !ops.iter().any(|op| matches!(op, Op::Update { .. }) && arena.fetch[arena.index(op.key())]);
        // The fetch the writes ride, still to be completed.
        let pending = if writes_ride {
            Some(pending)
        } else {
            let PageArena { buf, fetch, .. } = &mut *arena;
            let dsts = buf.chunks_exact_mut(psize).zip(fetch.iter()).filter(|(_, f)| **f);
            let dsts = dsts.map(|(slot, _)| slot);
            match ride {
                Ride::Fence { addr, epoch, shipped } if !pending.is_empty() || !shipped.keys.is_empty() => {
                    let mut word = [0u8; 8];
                    let fence = GlobalWr::Read { addr, dst: &mut word };
                    let reads = shipped.buf.chunks_exact_mut(psize).zip(&shipped.keys);
                    let reads = reads.map(|(dst, &k)| GlobalWr::Read { addr: self.table.payload_addr(k, 0), dst });
                    pending.complete(ep, dsts, std::iter::once(fence).chain(reads))?;
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
            let i = arena.index(op.key());
            match op {
                // A slot still in flight is read once it has landed.
                Op::Read(k) if arena.fetch[i] => out.reads.push((*k, Vec::new())),
                Op::Rmw { key, delta } if arena.fetch[i] => {
                    out.reads.push((*key, Vec::new()));
                    let addr = self.table.payload_addr(*key, 0);
                    match adds.iter_mut().find(|a| a.0 == addr) {
                        Some(a) => a.1 = a.1.wrapping_add(*delta),
                        None => adds.push((addr, *delta)),
                    }
                    arena.dirty[i] = true;
                }
                _ => out.reads.extend(arena.apply(op, psize)),
            }
        }
        if let Some(pending) = pending {
            let rode = {
                let PageArena { buf, keys, fetch, dirty } = &mut *arena;
                let (mut dsts, mut writes) = (Vec::new(), Vec::new());
                for (i, slot) in buf.chunks_exact_mut(psize).enumerate() {
                    if fetch[i] {
                        dsts.push(slot);
                    } else if dirty[i] {
                        writes.push((self.table.payload_addr(keys[i], 0), slot as &[u8]));
                    }
                }
                pending.complete_writing(ep, dsts, &writes, &adds)?
            };
            // The fetched slots finish the reads, and take their deltas, in
            // op order: no op overwrites one.
            let reading = ops.iter().filter(|op| !matches!(op, Op::Update { .. }));
            for (read, op) in out.reads.iter_mut().zip(reading) {
                if arena.fetch[arena.index(op.key())] {
                    *read = arena.apply(op, psize).expect("a reading op reads");
                }
            }
            if !rode {
                self.write_back(ep, arena, &[])?;
            }
        } else if write_through {
            self.write_back(ep, arena, &[])?;
        }
        Ok(out)
    }

    /// Write `arena`'s dirty pages through the pool, with `uncached` —
    /// pages of another node's shard — beside them, all in one doorbell
    /// group (the write-through pool folds victim write-backs into it).
    fn write_back(&self, ep: &Endpoint, arena: &PageArena, uncached: &[(GlobalAddr, &[u8])]) -> Result<(), TxnError> {
        let writes = self.pages(arena, |i| arena.dirty[i]);
        if !writes.is_empty() || !uncached.is_empty() {
            self.pool.write_pages(ep, &writes, uncached)?;
        }
        Ok(())
    }

    /// The pages of `arena` whose slot index `keep` admits, by address.
    fn pages<'a>(&self, arena: &'a PageArena, keep: impl Fn(usize) -> bool) -> Vec<(GlobalAddr, &'a [u8])> {
        let pages = arena.buf.chunks_exact(self.pool.page_size()).zip(&arena.keys).enumerate();
        pages.filter(|&(i, _)| keep(i)).map(|(_, (page, &k))| (self.table.payload_addr(k, 0), page)).collect()
    }

    /// A coordinator's local part, staged for its last agent: plan `ops`
    /// on `arena`, serve every page that must be observed and is resident
    /// from the pool ([`BufferPool::read_resident`], a hit in every
    /// respect), and run the ops on those pages and on pages first
    /// overwritten. The ops on the other pages are shipped, not fetched:
    /// they are returned in op order with their reads left empty in the
    /// output, and their slots stay marked for [`NodeHandler::take_vote`].
    pub(crate) fn stage(&self, ep: &Endpoint, arena: &mut PageArena, ops: &[Op]) -> (TxnOutput, Vec<Op>) {
        let psize = self.pool.page_size();
        arena.plan(ops, psize);
        let PageArena { buf, keys, fetch, .. } = &mut *arena;
        for ((slot, &k), shipped) in buf.chunks_exact_mut(psize).zip(keys.iter()).zip(fetch.iter_mut()) {
            *shipped = *shipped && !self.pool.read_resident(ep, self.table.payload_addr(k, 0), slot);
        }
        let (mut out, mut shipped) = (TxnOutput::default(), Vec::new());
        for op in ops {
            if arena.fetch[arena.index(op.key())] {
                if !matches!(op, Op::Update { .. }) {
                    out.reads.push((op.key(), Vec::new()));
                }
                shipped.push(op.clone());
            } else {
                out.reads.extend(arena.apply(op, psize));
            }
        }
        (out, shipped)
    }

    /// The pages a coordinator's [`NodeHandler::stage`] left in `arena`
    /// for its last agent to write: its dirty slots that were not shipped.
    pub(crate) fn staged<'a>(&self, arena: &'a PageArena) -> Vec<(GlobalAddr, &'a [u8])> {
        self.pages(arena, |i| arena.dirty[i] && !arena.fetch[i])
    }

    /// The coordinator's side of its last agent's yes, `vote`: the
    /// agent's reads go to `out`. If the agent's commit doorbell landed,
    /// each shipped page is rebuilt from the shipped ops' reads — in op
    /// order, each the page as its op found it — which fill the ones
    /// [`NodeHandler::stage`] left empty in `out`, and every page the
    /// transaction wrote or shipped goes in the pool without a write to
    /// DSM ([`BufferPool::install_page`], settled at once: a 3c key is read
    /// only under its lock). If it did not land, nothing is installed, the
    /// frames of the staged pages are dropped (DSM may hold some of them),
    /// and the agent's error is returned.
    pub(crate) fn take_vote(
        &self,
        ep: &Endpoint,
        arena: &mut PageArena,
        shipped: &[Op],
        vote: &[u8],
        out: &mut TxnOutput,
        holder: u64,
    ) -> Result<(), TxnError> {
        let (landed, mut reads) = decode_vote(vote);
        let reading = shipped.iter().filter(|op| !matches!(op, Op::Update { .. })).count();
        let shipped_reads = reads.split_off(reads.len() - reading);
        if let Err(e) = landed {
            for (addr, _) in self.staged(arena) {
                self.pool.invalidate(ep, addr);
            }
            return Err(e);
        }
        let psize = self.pool.page_size();
        let mut empty = out.reads.iter_mut().filter(|r| r.1.is_empty());
        let mut shipped_reads = shipped_reads.into_iter();
        for op in shipped {
            if !matches!(op, Op::Update { .. }) {
                let read = shipped_reads.next().expect("one read per reading shipped op");
                arena.slot(arena.index(op.key()), psize).copy_from_slice(&read.1);
                *empty.next().expect("left empty by stage") = read;
            }
            arena.apply(op, psize);
        }
        for (addr, page) in self.pages(arena, |i| arena.dirty[i] || arena.fetch[i]) {
            let installed = self.pool.install_page(ep, addr, page, holder);
            installed.expect("a write-through pool owes DSM nothing for an installed page");
            self.pool.settle(addr, holder);
        }
        out.reads.extend(reads);
        Ok(())
    }

    /// The shard owner's answer to a 2PC message: a vote for a prepare, an
    /// ack for a decision; `None` for any other message.
    fn answer_2pc(&self, ep: &Endpoint, arena: &mut PageArena, payload: &[u8]) -> Option<Vec<u8>> {
        let m = decode_2pc(payload)?;
        let reply = match m.kind {
            MsgKind::Prepare | MsgKind::PrepareCommit => {
                let body = decode_prepare(&m.body);
                let mut shipped = PageArena::default();
                match self.prepare(ep, arena, &body, &mut shipped) {
                    Some((keys, out)) => {
                        self.served_subtxns.fetch_add(1, Ordering::Relaxed);
                        if m.kind == MsgKind::Prepare {
                            let staged = std::mem::take(arena);
                            self.prepared.lock().insert(m.txn_id, (keys, staged));
                            encode_2pc(MsgKind::VoteYes, m.txn_id, &encode_reads(&out.reads))
                        } else {
                            // The last agent: its yes is the commit, and its
                            // commit doorbell carries the coordinator's writes.
                            let images = body.images.iter().map(|(addr, page)| (*addr, &page[..]));
                            let uncached: Vec<_> = images.chain(self.pages(&shipped, |i| shipped.dirty[i])).collect();
                            let applied = self.finish(ep, &keys, arena, true, &uncached);
                            encode_2pc(MsgKind::VoteYes, m.txn_id, &encode_vote(&applied, &out.reads))
                        }
                    }
                    None => encode_2pc(MsgKind::VoteNo, m.txn_id, &[]),
                }
            }
            MsgKind::Commit | MsgKind::Abort => {
                let prepared = self.prepared.lock().remove(&m.txn_id);
                if let Some((keys, staged)) = prepared {
                    // A failure is counted in `apply_failures`.
                    let _ = self.finish(ep, &keys, &staged, m.kind == MsgKind::Commit, &[]);
                }
                encode_2pc(MsgKind::Ack, m.txn_id, &[])
            }
            _ => return None,
        };
        Some(reply)
    }

    /// The owner's half of a prepare: lock the keys in the coordinator's
    /// name, read and stage on `arena`, refuse a fenced coordinator, then
    /// run the ops the coordinator shipped on `shipped`'s slots — never in
    /// the pool: this node does not own those pages. `None` is a No vote,
    /// with nothing held.
    fn prepare(
        &self,
        ep: &Endpoint,
        arena: &mut PageArena,
        body: &PrepareBody,
        shipped: &mut PageArena,
    ) -> Option<(Vec<u64>, TxnOutput)> {
        let keys = distinct_keys(&body.ops);
        // Owner locks are held on behalf of the *coordinator's*
        // transaction: later conflicters blame the coordinator's trace.
        self.lock(ep, &keys, body.trace).ok()?;
        // Epoch fence: once the cluster bumps a node's epoch (declaring it
        // crashed and its locks stealable), prepares signed with the older
        // epoch are refused — a zombie coordinator that was merely
        // partitioned cannot come back and drive a commit with pre-crash
        // state. A last agent runs it too, before it writes anything. Its
        // READ rides the page fetch, the READs of the shipped pages behind
        // it; with neither to fetch it goes alone, under the membership's
        // own retries. Membership unreadable: refuse, don't guess.
        let psize = self.pool.page_size();
        shipped.plan(&body.shipped, psize);
        let mut epoch = None;
        let fence = Ride::Fence { addr: self.membership.epoch_addr(body.node), epoch: &mut epoch, shipped };
        let admitted = self.run(ep, arena, &body.ops, fence).ok().filter(|_| {
            let current = epoch.map_or_else(|| self.membership.epoch(self.table.layer(), ep, body.node), Ok);
            current.is_ok_and(|epoch| body.epoch >= epoch)
        });
        let Some(mut out) = admitted else {
            self.locks.unlock_all(&keys);
            return None;
        };
        for op in &body.shipped {
            out.reads.extend(shipped.apply(op, psize));
        }
        Some((keys, out))
    }

    /// Carry out the decision on a prepared sub-transaction, with
    /// `uncached` — a coordinator's pages — in its commit doorbell, and
    /// release its keys. A commit is final: if the write-back cannot reach
    /// DSM (memory node crashed mid-commit) the failure is counted, not
    /// swallowed, and returned — the record's surviving mirrors hold the
    /// pre-txn value until rebuild, and the operator sees the count.
    fn finish(
        &self,
        ep: &Endpoint,
        keys: &[u64],
        staged: &PageArena,
        commit: bool,
        uncached: &[(GlobalAddr, &[u8])],
    ) -> Result<(), TxnError> {
        let applied = if commit { self.write_back(ep, staged, uncached) } else { Ok(()) };
        if applied.is_err() {
            self.apply_failures.fetch_add(1, Ordering::Relaxed);
        }
        self.locks.unlock_all(keys);
        applied
    }
}

// ---------------------------------------------------------------------------
// Sub-transaction wire codec
// ---------------------------------------------------------------------------

/// The reads a vote carries: (key, page) in op order.
type Reads = Vec<(u64, Vec<u8>)>;

const OP_READ: u8 = 0;
const OP_UPDATE: u8 = 1;
const OP_RMW: u8 = 2;

/// Prepare body: `[epoch u64 | coordinator node u64 | coordinator trace
/// u64 | subtxn | shipment]`. The (node, epoch) pair is the coordinator's
/// signature for epoch fencing; the trace id lets the participant hold
/// locks in the coordinator's name so conflicters blame the right
/// transaction. Only a `PrepareCommit` may carry a shipment
/// ([`encode_shipment`]); without one the body ends after the subtxn.
pub(crate) fn encode_prepare(epoch: u64, node: usize, trace: u64, ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 2 + ops.len() * 12);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(node as u64).to_le_bytes());
    out.extend_from_slice(&trace.to_le_bytes());
    out.extend_from_slice(&encode_subtxn(ops));
    out
}

/// Append to a prepare `body` what the coordinator ships its last agent:
/// `[n u16 | n x (address u64 | len u16 | page)]`, the pages it staged,
/// then the subtxn of its ops on pages it did not have. Nothing when both
/// are empty.
pub(crate) fn encode_shipment(body: &mut Vec<u8>, images: &[(GlobalAddr, &[u8])], shipped: &[Op]) {
    if images.is_empty() && shipped.is_empty() {
        return;
    }
    body.extend_from_slice(&(images.len() as u16).to_le_bytes());
    for (addr, page) in images {
        body.extend_from_slice(&addr.to_raw().to_le_bytes());
        body.extend_from_slice(&(page.len() as u16).to_le_bytes());
        body.extend_from_slice(page);
    }
    body.extend_from_slice(&encode_subtxn(shipped));
}

/// A decoded prepare body.
#[derive(Debug, PartialEq)]
pub(crate) struct PrepareBody {
    /// The coordinator's node epoch.
    pub epoch: u64,
    /// The coordinator's compute node.
    pub node: usize,
    /// The coordinator's trace id.
    pub trace: u64,
    /// This owner's ops.
    pub ops: Vec<Op>,
    /// The coordinator's staged pages, by address.
    pub images: Vec<(GlobalAddr, Vec<u8>)>,
    /// The coordinator's ops on the pages it did not have, in op order.
    pub shipped: Vec<Op>,
}

pub(crate) fn decode_prepare(body: &[u8]) -> PrepareBody {
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    let (ops, mut pos) = decode_subtxn(body, 24);
    let (mut images, mut shipped) = (Vec::new(), Vec::new());
    if pos < body.len() {
        let n = u16::from_le_bytes(body[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        for _ in 0..n {
            let len = u16::from_le_bytes(body[pos + 8..pos + 10].try_into().unwrap()) as usize;
            images.push((GlobalAddr::from_raw(word(pos)), body[pos + 10..pos + 10 + len].to_vec()));
            pos += 10 + len;
        }
        shipped = decode_subtxn(body, pos).0;
    }
    PrepareBody { epoch: word(0), node: word(8) as usize, trace: word(16), ops, images, shipped }
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

/// The subtxn at `body[at..]`, and where it ends.
pub(crate) fn decode_subtxn(body: &[u8], at: usize) -> (Vec<Op>, usize) {
    let n = u16::from_le_bytes(body[at..at + 2].try_into().unwrap()) as usize;
    let mut ops = Vec::with_capacity(n);
    let mut pos = at + 2;
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
    (ops, pos)
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

pub(crate) fn decode_reads(body: &[u8]) -> Reads {
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

/// A last agent's yes: `[outcome u8 | node u16 | reads]`, where the
/// outcome is its commit doorbell's — 0 landed, 1 a node unavailable
/// (`node`), 2 a transient fault, 3 any other failure — and the reads are
/// its ops' and then the shipped ops'.
pub(crate) fn encode_vote(applied: &Result<(), TxnError>, reads: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let (outcome, node) = match applied {
        Ok(()) => (0u8, 0u16),
        Err(TxnError::NodeUnavailable { node }) => (1, *node),
        Err(TxnError::Aborted("transient-fault")) => (2, 0),
        Err(_) => (3, 0),
    };
    let mut out = vec![outcome];
    out.extend_from_slice(&node.to_le_bytes());
    out.extend_from_slice(&encode_reads(reads));
    out
}

/// The outcome and the reads of a last agent's yes ([`encode_vote`]).
pub(crate) fn decode_vote(body: &[u8]) -> (Result<(), TxnError>, Reads) {
    let applied = match body[0] {
        0 => Ok(()),
        1 => Err(TxnError::NodeUnavailable { node: u16::from_le_bytes([body[1], body[2]]) }),
        2 => Err(TxnError::Aborted("transient-fault")),
        _ => Err(TxnError::Aborted("commit-not-applied")),
    };
    (applied, decode_reads(&body[3..]))
}
