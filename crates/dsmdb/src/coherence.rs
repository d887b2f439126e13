//! Software cache coherence for the Figure 3b architecture.
//!
//! §4 Challenge 4, Approach #2: "a software-level cache coherence
//! protocol is needed to broadcast changes made by a compute node …
//! many implementation details can affect performance, e.g., invalidation-
//! vs. update-based". This is the invalidation-based one, built on:
//!
//! * a **sharer word** per record — the bitmap of compute nodes that may
//!   cache it (64-node limit = 64 bits), kept in the record header right
//!   beside the lock word ([`RecordTable::sharers_addr`]). 3b runs under
//!   exclusive 2PL only, so the word is read and written by the holder of
//!   the record's lock and by nobody else: it needs no atomics and no
//!   round trips of its own, it rides the lock's two doorbells;
//! * two-sided **coherence messages** between compute nodes; writers
//!   block (in virtual time) until every sharer acknowledges, which keeps
//!   the protocol sequentially consistent under the record locks the
//!   lock-based CC already holds. A transaction's invalidations for all
//!   its written keys go out as one message per sharer node in one
//!   doorbell, and it waits for the acks once.
//!
//! A node sets its bit in the release doorbell of the transaction that
//! filled its cache, and holds the record's lock from the fetch until
//! then, so a writer that follows always sees the sharer: at every unlock
//! the sharer word is a superset of the nodes holding a copy. Evictions do
//! not clear bits — a later invalidation of a non-resident page is simply
//! acked, trading a rare spurious message for a cheaper eviction path.
//!
//! A resident page is therefore a **read permission** the node already
//! holds, lazily: no writer commits over it before this node has dropped
//! it. A read-only transaction whose pages are all resident reads them
//! out of the pool with no lock and no verb
//! ([`CoherentIo::read_unlocked`](txn::PayloadIo::read_unlocked)), and
//! the permission is revoked only by the invalidation a writer sends
//! anyway. The pool does not serve a page that way while the transaction
//! that installed it has not settled, since its bytes may not be committed
//! yet.
//!
//! Each node answers coherence requests on its message handler
//! ([`NodeHandler`], which serves 3c's commit messages the same way), not
//! on the endpoint of whichever session happens to run it: what an ack
//! costs a writer does not depend on how far ahead that session's clock is.

use std::sync::Arc;

use buffer::BufferPool;
use dsm::{DsmResult, GlobalAddr};
use rdma_sim::{Endpoint, Mailbox, MailboxId, Phase};
use txn::table::RecordTable;
use txn::{KeyUse, PayloadIo, Rider};

use crate::node::NodeHandler;

/// Mailbox-id convention: compute node `n`'s inbox.
pub fn node_inbox_id(node: usize) -> MailboxId {
    0x2000_0000 + node as u64
}

/// Mailbox-id convention: session-private reply box.
pub fn session_inbox_id(node: usize, thread: usize) -> MailboxId {
    0x3000_0000 + (node as u64) * 1024 + thread as u64
}

// Message kinds of coherence requests, apart from `txn::twopc`'s 1..=7 on
// the same inboxes. A request is `[kind | reply-to | page…]`, each page its
// 8-byte address; an ack is `[MSG_ACK]` + the request's next 16 bytes.
const MSG_INVALIDATE: u8 = 0x11;
const MSG_ACK: u8 = 0x13;

/// A node handler's answer to a coherence request: drop from `pool` every
/// page it names, then the ack. `None` for any other message.
pub(crate) fn answer(pool: &BufferPool, ep: &Endpoint, payload: &[u8]) -> Option<Vec<u8>> {
    if payload.first() != Some(&MSG_INVALIDATE) {
        return None;
    }
    for addr in payload[9..].chunks_exact(8) {
        pool.invalidate(ep, GlobalAddr::from_raw(u64::from_le_bytes(addr.try_into().unwrap())));
    }
    let mut ack = vec![MSG_ACK];
    ack.extend_from_slice(&payload[1..17]);
    Some(ack)
}

/// Bytes of slot header in front of each key's payload copy in the
/// transaction's buffer: `slot[8 .. 24]`, the sharer word and `wts_0`. The
/// payload follows them in the slot too, so one READ brings all three.
const HDR: usize = 16;

/// The Figure 3b payload path, one per session: what a transaction reads
/// comes from the node's pool or, for a page that is not resident, with
/// the lock CAS; what it writes goes through to DSM with the unlock, after
/// every other sharer has dropped its copy.
pub struct CoherentIo {
    /// This node's handler, which owns its pool.
    pub handler: Arc<NodeHandler>,
    /// Session-private reply inbox (the session keeps a handle too).
    pub reply: Arc<Mailbox>,
    /// Its id (put into messages as reply-to, and the tag this session
    /// holds the pool frames it installs under).
    pub reply_id: MailboxId,
    /// Total compute nodes (bitmap width sanity).
    pub compute_nodes: usize,
}

impl CoherentIo {
    /// The pool's name for `key`'s page.
    fn page_addr(table: &RecordTable, key: u64) -> GlobalAddr {
        table.payload_addr(key, 0)
    }

    /// Hand `post` the READs that fill `chunk` = `slot[8 .. 24 + payload]`
    /// of `key`: one — or two, the sharer word and the payload apart,
    /// while a migration has the payload read from its new home.
    fn slot_reads<'a>(
        table: &RecordTable,
        key: u64,
        chunk: &'a mut [u8],
        mut post: impl FnMut(GlobalAddr, &'a mut [u8]),
    ) {
        let sharers = table.sharers_addr(key);
        let payload = table.payload_read_addr(key, 0);
        if payload == sharers.offset_by(HDR as u64) {
            post(sharers, chunk);
        } else {
            let (hdr, copy) = chunk.split_at_mut(HDR);
            post(sharers, &mut hdr[..8]);
            post(payload, copy);
        }
    }

    /// The writer side of the protocol for a transaction's written pages,
    /// each `(page, other sharers)`: tell every node that holds one of them
    /// to drop its copies, one message per node in one doorbell, and wait
    /// for their acks.
    fn propagate(&self, ep: &Endpoint, pages: &[(GlobalAddr, u64)]) -> DsmResult<()> {
        let _span = ep.span(Phase::CoherenceInval);
        for &(_, others) in pages {
            ep.note_inval_fanout(others.count_ones() as u64);
        }
        // The first message pays the full send latency, the rest ride
        // along. Nodes that never started (or already stopped) cannot hold
        // a stale copy, so `send_batch` skipping them is correct.
        let msgs = (0..self.compute_nodes).filter_map(|node| {
            let mut payload = vec![MSG_INVALIDATE];
            payload.extend_from_slice(&self.reply_id.to_le_bytes());
            for &(page, _) in pages.iter().filter(|(_, others)| others & (1 << node) != 0) {
                payload.extend_from_slice(&page.to_raw().to_le_bytes());
            }
            (payload.len() > 9).then(|| (node_inbox_id(node), self.reply_id, payload))
        });
        let mut pending = ep.send_batch(msgs)?;
        // Wait for acks; serve our own inbox meanwhile so two writers on
        // different nodes cannot deadlock waiting on each other.
        while pending > 0 {
            match ep.try_recv(&self.reply) {
                Ok(msg) if msg.payload.first() == Some(&MSG_ACK) => pending -= 1,
                Ok(_) => {}
                Err(_) => {
                    if !self.handler.serve_one() {
                        std::thread::yield_now();
                    }
                }
            }
        }
        Ok(())
    }

    /// One key's three steps on their own, `body` in place of the ops: for
    /// a caller that already holds the key's exclusive lock.
    fn under_lock(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        mut uses: [KeyUse; 1],
        body: impl FnOnce(&mut [u8]),
    ) -> DsmResult<()> {
        let layer = table.layer();
        let mut buf = vec![0u8; HDR + table.payload_size()];
        {
            let mut riders = Vec::new();
            self.ride(table, &mut uses, &mut buf, &mut riders);
            let mut reads: Vec<_> = riders.into_iter().map(|r| (r.addr, r.dst)).collect();
            if !reads.is_empty() {
                let _span = ep.span(Phase::PageFetch);
                layer.read_batch(ep, &mut reads)?;
            }
        }
        self.admit(ep, table, &mut uses, &mut buf)?;
        body(&mut buf[HDR..]);
        let mut writes = Vec::new();
        let done = self.retire(ep, table, &uses, &mut buf, &mut writes).and_then(|()| {
            let _span = ep.span(Phase::Writeback);
            layer.write_batch(ep, &writes)
        });
        self.settle(ep, table, &uses, done.is_ok());
        done
    }
}

impl PayloadIo for CoherentIo {
    /// Valid under the key's exclusive lock only. The engine never comes
    /// this way: 3b runs exclusive 2PL, whose lock set drives the steps.
    fn read_payload(&self, ep: &Endpoint, table: &RecordTable, key: u64, v: usize, dst: &mut [u8]) -> DsmResult<()> {
        assert_eq!(v, 0, "a coherent cache holds single-version records");
        let read = KeyUse { key, written: false, reads_old: true, fetched: false };
        self.under_lock(ep, table, [read], |copy| dst.copy_from_slice(copy))
    }

    /// As [`CoherentIo::read_payload`]: under the key's exclusive lock.
    fn write_payload(&self, ep: &Endpoint, table: &RecordTable, key: u64, v: usize, src: &[u8]) -> DsmResult<()> {
        assert_eq!(v, 0, "a coherent cache holds single-version records");
        let overwrite = KeyUse { key, written: true, reads_old: false, fetched: false };
        self.under_lock(ep, table, [overwrite], |copy| copy.copy_from_slice(src))
    }

    fn header_len(&self) -> usize {
        HDR
    }

    /// Every page resident and settled: copy them all out of the pool at
    /// one instant ([`BufferPool::read_resident_set`]). Each is the latest
    /// committed value then — a writer commits over a page only after this
    /// node's handler has dropped it — so the set is read as of that
    /// instant, with no lock and no verb.
    fn read_unlocked(&self, ep: &Endpoint, table: &RecordTable, uses: &[KeyUse], buf: &mut [u8]) -> bool {
        let chunks = buf.chunks_exact_mut(HDR + table.payload_size());
        let mut reqs: Vec<_> = uses
            .iter()
            .zip(chunks)
            .map(|(u, chunk)| (Self::page_addr(table, u.key), &mut chunk[HDR..]))
            .collect();
        self.handler.pool.read_resident_set(ep, &mut reqs)
    }

    /// Behind the lock CAS of a key whose old value is observed and whose
    /// page is not resident: `slot[8 .. 24 + payload]`. Of any other key
    /// that is written: the sharer word. Of a resident key that is only
    /// read: nothing — it is a sharer already and nobody has to know.
    fn ride<'a>(&self, table: &RecordTable, uses: &mut [KeyUse], buf: &'a mut [u8], riders: &mut Vec<Rider<'a>>) {
        let chunks = buf.chunks_exact_mut(HDR + table.payload_size());
        for (word, (u, chunk)) in uses.iter_mut().zip(chunks).enumerate() {
            u.fetched = u.reads_old && !self.handler.pool.contains(Self::page_addr(table, u.key));
            if u.fetched {
                Self::slot_reads(table, u.key, chunk, |addr, dst| riders.push(Rider { word, addr, dst }));
            } else if u.written {
                riders.push(Rider { word, addr: table.sharers_addr(u.key), dst: &mut chunk[..8] });
            }
        }
    }

    /// Copy out of the pool what did not come with the lock.
    fn admit(&self, ep: &Endpoint, table: &RecordTable, uses: &mut [KeyUse], buf: &mut [u8]) -> DsmResult<()> {
        let chunks = buf.chunks_exact_mut(HDR + table.payload_size());
        for (u, chunk) in uses.iter_mut().zip(chunks) {
            let from_pool = u.reads_old && !u.fetched;
            if !from_pool || self.handler.pool.read_resident(ep, Self::page_addr(table, u.key), &mut chunk[HDR..]) {
                continue;
            }
            // A sibling thread's fill took the frame since `ride`: the
            // same READ on its own, now under the lock.
            let mut reads = Vec::with_capacity(2);
            Self::slot_reads(table, u.key, chunk, |addr, dst| reads.push((addr, dst)));
            let _span = ep.span(Phase::PageFetch);
            table.layer().read_batch(ep, &mut reads)?;
            u.fetched = true;
        }
        Ok(())
    }

    /// Every other sharer of a written key drops its copy —
    /// one message round for the whole set — and the payload goes through
    /// to DSM. For a written or fetched key: the pool takes the page, held
    /// until [`settle`](PayloadIo::settle), and the sharer word — only if
    /// its value changes — goes to DSM as a plain WRITE.
    fn retire<'a>(
        &self,
        ep: &Endpoint,
        table: &RecordTable,
        uses: &[KeyUse],
        buf: &'a mut [u8],
        writes: &mut Vec<(GlobalAddr, &'a [u8])>,
    ) -> DsmResult<()> {
        let me = 1u64 << self.handler.node;
        let size = HDR + table.payload_size();
        let sharers_in = |chunk: &[u8]| u64::from_le_bytes(chunk[..8].try_into().expect("8-byte sharer word"));
        let shared: Vec<(GlobalAddr, u64)> = uses
            .iter()
            .zip(buf.chunks_exact(size))
            .filter(|(u, _)| u.written)
            .map(|(u, chunk)| (Self::page_addr(table, u.key), sharers_in(chunk) & !me))
            .filter(|&(_, others)| others != 0)
            .collect();
        if !shared.is_empty() {
            self.propagate(ep, &shared)?;
        }
        let chunks = buf.chunks_exact_mut(size);
        for (u, chunk) in uses.iter().zip(chunks).filter(|(u, _)| u.written || u.fetched) {
            let sharers = sharers_in(chunk);
            let (hdr, copy) = chunk.split_at_mut(HDR);
            self.handler.pool.install_page(ep, Self::page_addr(table, u.key), copy, self.reply_id)?;
            let keep = if u.written { me } else { sharers | me };
            hdr[..8].copy_from_slice(&keep.to_le_bytes());
            let (hdr, copy): (&'a [u8], &'a [u8]) = (hdr, copy);
            if u.written {
                let (old, dual) = table.payload_write_targets(u.key, 0);
                writes.push((old, copy));
                writes.extend(dual.map(|new| (new, copy)));
            }
            if keep != sharers {
                writes.push((table.sharers_addr(u.key), &hdr[..8]));
            }
        }
        Ok(())
    }

    /// Committed: the frames the transaction installed are the latest
    /// committed values now, free to be read without a lock. Failed: drop
    /// them all — their sharer bits may never have reached DSM, and their
    /// values never committed.
    fn settle(&self, ep: &Endpoint, table: &RecordTable, uses: &[KeyUse], committed: bool) {
        for u in uses.iter().filter(|u| u.written || u.fetched) {
            let page = Self::page_addr(table, u.key);
            if committed {
                self.handler.pool.settle(page, self.reply_id);
            } else {
                self.handler.pool.invalidate(ep, page);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffer::{LruPolicy, WriteMode};
    use dsm::{DsmConfig, DsmLayer};
    use rdma_sim::{Fabric, NetworkProfile};
    use txn::{ExclusiveLock, LockWord};

    use crate::membership::Membership;

    struct Setup {
        layer: Arc<DsmLayer>,
        table: Arc<RecordTable>,
        caches: Vec<Arc<NodeHandler>>,
        ios: Vec<CoherentIo>,
    }

    /// A session's io on `cache`, replying to `session_inbox_id(node, thread)`.
    fn io_on(fabric: &Arc<Fabric>, cache: &Arc<NodeHandler>, thread: usize) -> CoherentIo {
        let reply_id = session_inbox_id(cache.node, thread);
        CoherentIo {
            handler: cache.clone(),
            reply: Arc::new(fabric.mailboxes().register(reply_id)),
            reply_id,
            compute_nodes: 2,
        }
    }

    fn setup() -> Setup {
        let fabric = Fabric::new(NetworkProfile::zero());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 4 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        let table = Arc::new(RecordTable::create(&layer, 64, 16, 1).unwrap());
        let membership = Arc::new(Membership::create(&layer, &fabric.endpoint(), 2).unwrap());
        let caches: Vec<_> = (0..2)
            .map(|n| {
                let pool = BufferPool::new(layer.clone(), 16, 32, Box::new(LruPolicy::new(32)), WriteMode::WriteThrough);
                Arc::new(NodeHandler::new(&fabric, n, pool, table.clone(), membership.clone()))
            })
            .collect();
        let ios = caches.iter().map(|cache| io_on(&fabric, cache, 0)).collect();
        Setup {
            layer,
            table,
            caches,
            ios,
        }
    }

    /// `key`'s sharer word, read off the memory node (no verb).
    fn sharers(table: &RecordTable, key: u64) -> u64 {
        let addr = table.sharers_addr(key);
        let region = table.layer().fabric().region(addr.node()).unwrap();
        region.read_u64(addr.offset()).unwrap()
    }

    /// `write` on its own thread while node 1 answers its inbox.
    fn while_node_1_serves(caches: &[Arc<NodeHandler>], write: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            let writer = s.spawn(write);
            while !writer.is_finished() {
                caches[1].serve_one();
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn read_sets_directory_bit() {
        // The directory entry is the sharer word beside the lock word.
        let Setup { layer, table, ios, .. } = setup();
        let ep = layer.fabric().endpoint();
        let mut buf = [0u8; 16];
        ios[0].read_payload(&ep, &table, 5, 0, &mut buf).unwrap();
        assert_eq!(sharers(&table, 5), 0b01);
        ios[1].read_payload(&ep, &table, 5, 0, &mut buf).unwrap();
        assert_eq!(sharers(&table, 5), 0b11);
        assert_eq!(table.sharers_addr(5), table.lock_addr(5).offset_by(8));
        // Resident now: a reread touches neither the word nor the wire.
        let verbs = ep.stats().round_trips();
        ios[1].read_payload(&ep, &table, 5, 0, &mut buf).unwrap();
        assert_eq!(ep.stats().round_trips(), verbs);
    }

    #[test]
    fn invalidation_drops_remote_copy() {
        let Setup { layer, table, caches, ios, .. } = setup();
        let ep0 = layer.fabric().endpoint();
        let ep1 = layer.fabric().endpoint();
        let mut buf = [0u8; 16];
        // Node 1 caches key 3.
        ios[1].read_payload(&ep1, &table, 3, 0, &mut buf).unwrap();
        assert_eq!(caches[1].pool.resident(), 1);
        // Node 0 writes key 3: the ack wait needs node 1 to serve.
        let (io0, t) = (&ios[0], &table);
        while_node_1_serves(&caches, move || {
            io0.write_payload(&ep0, t, 3, 0, &[9u8; 16]).unwrap();
        });
        assert_eq!(caches[1].pool.resident(), 0, "copy invalidated");
        assert_eq!(sharers(&table, 3), 0b01, "only the writer holds a copy");
        // Node 1 rereads: sees the new value.
        ios[1].read_payload(&ep1, &table, 3, 0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 16]);
        assert_eq!(sharers(&table, 3), 0b11);
    }

    #[test]
    fn write_with_no_sharers_sends_nothing() {
        let Setup { layer, table, ios, .. } = setup();
        let ep = layer.fabric().endpoint();
        ios[0].write_payload(&ep, &table, 9, 0, &[1u8; 16]).unwrap();
        assert_eq!(ep.stats().sends, 0);
        assert_eq!(sharers(&table, 9), 0b01);
        // A blind write needs the sharer word, not the old payload; the
        // sharer word did not change the second time, so it stays home.
        let before = ep.stats();
        ios[0].write_payload(&ep, &table, 9, 0, &[2u8; 16]).unwrap();
        let s = ep.stats();
        assert_eq!((s.reads - before.reads, s.bytes_read - before.bytes_read), (1, 8));
        assert_eq!((s.writes - before.writes, s.bytes_written - before.bytes_written), (1, 16));
    }

    /// One key through `ride` and `admit` by hand, `between` them.
    fn ride_then_admit(io: &CoherentIo, table: &RecordTable, ep: &Endpoint, key: u64, between: impl FnOnce()) -> (KeyUse, Vec<u8>) {
        let mut uses = [KeyUse { key, written: false, reads_old: true, fetched: false }];
        let mut buf = vec![0u8; HDR + table.payload_size()];
        let mut riders = Vec::new();
        io.ride(table, &mut uses, &mut buf, &mut riders);
        let mut reads: Vec<_> = riders.into_iter().map(|r| (r.addr, r.dst)).collect();
        if !reads.is_empty() {
            table.layer().read_batch(ep, &mut reads).unwrap();
        }
        between();
        io.admit(ep, table, &mut uses, &mut buf).unwrap();
        (uses[0], buf)
    }

    #[test]
    fn a_page_evicted_between_ride_and_admit_is_fetched_under_the_lock() {
        let Setup { layer, table, caches, ios, .. } = setup();
        let ep = layer.fabric().endpoint();
        ios[0].write_payload(&ep, &table, 4, 0, &[8u8; 16]).unwrap();
        // Resident at `ride`: nothing rides, the pool serves `admit`.
        let before = ep.stats().reads;
        let (seen, buf) = ride_then_admit(&ios[0], &table, &ep, 4, || {});
        assert_eq!((seen.fetched, &buf[HDR..], ep.stats().reads), (false, &[8u8; 16][..], before));
        // Gone by `admit` (a sibling thread's fill took the frame): one
        // READ of the slot on its own, and the key counts as a fill.
        let (seen, buf) = ride_then_admit(&ios[0], &table, &ep, 4, || {
            caches[0].pool.invalidate(&ep, table.payload_addr(4, 0));
        });
        assert_eq!((seen.fetched, &buf[HDR..], ep.stats().reads), (true, &[8u8; 16][..], before + 1));
        assert_eq!(buf[..8], 0b01u64.to_le_bytes(), "sharers | wts | payload in one READ");
    }

    #[test]
    fn a_written_frame_is_not_read_without_the_lock_until_its_release_returned() {
        let Setup { layer, table, caches, ios, .. } = setup();
        let ep = layer.fabric().endpoint();
        ios[0].write_payload(&ep, &table, 4, 0, &[1u8; 16]).unwrap();
        // A sibling session of node 0, reading key 4 with no lock.
        let sibling = io_on(layer.fabric(), &caches[0], 1);
        let read = [KeyUse { key: 4, written: false, reads_old: true, fetched: false }];
        let unlocked = || {
            let mut buf = vec![0u8; HDR + 16];
            sibling.read_unlocked(&ep, &table, &read, &mut buf).then(|| buf[HDR])
        };
        assert_eq!(unlocked(), Some(1));
        // ios[0] rewrites key 4 by hand: ride, acquire, admit, retire.
        let mut uses = [KeyUse { key: 4, written: true, reads_old: true, fetched: false }];
        let mut words = [LockWord::new(table.lock_addr(4))];
        let mut buf = vec![0u8; HDR + 16];
        let mut riders = Vec::new();
        ios[0].ride(&table, &mut uses, &mut buf, &mut riders);
        ExclusiveLock::acquire_set(&layer, &ep, &mut words, &mut riders, 7, 0).unwrap();
        ios[0].admit(&ep, &table, &mut uses, &mut buf).unwrap();
        // Locked, not yet written: the committed value is still served.
        assert_eq!(unlocked(), Some(1));
        buf[HDR..].fill(2);
        let mut writes = Vec::new();
        ios[0].retire(&ep, &table, &uses, &mut buf, &mut writes).unwrap();
        // The pool holds the new value, which may still be rolled back.
        assert_eq!(unlocked(), None);
        ExclusiveLock::release_set(&layer, &ep, &writes, &mut words, 7).unwrap();
        ios[0].settle(&ep, &table, &uses, true);
        assert_eq!(unlocked(), Some(2));
    }

    #[test]
    fn a_payload_read_from_a_migrations_new_home_rides_apart_from_the_sharer_word() {
        let Setup { layer, table, caches, ios, .. } = setup();
        let ep = layer.fabric().endpoint();
        ios[0].write_payload(&ep, &table, 2, 0, &[3u8; 16]).unwrap();
        let dst = layer.join_group(4 << 20, 1, 4.0);
        table.begin_migration(dst, 0, 8).unwrap();
        while table.migrate_chunk(&ep, 8).unwrap() > 0 {}
        assert_ne!(table.payload_read_addr(2, 0).node(), table.sharers_addr(2).node());
        // Refill key 2: two riders, 8 B of the old home's header and the
        // payload from the new home.
        caches[0].pool.invalidate(&ep, table.payload_addr(2, 0));
        let before = ep.stats();
        let (seen, buf) = ride_then_admit(&ios[0], &table, &ep, 2, || {});
        let s = ep.stats();
        assert_eq!((s.reads - before.reads, s.bytes_read - before.bytes_read), (2, 8 + 16));
        assert_eq!((seen.fetched, &buf[HDR..]), (true, &[3u8; 16][..]));
        assert_eq!(buf[..8], 0b01u64.to_le_bytes());
        // A write in the window goes through to both homes.
        ios[0].write_payload(&ep, &table, 2, 0, &[6u8; 16]).unwrap();
        let (old, new) = table.dual_payload_addrs(2, 0).unwrap();
        for home in [old, new] {
            let mut at_home = [0u8; 16];
            layer.read(&ep, home, &mut at_home).unwrap();
            assert_eq!(at_home, [6u8; 16]);
        }
    }
}
