//! The buffer pool: local frames over remote DSM pages.
//!
//! §5: "all the data is stored in remote memory with hot data being cached
//! in local memory" — a two-level hierarchy with no disk underneath. The
//! pool fetches whole pages from the [`dsm::DsmLayer`] on a miss, serves
//! hits from local frames, and writes back (or through) on updates.
//! Every software action is priced by [`crate::cost`] and charged to the
//! calling endpoint, so experiments see lookup + maintenance +
//! synchronization overhead exactly as §5 Challenge 8 demands.
//!
//! # Striping and the miss protocol
//!
//! The pool is striped into N lock shards keyed by a hash of the page
//! address (see [`BufferPool::new_striped`]); [`BufferPool::new`] builds
//! the degenerate single-shard pool. Within a shard the miss path does
//! *not* hold the latch across the remote fetch: the frame is pinned
//! in-flight (`filling`), its data box is taken out, the latch drops, the
//! fetch happens on the wire, and the frame is published on return.
//! Concurrent requesters of the same page wait on the shard's condvar for
//! that frame — not on the pool lock — and count as hits. Dirty evictions
//! likewise write back outside the latch; the evicted address sits in a
//! `writing_back` set so nobody re-fetches a page whose newest bytes are
//! still in flight toward DSM.
//!
//! Multi-page entry points ([`BufferPool::read_pages`],
//! [`BufferPool::write_pages`]) coalesce all remote traffic of a call into
//! one doorbell per direction: one `write_batch` for every dirty victim
//! (plus write-through propagation) and one `read_batch` for every fetch.
//! A read can also be taken in its two halves — [`BufferPool::resolve_reads`]
//! serves the hits and reserves the misses, [`Fetch::complete`] posts and
//! publishes — and between them the caller hands the fetch riders: work
//! requests posted behind the fetch READs in the same doorbell, a
//! write-through among them ([`Fetch::complete_writing`]).
//! To stay deadlock-free a thread never sleeps on a condvar while it holds
//! unfetched reservations — it flushes its batch first, then waits.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dsm::{DsmLayer, DsmResult, GlobalAddr, GlobalWr};
use parking_lot::{Condvar, Mutex};
use rdma_sim::{Endpoint, Metric, Phase};

use crate::cost::{copy_cost_ns, LOCK_NS, MAP_OP_NS};
use crate::policy::{FrameId, ReplacementPolicy};

/// When modified pages reach remote memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Every write is immediately propagated to DSM (simple coherence).
    WriteThrough,
    /// Writes dirty the frame; DSM is updated on eviction/flush.
    WriteBack,
}

/// Aggregate pool counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Accesses served from a local frame.
    pub hits: u64,
    /// Accesses that fetched from DSM.
    pub misses: u64,
    /// Victim evictions performed.
    pub evictions: u64,
    /// Dirty evictions that wrote back to DSM.
    pub writebacks: u64,
    /// Pages dropped by [`BufferPool::invalidate`].
    pub invalidations: u64,
    /// Total software overhead charged, ns (policy + lookup + latch).
    pub overhead_ns: u64,
}

impl PoolStats {
    /// hits / (hits + misses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn accumulate(&mut self, o: &PoolStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.writebacks += o.writebacks;
        self.invalidations += o.invalidations;
        self.overhead_ns += o.overhead_ns;
    }
}

struct Frame {
    data: Box<[u8]>,
    /// Raw [`GlobalAddr`] of the resident page; `u64::MAX` when empty.
    page: u64,
    dirty: bool,
    /// Pinned for an in-flight remote fetch; `data` is taken out and the
    /// frame must not be read, evicted, or invalidated until published.
    filling: bool,
    /// Nonzero: the tag of the caller that installed the page and has not
    /// settled it yet ([`BufferPool::install_page`]).
    held_by: u64,
}

struct ShardInner {
    policy: Box<dyn ReplacementPolicy>,
    frames: Vec<Frame>,
    page_table: HashMap<u64, FrameId>,
    free: Vec<FrameId>,
    /// Pages evicted dirty whose write-back to DSM is still in flight; a
    /// miss on one of these must wait or it would fetch stale bytes.
    writing_back: HashSet<u64>,
    /// Number of frames currently `filling`.
    filling: usize,
    stats: PoolStats,
}

struct Shard {
    inner: Mutex<ShardInner>,
    cv: Condvar,
}

/// A fixed-capacity page cache in compute-node local memory, striped into
/// independent lock shards.
pub struct BufferPool {
    layer: Arc<DsmLayer>,
    page_size: usize,
    mode: WriteMode,
    shards: Vec<Shard>,
    /// `64 - log2(shards)`: fibonacci-hash shift for shard selection.
    shard_shift: u32,
}

/// A frame reserved for an in-flight fetch, tracked outside the latch.
struct PendingFetch {
    req_idx: usize,
    shard: usize,
    frame: FrameId,
    key: u64,
    data: Box<[u8]>,
    /// Raw address of a dirty victim whose bytes currently sit in `data`
    /// and must reach DSM before the fetch reuses the buffer.
    writeback: Option<u64>,
}

/// A dirty victim snapshotted by the write path for the batched doorbell.
struct PendingWriteback {
    shard: usize,
    raw: u64,
    data: Box<[u8]>,
}

/// What a frame that just took a written page owes DSM for it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Owes {
    /// Nothing: the caller moves the page itself, and holds the frame
    /// under this tag until it settles ([`BufferPool::install_page`]).
    Nothing(u64),
    /// The bytes, in this call's doorbell (write-through).
    Now,
    /// The bytes, when the frame is evicted or flushed (write-back).
    Later,
}

enum Step {
    /// Request served (hit, or write applied to a frame).
    Done,
    /// Frame reserved; the caller owns the fetch.
    Reserved(PendingFetch),
    /// Would need to sleep while holding batched state: flush first.
    MustFlush,
}

/// The misses of one [`BufferPool::resolve_reads`] call: frames reserved
/// and pinned in flight, their pages not fetched yet. Dropped without
/// being completed, it frees the frames.
pub struct Fetch<'p> {
    pool: &'p BufferPool,
    pending: Vec<PendingFetch>,
}

impl Fetch<'_> {
    /// Whether no page is left to fetch.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether request `i` of the resolved list is left to fetch.
    pub fn reserved(&self, i: usize) -> bool {
        self.pending.iter().any(|p| p.req_idx == i)
    }

    /// Post the fetch READs with `riders` behind them as one
    /// [`DsmLayer::doorbell`] (with none, as [`DsmLayer::read_batch`],
    /// whose READs alone fall back on per-address fail-over when a member
    /// dies mid-group), then publish every page and copy it out to `dsts`:
    /// one per page left to fetch, in request order. On an error the
    /// frames are freed and nothing is copied.
    pub fn complete<'d, 'r>(
        mut self,
        ep: &Endpoint,
        dsts: impl IntoIterator<Item = &'d mut [u8]>,
        riders: impl IntoIterator<Item = GlobalWr<'r>>,
    ) -> DsmResult<()> {
        let mut dsts = dsts.into_iter();
        self.pool.complete_fetches(ep, &mut self.pending, riders, |_, page| {
            dsts.next().expect("one destination per reserved page").copy_from_slice(page)
        })
    }

    /// [`Fetch::complete`] with `writes` — full pages, none of them left
    /// to fetch here — written through the cache behind the READs: each is
    /// resolved into its frame as [`BufferPool::write_pages`] resolves it,
    /// and all of them ride the fetch's doorbell. If that doorbell fails,
    /// the written frames are dropped, so the cache never holds bytes DSM
    /// may not. Returns false when nothing rode — the pool writes back, or
    /// a page could be taken only by waiting, which a holder of
    /// reservations must not — having completed the fetch alone and left
    /// the writes to the caller.
    pub fn complete_writing<'d>(
        self,
        ep: &Endpoint,
        dsts: impl IntoIterator<Item = &'d mut [u8]>,
        writes: &[(GlobalAddr, &[u8])],
    ) -> DsmResult<bool> {
        let pool = self.pool;
        if pool.mode != WriteMode::WriteThrough || !pool.stage_through(ep, writes) {
            self.complete(ep, dsts, None)?;
            return Ok(false);
        }
        let riders = writes.iter().map(|&(addr, src)| GlobalWr::Write { addr, src });
        self.complete(ep, dsts, riders)
            .inspect_err(|_| pool.drop_written(ep, writes.iter().map(|w| w.0)))?;
        Ok(true)
    }
}

impl Drop for Fetch<'_> {
    fn drop(&mut self) {
        self.pool.abort_fetches(&mut self.pending);
    }
}

impl BufferPool {
    /// A single-shard pool of `capacity_pages` frames of `page_size`
    /// bytes, managed by `policy`, fronting `layer`.
    pub fn new(
        layer: Arc<DsmLayer>,
        page_size: usize,
        capacity_pages: usize,
        policy: Box<dyn ReplacementPolicy>,
        mode: WriteMode,
    ) -> Self {
        Self::build(layer, page_size, mode, vec![(capacity_pages, policy)])
    }

    /// A pool striped into `shards` (power of two) independent lock
    /// shards; `policy` is invoked once per shard with that shard's frame
    /// capacity. Page addresses map to shards by fibonacci hash.
    pub fn new_striped(
        layer: Arc<DsmLayer>,
        page_size: usize,
        capacity_pages: usize,
        shards: usize,
        policy: impl Fn(usize) -> Box<dyn ReplacementPolicy>,
        mode: WriteMode,
    ) -> Self {
        assert!(shards >= 1 && shards.is_power_of_two(), "shards must be a power of two");
        assert!(capacity_pages >= shards, "need at least one frame per shard");
        let base = capacity_pages / shards;
        let rem = capacity_pages % shards;
        let per_shard = (0..shards)
            .map(|i| {
                let cap = base + usize::from(i < rem);
                (cap, policy(cap))
            })
            .collect();
        Self::build(layer, page_size, mode, per_shard)
    }

    fn build(
        layer: Arc<DsmLayer>,
        page_size: usize,
        mode: WriteMode,
        per_shard: Vec<(usize, Box<dyn ReplacementPolicy>)>,
    ) -> Self {
        let nshards = per_shard.len();
        assert!(nshards.is_power_of_two());
        let shards = per_shard
            .into_iter()
            .map(|(cap, policy)| {
                assert!(cap >= 1);
                let frames = (0..cap)
                    .map(|_| Frame {
                        data: vec![0u8; page_size].into_boxed_slice(),
                        page: u64::MAX,
                        dirty: false,
                        filling: false,
                        held_by: 0,
                    })
                    .collect();
                Shard {
                    inner: Mutex::new(ShardInner {
                        policy,
                        frames,
                        page_table: HashMap::with_capacity(cap * 2),
                        free: (0..cap).rev().collect(),
                        writing_back: HashSet::new(),
                        filling: 0,
                        stats: PoolStats::default(),
                    }),
                    cv: Condvar::new(),
                }
            })
            .collect();
        Self {
            layer,
            page_size,
            mode,
            shards,
            shard_shift: 64 - nshards.trailing_zeros(),
        }
    }

    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shard_shift) as usize
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Frame capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().frames.len()).sum()
    }

    /// Number of resident pages (including frames mid-fetch).
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().page_table.len()).sum()
    }

    /// Whether `addr`'s page is currently resident (no cost charged —
    /// callers fold this into their own accounting).
    pub fn contains(&self, addr: GlobalAddr) -> bool {
        let key = addr.to_raw();
        self.shards[self.shard_of(key)]
            .inner
            .lock()
            .page_table
            .contains_key(&key)
    }

    /// Counter snapshot: all shard latches are held simultaneously, so
    /// `hit_rate()` can never observe a torn hits/misses pair.
    pub fn stats(&self) -> PoolStats {
        let guards: Vec<_> = self.shards.iter().map(|s| s.inner.lock()).collect();
        let mut total = PoolStats::default();
        for g in &guards {
            total.accumulate(&g.stats);
        }
        total
    }

    /// Zero the counters (between experiment phases). Holds every shard
    /// latch at once so concurrent readers see all-old or all-new.
    pub fn reset_stats(&self) {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.inner.lock()).collect();
        for g in guards.iter_mut() {
            g.stats = PoolStats::default();
        }
    }

    fn charge(ep: &Endpoint, s: &mut ShardInner, ns: u64) {
        ep.charge_local(ns);
        s.stats.overhead_ns += ns;
    }

    /// Read the page at `addr` into `dst` (must be `page_size` long).
    /// Returns true on a local hit.
    pub fn read_page(&self, ep: &Endpoint, addr: GlobalAddr, dst: &mut [u8]) -> DsmResult<bool> {
        let mut reqs = [(addr, dst)];
        Ok(self.read_pages(ep, &mut reqs)? == 1)
    }

    /// Read the page at `addr` into `dst` if it is resident — a hit in
    /// every respect — and return whether it was. A page that is not is
    /// neither fetched nor charged for: the caller brings it from DSM
    /// itself and hands it over with [`BufferPool::install_page`]. A held
    /// page is served too: the caller is the one who may see it.
    pub fn read_resident(&self, ep: &Endpoint, addr: GlobalAddr, dst: &mut [u8]) -> bool {
        assert_eq!(dst.len(), self.page_size);
        let key = addr.to_raw();
        let sh = &self.shards[self.shard_of(key)];
        let mut inner = sh.inner.lock();
        loop {
            let s = &mut *inner;
            match s.page_table.get(&key) {
                Some(&f) if s.frames[f].filling => {
                    ep.note_lock_wait(key, LOCK_NS);
                    sh.cv.wait(&mut inner);
                }
                Some(&f) => {
                    self.serve_hit(ep, s, f, key, dst);
                    return true;
                }
                None => return false,
            }
        }
    }

    /// Read every page of `reqs` (addresses distinct) out of the pool at
    /// one instant, or none of them: with the latches of every shard the
    /// set touches held at once, taken in ascending order as
    /// [`BufferPool::stats`] takes them, each page must be resident,
    /// settled and not mid-fetch. Then every page is a hit, charged as
    /// [`BufferPool::read_resident`] charges it, and the call returns
    /// true; otherwise it returns false, having copied and charged nothing.
    /// It never waits.
    pub fn read_resident_set(&self, ep: &Endpoint, reqs: &mut [(GlobalAddr, &mut [u8])]) -> bool {
        let mut shards: Vec<usize> = reqs.iter().map(|(a, _)| self.shard_of(a.to_raw())).collect();
        shards.sort_unstable();
        shards.dedup();
        let mut guards: Vec<_> = shards.iter().map(|&i| self.shards[i].inner.lock()).collect();
        let at = |key: u64| shards.binary_search(&self.shard_of(key)).expect("shard latched");
        let mut frames = Vec::with_capacity(reqs.len());
        for (addr, dst) in reqs.iter() {
            assert_eq!(dst.len(), self.page_size);
            let key = addr.to_raw();
            let s = &guards[at(key)];
            match s.page_table.get(&key) {
                Some(&f) if !s.frames[f].filling && s.frames[f].held_by == 0 => frames.push(f),
                _ => return false,
            }
        }
        for ((addr, dst), f) in reqs.iter_mut().zip(frames) {
            let key = addr.to_raw();
            self.serve_hit(ep, &mut guards[at(key)], f, key, dst);
        }
        true
    }

    /// Copy resident frame `f` (page `key`) out to `dst`: the read hit.
    #[inline]
    fn serve_hit(&self, ep: &Endpoint, s: &mut ShardInner, f: FrameId, key: u64, dst: &mut [u8]) {
        let latch = if s.policy.latch_free_hits() { 0 } else { LOCK_NS };
        let pol = s.policy.on_hit(f, key);
        Self::charge(ep, s, MAP_OP_NS + latch + pol);
        ep.charge_local(copy_cost_ns(self.page_size));
        dst.copy_from_slice(&s.frames[f].data);
        s.stats.hits += 1;
        ep.series_note(Metric::CacheHits, 1);
    }

    /// Read every page in `reqs` (addresses must be distinct), resolving
    /// hits locally and fetching all misses in one doorbell group (plus
    /// one group for any dirty victim write-backs). Returns the number of
    /// local hits.
    pub fn read_pages(&self, ep: &Endpoint, reqs: &mut [(GlobalAddr, &mut [u8])]) -> DsmResult<usize> {
        let (hits, mut fetch) = self.resolve_reads(ep, reqs)?;
        self.complete_fetches(ep, &mut fetch.pending, None, |i, page| reqs[i].1.copy_from_slice(page))?;
        Ok(hits)
    }

    /// The first half of [`BufferPool::read_pages`]: serve every hit of
    /// `reqs` (addresses distinct) and reserve a frame for every miss,
    /// fetching nothing. Returns the hits and the misses left to fetch; a
    /// miss that could be reserved only by waiting makes the call fetch
    /// the ones reserved before it first, so those are no longer left.
    pub fn resolve_reads(&self, ep: &Endpoint, reqs: &mut [(GlobalAddr, &mut [u8])]) -> DsmResult<(usize, Fetch<'_>)> {
        let mut hits = 0usize;
        let mut fetch = Fetch { pool: self, pending: Vec::new() };
        let mut i = 0;
        while i < reqs.len() {
            match self.resolve_read(ep, i, reqs, fetch.is_empty())? {
                Step::Done => {
                    hits += 1;
                    i += 1;
                }
                Step::Reserved(p) => {
                    fetch.pending.push(p);
                    i += 1;
                }
                Step::MustFlush => self.complete_fetches(ep, &mut fetch.pending, None, |idx, page| {
                    reqs[idx].1.copy_from_slice(page)
                })?,
            }
        }
        Ok((hits, fetch))
    }

    /// One read request: hit (copy out), or reserve a frame for the batch.
    /// With `can_wait` false the caller holds unfetched reservations, so
    /// instead of sleeping we ask it to flush (deadlock freedom: a thread
    /// only ever blocks while holding nothing in flight).
    fn resolve_read(
        &self,
        ep: &Endpoint,
        i: usize,
        reqs: &mut [(GlobalAddr, &mut [u8])],
        can_wait: bool,
    ) -> DsmResult<Step> {
        let (addr, dst) = &mut reqs[i];
        assert_eq!(dst.len(), self.page_size);
        let key = addr.to_raw();
        let shard_idx = self.shard_of(key);
        let sh = &self.shards[shard_idx];
        let mut inner = sh.inner.lock();
        loop {
            let s = &mut *inner;
            if let Some(&f) = s.page_table.get(&key) {
                if s.frames[f].filling {
                    // Another thread's fetch is in flight: wait on the
                    // frame, not the pool — then it's a hit. Real
                    // page-level contention: attribute it to the page in
                    // the endpoint's hot-key tally.
                    if !can_wait {
                        return Ok(Step::MustFlush);
                    }
                    ep.note_lock_wait(key, LOCK_NS);
                    sh.cv.wait(&mut inner);
                    continue;
                }
                self.serve_hit(ep, s, f, key, dst);
                return Ok(Step::Done);
            }
            if s.writing_back.contains(&key) {
                if !can_wait {
                    return Ok(Step::MustFlush);
                }
                ep.note_lock_wait(key, LOCK_NS);
                sh.cv.wait(&mut inner);
                continue;
            }
            // Miss: reserve a frame, pin it in-flight, and take its data
            // box so the fetch can run outside the latch.
            let mut overhead = MAP_OP_NS + LOCK_NS;
            let (f, writeback) = match s.free.pop() {
                Some(f) => (f, None),
                None => {
                    if s.page_table.len() - s.filling == 0 {
                        // Every frame is mid-fetch; wait for one to settle.
                        if !can_wait {
                            return Ok(Step::MustFlush);
                        }
                        sh.cv.wait(&mut inner);
                        continue;
                    }
                    let (victim, pol) = s.policy.victim();
                    overhead += pol;
                    s.stats.evictions += 1;
                    ep.series_note(Metric::Evictions, 1);
                    let old = &mut s.frames[victim];
                    s.page_table.remove(&old.page);
                    let wb = if old.dirty {
                        s.writing_back.insert(old.page);
                        old.dirty = false;
                        Some(old.page)
                    } else {
                        None
                    };
                    (victim, wb)
                }
            };
            let fr = &mut s.frames[f];
            fr.page = key;
            fr.filling = true;
            fr.held_by = 0;
            s.filling += 1;
            let data = std::mem::take(&mut fr.data);
            s.page_table.insert(key, f);
            overhead += MAP_OP_NS;
            Self::charge(ep, s, overhead);
            s.stats.misses += 1;
            ep.series_note(Metric::CacheMisses, 1);
            return Ok(Step::Reserved(PendingFetch {
                req_idx: i,
                shard: shard_idx,
                frame: f,
                key,
                data,
                writeback,
            }));
        }
    }

    /// Flush a read batch: one doorbell of dirty victim write-backs, one
    /// doorbell of fetches with `riders` behind them, then publish every
    /// frame and hand `publish` each page with its request index.
    fn complete_fetches<'r>(
        &self,
        ep: &Endpoint,
        pending: &mut Vec<PendingFetch>,
        riders: impl IntoIterator<Item = GlobalWr<'r>>,
        mut publish: impl FnMut(usize, &[u8]),
    ) -> DsmResult<()> {
        if pending.is_empty() {
            return Ok(());
        }
        {
            let wb: Vec<(GlobalAddr, &[u8])> = pending
                .iter()
                .filter_map(|p| p.writeback.map(|raw| (GlobalAddr::from_raw(raw), &p.data[..])))
                .collect();
            if !wb.is_empty() {
                let _span = ep.span(Phase::Writeback);
                if let Err(e) = self.layer.write_batch(ep, &wb) {
                    drop(wb);
                    self.abort_fetches(pending);
                    return Err(e);
                }
            }
        }
        {
            let mut riders = riders.into_iter().peekable();
            let _span = ep.span(Phase::PageFetch);
            let fetched = if riders.peek().is_none() {
                let mut fetch: Vec<(GlobalAddr, &mut [u8])> = pending
                    .iter_mut()
                    .map(|p| (GlobalAddr::from_raw(p.key), &mut p.data[..]))
                    .collect();
                self.layer.read_batch(ep, &mut fetch)
            } else {
                let mut wrs: Vec<GlobalWr<'_>> = pending
                    .iter_mut()
                    .map(|p| GlobalWr::Read { addr: GlobalAddr::from_raw(p.key), dst: &mut p.data[..] })
                    .collect();
                for wr in riders {
                    wrs.push(wr);
                }
                self.layer.doorbell(ep, &mut wrs)
            };
            if let Err(e) = fetched {
                self.abort_fetches(pending);
                return Err(e);
            }
        }
        for p in pending.drain(..) {
            ep.charge_local(copy_cost_ns(self.page_size));
            publish(p.req_idx, &p.data);
            let sh = &self.shards[p.shard];
            {
                let mut inner = sh.inner.lock();
                let s = &mut *inner;
                let fr = &mut s.frames[p.frame];
                fr.data = p.data;
                fr.dirty = false;
                fr.filling = false;
                s.filling -= 1;
                if let Some(raw) = p.writeback {
                    s.writing_back.remove(&raw);
                    s.stats.writebacks += 1;
                    ep.series_note(Metric::Writebacks, 1);
                }
                let pol = s.policy.on_insert(p.frame, p.key);
                Self::charge(ep, s, pol);
            }
            sh.cv.notify_all();
        }
        Ok(())
    }

    /// Undo reservations after a failed batch: free the frames, clear the
    /// markers, wake waiters. (Dirty victim bytes may be lost, matching
    /// the pre-striping error behavior — layer errors only arise in
    /// failure-injection runs that bypass the pool.)
    fn abort_fetches(&self, pending: &mut Vec<PendingFetch>) {
        for p in pending.drain(..) {
            let sh = &self.shards[p.shard];
            {
                let mut inner = sh.inner.lock();
                let s = &mut *inner;
                s.page_table.remove(&p.key);
                let fr = &mut s.frames[p.frame];
                fr.page = u64::MAX;
                fr.dirty = false;
                fr.filling = false;
                fr.data = p.data;
                s.filling -= 1;
                s.free.push(p.frame);
                if let Some(raw) = p.writeback {
                    s.writing_back.remove(&raw);
                }
            }
            sh.cv.notify_all();
        }
    }

    /// Write `src` (a full page) to `addr` through the cache.
    pub fn write_page(&self, ep: &Endpoint, addr: GlobalAddr, src: &[u8]) -> DsmResult<()> {
        self.write_pages(ep, &[(addr, src)])
    }

    /// Make the cached copy of `addr` equal `src` (a full page) and leave
    /// DSM alone: the write path minus the propagation. For a caller that
    /// moves the page to or from DSM in a doorbell of its own — `src` is
    /// what it just read there, or what it is about to write there — so
    /// the frame is clean afterwards in either write mode. The frame is
    /// held under `holder` (nonzero) until [`BufferPool::settle`]: until
    /// the caller knows the bytes are committed,
    /// [`BufferPool::read_resident_set`] does not serve them.
    pub fn install_page(&self, ep: &Endpoint, addr: GlobalAddr, src: &[u8], holder: u64) -> DsmResult<()> {
        assert_ne!(holder, 0, "a hold needs a nonzero tag");
        self.put_pages(ep, &[(addr, src)], Owes::Nothing(holder))
    }

    /// End `holder`'s hold on `addr`'s frame. A frame since taken over by
    /// another holder, evicted or invalidated is left alone. Charges
    /// nothing: a tag compare under a latch the install already paid for.
    pub fn settle(&self, addr: GlobalAddr, holder: u64) {
        let key = addr.to_raw();
        let mut inner = self.shards[self.shard_of(key)].inner.lock();
        let s = &mut *inner;
        if let Some(&f) = s.page_table.get(&key) {
            if s.frames[f].held_by == holder {
                s.frames[f].held_by = 0;
            }
        }
    }

    /// Write every full page in `reqs` through the cache. All remote
    /// traffic of the call — dirty victim write-backs plus (in
    /// write-through mode) the propagation of every page — goes out as one
    /// doorbell group.
    pub fn write_pages(&self, ep: &Endpoint, reqs: &[(GlobalAddr, &[u8])]) -> DsmResult<()> {
        let owes = match self.mode {
            WriteMode::WriteThrough => Owes::Now,
            WriteMode::WriteBack => Owes::Later,
        };
        self.put_pages(ep, reqs, owes)
    }

    /// The write path: the frames take the pages of `reqs` and owe DSM
    /// `owes` for them.
    fn put_pages(&self, ep: &Endpoint, reqs: &[(GlobalAddr, &[u8])], owes: Owes) -> DsmResult<()> {
        let mut wbs: Vec<PendingWriteback> = Vec::new();
        let mut through: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < reqs.len() {
            // Never sleep while holding batched state: flush first.
            let can_wait = wbs.is_empty() && through.is_empty();
            match self.resolve_write(ep, i, reqs, owes, can_wait, &mut wbs, &mut through)? {
                Step::Done => i += 1,
                Step::Reserved(_) => unreachable!("write path fills frames locally"),
                Step::MustFlush => self.complete_writes(ep, reqs, &mut wbs, &mut through)?,
            }
        }
        self.complete_writes(ep, reqs, &mut wbs, &mut through)
    }

    /// The write-through path's frame half for a caller that holds
    /// reservations and posts the writes itself: `writes` go into their
    /// frames, and no page is waited for. Returns false, with the frames
    /// written so far dropped, when one would have to be.
    fn stage_through(&self, ep: &Endpoint, writes: &[(GlobalAddr, &[u8])]) -> bool {
        let (mut wbs, mut through) = (Vec::new(), Vec::new());
        for i in 0..writes.len() {
            if !matches!(self.resolve_write(ep, i, writes, Owes::Now, false, &mut wbs, &mut through), Ok(Step::Done)) {
                self.drop_written(ep, writes[..i].iter().map(|w| w.0));
                return false;
            }
        }
        debug_assert!(wbs.is_empty(), "a write-through pool holds no dirty frame");
        true
    }

    /// One write request: apply `src` to a (possibly newly allocated)
    /// frame under the shard latch. Remote work is only *recorded* (victim
    /// snapshot / write-through index) for the batched doorbell. With
    /// `can_wait` false a page that would need waiting for is `MustFlush`.
    #[allow(clippy::too_many_arguments)]
    fn resolve_write(
        &self,
        ep: &Endpoint,
        i: usize,
        reqs: &[(GlobalAddr, &[u8])],
        owes: Owes,
        can_wait: bool,
        wbs: &mut Vec<PendingWriteback>,
        through: &mut Vec<usize>,
    ) -> DsmResult<Step> {
        let (addr, src) = &reqs[i];
        assert_eq!(src.len(), self.page_size);
        let key = addr.to_raw();
        let shard_idx = self.shard_of(key);
        let sh = &self.shards[shard_idx];
        let held_by = match owes {
            Owes::Nothing(holder) => holder,
            Owes::Now | Owes::Later => 0,
        };
        let mut inner = sh.inner.lock();
        loop {
            let s = &mut *inner;
            if let Some(&f) = s.page_table.get(&key) {
                if s.frames[f].filling {
                    if !can_wait {
                        return Ok(Step::MustFlush);
                    }
                    ep.note_lock_wait(key, LOCK_NS);
                    sh.cv.wait(&mut inner);
                    continue;
                }
                let pol = s.policy.on_hit(f, key);
                Self::charge(ep, s, MAP_OP_NS + LOCK_NS + pol);
                s.stats.hits += 1;
                ep.series_note(Metric::CacheHits, 1);
                ep.charge_local(copy_cost_ns(self.page_size));
                s.frames[f].data.copy_from_slice(src);
                s.frames[f].dirty = owes == Owes::Later;
                s.frames[f].held_by = held_by;
                if owes == Owes::Now {
                    through.push(i);
                }
                return Ok(Step::Done);
            }
            if s.writing_back.contains(&key) {
                if !can_wait {
                    return Ok(Step::MustFlush);
                }
                ep.note_lock_wait(key, LOCK_NS);
                sh.cv.wait(&mut inner);
                continue;
            }
            // Miss: the whole page is overwritten, so no fetch — allocate
            // a frame and fill it from `src` under the latch.
            let mut overhead = MAP_OP_NS + LOCK_NS;
            let f = match s.free.pop() {
                Some(f) => f,
                None => {
                    if s.page_table.len() - s.filling == 0 {
                        if !can_wait {
                            return Ok(Step::MustFlush);
                        }
                        sh.cv.wait(&mut inner);
                        continue;
                    }
                    let (victim, pol) = s.policy.victim();
                    overhead += pol;
                    s.stats.evictions += 1;
                    ep.series_note(Metric::Evictions, 1);
                    let old = &mut s.frames[victim];
                    s.page_table.remove(&old.page);
                    if old.dirty {
                        // Snapshot the dirty bytes for the batched
                        // doorbell; mark the page write-back-in-flight.
                        s.writing_back.insert(old.page);
                        wbs.push(PendingWriteback {
                            shard: shard_idx,
                            raw: old.page,
                            data: old.data.clone(),
                        });
                        old.dirty = false;
                        s.stats.writebacks += 1;
                        ep.series_note(Metric::Writebacks, 1);
                    }
                    victim
                }
            };
            let fr = &mut s.frames[f];
            fr.page = key;
            ep.charge_local(copy_cost_ns(self.page_size));
            fr.data.copy_from_slice(src);
            fr.dirty = owes == Owes::Later;
            fr.held_by = held_by;
            if owes == Owes::Now {
                through.push(i);
            }
            s.page_table.insert(key, f);
            overhead += s.policy.on_insert(f, key) + MAP_OP_NS;
            Self::charge(ep, s, overhead);
            s.stats.misses += 1;
            ep.series_note(Metric::CacheMisses, 1);
            return Ok(Step::Done);
        }
    }

    /// Flush a write batch: victim write-backs first, then write-through
    /// propagation (newer bytes), all in one doorbell group. If it fails,
    /// the frames written through are dropped: a retry must not find the
    /// bytes DSM never took.
    fn complete_writes(
        &self,
        ep: &Endpoint,
        reqs: &[(GlobalAddr, &[u8])],
        wbs: &mut Vec<PendingWriteback>,
        through: &mut Vec<usize>,
    ) -> DsmResult<()> {
        if wbs.is_empty() && through.is_empty() {
            return Ok(());
        }
        let res = {
            let mut remote: Vec<(GlobalAddr, &[u8])> = Vec::with_capacity(wbs.len() + through.len());
            for w in wbs.iter() {
                remote.push((GlobalAddr::from_raw(w.raw), &w.data[..]));
            }
            for &idx in through.iter() {
                remote.push((reqs[idx].0, reqs[idx].1));
            }
            let _span = ep.span(Phase::Writeback);
            self.layer.write_batch(ep, &remote)
        };
        if res.is_err() {
            self.drop_written(ep, through.iter().map(|&idx| reqs[idx].0));
        }
        through.clear();
        for w in wbs.drain(..) {
            let sh = &self.shards[w.shard];
            sh.inner.lock().writing_back.remove(&w.raw);
            sh.cv.notify_all();
        }
        res
    }

    /// Drop the cached copy of `addr` *without* writeback (coherence
    /// invalidation: the writer holds the newer version). Returns whether
    /// a copy was resident. Waits out an in-flight fetch or write-back of
    /// the page so the caller observes a settled state.
    pub fn invalidate(&self, ep: &Endpoint, addr: GlobalAddr) -> bool {
        let key = addr.to_raw();
        let sh = &self.shards[self.shard_of(key)];
        let mut inner = sh.inner.lock();
        loop {
            let s = &mut *inner;
            match s.page_table.get(&key) {
                Some(&f) if s.frames[f].filling => {
                    sh.cv.wait(&mut inner);
                }
                Some(&f) => {
                    Self::forget(ep, s, key, f);
                    drop(inner);
                    sh.cv.notify_all();
                    return true;
                }
                None if s.writing_back.contains(&key) => {
                    sh.cv.wait(&mut inner);
                }
                None => {
                    Self::charge(ep, s, MAP_OP_NS + LOCK_NS);
                    return false;
                }
            }
        }
    }

    /// Take settled frame `f`, holding page `key`, out of the pool without
    /// write-back.
    fn forget(ep: &Endpoint, s: &mut ShardInner, key: u64, f: FrameId) {
        s.page_table.remove(&key);
        let pol = s.policy.on_remove(f);
        s.frames[f].page = u64::MAX;
        s.frames[f].dirty = false;
        s.free.push(f);
        s.stats.invalidations += 1;
        ep.series_note(Metric::Invals, 1);
        Self::charge(ep, s, MAP_OP_NS + LOCK_NS + pol);
    }

    /// Drop the frames of `pages`, whose write-through did not reach DSM:
    /// [`BufferPool::invalidate`] without its wait, so a holder of
    /// reservations may call it. A page in flight is another thread's
    /// fetch, which brings it from DSM and is left alone.
    fn drop_written(&self, ep: &Endpoint, pages: impl IntoIterator<Item = GlobalAddr>) {
        for addr in pages {
            let key = addr.to_raw();
            let sh = &self.shards[self.shard_of(key)];
            let mut inner = sh.inner.lock();
            let s = &mut *inner;
            if let Some(&f) = s.page_table.get(&key) {
                if !s.frames[f].filling {
                    Self::forget(ep, s, key, f);
                    drop(inner);
                    sh.cv.notify_all();
                }
            }
        }
    }

    /// Overwrite the cached copy of `addr` in place if resident (coherence
    /// *update* protocol). Returns whether a copy was resident.
    pub fn update_if_resident(&self, ep: &Endpoint, addr: GlobalAddr, src: &[u8]) -> bool {
        assert_eq!(src.len(), self.page_size);
        let key = addr.to_raw();
        let sh = &self.shards[self.shard_of(key)];
        let mut inner = sh.inner.lock();
        loop {
            let s = &mut *inner;
            match s.page_table.get(&key) {
                Some(&f) if s.frames[f].filling => {
                    sh.cv.wait(&mut inner);
                }
                Some(&f) => {
                    ep.charge_local(copy_cost_ns(self.page_size));
                    s.frames[f].data.copy_from_slice(src);
                    Self::charge(ep, s, MAP_OP_NS + LOCK_NS);
                    return true;
                }
                None if s.writing_back.contains(&key) => {
                    sh.cv.wait(&mut inner);
                }
                None => {
                    Self::charge(ep, s, MAP_OP_NS + LOCK_NS);
                    return false;
                }
            }
        }
    }

    /// Drop every resident page without writeback (bulk invalidation
    /// after a metadata-only reshard; write-through pools hold no dirty
    /// state). Charged as one latched sweep per shard.
    pub fn drop_all(&self, ep: &Endpoint) {
        for sh in &self.shards {
            let mut inner = sh.inner.lock();
            while inner.filling > 0 {
                sh.cv.wait(&mut inner);
            }
            let s = &mut *inner;
            let n = s.page_table.len();
            for (_, f) in s.page_table.drain() {
                s.policy.on_remove(f);
                s.frames[f].page = u64::MAX;
                s.frames[f].dirty = false;
                s.free.push(f);
            }
            s.stats.invalidations += n as u64;
            ep.series_note(Metric::Invals, n as u64);
            Self::charge(ep, s, LOCK_NS + n as u64 * 10);
            drop(inner);
            sh.cv.notify_all();
        }
    }

    /// Write back every dirty page (shutdown, checkpoint, or a coherence
    /// downgrade). Waits out in-flight fetches per shard so every dirty
    /// frame is observed; each shard's write-backs form one doorbell.
    pub fn flush_all(&self, ep: &Endpoint) -> DsmResult<()> {
        for sh in &self.shards {
            let mut inner = sh.inner.lock();
            while inner.filling > 0 {
                sh.cv.wait(&mut inner);
            }
            let s = &mut *inner;
            let dirty: Vec<FrameId> = (0..s.frames.len())
                .filter(|&f| s.frames[f].page != u64::MAX && s.frames[f].dirty)
                .collect();
            if dirty.is_empty() {
                continue;
            }
            {
                let wb: Vec<(GlobalAddr, &[u8])> = dirty
                    .iter()
                    .map(|&f| (GlobalAddr::from_raw(s.frames[f].page), &s.frames[f].data[..]))
                    .collect();
                let _span = ep.span(Phase::Writeback);
                self.layer.write_batch(ep, &wb)?;
            }
            for &f in &dirty {
                s.frames[f].dirty = false;
                s.stats.writebacks += 1;
                ep.series_note(Metric::Writebacks, 1);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LIST_OP_NS;
    use crate::policy::LruPolicy;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};

    fn setup(frames: usize, mode: WriteMode) -> (Arc<Fabric>, Arc<DsmLayer>, BufferPool) {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        let pool = BufferPool::new(
            layer.clone(),
            64,
            frames,
            Box::new(LruPolicy::new(frames)),
            mode,
        );
        (fabric, layer, pool)
    }

    #[test]
    fn miss_then_hit() {
        let (f, layer, pool) = setup(4, WriteMode::WriteThrough);
        let ep = f.endpoint();
        let addr = layer.alloc(64).unwrap();
        layer.write(&ep, addr, &[9u8; 64]).unwrap();

        let mut buf = [0u8; 64];
        assert!(!pool.read_page(&ep, addr, &mut buf).unwrap());
        assert_eq!(buf, [9u8; 64]);
        assert!(pool.read_page(&ep, addr, &mut buf).unwrap());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.overhead_ns > 0);
    }

    #[test]
    fn hit_is_much_cheaper_than_miss_at_rdma_gap() {
        let (f, layer, pool) = setup(4, WriteMode::WriteThrough);
        let addr = layer.alloc(64).unwrap();
        let miss_ep = f.endpoint();
        let mut buf = [0u8; 64];
        pool.read_page(&miss_ep, addr, &mut buf).unwrap();
        let hit_ep = f.endpoint();
        pool.read_page(&hit_ep, addr, &mut buf).unwrap();
        assert!(hit_ep.clock().now_ns() * 4 < miss_ep.clock().now_ns());
    }

    #[test]
    fn write_through_updates_dsm_immediately() {
        let (f, layer, pool) = setup(4, WriteMode::WriteThrough);
        let ep = f.endpoint();
        let addr = layer.alloc(64).unwrap();
        pool.write_page(&ep, addr, &[5u8; 64]).unwrap();
        let mut direct = [0u8; 64];
        layer.read(&ep, addr, &mut direct).unwrap();
        assert_eq!(direct, [5u8; 64]);
    }

    #[test]
    fn write_back_defers_until_eviction() {
        let (f, layer, pool) = setup(2, WriteMode::WriteBack);
        let ep = f.endpoint();
        let a = layer.alloc(64).unwrap();
        let b = layer.alloc(64).unwrap();
        let c = layer.alloc(64).unwrap();
        pool.write_page(&ep, a, &[1u8; 64]).unwrap();
        let mut direct = [0u8; 64];
        layer.read(&ep, a, &mut direct).unwrap();
        assert_eq!(direct, [0u8; 64], "not yet written back");
        // Evict `a` by filling the 2-frame pool.
        let mut buf = [0u8; 64];
        pool.read_page(&ep, b, &mut buf).unwrap();
        pool.read_page(&ep, c, &mut buf).unwrap();
        layer.read(&ep, a, &mut direct).unwrap();
        assert_eq!(direct, [1u8; 64], "written back on eviction");
        assert_eq!(pool.stats().writebacks, 1);
    }

    #[test]
    fn flush_all_writes_every_dirty_page() {
        let (f, layer, pool) = setup(4, WriteMode::WriteBack);
        let ep = f.endpoint();
        let addrs: Vec<_> = (0..3).map(|_| layer.alloc(64).unwrap()).collect();
        for (i, a) in addrs.iter().enumerate() {
            pool.write_page(&ep, *a, &[i as u8 + 1; 64]).unwrap();
        }
        pool.flush_all(&ep).unwrap();
        for (i, a) in addrs.iter().enumerate() {
            let mut direct = [0u8; 64];
            layer.read(&ep, *a, &mut direct).unwrap();
            assert_eq!(direct, [i as u8 + 1; 64]);
        }
        assert_eq!(pool.stats().writebacks, 3);
    }

    #[test]
    fn invalidate_drops_without_writeback() {
        let (f, layer, pool) = setup(4, WriteMode::WriteBack);
        let ep = f.endpoint();
        let addr = layer.alloc(64).unwrap();
        layer.write(&ep, addr, &[7u8; 64]).unwrap();
        pool.write_page(&ep, addr, &[8u8; 64]).unwrap();
        assert!(pool.invalidate(&ep, addr));
        assert!(!pool.invalidate(&ep, addr), "already gone");
        // DSM still has the pre-write value: the dirty copy was dropped.
        let mut direct = [0u8; 64];
        layer.read(&ep, addr, &mut direct).unwrap();
        assert_eq!(direct, [7u8; 64]);
        // And a fresh read repopulates from DSM.
        let mut buf = [0u8; 64];
        assert!(!pool.read_page(&ep, addr, &mut buf).unwrap());
        assert_eq!(buf, [7u8; 64]);
    }

    #[test]
    fn update_if_resident_refreshes_copy() {
        let (f, layer, pool) = setup(4, WriteMode::WriteThrough);
        let ep = f.endpoint();
        let addr = layer.alloc(64).unwrap();
        let mut buf = [0u8; 64];
        pool.read_page(&ep, addr, &mut buf).unwrap();
        assert!(pool.update_if_resident(&ep, addr, &[3u8; 64]));
        pool.read_page(&ep, addr, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);
        let other = layer.alloc(64).unwrap();
        assert!(!pool.update_if_resident(&ep, other, &[4u8; 64]));
    }

    #[test]
    fn install_is_the_write_path_without_the_write() {
        for mode in [WriteMode::WriteThrough, WriteMode::WriteBack] {
            let (f, layer, pool) = setup(2, mode);
            let ep = f.endpoint();
            let addrs: Vec<_> = (0..3).map(|_| layer.alloc(64).unwrap()).collect();
            // Absent: not served, not fetched, not charged.
            let mut buf = [0u8; 64];
            assert!(!pool.read_resident(&ep, addrs[0], &mut buf));
            assert_eq!((ep.clock().now_ns(), pool.stats(), pool.resident()), (0, PoolStats::default(), 0));
            // Installed: a miss of the write path, and no verb.
            pool.install_page(&ep, addrs[0], &[5u8; 64], 1).unwrap();
            let miss_ns = ep.clock().now_ns();
            assert_eq!(miss_ns, MAP_OP_NS + LOCK_NS + MAP_OP_NS + 2 * LIST_OP_NS);
            assert_eq!(ep.stats().round_trips(), 0);
            // Resident: `read_resident` is `read_page`'s hit to the ns.
            assert!(pool.read_resident(&ep, addrs[0], &mut buf));
            assert_eq!(buf, [5u8; 64]);
            let hit_ns = ep.clock().now_ns() - miss_ns;
            assert!(pool.read_page(&ep, addrs[0], &mut buf).unwrap());
            assert_eq!(ep.clock().now_ns() - miss_ns, 2 * hit_ns);
            assert_eq!((pool.stats().hits, pool.stats().misses), (2, 1));
            // Over a dirty frame (write-back mode) it leaves a clean one:
            // the caller has said DSM gets these bytes from it. Evicted
            // by two more installs, it writes nothing back.
            pool.write_page(&ep, addrs[0], &[6u8; 64]).unwrap();
            pool.install_page(&ep, addrs[0], &[7u8; 64], 1).unwrap();
            let writes = ep.stats().writes;
            pool.install_page(&ep, addrs[1], &[1u8; 64], 1).unwrap();
            pool.install_page(&ep, addrs[2], &[2u8; 64], 1).unwrap();
            assert!(!pool.contains(addrs[0]));
            pool.flush_all(&ep).unwrap();
            assert_eq!(ep.stats().writes, writes, "{mode:?}");
            assert_eq!(pool.resident(), 2);
        }
    }

    #[test]
    fn a_resident_set_is_read_whole_or_not_at_all() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig { memory_nodes: 1, capacity_per_node: 1 << 20, replication: 1, mem_cores: 1, weak_cpu_factor: 4.0 },
        );
        let pool = BufferPool::new_striped(layer.clone(), 64, 16, 4, |cap| Box::new(LruPolicy::new(cap)), WriteMode::WriteThrough);
        let ep = fabric.endpoint();
        let addrs: Vec<_> = (0..4).map(|_| layer.alloc(64).unwrap()).collect();
        for (i, &a) in addrs[..3].iter().enumerate() {
            pool.install_page(&ep, a, &[i as u8 + 1; 64], 7).unwrap();
        }
        // `(served, ns, hits, first page)` of reading pages `a` and `b`.
        let read = |a: usize, b: usize| {
            let (mut x, mut y) = ([0u8; 64], [0u8; 64]);
            let mut reqs = [(addrs[a], &mut x[..]), (addrs[b], &mut y[..])];
            let (t0, hits) = (ep.clock().now_ns(), pool.stats().hits);
            let served = pool.read_resident_set(&ep, &mut reqs);
            (served, ep.clock().now_ns() - t0, pool.stats().hits - hits, x[0])
        };
        // Held, then settled by a holder other than the installer: refused,
        // and nothing is copied or charged.
        assert_eq!(read(0, 1), (false, 0, 0, 0));
        pool.settle(addrs[0], 7);
        pool.settle(addrs[1], 8);
        assert_eq!(read(0, 1), (false, 0, 0, 0));
        // Settled by its holder: two hits, each what `read_resident` costs.
        pool.settle(addrs[1], 7);
        let probe = fabric.endpoint();
        assert!(pool.read_resident(&probe, addrs[2], &mut [0u8; 64]), "a held page is the holder's to read");
        assert_eq!(read(0, 1), (true, 2 * probe.clock().now_ns(), 2, 1));
        // One page not resident, or held again by a new installer: nothing.
        assert_eq!(read(0, 3), (false, 0, 0, 0));
        pool.install_page(&ep, addrs[0], &[9u8; 64], 9).unwrap();
        pool.settle(addrs[0], 7);
        assert!(!read(0, 1).0);
        pool.settle(addrs[0], 9);
        assert_eq!(read(0, 1).3, 9);
    }

    #[test]
    fn capacity_is_respected_under_many_pages() {
        let (f, layer, pool) = setup(8, WriteMode::WriteThrough);
        let ep = f.endpoint();
        let addrs: Vec<_> = (0..64).map(|_| layer.alloc(64).unwrap()).collect();
        let mut buf = [0u8; 64];
        for a in &addrs {
            pool.read_page(&ep, *a, &mut buf).unwrap();
        }
        assert_eq!(pool.resident(), 8);
        assert_eq!(pool.stats().evictions, 64 - 8);
    }

    #[test]
    fn every_policy_survives_pool_integration() {
        for policy in crate::all_policies(8) {
            let fabric = Fabric::new(NetworkProfile::rdma_cx6());
            let layer = DsmLayer::build(
                &fabric,
                DsmConfig {
                    memory_nodes: 1,
                    capacity_per_node: 1 << 20,
                    replication: 1,
                    mem_cores: 1,
                    weak_cpu_factor: 4.0,
                },
            );
            let name = policy.name();
            let pool = BufferPool::new(layer.clone(), 64, 8, policy, WriteMode::WriteBack);
            let ep = fabric.endpoint();
            let addrs: Vec<_> = (0..32).map(|_| layer.alloc(64).unwrap()).collect();
            let mut buf = [0u8; 64];
            // Mixed access pattern with rereads.
            for round in 0..4 {
                for (i, a) in addrs.iter().enumerate() {
                    if (i + round) % 3 == 0 {
                        pool.write_page(&ep, *a, &[i as u8; 64]).unwrap();
                    } else {
                        pool.read_page(&ep, *a, &mut buf).unwrap();
                    }
                }
            }
            pool.flush_all(&ep).unwrap();
            // Verify final contents are coherent with DSM.
            for (i, a) in addrs.iter().enumerate() {
                let mut cached = [0u8; 64];
                pool.read_page(&ep, *a, &mut cached).unwrap();
                let mut direct = [0u8; 64];
                layer.read(&ep, *a, &mut direct).unwrap();
                assert_eq!(cached, direct, "policy {name} page {i} incoherent");
            }
        }
    }

    #[test]
    fn hits_misses_and_writebacks_are_counted_and_attributed() {
        let (f, layer, pool) = setup(2, WriteMode::WriteBack);
        let ep = f.endpoint();
        let a = layer.alloc(64).unwrap();
        let b = layer.alloc(64).unwrap();
        let c = layer.alloc(64).unwrap();
        let mut buf = [0u8; 64];
        pool.read_page(&ep, a, &mut buf).unwrap(); // miss
        pool.read_page(&ep, a, &mut buf).unwrap(); // hit
        pool.write_page(&ep, a, &[1u8; 64]).unwrap(); // hit, dirties a
        pool.read_page(&ep, b, &mut buf).unwrap(); // miss
        pool.read_page(&ep, c, &mut buf).unwrap(); // miss, evicts dirty a
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.writebacks), (2, 3, 1, 1));
        // Fetch/write-back traffic was attributed to phases.
        let phases = ep.phase_snapshot();
        assert!(phases.phase_verbs(rdma_sim::Phase::PageFetch) >= 3);
        assert!(phases.phase_verbs(rdma_sim::Phase::Writeback) >= 1);
        pool.reset_stats();
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn batched_read_pages_mixes_hits_and_misses() {
        let (f, layer, pool) = setup(8, WriteMode::WriteBack);
        let ep = f.endpoint();
        let addrs: Vec<_> = (0..6).map(|_| layer.alloc(64).unwrap()).collect();
        for (i, a) in addrs.iter().enumerate() {
            layer.write(&ep, *a, &[i as u8 + 1; 64]).unwrap();
        }
        // Pre-warm the first two pages.
        let mut buf = [0u8; 64];
        pool.read_page(&ep, addrs[0], &mut buf).unwrap();
        pool.read_page(&ep, addrs[1], &mut buf).unwrap();
        pool.reset_stats();
        ep.reset();

        let mut bufs = vec![[0u8; 64]; 6];
        let mut reqs: Vec<(GlobalAddr, &mut [u8])> = addrs
            .iter()
            .zip(bufs.iter_mut())
            .map(|(a, b)| (*a, &mut b[..]))
            .collect();
        let hits = pool.read_pages(&ep, &mut reqs).unwrap();
        assert_eq!(hits, 2);
        for (i, b) in bufs.iter().enumerate() {
            assert_eq!(*b, [i as u8 + 1; 64], "page {i}");
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (2, 4));
        // The 4 misses fetched in ONE doorbell group: 4 read verbs but
        // only 1 wire round trip.
        let snap = ep.stats();
        assert_eq!(snap.reads, 4);
        assert_eq!(snap.wire_round_trips(), 1);
    }

    #[test]
    fn a_fetch_carries_its_riders_in_one_doorbell() {
        let (f, layer, pool) = setup(8, WriteMode::WriteThrough);
        let ep = f.endpoint();
        let addrs: Vec<_> = (0..5).map(|_| layer.alloc(64).unwrap()).collect();
        for (i, a) in addrs.iter().enumerate() {
            layer.write(&ep, *a, &[i as u8 + 1; 64]).unwrap();
        }
        let word = layer.alloc(8).unwrap();
        layer.write_u64(&ep, word, 42).unwrap();
        pool.read_page(&ep, addrs[0], &mut [0u8; 64]).unwrap();
        ep.reset();

        // Page 0 hits, 1 and 2 are reserved, and a word READ rides their
        // fetch: three READs, one wire round trip.
        let mut bufs = [[0u8; 64]; 3];
        let mut reqs: Vec<(GlobalAddr, &mut [u8])> = addrs.iter().zip(bufs.iter_mut()).map(|(a, b)| (*a, &mut b[..])).collect();
        let (hits, fetch) = pool.resolve_reads(&ep, &mut reqs).unwrap();
        assert_eq!((hits, [0, 1, 2].map(|i| fetch.reserved(i))), (1, [false, true, true]));
        let mut got = [0u8; 8];
        let dsts = bufs[1..].iter_mut().map(|b| &mut b[..]);
        fetch.complete(&ep, dsts, [GlobalWr::Read { addr: word, dst: &mut got }]).unwrap();
        assert_eq!((bufs, u64::from_le_bytes(got)), ([[1; 64], [2; 64], [3; 64]], 42));
        assert_eq!((ep.stats().reads, ep.stats().wire_round_trips()), (3, 1));

        // A write-through of resident page 0 rides page 3's fetch: the
        // frame and DSM both take it, in one more round trip.
        let mut buf = [0u8; 64];
        let (_, fetch) = pool.resolve_reads(&ep, &mut [(addrs[3], &mut buf[..])]).unwrap();
        assert!(fetch.complete_writing(&ep, [&mut buf[..]], &[(addrs[0], &[9u8; 64][..])]).unwrap());
        assert_eq!((buf, ep.stats().writes, ep.stats().wire_round_trips()), ([4; 64], 1, 2));
        let mut direct = [0u8; 64];
        layer.read(&ep, addrs[0], &mut direct).unwrap();
        assert_eq!(direct, [9; 64]);
        assert!(pool.read_page(&ep, addrs[0], &mut buf).unwrap());
        assert_eq!(buf, [9; 64]);

        // If that doorbell fails, neither the written frame nor the
        // reserved one is left; a fetch dropped uncompleted frees its frame.
        layer.set_retry_policy(dsm::RetryPolicy::none());
        f.install_fault_plan(rdma_sim::FaultPlan::new(1).transient_first_n(layer.group_primary(0).id(), 1));
        let (_, fetch) = pool.resolve_reads(&ep, &mut [(addrs[4], &mut buf[..])]).unwrap();
        assert!(fetch.complete_writing(&ep, [&mut buf[..]], &[(addrs[0], &[7u8; 64][..])]).is_err());
        assert!(!pool.contains(addrs[0]) && !pool.contains(addrs[4]));
        layer.read(&ep, addrs[0], &mut direct).unwrap();
        assert_eq!(direct, [9; 64]);
        let (_, fetch) = pool.resolve_reads(&ep, &mut [(addrs[4], &mut buf[..])]).unwrap();
        drop(fetch);
        assert_eq!((pool.contains(addrs[4]), pool.resident()), (false, 3));
    }

    #[test]
    fn batched_write_pages_coalesces_victim_writebacks() {
        let (f, layer, pool) = setup(4, WriteMode::WriteBack);
        let ep = f.endpoint();
        let first: Vec<_> = (0..4).map(|_| layer.alloc(64).unwrap()).collect();
        let second: Vec<_> = (0..4).map(|_| layer.alloc(64).unwrap()).collect();
        let fill: Vec<(GlobalAddr, &[u8])> = first.iter().map(|a| (*a, &[7u8; 64][..])).collect();
        pool.write_pages(&ep, &fill).unwrap();
        ep.reset();
        // Overwriting with 4 new pages evicts all 4 dirty pages; the
        // write-backs ride one doorbell (write-back mode: no other
        // remote traffic at all).
        let over: Vec<(GlobalAddr, &[u8])> = second.iter().map(|a| (*a, &[8u8; 64][..])).collect();
        pool.write_pages(&ep, &over).unwrap();
        let snap = ep.stats();
        assert_eq!(snap.writes, 4);
        assert_eq!(snap.wire_round_trips(), 1);
        assert_eq!(pool.stats().writebacks, 4);
        // And the evicted bytes landed in DSM.
        let mut direct = [0u8; 64];
        layer.read(&ep, first[0], &mut direct).unwrap();
        assert_eq!(direct, [7u8; 64]);
    }

    #[test]
    fn striped_pool_keeps_lru_semantics_per_shard() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        let pool = BufferPool::new_striped(
            layer.clone(),
            64,
            16,
            4,
            |cap| Box::new(LruPolicy::new(cap)),
            WriteMode::WriteBack,
        );
        assert_eq!(pool.shard_count(), 4);
        assert_eq!(pool.capacity(), 16);
        let ep = fabric.endpoint();
        let addrs: Vec<_> = (0..64).map(|_| layer.alloc(64).unwrap()).collect();
        let mut buf = [0u8; 64];
        for a in &addrs {
            pool.read_page(&ep, *a, &mut buf).unwrap();
        }
        // Full and consistent: every shard holds at most its capacity.
        assert!(pool.resident() <= 16);
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 64);
        assert_eq!(s.misses, s.evictions + pool.resident() as u64);
    }
}
