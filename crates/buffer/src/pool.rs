//! The buffer pool: local frames over remote DSM pages.
//!
//! §5: "all the data is stored in remote memory with hot data being cached
//! in local memory" — a two-level hierarchy with no disk underneath. The
//! pool fetches whole pages from the [`dsm::DsmLayer`] on a miss, serves
//! hits from local frames, and writes every update through to DSM.
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
//! that frame — not on the pool lock — and count as hits.
//!
//! Multi-page entry points ([`BufferPool::read_pages`],
//! [`BufferPool::write_pages`]) coalesce all remote traffic of a call into
//! one doorbell per direction: one `write_batch` for the write-through of
//! every written page (and any WRITE of a page the caller posts without
//! caching it) and one `read_batch` for every fetch.
//! A read can also be taken in its two halves — [`BufferPool::resolve_reads`]
//! serves the hits and reserves the misses, [`Fetch::complete`] posts and
//! publishes — and between them the caller hands the fetch riders: work
//! requests posted behind the fetch READs in the same doorbell, a
//! write-through among them, and fetch-and-adds on pages being fetched
//! ([`Fetch::complete_writing`]).
//! To stay deadlock-free a thread never sleeps on a condvar while it holds
//! unfetched reservations or a write-through not yet posted — it flushes
//! its batch first, then waits.
//!
//! # A page on its way to DSM is not fetched
//!
//! A write-through puts the page's bytes in its frame under the shard
//! latch, and the doorbell that carries them to DSM leaves after the latch
//! dropped. Until that doorbell has returned the page is *on the wire*:
//! the shard lists it (`writing`), and a miss on it waits for the list to
//! drop it before it fetches. So the frame may be evicted meanwhile, but
//! no fetch brings back the bytes DSM held before the write, to be cached
//! over a write that lands behind them.

use std::sync::Arc;

use dsm::{DsmLayer, DsmResult, GlobalAddr, GlobalWr, U64Map};
use parking_lot::{Condvar, Mutex};
use rdma_sim::{Endpoint, Metric, Phase};

use crate::cost::{copy_cost_ns, LOCK_NS, MAP_OP_NS};
use crate::policy::{FrameId, ReplacementPolicy};

/// When modified pages reach remote memory: at once, always. The pool
/// has no other mode; this one-variant enum and [`BufferPool::new`]'s
/// argument of it are kept only because `benchmark/src/ladder.rs`
/// passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Every write is immediately propagated to DSM.
    WriteThrough,
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
        self.invalidations += o.invalidations;
        self.overhead_ns += o.overhead_ns;
    }
}

struct Frame {
    data: Box<[u8]>,
    /// Raw [`GlobalAddr`] of the resident page; `u64::MAX` when empty.
    page: u64,
    /// Pinned for an in-flight remote fetch; `data` is taken out and the
    /// frame must not be read, evicted, or invalidated until published.
    filling: bool,
    /// Nonzero: the tag of the caller that installed the page and has not
    /// settled it yet ([`BufferPool::install_page`]). 0: the page was
    /// fetched, or written through.
    held_by: u64,
}

struct ShardInner {
    policy: Box<dyn ReplacementPolicy>,
    frames: Vec<Frame>,
    page_table: U64Map<FrameId>,
    free: Vec<FrameId>,
    /// Number of frames currently `filling`.
    filling: usize,
    /// Pages whose write-through is on the wire, once per writer: a miss
    /// on one of them waits.
    writing: Vec<u64>,
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
    shards: Vec<Shard>,
    /// `64 - log2(shards)`: fibonacci-hash shift for shard selection.
    shard_shift: u32,
    #[cfg(test)]
    hooks: tests::Hooks,
}

/// A frame reserved for an in-flight fetch, tracked outside the latch.
struct PendingFetch {
    req_idx: usize,
    shard: usize,
    frame: FrameId,
    key: u64,
    data: Box<[u8]>,
    /// A fetch-and-add riding the fetch on the page's first word: the
    /// addend and, once posted, the word's pre-add value.
    add: Option<(u64, u64)>,
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
    /// dies mid-group; with no page left to fetch, the riders alone), then
    /// publish every page and copy it out to `dsts`: one per page left to
    /// fetch, in request order. On an error the frames are freed and
    /// nothing is copied.
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
    /// to fetch here — written through the cache behind the READs, and
    /// `adds` — pages left to fetch, each with a wrapping add to its first
    /// word — added to in DSM by a fetch-and-add behind its READ. Each
    /// write is resolved into its frame as [`BufferPool::write_pages`]
    /// resolves it; each added-to page's destination takes the page as it
    /// was, its first word the add's pre-add value, and its frame is
    /// published with the add applied, as DSM holds it. All of them ride
    /// the fetch's doorbell. If that doorbell fails, the reserved frames
    /// are freed and the written ones dropped, so the cache never holds
    /// bytes DSM may not. Returns false when nothing rode — a page could
    /// be taken only by waiting, which a holder of reservations must not —
    /// having completed the fetch alone and left the writes and the adds
    /// to the caller.
    pub fn complete_writing<'d>(
        mut self,
        ep: &Endpoint,
        dsts: impl IntoIterator<Item = &'d mut [u8]>,
        writes: &[(GlobalAddr, &[u8])],
        adds: &[(GlobalAddr, i64)],
    ) -> DsmResult<bool> {
        let pool = self.pool;
        if !pool.stage_through(ep, writes) {
            self.complete(ep, dsts, None)?;
            return Ok(false);
        }
        for &(addr, add) in adds {
            let p = self.pending.iter_mut().find(|p| p.key == addr.to_raw());
            p.expect("an added-to page is left to fetch").add = Some((add as u64, 0));
        }
        #[cfg(test)]
        pool.before_write_through();
        let riders = writes.iter().map(|&(addr, src)| GlobalWr::Write { addr, src, unlock: false });
        let posted = self.complete(ep, dsts, riders);
        pool.wrote(ep, writes.iter().map(|w| w.0), posted.is_ok());
        posted.map(|()| true)
    }
}

impl Drop for Fetch<'_> {
    fn drop(&mut self) {
        self.pool.abort_fetches(&mut self.pending);
    }
}

impl BufferPool {
    /// A single-shard pool of `capacity_pages` frames of `page_size`
    /// bytes, managed by `policy`, fronting `layer`. The [`WriteMode`] is
    /// ignored: the pool writes through.
    pub fn new(
        layer: Arc<DsmLayer>,
        page_size: usize,
        capacity_pages: usize,
        policy: Box<dyn ReplacementPolicy>,
        _: WriteMode,
    ) -> Self {
        Self::build(layer, page_size, vec![(capacity_pages, policy)])
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
        Self::build(layer, page_size, per_shard)
    }

    fn build(layer: Arc<DsmLayer>, page_size: usize, per_shard: Vec<(usize, Box<dyn ReplacementPolicy>)>) -> Self {
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
                        filling: false,
                        held_by: 0,
                    })
                    .collect();
                Shard {
                    inner: Mutex::new(ShardInner {
                        policy,
                        frames,
                        page_table: U64Map::with_capacity_and_hasher(cap * 2, Default::default()),
                        free: (0..cap).rev().collect(),
                        filling: 0,
                        writing: Vec::new(),
                        stats: PoolStats::default(),
                    }),
                    cv: Condvar::new(),
                }
            })
            .collect();
        Self {
            layer,
            page_size,
            shards,
            shard_shift: 64 - nshards.trailing_zeros(),
            #[cfg(test)]
            hooks: tests::Hooks::default(),
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
    /// hits locally and fetching all misses in one doorbell group. Returns
    /// the number of local hits.
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
            match self.resolve_read(ep, i, reqs, fetch.is_empty()) {
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
    fn resolve_read(&self, ep: &Endpoint, i: usize, reqs: &mut [(GlobalAddr, &mut [u8])], can_wait: bool) -> Step {
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
                        return Step::MustFlush;
                    }
                    ep.note_lock_wait(key, LOCK_NS);
                    sh.cv.wait(&mut inner);
                    continue;
                }
                self.serve_hit(ep, s, f, key, dst);
                return Step::Done;
            }
            if s.writing.contains(&key) {
                // The page is on its way to DSM: fetched now, it would
                // come back as it was before the write.
                if !can_wait {
                    return Step::MustFlush;
                }
                ep.note_lock_wait(key, LOCK_NS);
                #[cfg(test)]
                self.hooks.waits_on_write.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                sh.cv.wait(&mut inner);
                continue;
            }
            // Miss: reserve a frame, pin it in-flight, and take its data
            // box so the fetch can run outside the latch.
            let Some((f, pol)) = Self::take_frame(ep, s) else {
                if !can_wait {
                    return Step::MustFlush;
                }
                sh.cv.wait(&mut inner);
                continue;
            };
            let mut overhead = MAP_OP_NS + LOCK_NS + pol;
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
            return Step::Reserved(PendingFetch { req_idx: i, shard: shard_idx, frame: f, key, data, add: None });
        }
    }

    /// A frame for a missed page: a free one, or the policy's victim,
    /// evicted, with the policy's cost. `None` when every frame is
    /// mid-fetch: the caller waits for one to settle.
    fn take_frame(ep: &Endpoint, s: &mut ShardInner) -> Option<(FrameId, u64)> {
        if let Some(f) = s.free.pop() {
            return Some((f, 0));
        }
        if s.page_table.len() == s.filling {
            return None;
        }
        let (victim, pol) = s.policy.victim();
        s.stats.evictions += 1;
        ep.series_note(Metric::Evictions, 1);
        s.page_table.remove(&s.frames[victim].page);
        Some((victim, pol))
    }

    /// Flush a read batch: one doorbell of fetches — each READ followed by
    /// its page's fetch-and-add, if it has one — with `riders` behind
    /// them, then publish every frame and hand `publish` each page with its
    /// request index. An added-to page is handed over with its first word
    /// the add's pre-add value, and published with the add applied.
    fn complete_fetches<'r>(
        &self,
        ep: &Endpoint,
        pending: &mut Vec<PendingFetch>,
        riders: impl IntoIterator<Item = GlobalWr<'r>>,
        mut publish: impl FnMut(usize, &[u8]),
    ) -> DsmResult<()> {
        let mut riders = riders.into_iter().peekable();
        if pending.is_empty() && riders.peek().is_none() {
            return Ok(());
        }
        {
            let _span = ep.span(Phase::PageFetch);
            let fetched = if riders.peek().is_none() && pending.iter().all(|p| p.add.is_none()) {
                let mut fetch: Vec<(GlobalAddr, &mut [u8])> = pending
                    .iter_mut()
                    .map(|p| (GlobalAddr::from_raw(p.key), &mut p.data[..]))
                    .collect();
                self.layer.read_batch(ep, &mut fetch)
            } else {
                let mut wrs: Vec<GlobalWr<'_>> = Vec::with_capacity(2 * pending.len());
                for p in pending.iter_mut() {
                    let addr = GlobalAddr::from_raw(p.key);
                    wrs.push(GlobalWr::Read { addr, dst: &mut p.data[..] });
                    if let Some((add, prev)) = &mut p.add {
                        wrs.push(GlobalWr::Faa { addr, add: *add, prev });
                    }
                }
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
        for mut p in pending.drain(..) {
            ep.charge_local(copy_cost_ns(self.page_size));
            let added = p.add.map(|(add, prev)| {
                p.data[..8].copy_from_slice(&prev.to_le_bytes());
                prev.wrapping_add(add)
            });
            publish(p.req_idx, &p.data);
            if let Some(word) = added {
                p.data[..8].copy_from_slice(&word.to_le_bytes());
            }
            let sh = &self.shards[p.shard];
            {
                let mut inner = sh.inner.lock();
                let s = &mut *inner;
                let fr = &mut s.frames[p.frame];
                fr.data = p.data;
                fr.filling = false;
                s.filling -= 1;
                let pol = s.policy.on_insert(p.frame, p.key);
                Self::charge(ep, s, pol);
            }
            sh.cv.notify_all();
        }
        Ok(())
    }

    /// Undo reservations after a failed batch: free the frames, clear the
    /// markers, wake waiters.
    fn abort_fetches(&self, pending: &mut Vec<PendingFetch>) {
        for p in pending.drain(..) {
            let sh = &self.shards[p.shard];
            {
                let mut inner = sh.inner.lock();
                let s = &mut *inner;
                s.page_table.remove(&p.key);
                let fr = &mut s.frames[p.frame];
                fr.page = u64::MAX;
                fr.filling = false;
                fr.data = p.data;
                s.filling -= 1;
                s.free.push(p.frame);
            }
            sh.cv.notify_all();
        }
    }

    /// Write `src` (a full page) to `addr` through the cache.
    pub fn write_page(&self, ep: &Endpoint, addr: GlobalAddr, src: &[u8]) -> DsmResult<()> {
        self.write_pages(ep, &[(addr, src)], &[])
    }

    /// Make the cached copy of `addr` equal `src` (a full page) and leave
    /// DSM alone: the write path minus the propagation. For a caller that
    /// moves the page to or from DSM in a doorbell of its own — `src` is
    /// what it just read there, or what it is about to write there. The
    /// frame is held under `holder` (nonzero) until [`BufferPool::settle`]:
    /// until the caller knows the bytes are committed,
    /// [`BufferPool::read_resident_set`] does not serve them.
    pub fn install_page(&self, ep: &Endpoint, addr: GlobalAddr, src: &[u8], holder: u64) -> DsmResult<()> {
        assert_ne!(holder, 0, "a hold needs a nonzero tag");
        self.put_pages(ep, &[(addr, src)], holder, &[])
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

    /// Write every full page in `reqs` through the cache, and post
    /// `uncached` — WRITEs of pages this pool does not cache, which no
    /// frame takes — beside them. All remote traffic of the call — the
    /// write-through of every page, and `uncached` — goes out as one
    /// doorbell group.
    pub fn write_pages(
        &self,
        ep: &Endpoint,
        reqs: &[(GlobalAddr, &[u8])],
        uncached: &[(GlobalAddr, &[u8])],
    ) -> DsmResult<()> {
        self.put_pages(ep, reqs, 0, uncached)
    }

    /// The write path: the frames take the pages of `reqs` under
    /// `held_by` — 0 writes them through, a holder's tag leaves DSM to the
    /// holder — and `uncached` rides the last doorbell.
    fn put_pages(
        &self,
        ep: &Endpoint,
        reqs: &[(GlobalAddr, &[u8])],
        held_by: u64,
        uncached: &[(GlobalAddr, &[u8])],
    ) -> DsmResult<()> {
        let mut through: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < reqs.len() {
            // Never sleep while holding batched state: flush first.
            match self.resolve_write(ep, i, reqs, held_by, through.is_empty(), &mut through) {
                Step::Done => i += 1,
                Step::Reserved(_) => unreachable!("write path fills frames locally"),
                Step::MustFlush => self.complete_writes(ep, reqs, &mut through, &[])?,
            }
        }
        self.complete_writes(ep, reqs, &mut through, uncached)
    }

    /// The write-through path's frame half for a caller that holds
    /// reservations and posts the writes itself: `writes` go into their
    /// frames, on the wire until the caller hands them to
    /// [`BufferPool::wrote`], and no page is waited for. Returns false,
    /// with the frames written so far dropped, when one would have to be.
    fn stage_through(&self, ep: &Endpoint, writes: &[(GlobalAddr, &[u8])]) -> bool {
        let mut through = Vec::new();
        for i in 0..writes.len() {
            if !matches!(self.resolve_write(ep, i, writes, 0, false, &mut through), Step::Done) {
                self.wrote(ep, writes[..i].iter().map(|w| w.0), false);
                return false;
            }
        }
        true
    }

    /// One write request: apply `src` to a (possibly newly allocated)
    /// frame under the shard latch, held under `held_by`. A page to write
    /// through (`held_by` 0) is only *recorded* in `through` for the
    /// batched doorbell, and put on the wire. With `can_wait` false a page
    /// that would need waiting for is `MustFlush`.
    fn resolve_write(
        &self,
        ep: &Endpoint,
        i: usize,
        reqs: &[(GlobalAddr, &[u8])],
        held_by: u64,
        can_wait: bool,
        through: &mut Vec<usize>,
    ) -> Step {
        let (addr, src) = &reqs[i];
        assert_eq!(src.len(), self.page_size);
        let key = addr.to_raw();
        let sh = &self.shards[self.shard_of(key)];
        let mut inner = sh.inner.lock();
        loop {
            let s = &mut *inner;
            if let Some(&f) = s.page_table.get(&key) {
                if s.frames[f].filling {
                    if !can_wait {
                        return Step::MustFlush;
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
                s.frames[f].held_by = held_by;
                if held_by == 0 {
                    through.push(i);
                    s.writing.push(key);
                }
                return Step::Done;
            }
            // Miss: the whole page is overwritten, so no fetch — allocate
            // a frame and fill it from `src` under the latch.
            let Some((f, pol)) = Self::take_frame(ep, s) else {
                if !can_wait {
                    return Step::MustFlush;
                }
                sh.cv.wait(&mut inner);
                continue;
            };
            let fr = &mut s.frames[f];
            fr.page = key;
            ep.charge_local(copy_cost_ns(self.page_size));
            fr.data.copy_from_slice(src);
            fr.held_by = held_by;
            if held_by == 0 {
                through.push(i);
                s.writing.push(key);
            }
            s.page_table.insert(key, f);
            let overhead = MAP_OP_NS + LOCK_NS + pol + s.policy.on_insert(f, key) + MAP_OP_NS;
            Self::charge(ep, s, overhead);
            s.stats.misses += 1;
            ep.series_note(Metric::CacheMisses, 1);
            return Step::Done;
        }
    }

    /// Flush a write batch: the write-through of every page of `through`,
    /// then `uncached`, in one doorbell group. If it fails, the frames
    /// written through are dropped: a retry must not find the bytes DSM
    /// never took.
    fn complete_writes(
        &self,
        ep: &Endpoint,
        reqs: &[(GlobalAddr, &[u8])],
        through: &mut Vec<usize>,
        uncached: &[(GlobalAddr, &[u8])],
    ) -> DsmResult<()> {
        if through.is_empty() && uncached.is_empty() {
            return Ok(());
        }
        let remote: Vec<(GlobalAddr, &[u8])> =
            through.iter().map(|&idx| reqs[idx]).chain(uncached.iter().copied()).collect();
        #[cfg(test)]
        self.before_write_through();
        let res = {
            let _span = ep.span(Phase::Writeback);
            self.layer.write_batch(ep, &remote)
        };
        self.wrote(ep, through.iter().map(|&idx| reqs[idx].0), res.is_ok());
        through.clear();
        res
    }

    /// Run the closure a test left to run before the next write-through
    /// doorbell, if any.
    #[cfg(test)]
    fn before_write_through(&self) {
        let hook = self.hooks.before_write_through.lock().take();
        if let Some(hook) = hook {
            hook(self);
        }
    }

    /// Take `pages` off the wire — their write-through doorbell returned,
    /// or will never be posted — and wake the misses waiting for them. If
    /// the bytes did not reach DSM (`landed` false), drop the pages' frames
    /// too, so a retry does not find bytes DSM never took:
    /// [`BufferPool::invalidate`] without its wait, so a holder of
    /// reservations may call it. A page in flight is another thread's
    /// fetch, which brings it from DSM, and is left alone.
    fn wrote(&self, ep: &Endpoint, pages: impl IntoIterator<Item = GlobalAddr>, landed: bool) {
        for addr in pages {
            let key = addr.to_raw();
            let sh = &self.shards[self.shard_of(key)];
            let mut inner = sh.inner.lock();
            let s = &mut *inner;
            let at = s.writing.iter().position(|&k| k == key).expect("a page on the wire");
            s.writing.swap_remove(at);
            match s.page_table.get(&key) {
                Some(&f) if !landed && !s.frames[f].filling => Self::forget(ep, s, key, f),
                _ => {}
            }
            drop(inner);
            sh.cv.notify_all();
        }
    }

    /// Drop the cached copy of `addr` (coherence invalidation: the writer
    /// holds the newer version). Returns whether a copy was resident.
    /// Waits out an in-flight fetch of the page so the caller observes a
    /// settled state.
    pub fn invalidate(&self, ep: &Endpoint, addr: GlobalAddr) -> bool {
        let key = addr.to_raw();
        let sh = &self.shards[self.shard_of(key)];
        let mut inner = sh.inner.lock();
        loop {
            let s = &mut *inner;
            match s.page_table.get(&key) {
                Some(&f) if s.frames[f].filling => sh.cv.wait(&mut inner),
                Some(&f) => {
                    Self::forget(ep, s, key, f);
                    drop(inner);
                    sh.cv.notify_all();
                    return true;
                }
                None => {
                    Self::charge(ep, s, MAP_OP_NS + LOCK_NS);
                    return false;
                }
            }
        }
    }

    /// Take settled frame `f`, holding page `key`, out of the pool.
    fn forget(ep: &Endpoint, s: &mut ShardInner, key: u64, f: FrameId) {
        s.page_table.remove(&key);
        let pol = s.policy.on_remove(f);
        s.frames[f].page = u64::MAX;
        s.free.push(f);
        s.stats.invalidations += 1;
        ep.series_note(Metric::Invals, 1);
        Self::charge(ep, s, MAP_OP_NS + LOCK_NS + pol);
    }

    /// Drop every resident page (bulk invalidation after a metadata-only
    /// reshard). Charged as one latched sweep per shard. Frames are freed
    /// in [`FrameId`] order, so the free list and every later victim are
    /// the same in every process, whatever the page table's layout.
    pub fn drop_all(&self, ep: &Endpoint) {
        for sh in &self.shards {
            let mut inner = sh.inner.lock();
            while inner.filling > 0 {
                sh.cv.wait(&mut inner);
            }
            let s = &mut *inner;
            let n = s.page_table.len();
            s.page_table.clear();
            for f in 0..s.frames.len() {
                if s.frames[f].page != u64::MAX {
                    s.policy.on_remove(f);
                    s.frames[f].page = u64::MAX;
                    s.free.push(f);
                }
            }
            s.stats.invalidations += n as u64;
            ep.series_note(Metric::Invals, n as u64);
            Self::charge(ep, s, LOCK_NS + n as u64 * 10);
            drop(inner);
            sh.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LIST_OP_NS;
    use crate::policy::{ClockPolicy, LruPolicy};
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A closure a test runs inside a pool call.
    type Hook = Box<dyn FnOnce(&BufferPool) + Send>;

    /// What a test can hook into a pool.
    #[derive(Default)]
    pub(super) struct Hooks {
        /// Run once, just before the next write-through doorbell leaves.
        pub before_write_through: Mutex<Option<Hook>>,
        /// Misses that waited for a page on the wire.
        pub waits_on_write: AtomicUsize,
    }

    /// A page written through, `through_fetch` riding a fetch of another
    /// page (else on its own), while — just before its doorbell leaves —
    /// a second thread evicts its frame and a third reads it. The third
    /// must read, and leave cached, what was written. Returns the first
    /// byte of what it read, of what the pool serves afterwards and of
    /// what DSM holds.
    fn read_while_on_the_wire(through_fetch: bool) -> [u8; 3] {
        let (f, layer, pool) = setup(2);
        let ep = f.endpoint();
        let pages: Vec<GlobalAddr> = (0..8).map(|_| layer.alloc(64).unwrap()).collect();
        let (written, fetched) = (pages[0], pages[1]);
        layer.write(&ep, written, &[1; 64]).unwrap();
        let third_read = Arc::new(Mutex::new(None));
        std::thread::scope(|s| {
            let (go, start) = std::sync::mpsc::channel::<()>();
            let done = Arc::new(AtomicBool::new(false));
            let third = {
                let (f, pool, done, third_read) = (f.clone(), &pool, done.clone(), third_read.clone());
                s.spawn(move || {
                    start.recv().unwrap();
                    let mut page = [0u8; 64];
                    pool.read_page(&f.endpoint(), written, &mut page).unwrap();
                    *third_read.lock() = Some(page);
                    done.store(true, Ordering::Release);
                })
            };
            let (fabric, others) = (f.clone(), pages[2..].to_vec());
            let hook = move |pool: &BufferPool| {
                // The second thread reads other pages until the written
                // one's frame is evicted.
                std::thread::scope(|t| {
                    t.spawn(|| {
                        let ep = fabric.endpoint();
                        let mut page = [0u8; 64];
                        for &other in others.iter().cycle() {
                            if !pool.contains(written) {
                                break;
                            }
                            pool.read_page(&ep, other, &mut page).unwrap();
                        }
                    });
                });
                // The third reads the page; go on once it has, or once it
                // waits for this doorbell.
                go.send(()).unwrap();
                while !done.load(Ordering::Acquire) && pool.hooks.waits_on_write.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
            };
            *pool.hooks.before_write_through.lock() = Some(Box::new(hook));
            if through_fetch {
                let mut page = [0u8; 64];
                let (_, fetch) = pool.resolve_reads(&ep, &mut [(fetched, &mut page[..])]).unwrap();
                assert!(fetch.complete_writing(&ep, [&mut page[..]], &[(written, &[2; 64])], &[]).unwrap());
            } else {
                pool.write_page(&ep, written, &[2; 64]).unwrap();
            }
            third.join().unwrap();
        });
        let mut cached = [0u8; 64];
        pool.read_page(&ep, written, &mut cached).unwrap();
        let mut stored = [0u8; 64];
        layer.read(&ep, written, &mut stored).unwrap();
        let read = third_read.lock().take().expect("the third thread read");
        [read[0], cached[0], stored[0]]
    }

    /// A miss on a page whose write-through is still on the wire waits for
    /// it, then fetches what was written: neither the reader nor the cache
    /// is left with the bytes from before the write.
    #[test]
    fn a_page_evicted_on_its_way_to_dsm_is_not_fetched_stale() {
        for through_fetch in [false, true] {
            assert_eq!(read_while_on_the_wire(through_fetch), [2, 2, 2], "riding a fetch: {through_fetch}");
        }
    }

    fn setup(frames: usize) -> (Arc<Fabric>, Arc<DsmLayer>, BufferPool) {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
            },
        );
        let pool = BufferPool::new(
            layer.clone(),
            64,
            frames,
            Box::new(LruPolicy::new(frames)),
            WriteMode::WriteThrough,
        );
        (fabric, layer, pool)
    }

    #[test]
    fn miss_then_hit() {
        let (f, layer, pool) = setup(4);
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
        let (f, layer, pool) = setup(4);
        let addr = layer.alloc(64).unwrap();
        let miss_ep = f.endpoint();
        let mut buf = [0u8; 64];
        pool.read_page(&miss_ep, addr, &mut buf).unwrap();
        let hit_ep = f.endpoint();
        pool.read_page(&hit_ep, addr, &mut buf).unwrap();
        assert!(hit_ep.clock().now_ns() * 4 < miss_ep.clock().now_ns());
    }

    /// Every write reaches DSM within its call, a batch of them in one
    /// doorbell, and an evicted page leaves nothing behind to write.
    #[test]
    fn write_through_updates_dsm_immediately() {
        let (f, layer, pool) = setup(4);
        let ep = f.endpoint();
        let direct = |addr| {
            let mut page = [0u8; 64];
            layer.read(&f.endpoint(), addr, &mut page).unwrap();
            page[0]
        };
        let addrs: Vec<_> = (0..8).map(|_| layer.alloc(64).unwrap()).collect();
        let pages: Vec<_> = (1..=8u8).map(|v| [v; 64]).collect();
        // Four pages fill the pool, four more evict them all.
        for half in [0..4, 4..8] {
            ep.reset();
            let reqs: Vec<(GlobalAddr, &[u8])> = half.map(|i| (addrs[i], &pages[i][..])).collect();
            pool.write_pages(&ep, &reqs, &[]).unwrap();
            assert_eq!((ep.stats().writes, ep.stats().wire_round_trips()), (4, 1));
        }
        assert_eq!(pool.stats().evictions, 4);
        assert_eq!(addrs.iter().map(|&a| direct(a)).collect::<Vec<_>>(), (1..=8).collect::<Vec<_>>());
        // An evicted page misses onto what DSM took.
        let mut buf = [0u8; 64];
        assert!(!pool.read_page(&ep, addrs[0], &mut buf).unwrap());
        assert_eq!(buf, [1u8; 64]);
    }

    /// A page the pool does not cache rides the write-through's doorbell
    /// and takes no frame; if that doorbell fails, neither page lands and
    /// the written frame is dropped.
    #[test]
    fn uncached_writes_ride_the_write_through_and_take_no_frame() {
        let (f, layer, pool) = setup(4);
        let ep = f.endpoint();
        let (cached, other) = (layer.alloc(64).unwrap(), layer.alloc(64).unwrap());
        let direct = |addr| {
            let mut page = [0u8; 64];
            layer.read(&f.endpoint(), addr, &mut page).unwrap();
            page[0]
        };
        pool.write_pages(&ep, &[(cached, &[5u8; 64])], &[(other, &[6u8; 64])]).unwrap();
        let snap = ep.stats();
        assert_eq!((snap.writes, snap.wire_round_trips()), (2, 1));
        assert_eq!((direct(cached), direct(other)), (5, 6));
        assert_eq!((pool.contains(cached), pool.contains(other)), (true, false));
        // Alone, they still go out.
        pool.write_pages(&ep, &[], &[(other, &[7u8; 64])]).unwrap();
        assert_eq!((direct(other), pool.resident()), (7, 1));

        layer.set_retry_policy(dsm::RetryPolicy::none());
        f.install_fault_plan(rdma_sim::FaultPlan::new().transient_first_n(layer.group_primary(0).id(), 1));
        assert!(pool.write_pages(&ep, &[(cached, &[8u8; 64])], &[(other, &[8u8; 64])]).is_err());
        f.clear_fault_plan();
        assert_eq!((direct(cached), direct(other), pool.contains(cached)), (5, 7, false));
    }

    #[test]
    fn invalidate_drops_without_writeback() {
        let (f, layer, pool) = setup(4);
        let ep = f.endpoint();
        let addr = layer.alloc(64).unwrap();
        layer.write(&ep, addr, &[7u8; 64]).unwrap();
        pool.write_page(&ep, addr, &[8u8; 64]).unwrap();
        let verbs = ep.stats().round_trips();
        assert!(pool.invalidate(&ep, addr));
        assert!(!pool.invalidate(&ep, addr), "already gone");
        assert_eq!(ep.stats().round_trips(), verbs, "an invalidation posts nothing");
        // DSM took the write when it was made, and a fresh read
        // repopulates from it.
        let mut direct = [0u8; 64];
        layer.read(&ep, addr, &mut direct).unwrap();
        assert_eq!(direct, [8u8; 64]);
        let mut buf = [0u8; 64];
        assert!(!pool.read_page(&ep, addr, &mut buf).unwrap());
        assert_eq!(buf, [8u8; 64]);
    }

    #[test]
    fn install_is_the_write_path_without_the_write() {
        let (f, layer, pool) = setup(2);
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
        // Over a written frame, and evicted by two more installs, it
        // writes nothing: the caller has said DSM gets these bytes from it.
        pool.write_page(&ep, addrs[0], &[6u8; 64]).unwrap();
        let writes = ep.stats().writes;
        pool.install_page(&ep, addrs[0], &[7u8; 64], 1).unwrap();
        pool.install_page(&ep, addrs[1], &[1u8; 64], 1).unwrap();
        pool.install_page(&ep, addrs[2], &[2u8; 64], 1).unwrap();
        assert!(!pool.contains(addrs[0]));
        assert_eq!((ep.stats().writes, pool.resident()), (writes, 2));
    }

    #[test]
    fn a_resident_set_is_read_whole_or_not_at_all() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig { memory_nodes: 1, capacity_per_node: 1 << 20, replication: 1, mem_cores: 1 },
        );
        let pool = BufferPool::new_striped(layer.clone(), 64, 16, 4, |cap| Box::new(LruPolicy::new(cap)));
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
        let (f, layer, pool) = setup(8);
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
                },
            );
            let name = policy.name();
            let pool = BufferPool::new(layer.clone(), 64, 8, policy, WriteMode::WriteThrough);
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
        let (f, layer, pool) = setup(2);
        let ep = f.endpoint();
        let a = layer.alloc(64).unwrap();
        let b = layer.alloc(64).unwrap();
        let c = layer.alloc(64).unwrap();
        let mut buf = [0u8; 64];
        pool.read_page(&ep, a, &mut buf).unwrap(); // miss
        pool.read_page(&ep, a, &mut buf).unwrap(); // hit
        pool.write_page(&ep, a, &[1u8; 64]).unwrap(); // hit, written through
        pool.read_page(&ep, b, &mut buf).unwrap(); // miss
        pool.read_page(&ep, c, &mut buf).unwrap(); // miss, evicts a
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 3, 1));
        // Fetches and the write-through were attributed to phases.
        let phases = ep.phase_snapshot();
        assert_eq!(phases.phase_verbs(rdma_sim::Phase::PageFetch), 3);
        assert_eq!(phases.phase_verbs(rdma_sim::Phase::Writeback), 1);
        pool.reset_stats();
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn batched_read_pages_mixes_hits_and_misses() {
        let (f, layer, pool) = setup(8);
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
        let (f, layer, pool) = setup(8);
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
        assert!(fetch.complete_writing(&ep, [&mut buf[..]], &[(addrs[0], &[9u8; 64][..])], &[]).unwrap());
        assert_eq!((buf, ep.stats().writes, ep.stats().wire_round_trips()), ([4; 64], 1, 2));
        let mut direct = [0u8; 64];
        layer.read(&ep, addrs[0], &mut direct).unwrap();
        assert_eq!(direct, [9; 64]);
        assert!(pool.read_page(&ep, addrs[0], &mut buf).unwrap());
        assert_eq!(buf, [9; 64]);

        // If that doorbell fails, neither the written frame nor the
        // reserved one is left; a fetch dropped uncompleted frees its frame.
        layer.set_retry_policy(dsm::RetryPolicy::none());
        f.install_fault_plan(rdma_sim::FaultPlan::new().transient_first_n(layer.group_primary(0).id(), 1));
        let (_, fetch) = pool.resolve_reads(&ep, &mut [(addrs[4], &mut buf[..])]).unwrap();
        assert!(fetch.complete_writing(&ep, [&mut buf[..]], &[(addrs[0], &[7u8; 64][..])], &[]).is_err());
        assert!(!pool.contains(addrs[0]) && !pool.contains(addrs[4]));
        layer.read(&ep, addrs[0], &mut direct).unwrap();
        assert_eq!(direct, [9; 64]);
        let (_, fetch) = pool.resolve_reads(&ep, &mut [(addrs[4], &mut buf[..])]).unwrap();
        drop(fetch);
        assert_eq!((pool.contains(addrs[4]), pool.resident()), (false, 3));
    }

    #[test]
    fn a_fetch_adds_to_a_page_it_fetches_in_the_same_doorbell() {
        let (f, layer, pool) = setup(8);
        let ep = f.endpoint();
        let addrs: Vec<_> = (0..3).map(|_| layer.alloc(64).unwrap()).collect();
        for (i, a) in addrs.iter().enumerate() {
            layer.write(&ep, *a, &[i as u8 + 1; 64]).unwrap();
        }
        layer.write_u64(&ep, addrs[1], 40).unwrap();
        pool.read_page(&ep, addrs[0], &mut [0u8; 64]).unwrap();
        let word = |buf: &[u8]| i64::from_le_bytes(buf[..8].try_into().unwrap());
        let stored = |addr| layer.read_u64(&f.endpoint(), addr).unwrap() as i64;
        ep.reset();

        // Pages 1 and 2 are fetched; page 1 takes -3 by a fetch-and-add
        // behind its READ, and page 0's write-through rides too: four
        // members, one wire round trip. Page 1's destination holds the
        // page as it was, its frame the page as DSM now holds it.
        let mut bufs = [[0u8; 64]; 2];
        let [b1, b2] = &mut bufs;
        let (_, fetch) = pool.resolve_reads(&ep, &mut [(addrs[1], &mut b1[..]), (addrs[2], &mut b2[..])]).unwrap();
        let dsts = bufs.iter_mut().map(|b| &mut b[..]);
        assert!(fetch.complete_writing(&ep, dsts, &[(addrs[0], &[9u8; 64][..])], &[(addrs[1], -3)]).unwrap());
        assert_eq!((word(&bufs[0]), &bufs[0][8..], bufs[1]), (40, &[2u8; 56][..], [3u8; 64]));
        let s = ep.stats();
        assert_eq!((s.reads, s.faa, s.writes, s.wire_round_trips()), (2, 1, 1, 1));
        let mut buf = [0u8; 64];
        assert!(pool.read_page(&ep, addrs[1], &mut buf).unwrap());
        assert_eq!((word(&buf), &buf[8..], stored(addrs[1])), (37, &[2u8; 56][..], 37));
        assert_eq!(stored(addrs[0]), i64::from_le_bytes([9; 8]));

        // The add wraps, as the verb does.
        layer.write_u64(&ep, addrs[2], i64::MAX as u64).unwrap();
        pool.invalidate(&ep, addrs[2]);
        let (_, fetch) = pool.resolve_reads(&ep, &mut [(addrs[2], &mut buf[..])]).unwrap();
        assert!(fetch.complete_writing(&ep, [&mut buf[..]], &[], &[(addrs[2], 1)]).unwrap());
        assert_eq!((word(&buf), stored(addrs[2])), (i64::MAX, i64::MIN));

        // If the doorbell fails, no word is added to and the reserved
        // frame is freed.
        pool.invalidate(&ep, addrs[1]);
        let resident = pool.resident();
        layer.set_retry_policy(dsm::RetryPolicy::none());
        f.install_fault_plan(rdma_sim::FaultPlan::new().transient_first_n(layer.group_primary(0).id(), 1));
        let (_, fetch) = pool.resolve_reads(&ep, &mut [(addrs[1], &mut buf[..])]).unwrap();
        assert!(fetch.complete_writing(&ep, [&mut buf[..]], &[], &[(addrs[1], 5)]).is_err());
        f.clear_fault_plan();
        assert_eq!((pool.contains(addrs[1]), pool.resident(), stored(addrs[1])), (false, resident, 37));
    }

    /// Thread A reserves `addr` and holds the fetch; thread B's read of
    /// it blocks on the shard's condvar until A completes the fetch, or
    /// drops it (`complete` false). Returns whether B hit, and the stats.
    fn read_behind_a_held_fetch(complete: bool) -> (bool, PoolStats) {
        let (f, layer, pool) = setup(4);
        let ep = f.endpoint();
        let addr = layer.alloc(64).unwrap();
        layer.write(&ep, addr, &[5u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        let (hits, fetch) = pool.resolve_reads(&ep, &mut [(addr, &mut buf[..])]).unwrap();
        assert!(hits == 0 && fetch.reserved(0));
        let hit = std::thread::scope(|sc| {
            let reader = sc.spawn(|| {
                let mut got = [0u8; 64];
                let hit = pool.read_page(&f.endpoint(), addr, &mut got).unwrap();
                assert_eq!(got, [5u8; 64]);
                hit
            });
            // A notify reports the waiters it woke; B, woken early, finds
            // the frame still in flight and waits again.
            while pool.shards[0].cv.notify_all() == 0 {
                assert!(!reader.is_finished(), "the read did not wait for the fetch");
                std::thread::yield_now();
            }
            if complete {
                fetch.complete(&ep, [&mut buf[..]], None).unwrap();
                assert_eq!(buf, [5u8; 64]);
            } else {
                drop(fetch);
            }
            reader.join().unwrap()
        });
        (hit, pool.stats())
    }

    #[test]
    fn a_reader_waits_out_a_fetch_and_hits() {
        let (hit, s) = read_behind_a_held_fetch(true);
        assert!(hit);
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn a_reader_waits_out_a_dropped_fetch_and_fetches_itself() {
        let (hit, s) = read_behind_a_held_fetch(false);
        assert!(!hit);
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    /// `drop_all` frees frames in frame order: two pools that see the same
    /// ops before and after it end with the same counters and residents.
    #[test]
    fn drop_all_leaves_the_same_pool_in_every_run() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
            },
        );
        let ep = fabric.endpoint();
        let addrs: Vec<_> = (0..96).map(|_| layer.alloc(64).unwrap()).collect();
        let ops = |pool: &BufferPool, salt: u64| {
            let mut buf = [0u8; 64];
            let mut x = salt | 1;
            for _ in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = addrs[(x % addrs.len() as u64) as usize];
                if x % 3 == 1 {
                    pool.write_page(&ep, a, &[x as u8; 64]).unwrap();
                } else {
                    pool.read_page(&ep, a, &mut buf).unwrap();
                }
            }
        };
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let pool = BufferPool::new_striped(layer.clone(), 64, 32, 2, |cap| Box::new(ClockPolicy::new(cap)));
                ops(&pool, 7);
                pool.drop_all(&ep);
                assert_eq!(pool.resident(), 0);
                ops(&pool, 11);
                let resident: Vec<bool> = addrs.iter().map(|&a| pool.contains(a)).collect();
                (pool.stats(), resident)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
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
            },
        );
        let pool = BufferPool::new_striped(
            layer.clone(),
            64,
            16,
            4,
            |cap| Box::new(LruPolicy::new(cap)),
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
