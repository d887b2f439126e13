//! The replacement-policy abstraction and the list/clock family of
//! policies (FIFO, LRU, LRU-K, CLOCK, sampled-LRU). 2Q and ARC live in
//! their own modules ([`crate::twoq`], [`crate::arc`]) — they carry ghost
//! state.
//!
//! Every action returns its **software overhead in nanoseconds** under the
//! micro-op model of [`crate::cost`]; the pool charges these to the calling
//! endpoint. This is how the crate operationalizes the paper's "focus on
//! the actual running time instead of just cache hit rates" (§5).

use crate::cost::*;

/// Index of a frame in the pool's frame array.
pub type FrameId = usize;

/// A buffer replacement policy.
///
/// Contract with the pool: [`ReplacementPolicy::victim`] is called only
/// when every frame is resident; it must return a frame the policy
/// currently tracks and forget it; the pool then re-inserts the frame via
/// [`ReplacementPolicy::on_insert`] with the new page.
pub trait ReplacementPolicy: Send {
    /// Display name for experiment output.
    fn name(&self) -> &'static str;
    /// A resident page in `frame` was accessed. `page` is the page id.
    fn on_hit(&mut self, frame: FrameId, page: u64) -> u64;
    /// `page` was just placed in `frame` (after a miss).
    fn on_insert(&mut self, frame: FrameId, page: u64) -> u64;
    /// Choose and forget a victim frame; `(frame, overhead_ns)`.
    fn victim(&mut self) -> (FrameId, u64);
    /// `frame` was invalidated outside eviction (coherence, drop).
    fn on_remove(&mut self, frame: FrameId) -> u64;
    /// True if the hit path needs no pool latch (e.g. CLOCK's reference
    /// bit is a single atomic). The pool then skips `LOCK_NS` on hits.
    fn latch_free_hits(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Intrusive doubly-linked list over frame ids (shared by FIFO/LRU).
// ---------------------------------------------------------------------------

/// A fixed-capacity intrusive list: O(1) splice, no allocation after new.
/// Shared with the 2Q and ARC modules.
pub(crate) struct FrameList {
    prev: Vec<usize>,
    next: Vec<usize>,
    /// sentinel index == capacity
    sentinel: usize,
    linked: Vec<bool>,
    len: usize,
}

impl FrameList {
    pub(crate) fn new(capacity: usize) -> Self {
        let s = capacity;
        let mut prev = vec![usize::MAX; capacity + 1];
        let mut next = vec![usize::MAX; capacity + 1];
        prev[s] = s;
        next[s] = s;
        Self {
            prev,
            next,
            sentinel: s,
            linked: vec![false; capacity],
            len: 0,
        }
    }

    pub(crate) fn push_front(&mut self, f: FrameId) {
        debug_assert!(!self.linked[f]);
        let first = self.next[self.sentinel];
        self.next[self.sentinel] = f;
        self.prev[f] = self.sentinel;
        self.next[f] = first;
        self.prev[first] = f;
        self.linked[f] = true;
        self.len += 1;
    }

    pub(crate) fn unlink(&mut self, f: FrameId) {
        debug_assert!(self.linked[f]);
        let (p, n) = (self.prev[f], self.next[f]);
        self.next[p] = n;
        self.prev[n] = p;
        self.linked[f] = false;
        self.len -= 1;
    }

    pub(crate) fn back(&self) -> Option<FrameId> {
        let b = self.prev[self.sentinel];
        (b != self.sentinel).then_some(b)
    }

    pub(crate) fn pop_back(&mut self) -> Option<FrameId> {
        let b = self.back()?;
        self.unlink(b);
        Some(b)
    }

    pub(crate) fn contains(&self, f: FrameId) -> bool {
        self.linked[f]
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// First-in-first-out: zero maintenance on hits, the cheapest possible
/// policy — and the baseline the paper's "actual running time" argument
/// favours more as the gap narrows.
pub struct FifoPolicy {
    list: FrameList,
}

impl FifoPolicy {
    /// FIFO over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Self {
            list: FrameList::new(capacity),
        }
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn on_hit(&mut self, _frame: FrameId, _page: u64) -> u64 {
        0 // no bookkeeping at all
    }
    fn on_insert(&mut self, frame: FrameId, _page: u64) -> u64 {
        self.list.push_front(frame);
        2 * LIST_OP_NS
    }
    fn victim(&mut self) -> (FrameId, u64) {
        let f = self.list.pop_back().expect("victim() on empty pool");
        (f, 2 * LIST_OP_NS)
    }
    fn on_remove(&mut self, frame: FrameId) -> u64 {
        if self.list.contains(frame) {
            self.list.unlink(frame);
        }
        2 * LIST_OP_NS
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Least-recently-used with an intrusive list: every hit splices the frame
/// to the front (the "maintenance cost to reorganize buffer contents (in,
/// say LRU)" the paper names).
pub struct LruPolicy {
    list: FrameList,
}

impl LruPolicy {
    /// LRU over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Self {
            list: FrameList::new(capacity),
        }
    }
}

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }
    fn on_hit(&mut self, frame: FrameId, _page: u64) -> u64 {
        self.list.unlink(frame);
        self.list.push_front(frame);
        4 * LIST_OP_NS
    }
    fn on_insert(&mut self, frame: FrameId, _page: u64) -> u64 {
        self.list.push_front(frame);
        2 * LIST_OP_NS
    }
    fn victim(&mut self) -> (FrameId, u64) {
        let f = self.list.pop_back().expect("victim() on empty pool");
        (f, 2 * LIST_OP_NS)
    }
    fn on_remove(&mut self, frame: FrameId) -> u64 {
        if self.list.contains(frame) {
            self.list.unlink(frame);
        }
        2 * LIST_OP_NS
    }
}

// ---------------------------------------------------------------------------
// LRU-K
// ---------------------------------------------------------------------------

/// History depth of [`LruKPolicy`].
const LRU_K: usize = 2;

/// LRU-K (O'Neil et al. \[46\]) with K = 2: evicts the frame whose
/// second most recent access is oldest. History updates are cheap; victim
/// selection scans all frames — the expensive-but-accurate end of the
/// spectrum.
pub struct LruKPolicy {
    /// Per-frame ring of the last K access times (0 = never).
    history: Vec<[u64; LRU_K]>,
    resident: Vec<bool>,
    tick: u64,
}

impl LruKPolicy {
    /// LRU-K over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Self {
            history: vec![[0; LRU_K]; capacity],
            resident: vec![false; capacity],
            tick: 0,
        }
    }

    fn touch(&mut self, frame: FrameId) {
        self.tick += 1;
        let h = &mut self.history[frame];
        h.rotate_right(1);
        h[0] = self.tick;
    }

    /// Backward K-distance: the K-th most recent access time (0 if fewer
    /// than K accesses — maximally evictable).
    fn kth(&self, frame: FrameId) -> u64 {
        self.history[frame][LRU_K - 1]
    }
}

impl ReplacementPolicy for LruKPolicy {
    fn name(&self) -> &'static str {
        "lru-k"
    }
    fn on_hit(&mut self, frame: FrameId, _page: u64) -> u64 {
        self.touch(frame);
        MAP_OP_NS + LRU_K as u64 * LIST_OP_NS
    }
    fn on_insert(&mut self, frame: FrameId, _page: u64) -> u64 {
        self.history[frame].fill(0);
        self.touch(frame);
        self.resident[frame] = true;
        MAP_OP_NS + LRU_K as u64 * LIST_OP_NS
    }
    fn victim(&mut self) -> (FrameId, u64) {
        let mut best: Option<(u64, u64, FrameId)> = None; // (kth, recency, frame)
        let mut scanned = 0u64;
        for f in 0..self.resident.len() {
            if !self.resident[f] {
                continue;
            }
            scanned += 1;
            let key = (self.kth(f), self.history[f][0], f);
            if best.is_none_or(|(bk, br, bf)| key < (bk, br, bf)) {
                best = Some(key);
            }
        }
        let (_, _, f) = best.expect("victim() on empty pool");
        self.resident[f] = false;
        (f, scanned * SCAN_STEP_NS)
    }
    fn on_remove(&mut self, frame: FrameId) -> u64 {
        self.resident[frame] = false;
        self.history[frame].fill(0);
        MAP_OP_NS
    }
}

// ---------------------------------------------------------------------------
// CLOCK
// ---------------------------------------------------------------------------

/// CLOCK (second chance): a reference bit per frame and a sweeping hand.
/// Hits are a single latch-free bit set — the cheapest non-trivial policy.
pub struct ClockPolicy {
    referenced: Vec<bool>,
    resident: Vec<bool>,
    hand: usize,
}

impl ClockPolicy {
    /// CLOCK over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Self {
            referenced: vec![false; capacity],
            resident: vec![false; capacity],
            hand: 0,
        }
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "clock"
    }
    fn on_hit(&mut self, frame: FrameId, _page: u64) -> u64 {
        self.referenced[frame] = true;
        ATOMIC_NS
    }
    fn on_insert(&mut self, frame: FrameId, _page: u64) -> u64 {
        self.resident[frame] = true;
        self.referenced[frame] = true;
        ATOMIC_NS
    }
    fn victim(&mut self) -> (FrameId, u64) {
        let n = self.referenced.len();
        let mut steps = 0u64;
        loop {
            let f = self.hand;
            self.hand = (self.hand + 1) % n;
            steps += 1;
            if !self.resident[f] {
                continue;
            }
            if self.referenced[f] {
                self.referenced[f] = false;
            } else {
                self.resident[f] = false;
                return (f, steps * SCAN_STEP_NS);
            }
            // Safety valve: after two full sweeps everything has had its
            // bit cleared, so the next resident frame wins.
            if steps as usize > 2 * n + 1 {
                self.resident[f] = false;
                return (f, steps * SCAN_STEP_NS);
            }
        }
    }
    fn on_remove(&mut self, frame: FrameId) -> u64 {
        self.resident[frame] = false;
        self.referenced[frame] = false;
        ATOMIC_NS
    }
    fn latch_free_hits(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Sampled LRU
// ---------------------------------------------------------------------------

/// Frames [`SampledLruPolicy`] inspects per eviction.
const LRU_SAMPLE: usize = 5;

/// Redis-style approximated LRU: hits stamp a logical timestamp
/// (latch-free); eviction samples five random frames and evicts
/// the stalest. Near-LRU hit rates at near-FIFO overhead — a candidate
/// "new policy that considers actual running time" (§5).
pub struct SampledLruPolicy {
    last_access: Vec<u64>,
    resident: Vec<bool>,
    tick: u64,
    rng_state: u64,
}

impl SampledLruPolicy {
    /// Sampled LRU over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Self {
            last_access: vec![0; capacity],
            resident: vec![false; capacity],
            tick: 0,
            rng_state: 0x9E3779B97F4A7C15,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic, no rand dependency in the hot path.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl ReplacementPolicy for SampledLruPolicy {
    fn name(&self) -> &'static str {
        "sampled-lru"
    }
    fn on_hit(&mut self, frame: FrameId, _page: u64) -> u64 {
        self.tick += 1;
        self.last_access[frame] = self.tick;
        ATOMIC_NS
    }
    fn on_insert(&mut self, frame: FrameId, _page: u64) -> u64 {
        self.tick += 1;
        self.last_access[frame] = self.tick;
        self.resident[frame] = true;
        ATOMIC_NS
    }
    fn victim(&mut self) -> (FrameId, u64) {
        let n = self.resident.len();
        let mut best: Option<(u64, FrameId)> = None;
        let mut cost = 0u64;
        let mut inspected = 0;
        let mut attempts = 0;
        while inspected < LRU_SAMPLE && attempts < 8 * n.max(8) {
            attempts += 1;
            let f = (self.next_rand() % n as u64) as usize;
            cost += RNG_NS + SCAN_STEP_NS;
            if !self.resident[f] {
                continue;
            }
            inspected += 1;
            let key = (self.last_access[f], f);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, f) = best
            .or_else(|| {
                // Degenerate fallback: linear scan for any resident frame.
                (0..n)
                    .find(|&f| self.resident[f])
                    .map(|f| (self.last_access[f], f))
            })
            .expect("victim() on empty pool");
        self.resident[f] = false;
        (f, cost)
    }
    fn on_remove(&mut self, frame: FrameId) -> u64 {
        self.resident[frame] = false;
        ATOMIC_NS
    }
    fn latch_free_hits(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(policy: &mut dyn ReplacementPolicy, capacity: usize) {
        // Fill.
        for f in 0..capacity {
            policy.on_insert(f, f as u64);
        }
        // Touch half.
        for f in 0..capacity / 2 {
            policy.on_hit(f, f as u64);
        }
        // Evict all: victims must be unique, valid frames.
        let mut seen = vec![false; capacity];
        for _ in 0..capacity {
            let (v, _) = policy.victim();
            assert!(v < capacity, "{} returned bad frame {v}", policy.name());
            assert!(!seen[v], "{} evicted frame {v} twice", policy.name());
            seen[v] = true;
        }
    }

    #[test]
    fn every_policy_evicts_each_frame_exactly_once() {
        for mut p in crate::all_policies(16) {
            exercise(p.as_mut(), 16);
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = LruPolicy::new(3);
        p.on_insert(0, 0);
        p.on_insert(1, 1);
        p.on_insert(2, 2);
        p.on_hit(0, 0); // order (MRU->LRU): 0, 2, 1
        assert_eq!(p.victim().0, 1);
        assert_eq!(p.victim().0, 2);
        assert_eq!(p.victim().0, 0);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = FifoPolicy::new(3);
        p.on_insert(0, 0);
        p.on_insert(1, 1);
        p.on_insert(2, 2);
        p.on_hit(0, 0);
        p.on_hit(0, 0);
        assert_eq!(p.victim().0, 0, "FIFO evicts insertion order");
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = ClockPolicy::new(3);
        p.on_insert(0, 0);
        p.on_insert(1, 1);
        p.on_insert(2, 2);
        // All referenced; first sweep clears 0,1,2 then evicts 0. But a
        // hit on 0 after the clear would save it — emulate: victim once
        // (evicts 0 after full sweep), then hit 1, victim again (evicts 2).
        assert_eq!(p.victim().0, 0);
        p.on_hit(1, 1);
        assert_eq!(p.victim().0, 2);
    }

    #[test]
    fn lruk_prefers_evicting_single_touch_pages() {
        let mut p = LruKPolicy::new(4);
        for f in 0..4 {
            p.on_insert(f, f as u64);
        }
        // Frames 0 and 1 get second touches (K=2 satisfied); 2 and 3 are
        // one-timers -> kth == 0 -> evicted first, oldest first.
        p.on_hit(0, 0);
        p.on_hit(1, 1);
        assert_eq!(p.victim().0, 2);
        assert_eq!(p.victim().0, 3);

        // K = 2: two twice-touched pages are ranked by their second most
        // recent access, so the most recently used one goes (LRU and
        // LRU-3 would both evict frame 1).
        let mut p = LruKPolicy::new(2);
        p.on_insert(0, 0);
        p.on_insert(1, 1);
        p.on_hit(1, 1);
        p.on_hit(0, 0);
        assert_eq!(p.victim().0, 0);
    }

    #[test]
    fn sampled_lru_roughly_tracks_recency() {
        let mut p = SampledLruPolicy::new(64);
        for f in 0..64 {
            p.on_insert(f, f as u64);
        }
        // Touch frames 32..64 so 0..32 are stale.
        for f in 32..64 {
            p.on_hit(f, f as u64);
        }
        // On a full pool an eviction inspects five frames, a draw each.
        let (first, cost) = p.victim();
        assert_eq!(cost, 5 * (RNG_NS + SCAN_STEP_NS));
        // Most victims should come from the stale half.
        let stale_victims = usize::from(first < 32) + (1..32).filter(|_| p.victim().0 < 32).count();
        assert!(stale_victims >= 24, "only {stale_victims}/32 were stale");
    }

    #[test]
    fn hit_cost_ordering_matches_design() {
        let mut fifo = FifoPolicy::new(8);
        let mut lru = LruPolicy::new(8);
        let mut clock = ClockPolicy::new(8);
        fifo.on_insert(0, 0);
        lru.on_insert(0, 0);
        clock.on_insert(0, 0);
        let c_fifo = fifo.on_hit(0, 0);
        let c_clock = clock.on_hit(0, 0);
        let c_lru = lru.on_hit(0, 0);
        assert!(c_fifo <= c_clock && c_clock < c_lru);
        assert!(clock.latch_free_hits() && !lru.latch_free_hits());
    }

    #[test]
    fn remove_then_reinsert_is_clean() {
        for mut p in crate::all_policies(4) {
            p.on_insert(0, 10);
            p.on_insert(1, 11);
            p.on_remove(0);
            p.on_insert(0, 12);
            let (v1, _) = p.victim();
            let (v2, _) = p.victim();
            assert_ne!(v1, v2, "{}", p.name());
        }
    }
}
