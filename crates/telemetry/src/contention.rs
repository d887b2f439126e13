//! Contention profiling: hot-key sketches, wait-for edges, coherence
//! fan-out counters, and their deterministic JSON form.
//!
//! The paper's contention argument (§4 Challenges 4–6) is structural:
//! *which* lock word convoys, *which* page soaks the invalidation
//! broadcast, *which* wait-for edge closes into a deadlock-shaped
//! cycle. Aggregate histograms cannot answer those questions, so this
//! module supplies:
//!
//! * [`TopK`] — a space-saving (Metwally et al.) heavy-hitter sketch
//!   over `u64` keys with `u64` weights. With capacity `m` over a
//!   total offered weight `W` it guarantees, for every key:
//!   `true ≤ estimate` and `estimate − err ≤ true`, with
//!   `err ≤ W / m`. Any key whose true weight exceeds `W / m` is
//!   guaranteed present — exactly the bound the property test checks.
//! * [`WaitEdge`] snapshots — `(waiter, holder, addr)` triples taken by
//!   the lock layer on failed acquires; [`wait_for_analysis`] folds a
//!   bounded edge log into cycle count and longest-chain depth so
//!   convoys and deadlock shapes show up as two numbers.
//! * [`ContentionSnapshot`] — the mergeable, order-independent sum of
//!   the above plus coherence invalidation fan-out counters, rendered
//!   to insertion-ordered [`Json`] (deterministic byte-for-byte).

use std::collections::BTreeMap;

use crate::json::Json;

/// One entry of a [`TopK`] sketch: an over-estimate and its error bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopEntry {
    /// The tracked key (page address, lock word address, record key...).
    pub key: u64,
    /// Estimated total weight. Never less than the true weight.
    /// `count - err` never exceeds the true weight.
    pub count: u64,
    /// Maximum over-count absorbed when this key evicted another.
    pub err: u64,
}

/// Space-saving top-K heavy-hitter sketch over `u64` keys.
///
/// Deterministic: eviction picks the minimum `(count, key)` entry, so
/// identical offer sequences produce identical snapshots.
///
/// An offer costs O(log `cap`), and O(1) when it hits a key that is not
/// close to eviction. Entries never move: a key is found through a
/// small chained hash index, and the next victim is the winner of a
/// tournament over the entries, replayed only along the one path whose
/// entry grew. Neither structure is observable — a snapshot depends
/// only on the set of entries.
#[derive(Debug, Clone)]
pub struct TopK {
    cap: usize,
    /// `count << 64 | key` of each entry, so one integer comparison
    /// orders two entries by `(count, key)`.
    rank: Vec<u128>,
    /// `err` of each entry.
    err: Vec<u64>,
    /// Key index: `heads[bucket]` starts a chain through `next` of the
    /// entries whose keys hash to `bucket`. Both hold an entry plus one,
    /// 0 ends a chain. A power-of-two number of buckets, at least four
    /// per entry, keeps most chains at one entry or none.
    heads: Vec<u32>,
    next: Vec<u32>,
    /// The tournament, built once the sketch is full (nothing is evicted
    /// before): `2 * cap` nodes, entry `e` at the leaf `cap + e`, node
    /// `i` above the nodes `2 * i` and `2 * i + 1`, node 1 the root. A
    /// node holds the entry of smallest rank below it.
    winner: Vec<u32>,
}

impl TopK {
    /// An empty sketch tracking at most `cap` keys. `cap == 0` disables
    /// the sketch (every offer is dropped).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            rank: Vec::new(),
            err: Vec::new(),
            heads: Vec::new(),
            next: Vec::new(),
            winner: Vec::new(),
        }
    }

    /// Add `weight` to `key`'s estimate.
    pub fn offer(&mut self, key: u64, weight: u64) {
        if self.cap == 0 || weight == 0 {
            return;
        }
        if let Some(e) = self.find(key) {
            self.rank[e] += (weight as u128) << 64;
            self.replay(e);
            return;
        }
        let len = self.rank.len();
        if len < self.cap {
            if (len + 1) * 4 > self.heads.len() {
                self.grow_index();
            }
            self.rank.push((weight as u128) << 64 | key as u128);
            self.err.push(0);
            self.next.push(0);
            self.index_insert(key, len);
            if len + 1 == self.cap {
                self.build_tournament();
            }
            return;
        }
        // Evict the minimum-count entry (ties broken by key for
        // determinism); the newcomer inherits its count as error.
        let e = self.winner[1] as usize;
        let (victim, floor) = (self.rank[e] as u64, (self.rank[e] >> 64) as u64);
        self.index_remove(victim, e);
        self.index_insert(key, e);
        self.rank[e] = ((floor + weight) as u128) << 64 | key as u128;
        self.err[e] = floor;
        self.replay(e);
    }

    /// Total weight offered so far (sum of estimates minus errors is a
    /// lower bound; this is the exact bookkeeping sum of estimates).
    pub fn estimate_sum(&self) -> u64 {
        self.rank.iter().map(|r| (r >> 64) as u64).sum()
    }

    /// Entries sorted by `(count desc, key asc)` — the hot list.
    pub fn snapshot(&self) -> Vec<TopEntry> {
        let mut v: Vec<TopEntry> = (0..self.rank.len()).map(|e| self.entry(e)).collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        v
    }

    /// The estimate for `key`, if tracked.
    pub fn get(&self, key: u64) -> Option<TopEntry> {
        self.find(key).map(|e| self.entry(e))
    }

    /// Drop all entries.
    pub fn reset(&mut self) {
        self.rank.clear();
        self.err.clear();
        self.heads.fill(0);
        self.next.clear();
        self.winner.clear();
    }

    fn entry(&self, e: usize) -> TopEntry {
        TopEntry {
            key: self.rank[e] as u64,
            count: (self.rank[e] >> 64) as u64,
            err: self.err[e],
        }
    }

    /// `key`'s bucket. There must be one.
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        // Fibonacci hashing: heat keys differ only in their lowest
        // (range) and highest (node) bits; the multiply spreads both
        // over the upper half.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.heads.len() - 1)
    }

    /// The entry tracking `key`.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.heads.is_empty() {
            return None;
        }
        let mut link = self.heads[self.bucket(key)];
        while link != 0 {
            let e = link as usize - 1;
            if self.rank[e] as u64 == key {
                return Some(e);
            }
            link = self.next[e];
        }
        None
    }

    /// Index entry `e`, which now tracks the so far untracked `key`.
    #[inline]
    fn index_insert(&mut self, key: u64, e: usize) {
        let b = self.bucket(key);
        self.next[e] = self.heads[b];
        self.heads[b] = e as u32 + 1;
    }

    /// Unlink entry `e`, which tracks `key`.
    #[inline]
    fn index_remove(&mut self, key: u64, e: usize) {
        let b = self.bucket(key);
        let link = e as u32 + 1;
        if self.heads[b] == link {
            self.heads[b] = self.next[e];
            return;
        }
        let mut before = self.heads[b] as usize - 1;
        while self.next[before] != link {
            before = self.next[before] as usize - 1;
        }
        self.next[before] = self.next[e];
    }

    /// Double the buckets and re-chain every entry.
    #[cold]
    fn grow_index(&mut self) {
        let len = (self.heads.len() * 2).max(4);
        self.heads.clear();
        self.heads.resize(len, 0);
        for e in 0..self.rank.len() {
            self.index_insert(self.rank[e] as u64, e);
        }
    }

    /// Play the whole tournament over the `cap` entries.
    #[cold]
    fn build_tournament(&mut self) {
        let cap = self.cap;
        self.winner.clear();
        self.winner.resize(cap, 0);
        self.winner.extend(0..cap as u32);
        for i in (1..cap).rev() {
            let (a, b) = (self.winner[2 * i], self.winner[2 * i + 1]);
            self.winner[i] = if self.rank[b as usize] < self.rank[a as usize] { b } else { a };
        }
    }

    /// Entry `e` grew: replay the matches it had won, from its leaf up.
    /// It cannot win one it had lost, so the walk ends at the first node
    /// it does not hold — at once, unless it is close to eviction, and
    /// before the tournament exists.
    #[inline]
    fn replay(&mut self, e: usize) {
        let (mut node, mut best, mut best_rank) = (self.cap + e, e as u32, self.rank[e]);
        while node > 1 && self.winner.get(node / 2) == Some(&(e as u32)) {
            let other = self.winner[node ^ 1];
            let other_rank = self.rank[other as usize];
            if other_rank < best_rank {
                (best, best_rank) = (other, other_rank);
            }
            node /= 2;
            self.winner[node] = best;
        }
    }
}

/// Merge top-K snapshots from many endpoints into one ranked list of at
/// most `cap` entries. Order-independent: entries are folded through a
/// `BTreeMap` (counts and errors sum per key) before re-ranking, so the
/// merge result does not depend on thread completion order.
pub fn merge_top(lists: &[Vec<TopEntry>], cap: usize) -> Vec<TopEntry> {
    let mut by_key: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for list in lists {
        for e in list {
            let slot = by_key.entry(e.key).or_insert((0, 0));
            slot.0 += e.count;
            slot.1 += e.err;
        }
    }
    let mut v: Vec<TopEntry> = by_key
        .into_iter()
        .map(|(key, (count, err))| TopEntry { key, count, err })
        .collect();
    v.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
    v.truncate(cap);
    v
}

/// Parse a rendered ranked list whose entries name their key `key` and
/// their weight `count` (the heat lists say `key`/`count`, the session
/// split `session`/`bytes`).
pub(crate) fn top_from_json(list: &Json, key: &str, count: &str) -> Option<Vec<TopEntry>> {
    list.as_array()?
        .iter()
        .map(|e| {
            Some(TopEntry {
                key: e.get(key)?.as_u64()?,
                count: e.get(count)?.as_u64()?,
                err: e.get("err")?.as_u64()?,
            })
        })
        .collect()
}

/// A space-saving ranked list is sorted by weight, heaviest first, and
/// no entry's overestimate bound exceeds its weight.
pub(crate) fn top_violations(name: &str, list: &[TopEntry]) -> Vec<String> {
    let mut out = Vec::new();
    let mut prev = u64::MAX;
    for (i, e) in list.iter().enumerate() {
        if e.count > prev {
            out.push(format!("{name}[{i}] not sorted by weight desc"));
        }
        if e.err > e.count {
            out.push(format!("{name}[{i}]: err {} exceeds its weight {}", e.err, e.count));
        }
        prev = e.count;
    }
    out
}

/// One observed lock wait: `waiter` failed to acquire `addr` because
/// `holder` held it. Holder `0` means "unknown holder" (e.g. a shared
/// latch whose word only stores a reader count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WaitEdge {
    /// Owner tag of the session that wanted the lock.
    pub waiter: u64,
    /// Owner tag observed in the lock word (0 = unknown).
    pub holder: u64,
    /// Raw global address of the lock word.
    pub addr: u64,
}

/// The folded view of a wait-for edge log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitForSummary {
    /// Distinct `(waiter, holder, addr)` edges, sorted.
    pub edges: Vec<WaitEdge>,
    /// Number of wait-for cycles (deadlock/livelock shapes) among the
    /// distinct waiter→holder edges, counted as back edges in a DFS
    /// over sorted adjacency.
    pub cycles: u64,
    /// Longest acyclic waiter→holder chain (a convoy depth). A cycle
    /// contributes its member count.
    pub max_depth: u64,
}

/// Fold raw edges (possibly with duplicates, any order) into the
/// deterministic [`WaitForSummary`].
pub fn wait_for_analysis(raw: &[WaitEdge]) -> WaitForSummary {
    let mut edges: Vec<WaitEdge> = raw.to_vec();
    edges.sort();
    edges.dedup();

    // waiter -> holders adjacency over known holders, sorted keys.
    let mut adj: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for e in &edges {
        if e.holder != 0 && e.waiter != 0 {
            adj.entry(e.waiter).or_default().push(e.holder);
        }
    }
    for hs in adj.values_mut() {
        hs.sort_unstable();
        hs.dedup();
    }

    // Iterative coloured DFS: count back edges (cycles) and the longest
    // chain. `depth[n]` memoises the longest path starting at `n`;
    // nodes on the current stack hit as back edges and terminate the
    // chain there (the cycle itself is length "nodes on the loop").
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut colour: BTreeMap<u64, u8> = BTreeMap::new();
    let mut depth: BTreeMap<u64, u64> = BTreeMap::new();
    let mut cycles = 0u64;

    fn visit(
        n: u64,
        adj: &BTreeMap<u64, Vec<u64>>,
        colour: &mut BTreeMap<u64, u8>,
        depth: &mut BTreeMap<u64, u64>,
        cycles: &mut u64,
        stack_len: u64,
    ) -> u64 {
        match colour.get(&n).copied().unwrap_or(WHITE) {
            BLACK => return depth.get(&n).copied().unwrap_or(1),
            GREY => {
                // Back edge: a cycle. Its "depth" is how far down the
                // stack the loop closes; report at least 2.
                *cycles += 1;
                return stack_len.max(2);
            }
            _ => {}
        }
        colour.insert(n, GREY);
        let mut best = 1u64;
        if let Some(hs) = adj.get(&n) {
            for &h in hs {
                best = best.max(1 + visit(h, adj, colour, depth, cycles, stack_len + 1));
            }
        }
        colour.insert(n, BLACK);
        depth.insert(n, best);
        best
    }

    let mut max_depth = 0u64;
    let waiters: Vec<u64> = adj.keys().copied().collect();
    for w in waiters {
        let d = visit(w, &adj, &mut colour, &mut depth, &mut cycles, 1);
        max_depth = max_depth.max(d);
    }
    // Edges with unknown holders still witness a wait of depth ≥ 2.
    if max_depth < 2 && !edges.is_empty() {
        max_depth = 2;
    }

    WaitForSummary { edges, cycles, max_depth }
}

/// A mergeable, serialisable summary of one endpoint's (or a whole
/// run's) contention observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentionSnapshot {
    /// Hot keys ranked by accumulated lock-wait virtual nanoseconds.
    pub wait_top: Vec<TopEntry>,
    /// Hot lock words ranked by CAS retries (failed compare-and-swaps).
    pub cas_top: Vec<TopEntry>,
    /// Raw wait-for edges (bounded, deduplicated at merge).
    pub edges: Vec<WaitEdge>,
    /// Coherence broadcasts issued (one per propagated write with >0
    /// remote sharers).
    pub inval_broadcasts: u64,
    /// Total invalidation/update messages fanned out.
    pub inval_msgs: u64,
    /// Largest single-broadcast fan-out observed.
    pub inval_max_fanout: u64,
    /// Total lock-wait virtual nanoseconds (sum over all keys, exact).
    pub wait_ns_total: u64,
    /// Wait-for edges dropped because the per-endpoint log was full.
    pub edges_dropped: u64,
}

/// How many ranked entries survive a merge (and reach the JSON report).
pub const MERGED_TOP_K: usize = 16;

impl ContentionSnapshot {
    /// Fold another snapshot in. Order-independent.
    pub fn merge(&mut self, other: &ContentionSnapshot) {
        self.wait_top = merge_top(
            &[std::mem::take(&mut self.wait_top), other.wait_top.clone()],
            MERGED_TOP_K,
        );
        self.cas_top = merge_top(
            &[std::mem::take(&mut self.cas_top), other.cas_top.clone()],
            MERGED_TOP_K,
        );
        self.edges.extend_from_slice(&other.edges);
        self.edges.sort();
        self.edges.dedup();
        self.inval_broadcasts += other.inval_broadcasts;
        self.inval_msgs += other.inval_msgs;
        self.inval_max_fanout = self.inval_max_fanout.max(other.inval_max_fanout);
        self.wait_ns_total += other.wait_ns_total;
        self.edges_dropped += other.edges_dropped;
    }

    /// The wait-for fold of the collected edges.
    pub fn wait_for(&self) -> WaitForSummary {
        wait_for_analysis(&self.edges)
    }

    /// What a `contention` object that re-renders to itself can still
    /// get wrong: the order and error bounds of its ranked lists.
    pub fn violations(&self) -> Vec<String> {
        let mut out = top_violations("top_wait_ns", &self.wait_top);
        out.extend(top_violations("top_cas_retries", &self.cas_top));
        out
    }

    /// Rebuild a snapshot from a parsed `contention` object — the read
    /// side of [`ContentionSnapshot::to_json`]. The rendered wait-for
    /// edges are already the distinct sorted set, and the fold over
    /// them is a function of that set, so rendering the result again
    /// recomputes `cycles` and `max_depth`.
    pub fn from_json(v: &Json) -> Option<Self> {
        let (wf, co) = (v.get("wait_for")?, v.get("coherence")?);
        let mut edges = Vec::new();
        for e in wf.get("edges")?.as_array()? {
            edges.push(WaitEdge {
                waiter: e.get("waiter")?.as_u64()?,
                holder: e.get("holder")?.as_u64()?,
                addr: e.get("addr")?.as_u64()?,
            });
        }
        Some(Self {
            wait_top: top_from_json(v.get("top_wait_ns")?, "key", "count")?,
            cas_top: top_from_json(v.get("top_cas_retries")?, "key", "count")?,
            edges,
            inval_broadcasts: co.get("broadcasts")?.as_u64()?,
            inval_msgs: co.get("messages")?.as_u64()?,
            inval_max_fanout: co.get("max_fanout")?.as_u64()?,
            wait_ns_total: v.get("wait_ns_total")?.as_u64()?,
            edges_dropped: wf.get("dropped")?.as_u64()?,
        })
    }

    /// Deterministic JSON (insertion-ordered objects, sorted lists).
    pub fn to_json(&self) -> Json {
        let top = |list: &[TopEntry]| {
            Json::A(
                list.iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("key", Json::U(e.key)),
                            ("count", Json::U(e.count)),
                            ("err", Json::U(e.err)),
                        ])
                    })
                    .collect(),
            )
        };
        let wf = self.wait_for();
        Json::obj(vec![
            ("top_wait_ns", top(&self.wait_top)),
            ("top_cas_retries", top(&self.cas_top)),
            (
                "wait_for",
                Json::obj(vec![
                    (
                        "edges",
                        Json::A(
                            wf.edges
                                .iter()
                                .map(|e| {
                                    Json::obj(vec![
                                        ("waiter", Json::U(e.waiter)),
                                        ("holder", Json::U(e.holder)),
                                        ("addr", Json::U(e.addr)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("cycles", Json::U(wf.cycles)),
                    ("max_depth", Json::U(wf.max_depth)),
                    ("dropped", Json::U(self.edges_dropped)),
                ]),
            ),
            (
                "coherence",
                Json::obj(vec![
                    ("broadcasts", Json::U(self.inval_broadcasts)),
                    ("messages", Json::U(self.inval_msgs)),
                    ("max_fanout", Json::U(self.inval_max_fanout)),
                ]),
            ),
            ("wait_ns_total", Json::U(self.wait_ns_total)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_exact_when_under_capacity() {
        let mut t = TopK::new(8);
        for k in 0..5u64 {
            t.offer(k, k + 1);
        }
        for k in 0..5u64 {
            let e = t.get(k).unwrap();
            assert_eq!(e.count, k + 1);
            assert_eq!(e.err, 0);
        }
    }

    #[test]
    fn topk_never_undercounts_heavy_hitter_beyond_error_bound() {
        // Deterministic pseudo-random stream with a planted heavy
        // hitter; space-saving guarantees true ≤ est and est−err ≤ true.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = TopK::new(16);
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        let mut total = 0u64;
        for i in 0..20_000u64 {
            let key = if i % 3 == 0 { 42 } else { next() % 512 };
            t.offer(key, 1);
            *truth.entry(key).or_default() += 1;
            total += 1;
        }
        // Every surviving entry satisfies the sandwich bound.
        for e in t.snapshot() {
            let true_count = truth.get(&e.key).copied().unwrap_or(0);
            assert!(e.count >= true_count, "estimate must not undercount");
            assert!(
                e.count - e.err <= true_count,
                "estimate minus error must lower-bound the true count"
            );
            assert!(e.err <= total / 16, "error bounded by W/m");
        }
        // The planted heavy hitter (true weight ~6667 >> W/m = 1250)
        // must be present and ranked first.
        let snap = t.snapshot();
        assert_eq!(snap[0].key, 42);
        assert!(snap[0].count >= truth[&42]);
    }

    #[test]
    fn topk_eviction_is_deterministic() {
        let offers = [(7u64, 3u64), (9, 3), (11, 1), (13, 5), (11, 1), (15, 2)];
        let run = || {
            let mut t = TopK::new(3);
            for (k, w) in offers {
                t.offer(k, w);
            }
            t.snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = TopK::new(4);
        let mut b = TopK::new(4);
        for i in 0..10u64 {
            a.offer(i % 5, i);
            b.offer(i % 3, 1);
        }
        let ab = merge_top(&[a.snapshot(), b.snapshot()], 4);
        let ba = merge_top(&[b.snapshot(), a.snapshot()], 4);
        assert_eq!(ab, ba);
    }

    #[test]
    fn wait_for_detects_two_session_cycle() {
        // A waits on B at addr 1, B waits on A at addr 2: one cycle.
        let edges = vec![
            WaitEdge { waiter: 1, holder: 2, addr: 100 },
            WaitEdge { waiter: 2, holder: 1, addr: 200 },
        ];
        let wf = wait_for_analysis(&edges);
        assert_eq!(wf.cycles, 1);
        assert!(wf.max_depth >= 2);
    }

    #[test]
    fn wait_for_chain_depth() {
        // 1 -> 2 -> 3 -> 4: a convoy of depth 4, no cycle.
        let edges = vec![
            WaitEdge { waiter: 1, holder: 2, addr: 1 },
            WaitEdge { waiter: 2, holder: 3, addr: 2 },
            WaitEdge { waiter: 3, holder: 4, addr: 3 },
        ];
        let wf = wait_for_analysis(&edges);
        assert_eq!(wf.cycles, 0);
        assert_eq!(wf.max_depth, 4);
    }

    #[test]
    fn wait_for_dedups_and_sorts() {
        let edges = vec![
            WaitEdge { waiter: 5, holder: 1, addr: 9 },
            WaitEdge { waiter: 5, holder: 1, addr: 9 },
            WaitEdge { waiter: 2, holder: 1, addr: 9 },
        ];
        let wf = wait_for_analysis(&edges);
        assert_eq!(wf.edges.len(), 2);
        assert!(wf.edges[0] < wf.edges[1]);
    }

    #[test]
    fn snapshot_merge_and_json_are_deterministic() {
        let mk = |seed: u64| {
            let mut s = ContentionSnapshot::default();
            let mut t = TopK::new(4);
            for i in 0..8 {
                t.offer((seed + i) % 6, i + 1);
            }
            s.wait_top = t.snapshot();
            s.edges.push(WaitEdge { waiter: seed, holder: seed + 1, addr: 7 });
            s.inval_broadcasts = seed;
            s.inval_msgs = seed * 3;
            s.inval_max_fanout = seed;
            s.wait_ns_total = 100 * seed;
            s
        };
        let mut ab = mk(1);
        ab.merge(&mk(2));
        let mut ba = mk(2);
        ba.merge(&mk(1));
        assert_eq!(ab.to_json().render(), ba.to_json().render());
        assert_eq!(ab.inval_max_fanout, 2);
        assert_eq!(ab.wait_ns_total, 300);
    }
}
