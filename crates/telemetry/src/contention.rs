//! Contention profiling: exact hot lists, wait-for edges, coherence
//! fan-out counters, and their deterministic JSON form.
//!
//! The paper's contention argument (§4 Challenges 4–6) is structural:
//! *which* lock word convoys, *which* page soaks the invalidation
//! broadcast, *which* wait-for edge closes into a deadlock-shaped
//! cycle. Aggregate histograms cannot answer those questions, so this
//! module supplies:
//!
//! * [`Tally`] — exact per-key `u64` totals in a per-endpoint hash
//!   table, and [`HotList`] — one column of them, the form snapshots
//!   carry. Every key is kept: the key domains are small and bounded
//!   (lock words and pages of a table, 64 KiB ranges of registered
//!   memory), so nothing is estimated and a merge is plain addition.
//!   A list is ranked, and cut to [`MERGED_TOP_K`], only when rendered.
//! * [`WaitEdge`] snapshots — `(waiter, holder, addr)` triples taken by
//!   the lock layer on failed acquires; [`wait_for_analysis`] folds a
//!   bounded edge log into cycle count and longest-chain depth so
//!   convoys and deadlock shapes show up as two numbers.
//! * [`ContentionSnapshot`] — the mergeable, order-independent sum of
//!   the above plus coherence invalidation fan-out counters, rendered
//!   to insertion-ordered [`Json`] (deterministic byte-for-byte).
//! * [`fold`] — a [`ContentionTally`] plus the [`Contended`] facts it has
//!   not absorbed: how an endpoint's profile comes out of its flight
//!   recorder.

use std::collections::BTreeMap;

use crate::json::Json;

/// How many entries of a hot list a report carries.
pub const MERGED_TOP_K: usize = 16;

/// Exact per-key totals, `N` of them per key: the recorder side of every
/// hot list. A lookup hashes the key once and almost always probes one
/// slot; a new key appends an entry, and the table doubles before it is
/// half full.
#[derive(Debug, Default, Clone)]
pub struct Tally<const N: usize> {
    /// Every key seen and its totals, in first-seen order.
    entries: Vec<(u64, [u64; N])>,
    /// Open-addressed index: an entry plus one per slot, 0 for none; a
    /// power of two at least twice the entries.
    slots: Vec<u32>,
}

impl<const N: usize> Tally<N> {
    /// `key`'s totals, all zero the first time it is seen.
    #[inline]
    pub fn at(&mut self, key: u64) -> &mut [u64; N] {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = bucket(key, mask);
        loop {
            match self.slots[i] {
                0 => {
                    self.entries.push((key, [0; N]));
                    self.slots[i] = self.entries.len() as u32;
                    return &mut self.entries.last_mut().expect("just pushed").1;
                }
                e if self.entries[e as usize - 1].0 == key => return &mut self.entries[e as usize - 1].1,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Total `c` of every key, as a hot list.
    pub fn hot_list(&self, c: usize) -> HotList {
        let mut list = HotList::default();
        for (key, totals) in &self.entries {
            list.add(*key, totals[c]);
        }
        list
    }

    /// Double the slots and re-index every entry.
    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        for (e, (key, _)) in self.entries.iter().enumerate() {
            let mut i = bucket(*key, len - 1);
            while self.slots[i] != 0 {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = e as u32 + 1;
        }
    }
}

/// `key`'s home slot in a table of `mask + 1` slots.
#[inline]
fn bucket(key: u64, mask: usize) -> usize {
    // Fibonacci hashing: heat keys differ only in their lowest (range)
    // and highest (node) bits; the multiply spreads both over the upper
    // half.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// One entry of a ranked hot list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopEntry {
    /// The key (lock word address, heat range, session tag).
    pub key: u64,
    /// Its exact total weight.
    pub count: u64,
}

/// Exact totals of one weight per key. A merge adds, so a fold over
/// many lists gives the same list in every order; the ranking is
/// computed when the list is read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotList(BTreeMap<u64, u64>);

impl HotList {
    /// Add `count` to `key`'s total (a zero count adds no key).
    pub fn add(&mut self, key: u64, count: u64) {
        if count > 0 {
            *self.0.entry(key).or_default() += count;
        }
    }

    /// Add every total of `other`.
    pub fn merge(&mut self, other: &HotList) {
        for (&key, &count) in &other.0 {
            self.add(key, count);
        }
    }

    /// No key has a total.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every key, heaviest first (count desc, key asc).
    pub fn ranked(&self) -> Vec<TopEntry> {
        let mut v: Vec<TopEntry> = self.0.iter().map(|(&key, &count)| TopEntry { key, count }).collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        v
    }

    /// The first [`MERGED_TOP_K`] ranked entries, each rendered by
    /// `entry`.
    pub(crate) fn to_json(&self, entry: impl Fn(&TopEntry) -> Json) -> Json {
        Json::A(self.ranked().iter().take(MERGED_TOP_K).map(entry).collect())
    }

    /// Parse a rendered list whose entries name their key `key` and
    /// their weight `count` (the heat lists say `key`/`count`, the
    /// session split `session`/`bytes`). Rendering the result again
    /// reproduces the input only if it was ranked, cut and free of
    /// duplicate keys and zero weights.
    pub(crate) fn from_json(list: &Json, key: &str, count: &str) -> Option<Self> {
        let mut out = HotList::default();
        for e in list.as_array()? {
            out.add(e.get(key)?.as_u64()?, e.get(count)?.as_u64()?);
        }
        Some(out)
    }
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

/// Wait-for edges one session's log holds; see [`fold`] for which.
pub const EDGE_LOG_CAP: usize = 256;

/// One contention fact of a recorded event: everything [`fold`] reads.
/// Addresses are packed global addresses of lock words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contended {
    /// `ns` of lock waiting on `addr`.
    Wait { addr: u64, ns: u64 },
    /// A CAS on `addr` that lost its race.
    CasRetry { addr: u64 },
    /// A wait-for edge the lock layer observed.
    Edge(WaitEdge),
    /// One coherence broadcast fanning out to this many sharers.
    Fanout(u64),
}

/// The accumulator [`fold`] fills: exact lock-wait ns and CAS retries per
/// word, plus the edge log and counters as the snapshot carries them.
#[derive(Debug, Clone, Default)]
pub struct ContentionTally {
    /// Per lock word: lock-wait ns, CAS retries.
    words: Tally<2>,
    /// Everything but the two hot lists.
    rest: ContentionSnapshot,
}

impl ContentionTally {
    /// Absorb one fact (the edge-log rule is [`fold`]'s).
    #[inline]
    pub fn add(&mut self, fact: Contended) {
        let r = &mut self.rest;
        match fact {
            Contended::Wait { addr, ns } => {
                self.words.at(addr)[0] += ns;
                r.wait_ns_total += ns;
            }
            Contended::CasRetry { addr } => self.words.at(addr)[1] += 1,
            Contended::Edge(e) if r.edges.len() < EDGE_LOG_CAP => r.edges.push(e),
            Contended::Edge(e) if !r.edges.contains(&e) => r.edges_dropped += 1,
            Contended::Edge(_) => {}
            Contended::Fanout(n) => {
                r.inval_broadcasts += 1;
                r.inval_msgs += n;
                r.inval_max_fanout = r.inval_max_fanout.max(n);
            }
        }
    }
}

/// The snapshot of `acc` plus `facts`, absorbed after it in order; `acc`
/// itself is left as it is.
///
/// Only the edge log depends on the order (every other total is a sum or
/// a max). It keeps the first [`EDGE_LOG_CAP`] edges, duplicates
/// included; past that, an edge it holds is dropped unnoticed and any
/// other is dropped and counted in [`ContentionSnapshot::edges_dropped`].
/// So 256 copies of one edge leave no room for a second, distinct one.
pub fn fold(acc: &ContentionTally, facts: impl IntoIterator<Item = Contended>) -> ContentionSnapshot {
    let mut acc = acc.clone();
    for fact in facts {
        acc.add(fact);
    }
    ContentionSnapshot { wait_top: acc.words.hot_list(0), cas_top: acc.words.hot_list(1), ..acc.rest }
}

/// A mergeable, serialisable summary of one endpoint's (or a whole
/// run's) contention observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentionSnapshot {
    /// Lock words (packed addresses) by accumulated lock-wait virtual
    /// nanoseconds.
    pub wait_top: HotList,
    /// Lock words by CAS retries (failed compare-and-swaps).
    pub cas_top: HotList,
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

impl ContentionSnapshot {
    /// Fold another snapshot in. Order-independent.
    pub fn merge(&mut self, other: &ContentionSnapshot) {
        self.wait_top.merge(&other.wait_top);
        self.cas_top.merge(&other.cas_top);
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
            wait_top: HotList::from_json(v.get("top_wait_ns")?, "key", "count")?,
            cas_top: HotList::from_json(v.get("top_cas_retries")?, "key", "count")?,
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
        let top = |e: &TopEntry| Json::obj(vec![("key", Json::U(e.key)), ("count", Json::U(e.count))]);
        let wf = self.wait_for();
        Json::obj(vec![
            ("top_wait_ns", self.wait_top.to_json(top)),
            ("top_cas_retries", self.cas_top.to_json(top)),
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
    fn tally_counts_every_key_exactly_across_growth() {
        // Far more keys than the first table holds, in both key shapes
        // (low range bits, high node bits), key 0 included.
        let mut t = Tally::<2>::default();
        let mut truth: BTreeMap<u64, [u64; 2]> = BTreeMap::new();
        for i in 0..5_000u64 {
            let key = if i % 4 == 3 { (i % 97) << 48 } else { i % 211 };
            let totals = t.at(key);
            totals[0] += i % 3;
            totals[1] += 1;
            let want = truth.entry(key).or_default();
            want[0] += i % 3;
            want[1] += 1;
        }
        for c in 0..2 {
            let mut want = HotList::default();
            for (&key, totals) in &truth {
                want.add(key, totals[c]);
            }
            assert_eq!(t.hot_list(c), want, "total {c}");
        }
        let mut t = Tally::<2>::default();
        assert!(t.hot_list(1).is_empty());
        *t.at(7) = [0, 2];
        assert_eq!(t.hot_list(1).ranked(), [TopEntry { key: 7, count: 2 }]);
        assert!(t.hot_list(0).is_empty(), "a zero total adds no key");
    }

    #[test]
    fn a_tally_counts_every_fact_and_a_fold_leaves_it_as_it_is() {
        let mut t = ContentionTally::default();
        t.add(Contended::Wait { addr: 7, ns: 100 });
        t.add(Contended::Wait { addr: 7, ns: 50 });
        t.add(Contended::CasRetry { addr: 7 });
        t.add(Contended::Edge(WaitEdge { waiter: 1, holder: 2, addr: 7 }));
        t.add(Contended::Fanout(3));
        let s = fold(&t, [Contended::Fanout(5)]);
        assert_eq!(s.wait_top.ranked(), [TopEntry { key: 7, count: 150 }]);
        assert_eq!(s.cas_top.ranked(), [TopEntry { key: 7, count: 1 }]);
        assert_eq!(s.edges.len(), 1);
        assert_eq!((s.inval_broadcasts, s.inval_msgs, s.inval_max_fanout), (2, 8, 5));
        assert_eq!(s.wait_ns_total, 150);
        // The fold read a copy: the tally holds only what it absorbed.
        assert_eq!(fold(&t, []).inval_broadcasts, 1);
    }

    #[test]
    fn a_full_edge_log_drops_new_edges_and_duplicates_fill_it() {
        let edge = |waiter| Contended::Edge(WaitEdge { waiter, holder: 9, addr: 64 });
        // 256 copies of one edge fill the log; the one new edge after
        // them is dropped and counted, a further copy is dropped unnoticed.
        let s = fold(&ContentionTally::default(), std::iter::repeat_n(edge(1), EDGE_LOG_CAP).chain([edge(2), edge(1)]));
        assert_eq!(s.edges_dropped, 1);
        assert_eq!(s.edges.len(), EDGE_LOG_CAP);
        assert!(s.edges.iter().all(|e| e.waiter == 1), "the new edge is not kept");
        // Distinct edges past the cap are each counted.
        let s = fold(&ContentionTally::default(), (0..EDGE_LOG_CAP as u64 + 10).map(edge));
        assert_eq!((s.edges.len(), s.edges_dropped), (EDGE_LOG_CAP, 10));
    }

    #[test]
    fn merge_is_order_independent() {
        let (mut a, mut b) = (HotList::default(), HotList::default());
        for i in 0..10u64 {
            a.add(i % 5, i);
            b.add(i % 3, 1);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.ranked()[0], TopEntry { key: 4, count: 13 });
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
            for i in 0..8 {
                s.wait_top.add((seed + i) % 6, i + 1);
            }
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
