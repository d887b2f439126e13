//! Fabric utilization & placement accounting — who consumes the
//! disaggregated memory pool.
//!
//! Every observability layer so far (histograms, phase spans, windowed
//! series, forensics) answers *latency* questions. The paper's
//! pooling argument is a *capacity and placement* claim: disaggregation
//! wins because memory utilization rises when DRAM is pooled, and
//! because skewed key ranges can be re-placed onto cold nodes. This
//! module supplies the sensors that claim needs:
//!
//! * **Per-memory-node accounting** — ingress/egress bytes, verbs, and
//!   remote nanoseconds per fixed-width virtual-time window (one
//!   track per node, in the series' window geometry), plus a
//!   per-window queue-delay high-water mark (atomic-unit queueing observed at that node).
//!   Occupancy (allocated vs capacity bytes) is stamped onto the
//!   snapshot by the harness that owns the allocators.
//! * **Per-key-range heat** — exact totals per 64 KiB page range of
//!   remote bytes, verbs and remote ns ([`heat_key`] packs
//!   `(node, offset >> 16)` into one key), plus remote bytes per session
//!   and a fixed by-phase table, so heat splits by *who* (session) and
//!   *when* (txn phase).
//!
//! Nothing records online. Every fact above is a fact about one verb,
//! and the flight-recorder ring already holds every verb: [`fold`] turns
//! each session's node-addressed verbs ([`VerbLoad`]) into one
//! [`UtilSnapshot`], after the run. It is a sum over the verbs (a max for
//! the high-water mark), so the snapshot does not depend on the order of
//! the sessions or of their verbs, and capture costs no virtual time.

use crate::contention::{HotList, TopEntry};
use crate::json::Json;
use crate::span::{bucket_name, OTHER_BUCKET};
use crate::window;

/// Page-range granularity of the heat lists: offsets are bucketed
/// into `1 << HEAT_RANGE_SHIFT`-byte ranges (64 KiB).
pub const HEAT_RANGE_SHIFT: u64 = 16;

/// Bytes covered by one heat range.
pub const HEAT_RANGE_BYTES: u64 = 1 << HEAT_RANGE_SHIFT;

/// Phase buckets tracked by the by-phase table (named phases + other).
pub const UTIL_PHASES: usize = OTHER_BUCKET + 1;

/// Pack `(node, offset)` into a heat-range key: the node id in the top
/// 16 bits, the 64 KiB-aligned range index below. Offsets stay exact up
/// to 2^48 bytes per node — far beyond any simulated region.
#[inline]
pub fn heat_key(node: u64, offset: u64) -> u64 {
    (node << 48) | (offset >> HEAT_RANGE_SHIFT)
}

/// The memory node a heat-range key lives on.
#[inline]
pub fn heat_key_node(key: u64) -> u64 {
    key >> 48
}

/// First byte offset of the 64 KiB range a heat key names.
#[inline]
pub fn heat_key_base_offset(key: u64) -> u64 {
    (key & ((1 << 48) - 1)) << HEAT_RANGE_SHIFT
}

/// One node-addressed verb, everything [`fold`] reads of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbLoad {
    /// Virtual time the verb completed.
    pub end_ns: u64,
    /// Target memory node.
    pub node: u64,
    /// Byte offset on `node`.
    pub offset: u64,
    /// The payload went to the node (WRITE/CAS/FAA), not from it (READ).
    pub ingress: bool,
    /// Payload bytes.
    pub bytes: u64,
    /// Virtual latency charged to the verb.
    pub remote_ns: u64,
    /// The part of `remote_ns` spent at the node's atomic unit.
    pub queue_ns: u64,
    /// Innermost phase bucket when the verb completed.
    pub phase: usize,
}

/// One window of per-node fabric load. All fields are sums over the
/// window except `queue_hwm_ns`, which is the worst atomic-unit queue
/// delay observed in the window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UtilWindow {
    /// Bytes written *to* the node (WRITE/CAS/FAA payloads).
    pub ingress_bytes: u64,
    /// Bytes read *from* the node (READ payloads).
    pub egress_bytes: u64,
    /// Verbs addressed to the node.
    pub verbs: u64,
    /// Virtual ns of verb latency charged against the node.
    pub remote_ns: u64,
    /// Worst atomic-unit queue delay seen this window, virtual ns.
    pub queue_hwm_ns: u64,
}

impl UtilWindow {
    /// Sums add; the high-water mark maxes, which is exact for maxima.
    fn absorb(&mut self, other: &UtilWindow) {
        self.ingress_bytes += other.ingress_bytes;
        self.egress_bytes += other.egress_bytes;
        self.verbs += other.verbs;
        self.remote_ns += other.remote_ns;
        self.queue_hwm_ns = self.queue_hwm_ns.max(other.queue_hwm_ns);
    }
}

/// Per-phase fabric load (sums).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseLoad {
    /// Remote bytes moved while the phase was innermost.
    pub bytes: u64,
    /// Verbs issued while the phase was innermost.
    pub verbs: u64,
    /// Virtual ns of verb latency while the phase was innermost.
    pub remote_ns: u64,
}

impl PhaseLoad {
    fn absorb(&mut self, other: &PhaseLoad) {
        self.bytes += other.bytes;
        self.verbs += other.verbs;
        self.remote_ns += other.remote_ns;
    }

    fn is_zero(&self) -> bool {
        *self == PhaseLoad::default()
    }
}

/// Fold every session's verbs into one snapshot. `sessions` pairs a
/// session tag (0 = untagged, left out of the by-session split) with the
/// verbs it issued; neither the sessions nor their verbs need be in any
/// order. The window width is picked once: `base_window_ns` doubled
/// until the last completion falls inside [`crate::MAX_WINDOWS`] windows,
/// the width a recorder that started at the base would have doubled to.
/// Every node track spans that last window. A base of 0 turns the plane
/// off, and folding no verbs gives the empty snapshot.
pub fn fold(base_window_ns: u64, sessions: &[(u64, Vec<VerbLoad>)]) -> UtilSnapshot {
    let last = sessions.iter().flat_map(|(_, loads)| loads).map(|l| l.end_ns).max();
    let Some(last) = last.filter(|_| base_window_ns > 0) else {
        return UtilSnapshot::default();
    };
    let window_ns = window::width_covering(base_window_ns, last);
    let len = (last / window_ns) as usize + 1;
    let mut out = UtilSnapshot { window_ns, ..UtilSnapshot::default() };
    let mut by_phase = [PhaseLoad::default(); UTIL_PHASES];
    for (tag, loads) in sessions {
        if *tag != 0 {
            out.by_session.add(*tag, loads.iter().map(|l| l.bytes).sum());
        }
        for l in loads {
            let at = match out.nodes.binary_search_by_key(&l.node, |n| n.node) {
                Ok(at) => at,
                Err(at) => {
                    let windows = vec![UtilWindow::default(); len];
                    out.nodes.insert(at, NodeUtil { node: l.node, windows, ..NodeUtil::default() });
                    at
                }
            };
            let (to, from) = if l.ingress { (l.bytes, 0) } else { (0, l.bytes) };
            out.nodes[at].windows[(l.end_ns / window_ns) as usize].absorb(&UtilWindow {
                ingress_bytes: to,
                egress_bytes: from,
                verbs: 1,
                remote_ns: l.remote_ns,
                queue_hwm_ns: l.queue_ns,
            });
            let range = heat_key(l.node, l.offset);
            out.heat_bytes.add(range, l.bytes);
            out.heat_verbs.add(range, 1);
            out.heat_ns.add(range, l.remote_ns);
            by_phase[l.phase.min(OTHER_BUCKET)].absorb(&PhaseLoad { bytes: l.bytes, verbs: 1, remote_ns: l.remote_ns });
        }
    }
    out.by_phase = trim_phases(by_phase.to_vec());
    out
}

/// Canonical phase-vector form: drop the all-zero suffix, so snapshots
/// built by [`fold`], by `default()`, and by the JSON parse side
/// compare equal whenever they describe the same loads.
fn trim_phases(mut v: Vec<PhaseLoad>) -> Vec<PhaseLoad> {
    while v.last().is_some_and(|p| p.is_zero()) {
        v.pop();
    }
    v
}

/// One memory node's utilization track.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeUtil {
    /// Fabric node id.
    pub node: u64,
    /// DRAM capacity, bytes (0 until stamped by the harness that owns
    /// the allocator — occupancy is allocator state, not fabric state).
    pub capacity_bytes: u64,
    /// Bytes currently allocated (same stamping rule).
    pub allocated_bytes: u64,
    /// Per-window load; window `i` covers `[i*w, (i+1)*w)`.
    pub windows: Vec<UtilWindow>,
}

impl NodeUtil {
    /// Whole-run totals (high-water mark maxes across windows).
    pub fn totals(&self) -> UtilWindow {
        let mut t = UtilWindow::default();
        for w in &self.windows {
            t.absorb(w);
        }
        t
    }

    /// Total remote bytes (ingress + egress) across the run.
    pub fn total_bytes(&self) -> u64 {
        let t = self.totals();
        t.ingress_bytes + t.egress_bytes
    }
}

/// The utilization product: per-node windowed load, heat lists, and the
/// session/phase splits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilSnapshot {
    /// Window width, virtual ns (0 only for the empty snapshot).
    pub window_ns: u64,
    /// Per-node tracks, sorted by node id, padded to a common length.
    pub nodes: Vec<NodeUtil>,
    /// Remote bytes per page range.
    pub heat_bytes: HotList,
    /// Verbs per page range.
    pub heat_verbs: HotList,
    /// Remote ns per page range.
    pub heat_ns: HotList,
    /// Remote bytes per session (key = session tag).
    pub by_session: HotList,
    /// Fabric load per phase bucket ([`UTIL_PHASES`] entries).
    pub by_phase: Vec<PhaseLoad>,
}

impl UtilSnapshot {
    /// Nothing recorded and nothing stamped.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
            && self.heat_bytes.is_empty()
            && self.by_session.is_empty()
            && self.by_phase.iter().all(|p| p.is_zero())
    }

    /// Number of windows (common across node tracks).
    pub fn len(&self) -> usize {
        self.nodes.first().map(|n| n.windows.len()).unwrap_or(0)
    }

    /// Stamp occupancy onto `node`'s track (creating an idle track if
    /// the node saw no traffic — a cold node is exactly the signal the
    /// placement advisor needs to see). Call after folding, with
    /// allocator stats read by whoever owns the memory nodes.
    pub fn stamp_occupancy(&mut self, node: u64, capacity_bytes: u64, allocated_bytes: u64) {
        let len = self.len();
        if let Some(n) = self.nodes.iter_mut().find(|n| n.node == node) {
            n.capacity_bytes = capacity_bytes;
            n.allocated_bytes = allocated_bytes;
        } else {
            self.nodes.push(NodeUtil {
                node,
                capacity_bytes,
                allocated_bytes,
                windows: vec![UtilWindow::default(); len],
            });
            self.nodes.sort_by_key(|n| n.node);
        }
    }

    /// Per-node total remote bytes, sorted by node id — the load vector
    /// the imbalance indices and the placement advisor run on.
    pub fn node_bytes(&self) -> Vec<(u64, u64)> {
        self.nodes.iter().map(|n| (n.node, n.total_bytes())).collect()
    }

    /// Per-node total verbs, sorted by node id.
    pub fn node_verbs(&self) -> Vec<(u64, u64)> {
        self.nodes.iter().map(|n| (n.node, n.totals().verbs)).collect()
    }

    /// What a `utilization` section that re-renders to itself can
    /// still get wrong: an occupancy stamp above its capacity.
    pub fn violations(&self) -> Vec<String> {
        if self.window_ns == 0 && !self.is_empty() {
            return vec!["windows recorded with window_ns = 0".into()];
        }
        let mut out = Vec::new();
        for n in &self.nodes {
            if n.capacity_bytes > 0 && n.allocated_bytes > n.capacity_bytes {
                out.push(format!(
                    "node {}: allocated {} exceeds capacity {}",
                    n.node, n.allocated_bytes, n.capacity_bytes
                ));
            }
        }
        out
    }
}

fn heat_list_json(list: &HotList) -> Json {
    list.to_json(|e: &TopEntry| {
        Json::obj(vec![
            ("key", Json::U(e.key)),
            ("node", Json::U(heat_key_node(e.key))),
            ("base_offset", Json::U(heat_key_base_offset(e.key))),
            ("count", Json::U(e.count)),
        ])
    })
}

/// Utilization snapshot → the report `utilization` section. Per-node
/// window arrays plus totals, the three heat lists, the session/phase
/// splits, and the computed imbalance indices (Gini and max/mean over
/// node bytes and verbs). Totals and indices are derived: a section is
/// valid only if parsing it back and rendering again reproduces them.
/// Deterministic: identical snapshots render byte-identically.
pub fn utilization_json(u: &UtilSnapshot) -> Json {
    let nodes = Json::A(
        u.nodes
            .iter()
            .map(|n| {
                let t = n.totals();
                let track = |of: fn(&UtilWindow) -> u64| {
                    Json::A(n.windows.iter().map(|w| Json::U(of(w))).collect())
                };
                Json::obj(vec![
                    ("node", Json::U(n.node)),
                    ("capacity_bytes", Json::U(n.capacity_bytes)),
                    ("allocated_bytes", Json::U(n.allocated_bytes)),
                    ("ingress_bytes", track(|w| w.ingress_bytes)),
                    ("egress_bytes", track(|w| w.egress_bytes)),
                    ("verbs", track(|w| w.verbs)),
                    ("remote_ns", track(|w| w.remote_ns)),
                    ("queue_hwm_ns", track(|w| w.queue_hwm_ns)),
                    (
                        "totals",
                        Json::obj(vec![
                            ("bytes", Json::U(t.ingress_bytes + t.egress_bytes)),
                            ("verbs", Json::U(t.verbs)),
                            ("remote_ns", Json::U(t.remote_ns)),
                        ]),
                    ),
                ])
            })
            .collect(),
    );
    let phases = Json::O(
        u.by_phase
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_zero())
            .map(|(i, p)| {
                (
                    bucket_name(i).to_string(),
                    Json::obj(vec![
                        ("bytes", Json::U(p.bytes)),
                        ("verbs", Json::U(p.verbs)),
                        ("remote_ns", Json::U(p.remote_ns)),
                    ]),
                )
            })
            .collect(),
    );
    let byte_loads: Vec<u64> = u.node_bytes().iter().map(|(_, b)| *b).collect();
    let verb_loads: Vec<u64> = u.node_verbs().iter().map(|(_, v)| *v).collect();
    Json::obj(vec![
        ("window_ns", Json::U(u.window_ns)),
        ("windows", Json::U(u.len() as u64)),
        ("nodes", nodes),
        (
            "heat",
            Json::obj(vec![
                ("by_bytes", heat_list_json(&u.heat_bytes)),
                ("by_verbs", heat_list_json(&u.heat_verbs)),
                ("by_remote_ns", heat_list_json(&u.heat_ns)),
            ]),
        ),
        (
            "by_session",
            u.by_session.to_json(|e| Json::obj(vec![("session", Json::U(e.key)), ("bytes", Json::U(e.count))])),
        ),
        ("by_phase", phases),
        (
            "imbalance",
            Json::obj(vec![
                ("gini_bytes", Json::F(crate::analysis::gini(&byte_loads))),
                ("gini_verbs", Json::F(crate::analysis::gini(&verb_loads))),
                (
                    "max_mean_bytes",
                    Json::F(crate::analysis::max_mean_ratio(&byte_loads)),
                ),
            ]),
        ),
    ])
}

/// Rebuild a [`UtilSnapshot`] from a parsed `utilization` section — the
/// read side of [`utilization_json`], used by validators. Derived
/// members (`totals`, `imbalance`) are ignored on the way in; rendering
/// the result again recomputes them.
pub fn utilization_from_json(section: &Json) -> Option<UtilSnapshot> {
    let window_ns = section.get("window_ns")?.as_u64()?;
    let n_windows = section.get("windows")?.as_u64()? as usize;
    let mut nodes = Vec::new();
    for nj in section.get("nodes")?.as_array()? {
        let arr = |name: &str| -> Option<Vec<u64>> {
            let items = nj.get(name)?.as_array()?;
            if items.len() != n_windows {
                return None;
            }
            items.iter().map(|v| v.as_u64()).collect()
        };
        let ingress = arr("ingress_bytes")?;
        let egress = arr("egress_bytes")?;
        let verbs = arr("verbs")?;
        let remote = arr("remote_ns")?;
        let hwm = arr("queue_hwm_ns")?;
        let windows = (0..n_windows)
            .map(|i| UtilWindow {
                ingress_bytes: ingress[i],
                egress_bytes: egress[i],
                verbs: verbs[i],
                remote_ns: remote[i],
                queue_hwm_ns: hwm[i],
            })
            .collect();
        nodes.push(NodeUtil {
            node: nj.get("node")?.as_u64()?,
            capacity_bytes: nj.get("capacity_bytes")?.as_u64()?,
            allocated_bytes: nj.get("allocated_bytes")?.as_u64()?,
            windows,
        });
    }
    let heat = section.get("heat")?;
    let heat_list = |name: &str| HotList::from_json(heat.get(name)?, "key", "count");
    let mut by_phase = vec![PhaseLoad::default(); UTIL_PHASES];
    if let Some(Json::O(members)) = section.get("by_phase") {
        for (name, p) in members {
            let idx = (0..UTIL_PHASES).find(|&i| bucket_name(i) == name)?;
            by_phase[idx] = PhaseLoad {
                bytes: p.get("bytes")?.as_u64()?,
                verbs: p.get("verbs")?.as_u64()?,
                remote_ns: p.get("remote_ns")?.as_u64()?,
            };
        }
    }
    Some(UtilSnapshot {
        window_ns,
        nodes,
        heat_bytes: heat_list("by_bytes")?,
        heat_verbs: heat_list("by_verbs")?,
        heat_ns: heat_list("by_remote_ns")?,
        by_session: HotList::from_json(section.get("by_session")?, "session", "bytes")?,
        by_phase: trim_phases(by_phase),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::MAX_WINDOWS;

    /// A verb completing at `end_ns`: `bytes` to (`ingress`) or from
    /// `node` at `offset`, costing `remote_ns` of which `queue_ns`
    /// queued, in phase bucket `phase`.
    #[allow(clippy::too_many_arguments)]
    fn verb(
        end_ns: u64,
        node: u64,
        offset: u64,
        ingress: bool,
        bytes: u64,
        remote_ns: u64,
        queue_ns: u64,
        phase: usize,
    ) -> VerbLoad {
        VerbLoad { end_ns, node, offset, ingress, bytes, remote_ns, queue_ns, phase }
    }

    #[test]
    fn windows_split_ingress_egress_and_track_hwm() {
        let s = fold(
            100,
            &[(
                0,
                vec![
                    verb(10, 1, 0, true, 64, 500, 0, 2),
                    verb(20, 1, 8, false, 32, 400, 90, 2),
                    verb(150, 1, 1 << 20, false, 8, 100, 40, 1),
                    verb(150, 2, 0, true, 16, 200, 0, 0),
                ],
            )],
        );
        assert_eq!(s.window_ns, 100);
        assert_eq!(s.len(), 2);
        assert_eq!(s.nodes.len(), 2);
        let n1 = &s.nodes[0];
        assert_eq!(n1.node, 1);
        assert_eq!(n1.windows[0].ingress_bytes, 64);
        assert_eq!(n1.windows[0].egress_bytes, 32);
        assert_eq!(n1.windows[0].verbs, 2);
        assert_eq!(n1.windows[0].remote_ns, 900);
        assert_eq!(n1.windows[0].queue_hwm_ns, 90);
        assert_eq!(n1.windows[1].egress_bytes, 8);
        // Node 2's track spans the same windows; its only verb (t=150)
        // lands in window 1.
        assert_eq!(s.nodes[1].windows.len(), 2);
        assert_eq!(s.nodes[1].windows[0], UtilWindow::default());
        assert_eq!(s.nodes[1].windows[1].ingress_bytes, 16);
        // Heat: node 1 offsets 0 and 8 share a 64 KiB range; 1<<20 is
        // a different range.
        let hot = s.heat_bytes.ranked();
        assert_eq!(hot[0], TopEntry { key: heat_key(1, 0), count: 96 });
        assert!(hot.iter().any(|e| e.key == heat_key(1, 1 << 20)));
        // Phase split: bucket 2 carried 96 bytes over 2 verbs.
        assert_eq!(s.by_phase[2].bytes, 96);
        assert_eq!(s.by_phase[2].verbs, 2);
        assert_eq!(s.by_phase[1].bytes, 8);
        assert_eq!(s.by_phase[0].bytes, 16);
    }

    #[test]
    fn session_tag_feeds_the_by_session_sketch() {
        let sessions = [
            (0, vec![verb(10, 0, 0, true, 100, 10, 0, 0)]), // untagged: skipped
            (7, vec![verb(20, 0, 0, true, 64, 10, 0, 0), verb(30, 0, 0, false, 36, 10, 0, 0)]),
            (9, vec![verb(40, 0, 0, true, 10, 10, 0, 0)]),
            (7, vec![verb(50, 0, 0, true, 1, 10, 0, 0)]),
        ];
        let want = [TopEntry { key: 7, count: 101 }, TopEntry { key: 9, count: 10 }];
        assert_eq!(fold(100, &sessions).by_session.ranked(), want);
        // The sessions' order does not matter.
        let mut reversed = sessions.to_vec();
        reversed.reverse();
        assert_eq!(fold(100, &reversed), fold(100, &sessions));
    }

    #[test]
    fn a_run_past_max_windows_folds_at_the_doubled_width() {
        // Node 1 is only touched early; node 0's traffic runs to twice
        // the window cap, so the base width doubles once.
        let mut loads = vec![verb(15, 1, 0, false, 3, 1, 70, 0)];
        for i in 0..(MAX_WINDOWS as u64 * 2) {
            loads.push(verb(i * 10, 0, i * 8, true, 8, 5, (i % 7) * 10, 0));
        }
        let s = fold(10, &[(0, loads)]);
        assert_eq!(s.window_ns, 20);
        assert_eq!(s.len(), MAX_WINDOWS);
        assert!(s.nodes.iter().all(|n| n.windows.len() == MAX_WINDOWS));
        let t = s.nodes[0].totals();
        assert_eq!(t.ingress_bytes, MAX_WINDOWS as u64 * 2 * 8);
        assert_eq!(t.verbs, MAX_WINDOWS as u64 * 2);
        assert_eq!(t.queue_hwm_ns, 60);
        // Node 1's t=15 verb sits in window 0 of the doubled width.
        assert_eq!(s.nodes[1].windows[0].egress_bytes, 3);
        assert_eq!(s.nodes[1].totals().queue_hwm_ns, 70);
    }

    #[test]
    fn stamp_occupancy_creates_idle_tracks_for_cold_nodes() {
        let mut s = fold(100, &[(0, vec![verb(10, 0, 0, true, 8, 2, 0, 0)])]);
        s.stamp_occupancy(0, 1 << 20, 4096);
        s.stamp_occupancy(5, 1 << 20, 0); // never saw traffic
        assert_eq!(s.nodes.len(), 2);
        assert_eq!(s.nodes[0].capacity_bytes, 1 << 20);
        assert_eq!(s.nodes[0].allocated_bytes, 4096);
        let cold = &s.nodes[1];
        assert_eq!(cold.node, 5);
        assert_eq!(cold.total_bytes(), 0);
        assert_eq!(cold.windows.len(), s.nodes[0].windows.len());
        assert_eq!(s.node_bytes(), vec![(0, 8), (5, 0)]);
    }

    #[test]
    fn heat_key_round_trips() {
        let k = heat_key(42, 0x12_3456_789A);
        assert_eq!(heat_key_node(k), 42);
        assert_eq!(heat_key_base_offset(k), 0x12_3456_789A & !(HEAT_RANGE_BYTES - 1));
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let mut s = fold(
            100,
            &[(3, vec![verb(10, 0, 0, true, 64, 500, 25, 2), verb(150, 1, 1 << 17, false, 32, 300, 0, 4)])],
        );
        s.stamp_occupancy(0, 1 << 20, 2048);
        s.stamp_occupancy(1, 1 << 20, 1024);
        let j = utilization_json(&s);
        let text = j.render_pretty(2);
        let parsed = Json::parse(&text).unwrap();
        let back = utilization_from_json(&parsed).expect("parses back");
        assert_eq!(back, s);
        // Re-render is byte-identical (deterministic reports).
        assert_eq!(utilization_json(&back).render_pretty(2), text);
    }

    #[test]
    fn empty_snapshot_renders_wellformed_and_parses_back() {
        // Folding no verbs, or folding with the plane off, is the
        // empty snapshot.
        let s = fold(100, &[(1, Vec::new())]);
        assert_eq!(s, UtilSnapshot::default());
        assert_eq!(fold(0, &[(1, vec![verb(10, 0, 0, true, 8, 2, 0, 0)])]), s);
        let j = utilization_json(&s);
        assert_eq!(j.get("windows").unwrap().as_u64(), Some(0));
        let parsed = Json::parse(&j.render_pretty(2)).unwrap();
        assert_eq!(utilization_from_json(&parsed), Some(s));
    }
}
