//! Fabric utilization & placement accounting — who consumes the
//! disaggregated memory pool.
//!
//! Every observability layer so far (histograms, phase spans, windowed
//! series, gauges, forensics) answers *latency* questions. The paper's
//! pooling argument is a *capacity and placement* claim: disaggregation
//! wins because memory utilization rises when DRAM is pooled, and
//! because skewed key ranges can be re-placed onto cold nodes. This
//! module supplies the sensors that claim needs:
//!
//! * **Per-memory-node accounting** — ingress/egress bytes, verbs, and
//!   remote nanoseconds per fixed-width virtual-time window (one
//!   [`crate::window`] track per node), plus a per-window queue-delay
//!   high-water mark (atomic-unit queueing observed at that node).
//!   Occupancy (allocated vs capacity bytes) is stamped onto the
//!   snapshot by the harness that owns the allocators.
//! * **Per-key-range heat** — one exact [`Tally`] entry per 64 KiB
//!   page range holding its remote bytes, verbs and remote ns
//!   ([`heat_key`] packs `(node, offset >> 16)` into one key), plus
//!   remote bytes per session and a fixed by-phase table, so heat
//!   splits by *who* (session) and *when* (txn phase).
//! * **A mergeable snapshot** — [`UtilSnapshot`] merges across
//!   endpoints like every other telemetry product: associative,
//!   commutative window sums (high-water marks merge by max, which is
//!   exact for maxima), hot lists by addition.
//!
//! Like the series and gauge recorders, [`UtilRecorder`] reads the
//! caller-supplied virtual timestamp but never advances any clock:
//! capture on vs off produces the byte-identical virtual timeline.

use std::cell::{Cell, RefCell};

use crate::contention::{HotList, Tally, TopEntry};
use crate::json::Json;
use crate::span::{bucket_name, OTHER_BUCKET};
use crate::window::{self, Window, Windowed};

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

/// One window of per-node fabric load. All fields are sums over the
/// window except `queue_hwm_ns`, which is the worst atomic-unit queue
/// delay observed in the window (merges by max).
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

impl Window for UtilWindow {
    const ZERO: Self = UtilWindow {
        ingress_bytes: 0,
        egress_bytes: 0,
        verbs: 0,
        remote_ns: 0,
        queue_hwm_ns: 0,
    };

    /// Sums add; the high-water mark maxes, which is exact for maxima.
    fn absorb(&mut self, other: &UtilWindow) {
        self.ingress_bytes += other.ingress_bytes;
        self.egress_bytes += other.egress_bytes;
        self.verbs += other.verbs;
        self.remote_ns += other.remote_ns;
        self.queue_hwm_ns = self.queue_hwm_ns.max(other.queue_hwm_ns);
    }
}

impl UtilWindow {
    /// All-zero window.
    pub fn is_zero(&self) -> bool {
        *self == UtilWindow::default()
    }
}

/// Per-phase fabric load (sums; merges by addition).
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

/// Per-thread utilization collector. Disabled (width 0) until
/// [`UtilRecorder::enable`]; recording while disabled is a no-op, so
/// the fabric can call unconditionally.
#[derive(Debug)]
pub struct UtilRecorder {
    /// Configured window width (0 = off); every node track starts at it.
    width_ns: Cell<u64>,
    /// Session tag the by-session split charges (0 = untagged).
    session_tag: Cell<u64>,
    /// Remote bytes moved under `session_tag` not yet in `by_session`.
    session_bytes: Cell<u64>,
    /// Per-node window tracks, keyed by node id (small linear vec —
    /// clusters have a handful of memory nodes). A track doubles its
    /// width on its own; [`UtilRecorder::snapshot`] aligns them.
    nodes: RefCell<Vec<(u64, Windowed<UtilWindow>)>>,
    /// Per heat range: remote bytes, verbs, remote ns.
    heat: RefCell<Tally<3>>,
    by_session: RefCell<HotList>,
    by_phase: RefCell<[PhaseLoad; UTIL_PHASES]>,
}

impl Default for UtilRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl UtilRecorder {
    /// A recorder that ignores everything until enabled.
    pub fn new() -> Self {
        Self {
            width_ns: Cell::new(0),
            session_tag: Cell::new(0),
            session_bytes: Cell::new(0),
            nodes: RefCell::new(Vec::new()),
            heat: RefCell::new(Tally::default()),
            by_session: RefCell::new(HotList::default()),
            by_phase: RefCell::new([PhaseLoad::default(); UTIL_PHASES]),
        }
    }

    /// Turn capture on with `width_ns`-wide windows (0 turns it off).
    /// Drops any previously recorded state.
    pub fn enable(&self, width_ns: u64) {
        self.width_ns.set(width_ns);
        self.clear();
    }

    /// Whether capture is on.
    pub fn enabled(&self) -> bool {
        self.width_ns.get() != 0
    }

    /// Tag subsequent traffic with a session id for the by-session heat
    /// split (0 = untagged; untagged traffic is skipped there).
    pub fn set_session(&self, tag: u64) {
        let mut by_session = self.by_session.borrow_mut();
        by_session.add(self.session_tag.replace(tag), self.session_bytes.take());
    }

    /// Record one verb's fabric load at virtual time `now_ns`:
    /// `bytes` moved to (`ingress`) or from (`!ingress`) `node` at
    /// byte `offset`, costing `remote_ns` of which `queue_ns` was
    /// atomic-unit queueing, attributed to phase bucket `phase`.
    /// Never advances any clock.
    #[allow(clippy::too_many_arguments)]
    pub fn note(
        &self,
        now_ns: u64,
        node: u64,
        offset: u64,
        ingress: bool,
        bytes: u64,
        remote_ns: u64,
        queue_ns: u64,
        phase: usize,
    ) {
        let width = self.width_ns.get();
        if width == 0 {
            return;
        }
        {
            let mut nodes = self.nodes.borrow_mut();
            let pos = match nodes.iter().position(|(n, _)| *n == node) {
                Some(p) => p,
                None => {
                    nodes.push((node, Windowed::new(width)));
                    nodes.len() - 1
                }
            };
            nodes[pos].1.update(now_ns, |w| {
                if ingress {
                    w.ingress_bytes += bytes;
                } else {
                    w.egress_bytes += bytes;
                }
                w.verbs += 1;
                w.remote_ns += remote_ns;
                w.queue_hwm_ns = w.queue_hwm_ns.max(queue_ns);
            });
        }
        let mut heat = self.heat.borrow_mut();
        let range = heat.at(heat_key(node, offset));
        range[0] += bytes;
        range[1] += 1;
        range[2] += remote_ns;
        if self.session_tag.get() != 0 {
            self.session_bytes.set(self.session_bytes.get() + bytes);
        }
        let mut phases = self.by_phase.borrow_mut();
        let p = &mut phases[phase.min(OTHER_BUCKET)];
        p.bytes += bytes;
        p.verbs += 1;
        p.remote_ns += remote_ns;
    }

    /// Drop all recorded state and restore the configured base width.
    pub fn clear(&self) {
        self.nodes.borrow_mut().clear();
        self.heat.borrow_mut().clear();
        *self.by_session.borrow_mut() = HotList::default();
        *self.by_phase.borrow_mut() = [PhaseLoad::default(); UTIL_PHASES];
        self.session_tag.set(0);
        self.session_bytes.set(0);
    }

    /// Copy out the recorded utilization (empty when disabled). Node
    /// tracks are coarsened to the widest track's width, sorted by node
    /// id and padded to a common window count, so the snapshot is
    /// independent of traffic order.
    pub fn snapshot(&self) -> UtilSnapshot {
        let nodes = self.nodes.borrow();
        let window_ns = nodes.iter().map(|(_, t)| t.width_ns()).max().unwrap_or(0);
        let mut out: Vec<NodeUtil> = nodes
            .iter()
            .map(|(n, t)| {
                let (mut width, mut windows) = (t.width_ns(), t.windows());
                window::coarsen_to(&mut width, &mut windows, window_ns);
                NodeUtil {
                    node: *n,
                    capacity_bytes: 0,
                    allocated_bytes: 0,
                    windows,
                }
            })
            .collect();
        let max_len = out.iter().map(|n| n.windows.len()).max().unwrap_or(0);
        for n in &mut out {
            n.windows.resize(max_len, UtilWindow::ZERO);
        }
        out.sort_by_key(|n| n.node);
        let heat = self.heat.borrow();
        let mut by_session = self.by_session.borrow().clone();
        by_session.add(self.session_tag.get(), self.session_bytes.get());
        UtilSnapshot {
            window_ns,
            nodes: out,
            heat_bytes: heat.hot_list(0),
            heat_verbs: heat.hot_list(1),
            heat_ns: heat.hot_list(2),
            by_session,
            by_phase: trim_phases(self.by_phase.borrow().to_vec()),
        }
    }
}

/// Canonical phase-vector form: drop the all-zero suffix, so snapshots
/// built by the recorder, by `empty()`, and by the JSON parse side
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

/// The mergeable utilization product: per-node windowed load, heat
/// lists, and the session/phase splits.
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
    /// The identity for [`UtilSnapshot::merge`].
    pub fn empty() -> Self {
        Self::default()
    }

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
    /// placement advisor needs to see). Call after merging, with
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

    /// Re-bucket every node track to `new_width` (must be a multiple of
    /// the current width). Sums stay exact; high-water marks take the
    /// max of the folded windows, which is exact for maxima.
    pub fn coarsen_to(&mut self, new_width: u64) {
        for n in &mut self.nodes {
            let mut width = self.window_ns;
            window::coarsen_to(&mut width, &mut n.windows, new_width);
        }
        self.window_ns = new_width.max(self.window_ns);
    }

    /// Fold `other` into `self`. Window widths align to their least
    /// common multiple; per-node windows add (high-water marks max),
    /// hot lists and phase loads add, and occupancy stamps take the max
    /// (stamps are point-in-time allocator readings, not flows).
    /// Associative and commutative, like every other telemetry merge.
    pub fn merge(&mut self, other: &UtilSnapshot) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        let mut o = other.clone();
        if self.nodes.is_empty() || o.nodes.is_empty() {
            // At most one side carries windows; adopt its geometry.
            self.window_ns = self.window_ns.max(o.window_ns);
        } else {
            let target = window::lcm(self.window_ns, o.window_ns);
            self.coarsen_to(target);
            o.coarsen_to(target);
        }
        for on in &o.nodes {
            if let Some(n) = self.nodes.iter_mut().find(|n| n.node == on.node) {
                window::absorb_aligned(&mut n.windows, &on.windows);
                n.capacity_bytes = n.capacity_bytes.max(on.capacity_bytes);
                n.allocated_bytes = n.allocated_bytes.max(on.allocated_bytes);
            } else {
                self.nodes.push(on.clone());
            }
        }
        self.nodes.sort_by_key(|n| n.node);
        let len = self.nodes.iter().map(|n| n.windows.len()).max().unwrap_or(0);
        for n in &mut self.nodes {
            n.windows.resize(len, UtilWindow::default());
        }
        self.heat_bytes.merge(&o.heat_bytes);
        self.heat_verbs.merge(&o.heat_verbs);
        self.heat_ns.merge(&o.heat_ns);
        self.by_session.merge(&o.by_session);
        if self.by_phase.len() < o.by_phase.len() {
            self.by_phase.resize(o.by_phase.len(), PhaseLoad::default());
        }
        for (dst, src) in self.by_phase.iter_mut().zip(o.by_phase.iter()) {
            dst.absorb(src);
        }
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

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = UtilRecorder::new();
        r.note(100, 0, 0, true, 64, 10, 0, 0);
        assert!(!r.enabled());
        assert!(r.snapshot().is_empty());
        // Unlike the counter series, an enabled recorder that saw no
        // node reports width 0: there is no track to be that wide.
        r.enable(100);
        assert_eq!(r.snapshot().window_ns, 0);
    }

    #[test]
    fn windows_split_ingress_egress_and_track_hwm() {
        let r = UtilRecorder::new();
        r.enable(100);
        r.note(10, 1, 0, true, 64, 500, 0, 2);
        r.note(20, 1, 8, false, 32, 400, 90, 2);
        r.note(150, 1, 1 << 20, false, 8, 100, 40, 1);
        r.note(150, 2, 0, true, 16, 200, 0, 0);
        let s = r.snapshot();
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
        // Node 2's track is padded to the common length; its only note
        // (t=150) lands in window 1.
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
        let r = UtilRecorder::new();
        r.enable(100);
        r.note(10, 0, 0, true, 100, 10, 0, 0); // untagged: skipped
        r.set_session(7);
        r.note(20, 0, 0, true, 64, 10, 0, 0);
        r.note(30, 0, 0, false, 36, 10, 0, 0);
        r.set_session(9);
        r.note(40, 0, 0, true, 10, 10, 0, 0);
        r.set_session(7);
        r.note(50, 0, 0, true, 1, 10, 0, 0);
        // A snapshot includes the bytes of the session still tagged, and
        // taking one changes nothing.
        for _ in 0..2 {
            assert_eq!(
                r.snapshot().by_session.ranked(),
                [TopEntry { key: 7, count: 101 }, TopEntry { key: 9, count: 10 }]
            );
        }
    }

    #[test]
    fn node_tracks_that_doubled_apart_align_in_the_snapshot() {
        let r = UtilRecorder::new();
        r.enable(10);
        // Node 1 is only touched early; node 0's traffic outgrows the
        // window cap and doubles its own track.
        r.note(15, 1, 0, false, 3, 1, 70, 0);
        for i in 0..(MAX_WINDOWS as u64 * 2) {
            r.note(i * 10, 0, i * 8, true, 8, 5, (i % 7) * 10, 0);
        }
        let s = r.snapshot();
        assert_eq!(s.window_ns, 20);
        assert_eq!(s.len(), MAX_WINDOWS);
        assert!(s.nodes.iter().all(|n| n.windows.len() == MAX_WINDOWS));
        let t = s.nodes[0].totals();
        assert_eq!(t.ingress_bytes, MAX_WINDOWS as u64 * 2 * 8);
        assert_eq!(t.verbs, MAX_WINDOWS as u64 * 2);
        assert_eq!(t.queue_hwm_ns, 60);
        // Node 1's t=15 sample sits in window 0 of the aligned width.
        assert_eq!(s.nodes[1].windows[0].egress_bytes, 3);
        assert_eq!(s.nodes[1].totals().queue_hwm_ns, 70);
    }

    #[test]
    fn merge_aligns_widths_and_is_commutative() {
        let a = UtilRecorder::new();
        a.enable(100);
        a.note(50, 0, 0, true, 10, 5, 30, 0);
        a.note(250, 1, 0, false, 20, 5, 0, 1);
        let b = UtilRecorder::new();
        b.enable(300);
        b.note(10, 0, 0, false, 7, 3, 50, 2);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.window_ns, 300);
        let n0 = &ab.nodes[0];
        assert_eq!(n0.windows[0].ingress_bytes, 10);
        assert_eq!(n0.windows[0].egress_bytes, 7);
        assert_eq!(n0.windows[0].queue_hwm_ns, 50);
        assert_eq!(ab.nodes[1].windows[0].egress_bytes, 20);
    }

    #[test]
    fn merge_identity_and_empty() {
        let r = UtilRecorder::new();
        r.enable(100);
        r.note(10, 3, 0, true, 8, 2, 0, 0);
        let s = r.snapshot();
        let mut m = UtilSnapshot::empty();
        m.merge(&s);
        assert_eq!(m, s);
        let mut m2 = s.clone();
        m2.merge(&UtilSnapshot::empty());
        assert_eq!(m2, s);
        // A side with loads but no node track (nothing to align) takes
        // the other side's geometry as is.
        let trackless = UtilSnapshot {
            by_phase: vec![PhaseLoad { bytes: 1, verbs: 1, remote_ns: 1 }],
            ..UtilSnapshot::empty()
        };
        let mut m3 = trackless.clone();
        m3.merge(&s);
        assert_eq!((m3.window_ns, &m3.nodes), (100, &s.nodes));
        let mut m4 = s.clone();
        m4.merge(&trackless);
        assert_eq!(m4, m3);
    }

    #[test]
    fn stamp_occupancy_creates_idle_tracks_for_cold_nodes() {
        let r = UtilRecorder::new();
        r.enable(100);
        r.note(10, 0, 0, true, 8, 2, 0, 0);
        let mut s = r.snapshot();
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
        let r = UtilRecorder::new();
        r.enable(100);
        r.set_session(3);
        r.note(10, 0, 0, true, 64, 500, 25, 2);
        r.note(150, 1, 1 << 17, false, 32, 300, 0, 4);
        let mut s = r.snapshot();
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
        let s = UtilSnapshot::empty();
        let j = utilization_json(&s);
        assert_eq!(j.get("windows").unwrap().as_u64(), Some(0));
        let parsed = Json::parse(&j.render_pretty(2)).unwrap();
        assert_eq!(utilization_from_json(&parsed), Some(s));
    }

    #[test]
    fn clear_restores_base_width_and_drops_state() {
        let r = UtilRecorder::new();
        r.enable(10);
        for i in 0..(MAX_WINDOWS as u64 + 5) {
            r.note(i * 10, 0, 0, true, 1, 1, 0, 0);
        }
        assert!(r.snapshot().window_ns > 10);
        r.clear();
        assert!(r.snapshot().is_empty());
        r.note(5, 0, 0, true, 1, 1, 0, 0);
        assert_eq!(r.snapshot().window_ns, 10);
    }
}
