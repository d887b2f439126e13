//! Tail-latency forensics: critical-path extraction, blame attribution,
//! and worst-K exemplar capture.
//!
//! The watchdog and time-series (PRs 5–6) can say *that* p99 degraded;
//! this module says *why a specific slow transaction was slow*. Each
//! transaction's critical path is reconstructed from the flight
//! recorder's event ring: on the single virtual clock a session's
//! charged intervals never overlap, so the path is the ordered sequence
//! of recorded steps (verbs, lock waits, faults) inside the
//! transaction's `[start, end)` window, and every nanosecond of the
//! window lands in exactly one typed [`Blame`] category:
//!
//! * `lock_wait` — blocked on a lock whose *holder's* transaction is
//!   known (the lock layer resolves the holder's tag to its live trace
//!   id at block time), plus the wire cost of lock-acquire verbs;
//! * `remote_fetch` — successful wire verbs fetching/writing remote
//!   pages, index nodes, and log records (keyed by home node in the
//!   [`ForensicsSnapshot::remote_by_peer`] rollup);
//! * `coherence` — invalidation/update traffic in the coherence phase;
//! * `two_pc` — prepare/decide fan-out and vote collection;
//! * `backoff_retry` — retry/backoff time: waits with no identifiable
//!   holder, failed verbs (timeout/transient/unreachable), and fault
//!   hits — the category crash recovery inflates;
//! * `local_compute` — the un-evented remainder of the window (CPU
//!   charges advance the clock but record no event);
//! * `unattributed` — the remainder when the event ring *wrapped*
//!   during the transaction, so coverage was provably lost. Reported,
//!   never silently folded into a typed category.
//!
//! The worst-K exemplar reservoir keeps the K slowest transactions with
//! their full event chain and blame breakdown. Ordering is total:
//! `(total_ns desc, trace asc)` — trace ids are unique cluster-wide —
//! so per-session reservoirs merge cross-session into the same worst-K
//! regardless of merge order, and same-seed runs render byte-identical
//! JSON. Like every other telemetry layer, capture reads the virtual
//! clock but never advances it: 0% virtual-time overhead.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::span::{bucket_name, Phase, OTHER_BUCKET};

/// Typed blame categories, in fixed index/report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blame {
    /// Blocked on a lock held by an identified transaction (or paying
    /// lock-acquire wire cost).
    LockWait = 0,
    /// Successful remote page/index/log round trips.
    RemoteFetch = 1,
    /// Coherence invalidation/update traffic.
    Coherence = 2,
    /// 2PC prepare/decide fan-out.
    TwoPc = 3,
    /// Backoff, failed verbs, and fault retries (no identified holder).
    BackoffRetry = 4,
    /// Un-evented clock advancement: local CPU work.
    LocalCompute = 5,
    /// Coverage lost to ring wrap — reported, not hidden.
    Unattributed = 6,
}

/// Number of blame categories (including `unattributed`).
pub const BLAME_KINDS: usize = 7;

/// Report key for blame bucket `i` (see [`Blame`]).
pub fn blame_name(i: usize) -> &'static str {
    match i {
        0 => "lock_wait",
        1 => "remote_fetch",
        2 => "coherence",
        3 => "two_pc",
        4 => "backoff_retry",
        5 => "local_compute",
        _ => "unattributed",
    }
}

/// One step on a transaction's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// A lock wait; `holder` is the holding transaction's trace id at
    /// block time (0 = unknown holder).
    Wait { holder: u64 },
    /// A fabric verb; `op` is its static name, `ok` whether it
    /// completed. `lost_race` marks a verb that reached the wire but
    /// lost a CAS race — in the lock-acquire phase that is contention
    /// on a held lock, not a transport failure.
    Verb { op: &'static str, ok: bool, lost_race: bool },
    /// An injected-fault hit.
    Fault,
}

/// One flight-recorder event translated to the forensics domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEvent {
    /// Virtual start of the step.
    pub ts_ns: u64,
    /// Charged virtual duration.
    pub dur_ns: u64,
    /// What the step was.
    pub step: StepKind,
    /// Peer node for verbs (home node of the touched page).
    pub peer: u16,
    /// Phase bucket open when the step was issued.
    pub phase: u8,
    /// Address touched (lock word, page, ...).
    pub addr: u64,
}

/// The blame category a single step's time belongs to.
pub fn blame_of(e: &PathEvent) -> Blame {
    match e.step {
        StepKind::Wait { holder } if holder != 0 => Blame::LockWait,
        StepKind::Wait { .. } => Blame::BackoffRetry,
        StepKind::Fault => Blame::BackoffRetry,
        // A CAS that lost its race on a lock word paid full wire cost
        // because the lock was *held* — that is lock contention. Lost
        // races elsewhere (version counters, queue slots) and transport
        // failures (timeout/unreachable) are retry cost.
        StepKind::Verb { ok: false, lost_race: true, .. }
            if e.phase == Phase::LockAcquire as u8 =>
        {
            Blame::LockWait
        }
        StepKind::Verb { ok: false, .. } => Blame::BackoffRetry,
        StepKind::Verb { ok: true, .. } => {
            if e.phase == Phase::LockAcquire as u8 {
                Blame::LockWait
            } else if e.phase == Phase::CoherenceInval as u8 {
                Blame::Coherence
            } else if e.phase == Phase::TwoPcPrepare as u8 || e.phase == Phase::TwoPcDecide as u8 {
                Blame::TwoPc
            } else {
                // Index lookups, page fetches, log writes, write-backs,
                // and bare Execute-phase verbs are all remote access.
                Blame::RemoteFetch
            }
        }
    }
}

/// One transaction's reconstructed critical path and blame breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnForensics {
    /// The transaction's trace id (unique cluster-wide).
    pub trace: u64,
    /// Virtual start of the transaction.
    pub start_ns: u64,
    /// End-to-end virtual duration.
    pub total_ns: u64,
    /// Virtual ns per blame category; sums to `total_ns`.
    pub blame_ns: [u64; BLAME_KINDS],
    /// Whether the attempt committed.
    pub committed: bool,
    /// The event chain, in virtual-time order.
    pub chain: Vec<PathEvent>,
}

impl TxnForensics {
    /// Share of the window attributed to *typed* categories (everything
    /// except `unattributed`).
    pub fn attributed_share(&self) -> f64 {
        if self.total_ns == 0 {
            return 1.0;
        }
        1.0 - self.blame_ns[Blame::Unattributed as usize] as f64 / self.total_ns as f64
    }

    /// Index of the largest blame bucket (ties to the lower index).
    pub fn dominant(&self) -> usize {
        let mut best = 0;
        for i in 1..BLAME_KINDS {
            if self.blame_ns[i] > self.blame_ns[best] {
                best = i;
            }
        }
        best
    }
}

/// Reconstruct one transaction's critical path from its recorder events
/// (already filtered to this trace id, in ring order) over the window
/// `[start_ns, end_ns)`. `lost` is whether the ring wrapped during the
/// transaction: if it did, the un-evented remainder is `unattributed`
/// (coverage was provably lost); otherwise it is `local_compute`
/// (un-evented clock advancement is CPU work by construction).
pub fn extract(
    trace: u64,
    start_ns: u64,
    end_ns: u64,
    events: &[PathEvent],
    committed: bool,
    lost: bool,
) -> TxnForensics {
    let mut chain: Vec<PathEvent> = Vec::with_capacity(events.len());
    let (total_ns, blame_ns) =
        fold_window(start_ns, end_ns, lost, events.iter().copied(), |e, _| chain.push(*e));
    TxnForensics { trace, start_ns, total_ns, blame_ns, committed, chain }
}

/// The steps that start inside `[start_ns, end_ns)`.
fn within(
    start_ns: u64,
    end_ns: u64,
    steps: impl Iterator<Item = PathEvent>,
) -> impl Iterator<Item = PathEvent> {
    steps.filter(move |e| (start_ns..end_ns).contains(&e.ts_ns))
}

/// Charge every step of `steps` that starts inside `[start_ns, end_ns)`
/// to its blame bucket, handing each to `on_step`, and the rest of the
/// window to the residual bucket `lost` selects. Returns the window's
/// `(total_ns, blame_ns)`.
fn fold_window(
    start_ns: u64,
    end_ns: u64,
    lost: bool,
    steps: impl Iterator<Item = PathEvent>,
    mut on_step: impl FnMut(&PathEvent, Blame),
) -> (u64, [u64; BLAME_KINDS]) {
    let mut blame_ns = [0u64; BLAME_KINDS];
    let mut covered = 0u64;
    for e in within(start_ns, end_ns, steps) {
        let blame = blame_of(&e);
        blame_ns[blame as usize] += e.dur_ns;
        covered += e.dur_ns;
        on_step(&e, blame);
    }
    // Charged intervals never overlap on the single virtual clock, so
    // the window minus the covered steps is exactly the un-evented time.
    let total_ns = end_ns.saturating_sub(start_ns).max(covered);
    let residual = total_ns - covered;
    let bucket = if lost { Blame::Unattributed } else { Blame::LocalCompute };
    blame_ns[bucket as usize] += residual;
    (total_ns, blame_ns)
}

/// Mergeable forensics rollup: the blame-share histogram over every
/// transaction plus the worst-K exemplar reservoir.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForensicsSnapshot {
    /// Reservoir capacity (max exemplars kept).
    pub k: usize,
    /// Transactions folded in.
    pub txns: u64,
    /// Total virtual ns per blame category across all transactions.
    pub blame_ns: [u64; BLAME_KINDS],
    /// `remote_fetch` ns by home node — which memory node's wire the
    /// fetch time went to.
    pub remote_by_peer: BTreeMap<u16, u64>,
    /// The K slowest transactions, `(total_ns desc, trace asc)`.
    pub worst: Vec<TxnForensics>,
}

impl ForensicsSnapshot {
    /// The identity for [`ForensicsSnapshot::merge`].
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.txns == 0
    }

    /// Total attributed virtual ns across all transactions.
    pub fn total_ns(&self) -> u64 {
        self.blame_ns.iter().sum()
    }

    /// Share of all transaction time in blame bucket `i`.
    pub fn share(&self, i: usize) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.blame_ns[i] as f64 / total as f64
        }
    }

    /// Share of all transaction time spent on the wire for data access:
    /// remote fetches, coherence, and 2PC fan-out — the number the
    /// lock-table and caching changes promise to move.
    pub fn wire_share(&self) -> f64 {
        self.share(Blame::RemoteFetch as usize)
            + self.share(Blame::Coherence as usize)
            + self.share(Blame::TwoPc as usize)
    }

    /// Fold another snapshot in. Order-independent: sums are
    /// commutative and the reservoir ordering is total (trace ids are
    /// unique), so any merge order yields the same worst-K.
    pub fn merge(&mut self, other: &ForensicsSnapshot) {
        self.k = self.k.max(other.k);
        self.txns += other.txns;
        for i in 0..BLAME_KINDS {
            self.blame_ns[i] += other.blame_ns[i];
        }
        for (&peer, &ns) in &other.remote_by_peer {
            *self.remote_by_peer.entry(peer).or_insert(0) += ns;
        }
        self.worst.extend(other.worst.iter().cloned());
        rank(&mut self.worst, self.k);
    }
}

fn rank(worst: &mut Vec<TxnForensics>, k: usize) {
    worst.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.trace.cmp(&b.trace)));
    worst.truncate(k);
}

/// Whether a `total_ns`-long transaction `trace` ranks strictly ahead
/// of `w` in the `(total_ns desc, trace asc)` exemplar order.
fn outranks(total_ns: u64, trace: u64, w: &TxnForensics) -> bool {
    total_ns > w.total_ns || (total_ns == w.total_ns && trace < w.trace)
}

/// Per-session collector: fold in one [`TxnForensics`] per executed
/// transaction, keep the K slowest.
#[derive(Debug, Clone)]
pub struct ForensicsCollector {
    snap: ForensicsSnapshot,
}

impl ForensicsCollector {
    /// A collector with a worst-`k` reservoir.
    pub fn new(k: usize) -> Self {
        Self {
            snap: ForensicsSnapshot { k, ..ForensicsSnapshot::default() },
        }
    }

    /// Fold one transaction in.
    pub fn record(&mut self, t: TxnForensics) {
        for e in &t.chain {
            if blame_of(e) == Blame::RemoteFetch {
                *self.snap.remote_by_peer.entry(e.peer).or_insert(0) += e.dur_ns;
            }
        }
        self.count(&t.blame_ns);
        if self.admits(t.total_ns, t.trace) {
            self.admit(t);
        }
    }

    /// Fold in the transaction `trace` that ran over `[start_ns, end_ns)`,
    /// reading its steps straight from where they were recorded: the same
    /// result as [`extract`] then [`ForensicsCollector::record`] over
    /// `steps().collect()`. `steps` is walked once for the blame; only a
    /// transaction that enters the worst-K reservoir has it walked again
    /// to copy its chain out, so every other transaction costs its own
    /// steps and, once each of its peers has been seen, no allocation.
    /// `lost` is as for [`extract`].
    pub fn record_steps<I: Iterator<Item = PathEvent>>(
        &mut self,
        trace: u64,
        start_ns: u64,
        end_ns: u64,
        committed: bool,
        lost: bool,
        steps: impl Fn() -> I,
    ) {
        let by_peer = &mut self.snap.remote_by_peer;
        let (total_ns, blame_ns) = fold_window(start_ns, end_ns, lost, steps(), |e, blame| {
            if blame == Blame::RemoteFetch {
                *by_peer.entry(e.peer).or_insert(0) += e.dur_ns;
            }
        });
        self.count(&blame_ns);
        if self.admits(total_ns, trace) {
            let chain = within(start_ns, end_ns, steps()).collect();
            self.admit(TxnForensics { trace, start_ns, total_ns, blame_ns, committed, chain });
        }
    }

    fn count(&mut self, blame_ns: &[u64; BLAME_KINDS]) {
        self.snap.txns += 1;
        for (sum, ns) in self.snap.blame_ns.iter_mut().zip(blame_ns) {
            *sum += ns;
        }
    }

    /// Whether a transaction this slow belongs among the K worst so far.
    fn admits(&self, total_ns: u64, trace: u64) -> bool {
        let worst = &self.snap.worst;
        worst.len() < self.snap.k
            || worst.last().is_some_and(|w| outranks(total_ns, trace, w))
    }

    /// Put `t` at its rank; `worst` is sorted and stays so.
    fn admit(&mut self, t: TxnForensics) {
        let worst = &mut self.snap.worst;
        let at = worst.partition_point(|w| !outranks(t.total_ns, t.trace, w));
        worst.insert(at, t);
        worst.truncate(self.snap.k);
    }

    /// Copy out the mergeable snapshot.
    pub fn snapshot(&self) -> ForensicsSnapshot {
        self.snap.clone()
    }
}

/// Events rendered per exemplar: the largest-duration steps are kept
/// (then re-sorted by time) so the JSON walkthrough shows where the
/// time went without committing megabyte chains.
pub const EXEMPLAR_EVENT_CAP: usize = 64;

fn step_json(e: &PathEvent) -> Json {
    let mut members = vec![
        ("ts_ns", Json::U(e.ts_ns)),
        ("dur_ns", Json::U(e.dur_ns)),
    ];
    match e.step {
        StepKind::Wait { holder } => {
            members.push(("kind", Json::S("wait".into())));
            members.push(("holder_txn", Json::U(holder)));
        }
        StepKind::Verb { op, ok, lost_race } => {
            members.push(("kind", Json::S("verb".into())));
            members.push(("op", Json::S(op.into())));
            members.push(("ok", Json::Bool(ok)));
            members.push(("lost_race", Json::Bool(lost_race)));
        }
        StepKind::Fault => members.push(("kind", Json::S("fault".into()))),
    }
    members.push(("peer", Json::U(e.peer as u64)));
    members.push(("phase", Json::S(bucket_name((e.phase as usize).min(OTHER_BUCKET)).into())));
    members.push(("addr", Json::U(e.addr)));
    members.push(("blame", Json::S(blame_name(blame_of(e) as usize).into())));
    Json::obj(members)
}

fn exemplar_json(t: &TxnForensics) -> Json {
    let blame = (0..BLAME_KINDS)
        .map(|i| (blame_name(i).to_string(), Json::U(t.blame_ns[i])))
        .collect();
    // Keep the heaviest steps, restore time order.
    let mut chain: Vec<&PathEvent> = t.chain.iter().collect();
    chain.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(a.ts_ns.cmp(&b.ts_ns)));
    let truncated = chain.len() > EXEMPLAR_EVENT_CAP;
    chain.truncate(EXEMPLAR_EVENT_CAP);
    chain.sort_by_key(|e| (e.ts_ns, e.addr));
    Json::obj(vec![
        ("trace", Json::U(t.trace)),
        ("start_ns", Json::U(t.start_ns)),
        ("total_ns", Json::U(t.total_ns)),
        ("committed", Json::Bool(t.committed)),
        ("attributed_share", Json::F(t.attributed_share())),
        ("dominant", Json::S(blame_name(t.dominant()).into())),
        ("blame_ns", Json::O(blame)),
        ("events", Json::A(chain.into_iter().map(step_json).collect())),
        ("events_truncated", Json::Bool(truncated)),
    ])
}

/// Render the `forensics` report section: the blame-share histogram
/// over all transactions plus the worst-K exemplars. Deterministic
/// byte-for-byte for same-seed runs.
pub fn forensics_json(s: &ForensicsSnapshot) -> Json {
    let blame = (0..BLAME_KINDS)
        .map(|i| {
            (
                blame_name(i).to_string(),
                Json::obj(vec![
                    ("ns", Json::U(s.blame_ns[i])),
                    ("share", Json::F(s.share(i))),
                ]),
            )
        })
        .collect();
    let by_peer = s
        .remote_by_peer
        .iter()
        .map(|(peer, ns)| (format!("node{peer}"), Json::U(*ns)))
        .collect();
    Json::obj(vec![
        ("txns", Json::U(s.txns)),
        ("k", Json::U(s.k as u64)),
        ("total_ns", Json::U(s.total_ns())),
        ("critical_path_wire_share", Json::F(s.wire_share())),
        ("blame", Json::O(blame)),
        ("remote_fetch_by_node", Json::O(by_peer)),
        ("worst", Json::A(s.worst.iter().map(exemplar_json).collect())),
    ])
}

/// The parsed shape of a committed `forensics` section — the read side
/// of [`forensics_json`], used by validators. Event chains are left as
/// raw JSON (they carry free-form op names); everything a gate needs is
/// typed.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsSummary {
    /// Transactions folded in.
    pub txns: u64,
    /// Reservoir capacity.
    pub k: u64,
    /// Total ns per blame category.
    pub blame_ns: [u64; BLAME_KINDS],
    /// `remote_fetch` ns by home node.
    pub remote_by_peer: BTreeMap<u16, u64>,
    /// `(total_ns, attributed_share, events rendered)` per exemplar,
    /// slowest first.
    pub worst: Vec<(u64, f64, usize)>,
}

impl ForensicsSummary {
    /// The section this summary was parsed from, rendered again: every
    /// derived member (`total_ns`, the blame shares,
    /// `critical_path_wire_share`) is recomputed from the parsed blame
    /// by [`forensics_json`] itself; the exemplars, whose chains stay
    /// raw JSON, are carried over from `section`.
    pub fn rerender(&self, section: &Json) -> Json {
        let mut out = forensics_json(&ForensicsSnapshot {
            k: self.k as usize,
            txns: self.txns,
            blame_ns: self.blame_ns,
            remote_by_peer: self.remote_by_peer.clone(),
            worst: Vec::new(),
        });
        if let (Json::O(members), Some(raw)) = (&mut out, section.get("worst")) {
            members.retain(|(k, _)| k != "worst");
            members.push(("worst".to_string(), raw.clone()));
        }
        out
    }

    /// What a `forensics` section that re-renders to itself can still
    /// get wrong: the worst-K reservoir is sorted slowest-first, holds
    /// no more than its capacity or the transaction count, and every
    /// exemplar's `attributed_share` is a share.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.worst.len() as u64 > self.k {
            out.push(format!("{} exemplars exceed reservoir capacity {}", self.worst.len(), self.k));
        }
        if self.worst.len() as u64 > self.txns {
            out.push(format!("{} exemplars but only {} transactions", self.worst.len(), self.txns));
        }
        let mut prev = u64::MAX;
        for (i, &(total_ns, share, _)) in self.worst.iter().enumerate() {
            if total_ns > prev {
                out.push(format!("worst[{i}] not sorted by total_ns desc"));
            }
            prev = total_ns;
            if !(0.0..=1.0).contains(&share) {
                out.push(format!("worst[{i}].attributed_share = {share} outside [0, 1]"));
            }
        }
        out
    }
}

/// Parse a `forensics` section. `None` on any structural violation.
pub fn forensics_from_json(section: &Json) -> Option<ForensicsSummary> {
    let txns = section.get("txns")?.as_u64()?;
    let k = section.get("k")?.as_u64()?;
    let blame = section.get("blame")?;
    let mut blame_ns = [0u64; BLAME_KINDS];
    for (i, b) in blame_ns.iter_mut().enumerate() {
        *b = blame.get(blame_name(i))?.get("ns")?.as_u64()?;
    }
    let mut remote_by_peer = BTreeMap::new();
    if let Some(Json::O(peers)) = section.get("remote_fetch_by_node") {
        for (name, ns) in peers {
            remote_by_peer.insert(name.strip_prefix("node")?.parse().ok()?, ns.as_u64()?);
        }
    }
    let mut worst = Vec::new();
    for w in section.get("worst")?.as_array()? {
        worst.push((
            w.get("total_ns")?.as_u64()?,
            w.get("attributed_share")?.as_f64()?,
            w.get("events")?.as_array()?.len(),
        ));
    }
    Some(ForensicsSummary { txns, k, blame_ns, remote_by_peer, worst })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait(ts: u64, dur: u64, holder: u64) -> PathEvent {
        PathEvent {
            ts_ns: ts,
            dur_ns: dur,
            step: StepKind::Wait { holder },
            peer: 0,
            phase: Phase::LockAcquire as u8,
            addr: 7,
        }
    }

    fn verb(ts: u64, dur: u64, phase: Phase, ok: bool, peer: u16) -> PathEvent {
        PathEvent {
            ts_ns: ts,
            dur_ns: dur,
            step: StepKind::Verb { op: "READ", ok, lost_race: false },
            peer,
            phase: phase as u8,
            addr: 9,
        }
    }

    fn lost_cas(ts: u64, dur: u64, phase: Phase) -> PathEvent {
        PathEvent {
            ts_ns: ts,
            dur_ns: dur,
            step: StepKind::Verb { op: "CAS", ok: false, lost_race: true },
            peer: 0,
            phase: phase as u8,
            addr: 9,
        }
    }

    #[test]
    fn extract_covers_every_nanosecond_exactly_once() {
        let events = [
            verb(100, 50, Phase::PageFetch, true, 1),
            wait(200, 300, 42),
            verb(600, 100, Phase::TwoPcPrepare, true, 2),
        ];
        let t = extract(5, 0, 1000, &events, true, false);
        assert_eq!(t.total_ns, 1000);
        assert_eq!(t.blame_ns[Blame::RemoteFetch as usize], 50);
        assert_eq!(t.blame_ns[Blame::LockWait as usize], 300);
        assert_eq!(t.blame_ns[Blame::TwoPc as usize], 100);
        assert_eq!(t.blame_ns[Blame::LocalCompute as usize], 550);
        assert_eq!(t.blame_ns.iter().sum::<u64>(), t.total_ns);
        assert_eq!(t.attributed_share(), 1.0);
        assert_eq!(blame_name(t.dominant()), "local_compute");
    }

    #[test]
    fn lost_coverage_is_reported_not_hidden() {
        let t = extract(5, 0, 1000, &[wait(0, 400, 0)], false, true);
        assert_eq!(t.blame_ns[Blame::BackoffRetry as usize], 400);
        assert_eq!(t.blame_ns[Blame::Unattributed as usize], 600);
        assert!((t.attributed_share() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn blame_mapping_follows_holder_outcome_and_phase() {
        assert_eq!(blame_of(&wait(0, 1, 9)), Blame::LockWait);
        assert_eq!(blame_of(&wait(0, 1, 0)), Blame::BackoffRetry);
        assert_eq!(blame_of(&verb(0, 1, Phase::PageFetch, false, 0)), Blame::BackoffRetry);
        // A lost CAS race on a lock word is contention, not transport
        // failure; lost races outside the lock phase stay retry cost.
        assert_eq!(blame_of(&lost_cas(0, 1, Phase::LockAcquire)), Blame::LockWait);
        assert_eq!(blame_of(&lost_cas(0, 1, Phase::Execute)), Blame::BackoffRetry);
        assert_eq!(blame_of(&verb(0, 1, Phase::CoherenceInval, true, 0)), Blame::Coherence);
        assert_eq!(blame_of(&verb(0, 1, Phase::TwoPcDecide, true, 0)), Blame::TwoPc);
        assert_eq!(blame_of(&verb(0, 1, Phase::LockAcquire, true, 0)), Blame::LockWait);
        assert_eq!(blame_of(&verb(0, 1, Phase::Execute, true, 0)), Blame::RemoteFetch);
    }

    #[test]
    fn reservoir_keeps_k_slowest_and_merge_is_order_independent() {
        let txn = |trace: u64, total: u64| TxnForensics {
            trace,
            start_ns: 0,
            total_ns: total,
            blame_ns: {
                let mut b = [0; BLAME_KINDS];
                b[Blame::LocalCompute as usize] = total;
                b
            },
            committed: true,
            chain: Vec::new(),
        };
        let mut a = ForensicsCollector::new(2);
        let mut b = ForensicsCollector::new(2);
        for i in 0..6u64 {
            a.record(txn(i, 100 * (i + 1)));
            b.record(txn(10 + i, 90 * (i + 1)));
        }
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, ba);
        assert_eq!(ab.worst.len(), 2);
        assert_eq!(ab.worst[0].trace, 5); // 600 ns
        assert_eq!(ab.worst[1].trace, 15); // 540 ns
        assert_eq!(ab.txns, 12);
    }

    #[test]
    fn json_round_trips_and_is_deterministic() {
        let mut c = ForensicsCollector::new(3);
        let events = [
            verb(10, 40, Phase::PageFetch, true, 1),
            wait(60, 200, 99),
            verb(300, 30, Phase::PageFetch, true, 2),
        ];
        c.record(extract(77, 0, 500, &events, true, false));
        c.record(extract(78, 500, 600, &[], false, false));
        let snap = c.snapshot();
        let j = forensics_json(&snap);
        assert_eq!(j.render(), forensics_json(&snap).render());
        let parsed = Json::parse(&j.render_pretty(2)).unwrap();
        let sum = forensics_from_json(&parsed).expect("well-formed section");
        assert_eq!(sum.txns, 2);
        assert_eq!(sum.k, 3);
        assert_eq!(sum.blame_ns[Blame::LockWait as usize], 200);
        assert_eq!(sum.worst.len(), 2);
        assert_eq!(sum.worst[0].0, 500);
        assert_eq!(sum.worst[0].2, 3);
        // Remote-fetch time is keyed by home node.
        assert_eq!(snap.remote_by_peer.get(&1), Some(&40));
        assert_eq!(snap.remote_by_peer.get(&2), Some(&30));
        // Wire share = remote fetch / total attributed time.
        assert!((snap.wire_share() - 70.0 / 600.0).abs() < 1e-12);
        // The empty snapshot renders a well-formed section too.
        let empty = forensics_json(&ForensicsSnapshot::empty());
        let esum = forensics_from_json(&Json::parse(&empty.render()).unwrap()).unwrap();
        assert_eq!(esum.txns, 0);
        assert!(esum.worst.is_empty());
    }
}
