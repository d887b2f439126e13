//! Causal flight recorder + contention probe for one endpoint.
//!
//! Observability for the paper's contention arguments needs *structure*,
//! not aggregates: which verb went to which peer at which address, on
//! behalf of which transaction, in which phase, and with what outcome.
//! This module holds the two per-endpoint instruments behind that:
//!
//! * [`FlightRecorder`] — a bounded ring buffer of [`Event`]s. Disabled
//!   by default (capacity 0, recording is a no-op branch); when enabled
//!   every verb, injected fault, and phase boundary pushes one fixed-size
//!   record. Recording costs **zero virtual time** — the virtual clock is
//!   only read, never advanced — so same-seed runs with the recorder on
//!   and off produce identical timings and identical results, which is
//!   how the <2% (actually 0%) virtual-time overhead criterion is met
//!   and *measured* rather than assumed. Tail forensics reads a
//!   transaction's events back ([`to_path_event`]); the utilization
//!   plane is a fold over a whole run's ([`to_verb_load`]).
//! * [`ContentionProbe`] — always-on, cheap contention accounting: one
//!   exact tally of lock-wait ns and CAS retries per lock word, a
//!   bounded wait-for edge log fed by the lock layer,
//!   and coherence fan-out counters fed by the cache layer. Snapshots
//!   merge order-independently into `telemetry::ContentionSnapshot`.
//!
//! Both live inside `Endpoint` (single-threaded, `Cell`/`RefCell`, no
//! atomics) and reset with it.

use std::cell::{Cell, Ref, RefCell};

use telemetry::contention::{ContentionSnapshot, Tally, WaitEdge};
use telemetry::{bucket_name, ChromeTrace, Json};

use crate::fabric::NodeId;
use crate::stats::OpKind;

/// Pack a `(node, offset)` pair into the same raw form as the DSM
/// layer's `GlobalAddr` (`node << 48 | offset`), so contention keys
/// recorded at the fabric level and at the lock level coincide.
#[inline]
pub fn pack_addr(node: NodeId, offset: u64) -> u64 {
    ((node as u64) << 48) | offset
}

/// What a recorded event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed (or faulted) verb of the given class.
    Verb(OpKind),
    /// An injected fault surfaced to the caller before the verb ran.
    Fault,
    /// A lock/latch wait charged by the lock layer ([`Event::aux`]
    /// carries the holder's trace id, 0 when unknown).
    Wait,
    /// A phase span opened (`addr` = bucket index).
    PhaseBegin,
    /// The innermost phase span closed.
    PhaseEnd,
}

/// Outcome codes carried by [`Event::outcome`].
pub mod outcome {
    /// The verb completed normally.
    pub const OK: u8 = 0;
    /// A CAS completed but did not install (lost the race).
    pub const CAS_LOST: u8 = 1;
    /// Injected timeout (partition window).
    pub const TIMEOUT: u8 = 2;
    /// Injected transient fault.
    pub const TRANSIENT: u8 = 3;
    /// Target node unreachable (crash window or fabric crash).
    pub const UNREACHABLE: u8 = 4;

    /// Stable name for reports and trace args.
    pub fn name(code: u8) -> &'static str {
        match code {
            OK => "ok",
            CAS_LOST => "cas_lost",
            TIMEOUT => "timeout",
            TRANSIENT => "transient",
            UNREACHABLE => "unreachable",
            _ => "unknown",
        }
    }
}

/// One fixed-size flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual start time of the event.
    pub ts_ns: u64,
    /// Virtual duration (0 for instants and phase boundaries).
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Target node for node-addressed verbs, `u16::MAX` otherwise.
    pub peer: u16,
    /// Packed global address ([`pack_addr`]) for memory verbs, mailbox
    /// id for messaging verbs, bucket index for phase events.
    pub addr: u64,
    /// Payload bytes moved.
    pub bytes: u32,
    /// One of the [`outcome`] codes.
    pub outcome: u8,
    /// Transaction trace id active when the event was recorded
    /// (0 = outside any transaction).
    pub txn: u64,
    /// Innermost phase bucket at record time (`telemetry::OTHER_BUCKET`
    /// when unspanned).
    pub phase: u8,
    /// Kind-specific extra: for a verb, the part of `dur_ns` it spent
    /// queued at the target's atomic unit (nonzero only for CAS and FAA);
    /// for [`EventKind::Wait`], the *holder's* trace id at block time
    /// (0 = unknown holder); 0 otherwise.
    pub aux: u64,
}

/// Bounded ring buffer of [`Event`]s. Capacity 0 (the default) disables
/// recording entirely.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    cap: Cell<usize>,
    next: Cell<usize>,
    dropped: Cell<u64>,
    pushed: Cell<u64>,
    buf: RefCell<Vec<Event>>,
}

impl FlightRecorder {
    /// Set the ring capacity; clears any recorded events.
    pub fn set_capacity(&self, cap: usize) {
        self.cap.set(cap);
        self.next.set(0);
        self.dropped.set(0);
        self.pushed.set(0);
        let mut buf = self.buf.borrow_mut();
        buf.clear();
        buf.reserve(cap.min(1 << 20));
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap.get()
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cap.get() > 0
    }

    /// Append an event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn push(&self, ev: Event) {
        let cap = self.cap.get();
        if cap == 0 {
            return;
        }
        let mut buf = self.buf.borrow_mut();
        self.pushed.set(self.pushed.get() + 1);
        if buf.len() < cap {
            buf.push(ev);
        } else {
            let i = self.next.get();
            buf[i] = ev;
            self.next.set(if i + 1 == cap { 0 } else { i + 1 });
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    /// Events overwritten so far (ring wrapped).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Events appended since the capacity was last set. A window's own
    /// coverage is provably lost exactly when more than `capacity`
    /// events were pushed inside it: its first event is the first to be
    /// overwritten, after `capacity` newer pushes.
    pub fn pushed(&self) -> u64 {
        self.pushed.get()
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let buf = self.buf.borrow();
        let i = self.next.get();
        if buf.len() < self.cap.get() || i == 0 {
            buf.clone()
        } else {
            let mut out = Vec::with_capacity(buf.len());
            out.extend_from_slice(&buf[i..]);
            out.extend_from_slice(&buf[..i]);
            out
        }
    }

    /// Drop recorded events but keep the capacity.
    pub fn clear(&self) {
        self.next.set(0);
        self.dropped.set(0);
        self.pushed.set(0);
        self.buf.borrow_mut().clear();
    }

    /// The newest `n` recorded events (all of them when fewer are held),
    /// oldest first, read in place: nothing is copied but the event being
    /// yielded. The ring stays borrowed until the iterator is dropped, so
    /// nothing may be recorded meanwhile.
    pub fn tail(&self, n: u64) -> Tail<'_> {
        let buf = self.buf.borrow();
        let len = buf.len();
        let left = n.min(len as u64) as usize;
        // One past the newest event, which is also where the oldest sits
        // once the ring is full.
        let end = if len < self.cap.get() { len } else { self.next.get() };
        let at = if left <= end { end - left } else { end + len - left };
        Tail { buf, at, left }
    }
}

/// The newest events of a [`FlightRecorder`], oldest first; see
/// [`FlightRecorder::tail`].
#[derive(Debug)]
pub struct Tail<'a> {
    buf: Ref<'a, Vec<Event>>,
    at: usize,
    left: usize,
}

impl Iterator for Tail<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let ev = self.buf[self.at];
        self.at = if self.at + 1 == self.buf.len() { 0 } else { self.at + 1 };
        Some(ev)
    }
}

fn verb_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "READ",
        OpKind::Write => "WRITE",
        OpKind::Cas => "CAS",
        OpKind::Faa => "FAA",
        OpKind::Send => "SEND",
        OpKind::Recv => "RECV",
    }
}

/// Translate one recorder event into the forensics domain. Phase
/// boundaries return `None` (the phase bucket already rides on every
/// event); everything else maps 1:1 onto a typed critical-path step.
pub fn to_path_event(e: &Event) -> Option<telemetry::PathEvent> {
    let step = match e.kind {
        EventKind::Wait => telemetry::StepKind::Wait { holder: e.aux },
        EventKind::Verb(k) => telemetry::StepKind::Verb {
            op: verb_name(k),
            ok: e.outcome == outcome::OK,
            lost_race: e.outcome == outcome::CAS_LOST,
        },
        EventKind::Fault => telemetry::StepKind::Fault,
        EventKind::PhaseBegin | EventKind::PhaseEnd => return None,
    };
    Some(telemetry::PathEvent {
        ts_ns: e.ts_ns,
        dur_ns: e.dur_ns,
        step,
        peer: if e.peer == u16::MAX { 0 } else { e.peer },
        phase: e.phase,
        addr: e.addr,
    })
}

/// Translate one recorder event into the utilization domain: a verb
/// addressed to a memory node becomes the load the utilization fold
/// ([`telemetry::utilization::fold`]) reads; messaging verbs, faults,
/// waits and phase boundaries return `None`.
pub fn to_verb_load(e: &Event) -> Option<telemetry::VerbLoad> {
    let EventKind::Verb(kind) = e.kind else {
        return None;
    };
    if e.peer == u16::MAX {
        return None;
    }
    Some(telemetry::VerbLoad {
        end_ns: e.ts_ns + e.dur_ns,
        node: e.peer as u64,
        // The offset below the node id `pack_addr` put on top.
        offset: e.addr & ((1 << 48) - 1),
        // READs are the only verbs whose payload leaves the node.
        ingress: kind != OpKind::Read,
        bytes: e.bytes as u64,
        remote_ns: e.dur_ns,
        queue_ns: e.aux,
        phase: e.phase as usize,
    })
}

/// Render one endpoint's event log onto a [`ChromeTrace`] as the
/// `(pid, tid)` track: verbs become `"X"` complete events, phase spans
/// become `"B"`/`"E"` pairs, faults become instants, lock waits become
/// `"X"` slices plus a `blocked-on` flow start whose id is the holder's
/// trace id. Every transaction in the batch also terminates its own
/// flow id at its last event, so waiter→holder arrows resolve across
/// tracks when the holder's endpoint is exported onto the same trace.
pub fn export_chrome(events: &[Event], pid: u64, tid: u64, trace: &mut ChromeTrace) {
    // (txn, end-ts of its last event) for flow termination.
    let mut last_end: Vec<(u64, u64)> = Vec::new();
    for ev in events {
        if ev.txn != 0 && !matches!(ev.kind, EventKind::PhaseBegin | EventKind::PhaseEnd) {
            let end = ev.ts_ns + ev.dur_ns;
            match last_end.iter_mut().find(|(t, _)| *t == ev.txn) {
                Some((_, e)) => *e = (*e).max(end),
                None => last_end.push((ev.txn, end)),
            }
        }
        match ev.kind {
            EventKind::Verb(k) => {
                let mut args = vec![
                    ("addr", Json::U(ev.addr)),
                    ("bytes", Json::U(ev.bytes as u64)),
                    ("txn", Json::U(ev.txn)),
                    ("phase", Json::S(bucket_name(ev.phase as usize).into())),
                ];
                if ev.peer != u16::MAX {
                    args.insert(0, ("peer", Json::U(ev.peer as u64)));
                }
                if ev.outcome != outcome::OK {
                    args.push(("outcome", Json::S(outcome::name(ev.outcome).into())));
                }
                trace.complete(verb_name(k), "verb", ev.ts_ns, ev.dur_ns, pid, tid, args);
            }
            EventKind::Fault => {
                let name = format!("fault:{}", outcome::name(ev.outcome));
                trace.instant(&name, "fault", ev.ts_ns, pid, tid);
            }
            EventKind::Wait => {
                let args = vec![
                    ("addr", Json::U(ev.addr)),
                    ("txn", Json::U(ev.txn)),
                    ("holder_txn", Json::U(ev.aux)),
                ];
                trace.complete("lock-wait", "wait", ev.ts_ns, ev.dur_ns, pid, tid, args);
                if ev.aux != 0 {
                    trace.flow_start("blocked-on", ev.aux, ev.ts_ns, pid, tid);
                }
            }
            EventKind::PhaseBegin => {
                trace.begin(bucket_name(ev.addr as usize), "phase", ev.ts_ns, pid, tid);
            }
            EventKind::PhaseEnd => {
                trace.end(ev.ts_ns, pid, tid);
            }
        }
    }
    for (txn, end) in last_end {
        trace.flow_finish("blocked-on", txn, end, pid, tid);
    }
}

/// Per-endpoint wait-for edge log bound.
pub const ENDPOINT_EDGE_CAP: usize = 256;

/// Always-on contention accounting for one endpoint.
#[derive(Debug)]
pub struct ContentionProbe {
    /// Per lock word (packed address): lock-wait ns, CAS retries.
    words: RefCell<Tally<2>>,
    edges: RefCell<Vec<WaitEdge>>,
    edges_dropped: Cell<u64>,
    inval_broadcasts: Cell<u64>,
    inval_msgs: Cell<u64>,
    inval_max_fanout: Cell<u64>,
    wait_ns_total: Cell<u64>,
}

impl Default for ContentionProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentionProbe {
    /// A fresh probe with the standard per-endpoint bounds.
    pub fn new() -> Self {
        Self {
            words: RefCell::new(Tally::default()),
            edges: RefCell::new(Vec::new()),
            edges_dropped: Cell::new(0),
            inval_broadcasts: Cell::new(0),
            inval_msgs: Cell::new(0),
            inval_max_fanout: Cell::new(0),
            wait_ns_total: Cell::new(0),
        }
    }

    /// Account `ns` of lock/latch waiting attributed to `addr`.
    #[inline]
    pub fn note_wait(&self, addr: u64, ns: u64) {
        self.words.borrow_mut().at(addr)[0] += ns;
        self.wait_ns_total.set(self.wait_ns_total.get() + ns);
    }

    /// Account one failed CAS on `addr` (a contention retry).
    #[inline]
    pub fn note_cas_retry(&self, addr: u64) {
        self.words.borrow_mut().at(addr)[1] += 1;
    }

    /// Record a wait-for edge observed by the lock layer.
    #[inline]
    pub fn note_wait_edge(&self, waiter: u64, holder: u64, addr: u64) {
        let mut edges = self.edges.borrow_mut();
        let e = WaitEdge { waiter, holder, addr };
        if edges.len() >= ENDPOINT_EDGE_CAP {
            // Keep distinct edges preferentially: duplicates are free to
            // drop, new distinct edges evict nothing (bounded log).
            if !edges.contains(&e) {
                self.edges_dropped.set(self.edges_dropped.get() + 1);
            }
            return;
        }
        edges.push(e);
    }

    /// Account one coherence broadcast fanning out to `n` sharers.
    #[inline]
    pub fn note_inval_fanout(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.inval_broadcasts.set(self.inval_broadcasts.get() + 1);
        self.inval_msgs.set(self.inval_msgs.get() + n);
        self.inval_max_fanout.set(self.inval_max_fanout.get().max(n));
    }

    /// Copy out a mergeable snapshot.
    pub fn snapshot(&self) -> ContentionSnapshot {
        ContentionSnapshot {
            wait_top: self.words.borrow().hot_list(0),
            cas_top: self.words.borrow().hot_list(1),
            edges: self.edges.borrow().clone(),
            inval_broadcasts: self.inval_broadcasts.get(),
            inval_msgs: self.inval_msgs.get(),
            inval_max_fanout: self.inval_max_fanout.get(),
            wait_ns_total: self.wait_ns_total.get(),
            edges_dropped: self.edges_dropped.get(),
        }
    }

    /// Zero everything (between experiment phases).
    pub fn reset(&self) {
        self.words.borrow_mut().clear();
        self.edges.borrow_mut().clear();
        self.edges_dropped.set(0);
        self.inval_broadcasts.set(0);
        self.inval_msgs.set(0);
        self.inval_max_fanout.set(0);
        self.wait_ns_total.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::TopEntry;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: 1,
            kind: EventKind::Verb(OpKind::Read),
            peer: 0,
            addr: ts,
            bytes: 8,
            outcome: outcome::OK,
            txn: 0,
            phase: telemetry::OTHER_BUCKET as u8,
            aux: 0,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::default();
        r.push(ev(1));
        assert!(!r.enabled());
        assert!(r.events().is_empty());
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let r = FlightRecorder::default();
        r.set_capacity(4);
        for t in 0..6u64 {
            r.push(ev(t));
        }
        let got: Vec<u64> = r.events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(got, vec![2, 3, 4, 5]);
        assert_eq!(r.dropped(), 2);
        r.clear();
        assert!(r.events().is_empty());
        assert!(r.enabled());
    }

    #[test]
    fn export_renders_phases_and_faults() {
        let mut t = ChromeTrace::new();
        let events = [
            Event { kind: EventKind::PhaseBegin, addr: 3, ..ev(10) },
            ev(20),
            Event { kind: EventKind::Fault, outcome: outcome::TRANSIENT, ..ev(30) },
            Event { kind: EventKind::PhaseEnd, ..ev(40) },
        ];
        export_chrome(&events, 1, 2, &mut t);
        let s = t.render();
        assert!(s.contains("\"execute\""));
        assert!(s.contains("fault:transient"));
        assert!(s.contains("\"READ\""));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn wait_events_export_slices_and_blocking_flows() {
        let mut t = ChromeTrace::new();
        let events = [
            Event { txn: 70, ..ev(10) },
            Event { kind: EventKind::Wait, txn: 70, aux: 71, dur_ns: 300, ..ev(20) },
            Event { kind: EventKind::Wait, txn: 70, aux: 0, dur_ns: 100, ..ev(400) },
        ];
        export_chrome(&events, 1, 2, &mut t);
        let s = t.render();
        assert!(s.contains("\"lock-wait\""));
        assert!(s.contains("\"holder_txn\":71"));
        // The known-holder wait starts flow 71; the unknown-holder one
        // starts none; txn 70 terminates its own flow id once.
        assert!(s.contains("\"ph\":\"s\""));
        assert!(s.contains("\"id\":71"));
        assert!(s.contains("\"ph\":\"f\""));
        assert!(s.contains("\"id\":70"));
        // 3 source events + 1 flow start + 1 flow finish.
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn path_events_translate_verbs_waits_and_faults() {
        use telemetry::StepKind;
        let w = to_path_event(&Event { kind: EventKind::Wait, aux: 9, dur_ns: 50, ..ev(5) }).unwrap();
        assert_eq!(w.step, StepKind::Wait { holder: 9 });
        assert_eq!(w.dur_ns, 50);
        let v = to_path_event(&Event { outcome: outcome::TIMEOUT, ..ev(6) }).unwrap();
        assert_eq!(v.step, StepKind::Verb { op: "READ", ok: false, lost_race: false });
        let c = to_path_event(&Event { outcome: outcome::CAS_LOST, ..ev(6) }).unwrap();
        assert_eq!(c.step, StepKind::Verb { op: "READ", ok: false, lost_race: true });
        let f = to_path_event(&Event { kind: EventKind::Fault, ..ev(7) }).unwrap();
        assert_eq!(f.step, StepKind::Fault);
        assert!(to_path_event(&Event { kind: EventKind::PhaseBegin, ..ev(8) }).is_none());
        // Non-node-addressed verbs normalize peer u16::MAX to 0.
        let m = to_path_event(&Event { peer: u16::MAX, ..ev(9) }).unwrap();
        assert_eq!(m.peer, 0);
    }

    #[test]
    fn verb_loads_are_the_node_addressed_verbs() {
        let cas = Event { kind: EventKind::Verb(OpKind::Cas), addr: pack_addr(3, 64), peer: 3, aux: 80, ..ev(100) };
        let l = to_verb_load(&cas).unwrap();
        assert_eq!((l.end_ns, l.node, l.offset, l.ingress), (101, 3, 64, true));
        assert_eq!((l.bytes, l.remote_ns, l.queue_ns, l.phase), (8, 1, 80, telemetry::OTHER_BUCKET));
        assert!(!to_verb_load(&ev(5)).unwrap().ingress, "a READ's payload leaves the node");
        let send = Event { kind: EventKind::Verb(OpKind::Send), peer: u16::MAX, ..ev(6) };
        assert!(to_verb_load(&send).is_none());
        assert!(to_verb_load(&Event { kind: EventKind::Fault, ..ev(7) }).is_none());
        assert!(to_verb_load(&Event { kind: EventKind::Wait, ..ev(8) }).is_none());
    }

    #[test]
    fn tail_is_the_newest_events_oldest_first_at_every_fill_level() {
        let r = FlightRecorder::default();
        r.set_capacity(4);
        assert_eq!(r.tail(3).count(), 0);
        // Filling (0..4), exactly full (4), wrapped mid-ring (5..8) and
        // wrapped back onto slot 0 (8).
        for pushed in 1..=8u64 {
            r.push(Event { txn: pushed % 2, ..ev(pushed) });
            let all = r.events();
            for n in 0..=6u64 {
                let got: Vec<Event> = r.tail(n).collect();
                let keep = (n as usize).min(all.len());
                assert_eq!(got, all[all.len() - keep..], "pushed {pushed}, tail({n})");
            }
            // A trace's events are a filter over the tail.
            let odd: Vec<u64> = r.tail(u64::MAX).filter(|e| e.txn == 1).map(|e| e.ts_ns).collect();
            assert!(odd.iter().all(|ts| ts % 2 == 1) && odd.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn probe_counts_and_resets() {
        let p = ContentionProbe::new();
        p.note_wait(7, 100);
        p.note_wait(7, 50);
        p.note_cas_retry(7);
        p.note_wait_edge(1, 2, 7);
        p.note_inval_fanout(3);
        p.note_inval_fanout(0); // ignored
        let s = p.snapshot();
        assert_eq!(s.wait_top.ranked(), [TopEntry { key: 7, count: 150 }]);
        assert_eq!(s.cas_top.ranked(), [TopEntry { key: 7, count: 1 }]);
        assert_eq!(s.edges.len(), 1);
        assert_eq!(s.inval_broadcasts, 1);
        assert_eq!(s.inval_msgs, 3);
        assert_eq!(s.inval_max_fanout, 3);
        assert_eq!(s.wait_ns_total, 150);
        p.reset();
        assert_eq!(p.snapshot(), ContentionSnapshot::default());
    }

    #[test]
    fn edge_log_is_bounded() {
        let p = ContentionProbe::new();
        for i in 0..(ENDPOINT_EDGE_CAP as u64 + 10) {
            p.note_wait_edge(i, i + 1, i);
        }
        let s = p.snapshot();
        assert_eq!(s.edges.len(), ENDPOINT_EDGE_CAP);
        assert_eq!(s.edges_dropped, 10);
    }
}
