//! The flight recorder: the one sink of an endpoint's observations.
//!
//! The paper's contention arguments need *structure*, not aggregates:
//! which verb went to which peer at which address, for which
//! transaction, in which phase, with what outcome. Every verb, fault,
//! phase boundary, lock wait, wait-for edge, coherence fan-out and
//! upper-layer counter note is one fixed-size [`Event`], and every view
//! is a fold over events: forensics ([`to_path_event`]) and utilization
//! ([`to_verb_load`]) over the ring, the series ([`to_series_note`]) and
//! the contention profile ([`to_contended`]) over the ring plus what it
//! has overwritten. Recording reads the virtual clock, never advances it.

use std::cell::{Cell, Ref, RefCell};

use telemetry::contention::{self, Contended, ContentionSnapshot, ContentionTally, WaitEdge};
use telemetry::timeseries::{self, SeriesNote};
use telemetry::{bucket_name, ChromeTrace, Json, Metric, SeriesRecorder, SeriesSnapshot};

use crate::fabric::NodeId;
use crate::stats::OpKind;

/// Pack a `(node, offset)` pair into the same raw form as the DSM
/// layer's `GlobalAddr` (`node << 48 | offset`), so contention keys
/// recorded at the fabric level and at the lock level coincide.
#[inline]
pub fn pack_addr(node: NodeId, offset: u64) -> u64 {
    ((node as u64) << 48) | offset
}

/// What a recorded event describes, and which [`Event`] fields it uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed verb: `peer`, `addr`, `bytes`, `outcome`, `wire_rts`,
    /// and for an atomic `aux`.
    Verb(OpKind),
    /// An injected fault surfaced before the verb ran: `peer`, `outcome`,
    /// the detection latency in `dur_ns`.
    Fault,
    /// A lock wait of `dur_ns` on `addr`, `aux` the holder's trace id (0 =
    /// unknown). A `local` lock is in-process: its key is no packed global
    /// address, so it stays out of the hot-word wait tally.
    Wait {
        /// The lock is in-process.
        local: bool,
    },
    /// A phase span opened (`addr` = bucket index).
    PhaseBegin,
    /// The innermost phase span closed.
    PhaseEnd,
    /// An upper layer bumped this series counter by `aux`.
    Note(Metric),
    /// One coherence broadcast to `aux` sharers.
    Fanout,
    /// A wait-for edge: the owner tag in `dur_ns` (an edge is an instant)
    /// wanted the lock word at `addr`, held by the tag in `aux`.
    Edge,
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

/// One fixed-size flight-recorder record; fields its [`EventKind`] does
/// not use are 0 (`peer`: `u16::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time the event was recorded (a verb's, fault's or wait's
    /// end).
    pub end_ns: u64,
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
    /// Wire round trips a verb paid ([`FlightRecorder::pay`]).
    pub wire_rts: u8,
    /// Transaction trace id active when the event was recorded
    /// (0 = outside any transaction).
    pub txn: u64,
    /// Innermost phase bucket at record time (`telemetry::OTHER_BUCKET`
    /// when unspanned).
    pub phase: u8,
    /// Kind-specific extra: for a verb, the part of `dur_ns` it spent
    /// queued at the target's atomic unit; for the others see
    /// [`EventKind`].
    pub aux: u64,
}

impl Event {
    /// Virtual start time: `dur_ns` before the end, clamped at 0.
    pub fn ts_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.dur_ns)
    }
}

/// Bounded ring of the last `capacity` [`Event`]s plus the series and
/// contention accumulators. An event enters the accumulators when the
/// ring overwrites it, or at once when the capacity is 0 but the series
/// is on; [`FlightRecorder::clear`] and [`FlightRecorder::set_capacity`]
/// fold the held events before dropping them. While neither the ring nor
/// the series is on, a push does nothing.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    cap: Cell<usize>,
    next: Cell<usize>,
    pushed: Cell<u64>,
    buf: RefCell<Vec<Event>>,
    series: SeriesRecorder,
    /// The first push (numbered like `pushed`) the series covers.
    series_from: Cell<u64>,
    contention: RefCell<ContentionTally>,
    /// The endpoint's wire-RT total the last verb paid up to.
    wire_mark: Cell<u64>,
}

impl FlightRecorder {
    /// Set the ring capacity (0 turns the ring off), folding and
    /// dropping the held events.
    pub fn set_capacity(&self, cap: usize) {
        self.clear();
        self.cap.set(cap);
        self.buf.borrow_mut().reserve(cap.min(1 << 20));
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap.get()
    }

    /// Whether pushes are recorded: the ring or the series is on.
    #[inline]
    pub fn on(&self) -> bool {
        self.cap.get() > 0 || self.series.enabled()
    }

    /// Turn the series on with `width_ns`-wide windows (0 turns it off),
    /// dropping its windows. It covers the events pushed from now on;
    /// the next verb pays from wire-RT total `wire_rts`.
    pub fn enable_series(&self, width_ns: u64, wire_rts: u64) {
        self.series.enable(width_ns);
        self.series_from.set(self.pushed.get());
        self.mark_wire(wire_rts);
    }

    /// The wire RTs paid by a verb completing at endpoint wire-RT total
    /// `wire_rts`: its rise above the mark. A doorbell is counted out of
    /// step with its members (before a pre-flighted group's, after a SEND
    /// batch's), dipping the total below the mark; counting only rises
    /// nets each group out to its one RT. A verb adds at most one.
    #[inline]
    pub fn pay(&self, wire_rts: u64) -> u8 {
        let paid = wire_rts.saturating_sub(self.wire_mark.get());
        if paid > 0 {
            self.wire_mark.set(wire_rts);
        }
        paid as u8
    }

    /// Restart [`FlightRecorder::pay`]'s mark: recording turned on, and
    /// no verb moved it while it was off.
    pub fn mark_wire(&self, wire_rts: u64) {
        self.wire_mark.set(wire_rts);
    }

    /// Record an event: append it to the ring, folding the one it
    /// overwrites, or fold it at once when only the series is on.
    #[inline]
    pub fn push(&self, ev: Event) {
        let (cap, n) = (self.cap.get(), self.pushed.get());
        if cap == 0 {
            if self.series.enabled() {
                self.retire(&ev, n);
            }
            return;
        }
        self.pushed.set(n + 1);
        let mut buf = self.buf.borrow_mut();
        if buf.len() < cap {
            buf.push(ev);
        } else {
            let i = self.next.get();
            let old = std::mem::replace(&mut buf[i], ev);
            self.next.set(if i + 1 == cap { 0 } else { i + 1 });
            drop(buf);
            self.retire(&old, n - cap as u64);
        }
    }

    /// Fold push number `n` into the accumulators.
    #[inline]
    fn retire(&self, ev: &Event, n: u64) {
        if let Some(fact) = to_contended(ev) {
            self.contention.borrow_mut().add(fact);
        }
        match to_series_note(ev) {
            Some(note) if n >= self.series_from.get() => self.series.note_all(note.at_ns, note.deltas),
            _ => {}
        }
    }

    /// The held events with their push numbers, oldest first.
    fn held(&self) -> impl Iterator<Item = (u64, Event)> + '_ {
        (self.pushed.get() - self.buf.borrow().len() as u64..).zip(self.tail(u64::MAX))
    }

    /// The series of every event pushed since it was turned on (empty
    /// while it is off).
    pub fn series_snapshot(&self) -> SeriesSnapshot {
        let from = self.series_from.get();
        let notes = self.held().filter(|&(n, _)| n >= from).filter_map(|(_, e)| to_series_note(&e));
        timeseries::fold(&self.series, notes)
    }

    /// The contention profile of every event recorded.
    pub fn contention_snapshot(&self) -> ContentionSnapshot {
        contention::fold(&self.contention.borrow(), self.held().filter_map(|(_, e)| to_contended(&e)))
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
        self.tail(u64::MAX).collect()
    }

    /// Fold the held events into the accumulators and drop them; the
    /// capacity stays.
    pub fn clear(&self) {
        for (n, ev) in self.held().collect::<Vec<_>>() {
            self.retire(&ev, n);
        }
        self.next.set(0);
        self.pushed.set(0);
        self.series_from.set(0);
        self.buf.borrow_mut().clear();
    }

    /// Drop the held events and the accumulators; the capacity and the
    /// series width stay.
    pub fn reset(&self) {
        self.clear();
        self.series.clear();
        *self.contention.borrow_mut() = ContentionTally::default();
        self.mark_wire(0);
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

/// Translate one recorder event into the forensics domain: verbs,
/// faults and waits map 1:1 onto typed critical-path steps; phase
/// boundaries (their bucket rides on every event), notes, fan-outs and
/// edges return `None`.
pub fn to_path_event(e: &Event) -> Option<telemetry::PathEvent> {
    let step = match e.kind {
        EventKind::Wait { .. } => telemetry::StepKind::Wait { holder: e.aux },
        EventKind::Verb(k) => telemetry::StepKind::Verb {
            op: verb_name(k),
            ok: e.outcome == outcome::OK,
            lost_race: e.outcome == outcome::CAS_LOST,
        },
        EventKind::Fault => telemetry::StepKind::Fault,
        _ => return None,
    };
    Some(telemetry::PathEvent {
        ts_ns: e.ts_ns(),
        dur_ns: e.dur_ns,
        step,
        peer: if e.peer == u16::MAX { 0 } else { e.peer },
        phase: e.phase,
        addr: e.addr,
    })
}

/// Translate one recorder event into the utilization domain: a verb
/// addressed to a memory node becomes the load the utilization fold
/// ([`telemetry::utilization::fold`]) reads; every other event returns
/// `None`.
pub fn to_verb_load(e: &Event) -> Option<telemetry::VerbLoad> {
    let EventKind::Verb(kind) = e.kind else {
        return None;
    };
    if e.peer == u16::MAX {
        return None;
    }
    Some(telemetry::VerbLoad {
        end_ns: e.end_ns,
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

/// The series counter of each verb class, indexed by `OpKind as usize`.
const VERB_METRIC: [Metric; 6] = [Metric::Reads, Metric::Writes, Metric::Cas, Metric::Faa, Metric::Sends, Metric::Recvs];

/// Translate one recorder event into the series domain
/// (`telemetry::timeseries::fold`): a verb counts itself, its wire bytes
/// and the wire RTs it paid, a wait itself and its ns, a note or a
/// fan-out its delta; the other kinds return `None`.
pub fn to_series_note(e: &Event) -> Option<SeriesNote> {
    let deltas = match e.kind {
        EventKind::Verb(k) => {
            // RECVs observe bytes the sender already put on the wire.
            let wire_bytes = if k == OpKind::Recv { 0 } else { e.bytes as u64 };
            [(VERB_METRIC[k as usize], 1), (Metric::BytesWire, wire_bytes), (Metric::WireRts, e.wire_rts as u64)]
        }
        EventKind::Wait { .. } => [(Metric::LockWaits, 1), (Metric::LockWaitNs, e.dur_ns), (Metric::LockWaitNs, 0)],
        EventKind::Note(m) => [(m, e.aux), (m, 0), (m, 0)],
        EventKind::Fanout => [(Metric::Invals, e.aux), (Metric::Invals, 0), (Metric::Invals, 0)],
        EventKind::Fault | EventKind::PhaseBegin | EventKind::PhaseEnd | EventKind::Edge => return None,
    };
    Some(SeriesNote { at_ns: e.end_ns, deltas })
}

/// Translate one recorder event into the contention domain
/// (`telemetry::contention::fold`): a lost CAS, a wait that is not local,
/// an edge and a fan-out; the rest return `None`.
pub fn to_contended(e: &Event) -> Option<Contended> {
    Some(match e.kind {
        EventKind::Verb(_) if e.outcome == outcome::CAS_LOST => Contended::CasRetry { addr: e.addr },
        EventKind::Wait { local: false } => Contended::Wait { addr: e.addr, ns: e.dur_ns },
        EventKind::Edge => Contended::Edge(WaitEdge { waiter: e.dur_ns, holder: e.aux, addr: e.addr }),
        EventKind::Fanout => Contended::Fanout(e.aux),
        _ => return None,
    })
}

/// Render one endpoint's event log onto a [`ChromeTrace`] as the
/// `(pid, tid)` track: verbs become `"X"` complete events, phase spans
/// become `"B"`/`"E"` pairs, faults become instants, lock waits become
/// `"X"` slices plus a `blocked-on` flow start whose id is the holder's
/// trace id. Every transaction in the batch also terminates its own
/// flow id at its last event, so waiter→holder arrows resolve across
/// tracks when the holder's endpoint is exported onto the same trace.
/// Notes, fan-outs and edges are not drawn and end no flow.
pub fn export_chrome(events: &[Event], pid: u64, tid: u64, trace: &mut ChromeTrace) {
    // (txn, end-ts of its last event) for flow termination.
    let mut last_end: Vec<(u64, u64)> = Vec::new();
    for ev in events {
        let ts = ev.ts_ns();
        if ev.txn != 0 && matches!(ev.kind, EventKind::Verb(_) | EventKind::Fault | EventKind::Wait { .. }) {
            let end = ts + ev.dur_ns;
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
                trace.complete(verb_name(k), "verb", ts, ev.dur_ns, pid, tid, args);
            }
            EventKind::Fault => {
                let name = format!("fault:{}", outcome::name(ev.outcome));
                trace.instant(&name, "fault", ts, pid, tid);
            }
            EventKind::Wait { .. } => {
                let args = vec![
                    ("addr", Json::U(ev.addr)),
                    ("txn", Json::U(ev.txn)),
                    ("holder_txn", Json::U(ev.aux)),
                ];
                trace.complete("lock-wait", "wait", ts, ev.dur_ns, pid, tid, args);
                if ev.aux != 0 {
                    trace.flow_start("blocked-on", ev.aux, ts, pid, tid);
                }
            }
            EventKind::PhaseBegin => {
                trace.begin(bucket_name(ev.addr as usize), "phase", ts, pid, tid);
            }
            EventKind::PhaseEnd => {
                trace.end(ts, pid, tid);
            }
            EventKind::Note(_) | EventKind::Fanout | EventKind::Edge => {}
        }
    }
    for (txn, end) in last_end {
        trace.flow_finish("blocked-on", txn, end, pid, tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::TopEntry;

    /// A one-ns READ of 8 bytes starting at `ts`.
    fn ev(ts: u64) -> Event {
        Event {
            end_ns: ts + 1,
            dur_ns: 1,
            kind: EventKind::Verb(OpKind::Read),
            peer: 0,
            addr: ts,
            bytes: 8,
            outcome: outcome::OK,
            wire_rts: 1,
            txn: 0,
            phase: telemetry::OTHER_BUCKET as u8,
            aux: 0,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::default();
        r.push(ev(1));
        assert!(!r.on());
        assert!(r.events().is_empty());
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let r = FlightRecorder::default();
        r.set_capacity(4);
        for t in 0..6u64 {
            r.push(ev(t));
        }
        let got: Vec<u64> = r.events().iter().map(|e| e.ts_ns()).collect();
        assert_eq!(got, vec![2, 3, 4, 5]);
        assert_eq!(r.pushed(), 6);
        r.clear();
        assert!(r.events().is_empty());
        assert_eq!(r.capacity(), 4);
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
            Event { kind: EventKind::Wait { local: false }, txn: 70, aux: 71, dur_ns: 300, ..ev(20) },
            Event { kind: EventKind::Wait { local: false }, txn: 70, aux: 0, dur_ns: 100, ..ev(400) },
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
        let w = to_path_event(&Event { kind: EventKind::Wait { local: false }, aux: 9, dur_ns: 50, ..ev(5) }).unwrap();
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
        assert!(to_verb_load(&Event { kind: EventKind::Wait { local: false }, ..ev(8) }).is_none());
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
            let odd: Vec<u64> = r.tail(u64::MAX).filter(|e| e.txn == 1).map(|e| e.ts_ns()).collect();
            assert!(odd.iter().all(|ts| ts % 2 == 1) && odd.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The first `n` pushes of a script that exercises every view: a
    /// verb that pays a wire RT, a lost CAS, a fabric and a local wait, an
    /// edge, a fan-out and a note, at 10 ns steps.
    fn script(n: usize) -> Vec<Event> {
        let kinds = [
            ev(0),
            Event { kind: EventKind::Verb(OpKind::Cas), outcome: outcome::CAS_LOST, addr: 64, ..ev(0) },
            Event { kind: EventKind::Wait { local: false }, addr: 64, dur_ns: 300, aux: 5, wire_rts: 0, ..ev(0) },
            Event { kind: EventKind::Wait { local: true }, addr: 64, dur_ns: 200, wire_rts: 0, ..ev(0) },
            Event { kind: EventKind::Edge, addr: 64, dur_ns: 3, aux: 4, wire_rts: 0, ..ev(0) },
            Event { kind: EventKind::Fanout, aux: 2, wire_rts: 0, ..ev(0) },
            Event { kind: EventKind::Note(Metric::Commits), aux: 1, wire_rts: 0, ..ev(0) },
            Event { kind: EventKind::PhaseBegin, wire_rts: 0, ..ev(0) },
        ];
        (0..n).map(|i| Event { end_ns: 10 * i as u64 + 400, ..kinds[i % kinds.len()] }).collect()
    }

    /// The series and contention views of `script(n)` pushed into a
    /// recorder with a ring of `cap`, series on from the start.
    fn views(cap: usize, n: usize) -> (SeriesSnapshot, ContentionSnapshot) {
        let r = FlightRecorder::default();
        r.set_capacity(cap);
        r.enable_series(100, 0);
        script(n).into_iter().for_each(|e| r.push(e));
        (r.series_snapshot(), r.contention_snapshot())
    }

    #[test]
    fn the_views_do_not_depend_on_the_ring_capacity() {
        let (series, contention) = views(0, 50);
        assert_eq!(series.total(Metric::Reads), 7);
        assert_eq!(series.total(Metric::Cas), 7);
        assert_eq!(series.total(Metric::WireRts), 14);
        assert_eq!((series.total(Metric::LockWaits), series.total(Metric::LockWaitNs)), (12, 6 * 300 + 6 * 200));
        assert_eq!((series.total(Metric::Invals), series.total(Metric::Commits)), (12, 6));
        // Local waits stay out of the hot-word tally; fabric ones feed it.
        assert_eq!(contention.wait_ns_total, 6 * 300);
        assert_eq!(contention.cas_top.ranked(), [TopEntry { key: 64, count: 7 }]);
        assert_eq!((contention.inval_broadcasts, contention.inval_msgs), (6, 12));
        assert_eq!(contention.edges.len(), 6);
        for cap in [1, 4, 7, 49, 50, 256] {
            assert_eq!(views(cap, 50), (series.clone(), contention.clone()), "capacity {cap}");
        }
    }

    #[test]
    fn capacity_changes_and_clears_fold_the_held_events_first() {
        let want = views(0, 20);
        let r = FlightRecorder::default();
        r.set_capacity(8);
        r.enable_series(100, 0);
        let events = script(20);
        events[..5].iter().for_each(|&e| r.push(e));
        r.set_capacity(3);
        assert!(r.events().is_empty(), "a new capacity drops the held events");
        events[5..12].iter().for_each(|&e| r.push(e));
        r.clear();
        assert!(r.events().is_empty() && r.capacity() == 3);
        events[12..].iter().for_each(|&e| r.push(e));
        assert_eq!((r.series_snapshot(), r.contention_snapshot()), want);
        // A reset drops the views too; capacity and width stay.
        r.reset();
        assert_eq!(r.contention_snapshot(), ContentionSnapshot::default());
        assert!(r.series_snapshot().is_empty() && r.series_snapshot().window_ns == 100);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn a_series_covers_the_events_from_its_own_enable_on() {
        let events = script(30);
        for cap in [0, 4, 64] {
            let r = FlightRecorder::default();
            r.set_capacity(cap);
            events[..10].iter().for_each(|&e| r.push(e));
            r.enable_series(100, 0);
            events[10..].iter().for_each(|&e| r.push(e));
            let only_later = FlightRecorder::default();
            only_later.enable_series(100, 0);
            events[10..].iter().for_each(|&e| only_later.push(e));
            assert_eq!(r.series_snapshot(), only_later.series_snapshot(), "capacity {cap}");
            // Contention covers every event recorded: with the ring off,
            // the edge pushed before the series was on is not.
            let edges = if cap == 0 { 3 } else { 4 };
            assert_eq!(r.contention_snapshot().edges.len(), edges, "capacity {cap}");
        }
    }

    #[test]
    fn a_recorder_that_is_off_records_no_view() {
        let r = FlightRecorder::default();
        script(16).into_iter().for_each(|e| r.push(e));
        assert!(!r.on());
        assert_eq!(r.contention_snapshot(), ContentionSnapshot::default());
        assert!(r.series_snapshot().is_empty());
    }

    #[test]
    fn notes_fanouts_and_edges_are_neither_drawn_nor_steps() {
        let quiet: Vec<Event> = script(8).into_iter().filter(|e| matches!(e.kind, EventKind::Note(_) | EventKind::Fanout | EventKind::Edge)).collect();
        assert_eq!(quiet.len(), 3);
        for e in &quiet {
            assert!(to_path_event(&Event { txn: 7, ..*e }).is_none(), "{:?}", e.kind);
            assert!(to_verb_load(e).is_none());
        }
        // Added to a traced verb's track they change nothing, not even
        // where the transaction's flow ends.
        let verb = Event { txn: 7, ..ev(10) };
        let render = |events: &[Event]| {
            let mut t = ChromeTrace::new();
            export_chrome(events, 1, 2, &mut t);
            t.render()
        };
        let late: Vec<Event> = quiet.iter().map(|e| Event { txn: 7, end_ns: 1_000, ..*e }).collect();
        assert_eq!(render(&[&[verb][..], &late].concat()), render(&[verb]));
    }

    #[test]
    fn an_event_stays_56_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 56);
    }
}
