//! The fabric: registered nodes, endpoints, and verb execution.

use std::cell::{Cell, RefCell, RefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use telemetry::{
    ChromeTrace, ContentionSnapshot, HistSnapshot, Histogram, Metric, Phase, PhaseSnapshot,
    PhaseTracker, Sample, SeriesRecorder, SeriesSnapshot,
};

use crate::clock::{Clock, SharedTimeline};
use crate::error::{RdmaError, RdmaResult};
use crate::fault::{FaultPlan, FaultView};
use crate::mailbox::{Mailbox, MailboxId, MailboxRegistry, Message};
use crate::profile::NetworkProfile;
use crate::recorder::{outcome, pack_addr, ContentionProbe, Event, EventKind, FlightRecorder};
use crate::region::Region;
use crate::stats::{OpKind, OpStats, StatsSnapshot};

/// Identifier of a registered memory target. This is a *logical* id: the
/// backing [`Region`] can be swapped on node replacement ([`Fabric::replace`]),
/// which is exactly the paper's argument for logical addressing (§3
/// Challenge 1: "if a memory node crashes then recovers, the memory space
/// changes and the old address cannot refer to the new memory").
pub type NodeId = u16;

struct NodeSlot {
    region: Arc<Region>,
    alive: AtomicBool,
    /// The node NIC's atomic unit: CAS/FAA to this node serialize here.
    atomic_unit: Arc<SharedTimeline>,
}

/// The cluster interconnect plus every registered memory region.
///
/// Cheap to share (`Arc<Fabric>`); create one per simulated cluster.
pub struct Fabric {
    profile: NetworkProfile,
    nodes: RwLock<Vec<NodeSlot>>,
    mailboxes: MailboxRegistry,
    /// Installed fault schedule (None = fault-free). Endpoints cache it
    /// and re-read when `fault_gen` moves.
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
    fault_gen: AtomicU64,
    /// Lock-owner tag → live transaction trace id. The session layer
    /// announces its trace under its lock-owner tag(s) for the duration
    /// of each transaction, so a blocked waiter can resolve the tag it
    /// read out of a lock word into the *holder's* trace id at block
    /// time — the blocking-edge annotation tail-latency forensics needs.
    trace_registry: Mutex<std::collections::BTreeMap<u64, u64>>,
}

impl Fabric {
    /// A fabric whose verbs are priced by `profile`.
    pub fn new(profile: NetworkProfile) -> Arc<Self> {
        Arc::new(Self {
            profile,
            nodes: RwLock::new(Vec::new()),
            mailboxes: MailboxRegistry::new(),
            fault_plan: RwLock::new(None),
            fault_gen: AtomicU64::new(0),
            trace_registry: Mutex::new(std::collections::BTreeMap::new()),
        })
    }

    /// Publish `trace` as the transaction currently running under lock
    /// owner tag `owner_tag`. Waiters that lose a lock race to this tag
    /// resolve it via [`Fabric::trace_of`].
    pub fn announce_trace(&self, owner_tag: u64, trace: u64) {
        if owner_tag == 0 {
            return;
        }
        self.trace_registry.lock().insert(owner_tag, trace);
    }

    /// Withdraw the trace announced under `owner_tag` (transaction end).
    /// The tag keeps its registry entry, now naming no trace, so the next
    /// announcement under it allocates nothing.
    pub fn retire_trace(&self, owner_tag: u64) {
        if let Some(trace) = self.trace_registry.lock().get_mut(&owner_tag) {
            *trace = 0;
        }
    }

    /// The live trace id announced under `owner_tag`, or 0 when the
    /// holder is unknown (crashed, zombie, or never announced).
    pub fn trace_of(&self, owner_tag: u64) -> u64 {
        if owner_tag == 0 {
            return 0;
        }
        self.trace_registry.lock().get(&owner_tag).copied().unwrap_or(0)
    }

    /// Install (or swap) the fault schedule. Every endpoint picks it up on
    /// its next verb and restarts its per-peer deterministic counters.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *self.fault_plan.write() = Some(Arc::new(plan));
        self.fault_gen.fetch_add(1, Ordering::Release);
    }

    /// Remove the fault schedule: subsequent verbs run fault-free.
    pub fn clear_fault_plan(&self) {
        *self.fault_plan.write() = None;
        self.fault_gen.fetch_add(1, Ordering::Release);
    }

    fn fault_generation(&self) -> u64 {
        self.fault_gen.load(Ordering::Acquire)
    }

    fn fault_plan_arc(&self) -> Option<Arc<FaultPlan>> {
        self.fault_plan.read().clone()
    }

    /// The cost model in force.
    pub fn profile(&self) -> NetworkProfile {
        self.profile
    }

    /// Register a fresh zeroed region of `len_bytes` and return its id.
    pub fn register_node(&self, len_bytes: usize) -> NodeId {
        self.register_region(Arc::new(Region::new(len_bytes)))
    }

    /// Register an existing region (e.g. one owned by a `memnode`).
    pub fn register_region(&self, region: Arc<Region>) -> NodeId {
        let mut nodes = self.nodes.write();
        let id = nodes.len() as NodeId;
        nodes.push(NodeSlot {
            region,
            alive: AtomicBool::new(true),
            atomic_unit: SharedTimeline::new(),
        });
        id
    }

    /// Number of registered nodes (alive or not).
    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    /// Run `f` on `node`'s slot, whatever its liveness.
    fn with_slot<T>(&self, node: NodeId, f: impl FnOnce(&NodeSlot) -> T) -> RdmaResult<T> {
        let nodes = self.nodes.read();
        nodes
            .get(node as usize)
            .map(f)
            .ok_or(RdmaError::UnknownNode(node))
    }

    /// Run `f` on `node`'s slot if the node currently accepts verbs.
    fn with_live_slot<T>(&self, node: NodeId, f: impl FnOnce(&NodeSlot) -> T) -> RdmaResult<T> {
        self.with_slot(node, |slot| {
            if slot.alive.load(Ordering::Acquire) {
                Ok(f(slot))
            } else {
                Err(RdmaError::NodeUnreachable(node))
            }
        })?
    }

    /// Direct handle to a node's region *without* network charging — for
    /// the code that runs *on* the memory node itself (offload handlers,
    /// recovery) and for test assertions.
    pub fn region(&self, node: NodeId) -> RdmaResult<Arc<Region>> {
        self.with_slot(node, |slot| slot.region.clone())
    }

    fn live_region(&self, node: NodeId) -> RdmaResult<Arc<Region>> {
        self.with_live_slot(node, |slot| slot.region.clone())
    }

    fn live_region_atomic(&self, node: NodeId) -> RdmaResult<(Arc<Region>, Arc<SharedTimeline>)> {
        self.with_live_slot(node, |slot| (slot.region.clone(), slot.atomic_unit.clone()))
    }

    /// Simulate a crash: verbs to `node` fail until revive/replace.
    pub fn crash(&self, node: NodeId) -> RdmaResult<()> {
        self.with_slot(node, |slot| slot.alive.store(false, Ordering::Release))
    }

    /// Bring a crashed node back with its memory intact (power blip).
    pub fn revive(&self, node: NodeId) -> RdmaResult<()> {
        self.with_slot(node, |slot| slot.alive.store(true, Ordering::Release))
    }

    /// Replace a node with fresh hardware: the logical id survives, the
    /// memory does not. Returns the new (zeroed) region for the recovery
    /// machinery to repopulate.
    pub fn replace(&self, node: NodeId, len_bytes: usize) -> RdmaResult<Arc<Region>> {
        let mut nodes = self.nodes.write();
        let slot = nodes
            .get_mut(node as usize)
            .ok_or(RdmaError::UnknownNode(node))?;
        let fresh = Arc::new(Region::new(len_bytes));
        slot.region = fresh.clone();
        slot.alive.store(true, Ordering::Release);
        Ok(fresh)
    }

    /// Whether a node currently accepts verbs.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.with_slot(node, |slot| slot.alive.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// The two-sided messaging registry.
    pub fn mailboxes(&self) -> &MailboxRegistry {
        &self.mailboxes
    }

    /// Create an endpoint (queue-pair handle). One per worker thread.
    pub fn endpoint(self: &Arc<Self>) -> Endpoint {
        Endpoint {
            fabric: self.clone(),
            profile: self.profile,
            clock: Clock::new(),
            stats: OpStats::new(),
            tracker: PhaseTracker::new(),
            verb_lat: std::array::from_fn(|_| Histogram::new()),
            faults: RefCell::new(FaultView::default()),
            recorder: FlightRecorder::default(),
            contention: ContentionProbe::new(),
            trace_id: Cell::new(0),
            series: SeriesRecorder::new(),
            series_wire_mark: Cell::new(0),
        }
    }
}

fn fix_node(e: RdmaError, node: NodeId) -> RdmaError {
    match e {
        RdmaError::OutOfBounds {
            offset,
            len,
            region_len,
            ..
        } => RdmaError::OutOfBounds {
            node,
            offset,
            len,
            region_len,
        },
        other => other,
    }
}

/// A per-thread handle for issuing verbs. Owns a virtual [`Clock`], op
/// counters, per-verb latency histograms, the phase-span tracker and the
/// telemetry planes, all fed from one place: every verb entry point
/// builds one `VerbEvent` and hands it to `Endpoint::complete`. Not
/// `Sync`: create one per worker thread.
pub struct Endpoint {
    fabric: Arc<Fabric>,
    profile: NetworkProfile,
    clock: Clock,
    stats: OpStats,
    tracker: PhaseTracker,
    /// Latency histogram per verb class, indexed by `OpKind as usize`.
    verb_lat: [Histogram; 6],
    /// This endpoint's view of the installed fault plan (deterministic
    /// per-peer counters live here).
    faults: RefCell<FaultView>,
    /// Causal flight recorder (ring of verb/fault/phase events).
    /// Disabled by default; see [`Endpoint::enable_flight_recorder`].
    recorder: FlightRecorder,
    /// Always-on contention accounting (hot keys, CAS retries,
    /// wait-for edges, coherence fan-out).
    contention: ContentionProbe,
    /// The transaction trace id recorded into every event (0 = none),
    /// threaded in by the session layer around each transaction.
    trace_id: Cell<u64>,
    /// Windowed time-series sampler (disabled by default; see
    /// [`Endpoint::enable_timeseries`]). Reads the clock, never
    /// advances it.
    series: SeriesRecorder,
    /// Last wire-RT total folded into the series: each verb adds the
    /// delta, so doorbell riders net out to one wire RT per group.
    series_wire_mark: Cell<u64>,
}

/// The series counter of each verb class, indexed by `OpKind as usize`.
const VERB_METRIC: [Metric; 6] = [
    Metric::Reads,
    Metric::Writes,
    Metric::Cas,
    Metric::Faa,
    Metric::Sends,
    Metric::Recvs,
];

/// One completed verb: everything any instrument needs to know about
/// it, built on the stack by the entry point that ran it and consumed
/// once by `Endpoint::complete`.
struct VerbEvent {
    kind: OpKind,
    /// Target memory node; `None` for two-sided verbs.
    peer: Option<NodeId>,
    /// Byte offset on `peer` for memory verbs, the peer mailbox id for
    /// messaging verbs.
    addr: u64,
    bytes: usize,
    /// Virtual latency: the verb was outstanding over `[now - cost_ns,
    /// now]` on the endpoint's clock.
    cost_ns: u64,
    /// The part of `cost_ns` spent queued at the target's atomic unit
    /// (the ring keeps it in [`Event::aux`]).
    queue_ns: u64,
    /// One of the [`outcome`] codes.
    outcome: u8,
}

/// One work request of a doorbell group posted with
/// [`Endpoint::doorbell`]: the group's members may mix verbs and target
/// nodes (several queue pairs rung by one doorbell).
#[derive(Debug)]
pub enum Wr<'a> {
    /// One-sided READ of `dst.len()` bytes from `(node, offset)`.
    Read {
        node: NodeId,
        offset: u64,
        dst: &'a mut [u8],
    },
    /// One-sided WRITE of `src` to `(node, offset)`.
    Write {
        node: NodeId,
        offset: u64,
        src: &'a [u8],
    },
    /// 8-byte compare-and-swap on `(node, offset)`. The member's result
    /// lands in `prev`: the pre-op value, equal to `expected` iff the
    /// swap installed. A member that was never executed (the group ended
    /// at an earlier one) leaves `prev` as the caller set it.
    Cas {
        node: NodeId,
        offset: u64,
        expected: u64,
        new: u64,
        prev: &'a mut u64,
    },
}

impl Wr<'_> {
    /// The member's target node.
    fn node(&self) -> NodeId {
        match *self {
            Wr::Read { node, .. } | Wr::Write { node, .. } | Wr::Cas { node, .. } => node,
        }
    }
}

/// RAII phase span: opened by [`Endpoint::span`], closed (and its
/// interval attributed) on drop.
pub struct SpanGuard<'a> {
    ep: &'a Endpoint,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.ep.phase_exit();
    }
}

impl Endpoint {
    /// The fabric this endpoint is attached to.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// This endpoint's virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Snapshot of op counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Current telemetry sample: virtual time + verb counters. Span
    /// boundaries use this to attribute deltas to phases.
    #[inline]
    pub fn sample(&self) -> Sample {
        Sample {
            ns: self.clock.now_ns(),
            verbs: self.stats.verbs_now(),
            wire_rts: self.stats.wire_rts_now(),
        }
    }

    /// Open a phase span; the returned guard closes it on drop. Virtual
    /// time, verbs, and wire RTs accrued while the guard lives are
    /// charged to `phase` (or to a nested inner span).
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        self.phase_enter(phase);
        SpanGuard { ep: self }
    }

    /// Open a phase without a guard — for callers whose control flow
    /// needs `&mut self` methods while the phase is open (a [`SpanGuard`]
    /// would hold the endpoint borrow). Pair with [`Endpoint::phase_exit`]
    /// on every path.
    pub fn phase_enter(&self, phase: Phase) {
        self.tracker.enter(phase, self.sample());
        self.record_event(EventKind::PhaseBegin, None, phase as u64, 0, outcome::OK, 0, 0);
    }

    /// Close the innermost phase opened by [`Endpoint::phase_enter`].
    pub fn phase_exit(&self) {
        self.tracker.exit(self.sample());
        self.record_event(EventKind::PhaseEnd, None, 0, 0, outcome::OK, 0, 0);
    }

    /// Per-phase attribution so far (flushes the open interval first).
    pub fn phase_snapshot(&self) -> PhaseSnapshot {
        self.tracker.flush(self.sample());
        self.tracker.snapshot()
    }

    /// Latency distribution of one verb class (virtual ns per verb).
    pub fn verb_latency(&self, kind: OpKind) -> HistSnapshot {
        self.verb_lat[kind as usize].snapshot()
    }

    /// The single completion path: fold one finished verb into every
    /// view of the endpoint — op counters, the per-class latency
    /// histogram, the CAS-retry tally, the windowed series and the
    /// flight-recorder ring (which the utilization plane is folded from
    /// after the run). Reads the clock (already advanced past the
    /// verb), never moves it; each plane that is off costs one branch.
    /// Always inlined so `ev` lives in registers, not in memory: measured
    /// 4-9 % per verb with the planes off against an out-of-line call.
    #[inline(always)]
    fn complete(&self, ev: VerbEvent) {
        let now = self.clock.now_ns();
        self.stats.record(ev.kind, ev.bytes);
        self.verb_lat[ev.kind as usize].record(ev.cost_ns);
        let addr = ev.peer.map_or(ev.addr, |node| pack_addr(node, ev.addr));
        if ev.outcome == outcome::CAS_LOST {
            // A lost CAS is the contention signal: feed the hot-word
            // retry tally with the packed lock-word address.
            self.stats.record_cas_failure();
            self.contention.note_cas_retry(addr);
        }
        if self.series.enabled() {
            // RECVs observe bytes the sender already put on the wire.
            let wire_bytes = if ev.kind != OpKind::Recv { ev.bytes as u64 } else { 0 };
            // Doorbell accounting runs ahead of its member verbs, so the
            // wire-RT total can transiently sit below the mark; taking
            // only positive deltas nets each group out to exactly its
            // paid wire RTs, attributed to the window of the last verb.
            let wire = self.stats.wire_rts_now();
            let paid = wire.saturating_sub(self.series_wire_mark.get());
            if paid > 0 {
                self.series_wire_mark.set(wire);
            }
            self.series.note_all(
                now,
                [
                    (VERB_METRIC[ev.kind as usize], 1),
                    (Metric::BytesWire, wire_bytes),
                    (Metric::WireRts, paid),
                ],
            );
        }
        // Checked here too so a recorder that is off costs a branch, not
        // an out-of-line call.
        if self.recorder.enabled() {
            self.record_event(EventKind::Verb(ev.kind), ev.peer, addr, ev.bytes, ev.outcome, ev.cost_ns, ev.queue_ns);
        }
    }

    /// Reset clock, counters, and telemetry (between experiment phases).
    /// The fault view is re-seeded too, so per-peer injection counters
    /// restart deterministically with the phase.
    pub fn reset(&self) {
        self.clock.reset();
        self.stats.reset();
        self.tracker.reset(Sample::default());
        for h in &self.verb_lat {
            h.reset();
        }
        let gen = self.fabric.fault_generation();
        self.faults.borrow_mut().rebind(gen, self.fabric.fault_plan_arc());
        self.recorder.clear();
        self.contention.reset();
        self.series.clear();
        self.series_wire_mark.set(0);
        self.trace_id.set(0);
    }

    /// Turn on the flight recorder with a ring of `cap` events (0 turns
    /// it back off). Recording never advances the virtual clock, so
    /// virtual-time throughput is identical with the recorder on or off.
    pub fn enable_flight_recorder(&self, cap: usize) {
        self.recorder.set_capacity(cap);
    }

    /// Turn on windowed time-series sampling with `width_ns`-wide
    /// virtual-time windows (0 turns it back off). Like the flight
    /// recorder, sampling reads the clock but never advances it, so
    /// virtual-time throughput is identical with the series on or off.
    pub fn enable_timeseries(&self, width_ns: u64) {
        self.series.enable(width_ns);
        self.series_wire_mark.set(self.stats.wire_rts_now());
    }

    /// Copy out the windowed series recorded so far (empty when
    /// sampling is off).
    pub fn series_snapshot(&self) -> SeriesSnapshot {
        self.series.snapshot()
    }

    /// Bump `metric` by `delta` in the window covering *now*. Upper
    /// layers (buffer pool, lock table, engine) use this to land their
    /// own counters in the same series as the verb stream. No-op while
    /// sampling is off.
    #[inline]
    pub fn series_note(&self, metric: Metric, delta: u64) {
        self.series.note(self.clock.now_ns(), metric, delta);
    }

    /// Does nothing. The gauge plane it used to turn on is gone: the
    /// levels the watchdog reads are prefix sums of series counters
    /// (see [`Endpoint::enable_timeseries`]). Its only caller is
    /// `benchmark/src/driver.rs`, in the separate benchmark workspace;
    /// delete this method once that call is gone.
    pub fn enable_health(&self, _width_ns: u64) {}

    /// Does nothing. The utilization plane is no longer recorded: it is
    /// folded after the run from the flight-recorder ring
    /// ([`crate::recorder::to_verb_load`], `telemetry::utilization::fold`).
    /// Kept, like [`Endpoint::enable_health`], only for
    /// `benchmark/src/driver.rs`; delete it once that call is gone.
    pub fn enable_utilization(&self, _width_ns: u64) {}

    /// Does nothing. The fold takes each ring's session tag beside its
    /// events; kept for the same caller as
    /// [`Endpoint::enable_utilization`].
    pub fn set_util_session(&self, _tag: u64) {}

    /// Recorded flight events, oldest first.
    pub fn flight_events(&self) -> Vec<Event> {
        self.recorder.events()
    }

    /// Events appended to the recorder ring so far. Forensics compares
    /// the per-transaction delta against [`Endpoint::flight_capacity`]:
    /// a transaction's own coverage is lost exactly when it pushed more
    /// events than the ring holds.
    pub fn flight_pushed(&self) -> u64 {
        self.recorder.pushed()
    }

    /// The recorder ring's capacity (0 = recording off).
    pub fn flight_capacity(&self) -> usize {
        self.recorder.capacity()
    }

    /// Render this endpoint's flight events onto `trace` as the
    /// `(pid, tid)` track.
    pub fn export_chrome_trace(&self, trace: &mut ChromeTrace, pid: u64, tid: u64) {
        crate::recorder::export_chrome(&self.flight_events(), pid, tid, trace);
    }

    /// Tag subsequent events with a transaction trace id (0 = none).
    /// The session layer sets this around each transaction so every
    /// wire round trip is attributable to the transaction that paid it.
    #[inline]
    pub fn set_trace_id(&self, id: u64) {
        self.trace_id.set(id);
    }

    /// The active transaction trace id.
    #[inline]
    pub fn trace_id(&self) -> u64 {
        self.trace_id.get()
    }

    /// Clear the transaction trace id.
    #[inline]
    pub fn clear_trace_id(&self) {
        self.trace_id.set(0);
    }

    /// Account `ns` of lock/latch waiting attributed to the packed
    /// address `addr` (feeds the hot-key wait tally). Holder unknown —
    /// equivalent to [`Endpoint::note_lock_wait_traced`] with tag 0.
    #[inline]
    pub fn note_lock_wait(&self, addr: u64, ns: u64) {
        self.note_lock_wait_traced(addr, ns, 0);
    }

    /// Account `ns` of lock waiting on `addr` where the lock word named
    /// `holder_tag` as the current owner. Feeds the hot-key wait tally
    /// and series like [`Endpoint::note_lock_wait`]; additionally, when
    /// the flight recorder is on, records a [`EventKind::Wait`] event
    /// whose `aux` is the holder's trace id resolved through the
    /// fabric's trace registry at block time — the blocking edge
    /// critical-path extraction follows.
    pub fn note_lock_wait_traced(&self, addr: u64, ns: u64, holder_tag: u64) {
        self.contention.note_wait(addr, ns);
        self.record_wait(addr, ns, || self.fabric.trace_of(holder_tag));
    }

    /// Account `ns` of waiting on a *local* (in-process) lock whose
    /// holder's trace id is already known. Local keys are not packed
    /// global addresses, so this skips the hot-key wait tally (where
    /// they would alias fabric addresses) but still lands in the series
    /// and, when the recorder is on, the event ring.
    pub fn note_local_lock_wait(&self, addr: u64, ns: u64, holder_trace: u64) {
        self.record_wait(addr, ns, || holder_trace);
    }

    /// The part every lock wait shares: the series counters and, when
    /// the recorder is on, a backdated [`EventKind::Wait`] naming the
    /// holder (resolved only then — the registry lookup takes a lock).
    fn record_wait(&self, addr: u64, ns: u64, holder_trace: impl FnOnce() -> u64) {
        if self.series.enabled() {
            let now = self.clock.now_ns();
            self.series.note_all(now, [(Metric::LockWaits, 1), (Metric::LockWaitNs, ns)]);
        }
        if self.recorder.enabled() {
            self.record_event(EventKind::Wait, None, addr, 0, outcome::OK, ns, holder_trace());
        }
    }

    /// Whether the flight recorder is on.
    #[inline]
    pub fn flight_recorder_enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// The forensic critical-path steps (phase boundaries elided) that
    /// trace id `txn` recorded since [`Endpoint::flight_pushed`] read
    /// `pushed0`, oldest first. Walks only the events pushed since then,
    /// in place — or the whole ring if that is less. Nothing may be
    /// recorded while the iterator lives.
    pub fn forensic_tail(
        &self,
        txn: u64,
        pushed0: u64,
    ) -> impl Iterator<Item = telemetry::PathEvent> + '_ {
        self.recorder
            .tail(self.recorder.pushed() - pushed0)
            .filter(move |e| e.txn == txn)
            .filter_map(|e| crate::recorder::to_path_event(&e))
    }

    /// Record a lock wait-for edge: `waiter` wanted `addr`, which
    /// `holder` held (holder 0 = unknown).
    #[inline]
    pub fn note_wait_edge(&self, waiter: u64, holder: u64, addr: u64) {
        self.contention.note_wait_edge(waiter, holder, addr);
    }

    /// Account one coherence broadcast fanning out to `n` sharers.
    #[inline]
    pub fn note_inval_fanout(&self, n: u64) {
        self.contention.note_inval_fanout(n);
        self.series_note(Metric::Invals, n);
    }

    /// Copy out this endpoint's contention observations.
    pub fn contention_snapshot(&self) -> ContentionSnapshot {
        self.contention.snapshot()
    }

    /// Push one event into the flight recorder (no-op when disabled,
    /// never advances the clock). `dur_ns` is subtracted from the
    /// current clock to recover the event's start time.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn record_event(
        &self,
        kind: EventKind,
        peer: Option<NodeId>,
        addr: u64,
        bytes: usize,
        outcome_code: u8,
        dur_ns: u64,
        aux: u64,
    ) {
        if !self.recorder.enabled() {
            return;
        }
        self.recorder.push(Event {
            ts_ns: self.clock.now_ns().saturating_sub(dur_ns),
            dur_ns,
            kind,
            peer: peer.unwrap_or(u16::MAX),
            addr,
            bytes: bytes as u32,
            outcome: outcome_code,
            txn: self.trace_id.get(),
            phase: self.tracker.innermost() as u8,
            aux,
        });
    }

    /// Charge local CPU/DRAM work that is not a verb (buffer-pool
    /// bookkeeping, local cache hits, compute).
    #[inline]
    pub fn charge_local(&self, ns: u64) {
        self.clock.advance(ns);
    }

    /// Consult the installed [`FaultPlan`] (if any) for one verb to
    /// `node`. Returns the extra latency an active spike adds; on an
    /// injected fault, charges the plan's detection latency (the
    /// completion timeout) and surfaces the fault.
    fn inject(&self, node: NodeId) -> RdmaResult<u64> {
        let mut view = self.fault_view();
        let checked = view.check(node, self.clock.now_ns());
        checked.map_err(|e| self.fault_detected(view, node, e))
    }

    /// This endpoint's view of the fault plan installed right now.
    fn fault_view(&self) -> RefMut<'_, FaultView> {
        let gen = self.fabric.fault_generation();
        let mut view = self.faults.borrow_mut();
        if view.generation() != gen {
            view.rebind(gen, self.fabric.fault_plan_arc());
        }
        view
    }

    /// An injected fault `e` surfaced on a verb to `node`: charge the
    /// plan's detection latency and record the fault.
    fn fault_detected(&self, view: RefMut<'_, FaultView>, node: NodeId, e: RdmaError) -> RdmaError {
        let detect = view.plan().map(|p| p.detect_ns()).unwrap_or(0);
        drop(view);
        self.clock.advance(detect);
        let code = match &e {
            RdmaError::Timeout(_) => outcome::TIMEOUT,
            RdmaError::Transient(_) => outcome::TRANSIENT,
            _ => outcome::UNREACHABLE,
        };
        self.record_event(EventKind::Fault, Some(node), 0, 0, code, detect, 0);
        e
    }

    /// Whether `node` looks reachable from this endpoint *right now*:
    /// registered, not crashed on the fabric, and not inside an injected
    /// crash window at this endpoint's virtual time. This is the health
    /// check replication layers should use when choosing write targets.
    pub fn node_reachable(&self, node: NodeId) -> bool {
        if !self.fabric.is_alive(node) {
            return false;
        }
        match self.fault_view().plan() {
            Some(plan) => !plan.crash_active(node, self.clock.now_ns()),
            None => true,
        }
    }

    /// The one-sided path shared by the scalar verbs and by every READ
    /// and WRITE member of a doorbell group: run `op` against the
    /// target's live region, charge the verb and complete it. `batch_pos`
    /// is `None` for a verb posted alone (consults the fault plan, pays a
    /// full round trip plus any spike) and the member's position for a
    /// batched one (the group was pre-flighted by
    /// [`Endpoint::preflight`]; only the leader pays the full round trip).
    #[inline]
    fn one_sided<T>(
        &self,
        kind: OpKind,
        node: NodeId,
        offset: u64,
        bytes: usize,
        batch_pos: Option<usize>,
        op: impl FnOnce(&Region) -> RdmaResult<T>,
    ) -> RdmaResult<T> {
        let extra = match batch_pos {
            None => self.inject(node)?,
            Some(_) => 0,
        };
        let region = self.fabric.live_region(node)?;
        let out = op(&region).map_err(|e| fix_node(e, node))?;
        let cost_ns = match batch_pos {
            Some(pos) if pos > 0 => self.profile.batched_cost_ns(bytes),
            _ => self.profile.rw_cost_ns(bytes) + extra,
        };
        self.clock.advance(cost_ns);
        self.complete(VerbEvent {
            kind,
            peer: Some(node),
            addr: offset,
            bytes,
            cost_ns,
            queue_ns: 0,
            outcome: outcome::OK,
        });
        Ok(out)
    }

    /// One-sided READ of `dst.len()` bytes from `(node, offset)`.
    pub fn read(&self, node: NodeId, offset: u64, dst: &mut [u8]) -> RdmaResult<()> {
        self.one_sided(OpKind::Read, node, offset, dst.len(), None, |r| r.read(offset, dst))
    }

    /// One-sided WRITE of `src` to `(node, offset)`.
    pub fn write(&self, node: NodeId, offset: u64, src: &[u8]) -> RdmaResult<()> {
        self.one_sided(OpKind::Write, node, offset, src.len(), None, |r| r.write(offset, src))
    }

    /// Aligned 8-byte read priced as a small one-sided READ.
    pub fn read_u64(&self, node: NodeId, offset: u64) -> RdmaResult<u64> {
        self.one_sided(OpKind::Read, node, offset, 8, None, |r| r.read_u64(offset))
    }

    /// Aligned 8-byte write priced as a small one-sided WRITE.
    pub fn write_u64(&self, node: NodeId, offset: u64, value: u64) -> RdmaResult<()> {
        self.one_sided(OpKind::Write, node, offset, 8, None, |r| r.write_u64(offset, value).map(drop))
    }

    /// Pre-flight a doorbell group against the fault plan and count it:
    /// every distinct target node is checked *before any memory is
    /// touched*, so an injected fault fails the group all-or-nothing
    /// instead of leaving a half-written replica set or a half-taken lock
    /// set. Spike latency is charged once per distinct node, ahead of the
    /// members (the doorbell amortizes the rest). Returns whether the
    /// members run as a group: a group of one is not pre-flighted, its
    /// member is the verb posted alone (which consults the plan itself
    /// and carries a spike in its own cost).
    fn preflight(&self, len: usize, nodes: impl Iterator<Item = NodeId>) -> RdmaResult<bool> {
        if len == 1 {
            return Ok(false);
        }
        let mut view = self.fault_view();
        match view.check_group(nodes, self.clock.now_ns()) {
            Ok(extra_ns) => {
                drop(view);
                self.clock.advance(extra_ns);
                self.stats.record_doorbell(len);
                Ok(true)
            }
            Err((node, e)) => Err(self.fault_detected(view, node, e)),
        }
    }

    /// Execute one work request: the member at `batch_pos` of a
    /// pre-flighted doorbell group, or (`None`) the verb posted alone.
    fn member(&self, batch_pos: Option<usize>, wr: &mut Wr<'_>) -> RdmaResult<()> {
        match wr {
            Wr::Read { node, offset, dst } => {
                let offset = *offset;
                self.one_sided(OpKind::Read, *node, offset, dst.len(), batch_pos, |r| r.read(offset, dst))
            }
            Wr::Write { node, offset, src } => {
                let offset = *offset;
                self.one_sided(OpKind::Write, *node, offset, src.len(), batch_pos, |r| r.write(offset, src))
            }
            Wr::Cas { node, offset, expected, new, prev } => {
                let (offset, expected, new) = (*offset, *expected, *new);
                **prev = self.atomic(OpKind::Cas, *node, offset, Some(expected), batch_pos, |r| {
                    r.cas_u64(offset, expected, new)
                })?;
                Ok(())
            }
        }
    }

    /// One doorbell over a mixed group of work requests: the members are
    /// executed in posting order, the first pays its verb's full round
    /// trip and every later one the marginal batched cost (a CAS, leader
    /// or rider, also takes its turn at the target's atomic unit), and
    /// the whole group is one wire round trip. Targets may span nodes.
    /// A group of one is the scalar verb. A member that fails after the
    /// pre-flight (dead node, bad range) ends the group there; earlier
    /// members stay completed.
    pub fn doorbell(&self, wrs: &mut [Wr<'_>]) -> RdmaResult<()> {
        let grouped = self.preflight(wrs.len(), wrs.iter().map(Wr::node))?;
        wrs.iter_mut()
            .enumerate()
            .try_for_each(|(pos, wr)| self.member(grouped.then_some(pos), wr))
    }

    /// A doorbell group of READs (see [`Endpoint::doorbell`]).
    pub fn read_batch(&self, ops: &mut [(NodeId, u64, &mut [u8])]) -> RdmaResult<()> {
        let grouped = self.preflight(ops.len(), ops.iter().map(|op| op.0))?;
        ops.iter_mut().enumerate().try_for_each(|(pos, (node, offset, dst))| {
            self.member(grouped.then_some(pos), &mut Wr::Read { node: *node, offset: *offset, dst })
        })
    }

    /// A doorbell group of WRITEs (see [`Endpoint::doorbell`]).
    pub fn write_batch(&self, ops: &[(NodeId, u64, &[u8])]) -> RdmaResult<()> {
        let grouped = self.preflight(ops.len(), ops.iter().map(|op| op.0))?;
        ops.iter().enumerate().try_for_each(|(pos, &(node, offset, src))| {
            self.member(grouped.then_some(pos), &mut Wr::Write { node, offset, src })
        })
    }

    /// The atomic path shared by CAS, FAA and every CAS member of a
    /// doorbell group (`batch_pos` as in [`Endpoint::one_sided`]): run
    /// `op` on the target word, then serialize behind the target NIC's
    /// atomic unit — a rider pays the marginal batched cost on the wire
    /// but still takes its turn there. The verb's latency includes that
    /// queueing — the contention delay is exactly what the per-verb tail
    /// should expose. With `expected` set, a pre-op value that differs
    /// from it marks the verb a lost CAS.
    fn atomic(
        &self,
        kind: OpKind,
        node: NodeId,
        offset: u64,
        expected: Option<u64>,
        batch_pos: Option<usize>,
        op: impl FnOnce(&Region) -> RdmaResult<u64>,
    ) -> RdmaResult<u64> {
        let extra = match batch_pos {
            None => self.inject(node)?,
            Some(_) => 0,
        };
        let (region, unit) = self.fabric.live_region_atomic(node)?;
        let prev = op(&region).map_err(|e| fix_node(e, node))?;
        let start = self.clock.now_ns();
        let wire_ns = match batch_pos {
            Some(pos) if pos > 0 => self.profile.batched_cost_ns(8),
            _ => self.profile.atomic_cost_ns() + extra,
        };
        self.clock.advance(wire_ns);
        if self.profile.atomic_unit_ns > 0 {
            let done = unit.reserve(self.clock.now_ns(), self.profile.atomic_unit_ns);
            self.clock.advance_to(done);
        }
        let cost_ns = self.clock.now_ns() - start;
        self.complete(VerbEvent {
            kind,
            peer: Some(node),
            addr: offset,
            bytes: 8,
            cost_ns,
            queue_ns: cost_ns.saturating_sub(wire_ns),
            outcome: match expected {
                Some(want) if want != prev => outcome::CAS_LOST,
                _ => outcome::OK,
            },
        });
        Ok(prev)
    }

    /// 8-byte compare-and-swap. Returns the pre-op value; the swap
    /// installed iff the return equals `expected`. Atomics serialize at
    /// the target NIC's atomic unit (queueing under contention).
    pub fn cas(&self, node: NodeId, offset: u64, expected: u64, new: u64) -> RdmaResult<u64> {
        self.atomic(OpKind::Cas, node, offset, Some(expected), None, |r| r.cas_u64(offset, expected, new))
    }

    /// 8-byte fetch-and-add. Returns the pre-add value. Serializes at the
    /// target NIC's atomic unit like [`Endpoint::cas`].
    pub fn faa(&self, node: NodeId, offset: u64, add: u64) -> RdmaResult<u64> {
        self.atomic(OpKind::Faa, node, offset, None, None, |r| r.faa_u64(offset, add))
    }

    /// Charge `cost_ns`, enqueue `payload` to mailbox `to` stamped with
    /// the virtual delivery time, and complete the SEND if a receiver
    /// took it.
    fn post(&self, to: MailboxId, from: MailboxId, payload: Vec<u8>, cost_ns: u64) -> RdmaResult<()> {
        let bytes = payload.len();
        self.clock.advance(cost_ns);
        self.fabric.mailboxes.post(
            to,
            Message {
                from,
                payload,
                deliver_at_ns: self.clock.now_ns(),
            },
        )?;
        self.complete(VerbEvent {
            kind: OpKind::Send,
            peer: None,
            addr: to,
            bytes,
            cost_ns,
            queue_ns: 0,
            outcome: outcome::OK,
        });
        Ok(())
    }

    /// Two-sided SEND: enqueue `payload` to mailbox `to`, stamped with the
    /// virtual delivery time.
    pub fn send(&self, to: MailboxId, from: MailboxId, payload: Vec<u8>) -> RdmaResult<()> {
        let cost_ns = self.profile.send_cost_ns(payload.len());
        self.post(to, from, payload, cost_ns)
    }

    /// Doorbell-batched two-sided SENDs: one WQE list, one doorbell ring.
    /// The first message pays the full send cost, the rest the marginal
    /// batched cost. Messages to unregistered mailboxes are skipped (the
    /// peer never started or already stopped — it cannot hold state we
    /// need to reach). Returns how many messages were delivered.
    pub fn send_batch(
        &self,
        msgs: impl IntoIterator<Item = (MailboxId, MailboxId, Vec<u8>)>,
    ) -> RdmaResult<u32> {
        let mut delivered = 0u32;
        for (posted, (to, from, payload)) in msgs.into_iter().enumerate() {
            let cost_ns = if posted == 0 {
                self.profile.send_cost_ns(payload.len())
            } else {
                self.profile.batched_cost_ns(payload.len())
            };
            match self.post(to, from, payload, cost_ns) {
                Ok(()) => delivered += 1,
                Err(RdmaError::NoReceiver(_)) => {}
                Err(e) => return Err(e),
            }
        }
        // Count the doorbell over delivered sends only, so verbs and
        // coalesced stay consistent when some peers are gone.
        self.stats.record_doorbell(delivered as usize);
        Ok(delivered)
    }

    /// Receive from `mailbox`, advancing this endpoint's clock to the
    /// message's delivery time (never backwards). Blocks the real thread if
    /// the mailbox is empty.
    pub fn recv(&self, mailbox: &Mailbox) -> RdmaResult<Message> {
        let msg = mailbox.recv()?;
        self.observe_delivery(&msg);
        Ok(msg)
    }

    /// Non-blocking receive variant.
    pub fn try_recv(&self, mailbox: &Mailbox) -> RdmaResult<Message> {
        let msg = mailbox.try_recv()?;
        self.observe_delivery(&msg);
        Ok(msg)
    }

    /// Account for a message obtained outside [`Endpoint::recv`] (e.g.
    /// after a `drain`).
    pub fn observe_delivery(&self, msg: &Message) {
        // Recv "latency" is the virtual wait for delivery: zero when the
        // message was already in flight past our clock.
        let wait = msg.deliver_at_ns.saturating_sub(self.clock.now_ns());
        self.clock.advance_to(msg.deliver_at_ns);
        self.complete(VerbEvent {
            kind: OpKind::Recv,
            peer: None,
            addr: msg.from,
            bytes: msg.payload.len(),
            cost_ns: wait,
            queue_ns: 0,
            outcome: outcome::OK,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::to_verb_load;
    use telemetry::UtilSnapshot;

    /// The utilization plane folded from the rings of `eps`, each paired
    /// with its session tag.
    fn fold_rings(width_ns: u64, eps: &[(u64, &Endpoint)]) -> UtilSnapshot {
        let sessions: Vec<_> = eps
            .iter()
            .map(|&(tag, ep)| (tag, ep.flight_events().iter().filter_map(to_verb_load).collect()))
            .collect();
        telemetry::utilization::fold(width_ns, &sessions)
    }

    #[test]
    fn read_write_roundtrip_charges_time() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(1024);
        let ep = fabric.endpoint();
        ep.write(node, 16, b"hello").unwrap();
        let mut buf = [0u8; 5];
        ep.read(node, 16, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        let p = NetworkProfile::rdma_cx6();
        assert_eq!(ep.clock().now_ns(), 2 * p.rw_cost_ns(5));
        let s = ep.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
    }

    #[test]
    fn crash_makes_node_unreachable_then_revive_restores_data() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        let ep = fabric.endpoint();
        ep.write_u64(node, 0, 7).unwrap();
        fabric.crash(node).unwrap();
        assert_eq!(
            ep.read_u64(node, 0).unwrap_err(),
            RdmaError::NodeUnreachable(node)
        );
        fabric.revive(node).unwrap();
        assert_eq!(ep.read_u64(node, 0).unwrap(), 7);
    }

    #[test]
    fn replace_wipes_memory_but_keeps_id() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        let ep = fabric.endpoint();
        ep.write_u64(node, 0, 7).unwrap();
        fabric.crash(node).unwrap();
        fabric.replace(node, 64).unwrap();
        assert_eq!(ep.read_u64(node, 0).unwrap(), 0);
    }

    #[test]
    fn cas_records_failures() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        let ep = fabric.endpoint();
        assert_eq!(ep.cas(node, 0, 0, 1).unwrap(), 0);
        assert_eq!(ep.cas(node, 0, 0, 2).unwrap(), 1); // loses
        let s = ep.stats();
        assert_eq!(s.cas, 2);
        assert_eq!(s.cas_failures, 1);
    }

    #[test]
    fn out_of_bounds_error_names_the_node() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(8);
        let ep = fabric.endpoint();
        match ep.read_u64(node, 64).unwrap_err() {
            RdmaError::OutOfBounds { node: n, .. } => assert_eq!(n, node),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_cheaper_than_sequence() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(1024);
        let seq = fabric.endpoint();
        let bat = fabric.endpoint();
        let mut bufs = [[0u8; 8]; 8];
        for (i, b) in bufs.iter_mut().enumerate() {
            seq.read(node, (i * 8) as u64, b).unwrap();
        }
        let mut ops: Vec<(NodeId, u64, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| (node, (i * 8) as u64, b.as_mut_slice()))
            .collect();
        bat.read_batch(&mut ops).unwrap();
        assert!(bat.clock().now_ns() < seq.clock().now_ns() / 2);
        assert_eq!(bat.stats().reads, seq.stats().reads);
    }

    #[test]
    fn send_recv_advances_receiver_past_delivery_time() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let mb = fabric.mailboxes().register(42);
        let tx = fabric.endpoint();
        let rx = fabric.endpoint();
        tx.charge_local(10_000);
        tx.send(42, 1, vec![0xAB; 32]).unwrap();
        let msg = rx.recv(&mb).unwrap();
        assert_eq!(msg.payload.len(), 32);
        assert!(rx.clock().now_ns() >= 10_000);
        assert_eq!(rx.stats().recvs, 1);
    }

    #[test]
    fn send_batch_amortizes_and_skips_dead_peers() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let mb_a = fabric.mailboxes().register(1);
        let mb_b = fabric.mailboxes().register(2);
        let seq = fabric.endpoint();
        let bat = fabric.endpoint();
        for to in [1u64, 2] {
            seq.send(to, 9, vec![0u8; 32]).unwrap();
        }
        let delivered = bat
            .send_batch([
                (1u64, 9u64, vec![0u8; 32]),
                (2, 9, vec![0u8; 32]),
                (777, 9, vec![0u8; 32]), // never registered
            ])
            .unwrap();
        assert_eq!(delivered, 2);
        assert!(bat.clock().now_ns() < seq.clock().now_ns());
        assert_eq!(bat.stats().sends, 2);
        assert_eq!(bat.stats().doorbells, 1);
        assert_eq!(bat.stats().coalesced, 1);
        assert_eq!(bat.stats().wire_round_trips(), 1);
        assert_eq!(mb_a.len(), 2);
        assert_eq!(mb_b.len(), 2);
    }

    #[test]
    fn verb_latency_histograms_track_costs() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(1024);
        let ep = fabric.endpoint();
        let p = NetworkProfile::rdma_cx6();
        ep.write(node, 0, &[0u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        ep.read(node, 0, &mut buf).unwrap();
        let rl = ep.verb_latency(OpKind::Read);
        assert_eq!(rl.count(), 1);
        assert_eq!(rl.max(), p.rw_cost_ns(64));
        ep.reset();
        assert!(ep.verb_latency(OpKind::Read).is_empty());
    }

    #[test]
    fn spans_attribute_verbs_and_time_to_phases() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(1024);
        let ep = fabric.endpoint();
        let mut buf = [0u8; 8];
        {
            let _txn = ep.span(Phase::Execute);
            {
                let _fetch = ep.span(Phase::PageFetch);
                ep.read(node, 0, &mut buf).unwrap();
            }
            ep.charge_local(500); // execute-time compute
        }
        ep.read(node, 8, &mut buf).unwrap(); // outside any span
        let phases = ep.phase_snapshot();
        assert_eq!(phases.phase_verbs(Phase::PageFetch), 1);
        assert_eq!(phases.phase_verbs(Phase::Execute), 0);
        assert_eq!(phases.phase_ns(Phase::Execute), 500);
        assert_eq!(phases.verbs[telemetry::OTHER_BUCKET], 1);
        // Everything observed exactly once.
        assert_eq!(phases.total_ns(), ep.clock().now_ns());
        assert_eq!(phases.total_verbs(), ep.stats().round_trips());
    }

    #[test]
    fn partition_window_times_out_then_heals() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        let ep = fabric.endpoint();
        ep.write_u64(node, 0, 9).unwrap();
        let start = ep.clock().now_ns();
        fabric.install_fault_plan(
            FaultPlan::new(1)
                .detect_after_ns(7_000)
                .partition(node, start, start + 50_000),
        );
        assert_eq!(ep.read_u64(node, 0).unwrap_err(), RdmaError::Timeout(node));
        // Detection latency was charged.
        assert_eq!(ep.clock().now_ns(), start + 7_000);
        assert!(!ep.node_reachable(node) || fabric.is_alive(node)); // partition ≠ crash
        // Wait out the partition on the virtual clock: heals by itself.
        ep.charge_local(60_000);
        assert_eq!(ep.read_u64(node, 0).unwrap(), 9);
    }

    #[test]
    fn crash_window_is_hard_and_visible_to_reachability() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        let ep = fabric.endpoint();
        fabric.install_fault_plan(FaultPlan::new(1).crash(node, 0, 1_000_000));
        let e = ep.read_u64(node, 0).unwrap_err();
        assert_eq!(e, RdmaError::NodeUnreachable(node));
        assert!(!e.is_transient());
        assert!(!ep.node_reachable(node));
        fabric.clear_fault_plan();
        assert!(ep.node_reachable(node));
        assert!(ep.read_u64(node, 0).is_ok());
    }

    #[test]
    fn first_n_transients_then_clean() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        fabric.install_fault_plan(FaultPlan::new(3).transient_first_n(node, 2));
        let ep = fabric.endpoint();
        assert_eq!(ep.read_u64(node, 0).unwrap_err(), RdmaError::Transient(node));
        assert_eq!(ep.write_u64(node, 0, 1).unwrap_err(), RdmaError::Transient(node));
        assert!(ep.cas(node, 0, 0, 1).is_ok());
        // A second endpoint has its own first-N budget.
        let ep2 = fabric.endpoint();
        assert_eq!(ep2.read_u64(node, 0).unwrap_err(), RdmaError::Transient(node));
    }

    #[test]
    fn a_mixed_doorbell_prices_riders_marginally_and_queues_every_cas() {
        let p = NetworkProfile::rdma_cx6();
        let fabric = Fabric::new(p);
        let n0 = fabric.register_node(1 << 12);
        let n1 = fabric.register_node(1 << 12);
        // Word 64 of node 0 is already taken: that member loses.
        fabric.region(n0).unwrap().write_u64(64, 9).unwrap();
        fabric.region(n1).unwrap().write(256, &[7u8; 64]).unwrap();
        let ep = fabric.endpoint();
        let mut prevs = [u64::MAX; 3];
        let mut bufs = [[0u8; 64]; 3];
        {
            let [p0, p1, p2] = &mut prevs;
            let [b0, b1, b2] = &mut bufs;
            ep.doorbell(&mut [
                Wr::Cas { node: n0, offset: 0, expected: 0, new: 5, prev: p0 },
                Wr::Read { node: n0, offset: 256, dst: b0 },
                Wr::Cas { node: n0, offset: 64, expected: 0, new: 5, prev: p1 },
                Wr::Read { node: n0, offset: 320, dst: b1 },
                Wr::Cas { node: n1, offset: 0, expected: 0, new: 5, prev: p2 },
                Wr::Read { node: n1, offset: 256, dst: b2 },
            ])
            .unwrap();
        }
        assert_eq!(prevs, [0, 9, 0]);
        assert_eq!(bufs[2], [7u8; 64], "the READ behind a CAS sees the node's memory");
        assert_eq!(fabric.region(n0).unwrap().read_u64(0).unwrap(), 5);
        assert_eq!(fabric.region(n0).unwrap().read_u64(64).unwrap(), 9);
        // Leader CAS: full atomic round trip + its turn at the atomic
        // unit. Rider CAS: marginal cost + its turn. Rider READ: marginal.
        let unit = p.atomic_unit_ns;
        let rider_cas = p.batched_cost_ns(8) + unit;
        let rider_read = p.batched_cost_ns(64);
        assert_eq!(
            ep.clock().now_ns(),
            p.atomic_cost_ns() + unit + 2 * rider_cas + 3 * rider_read
        );
        assert_eq!(ep.clock().now_ns(), 1850 + 2 * 200 + 3 * 152);
        let s = ep.stats();
        assert_eq!((s.cas, s.reads, s.cas_failures), (3, 3, 1));
        assert_eq!((s.doorbells, s.coalesced, s.wire_round_trips()), (1, 5, 1));
        // Each node's atomic unit served exactly the CASes sent to it:
        // busy until its last one completed.
        let busy_until = |node: NodeId| {
            fabric
                .with_slot(node, |slot| slot.atomic_unit.busy_until_ns())
                .unwrap()
        };
        let second_cas_done = p.atomic_cost_ns() + unit + rider_read + rider_cas;
        assert_eq!(busy_until(n0), second_cas_done);
        assert_eq!(busy_until(n1), second_cas_done + rider_read + rider_cas);
        // An empty group is nothing at all.
        let before = (ep.clock().now_ns(), ep.stats());
        ep.doorbell(&mut []).unwrap();
        assert_eq!((ep.clock().now_ns(), ep.stats()), before);
    }

    #[test]
    fn batch_faults_are_all_or_nothing() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let a = fabric.register_node(64);
        let b = fabric.register_node(64);
        // Node b fails the first verb: the whole batch must fail before
        // any byte lands on node a.
        fabric.install_fault_plan(FaultPlan::new(5).transient_first_n(b, 1));
        let ep = fabric.endpoint();
        let err = ep
            .write_batch(&[(a, 0, &7u64.to_le_bytes()), (b, 0, &7u64.to_le_bytes())])
            .unwrap_err();
        assert_eq!(err, RdmaError::Transient(b));
        assert_eq!(fabric.region(a).unwrap().read_u64(0).unwrap(), 0);
        // Retry succeeds and writes both.
        ep.write_batch(&[(a, 0, &7u64.to_le_bytes()), (b, 0, &7u64.to_le_bytes())])
            .unwrap();
        assert_eq!(fabric.region(b).unwrap().read_u64(0).unwrap(), 7);
        // The same holds for a lock set: no word is taken before every
        // target passed, and a node named twice is checked once.
        let ep = fabric.endpoint();
        let (mut on_a, mut on_b) = (u64::MAX, u64::MAX);
        let group = |on_a: &mut u64, on_b: &mut u64| {
            ep.doorbell(&mut [
                Wr::Cas { node: a, offset: 8, expected: 0, new: 1, prev: on_a },
                Wr::Cas { node: b, offset: 8, expected: 0, new: 1, prev: on_b },
                Wr::Write { node: b, offset: 16, src: &[1u8; 8] },
            ])
        };
        assert_eq!(group(&mut on_a, &mut on_b), Err(RdmaError::Transient(b)));
        assert_eq!((on_a, on_b), (u64::MAX, u64::MAX), "no member ran");
        assert_eq!(fabric.region(a).unwrap().read_u64(8).unwrap(), 0);
        assert_eq!(group(&mut on_a, &mut on_b), Ok(()));
        assert_eq!((on_a, on_b), (0, 0));
        assert_eq!(ep.stats().cas, 2);
    }

    #[test]
    fn latency_spike_slows_but_succeeds() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        let base = fabric.endpoint();
        base.read_u64(node, 0).unwrap();
        let clean_cost = base.clock().now_ns();
        fabric.install_fault_plan(FaultPlan::new(0).latency_spike(node, 0, u64::MAX, 25_000));
        let ep = fabric.endpoint();
        ep.read_u64(node, 0).unwrap();
        assert_eq!(ep.clock().now_ns(), clean_cost + 25_000);
    }

    #[test]
    fn flight_recorder_is_free_in_virtual_time_and_attributes_events() {
        let run = |record: bool| {
            let fabric = Fabric::new(NetworkProfile::rdma_cx6());
            let node = fabric.register_node(1024);
            let ep = fabric.endpoint();
            if record {
                ep.enable_flight_recorder(1024);
            }
            ep.set_trace_id(77);
            {
                let _s = ep.span(Phase::LockAcquire);
                ep.cas(node, 16, 0, 1).unwrap();
                // Second CAS completes but loses (prev != expected).
                ep.cas(node, 16, 0, 2).unwrap();
            }
            ep.clear_trace_id();
            let mut buf = [0u8; 8];
            ep.read(node, 0, &mut buf).unwrap();
            (ep.clock().now_ns(), ep.flight_events())
        };
        let (t_off, ev_off) = run(false);
        let (t_on, ev_on) = run(true);
        assert_eq!(t_off, t_on, "recording must not advance virtual time");
        assert!(ev_off.is_empty());
        // PhaseBegin, 2x CAS, PhaseEnd, READ.
        assert_eq!(ev_on.len(), 5);
        assert_eq!(ev_on[0].kind, EventKind::PhaseBegin);
        assert_eq!(ev_on[1].txn, 77);
        assert_eq!(ev_on[1].phase, Phase::LockAcquire as u8);
        assert_eq!(ev_on[2].outcome, outcome::CAS_LOST);
        assert_eq!(ev_on[4].kind, EventKind::Verb(OpKind::Read));
        assert_eq!(ev_on[4].txn, 0, "trace id cleared");
        // The lost CAS fed the retry tally.
        let c = run_probe();
        assert_eq!(c, 1);

        fn run_probe() -> u64 {
            let fabric = Fabric::new(NetworkProfile::rdma_cx6());
            let node = fabric.register_node(1024);
            let ep = fabric.endpoint();
            ep.cas(node, 16, 0, 1).unwrap();
            ep.cas(node, 16, 0, 2).unwrap();
            let hot = ep.contention_snapshot().cas_top.ranked();
            assert_eq!(hot[0].key, pack_addr(node, 16));
            hot[0].count
        }
    }

    #[test]
    fn traced_waits_resolve_the_holders_live_trace() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        // Holder announces its trace under its lock-owner tag.
        fabric.announce_trace(42, 0x42_0001);
        let waiter = fabric.endpoint();
        waiter.enable_flight_recorder(16);
        waiter.set_trace_id(0x7_0001);
        waiter.charge_local(500);
        waiter.note_lock_wait_traced(pack_addr(node, 16), 500, 42);
        // Unknown tag (never announced, e.g. a zombie) resolves to 0.
        waiter.charge_local(200);
        waiter.note_lock_wait_traced(pack_addr(node, 16), 200, 999);
        // Local lock wait with a directly known holder trace.
        waiter.charge_local(100);
        waiter.note_local_lock_wait(7, 100, 0x9_0003);
        let evs: Vec<Event> = waiter.recorder.tail(3).collect();
        assert!(evs.iter().all(|e| e.txn == 0x7_0001));
        assert_eq!(evs[0].kind, EventKind::Wait);
        assert_eq!(evs[0].aux, 0x42_0001);
        assert_eq!(evs[0].ts_ns, 0, "wait charge is backdated");
        assert_eq!(evs[1].aux, 0);
        assert_eq!(evs[2].aux, 0x9_0003);
        // Retired traces stop resolving.
        fabric.retire_trace(42);
        assert_eq!(fabric.trace_of(42), 0);
        // The forensic translation keeps the holders.
        let path: Vec<telemetry::PathEvent> = waiter.forensic_tail(0x7_0001, 0).collect();
        assert_eq!(path.len(), 3);
        // The tail starts where the caller read the push counter.
        assert_eq!(waiter.forensic_tail(0x7_0001, 2).count(), 1);
        assert_eq!(waiter.forensic_tail(0x7_0002, 0).count(), 0);
        assert_eq!(path[0].step, telemetry::StepKind::Wait { holder: 0x42_0001 });
        // Local waits stay out of the hot-key tally; fabric waits feed it.
        assert_eq!(waiter.contention_snapshot().wait_ns_total, 700);
    }

    #[test]
    fn timeseries_is_free_in_virtual_time_and_buckets_verbs() {
        use telemetry::Metric;
        let run = |sample: bool| {
            let fabric = Fabric::new(NetworkProfile::rdma_cx6());
            let node = fabric.register_node(1024);
            let ep = fabric.endpoint();
            if sample {
                ep.enable_timeseries(10_000);
            }
            ep.write(node, 0, &[7u8; 64]).unwrap();
            let mut buf = [0u8; 64];
            ep.read(node, 0, &mut buf).unwrap();
            // Doorbell batch: 3 member verbs must net out to 1 wire RT.
            let mut a = [0u8; 16];
            let mut b = [0u8; 16];
            let mut c = [0u8; 16];
            ep.read_batch(&mut [(node, 0, &mut a), (node, 16, &mut b), (node, 32, &mut c)])
                .unwrap();
            ep.note_lock_wait(42, 500);
            (ep.clock().now_ns(), ep.series_snapshot())
        };
        let (t_off, s_off) = run(false);
        let (t_on, s_on) = run(true);
        assert_eq!(t_off, t_on, "sampling must not advance virtual time");
        assert!(s_off.is_empty());
        assert_eq!(s_on.window_ns, 10_000);
        assert_eq!(s_on.total(Metric::Writes), 1);
        assert_eq!(s_on.total(Metric::Reads), 4);
        // 2 standalone verbs + 1 doorbell group = 3 paid wire RTs.
        assert_eq!(s_on.total(Metric::WireRts), 3);
        // Bytes: 64 write + 64 read + 3×16 batched reads.
        assert_eq!(s_on.total(Metric::BytesWire), 64 + 64 + 48);
        assert_eq!(s_on.total(Metric::LockWaits), 1);
        assert_eq!(s_on.total(Metric::LockWaitNs), 500);
        // Everything above lands in windows covering the run's makespan.
        assert!(s_on.len() as u64 * s_on.window_ns >= t_on);
        // reset() drops the windows but keeps sampling on, like the
        // flight recorder keeps its capacity across phases.
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        let ep = fabric.endpoint();
        ep.enable_timeseries(10_000);
        ep.read_u64(node, 0).unwrap();
        ep.reset();
        assert!(ep.series_snapshot().is_empty());
        assert!(ep.series.enabled());
    }

    #[test]
    fn utilization_is_free_in_virtual_time_and_attributes_load() {
        let run = |capture: bool| {
            let fabric = Fabric::new(NetworkProfile::rdma_cx6());
            let n0 = fabric.register_node(1 << 20);
            let n1 = fabric.register_node(1 << 20);
            let ep = fabric.endpoint();
            if capture {
                ep.enable_flight_recorder(64);
            }
            {
                let _g = ep.span(Phase::PageFetch);
                let mut buf = [0u8; 128];
                ep.read(n0, 0, &mut buf).unwrap();
            }
            {
                let _g = ep.span(Phase::Writeback);
                ep.write(n0, 0, &[7u8; 64]).unwrap();
                ep.write(n1, 1 << 17, &[7u8; 32]).unwrap();
            }
            ep.cas(n0, 0, 0, 1).unwrap();
            (ep.clock().now_ns(), fold_rings(10_000, &[(9, &ep)]))
        };
        let (t_off, u_off) = run(false);
        let (t_on, u_on) = run(true);
        assert_eq!(t_off, t_on, "utilization capture must not advance virtual time");
        assert!(u_off.is_empty());
        assert_eq!(u_on.window_ns, 10_000);
        assert_eq!(u_on.nodes.len(), 2);
        let t0 = u_on.nodes[0].totals();
        assert_eq!(t0.egress_bytes, 128);
        assert_eq!(t0.ingress_bytes, 64 + 8); // write + CAS payload
        assert_eq!(t0.verbs, 3);
        assert!(t0.remote_ns > 0);
        let t1 = u_on.nodes[1].totals();
        assert_eq!(t1.ingress_bytes, 32);
        // Heat: node 0's range 0 is hottest by bytes; node 1's write at
        // 128 KiB lands in its own range (node ids are registration
        // order: 0 then 1).
        let heat = u_on.heat_bytes.ranked();
        assert_eq!(heat[0].key, telemetry::heat_key(0, 0));
        assert!(heat.iter().any(|e| e.key == telemetry::heat_key(1, 1 << 17)));
        // Session and phase splits.
        assert_eq!(u_on.by_session.ranked()[0].key, 9);
        assert_eq!(u_on.by_phase[Phase::PageFetch as usize].bytes, 128);
        assert_eq!(u_on.by_phase[Phase::Writeback as usize].bytes, 96);
    }

    #[test]
    fn cas_queueing_surfaces_in_the_utilization_hwm() {
        // Two endpoints hammer one atomic unit; the loser's queue delay
        // must appear in the high-water mark, above the unit's own
        // service time.
        let p = NetworkProfile::rdma_cx6();
        let fabric = Fabric::new(p);
        let node = fabric.register_node(64);
        let a = fabric.endpoint();
        let b = fabric.endpoint();
        a.enable_flight_recorder(64);
        b.enable_flight_recorder(64);
        for _ in 0..32 {
            let _ = a.cas(node, 0, 0, 1);
            let _ = b.cas(node, 0, 1, 0);
        }
        let util = fold_rings(10_000, &[(1, &a), (2, &b)]);
        let hwm = util.nodes[0]
            .windows
            .iter()
            .map(|w| w.queue_hwm_ns)
            .max()
            .unwrap();
        assert!(hwm > p.atomic_unit_ns, "atomic-unit queueing must surface in the hwm");
    }

    #[test]
    fn every_plane_agrees_on_every_verb_entry_point() {
        const KINDS: [(OpKind, Metric); 6] = [
            (OpKind::Read, Metric::Reads),
            (OpKind::Write, Metric::Writes),
            (OpKind::Cas, Metric::Cas),
            (OpKind::Faa, Metric::Faa),
            (OpKind::Send, Metric::Sends),
            (OpKind::Recv, Metric::Recvs),
        ];
        // A script through all 12 entry points. Windows are narrower
        // than a verb, so batches straddle them.
        let run = |planes: bool| {
            let fabric = Fabric::new(NetworkProfile::rdma_cx6());
            let n0 = fabric.register_node(1 << 20);
            let n1 = fabric.register_node(1 << 20);
            let inbox = fabric.mailboxes().register(5);
            let ep = fabric.endpoint();
            if planes {
                ep.enable_timeseries(1_000);
                ep.enable_flight_recorder(256);
            }
            // The SEND batch goes first: its doorbell rings after its
            // members, so the series' wire-RT count only catches up
            // `delivered - 1` verbs later.
            let delivered = ep
                .send_batch([
                    (5u64, 1u64, vec![1u8; 24]),
                    (777, 1, vec![2u8; 24]), // never registered
                    (5, 1, vec![3u8; 40]),
                ])
                .unwrap();
            assert_eq!(delivered, 2);
            ep.send(5, 1, vec![4u8; 16]).unwrap();
            ep.write(n0, 64, &[7u8; 100]).unwrap();
            let mut buf = [0u8; 100];
            ep.read(n0, 64, &mut buf).unwrap();
            ep.write_u64(n1, 8, 9).unwrap();
            assert_eq!(ep.read_u64(n1, 8).unwrap(), 9);
            let (mut a, mut b, mut c) = ([0u8; 16], [0u8; 32], [0u8; 8]);
            ep.read_batch(&mut [(n0, 0, &mut a), (n1, 1 << 17, &mut b), (n0, 64, &mut c)])
                .unwrap();
            ep.write_batch(&[(n1, 0, &[1u8; 48]), (n0, 1 << 18, &[2u8; 8])])
                .unwrap();
            assert_eq!(ep.cas(n0, 512, 0, 1).unwrap(), 0);
            assert_eq!(ep.cas(n0, 512, 0, 2).unwrap(), 1); // lost
            assert_eq!(ep.faa(n1, 256, 5).unwrap(), 0);
            // The mixed doorbell: a leader CAS that wins, a READ riding
            // behind it, a rider CAS that loses (word 512 of node 0 is
            // taken above) and a WRITE, across both nodes.
            let (mut won, mut lost) = (u64::MAX, u64::MAX);
            let mut d = [0u8; 24];
            ep.doorbell(&mut [
                Wr::Cas { node: n1, offset: 512, expected: 0, new: 7, prev: &mut won },
                Wr::Read { node: n1, offset: 64, dst: &mut d },
                Wr::Cas { node: n0, offset: 512, expected: 0, new: 3, prev: &mut lost },
                Wr::Write { node: n0, offset: 1 << 19, src: &[5u8; 16] },
            ])
            .unwrap();
            assert_eq!((won, lost), (0, 1));
            ep.recv(&inbox).unwrap();
            ep.try_recv(&inbox).unwrap();
            for msg in inbox.drain() {
                ep.observe_delivery(&msg);
            }
            ep
        };
        let ep = run(true);
        assert_eq!(run(false).clock().now_ns(), ep.clock().now_ns(), "planes are free");

        let stats = ep.stats();
        let series = ep.series_snapshot();
        let events = ep.flight_events();
        let counted = [stats.reads, stats.writes, stats.cas, stats.faa, stats.sends, stats.recvs];
        assert_eq!(counted, [6, 5, 4, 1, 3, 3]);
        for ((kind, metric), n) in KINDS.into_iter().zip(counted) {
            assert_eq!(series.total(metric), n, "{kind:?}: series");
            assert_eq!(ep.verb_latency(kind).count(), n, "{kind:?}: latency histogram");
            let in_ring = events.iter().filter(|e| e.kind == EventKind::Verb(kind)).count();
            assert_eq!(in_ring as u64, n, "{kind:?}: flight recorder");
        }
        // One CAS lost alone, one as a doorbell rider: each counted once.
        assert_eq!(stats.cas_failures, 2);
        let lost: Vec<&Event> = events.iter().filter(|e| e.outcome == outcome::CAS_LOST).collect();
        assert_eq!(lost.len(), 2);
        assert!(lost.iter().all(|e| e.addr == pack_addr(0, 512)));
        let hot_word = ep.contention_snapshot().cas_top.ranked()[0];
        assert_eq!((hot_word.key, hot_word.count), (pack_addr(0, 512), 2));

        // 19 verbs pay 19 - 7 riders (1 SEND, 2 READ, 1 WRITE, and the
        // mixed doorbell's READ, CAS and WRITE) wire RTs.
        assert_eq!(stats.wire_round_trips(), 12);
        assert_eq!(series.total(Metric::WireRts), stats.wire_round_trips());
        // RECVs re-observe the senders' bytes; they are not wire bytes.
        let sent = stats.bytes_read + stats.bytes_written + stats.bytes_sent + 5 * 8;
        assert_eq!(series.total(Metric::BytesWire), sent);
        assert_eq!(stats.bytes_recvd, stats.bytes_sent);

        // Utilization sees exactly the node-addressed verbs, per node.
        let util = fold_rings(1_000, &[(0, &ep)]);
        for (track, node) in util.nodes.iter().zip([0u16, 1]) {
            assert_eq!(track.node, node as u64);
            let to_node: Vec<&Event> = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Verb(_)) && e.peer == node)
                .collect();
            let t = track.totals();
            assert_eq!(t.verbs, to_node.len() as u64, "node {node}: verbs");
            let bytes: u64 = to_node.iter().map(|e| e.bytes as u64).sum();
            assert_eq!(t.ingress_bytes + t.egress_bytes, bytes, "node {node}: bytes");
            let ns: u64 = to_node.iter().map(|e| e.dur_ns).sum();
            assert_eq!(t.remote_ns, ns, "node {node}: remote ns");
        }
        assert_eq!(util.node_verbs(), [(0, 9), (1, 7)]);
        // Both planes window the one-sided verbs alike.
        assert_eq!((series.window_ns, util.window_ns), (1_000, 1_000));
        for i in 0..series.len() {
            let one_sided: u64 = [Metric::Reads, Metric::Writes, Metric::Cas, Metric::Faa]
                .into_iter()
                .map(|m| series.get(i, m))
                .sum();
            let to_nodes: u64 = util.nodes.iter().filter_map(|n| n.windows.get(i)).map(|w| w.verbs).sum();
            assert_eq!(to_nodes, one_sided, "window {i}");
        }
        // The ring carries each atomic's turn at its node's atomic unit.
        // With one endpoint nothing queues ahead of it, so every CAS and
        // FAA, the two lost ones included, waited exactly the unit's
        // service time.
        let unit = NetworkProfile::rdma_cx6().atomic_unit_ns;
        assert!(lost.iter().all(|e| e.aux == unit));
        for (track, node) in util.nodes.iter().zip([0u16, 1]) {
            for (i, w) in track.windows.iter().enumerate() {
                let atomic_ends_here = events.iter().any(|e| {
                    matches!(e.kind, EventKind::Verb(OpKind::Cas | OpKind::Faa))
                        && e.peer == node
                        && (e.ts_ns + e.dur_ns) / 1_000 == i as u64
                });
                assert_eq!(w.queue_hwm_ns, if atomic_ends_here { unit } else { 0 }, "node {node} window {i}");
            }
        }

        // `complete` folds a verb into the series with one window
        // lookup. Replaying the ring through a fresh recorder one
        // counter at a time must land every verb in the same windows.
        let ref_series = SeriesRecorder::new();
        ref_series.enable(1_000);
        for e in &events {
            let EventKind::Verb(kind) = e.kind else { continue };
            let end = e.ts_ns + e.dur_ns;
            ref_series.note(end, VERB_METRIC[kind as usize], 1);
            if kind != OpKind::Recv {
                ref_series.note(end, Metric::BytesWire, e.bytes as u64);
            }
        }
        // Wire RTs follow the doorbell mark, which the ring does not
        // carry (their total is checked above).
        let mut series = series;
        for w in &mut series.windows {
            w[Metric::WireRts as usize] = 0;
        }
        assert_eq!(series, ref_series.snapshot());

        // A doorbell of one member is the scalar verb: same clock, same
        // counters, same events in every plane — also when the fault plan
        // slows it down (the READ and the first CAS carry the spike in
        // their own cost) or refuses it.
        let one = |as_doorbell: bool| {
            let fabric = Fabric::new(NetworkProfile::rdma_cx6());
            let node = fabric.register_node(1 << 12);
            fabric.install_fault_plan(
                FaultPlan::new(3)
                    .latency_spike(node, 1_000, 4_000, 300)
                    .partition(node, 6_500, 9_000),
            );
            let ep = fabric.endpoint();
            ep.enable_timeseries(1_000);
            ep.enable_flight_recorder(64);
            let mut got = [0u8; 40];
            let mut prevs = [u64::MAX; 3];
            // WRITE, READ, a CAS that wins, one that loses, then a CAS
            // inside the partition window.
            let refused = if as_doorbell {
                let [won, lost, cut] = &mut prevs;
                ep.doorbell(&mut [Wr::Write { node, offset: 64, src: &[9u8; 40] }]).unwrap();
                ep.doorbell(&mut [Wr::Read { node, offset: 64, dst: &mut got }]).unwrap();
                ep.doorbell(&mut [Wr::Cas { node, offset: 8, expected: 0, new: 4, prev: won }]).unwrap();
                ep.doorbell(&mut [Wr::Cas { node, offset: 8, expected: 0, new: 6, prev: lost }]).unwrap();
                ep.doorbell(&mut [Wr::Cas { node, offset: 8, expected: 4, new: 0, prev: cut }])
            } else {
                ep.write(node, 64, &[9u8; 40]).unwrap();
                ep.read(node, 64, &mut got).unwrap();
                prevs[0] = ep.cas(node, 8, 0, 4).unwrap();
                prevs[1] = ep.cas(node, 8, 0, 6).unwrap();
                ep.cas(node, 8, 4, 0).map(|prev| prevs[2] = prev)
            };
            assert_eq!(refused, Err(RdmaError::Timeout(node)));
            assert_eq!((got, prevs), ([9u8; 40], [0, 4, u64::MAX]));
            let events = ep.flight_events();
            let slow_cas = |e: &&Event| e.kind == EventKind::Verb(OpKind::Cas) && e.dur_ns == 1_850 + 300;
            assert_eq!(events.iter().filter(slow_cas).count(), 1, "the spike is part of the verb");
            (
                ep.clock().now_ns(),
                ep.stats(),
                ep.flight_events(),
                ep.series_snapshot(),
                fold_rings(1_000, &[(0, &ep)]),
            )
        };
        assert_eq!(one(true), one(false));
    }

    #[test]
    fn concurrent_cas_lock_mutual_exclusion() {
        // A CAS spinlock over the fabric must actually exclude: 4 threads
        // increment a non-atomic-looking counter (read, +1, write) 1000x
        // each under the lock; the total must be exact.
        let fabric = Fabric::new(NetworkProfile::zero());
        let node = fabric.register_node(64);
        const LOCK: u64 = 0;
        const DATA: u64 = 8;
        std::thread::scope(|s| {
            for tid in 1..=4u64 {
                let fabric = fabric.clone();
                s.spawn(move || {
                    let ep = fabric.endpoint();
                    for _ in 0..1000 {
                        while ep.cas(node, LOCK, 0, tid).unwrap() != 0 {
                            std::thread::yield_now();
                        }
                        let v = ep.read_u64(node, DATA).unwrap();
                        ep.write_u64(node, DATA, v + 1).unwrap();
                        ep.write_u64(node, LOCK, 0).unwrap();
                    }
                });
            }
        });
        let ep = fabric.endpoint();
        assert_eq!(ep.read_u64(node, DATA).unwrap(), 4000);
    }
}
