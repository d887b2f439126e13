//! Per-thread virtual clocks.
//!
//! Each worker thread in a simulation owns one [`Clock`]. Simulated work —
//! network round trips, local DRAM accesses, CPU processing — advances the
//! clock by a modeled number of nanoseconds. Wall-clock time is never
//! consulted, so results are deterministic and independent of the host.
//!
//! Aggregating across threads: a parallel phase that runs `n` workers has
//! simulated makespan `max_i(clock_i)`, and simulated throughput
//! `total_ops / max_i(clock_i)`.

use std::cell::Cell;

use std::sync::Arc;

/// A monotonically increasing virtual clock, in nanoseconds.
///
/// `Clock` is intentionally `!Sync`-friendly: it is meant to be owned by a
/// single thread (one per [`crate::Endpoint`]). Interior mutability via
/// `Cell` keeps `advance` free of atomic traffic on the hot path.
#[derive(Debug, Default)]
pub struct Clock {
    ns: Cell<u64>,
}

impl Clock {
    /// A fresh clock at t = 0.
    pub fn new() -> Self {
        Self { ns: Cell::new(0) }
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.ns.get()
    }

    /// Advance the clock by `delta_ns` of simulated work.
    #[inline]
    pub fn advance(&self, delta_ns: u64) {
        self.ns.set(self.ns.get().saturating_add(delta_ns));
    }

    /// Jump the clock forward to `target_ns` if it is currently behind.
    ///
    /// Used to model waiting on a shared resource (e.g. a memory-node CPU
    /// that is busy until a later virtual instant).
    #[inline]
    pub fn advance_to(&self, target_ns: u64) {
        if target_ns > self.ns.get() {
            self.ns.set(target_ns);
        }
    }

    /// Reset to t = 0 (between experiment phases).
    pub fn reset(&self) {
        self.ns.set(0);
    }
}

/// A shared virtual-time high-water mark.
///
/// Models a serially shared resource (e.g. the weak CPU of a memory node or
/// a single-writer log device): callers *reserve* a service interval and are
/// told when their request completes, which naturally produces queueing
/// delay under saturation.
#[derive(Debug, Default)]
struct TimelineState {
    /// The device finishes its last accepted request at this instant.
    tail_ns: u64,
    /// Start of the window the device's busy fraction is measured over
    /// (the saturation test of [`SharedTimeline::reserve`]; the
    /// fabric-utilization plane is a separate, offline fold over the
    /// endpoints' flight-recorder rings).
    anchor_ns: u64,
    /// Service time accumulated inside the window.
    busy_ns: u64,
}

/// See [`SharedTimeline::reserve`] for the queueing semantics.
#[derive(Debug, Default)]
pub struct SharedTimeline {
    state: parking_lot::Mutex<TimelineState>,
}

impl SharedTimeline {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            state: parking_lot::Mutex::new(TimelineState::default()),
        })
    }

    /// Reserve `service_ns` of exclusive service starting no earlier than
    /// `arrival_ns`. Returns the virtual completion time.
    ///
    /// Queueing semantics for a request arriving *before* the current
    /// tail (each simulation thread owns its own virtual clock, so this
    /// is common):
    ///
    /// * arrival **near the tail** (within `10 x service`): normal FIFO
    ///   queueing behind the tail;
    /// * arrival far behind a tail built by a **saturated** device
    ///   (busy ≳ 90% of the window): still queue — the device has had no
    ///   idle gaps, so the backlog is real;
    /// * arrival far behind an **underutilized** tail: served at arrival
    ///   — the device had idle gaps then, and charging tail-wait would
    ///   couple unrelated clients' clocks and serialize the simulation.
    pub fn reserve(&self, arrival_ns: u64, service_ns: u64) -> u64 {
        let near_window = service_ns.saturating_mul(10);
        let mut s = self.state.lock();
        let span = s.tail_ns.saturating_sub(s.anchor_ns);
        let saturated = span > near_window && (s.busy_ns as u128 * 10) >= (span as u128 * 9);
        let start = if arrival_ns >= s.tail_ns {
            arrival_ns
        } else if s.tail_ns - arrival_ns <= near_window || saturated {
            s.tail_ns
        } else {
            arrival_ns
        };
        let done = start.saturating_add(service_ns);
        s.tail_ns = s.tail_ns.max(done);
        // Service that starts before the window is none of its busy time:
        // counted, a stream of requests far behind a tail that one early
        // request set would read as a saturated window and queue behind
        // that tail.
        if start >= s.anchor_ns {
            s.busy_ns = s.busy_ns.saturating_add(service_ns);
        }
        // Decay the busy-fraction window so ancient idle periods do not
        // mask current saturation (and vice versa).
        let span = s.tail_ns - s.anchor_ns.min(s.tail_ns);
        if span > near_window.saturating_mul(100).max(1_000) {
            s.anchor_ns = s.tail_ns - span / 2;
            s.busy_ns = (s.busy_ns / 2).min(span / 2);
        }
        done
    }

    /// The time at which the resource next becomes idle.
    pub fn busy_until_ns(&self) -> u64 {
        self.state.lock().tail_ns
    }

    /// Reset between experiment phases.
    pub fn reset(&self) {
        *self.state.lock() = TimelineState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = Clock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(100);
        c.advance(50);
        assert_eq!(c.now_ns(), 150);
    }

    #[test]
    fn clock_advance_to_never_goes_backwards() {
        let c = Clock::new();
        c.advance(1000);
        c.advance_to(500);
        assert_eq!(c.now_ns(), 1000);
        c.advance_to(2000);
        assert_eq!(c.now_ns(), 2000);
    }

    #[test]
    fn clock_saturates_instead_of_overflowing() {
        let c = Clock::new();
        c.advance(u64::MAX - 1);
        c.advance(100);
        assert_eq!(c.now_ns(), u64::MAX);
    }

    #[test]
    fn timeline_queues_overlapping_requests() {
        let t = SharedTimeline::new();
        // Two requests arriving at t=0, each needing 100ns of service:
        // the second must wait for the first.
        let d1 = t.reserve(0, 100);
        let d2 = t.reserve(0, 100);
        assert_eq!(d1, 100);
        assert_eq!(d2, 200);
        // A request arriving after the queue drained starts immediately.
        let d3 = t.reserve(500, 100);
        assert_eq!(d3, 600);
    }

    #[test]
    fn arrivals_behind_the_window_never_saturate_it() {
        // One request far ahead of everyone else sets the tail; a long
        // stream far behind it had an idle device and is served at once.
        let t = SharedTimeline::new();
        let ahead = 1_000_000;
        assert_eq!(t.reserve(ahead, 50), ahead + 50);
        for arrival in (0..500_000).step_by(100) {
            assert_eq!(t.reserve(arrival, 50), arrival + 50, "arrival {arrival}");
        }
    }

    #[test]
    fn timeline_is_race_free_under_threads() {
        let t = SharedTimeline::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = &t;
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.reserve(0, 10);
                    }
                });
            }
        });
        // All requests arrive at t=0; only those within the 10x-service
        // window of the moving tail queue behind it, the rest are served
        // in (modeled) idle gaps. The tail must cover at least the
        // queue-window depth and never exceed full serialization.
        assert!(t.busy_until_ns() >= 110);
        assert!(t.busy_until_ns() <= 80_000);
    }

    #[test]
    fn timeline_does_not_couple_lagging_clients() {
        let t = SharedTimeline::new();
        // A client far ahead in virtual time pushes the tail out.
        let d1 = t.reserve(1_000_000, 100);
        assert_eq!(d1, 1_000_100);
        // A client far behind is NOT dragged to the tail: the device was
        // idle at its (virtual) arrival.
        let d2 = t.reserve(500, 100);
        assert_eq!(d2, 600);
        // But a near-tail arrival still queues.
        let d3 = t.reserve(1_000_050, 100);
        assert_eq!(d3, 1_000_200);
    }
}
