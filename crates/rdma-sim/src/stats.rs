//! Per-endpoint operation statistics.
//!
//! The paper evaluates designs by *round trips per operation* (§6 Challenge
//! 10) as much as by time; every endpoint therefore counts verbs and bytes.
//! Counters are plain `u64` behind a `Cell` because an endpoint is owned by
//! one thread; snapshots are cheap copies.
//!
//! One-sided and two-sided traffic are accounted in separate byte
//! counters (`bytes_read`/`bytes_written` vs `bytes_sent`/`bytes_recvd`)
//! so reports can distinguish RDMA payload movement from RPC messaging —
//! the ratio between the two is exactly what the paper's one-sided
//! redesign arguments are about.

use std::cell::Cell;

/// The verb classes we account separately. Declaration order is the
/// index into per-class tables (`kind as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One-sided remote read.
    Read,
    /// One-sided remote write.
    Write,
    /// 8-byte compare-and-swap.
    Cas,
    /// 8-byte fetch-and-add.
    Faa,
    /// Two-sided send (incl. RPC request).
    Send,
    /// Two-sided receive.
    Recv,
}

/// Mutable per-endpoint counters.
#[derive(Debug, Default)]
pub struct OpStats {
    reads: Cell<u64>,
    writes: Cell<u64>,
    cas: Cell<u64>,
    faa: Cell<u64>,
    sends: Cell<u64>,
    recvs: Cell<u64>,
    bytes_read: Cell<u64>,
    bytes_written: Cell<u64>,
    bytes_sent: Cell<u64>,
    bytes_recvd: Cell<u64>,
    cas_failures: Cell<u64>,
    doorbells: Cell<u64>,
    coalesced: Cell<u64>,
}

impl OpStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&self, kind: OpKind, bytes: usize) {
        match kind {
            OpKind::Read => {
                self.reads.set(self.reads.get() + 1);
                self.bytes_read.set(self.bytes_read.get() + bytes as u64);
            }
            OpKind::Write => {
                self.writes.set(self.writes.get() + 1);
                self.bytes_written
                    .set(self.bytes_written.get() + bytes as u64);
            }
            OpKind::Cas => self.cas.set(self.cas.get() + 1),
            OpKind::Faa => self.faa.set(self.faa.get() + 1),
            OpKind::Send => {
                self.sends.set(self.sends.get() + 1);
                self.bytes_sent.set(self.bytes_sent.get() + bytes as u64);
            }
            OpKind::Recv => {
                self.recvs.set(self.recvs.get() + 1);
                self.bytes_recvd.set(self.bytes_recvd.get() + bytes as u64);
            }
        }
    }

    /// A CAS verb that completed but did not install its new value.
    #[inline]
    pub fn record_cas_failure(&self) {
        self.cas_failures.set(self.cas_failures.get() + 1);
    }

    /// A doorbell ring covering `ops` verbs posted as one batch. Each verb
    /// still counts individually via [`OpStats::record`]; this tracks how
    /// many *wire* round trips were saved: `ops - 1` verbs rode along. A
    /// group of one is a verb posted alone: nothing rode, nothing counts.
    #[inline]
    pub fn record_doorbell(&self, ops: usize) {
        if ops < 2 {
            return;
        }
        self.doorbells.set(self.doorbells.get() + 1);
        self.coalesced.set(self.coalesced.get() + (ops as u64 - 1));
    }

    /// Live verb count (all kinds) — cheap enough for every span boundary.
    #[inline]
    pub fn verbs_now(&self) -> u64 {
        self.reads.get()
            + self.writes.get()
            + self.cas.get()
            + self.faa.get()
            + self.sends.get()
    }

    /// Live wire round trips: verbs minus doorbell riders.
    #[inline]
    pub fn wire_rts_now(&self) -> u64 {
        self.verbs_now().saturating_sub(self.coalesced.get())
    }

    /// Copy out the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.get(),
            writes: self.writes.get(),
            cas: self.cas.get(),
            faa: self.faa.get(),
            sends: self.sends.get(),
            recvs: self.recvs.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            bytes_sent: self.bytes_sent.get(),
            bytes_recvd: self.bytes_recvd.get(),
            cas_failures: self.cas_failures.get(),
            doorbells: self.doorbells.get(),
            coalesced: self.coalesced.get(),
        }
    }

    /// Zero all counters (between experiment phases).
    pub fn reset(&self) {
        self.reads.set(0);
        self.writes.set(0);
        self.cas.set(0);
        self.faa.set(0);
        self.sends.set(0);
        self.recvs.set(0);
        self.bytes_read.set(0);
        self.bytes_written.set(0);
        self.bytes_sent.set(0);
        self.bytes_recvd.set(0);
        self.cas_failures.set(0);
        self.doorbells.set(0);
        self.coalesced.set(0);
    }
}

/// An immutable copy of endpoint counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub cas: u64,
    pub faa: u64,
    pub sends: u64,
    pub recvs: u64,
    /// Payload bytes moved by one-sided READ verbs.
    pub bytes_read: u64,
    /// Payload bytes moved by one-sided WRITE verbs.
    pub bytes_written: u64,
    /// Payload bytes carried by two-sided SENDs (RPC requests/replies out).
    pub bytes_sent: u64,
    /// Payload bytes delivered by two-sided RECVs.
    pub bytes_recvd: u64,
    pub cas_failures: u64,
    /// Doorbell rings: batched verb groups posted as one WQE list.
    pub doorbells: u64,
    /// Verbs beyond the first in each doorbell group (wire RTs saved).
    pub coalesced: u64,
}

impl StatsSnapshot {
    /// Total one-sided + atomic round trips (the metric of §6). Counts
    /// *verbs*: a doorbell-batched group of k ops contributes k here.
    pub fn round_trips(&self) -> u64 {
        self.reads + self.writes + self.cas + self.faa + self.sends
    }

    /// Round trips actually paid on the wire: verbs minus the ops that
    /// rode along in a doorbell batch behind the group leader.
    pub fn wire_round_trips(&self) -> u64 {
        self.round_trips().saturating_sub(self.coalesced)
    }

    /// Mean verbs per doorbell ring over the batched fraction of traffic.
    pub fn mean_batch_size(&self) -> f64 {
        if self.doorbells == 0 {
            1.0
        } else {
            (self.doorbells + self.coalesced) as f64 / self.doorbells as f64
        }
    }

    /// Bytes moved by one-sided verbs only (READ + WRITE payloads).
    pub fn one_sided_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Bytes moved by two-sided messaging only (SEND + RECV payloads).
    pub fn two_sided_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_recvd
    }

    /// Total bytes moved either direction by any verb class.
    pub fn total_bytes(&self) -> u64 {
        self.one_sided_bytes() + self.two_sided_bytes()
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;
    fn add(self, o: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads + o.reads,
            writes: self.writes + o.writes,
            cas: self.cas + o.cas,
            faa: self.faa + o.faa,
            sends: self.sends + o.sends,
            recvs: self.recvs + o.recvs,
            bytes_read: self.bytes_read + o.bytes_read,
            bytes_written: self.bytes_written + o.bytes_written,
            bytes_sent: self.bytes_sent + o.bytes_sent,
            bytes_recvd: self.bytes_recvd + o.bytes_recvd,
            cas_failures: self.cas_failures + o.cas_failures,
            doorbells: self.doorbells + o.doorbells,
            coalesced: self.coalesced + o.coalesced,
        }
    }
}

impl std::iter::Sum for StatsSnapshot {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(StatsSnapshot::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_kind() {
        let s = OpStats::new();
        s.record(OpKind::Read, 64);
        s.record(OpKind::Read, 64);
        s.record(OpKind::Write, 128);
        s.record(OpKind::Cas, 8);
        s.record_cas_failure();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.cas, 1);
        assert_eq!(snap.cas_failures, 1);
        assert_eq!(snap.bytes_read, 128);
        assert_eq!(snap.bytes_written, 128);
        assert_eq!(snap.round_trips(), 4);
    }

    #[test]
    fn two_sided_bytes_are_separate() {
        let s = OpStats::new();
        s.record(OpKind::Read, 64);
        s.record(OpKind::Send, 40);
        s.record(OpKind::Recv, 24);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_read, 64);
        assert_eq!(snap.bytes_written, 0);
        assert_eq!(snap.bytes_sent, 40);
        assert_eq!(snap.bytes_recvd, 24);
        assert_eq!(snap.one_sided_bytes(), 64);
        assert_eq!(snap.two_sided_bytes(), 64);
        assert_eq!(snap.total_bytes(), 128);
    }

    #[test]
    fn doorbell_accounting_separates_wire_from_verbs() {
        let s = OpStats::new();
        for _ in 0..5 {
            s.record(OpKind::Read, 64);
        }
        s.record_doorbell(4); // 4 of the 5 reads went out as one group
        let snap = s.snapshot();
        assert_eq!(snap.round_trips(), 5);
        assert_eq!(snap.wire_round_trips(), 2); // group leader + lone read
        assert_eq!(snap.doorbells, 1);
        assert_eq!(snap.mean_batch_size(), 4.0);
        assert_eq!(s.verbs_now(), 5);
        assert_eq!(s.wire_rts_now(), 2);
        s.record_doorbell(0); // empty batch: no-op
        s.record_doorbell(1); // a group of one is the scalar verb
        assert_eq!(s.snapshot(), snap);
    }

    #[test]
    fn snapshots_sum() {
        let a = StatsSnapshot {
            reads: 1,
            bytes_read: 10,
            ..Default::default()
        };
        let b = StatsSnapshot {
            reads: 2,
            writes: 3,
            bytes_read: 5,
            bytes_sent: 7,
            ..Default::default()
        };
        let t: StatsSnapshot = [a, b].into_iter().sum();
        assert_eq!(t.reads, 3);
        assert_eq!(t.writes, 3);
        assert_eq!(t.bytes_read, 15);
        assert_eq!(t.bytes_sent, 7);
    }

    #[test]
    fn reset_zeroes() {
        let s = OpStats::new();
        s.record(OpKind::Faa, 8);
        s.record(OpKind::Send, 16);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
