//! The durable append-only log.

use parking_lot::Mutex;
use rdma_sim::clock::SharedTimeline;
use rdma_sim::{Endpoint, NetworkProfile};
use std::sync::Arc;

/// Log sequence number: index of a record in the log.
pub type Lsn = u64;

/// A durable log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Sequence number assigned at append.
    pub lsn: Lsn,
    /// Opaque payload (layers above define the encoding).
    pub payload: Vec<u8>,
}

struct LogInner {
    records: Vec<LogRecord>,
}

/// An append-only, serialized durable log device.
///
/// The device completes one write at a time (as a single EBS volume or a
/// replicated log stream effectively does); concurrent appenders queue on a
/// [`SharedTimeline`]. The *contents* are real so crash recovery can replay
/// them.
pub struct LogStore {
    profile: NetworkProfile,
    device: Arc<SharedTimeline>,
    inner: Mutex<LogInner>,
}

impl LogStore {
    /// A log device priced by `profile` (use
    /// [`NetworkProfile::cloud_ebs`] for the paper's EBS-class WAL).
    pub fn new(profile: NetworkProfile) -> Self {
        Self {
            profile,
            device: SharedTimeline::new(),
            inner: Mutex::new(LogInner {
                records: Vec::new(),
            }),
        }
    }

    /// Durably append one record on behalf of `caller`; returns its LSN.
    ///
    /// The caller's clock advances past the device completion — this is the
    /// synchronous commit write the paper calls "on the critical path".
    pub fn append(&self, caller: &Endpoint, payload: Vec<u8>) -> Lsn {
        let service = self.profile.rw_cost_ns(payload.len());
        let lsn = {
            let mut inner = self.inner.lock();
            let lsn = inner.records.len() as Lsn;
            inner.records.push(LogRecord { lsn, payload });
            lsn
        };
        let done = self.device.reserve(caller.clock().now_ns(), service);
        caller.clock().advance_to(done);
        lsn
    }

    /// Group commit: durably append a batch with a *single* device write.
    /// Returns the LSN of the first record in the group.
    pub fn append_group(&self, caller: &Endpoint, payloads: Vec<Vec<u8>>) -> Lsn {
        let total: usize = payloads.iter().map(|p| p.len()).sum();
        let service = self.profile.rw_cost_ns(total);
        let first = {
            let mut inner = self.inner.lock();
            let first = inner.records.len() as Lsn;
            for payload in payloads {
                let lsn = inner.records.len() as Lsn;
                inner.records.push(LogRecord { lsn, payload });
            }
            first
        };
        let done = self.device.reserve(caller.clock().now_ns(), service);
        caller.clock().advance_to(done);
        first
    }

    /// Read back all records with `lsn >= from` (recovery replay). Charges
    /// the caller one bulk read.
    pub fn replay_from(&self, caller: &Endpoint, from: Lsn) -> Vec<LogRecord> {
        let inner = self.inner.lock();
        let records: Vec<LogRecord> = inner
            .records
            .iter()
            .filter(|r| r.lsn >= from)
            .cloned()
            .collect();
        let bytes: usize = records.iter().map(|r| r.payload.len()).sum();
        caller.charge_local(self.profile.rw_cost_ns(bytes));
        records
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Truncate the prefix below `lsn` (checkpoint made it obsolete).
    pub fn truncate_below(&self, lsn: Lsn) {
        let mut inner = self.inner.lock();
        inner.records.retain(|r| r.lsn >= lsn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::Fabric;

    fn setup() -> (Arc<Fabric>, LogStore) {
        (
            Fabric::new(NetworkProfile::zero()),
            LogStore::new(NetworkProfile::cloud_ebs()),
        )
    }

    #[test]
    fn appends_assign_sequential_lsns() {
        let (fabric, log) = setup();
        let ep = fabric.endpoint();
        assert_eq!(log.append(&ep, vec![1]), 0);
        assert_eq!(log.append(&ep, vec![2]), 1);
        assert_eq!(log.append(&ep, vec![3]), 2);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn replay_returns_suffix_in_order() {
        let (fabric, log) = setup();
        let ep = fabric.endpoint();
        for i in 0..10u8 {
            log.append(&ep, vec![i]);
        }
        let tail = log.replay_from(&ep, 7);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].payload, vec![7]);
        assert_eq!(tail[2].lsn, 9);
    }

    #[test]
    fn serialized_device_queues_concurrent_appends() {
        let (fabric, log) = setup();
        // Two appends from fresh endpoints (both arrive at t=0): the
        // second completes a full device-latency later.
        let ep1 = fabric.endpoint();
        let ep2 = fabric.endpoint();
        log.append(&ep1, vec![0; 64]);
        log.append(&ep2, vec![0; 64]);
        assert!(ep2.clock().now_ns() >= 2 * ep1.clock().now_ns() - 1);
    }

    #[test]
    fn group_commit_amortizes_device_latency() {
        let (fabric, log) = setup();
        let single = fabric.endpoint();
        for _ in 0..16 {
            log.append(&single, vec![0; 64]);
        }
        let log2 = LogStore::new(NetworkProfile::cloud_ebs());
        let grouped = fabric.endpoint();
        log2.append_group(&grouped, vec![vec![0; 64]; 16]);
        assert!(grouped.clock().now_ns() < single.clock().now_ns() / 8);
        assert_eq!(log2.len(), 16);
    }

    #[test]
    fn truncate_below_drops_prefix_only() {
        let (fabric, log) = setup();
        let ep = fabric.endpoint();
        for i in 0..5u8 {
            log.append(&ep, vec![i]);
        }
        log.truncate_below(3);
        let all = log.replay_from(&ep, 0);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].lsn, 3);
    }
}
