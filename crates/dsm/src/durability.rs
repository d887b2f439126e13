//! Commit-log durability — §3 Challenge 2.
//!
//! Two approaches from the paper, behind one [`DurableLog`] facade:
//!
//! * **Approach #1 — cloud-storage WAL** ([`DurabilityMode::CloudWal`]):
//!   "write logs to durable storage as in main-memory databases"; slow but
//!   as durable as the storage tier. Group commit (DeWitt et al. \[24\]) is
//!   exposed via [`DurableLog::append_group`].
//! * **Approach #2 — replicated memory log**
//!   ([`DurabilityMode::ReplicatedLog`]): "follow RAMCloud that uses memory
//!   replication to emulate durable storage. It writes a log synchronously
//!   to k different memory nodes (k=3 in RAMCloud)". Fast (network-speed)
//!   but not 100% durable — the all-k-crash probability is nonzero.
//!
//! Experiment **C7** sweeps both plus group-commit batch size.

use std::sync::Arc;

use cloudstore::{LogStore, Lsn};
use parking_lot::Mutex;
use rdma_sim::{Endpoint, NodeId, Phase};

use crate::layer::{DsmLayer, DsmResult};

/// How committed log records are made durable.
#[derive(Clone)]
pub enum DurabilityMode {
    /// No durability (baseline for measuring the cost of the others).
    None,
    /// Approach #1: synchronous write to a cloud-storage WAL.
    CloudWal(Arc<LogStore>),
    /// Approach #2: synchronous one-sided writes of the record to `k`
    /// distinct memory nodes' log areas (RAMCloud-style).
    ReplicatedLog {
        /// Replication degree (RAMCloud uses 3).
        k: usize,
    },
}

impl std::fmt::Debug for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityMode::None => write!(f, "None"),
            DurabilityMode::CloudWal(_) => write!(f, "CloudWal"),
            DurabilityMode::ReplicatedLog { k } => write!(f, "ReplicatedLog(k={k})"),
        }
    }
}

/// Per-appender log area on one memory node (bump-allocated).
struct LogArea {
    node: NodeId,
    base: u64,
    capacity: u64,
    head: u64,
}

/// A durable commit log for one compute node.
///
/// Keeps an in-memory copy of every record for replay — in Approach #1 this
/// stands for reading the WAL back; in Approach #2 it stands for the copies
/// surviving on the k replicas.
pub struct DurableLog {
    mode: DurabilityMode,
    areas: Mutex<Vec<LogArea>>,
    replay: Mutex<Vec<Vec<u8>>>,
}

impl DurableLog {
    /// Build a log in the given mode. For `ReplicatedLog`, carves a log
    /// area of `area_capacity` bytes on each of the first `k` groups of
    /// `layer`.
    pub fn new(mode: DurabilityMode, layer: &DsmLayer, area_capacity: u64) -> DsmResult<Self> {
        let areas = match &mode {
            DurabilityMode::ReplicatedLog { k } => {
                assert!(*k >= 1 && *k <= layer.group_count(), "k must fit the pool");
                let mut v = Vec::with_capacity(*k);
                for g in 0..*k {
                    let addr = layer.alloc_on(g, area_capacity)?;
                    v.push(LogArea {
                        node: addr.node(),
                        base: addr.offset(),
                        capacity: area_capacity,
                        head: 0,
                    });
                }
                v
            }
            _ => Vec::new(),
        };
        Ok(Self {
            mode,
            areas: Mutex::new(areas),
            replay: Mutex::new(Vec::new()),
        })
    }

    /// The configured mode.
    pub fn mode(&self) -> &DurabilityMode {
        &self.mode
    }

    /// Durably append one commit record; blocks (in virtual time) until
    /// the configured durability criterion holds.
    pub fn append(&self, ep: &Endpoint, record: &[u8]) -> DsmResult<Lsn> {
        let lsn = {
            let mut replay = self.replay.lock();
            replay.push(record.to_vec());
            (replay.len() - 1) as Lsn
        };
        let _span = ep.span(Phase::LogWrite);
        match &self.mode {
            DurabilityMode::None => {}
            DurabilityMode::CloudWal(store) => {
                store.append(ep, record.to_vec());
            }
            DurabilityMode::ReplicatedLog { .. } => {
                self.replicate(ep, &[record])?;
            }
        }
        Ok(lsn)
    }

    /// Group commit: one durability round for the whole batch.
    pub fn append_group(&self, ep: &Endpoint, records: &[&[u8]]) -> DsmResult<Lsn> {
        let first = {
            let mut replay = self.replay.lock();
            let first = replay.len() as Lsn;
            replay.extend(records.iter().map(|r| r.to_vec()));
            first
        };
        let _span = ep.span(Phase::LogWrite);
        match &self.mode {
            DurabilityMode::None => {}
            DurabilityMode::CloudWal(store) => {
                store.append_group(ep, records.iter().map(|r| r.to_vec()).collect());
            }
            DurabilityMode::ReplicatedLog { .. } => {
                self.replicate(ep, records)?;
            }
        }
        Ok(first)
    }

    /// Write the concatenated records to every replica area, with a 4-byte
    /// length prefix per record, doorbell-batched across replicas.
    fn replicate(&self, ep: &Endpoint, records: &[&[u8]]) -> DsmResult<()> {
        let mut frame = Vec::with_capacity(records.iter().map(|r| r.len() + 4).sum());
        for r in records {
            frame.extend_from_slice(&(r.len() as u32).to_le_bytes());
            frame.extend_from_slice(r);
        }
        let mut areas = self.areas.lock();
        let need = frame.len() as u64;
        let ops: Vec<(NodeId, u64, &[u8])> = areas
            .iter_mut()
            .map(|a| {
                if a.head + need > a.capacity {
                    a.head = 0; // wrap: old entries are checkpointed away
                }
                let off = a.base + a.head;
                a.head += need;
                (a.node, off, frame.as_slice())
            })
            .collect();
        ep.write_batch(&ops)?;
        Ok(())
    }

    /// All records appended so far (crash-recovery replay source).
    pub fn replay(&self) -> Vec<Vec<u8>> {
        self.replay.lock().clone()
    }

    /// Records with `lsn >= from`.
    pub fn replay_from(&self, from: Lsn) -> Vec<Vec<u8>> {
        self.replay.lock()[from as usize..].to_vec()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.replay.lock().len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop records below `lsn` after a checkpoint.
    pub fn truncate_below(&self, lsn: Lsn) {
        let mut replay = self.replay.lock();
        let cut = (lsn as usize).min(replay.len());
        let keep = replay.split_off(cut);
        *replay = keep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};

    fn setup(mode_of: impl FnOnce(&DsmLayer) -> DurabilityMode) -> (Arc<Fabric>, Arc<DsmLayer>, DurableLog) {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 3,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
            },
        );
        let mode = mode_of(&layer);
        let log = DurableLog::new(mode, &layer, 64 << 10).unwrap();
        (fabric, layer, log)
    }

    #[test]
    fn replicated_append_reaches_k_nodes() {
        let (f, layer, log) = setup(|_| DurabilityMode::ReplicatedLog { k: 3 });
        let ep = f.endpoint();
        log.append(&ep, b"commit-1").unwrap();
        // Each of the 3 groups' primaries got one write of 12 bytes
        // (4-byte length + 8 payload).
        let s = ep.stats();
        assert_eq!(s.writes, 3);
        assert_eq!(s.bytes_written, 3 * 12);
        let _ = layer;
    }

    #[test]
    fn replicated_is_much_faster_than_cloud_wal() {
        let (f, _layer, rep) = setup(|_| DurabilityMode::ReplicatedLog { k: 3 });
        let ep_rep = f.endpoint();
        rep.append(&ep_rep, &[0u8; 256]).unwrap();

        let wal_store = Arc::new(LogStore::new(NetworkProfile::cloud_ebs()));
        let (f2, _l2, wal) = setup(|_| DurabilityMode::CloudWal(wal_store));
        let ep_wal = f2.endpoint();
        wal.append(&ep_wal, &[0u8; 256]).unwrap();

        // §3 Challenge 2: "log persistence is fast as it does not involve
        // disk" — two orders of magnitude here.
        assert!(ep_wal.clock().now_ns() > 50 * ep_rep.clock().now_ns());
    }

    #[test]
    fn group_commit_batches_one_round() {
        let (f, _layer, log) = setup(|_| DurabilityMode::ReplicatedLog { k: 2 });
        let ep = f.endpoint();
        let recs: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d"];
        log.append_group(&ep, &recs).unwrap();
        assert_eq!(ep.stats().writes, 2, "one frame per replica");
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn replay_preserves_order_and_truncation() {
        let (f, _layer, log) = setup(|_| DurabilityMode::None);
        let ep = f.endpoint();
        for i in 0..5u8 {
            log.append(&ep, &[i]).unwrap();
        }
        assert_eq!(log.replay_from(3), vec![vec![3], vec![4]]);
        log.truncate_below(4);
        assert_eq!(log.replay(), vec![vec![4]]);
    }

    #[test]
    fn log_area_wraps_rather_than_overflowing() {
        let (f, layer, _) = setup(|_| DurabilityMode::None);
        let log = DurableLog::new(DurabilityMode::ReplicatedLog { k: 1 }, &layer, 64).unwrap();
        let ep = f.endpoint();
        for _ in 0..10 {
            log.append(&ep, &[7u8; 40]).unwrap(); // 44 B framed > 32 left
        }
        assert_eq!(log.len(), 10);
    }
}
