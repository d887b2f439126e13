//! Checkpoint-based availability — §3 Challenge 3, RAMCloud-style.
//!
//! "The third solution is to follow the RAMCloud approach that stores data
//! pages in main-memory only once to reduce memory consumption. To improve
//! availability, RAMCloud periodically checkpoints data pages from memory
//! nodes to persistent store (this can be cloud storage in DSM-DB). If a
//! memory node crashes, its content can be recovered by accessing the
//! persistent store and possibly replaying some of the logs."
//!
//! [`CheckpointManager`] snapshots a memory node's region into the
//! [`ObjectStore`] and rebuilds a replaced node from checkpoint + log
//! replay. Experiment **C8** compares its memory overhead (1x) and
//! recovery time (slow) against mirroring (kx, fast) and erasure coding
//! (1.5x, medium).

use std::sync::Arc;

use cloudstore::ObjectStore;
use rdma_sim::{Endpoint, RdmaResult};

use crate::durability::DurableLog;
use crate::layer::{DsmLayer, DsmResult};

/// Outcome of a recovery operation (reported by experiment C8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Virtual nanoseconds the recovery took on the driving endpoint.
    pub elapsed_ns: u64,
    /// Bytes moved over network + storage to rebuild the node.
    pub bytes_moved: u64,
    /// Log records replayed on top of the checkpoint.
    pub log_records_replayed: usize,
}

/// Snapshots node regions to an object store and restores them.
pub struct CheckpointManager {
    store: Arc<ObjectStore>,
}

impl CheckpointManager {
    /// Manage checkpoints in `store`.
    pub fn new(store: Arc<ObjectStore>) -> Self {
        Self { store }
    }

    /// The backing object store.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    fn key(group: usize, member: usize) -> String {
        format!("ckpt/g{group}/m{member}")
    }

    /// Checkpoint one group member's entire region to the object store.
    /// Charged to `ep`: a bulk fabric read plus the object PUT.
    pub fn checkpoint_member(
        &self,
        ep: &Endpoint,
        layer: &DsmLayer,
        group: usize,
        member: usize,
    ) -> RdmaResult<u64> {
        let node = &layer.group_members(group)[member];
        let capacity = node.capacity() as usize;
        let mut image = vec![0u8; capacity];
        // Stream in 64 KiB chunks over the fabric.
        const CHUNK: usize = 64 << 10;
        let mut off = 0usize;
        while off < capacity {
            let take = CHUNK.min(capacity - off);
            ep.read(node.id(), off as u64, &mut image[off..off + take])?;
            off += take;
        }
        self.store.put(ep, &Self::key(group, member), image);
        Ok(capacity as u64)
    }

    /// Rebuild a crashed member from its checkpoint, then replay `log`
    /// records through `apply` (the caller knows the record encoding and
    /// performs the writes it implies).
    ///
    /// Returns recovery statistics for experiment C8.
    pub fn recover_member(
        &self,
        ep: &Endpoint,
        layer: &DsmLayer,
        group: usize,
        member: usize,
        log: Option<&DurableLog>,
        mut apply: impl FnMut(&Endpoint, &[u8]) -> DsmResult<()>,
    ) -> DsmResult<RecoveryStats> {
        let start = ep.clock().now_ns();
        let node = &layer.group_members(group)[member];
        let capacity = node.capacity() as usize;

        // Fresh hardware under the same logical id.
        let fresh = layer.fabric().replace(node.id(), capacity)?;
        node.rebind(fresh);

        // Fetch the checkpoint image (a GET at object-storage latency).
        let image = self
            .store
            .get(ep, &Self::key(group, member))
            .unwrap_or_else(|| vec![0u8; capacity]);
        let mut moved = image.len() as u64;

        // Stream the image onto the new node over the fabric.
        const CHUNK: usize = 64 << 10;
        let mut off = 0usize;
        while off < image.len() {
            let take = CHUNK.min(image.len() - off);
            ep.write(node.id(), off as u64, &image[off..off + take])?;
            moved += take as u64;
            off += take as u64 as usize;
        }

        // Replay the log suffix.
        let mut replayed = 0usize;
        if let Some(log) = log {
            for record in log.replay() {
                apply(ep, &record)?;
                replayed += 1;
                moved += record.len() as u64;
            }
        }

        Ok(RecoveryStats {
            elapsed_ns: ep.clock().now_ns() - start,
            bytes_moved: moved,
            log_records_replayed: replayed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GlobalAddr;
    use crate::durability::DurabilityMode;
    use crate::layer::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};

    fn setup() -> (Arc<Fabric>, Arc<DsmLayer>, CheckpointManager) {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 2,
                capacity_per_node: 256 << 10,
                replication: 1,
                mem_cores: 1,
            },
        );
        let store = Arc::new(ObjectStore::new(NetworkProfile::cloud_s3()));
        (fabric, layer, CheckpointManager::new(store))
    }

    #[test]
    fn checkpoint_then_recover_restores_contents() {
        let (f, layer, mgr) = setup();
        let ep = f.endpoint();
        let addr = layer.alloc(64).unwrap();
        layer.write(&ep, addr, &[0xAB; 64]).unwrap();

        let group = if addr.node() == layer.group_primary(0).id() { 0 } else { 1 };
        mgr.checkpoint_member(&ep, &layer, group, 0).unwrap();

        // Lose the node entirely.
        f.crash(addr.node()).unwrap();
        let stats = mgr
            .recover_member(&ep, &layer, group, 0, None, |_, _| Ok(()))
            .unwrap();
        assert!(stats.bytes_moved >= 2 * (256 << 10)); // GET + restore
        assert_eq!(stats.log_records_replayed, 0);

        let mut buf = [0u8; 64];
        layer.read(&ep, addr, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 64]);
    }

    #[test]
    fn recovery_replays_log_suffix_on_top_of_checkpoint() {
        let (f, layer, mgr) = setup();
        let ep = f.endpoint();
        let addr = layer.alloc(8).unwrap();
        layer.write_u64(&ep, addr, 1).unwrap();
        let group = if addr.node() == layer.group_primary(0).id() { 0 } else { 1 };
        mgr.checkpoint_member(&ep, &layer, group, 0).unwrap();

        // Post-checkpoint update, logged but not checkpointed.
        let log = DurableLog::new(DurabilityMode::None, &layer, 0).unwrap();
        layer.write_u64(&ep, addr, 2).unwrap();
        let mut rec = addr.to_raw().to_le_bytes().to_vec();
        rec.extend_from_slice(&2u64.to_le_bytes());
        log.append(&ep, &rec).unwrap();

        f.crash(addr.node()).unwrap();
        let layer2 = layer.clone();
        let stats = mgr
            .recover_member(&ep, &layer, group, 0, Some(&log), move |ep, record| {
                let a = GlobalAddr::from_raw(u64::from_le_bytes(record[0..8].try_into().unwrap()));
                let v = u64::from_le_bytes(record[8..16].try_into().unwrap());
                layer2.write_u64(ep, a, v)
            })
            .unwrap();
        assert_eq!(stats.log_records_replayed, 1);
        assert_eq!(layer.read_u64(&ep, addr).unwrap(), 2);
    }

    #[test]
    fn recovery_without_checkpoint_yields_zeroed_node() {
        let (f, layer, mgr) = setup();
        let ep = f.endpoint();
        let addr = layer.alloc(8).unwrap();
        layer.write_u64(&ep, addr, 42).unwrap();
        let group = if addr.node() == layer.group_primary(0).id() { 0 } else { 1 };
        f.crash(addr.node()).unwrap();
        mgr.recover_member(&ep, &layer, group, 0, None, |_, _| Ok(()))
            .unwrap();
        assert_eq!(layer.read_u64(&ep, addr).unwrap(), 0, "data was lost");
    }
}
