//! A memory node: region + allocator + offload executor, registered on a
//! fabric.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rdma_sim::{Endpoint, Fabric, NodeId, RdmaResult, Region};

use crate::alloc::{AllocError, AllocStats, ExtentAllocator};
use crate::offload::{OffloadExecutor, OffloadFn};

/// One memory node of the DSM layer.
///
/// Owns abundant memory (its [`Region`]) and weak compute (its
/// [`OffloadExecutor`]). Allocation metadata is kept in user space per §3
/// Challenge 1; the DSM layer calls [`MemoryNode::alloc`]/[`MemoryNode::free`]
/// through its control plane rather than over the data path.
pub struct MemoryNode {
    id: NodeId,
    region: RwLock<Arc<Region>>,
    allocator: Mutex<ExtentAllocator>,
    executor: OffloadExecutor,
}

impl MemoryNode {
    /// Create a node with `capacity` bytes and register it on `fabric`.
    ///
    /// `cores` is the width of the node's offload CPU (§1: "a few CPU
    /// cores"), each [`crate::WEAK_CPU_FACTOR`] times slower than a
    /// compute-node core.
    pub fn new(fabric: &Arc<Fabric>, capacity: usize, cores: usize) -> Self {
        let id = fabric.register_node(capacity);
        let region = fabric.region(id).expect("just registered");
        Self {
            id,
            region: RwLock::new(region),
            allocator: Mutex::new(ExtentAllocator::new(capacity as u64)),
            executor: OffloadExecutor::new(cores),
        }
    }

    /// Fabric id of this node (the node half of a global address).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's registered memory (current incarnation).
    pub fn region(&self) -> Arc<Region> {
        self.region.read().clone()
    }

    /// Point this node at a fresh region after hardware replacement — the
    /// logical id stays, the memory does not (§3 Challenge 1). The
    /// allocation map is preserved: recovery repopulates the same offsets.
    pub fn rebind(&self, fresh: Arc<Region>) {
        *self.region.write() = fresh;
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.allocator.lock().capacity()
    }

    /// Allocate `size` bytes; returns the offset within this node.
    pub fn alloc(&self, size: u64) -> Result<u64, AllocError> {
        self.allocator.lock().alloc(size)
    }

    /// Free a previous allocation.
    pub fn free(&self, offset: u64) -> Result<(), AllocError> {
        self.allocator.lock().free(offset)
    }

    /// Reallocate; see [`ExtentAllocator::realloc`]. Note the data copy on
    /// a move is the caller's responsibility.
    pub fn realloc(&self, offset: u64, new_size: u64) -> Result<u64, AllocError> {
        self.allocator.lock().realloc(offset, new_size)
    }

    /// Size of the live allocation at `offset`, if any.
    pub fn size_of(&self, offset: u64) -> Option<u64> {
        self.allocator.lock().size_of(offset)
    }

    /// Allocation statistics (for experiment F1).
    pub fn alloc_stats(&self) -> AllocStats {
        self.allocator.lock().stats()
    }

    /// Register an offloadable function on this node.
    pub fn register_offload(&self, fn_id: u32, f: OffloadFn) {
        self.executor.register(fn_id, f);
    }

    /// Invoke an offloaded function from a compute node's endpoint.
    pub fn offload(&self, caller: &Endpoint, fn_id: u32, arg: &[u8]) -> RdmaResult<Vec<u8>> {
        let region = self.region();
        self.executor.invoke(caller, &region, fn_id, arg)
    }

    /// The offload executor (for direct configuration in experiments).
    pub fn executor(&self) -> &OffloadExecutor {
        &self.executor
    }
}

impl std::fmt::Debug for MemoryNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryNode")
            .field("id", &self.id)
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::NetworkProfile;

    #[test]
    fn node_alloc_then_rdma_write_read() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = MemoryNode::new(&fabric, 4096, 2);
        let off = node.alloc(128).unwrap();
        let ep = fabric.endpoint();
        ep.write(node.id(), off, &[7u8; 128]).unwrap();
        let mut buf = [0u8; 128];
        ep.read(node.id(), off, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 128]);
    }

    #[test]
    fn two_nodes_get_distinct_ids() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let a = MemoryNode::new(&fabric, 1024, 1);
        let b = MemoryNode::new(&fabric, 1024, 1);
        assert_ne!(a.id(), b.id());
        // Writes to one do not leak into the other.
        let ep = fabric.endpoint();
        ep.write_u64(a.id(), 0, 1).unwrap();
        assert_eq!(ep.read_u64(b.id(), 0).unwrap(), 0);
    }

    #[test]
    fn alloc_stats_track_utilization() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = MemoryNode::new(&fabric, 1 << 20, 1);
        let _a = node.alloc(1 << 19).unwrap();
        let s = node.alloc_stats();
        assert!((s.utilization() - 0.5).abs() < 0.01);
    }
}
