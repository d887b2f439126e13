//! Compute-node membership and epoch tracking in DSM.
//!
//! A tiny shared table — one 16-byte slot per compute node, `[epoch u64 |
//! status u64]` — living in disaggregated memory so every node sees the
//! same crash/recover history. When a compute node is declared dead and
//! its sessions' locks become stealable, the cluster **bumps its epoch**
//! (one FAA). Anything the dead node signed with the old epoch — 2PC
//! prepares, lease words — is thereafter refused by participants that
//! check the table, which closes the zombie-coordinator hole: a node that
//! was merely partitioned cannot come back and drive a commit with
//! pre-crash state.
//!
//! Epochs start at 1 so an epoch of 0 always means "never initialized".

use dsm::{DsmLayer, DsmResult, GlobalAddr, RetryPolicy};
use rdma_sim::{Endpoint, Metric};

/// Per-node liveness as recorded in the table (informational; the epoch
/// is what fences).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Serving transactions.
    Up,
    /// Declared dead: locks stealable, old-epoch messages refused.
    Down,
}

impl NodeStatus {
    fn to_word(self) -> u64 {
        match self {
            NodeStatus::Up => 0,
            NodeStatus::Down => 1,
        }
    }

    fn from_word(w: u64) -> Self {
        if w == 0 { NodeStatus::Up } else { NodeStatus::Down }
    }
}

const SLOT: u64 = 16;
const EPOCH_OFF: u64 = 0;
const STATUS_OFF: u64 = 8;

/// The membership/epoch table. Cheap to clone-share via the engine.
pub struct Membership {
    base: GlobalAddr,
    nodes: usize,
    /// Control-plane retry policy. Epoch/status reads decide fencing —
    /// a transient here must not surface as a spurious unavailability
    /// abort, even when the data-plane policy is trimmed to
    /// [`RetryPolicy::none`] by an experiment.
    retry: RetryPolicy,
}

impl Membership {
    /// Allocate and initialize the table: every node Up at epoch 1.
    pub fn create(layer: &DsmLayer, ep: &Endpoint, compute_nodes: usize) -> DsmResult<Self> {
        let base = layer.alloc(compute_nodes as u64 * SLOT)?;
        for node in 0..compute_nodes {
            layer.write_u64(ep, Self::slot(base, node, EPOCH_OFF), 1)?;
            layer.write_u64(ep, Self::slot(base, node, STATUS_OFF), NodeStatus::Up.to_word())?;
        }
        Ok(Self {
            base,
            nodes: compute_nodes,
            retry: RetryPolicy::default(),
        })
    }

    fn slot(base: GlobalAddr, node: usize, field: u64) -> GlobalAddr {
        base.offset_by(node as u64 * SLOT + field)
    }

    /// Number of tracked compute nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Current epoch of `node` (one 8-byte read, control-plane retried).
    pub fn epoch(&self, layer: &DsmLayer, ep: &Endpoint, node: usize) -> DsmResult<u64> {
        self.retry.run(ep, || layer.read_u64(ep, self.epoch_addr(node)))
    }

    /// Where `node`'s epoch word lives, for a caller that reads it in a
    /// doorbell of its own (little-endian, like every word).
    pub(crate) fn epoch_addr(&self, node: usize) -> GlobalAddr {
        Self::slot(self.base, node, EPOCH_OFF)
    }

    /// Advance `node`'s epoch (one FAA), invalidating everything signed
    /// with the old one. Returns the **new** epoch.
    pub fn bump_epoch(&self, layer: &DsmLayer, ep: &Endpoint, node: usize) -> DsmResult<u64> {
        let new = layer.faa(ep, Self::slot(self.base, node, EPOCH_OFF), 1)? + 1;
        ep.series_note(Metric::EpochBumps, 1);
        Ok(new)
    }

    /// Record `node`'s liveness.
    pub fn mark(
        &self,
        layer: &DsmLayer,
        ep: &Endpoint,
        node: usize,
        status: NodeStatus,
    ) -> DsmResult<()> {
        layer.write_u64(ep, Self::slot(self.base, node, STATUS_OFF), status.to_word())
    }

    /// `node`'s recorded liveness (control-plane retried).
    pub fn status(&self, layer: &DsmLayer, ep: &Endpoint, node: usize) -> DsmResult<NodeStatus> {
        let w = self
            .retry
            .run(ep, || layer.read_u64(ep, Self::slot(self.base, node, STATUS_OFF)))?;
        Ok(NodeStatus::from_word(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};

    #[test]
    fn epochs_start_at_one_and_bump_monotonically() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        let ep = fabric.endpoint();
        let m = Membership::create(&layer, &ep, 3).unwrap();
        for n in 0..3 {
            assert_eq!(m.epoch(&layer, &ep, n).unwrap(), 1);
            assert_eq!(m.status(&layer, &ep, n).unwrap(), NodeStatus::Up);
        }
        assert_eq!(m.bump_epoch(&layer, &ep, 1).unwrap(), 2);
        assert_eq!(m.epoch(&layer, &ep, 1).unwrap(), 2);
        assert_eq!(m.epoch(&layer, &ep, 0).unwrap(), 1, "other nodes untouched");
        m.mark(&layer, &ep, 1, NodeStatus::Down).unwrap();
        assert_eq!(m.status(&layer, &ep, 1).unwrap(), NodeStatus::Down);
    }

    #[test]
    fn epoch_reads_absorb_transients_even_without_data_plane_retries() {
        use dsm::RetryPolicy;
        use rdma_sim::FaultPlan;

        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        let ep = fabric.endpoint();
        let m = Membership::create(&layer, &ep, 2).unwrap();
        // Trim the data plane so every fault surfaces to callers...
        layer.set_retry_policy(RetryPolicy::none());
        let victim = layer.group_primary(0).id();
        fabric.install_fault_plan(FaultPlan::new(7).transient_first_n(victim, 2));
        // ...the control-plane policy still absorbs the hiccup.
        assert_eq!(m.epoch(&layer, &ep, 0).unwrap(), 1);
        fabric.clear_fault_plan();
    }
}
