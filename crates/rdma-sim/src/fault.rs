//! Deterministic fault injection scheduled on the virtual clock.
//!
//! A [`FaultPlan`] describes *when* (in virtual time) and *how* verbs to a
//! node fail: crash windows, network partitions, latency spikes, or a
//! burst of transient failures. Nothing in a plan is random. The plan is
//! installed on the [`crate::Fabric`] and consulted by every
//! [`crate::Endpoint`] before a node-addressed verb executes.
//!
//! Two design rules make injection byte-reproducible:
//!
//! 1. **Windows are evaluated against the issuing endpoint's own virtual
//!    clock.** Each endpoint observes a crash when *its* clock passes the
//!    window start — exactly how a real client discovers a dead peer: by
//!    its next verb failing. No cross-thread wall-clock coupling.
//! 2. **All per-endpoint state (the first-N budgets) lives in the
//!    endpoint.** Two runs that issue the same verb sequence per endpoint
//!    see the same faults regardless of thread interleaving.
//!
//! **Caveat (crash windows vs replication):** a crash window makes a node
//! *observably* dead while its memory stays intact, so a replicated store
//! that keeps writing to the surviving members must treat the node as
//! stale when the window ends — rebuild it (replace + copy) before
//! trusting its contents, exactly like a real power-blip revive. The DSM
//! layer's recovery path (`recover_member_from_mirror`: replace, then
//! copy from a mirror) does this.

use crate::error::{RdmaError, RdmaResult};
use crate::fabric::NodeId;

/// A half-open virtual-time window `[from_ns, until_ns)` on one node.
#[derive(Debug, Clone, Copy)]
struct Window {
    node: NodeId,
    from_ns: u64,
    until_ns: u64,
}

impl Window {
    fn active(&self, node: NodeId, now_ns: u64) -> bool {
        self.node == node && now_ns >= self.from_ns && now_ns < self.until_ns
    }
}

/// Added per-verb latency inside a window (congestion, failover detours).
#[derive(Debug, Clone, Copy)]
struct Spike {
    window: Window,
    extra_ns: u64,
}

/// A deterministic schedule of faults. Build one with the fluent
/// methods, then install it via `Fabric::install_fault_plan`.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    crashes: Vec<Window>,
    partitions: Vec<Window>,
    spikes: Vec<Spike>,
    transient_first_n: Vec<(NodeId, u32)>,
}

impl FaultPlan {
    /// Virtual time charged when a verb discovers an injected fault: the
    /// completion-timeout / QP-error detection latency, 10 µs.
    pub const DETECT_NS: u64 = 10_000;

    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Node appears crashed during `[from_ns, until_ns)`: verbs fail hard
    /// with [`RdmaError::NodeUnreachable`]. If the store replicates, the
    /// node's contents are stale after the window — rebuild before reuse.
    pub fn crash(mut self, node: NodeId, from_ns: u64, until_ns: u64) -> Self {
        self.crashes.push(Window { node, from_ns, until_ns });
        self
    }

    /// Node is partitioned away during the window: verbs fail with the
    /// *transient* [`RdmaError::Timeout`] (retry may outlive the
    /// partition).
    pub fn partition(mut self, node: NodeId, from_ns: u64, until_ns: u64) -> Self {
        self.partitions.push(Window { node, from_ns, until_ns });
        self
    }

    /// Verbs to `node` cost `extra_ns` more during the window.
    pub fn latency_spike(mut self, node: NodeId, from_ns: u64, until_ns: u64, extra_ns: u64) -> Self {
        self.spikes.push(Spike {
            window: Window { node, from_ns, until_ns },
            extra_ns,
        });
        self
    }

    /// The first `n` verbs *each endpoint* issues to `node` fail with
    /// [`RdmaError::Transient`] (per-peer first-N burst).
    pub fn transient_first_n(mut self, node: NodeId, n: u32) -> Self {
        self.transient_first_n.push((node, n));
        self
    }

    /// Whether a crash window makes `node` unreachable at `now_ns`.
    pub fn crash_active(&self, node: NodeId, now_ns: u64) -> bool {
        self.crashes.iter().any(|w| w.active(node, now_ns))
    }

    /// Whether a partition window covers `node` at `now_ns`.
    pub fn partition_active(&self, node: NodeId, now_ns: u64) -> bool {
        self.partitions.iter().any(|w| w.active(node, now_ns))
    }

    /// Initial first-N transient budget for `node`.
    fn transient_budget(&self, node: NodeId) -> u32 {
        self.transient_first_n
            .iter()
            .filter(|(n, _)| *n == node)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Added latency from active spikes on `node` at `now_ns`.
    pub fn spike_extra_ns(&self, node: NodeId, now_ns: u64) -> u64 {
        self.spikes
            .iter()
            .filter(|s| s.window.active(node, now_ns))
            .map(|s| s.extra_ns)
            .sum()
    }
}

/// Per-endpoint injection state: the cached plan and this endpoint's
/// deterministic budgets. Owned by `Endpoint` behind a `RefCell`.
#[derive(Default)]
pub(crate) struct FaultView {
    /// Generation of the fabric plan this view was initialized from.
    generation: u64,
    plan: Option<std::sync::Arc<FaultPlan>>,
    /// Remaining first-N transient failures, per peer (lazily grown).
    transient_left: Vec<(NodeId, u32)>,
    /// Doorbell groups pre-flighted so far.
    group: u64,
    /// The last group each peer was pre-flighted in: a doorbell checks
    /// every distinct target once, however many members address it.
    group_of: Vec<(NodeId, u64)>,
}

impl FaultView {
    /// Reset the view to a (possibly absent) plan at `generation`.
    pub(crate) fn rebind(&mut self, generation: u64, plan: Option<std::sync::Arc<FaultPlan>>) {
        self.generation = generation;
        self.plan = plan;
        self.transient_left.clear();
        self.group_of.clear();
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn plan(&self) -> Option<&std::sync::Arc<FaultPlan>> {
        self.plan.as_ref()
    }

    /// Evaluate injection for one verb to `node` at `now_ns`. Returns the
    /// extra latency to charge on success; `Err` carries the injected
    /// fault (detection latency is charged by the caller:
    /// [`FaultPlan::DETECT_NS`]).
    pub(crate) fn check(&mut self, node: NodeId, now_ns: u64) -> RdmaResult<u64> {
        let Some(plan) = self.plan.clone() else {
            return Ok(0);
        };
        if plan.crash_active(node, now_ns) {
            return Err(RdmaError::NodeUnreachable(node));
        }
        if plan.partition_active(node, now_ns) {
            return Err(RdmaError::Timeout(node));
        }
        if self.take_transient(&plan, node) {
            return Err(RdmaError::Transient(node));
        }
        Ok(plan.spike_extra_ns(node, now_ns))
    }

    /// Evaluate injection for one doorbell group posted at `now_ns`:
    /// each distinct node of `nodes` is checked once, in posting order.
    /// Returns the spike latency summed over the distinct nodes, or the
    /// first injected fault with the node that drew it (later nodes are
    /// then not consulted). Allocates only the first time a peer is seen.
    pub(crate) fn check_group(
        &mut self,
        nodes: impl Iterator<Item = NodeId>,
        now_ns: u64,
    ) -> Result<u64, (NodeId, RdmaError)> {
        if self.plan.is_none() {
            return Ok(0);
        }
        self.group += 1;
        let mut extra_ns = 0u64;
        for node in nodes {
            if self.enter_group(node) {
                extra_ns += self.check(node, now_ns).map_err(|e| (node, e))?;
            }
        }
        Ok(extra_ns)
    }

    /// Stamp `node` with the current group; false if it already carries it.
    fn enter_group(&mut self, node: NodeId) -> bool {
        let group = self.group;
        match self.group_of.iter_mut().find(|(n, _)| *n == node) {
            Some((_, g)) if *g == group => false,
            Some((_, g)) => {
                *g = group;
                true
            }
            None => {
                self.group_of.push((node, group));
                true
            }
        }
    }

    /// Consume one unit of the first-N transient budget for `node`.
    fn take_transient(&mut self, plan: &FaultPlan, node: NodeId) -> bool {
        let slot = if let Some(i) = self.transient_left.iter().position(|(n, _)| *n == node) {
            i
        } else {
            self.transient_left.push((node, plan.transient_budget(node)));
            self.transient_left.len() - 1
        };
        if self.transient_left[slot].1 > 0 {
            self.transient_left[slot].1 -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open_and_per_node() {
        let plan = FaultPlan::new().crash(3, 100, 200);
        assert!(!plan.crash_active(3, 99));
        assert!(plan.crash_active(3, 100));
        assert!(plan.crash_active(3, 199));
        assert!(!plan.crash_active(3, 200));
        assert!(!plan.crash_active(4, 150));
    }

    #[test]
    fn first_n_transients_consume_per_endpoint_budget() {
        let plan = std::sync::Arc::new(FaultPlan::new().transient_first_n(2, 3));
        let mut view = FaultView::default();
        view.rebind(1, Some(plan));
        for _ in 0..3 {
            assert_eq!(view.check(2, 0), Err(RdmaError::Transient(2)));
        }
        assert_eq!(view.check(2, 0), Ok(0));
        // A different peer is unaffected.
        assert_eq!(view.check(5, 0), Ok(0));
    }

    #[test]
    fn a_group_checks_each_distinct_node_once() {
        let plan = std::sync::Arc::new(
            FaultPlan::new()
                .transient_first_n(2, 1)
                .latency_spike(5, 0, u64::MAX, 300),
        );
        let mut view = FaultView::default();
        view.rebind(1, Some(plan));
        // Node 5 twice in one group: its spike is charged once. Node 2's
        // single transient fires, and node 9 behind it is not consulted.
        assert_eq!(
            view.check_group([5, 5, 2, 9].into_iter(), 0),
            Err((2, RdmaError::Transient(2)))
        );
        assert_eq!(view.transient_left, [(5, 0), (2, 0)]);
        // The retry finds node 2's budget spent; both nodes check clean.
        assert_eq!(view.check_group([5, 2, 5, 2].into_iter(), 0), Ok(300));
        // No plan: nothing is evaluated.
        view.rebind(2, None);
        assert_eq!(view.check_group([5, 2].into_iter(), 0), Ok(0));
        assert!(view.transient_left.is_empty());
    }

    #[test]
    fn spikes_add_latency_without_failing() {
        let plan = std::sync::Arc::new(FaultPlan::new().latency_spike(4, 10, 20, 5_000));
        let mut view = FaultView::default();
        view.rebind(1, Some(plan));
        assert_eq!(view.check(4, 15), Ok(5_000));
        assert_eq!(view.check(4, 25), Ok(0));
    }

    #[test]
    fn partitions_are_transient_crashes_are_not() {
        let plan = std::sync::Arc::new(FaultPlan::new().crash(1, 0, 100).partition(2, 0, 100));
        let mut view = FaultView::default();
        view.rebind(1, Some(plan));
        let crash = view.check(1, 50).unwrap_err();
        let part = view.check(2, 50).unwrap_err();
        assert!(!crash.is_transient());
        assert!(part.is_transient());
    }
}
