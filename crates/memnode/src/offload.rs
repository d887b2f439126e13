//! Function offloading — the paper's "Function Offloading APIs" (§3
//! Challenge 1) and the offloading half of experiment C6 (§5 Challenge 9).
//!
//! A compute node invokes a *registered* function that executes at the
//! memory node against its region, returning a (usually small) result
//! instead of shipping raw data. Pricing captures the two asymmetries the
//! paper highlights:
//!
//! * memory-node CPUs are **weak**: handler work is scaled by
//!   [`WEAK_CPU_FACTOR`] relative to compute-node speed;
//! * memory-node CPUs are **few**: all offloaded work on one node shares a
//!   [`SharedTimeline`] per core-group, so saturation shows up as queueing
//!   delay — the effect that makes "offload everything" lose to caching at
//!   high load.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use rdma_sim::clock::SharedTimeline;
use rdma_sim::{Endpoint, RdmaError, RdmaResult, Region};

/// How much slower a memory-node core is than a compute-node core (§1: "a
/// few CPU cores", and weaker ones at that).
pub const WEAK_CPU_FACTOR: f64 = 4.0;

/// What a handler returns: the payload plus how much *compute-node-speed*
/// work it performed (the executor scales this by [`WEAK_CPU_FACTOR`]).
#[derive(Debug, Clone)]
pub struct OffloadOutput {
    /// Result bytes shipped back to the caller.
    pub data: Vec<u8>,
    /// Handler work in nanoseconds at compute-node speed.
    pub work_ns: u64,
}

/// An offloadable function: runs against the node's region with an opaque
/// argument.
pub type OffloadFn = Arc<dyn Fn(&Region, &[u8]) -> OffloadOutput + Send + Sync>;

/// Executes registered functions on behalf of remote callers.
pub struct OffloadExecutor {
    handlers: RwLock<HashMap<u32, OffloadFn>>,
    /// The node's (few) cores, modeled as one serial timeline per core.
    cores: Vec<Arc<SharedTimeline>>,
}

impl OffloadExecutor {
    /// An executor with `cores` weak cores, each [`WEAK_CPU_FACTOR`]
    /// times slower than a compute-node core.
    pub fn new(cores: usize) -> Self {
        assert!(cores >= 1, "a memory node needs at least one core");
        Self {
            handlers: RwLock::new(HashMap::new()),
            cores: (0..cores).map(|_| SharedTimeline::new()).collect(),
        }
    }

    /// Register (or replace) handler `fn_id`.
    pub fn register(&self, fn_id: u32, f: OffloadFn) {
        self.handlers.write().insert(fn_id, f);
    }

    /// Whether `fn_id` is registered.
    pub fn has(&self, fn_id: u32) -> bool {
        self.handlers.read().contains_key(&fn_id)
    }

    /// Number of modeled cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Run `fn_id` against `region` on behalf of `caller`.
    ///
    /// Charges the caller: request SEND, queueing + scaled execution on the
    /// least-loaded core, and the response SEND. Returns the handler's
    /// payload.
    pub fn invoke(
        &self,
        caller: &Endpoint,
        region: &Region,
        fn_id: u32,
        arg: &[u8],
    ) -> RdmaResult<Vec<u8>> {
        let handler = self
            .handlers
            .read()
            .get(&fn_id)
            .cloned()
            .ok_or(RdmaError::NoReceiver(fn_id as u64))?;

        let profile = caller.fabric().profile();
        // Request travels to the node.
        caller.charge_local(profile.send_cost_ns(arg.len()));
        let arrival = caller.clock().now_ns();

        // The handler really executes (so results are real data).
        let out = handler(region, arg);
        let service_ns = (out.work_ns as f64 * WEAK_CPU_FACTOR) as u64;

        // Pick the core that frees up first; reserve the service interval.
        let core = self
            .cores
            .iter()
            .min_by_key(|c| c.busy_until_ns())
            .expect("at least one core");
        let done = core.reserve(arrival, service_ns);
        caller.clock().advance_to(done);

        // Response travels back.
        caller.charge_local(profile.send_cost_ns(out.data.len()));
        Ok(out.data)
    }

    /// Reset core timelines between experiment phases.
    pub fn reset(&self) {
        for c in &self.cores {
            c.reset();
        }
    }
}

impl std::fmt::Debug for OffloadExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OffloadExecutor")
            .field("cores", &self.cores.len())
            .field("handlers", &self.handlers.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::{Fabric, NetworkProfile};

    fn sum_handler() -> OffloadFn {
        Arc::new(|region: &Region, arg: &[u8]| {
            // arg = [offset u64][len u64]; sums bytes in the range.
            let off = u64::from_le_bytes(arg[0..8].try_into().unwrap());
            let len = u64::from_le_bytes(arg[8..16].try_into().unwrap()) as usize;
            let mut buf = vec![0u8; len];
            region.read(off, &mut buf).unwrap();
            let total: u64 = buf.iter().map(|&b| b as u64).sum();
            OffloadOutput {
                data: total.to_le_bytes().to_vec(),
                // ~1 ns per byte scanned at compute-node speed.
                work_ns: len as u64,
            }
        })
    }

    #[test]
    fn offloaded_sum_returns_real_result() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(1024);
        let region = fabric.region(node).unwrap();
        region.write(0, &[1u8; 100]).unwrap();

        let exec = OffloadExecutor::new(2);
        exec.register(1, sum_handler());
        let ep = fabric.endpoint();
        let mut arg = Vec::new();
        arg.extend_from_slice(&0u64.to_le_bytes());
        arg.extend_from_slice(&100u64.to_le_bytes());
        let res = exec.invoke(&ep, &region, 1, &arg).unwrap();
        assert_eq!(u64::from_le_bytes(res.try_into().unwrap()), 100);
        assert!(ep.clock().now_ns() > 0);
    }

    #[test]
    fn unknown_function_rejected() {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let node = fabric.register_node(64);
        let region = fabric.region(node).unwrap();
        let exec = OffloadExecutor::new(1);
        let ep = fabric.endpoint();
        assert!(exec.invoke(&ep, &region, 99, &[]).is_err());
    }

    /// On a free fabric a call costs its service time alone: the
    /// handler's work times the weak-CPU factor.
    #[test]
    fn weak_cpu_scales_service_time() {
        let fabric = Fabric::new(NetworkProfile::zero());
        let node = fabric.register_node(1 << 16);
        let region = fabric.region(node).unwrap();
        let exec = OffloadExecutor::new(1);
        exec.register(1, sum_handler());

        let mut arg = Vec::new();
        arg.extend_from_slice(&0u64.to_le_bytes());
        arg.extend_from_slice(&10_000u64.to_le_bytes());
        let ep = fabric.endpoint();
        exec.invoke(&ep, &region, 1, &arg).unwrap();
        // 10 000 ns of work at compute-node speed, four times that here.
        assert_eq!(ep.clock().now_ns(), (10_000.0 * WEAK_CPU_FACTOR) as u64);
        assert_eq!(ep.clock().now_ns(), 40_000);
    }

    #[test]
    fn saturation_produces_queueing_delay() {
        // 4 concurrent callers on a 1-core node: the last completion must
        // be ~4x a single service time; with 4 cores it must not.
        let fabric = Fabric::new(NetworkProfile::zero());
        let node = fabric.register_node(1 << 16);
        let region = fabric.region(node).unwrap();
        let mut arg = Vec::new();
        arg.extend_from_slice(&0u64.to_le_bytes());
        arg.extend_from_slice(&10_000u64.to_le_bytes());

        let run = |cores: usize| -> u64 {
            let exec = OffloadExecutor::new(cores);
            exec.register(1, sum_handler());
            (0..4)
                .map(|_| {
                    let ep = fabric.endpoint();
                    exec.invoke(&ep, &region, 1, &arg).unwrap();
                    ep.clock().now_ns()
                })
                .max()
                .unwrap()
        };
        let (serial, parallel) = (run(1), run(4));
        let service = (10_000.0 * WEAK_CPU_FACTOR) as u64;
        assert!(serial >= 4 * service);
        assert!(parallel < 2 * service, "parallel makespan {parallel}");
    }
}
