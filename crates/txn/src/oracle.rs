//! Global timestamp generation — §4 Challenge 6.
//!
//! "Another related optimization is how to generate timestamps. One-sided
//! RDMA (RDMA Fetch & Add) is more preferable than two-sided RDMA in case
//! that the centralized timestamp generator becomes a bottleneck. It is
//! interesting to investigate other approaches (e.g., vector timestamp and
//! clock synchronization)."
//!
//! Three oracles, swept by experiment **C4**:
//!
//! * [`FaaOracle`] — one-sided FAA on a counter in DSM. One atomic verb
//!   per timestamp; the memory node's NIC serializes but no CPU is
//!   involved.
//! * [`RpcOracle`] — a two-sided sequencer: request + response messages
//!   plus service time on the sequencer's (single) CPU, which saturates.
//! * [`HybridClockOracle`] — coordination-free HLC-style stamps
//!   (local counter ⊕ worker id), zero network cost, but only *partially*
//!   ordered across workers — the trade clock-synchronization protocols
//!   (§4 cites \[61\]) buy performance with.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsm::{DsmLayer, DsmResult, GlobalAddr};
use rdma_sim::clock::SharedTimeline;
use rdma_sim::Endpoint;

/// A source of transaction timestamps.
pub trait TimestampOracle: Send + Sync {
    /// Oracle name for experiment output.
    fn name(&self) -> &'static str;
    /// Draw the next timestamp on behalf of `ep` (charging it).
    fn next_ts(&self, ep: &Endpoint) -> DsmResult<u64>;
}

/// One-sided FAA on a DSM-resident counter.
pub struct FaaOracle {
    layer: Arc<DsmLayer>,
    counter: GlobalAddr,
}

impl FaaOracle {
    /// Allocate the counter in DSM.
    pub fn new(layer: &Arc<DsmLayer>) -> DsmResult<Self> {
        let counter = layer.alloc(8)?;
        Ok(Self {
            layer: layer.clone(),
            counter,
        })
    }
}

impl TimestampOracle for FaaOracle {
    fn name(&self) -> &'static str {
        "faa"
    }
    fn next_ts(&self, ep: &Endpoint) -> DsmResult<u64> {
        // Timestamps start at 1 (0 means "never written").
        Ok(self.layer.faa(ep, self.counter, 1)? + 1)
    }
}

/// Two-sided RPC to a single-threaded sequencer process.
///
/// Modeled with a [`SharedTimeline`] for the sequencer CPU: each request
/// costs send + queueing + service + response. Under many clients the
/// sequencer saturates — the bottleneck the paper warns about.
pub struct RpcOracle {
    counter: AtomicU64,
    sequencer_cpu: Arc<SharedTimeline>,
    /// Per-request service time on the sequencer, ns.
    service_ns: u64,
}

impl RpcOracle {
    /// A sequencer that spends `service_ns` of CPU per request (parse +
    /// increment + reply; ~250 ns is typical for a kernel-bypass server).
    pub fn new(service_ns: u64) -> Self {
        Self {
            counter: AtomicU64::new(0),
            sequencer_cpu: SharedTimeline::new(),
            service_ns,
        }
    }
}

impl TimestampOracle for RpcOracle {
    fn name(&self) -> &'static str {
        "rpc"
    }
    fn next_ts(&self, ep: &Endpoint) -> DsmResult<u64> {
        let profile = ep.fabric().profile();
        // Request message.
        ep.charge_local(profile.send_cost_ns(16));
        // Queue + service at the sequencer.
        let done = self
            .sequencer_cpu
            .reserve(ep.clock().now_ns(), self.service_ns);
        ep.clock().advance_to(done);
        // Response message.
        ep.charge_local(profile.send_cost_ns(16));
        Ok(self.counter.fetch_add(1, Ordering::Relaxed) + 1)
    }
}

/// Coordination-free hybrid timestamps: `(local_counter << 16) | worker`.
///
/// Unique across workers, monotonic per worker, zero network cost — but
/// two workers' stamps are ordered only by counter value, not true time,
/// so protocols using it trade some spurious aborts for oracle-free
/// operation.
pub struct HybridClockOracle {
    worker: u16,
    local: AtomicU64,
}

impl HybridClockOracle {
    /// An oracle for worker `worker` (must be unique per worker).
    pub fn new(worker: u16) -> Self {
        Self {
            worker,
            local: AtomicU64::new(0),
        }
    }

    /// Fold an observed remote timestamp into the local clock (HLC merge)
    /// so causally later stamps compare greater.
    pub fn observe(&self, ts: u64) {
        let observed = ts >> 16;
        self.local.fetch_max(observed, Ordering::Relaxed);
    }
}

impl TimestampOracle for HybridClockOracle {
    fn name(&self) -> &'static str {
        "hybrid"
    }
    fn next_ts(&self, ep: &Endpoint) -> DsmResult<u64> {
        ep.charge_local(10); // a local atomic increment
        let c = self.local.fetch_add(1, Ordering::Relaxed) + 1;
        Ok((c << 16) | self.worker as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};

    fn layer() -> Arc<DsmLayer> {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
            },
        )
    }

    #[test]
    fn faa_is_strictly_increasing_across_workers() {
        let l = layer();
        let oracle = FaaOracle::new(&l).unwrap();
        let mut all = Vec::new();
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            for _ in 0..4 {
                let l = l.clone();
                let oracle = &oracle;
                let tx = tx.clone();
                s.spawn(move || {
                    let ep = l.fabric().endpoint();
                    let ts: Vec<u64> =
                        (0..1000).map(|_| oracle.next_ts(&ep).unwrap()).collect();
                    tx.send(ts).unwrap();
                });
            }
            drop(tx);
            while let Ok(ts) = rx.recv() {
                all.extend(ts);
            }
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "no duplicate timestamps");
        assert_eq!(*all.first().unwrap(), 1);
        assert_eq!(*all.last().unwrap(), 4000);
    }

    #[test]
    fn faa_charges_one_atomic_per_ts() {
        let l = layer();
        let oracle = FaaOracle::new(&l).unwrap();
        let ep = l.fabric().endpoint();
        for _ in 0..10 {
            oracle.next_ts(&ep).unwrap();
        }
        assert_eq!(ep.stats().faa, 10);
    }

    #[test]
    fn rpc_sequencer_saturates_under_concurrency() {
        let l = layer();
        let oracle = RpcOracle::new(1_000);
        // 4 clients x 100 requests arriving "simultaneously": the last
        // completion reflects queueing at the single sequencer CPU.
        let mut makespans = Vec::new();
        for _ in 0..4 {
            let ep = l.fabric().endpoint();
            for _ in 0..100 {
                oracle.next_ts(&ep).unwrap();
            }
            makespans.push(ep.clock().now_ns());
        }
        // Total sequencer service = 400 us; the last client must wait for
        // most of it even though its own messages total ~2*2.4us*100.
        assert!(*makespans.last().unwrap() >= 390_000);
    }

    #[test]
    fn hybrid_is_free_and_unique() {
        let l = layer();
        let a = HybridClockOracle::new(1);
        let b = HybridClockOracle::new(2);
        let ep = l.fabric().endpoint();
        let t1 = a.next_ts(&ep).unwrap();
        let t2 = b.next_ts(&ep).unwrap();
        assert_ne!(t1, t2);
        assert!(ep.clock().now_ns() < 100, "local-only cost");
        assert_eq!(ep.stats().round_trips(), 0);
    }

    #[test]
    fn hybrid_observe_advances_past_remote_stamps() {
        let l = layer();
        let ep = l.fabric().endpoint();
        let a = HybridClockOracle::new(1);
        let b = HybridClockOracle::new(2);
        for _ in 0..100 {
            b.next_ts(&ep).unwrap();
        }
        let remote = b.next_ts(&ep).unwrap();
        a.observe(remote);
        let local = a.next_ts(&ep).unwrap();
        assert!(local > remote, "{local} should exceed observed {remote}");
    }
}
