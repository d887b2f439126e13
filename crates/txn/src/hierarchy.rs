//! Hierarchical (local + global) locking — §4 Challenge 7.
//!
//! "This may require distinguishing the local concurrency control (within
//! the same compute node) and global concurrency control (across
//! different compute nodes)." With tens of worker threads per compute
//! node, having every thread CAS the remote lock word wastes round trips
//! whenever two *local* threads contend. [`HierarchicalLocks`] interposes
//! a node-local lease: the first local thread acquires the global RDMA
//! lock; further local threads queue on a local latch (nanoseconds, no
//! network); the global lock is released only when the last local holder
//! leaves. Experiment **C12** measures the saved round trips.

use std::collections::HashMap;
use std::sync::Arc;

use dsm::{DsmLayer, GlobalAddr};
use parking_lot::Mutex;
use rdma_sim::Endpoint;

use crate::locks::{ExclusiveLock, LockError};

/// Virtual cost of one local latch check while waiting (ns).
const LOCAL_SPIN_NS: u64 = 30;

#[derive(Default)]
struct Lease {
    /// Holders + waiters from this compute node.
    refs: usize,
    /// A local thread is inside the critical section.
    busy: bool,
}

/// A per-compute-node lock manager layering local latches over the global
/// RDMA exclusive lock.
pub struct HierarchicalLocks {
    node_tag: u64,
    leases: Mutex<HashMap<u64, Lease>>,
}

/// Proof of acquisition; pass back to [`HierarchicalLocks::release`].
#[must_use = "the lock stays held until release() is called"]
pub struct HierGuard {
    key: u64,
    addr: GlobalAddr,
}

impl HierarchicalLocks {
    /// A manager for the compute node identified by `node_tag` (nonzero;
    /// used as the global lock owner value).
    pub fn new(node_tag: u64) -> Arc<Self> {
        assert!(node_tag != 0);
        Arc::new(Self {
            node_tag,
            leases: Mutex::new(HashMap::new()),
        })
    }

    /// Acquire the lock at `addr` for this node's calling thread.
    ///
    /// The *first* local claimant takes the global lock with bounded
    /// retries (`Err(Busy)` aborts as usual); later local threads wait
    /// locally — no round trips — until the critical section frees.
    pub fn acquire(
        &self,
        layer: &DsmLayer,
        ep: &Endpoint,
        addr: GlobalAddr,
        max_retries: u32,
    ) -> Result<HierGuard, LockError> {
        let key = addr.to_raw();
        let i_take_global = {
            let mut m = self.leases.lock();
            let e = m.entry(key).or_default();
            e.refs += 1;
            if e.refs == 1 {
                e.busy = true; // we hold it as soon as the global CAS lands
                true
            } else {
                false
            }
        };
        ep.charge_local(LOCAL_SPIN_NS);

        if i_take_global {
            match ExclusiveLock::acquire(layer, ep, addr, self.node_tag, max_retries) {
                Ok(()) => Ok(HierGuard { key, addr }),
                Err(e) => {
                    let mut m = self.leases.lock();
                    if let Some(lease) = m.get_mut(&key) {
                        lease.refs -= 1;
                        lease.busy = false;
                        if lease.refs == 0 {
                            m.remove(&key);
                        }
                    }
                    Err(e)
                }
            }
        } else {
            // Wait for the local critical section; the global lock is
            // already ours (the node's).
            loop {
                {
                    let mut m = self.leases.lock();
                    let e = m.get_mut(&key).expect("lease exists while refs > 0");
                    if !e.busy {
                        e.busy = true;
                        return Ok(HierGuard { key, addr });
                    }
                }
                ep.charge_local(LOCAL_SPIN_NS);
                std::thread::yield_now();
            }
        }
    }

    /// Number of local holders + waiters currently leased on `addr`
    /// (test/metric introspection).
    pub fn lease_refs(&self, addr: GlobalAddr) -> usize {
        self.leases
            .lock()
            .get(&addr.to_raw())
            .map(|l| l.refs)
            .unwrap_or(0)
    }

    /// Release a held lock; the global lock is dropped only by the last
    /// local holder.
    pub fn release(
        &self,
        layer: &DsmLayer,
        ep: &Endpoint,
        guard: HierGuard,
    ) -> Result<(), LockError> {
        let release_global = {
            let mut m = self.leases.lock();
            let e = m.get_mut(&guard.key).expect("released lease must exist");
            debug_assert!(e.busy, "release without hold");
            e.busy = false;
            e.refs -= 1;
            if e.refs == 0 {
                m.remove(&guard.key);
                true
            } else {
                false
            }
        };
        ep.charge_local(LOCAL_SPIN_NS);
        if release_global {
            ExclusiveLock::release(layer, ep, guard.addr)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};

    fn setup() -> (Arc<Fabric>, Arc<DsmLayer>, GlobalAddr) {
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
        let addr = layer.alloc(8).unwrap();
        (fabric, layer, addr)
    }

    #[test]
    fn waiter_piggybacks_on_holders_global_lock() {
        // Deterministic sharing: while thread A holds the lock, thread B
        // registers as a local waiter; when A releases, B enters the
        // critical section with ZERO global CAS verbs of its own.
        let (f, l, a) = setup();
        let mgr = HierarchicalLocks::new(7);
        let ep_a = f.endpoint();
        let g_a = mgr.acquire(&l, &ep_a, a, 0).unwrap();
        std::thread::scope(|s| {
            let (f2, l2, mgr2) = (f.clone(), l.clone(), mgr.clone());
            let waiter = s.spawn(move || {
                let ep_b = f2.endpoint();
                let g_b = mgr2.acquire(&l2, &ep_b, a, 0).unwrap();
                let cas_used = ep_b.stats().cas;
                mgr2.release(&l2, &ep_b, g_b).unwrap();
                cas_used
            });
            // Wait until B is visibly queued, then release A.
            while mgr.lease_refs(a) < 2 {
                std::thread::yield_now();
            }
            mgr.release(&l, &ep_a, g_a).unwrap();
            assert_eq!(waiter.join().unwrap(), 0, "waiter reused the lease");
        });
        // Lease fully drained: the global lock word is free again.
        let ep = f.endpoint();
        assert_eq!(l.read_u64(&ep, a).unwrap(), 0);
    }

    #[test]
    fn stress_mutual_exclusion_and_bounded_cas() {
        let (f, l, a) = setup();
        let mgr = HierarchicalLocks::new(7);
        let data = l.alloc(8).unwrap();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (f, l, mgr) = (f.clone(), l.clone(), mgr.clone());
                let barrier = &barrier;
                s.spawn(move || {
                    let ep = f.endpoint();
                    barrier.wait();
                    for _ in 0..200 {
                        let g = loop {
                            match mgr.acquire(&l, &ep, a, 1000) {
                                Ok(g) => break g,
                                Err(LockError::Busy) => {
                                    std::thread::yield_now();
                                    continue;
                                }
                                Err(e) => panic!("{e}"),
                            }
                        };
                        let v = l.read_u64(&ep, data).unwrap();
                        l.write_u64(&ep, data, v + 1).unwrap();
                        mgr.release(&l, &ep, g).unwrap();
                    }
                });
            }
        });
        let ep = f.endpoint();
        assert_eq!(l.read_u64(&ep, data).unwrap(), 800, "mutual exclusion");
    }

    #[test]
    fn cross_node_exclusion_still_holds() {
        let (f, l, a) = setup();
        let node1 = HierarchicalLocks::new(1);
        let node2 = HierarchicalLocks::new(2);
        let ep1 = f.endpoint();
        let ep2 = f.endpoint();
        let g1 = node1.acquire(&l, &ep1, a, 0).unwrap();
        // A different compute node must bounce off the global lock.
        assert!(matches!(
            node2.acquire(&l, &ep2, a, 2),
            Err(LockError::Busy)
        ));
        node1.release(&l, &ep1, g1).unwrap();
        let g2 = node2.acquire(&l, &ep2, a, 2).unwrap();
        node2.release(&l, &ep2, g2).unwrap();
    }

    #[test]
    fn failed_global_acquire_cleans_lease() {
        let (f, l, a) = setup();
        // Foreign holder.
        let ep0 = f.endpoint();
        ExclusiveLock::acquire(&l, &ep0, a, 99, 0).unwrap();
        let mgr = HierarchicalLocks::new(1);
        let ep = f.endpoint();
        assert!(matches!(mgr.acquire(&l, &ep, a, 1), Err(LockError::Busy)));
        // Lease table must be empty again so a later acquire retries the
        // global lock rather than waiting forever on a phantom lease.
        ExclusiveLock::release(&l, &ep0, a).unwrap();
        let g = mgr.acquire(&l, &ep, a, 1).unwrap();
        mgr.release(&l, &ep, g).unwrap();
    }
}
