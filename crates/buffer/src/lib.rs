//! # buffer — compute-node buffer management for DSM-DB
//!
//! §5 Challenge 8: "In DSM-DB, we need to rethink buffer management because
//! the performance gap between local and remote memory is significantly
//! narrowed, e.g., down to 10x or less … we need to focus on the actual
//! running time instead of just cache hit rates. That is because, software
//! overhead, e.g., lookup cost, maintenance cost to reorganize buffer
//! contents (in, say LRU), and synchronization cost due to multi-threaded
//! access may become the performance bottlenecks for fast RDMA."
//!
//! This crate therefore measures **both** quantities for every policy:
//!
//! * the classical *hit rate*, and
//! * the *software overhead in nanoseconds* of each policy action, priced
//!   by the explicit micro-op cost model in [`cost`] (map probes, list
//!   splices, lock acquisitions, clock sweeps, …).
//!
//! The paper's named policies are all here: FIFO, LRU, LRU-K \[46\], 2Q \[31\],
//! CLOCK, ARC \[43\], plus a Redis-style sampled-LRU as the "new policies
//! must consider actual running time" candidate. Experiment **C5** runs the
//! same trace through every policy at a disk-era gap and at the RDMA gap
//! and shows the ranking inversion the paper predicts.

pub mod arc;
pub mod cost;
pub mod policy;
pub mod pool;
pub mod twoq;

pub use arc::ArcPolicy;
pub use policy::{
    ClockPolicy, FifoPolicy, FrameId, LruKPolicy, LruPolicy, ReplacementPolicy, SampledLruPolicy,
};
pub use pool::{BufferPool, Fetch, PoolStats, WriteMode};
pub use twoq::TwoQPolicy;

/// Construct every policy at the given frame capacity — the experiment
/// harness and the cross-policy tests iterate this.
pub fn all_policies(capacity: usize) -> Vec<Box<dyn ReplacementPolicy>> {
    vec![
        Box::new(FifoPolicy::new(capacity)),
        Box::new(LruPolicy::new(capacity)),
        Box::new(LruKPolicy::new(capacity)),
        Box::new(TwoQPolicy::new(capacity)),
        Box::new(ClockPolicy::new(capacity)),
        Box::new(ArcPolicy::new(capacity)),
        Box::new(SampledLruPolicy::new(capacity)),
    ]
}
