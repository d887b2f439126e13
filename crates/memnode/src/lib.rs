//! # memnode — memory nodes for the DSM layer
//!
//! The paper's memory nodes "have weak computing capability (e.g., a few
//! CPU cores) but abundant memory (e.g., 100s of GBs)" (§1). This crate
//! models one such node:
//!
//! * a registered [`rdma_sim::Region`] holding the node's DRAM, reachable
//!   by one-sided verbs through the fabric;
//! * a user-space **extent allocator** over that region — §3 Challenge 1
//!   suggests "allocate a giant continuous memory space and keep track of
//!   memory usage in user space", which is what [`alloc::ExtentAllocator`]
//!   does (first-fit with address-ordered coalescing plus size-class quick
//!   lists, and fragmentation accounting for experiment F1);
//! * an **offload executor** ([`offload::OffloadExecutor`]) exposing the
//!   paper's Function Offloading API: registered handlers run *at* the
//!   memory node against its region, priced on a weak-CPU timeline (every
//!   core [`WEAK_CPU_FACTOR`] times slower than a compute node's) so that
//!   saturating the node's few cores produces queueing delay (experiment
//!   C6, caching vs offloading).

pub mod alloc;
pub mod node;
pub mod offload;

pub use alloc::{AllocError, AllocStats, ExtentAllocator};
pub use node::MemoryNode;
pub use offload::{OffloadExecutor, OffloadFn, OffloadOutput, WEAK_CPU_FACTOR};
