//! # dsm — the distributed shared-memory layer of DSM-DB
//!
//! §3 of the paper: "The goal for having distributed shared-memory (DSM) in
//! DSM-DB is to manage a cluster of memory nodes (each provisioning large
//! memory) and provide unified memory space with the necessary APIs for
//! DBMSs to build on."
//!
//! This crate is that layer. It provides, per the paper's Challenge 1 API
//! taxonomy:
//!
//! * **Memory allocation APIs** — [`DsmLayer::alloc`]/[`DsmLayer::free`]/
//!   [`DsmLayer::realloc`] over the pooled capacity of all memory nodes,
//!   returning *logical* [`GlobalAddr`]s (node id + offset) that survive
//!   node replacement;
//! * **Data transmission APIs** — one-sided read/write (optionally
//!   doorbell-batched) and the atomic verbs (CAS, FAA), all addressed by
//!   `GlobalAddr`;
//! * **Function offloading APIs** — [`DsmLayer::offload`] routes a
//!   registered function to the owning memory node's weak-CPU executor.
//!
//! Durability (Challenge 2) and availability (Challenge 3) are provided by
//! [`durability::DurableLog`] (cloud-WAL vs RAMCloud-style replicated log,
//! with group commit) and [`checkpoint`]/[`erasure`] (checkpoint+replay vs
//! k-way mirroring vs erasure coding). Experiments C7 and C8 sweep these.

pub mod addr;
pub mod checkpoint;
pub mod durability;
pub mod erasure;
pub mod layer;
pub mod retry;

pub use addr::GlobalAddr;
pub use checkpoint::{CheckpointManager, RecoveryStats};
pub use durability::{DurabilityMode, DurableLog};
pub use erasure::{ErasureConfig, ErasureStore, StripedPage};
pub use layer::{DsmConfig, DsmError, DsmLayer, DsmResult, GlobalWr};
pub use retry::RetryPolicy;
