//! # txn — concurrency control over RDMA for DSM-DB
//!
//! §4 of the paper: compute nodes share the memory pool with no hardware
//! cache coherence, locks cost network round trips, and the classical
//! protocol zoo needs re-evaluation. This crate implements that zoo over
//! the simulated fabric:
//!
//! * [`locks`] — the paper's lock primitives: the 1-round-trip exclusive
//!   CAS spinlock and the ≥2-round-trip shared-exclusive lock built from a
//!   latch + holder metadata (§4 Challenge 6, footnote 2). Experiment
//!   **C2** measures exactly this trade.
//! * [`oracle`] — global timestamp generation: one-sided FAA on a DSM
//!   counter vs a two-sided RPC sequencer vs a coordination-free hybrid
//!   clock (§4 Challenge 6, "how to generate timestamps"). Experiment
//!   **C4**.
//! * [`table`] — the record layout CC protocols operate on: a fixed-slot
//!   table in DSM with per-record lock word, read-timestamp word, and a
//!   small in-record version array (1 version = single-version layouts).
//! * [`protocols`] — 2PL (exclusive or shared-exclusive, no-wait),
//!   OCC with version validation, timestamp ordering (TSO), and MVCC.
//!   Experiment **C3** sweeps them against contention.
//! * [`twopc`] — the commit messages of the sharded architecture (Figure
//!   3c): two-phase commit whose last owner prepares and decides in one
//!   round (last-agent commit); the RDMA-native direct-write alternative
//!   the paper hints at in Challenge 5 is 3a. Experiment **C11**.
//! * [`hierarchy`] — hierarchical (local + global) locking for massive
//!   concurrency (§4 Challenge 7). Experiment **C12**.

pub mod hierarchy;
pub mod locks;
pub mod oracle;
pub mod protocols;
pub mod table;
pub mod twopc;

pub use locks::{ExclusiveLock, LeaseLock, LockError, LockWord, Rider, SharedExclusiveLock};
pub use oracle::{FaaOracle, HybridClockOracle, RpcOracle, TimestampOracle};
pub use protocols::{
    apply_delta, distinct_keys, AbortCause, ConcurrencyControl, DirectIo, KeyUse, Mvcc, Occ, Op, PayloadIo, TwoPhaseLocking, Tso, TxnCtx, TxnError, TxnOutput,
};
pub use table::RecordTable;
