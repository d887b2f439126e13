//! # txn — concurrency control over RDMA for DSM-DB
//!
//! §4 of the paper: compute nodes share the memory pool with no hardware
//! cache coherence, locks cost network round trips, and the classical
//! protocol zoo needs re-evaluation. This crate implements that zoo over
//! the simulated fabric:
//!
//! * [`locks`] — the lock primitives of §4 Challenge 6: the 1-round-trip
//!   exclusive CAS spinlock and a shared-exclusive lock in one word, one
//!   round trip each way with CAS and fetch-and-add. Experiment **C2**
//!   measures it beside footnote 2's ≥2-round-trip latch + holder
//!   metadata, and the trade in transactions.
//! * [`oracle`] — global timestamp generation: one-sided FAA on a DSM
//!   counter vs a two-sided RPC sequencer vs a coordination-free hybrid
//!   clock (§4 Challenge 6, "how to generate timestamps"). Experiment
//!   **C4**.
//! * [`table`] — the record layout CC protocols operate on: a fixed-slot
//!   table in DSM with per-record read-timestamp word, a small in-record
//!   version array (1 version = single-version layouts) and, last, the
//!   lock word, which a lock holder's write-back frees as it lands.
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

pub use locks::{ExclusiveLock, LeaseLock, LockError, LockWord, Rider, SharedExclusiveLock, WriteBack};
pub use oracle::{FaaOracle, HybridClockOracle, RpcOracle, TimestampOracle};
pub use protocols::{
    apply_delta, distinct_keys, AbortCause, ConcurrencyControl, DirectIo, KeyUse, Mvcc, Occ, Op, PayloadIo, TwoPhaseLocking, Tso, TxnCtx, TxnError, TxnOutput,
};
pub use table::RecordTable;
