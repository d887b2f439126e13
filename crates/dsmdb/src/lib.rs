//! # dsmdb — the DSM-DB engine
//!
//! The distributed shared-memory OLTP database the paper envisions
//! (Figure 2): compute nodes with strong CPUs and small local memory,
//! memory nodes pooled into a DSM layer over (simulated) RDMA, and the
//! whole §4 design space of Figure 3 as a runtime switch:
//!
//! * [`Architecture::NoCacheNoShard`] (Fig. 3a) — every access is a
//!   one-sided verb; no local state, no coherence problem; any CC
//!   protocol from the `txn` crate.
//! * [`Architecture::CacheNoShard`] (Fig. 3b) — every compute node caches
//!   hot records in a buffer pool; a software coherence protocol
//!   (invalidation- or update-based, §4 Approach #2) whose directory is
//!   one sharer word beside each record's lock word keeps the caches
//!   consistent; exclusive 2PL, whose two doorbells carry that word.
//! * [`Architecture::CacheShard`] (Fig. 3c) — logical range sharding:
//!   the owner runs its shard with *local* latches and its cache needs no
//!   coherence; cross-shard transactions are function-shipped to owners
//!   under two-phase commit whose last owner prepares and decides in one
//!   round (two messages with one remote owner). Resharding moves
//!   **metadata only** (§2 benefit 4).
//!
//! The engine exposes [`Cluster`] (build once) and per-thread
//! [`Session`]s (execute transactions); all timing flows through the
//! virtual clocks of `rdma-sim`.

pub mod coherence;
pub mod config;
pub mod engine;
pub mod membership;
pub mod migrate;
pub mod shard;

pub use config::{Architecture, CcProtocol, ClusterConfig, CoherenceMode};
pub use engine::{Cluster, EngineError, Session, SessionStats};
pub use membership::{Membership, NodeStatus};
pub use migrate::{MigrateError, MigrationState, Migrator, RecoveryOutcome};
pub use shard::ShardMap;

pub use txn::{AbortCause, Op, TxnError, TxnOutput};
