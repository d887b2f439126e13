//! # workload — OLTP workload generators for the DSM-DB experiments
//!
//! The paper targets "OLTP main-memory databases" (§1) and repeatedly
//! reasons about *skew* (§2 benefit 4, §8 resharding). The experiment
//! harness therefore needs the standard OLTP workload family:
//!
//! * [`zipf::ZipfGenerator`] — the skewed key chooser (Gray et al.'s
//!   method) every cache/contention sweep is parameterised by;
//! * [`smallbank`] — the SmallBank transaction mix (multi-record
//!   read-write transactions with natural conflicts);
//! * [`tpcc_lite`] — NewOrder/Payment with a warehouse partitioning
//!   dimension that sets the *cross-shard fraction*; only the engine's
//!   property tests (`dsmdb/tests/engine_prop.rs`) drive it today.
//!
//! Everything is deterministic given a seed.

pub mod smallbank;
pub mod tpcc_lite;
pub mod zipf;

pub use smallbank::{SmallBankOp, SmallBankWorkload};
pub use tpcc_lite::{TpccLiteWorkload, TpccTxn};
pub use zipf::ZipfGenerator;
