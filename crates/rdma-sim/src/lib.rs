//! # rdma-sim — a virtual-time RDMA fabric simulator
//!
//! The DSM-DB vision paper assumes compute nodes reach memory nodes through
//! one-sided RDMA verbs (READ, WRITE, CAS, FETCH-AND-ADD) and two-sided
//! SEND/RECV messages. Real RDMA NICs are not available here, so this crate
//! provides the closest software equivalent that preserves the two properties
//! every argument in the paper rests on:
//!
//! 1. **Real memory semantics.** Verbs execute against actual process memory
//!    using real atomics (`AtomicU64` CAS/FAA) and real copies, so lock
//!    protocols, lost-update hazards, and torn reads behave exactly as they
//!    would against a remote NIC performing DMA. Like hardware RDMA, plain
//!    READ/WRITE of overlapping ranges are *not* atomic with respect to each
//!    other — only the 8-byte atomic verbs are.
//! 2. **A calibrated cost model.** Every verb charges latency to the issuing
//!    thread's virtual [`Clock`] according to a [`NetworkProfile`]
//!    (base round-trip latency + a bandwidth term). Throughput and latency
//!    are therefore deterministic functions of *round trips and bytes moved*,
//!    which is the level at which the paper reasons (e.g. "a shared-exclusive
//!    RDMA lock needs at least 2 round trips").
//!
//! The central types are [`Fabric`] (the cluster-wide wire + registered
//! memory), [`Region`] (a registered memory region owned by a node), and
//! [`Endpoint`] (a per-thread queue-pair handle that issues verbs and owns a
//! virtual clock).
//!
//! Every verb completes through one path on [`Endpoint`]: the op
//! counters, the per-verb latency histograms and one event pushed into
//! the [`FlightRecorder`], the only sink of observations. The series,
//! the contention profile, forensics and utilization are folds over its
//! events (see [`recorder`]).
//!
//! ```
//! use rdma_sim::{Fabric, NetworkProfile};
//!
//! let fabric = Fabric::new(NetworkProfile::rdma_cx6());
//! let node = fabric.register_node(4096); // one memory node, 4 KiB
//! let ep = fabric.endpoint();
//!
//! ep.write(node, 0, &42u64.to_le_bytes()).unwrap();
//! let mut buf = [0u8; 8];
//! ep.read(node, 0, &mut buf).unwrap();
//! assert_eq!(u64::from_le_bytes(buf), 42);
//! assert!(ep.clock().now_ns() > 0); // two round trips were charged
//! ```

pub mod clock;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod mailbox;
pub mod profile;
pub mod recorder;
pub mod region;
pub mod stats;

pub use clock::Clock;
pub use error::{RdmaError, RdmaResult};
pub use fault::FaultPlan;
pub use fabric::{Endpoint, Fabric, NodeId, SpanGuard, Wr};
pub use mailbox::{Mailbox, MailboxId, Message};
pub use profile::NetworkProfile;
pub use recorder::{pack_addr, Event, EventKind, FlightRecorder};
pub use region::Region;
pub use stats::{OpKind, OpStats, StatsSnapshot};
// Telemetry vocabulary, re-exported so downstream crates that already
// depend on rdma-sim can open spans without a direct telemetry dep.
pub use telemetry::{
    gini, heat_key, heat_key_base_offset, heat_key_node, max_mean_ratio, placement_advisor,
    sparkline, AlertEvent, AlertKind, AlertState, ChromeTrace, ContentionSnapshot, HistSnapshot,
    Metric, MovePlan, MoveRec, NodeUtil, Phase, PhaseSnapshot, Sample, SeriesSnapshot, TopEntry,
    UtilSnapshot, UtilWindow, WaitEdge, Watchdog, WatchdogConfig, DEFAULT_WINDOW_NS,
    HEAT_RANGE_BYTES,
};
