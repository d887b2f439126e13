//! # telemetry — virtual-time observability for the DSM-DB repro
//!
//! The paper's entire argument is made in *latencies and round trips*:
//! the ~10× local/remote gap (§2), the ≥2-RT shared lock (§4), the
//! cache-ratio cliffs (§7). Aggregate verb counts and mean RTs/txn hide
//! both the tail and the *destination* of those round trips, so this
//! crate supplies the three missing observability primitives:
//!
//! * [`hist::Histogram`] — a deterministic, allocation-light,
//!   log-bucketed latency histogram (HDR-style, ≤1.6% relative error at
//!   bucket midpoints, mergeable across threads/endpoints). Driven by
//!   the rdma-sim virtual clock, so p50/p95/p99/p999 are *exactly*
//!   reproducible run-to-run on deterministic workloads.
//! * [`span::PhaseTracker`] — span tracing over virtual time: a fixed
//!   [`span::Phase`] taxonomy (index lookup, page fetch, lock acquire,
//!   execute, log write, 2PC prepare/decide, coherence, write-back) and
//!   a `Cell`-based per-thread tracker that attributes elapsed virtual
//!   nanoseconds *and* verbs/wire-RTs to the innermost open phase — a
//!   per-transaction flamegraph as a table. No atomics, no heap per
//!   record.
//! * [`timeseries::SeriesRecorder`] — named counters sampled into
//!   fixed-width virtual-time windows (commits, aborts by cause, verbs,
//!   wire RTs, cache hits, lock waits/steals, epoch bumps, txn and
//!   migration begins) with an associative/commutative cross-session
//!   merge, and [`analysis`] — recovery facts computed *from* the
//!   series: steady-state baseline, dip depth, time-to-detection and
//!   time-to-recovery.
//! * [`watchdog::Watchdog`] — an online monitor that evaluates a fixed
//!   rule set over the closing series windows and emits a
//!   deterministic, typed, virtual-timestamped alert log with
//!   open/clear semantics and debounce. The two levels its rules read
//!   (sessions and migrations in flight) are prefix sums of series
//!   counters, so it needs no second recorder.
//! * [`forensics`] — tail-latency forensics: per-transaction critical
//!   paths reconstructed from the flight-recorder event ring, typed
//!   blame attribution for every nanosecond of a slow transaction, and
//!   a deterministic worst-K exemplar reservoir merged cross-session.
//! * [`utilization`] — the capacity/placement plane: per-memory-node
//!   ingress/egress/occupancy windows, exact heat lists over 64 KiB
//!   page ranges split by session and txn phase, and the
//!   [`analysis`] imbalance indices (Gini, max/mean) plus the
//!   deterministic placement advisor that turns heat + cold nodes into
//!   a typed move plan for the reshard layer.
//! * [`json`] + [`report`] — a small no-dependency JSON
//!   serializer/parser and the [`report::Report`] type every `exp_*`
//!   binary serializes into `results/`, plus the cross-PR
//!   `BENCH_summary.json` merge.
//!
//! The crate is a leaf (no workspace dependencies): `rdma-sim` embeds
//! the tracker and histograms inside `Endpoint`, and everything above it
//! reuses the same types.

pub mod analysis;
pub mod contention;
pub mod forensics;
pub mod hist;
pub mod json;
pub mod report;
pub mod span;
pub mod timeseries;
pub mod trace;
pub mod utilization;
pub mod watchdog;
mod window;

pub use analysis::{
    gini, max_mean_ratio, move_plan_from_json, move_plan_json, placement_advisor, sparkline,
    MovePlan, MoveRec, RecoveryFacts, RollingBaseline,
};
pub use contention::{
    wait_for_analysis, ContentionSnapshot, HotList, TopEntry, WaitEdge, WaitForSummary,
    MERGED_TOP_K,
};
pub use forensics::{
    blame_name, blame_of, extract, forensics_from_json, forensics_json, Blame, ForensicsCollector,
    ForensicsSnapshot, PathEvent, StepKind, TxnForensics, BLAME_KINDS,
};
pub use hist::{HistSnapshot, Histogram};
pub use json::Json;
pub use report::Report;
pub use span::{bucket_name, Phase, PhaseSnapshot, PhaseTracker, Sample, OTHER_BUCKET, PHASE_BUCKETS};
pub use timeseries::{Metric, SeriesRecorder, SeriesSnapshot, DEFAULT_WINDOW_NS, MAX_WINDOWS};
pub use trace::ChromeTrace;
pub use utilization::{
    heat_key, heat_key_base_offset, heat_key_node, utilization_from_json, utilization_json,
    NodeUtil, PhaseLoad, UtilRecorder, UtilSnapshot, UtilWindow, HEAT_RANGE_BYTES,
    HEAT_RANGE_SHIFT, UTIL_PHASES,
};
pub use watchdog::{AlertEvent, AlertKind, AlertState, Watchdog, WatchdogConfig};
