//! # telemetry — virtual-time observability for the DSM-DB repro
//!
//! The paper argues in *latencies and round trips*: the ~10× local/remote
//! gap (§2), the ≥2-RT shared lock (§4), the cache-ratio cliffs (§7).
//! Aggregate verb counts hide both the tail and the *destination* of
//! those round trips, so this crate supplies:
//!
//! * [`hist::Histogram`] — a deterministic log-bucketed latency histogram
//!   (≤1.6% relative error, mergeable), exactly reproducible on the
//!   rdma-sim virtual clock.
//! * [`span::PhaseTracker`] — span tracing over virtual time: virtual ns
//!   *and* verbs/wire RTs attributed to the innermost open
//!   [`span::Phase`], a per-transaction flamegraph as a table.
//! * Folds over one event vocabulary. `rdma-sim`'s flight recorder turns
//!   every observation into one event, and each view is a fold over
//!   those events: [`timeseries::fold`] (counters in fixed-width
//!   virtual-time windows), [`contention::fold`] (exact hot lock words,
//!   wait-for edges, coherence fan-out), [`forensics`] (per-transaction
//!   critical paths, typed blame, a worst-K exemplar reservoir) and
//!   [`utilization::fold`] (per-memory-node load, exact heat lists over
//!   64 KiB ranges). Every result merges across sessions in any order.
//! * Views derived from those: [`analysis`] (recovery facts, imbalance
//!   indices, the placement advisor's move plan) and [`watchdog`] (a
//!   deterministic alert log replayed over the series, whose levels are
//!   prefix sums of its counters).
//! * [`json`] + [`report`] — a no-dependency JSON serializer/parser and
//!   the [`report::Report`] every `exp_*` binary writes into `results/`.
//!
//! The crate is a leaf (no workspace dependencies): `rdma-sim` embeds
//! the tracker, histograms and accumulators inside `Endpoint`, and
//! everything above it reuses the same types.

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
    NodeUtil, PhaseLoad, UtilSnapshot, UtilWindow, VerbLoad, HEAT_RANGE_BYTES,
    HEAT_RANGE_SHIFT, UTIL_PHASES,
};
pub use watchdog::{AlertEvent, AlertKind, AlertState, Watchdog, WatchdogConfig};
