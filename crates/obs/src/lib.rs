//! Observability for the Iniva reproduction: metrics, tracing, and
//! cross-replica timeline analysis — with no dependencies, because the
//! workspace builds offline.
//!
//! Three layers, from hot to cold:
//!
//! 1. [`metrics`] — a name-keyed [`Registry`] of counters, gauges and
//!    fixed-bucket latency [`Histogram`]s. Registration locks once;
//!    every subsequent update is a relaxed atomic on a kept handle, so
//!    instrumenting a per-message path costs a few atomic adds.
//! 2. [`trace`] — a bounded per-replica ring of structured consensus
//!    events ([`EventKind`]): view entries and timeouts, proposals,
//!    verify batches, QCs, commits, faults, WAL fsyncs, state-transfer
//!    chunks. Disabled by default; a disabled [`Tracer`] turns every
//!    emit into one branch and never runs the event-building closure.
//! 3. [`timeline`] — merges per-node JSONL dumps onto the shared
//!    runtime epoch (correcting wall-clock skew against commit
//!    anchors) into a per-view [`Timeline`]: who led, who entered
//!    when, and where the view's Δ budget went — network, verify, or
//!    timer wait; [`check_agreement`] compares their committed hashes.
//!
//! The root package's `view_timeline` binary is the command-line
//! face of layer 3; `live_cluster --metrics-dir` and the resilience
//! bench produce its inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod timeline;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use timeline::{check_agreement, NodeDump, Timeline, TimelineSummary, ViewOutcome, ViewRecord};
pub use trace::{Event, EventKind, TimerKind, Tracer};
