//! # bv-telemetry — deterministic epoch-sampled observability
//!
//! The paper's argument is dynamic: Base-Victim wins because victim
//! occupancy and compressibility fluctuate per program phase, and the
//! naive two-tag designs lose because replacement-state pollution
//! accumulates over time. End-of-run aggregates can't show any of that,
//! so this crate provides the data structures a simulator needs to
//! record *time-varying* behavior without giving up determinism or hot
//! path speed:
//!
//! * [`TimeSeries`] — compact columnar per-epoch samples (one epoch =
//!   [`DEFAULT_EPOCH_INSTS`] committed instructions unless overridden);
//! * [`Log2Histogram`] — 65-bucket power-of-two histograms for bursty
//!   per-epoch quantities;
//! * [`TelemetryReport`] + [`render()`] — the `bvsim-telemetry-v1` JSONL
//!   sink and the terminal renderer behind `bvsim report`;
//! * [`json`] — the registry-free JSON reader/writer everything round
//!   trips through (also re-exported as `bv_runner::json` for the run
//!   journal);
//! * [`events_io`] — the `bvsim-events-v1` JSONL reader/writer for
//!   `bv-events` captures (`bvsim trace` writes a drained ring with
//!   [`write_events`]).
//!
//! Everything here is sampled on *committed instructions*, never wall
//! clock, so an instrumented run is bit-reproducible: the same trace and
//! config produce the same JSONL bytes on any machine.
//!
//! The crate is simulator-agnostic and depends only on `bv-events` (for
//! the event record the JSONL schema serializes); `bv-sim` owns the
//! actual instrumentation hooks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events_io;
mod hist;
pub mod json;
pub mod render;
mod series;
mod sink;

pub use events_io::{read_events, write_events, EventsHeader, EVENTS_SCHEMA};
pub use hist::{Log2Histogram, LOG2_BUCKETS};
pub use render::{render, sparkline};
pub use series::{Column, ColumnData, ColumnId, TimeSeries};
pub use sink::{TelemetryReport, SCHEMA};

/// Default sampling period: one epoch per 100k committed instructions.
pub const DEFAULT_EPOCH_INSTS: u64 = 100_000;
