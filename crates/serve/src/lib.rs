//! # bv-serve — a multi-tenant sweep-serving daemon
//!
//! A daemon (`bvsim serve`) puts the job engine ([`bv_runner::Engine`])
//! behind a TCP socket: any number of concurrent clients submit sweeps,
//! and the engine's worker shard runs them. The engine supplies
//! cross-client dedup (two overlapping grids simulate each
//! configuration once and both tickets stream it), crash recovery (a
//! worker dying mid-job is detected, its job re-queued with backoff and
//! the worker replaced), journal-backed restart, trace ids and job-path
//! metrics. This crate adds the transport:
//!
//! * **Protocol** ([`proto`]) — `bvsim-serve-v1`, line-delimited JSON
//!   over TCP (one request per connection, at most 1 MiB per line),
//!   built on the same hand-rolled JSON as the telemetry sink. Requests:
//!   submit-sweep, status, stream-results, cancel, kill-worker (a test
//!   hook), metrics, shutdown.
//! * **Streaming** ([`daemon`]) — results flow back to clients
//!   incrementally as `runs.jsonl`-shaped lines, in completion order, as
//!   soon as each job finishes.
//! * **Client mode** ([`client`]) — blocking helpers behind
//!   `bvsim submit` / `bvsim watch` / `bvsim ctl` / `bvsim top`.
//! * **Observability** — the engine's metric registry plus per-tenant
//!   request counters, scraped as a protocol `metrics` snapshot (what
//!   `bvsim top` renders) or as Prometheus text exposition over plain
//!   HTTP (`bvsim serve --metrics-port`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod proto;
pub mod top;

pub use client::{control, metrics, submit, watch, SubmitOutcome};
pub use daemon::{Daemon, ServeConfig};
pub use proto::{DoneSummary, Request, Response, ResultRow, StatusInfo, SweepGrid, VERSION};
pub use top::TopView;
