//! # bv-runner — the job engine and experiment orchestration
//!
//! The paper's evaluation (Section VI) is a wide Cartesian sweep:
//! ~100 traces crossed with LLC organizations, replacement policies, and
//! size/associativity variants. This crate owns the machinery that makes
//! such sweeps fast and restartable, for the in-process sweep and the
//! serving daemon alike:
//!
//! * [`Engine`] — the one job engine: a job table with cross-ticket
//!   dedup, a FIFO queue drained by a worker shard, claim tokens, a
//!   monitor that re-queues a crashed or hung job and respawns its
//!   worker, tickets, journal appends, spans and live metrics. It has no
//!   transport: `bv-serve` puts TCP and HTTP in front of it;
//! * [`Runner`] — the in-process client: it deduplicates a job set,
//!   submits it as one ticket, and waits on it with a progress line and
//!   a Ctrl-C cancel;
//! * [`JobSpec`] — the unit of work, with a stable content-derived hash
//!   ([`JobSpec::stable_hash`]) that names its checkpoint;
//! * [`Journal`] — the on-disk checkpoint store (one JSON record per
//!   completed run, written atomically from worker threads) plus a JSONL
//!   observability stream;
//! * [`Span`] + [`chrome_trace_json`] — per-job wall-clock spans,
//!   always recorded by the engine and exported in the Chrome
//!   trace-event format for Perfetto (`bvsim sweep --spans`);
//! * [`pool::parallel_map`] — an order-preserving parallel map for work
//!   that is not a journaled job (multi-program mixes, kv sweeps).
//!
//! ## Determinism
//!
//! The simulator is a pure function of `(workload, config, budget)`;
//! jobs share no mutable state, so a parallel sweep produces results
//! bit-identical to the serial path regardless of worker count or
//! completion order. The integration tests assert this, and it is what
//! makes checkpoint/resume sound: a result loaded from the journal is
//! indistinguishable from one computed fresh.
//!
//! ## Example
//!
//! ```
//! use bv_runner::{JobSpec, Runner};
//! use bv_sim::{LlcKind, SimConfig};
//! use bv_trace::TraceRegistry;
//!
//! let registry = TraceRegistry::paper_default();
//! let trace = registry.all().next().unwrap().name.clone();
//! let jobs = vec![
//!     JobSpec::new(&trace, SimConfig::single_thread(LlcKind::Uncompressed), 1_000, 2_000),
//!     JobSpec::new(&trace, SimConfig::single_thread(LlcKind::BaseVictim), 1_000, 2_000),
//! ];
//! let runner = Runner::new(2);
//! let report = runner.execute(&registry, &jobs);
//! assert_eq!(report.simulated, 2);
//! let bv = runner.get(&jobs[1]).unwrap();
//! assert!(bv.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod job;
mod journal;
pub mod pool;
mod runner;
mod spans;

pub use bv_telemetry::json;

pub use engine::{DoneSummary, Engine, EngineConfig, ResultRow, StatusInfo, Submission};
pub use job::{fnv1a, JobSpec};
pub use journal::{JobTiming, Journal, RunsRecovery};
pub use runner::{ExecutionReport, Runner};
pub use spans::{chrome_trace_json, utilization_summary, Span};
