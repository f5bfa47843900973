//! Trace-driven CPU + memory-hierarchy timing simulator.
//!
//! Reproduces the evaluation platform of Section V of the Base-Victim
//! paper: a 4 GHz, 4-wide out-of-order core with 32 KB L1I/L1D, a 256 KB
//! L2, an inclusive last-level cache (2 MB single-thread / 4 MB
//! multi-program by default), aggressive multi-stream prefetching, and two
//! channels of DDR3-1600 (15-15-15-34).
//!
//! The paper uses a cycle-accurate execution-driven x86 simulator; we
//! substitute a trace-driven *interval* timing model (documented in
//! DESIGN.md): compute work retires at the pipeline width, independent
//! long-latency misses overlap inside the reorder-buffer window, and
//! dependent (pointer-chase) misses serialize. Because every evaluated
//! organization shares the identical core, the IPC *ratios* the paper
//! reports depend on exactly the signals this model preserves — LLC
//! hit/miss streams, DRAM occupancy, and the compressed-cache latency
//! adders.
//!
//! # Examples
//!
//! ```no_run
//! use bv_sim::{LlcKind, SimConfig, System};
//! use bv_trace::TraceRegistry;
//!
//! let registry = TraceRegistry::paper_default();
//! let trace = registry.get("specint.mcf.07").unwrap();
//! let config = SimConfig::single_thread(LlcKind::BaseVictim);
//! let result = System::new(config).run(&trace.workload, 1_000_000);
//! println!("IPC = {:.3}", result.ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod config;
mod core_model;
mod dram;
mod hierarchy;
mod multicore;
mod prefetch;
pub mod report;
mod system;
mod telemetry;

pub use batch::EventBatch;
pub use config::{CompressorKind, CoreConfig, DramConfig, LlcKind, SimConfig};
pub use core_model::CoreModel;
pub use dram::{Dram, DramStats};
pub use hierarchy::{Hierarchy, LevelHit, LineSource};
pub use multicore::{MulticoreResult, MulticoreSystem};
pub use prefetch::StreamPrefetcher;
pub use system::{RunResult, System};
pub use telemetry::{Instrument, NoInstrument, SimTelemetry, DEFAULT_EPOCH_INSTS};
