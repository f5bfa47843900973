//! # base-victim
//!
//! A full reproduction of **"Base-Victim Compression: An Opportunistic
//! Cache Compression Architecture"** (Gaur, Alameldeen, Subramoney —
//! ISCA 2016) as a Rust workspace: the Base-Victim compressed LLC, the
//! two-tag baselines it is compared against, the BDI/FPC/C-Pack
//! compression algorithms, a trace-driven CPU + memory timing simulator,
//! a 100-trace synthetic workload registry, and an energy model — plus the
//! experiment harness that regenerates every figure in the paper's
//! evaluation.
//!
//! This crate is a facade: it re-exports the workspace's public API under
//! one roof so downstream users can depend on a single crate.
//!
//! ## The architecture in one paragraph
//!
//! Each physical LLC way carries two tags. Tag 0 of every way forms the
//! **Baseline cache**, which runs the unmodified replacement policy and
//! therefore always holds exactly the lines an uncompressed cache would —
//! guaranteeing the hit rate never drops. Tag 1 forms the **Victim
//! cache**: when the Baseline cache displaces a line, it is written back
//! (if dirty) and then *opportunistically* parked in any way whose base
//! line is compressed small enough (BDI, 4-byte segments) to share the
//! physical 64 bytes. Victim lines are always clean, so they can be
//! dropped silently — at most one writeback per fill, no re-compaction,
//! and no changes to the data array.
//!
//! ## Quickstart
//!
//! ```
//! use base_victim::{
//!     BaseVictimLlc, CacheGeometry, CacheLine, LineAddr, LlcOrganization, NoInner,
//!     PolicyKind, VictimPolicyKind,
//! };
//!
//! // The paper's single-thread LLC: 2 MB, 16 ways, 1-bit NRU.
//! let geom = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
//! let mut llc = BaseVictimLlc::new(geom, PolicyKind::Nru, VictimPolicyKind::EcmLargestBase);
//!
//! let mut inner = NoInner; // no L1/L2 in this example
//! let addr = LineAddr::from_byte_addr(0x4000_0000);
//! assert!(!llc.read(addr, &mut inner).is_hit());
//! llc.fill(addr, CacheLine::zeroed(), &mut inner);
//! assert!(llc.read(addr, &mut inner).is_hit());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`compress`] | BDI, FPC, C-Pack, the [`Compressor`] trait |
//! | [`cache`] | geometry, replacement policies, the L1/L2 substrate |
//! | [`llc`] | the LLC organizations (Base-Victim + baselines) |
//! | [`trace`] | synthetic workloads, the 100-trace registry, mixes |
//! | [`sim`] | the timing simulator (core, DRAM, prefetch, hierarchy) |
//! | [`kvcache`] | the software-managed compressed key-value cache tier |
//! | [`energy`] | the Figure 14 energy model |
//! | [`telemetry`] | epoch time series, histograms, the JSONL sinks |
//! | [`metrics`] | live runtime metrics: registry, snapshots, exposition |
//! | [`events`] | event-level cache tracing: records, sinks, filters |
//! | [`fuzz`] | adversarial workload fuzzing with shrinking |
//! | [`runner`] | parallel job execution, checkpoint/resume, run journal |
//! | [`mod@bench`] | the experiment harness and per-figure functions |
//! | [`cli`] | argument parsing for the `bvsim` binary |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cache-line compression algorithms (re-export of `bv-compress`).
pub mod compress {
    pub use bv_compress::*;
}

/// Generic cache substrate (re-export of `bv-cache`).
pub mod cache {
    pub use bv_cache::*;
}

/// LLC organizations (re-export of `bv-core`).
pub mod llc {
    pub use bv_core::*;
}

/// Synthetic workloads and traces (re-export of `bv-trace`).
pub mod trace {
    pub use bv_trace::*;
}

/// The timing simulator (re-export of `bv-sim`).
pub mod sim {
    pub use bv_sim::*;
}

/// The software-managed compressed key-value cache tier (re-export of
/// `bv-kvcache`).
pub mod kvcache {
    pub use bv_kvcache::*;
}

/// The energy model (re-export of `bv-energy`).
pub mod energy {
    pub use bv_energy::*;
}

/// Observability primitives and the JSONL sink (re-export of
/// `bv-telemetry`).
pub mod telemetry {
    pub use bv_telemetry::*;
}

/// Event-level cache tracing (re-export of `bv-events`).
pub mod events {
    pub use bv_events::*;
}

/// Adversarial workload fuzzing with shrinking (re-export of `bv-fuzz`).
pub mod fuzz {
    pub use bv_fuzz::*;
}

/// Experiment orchestration (re-export of `bv-runner`).
pub mod runner {
    pub use bv_runner::*;
}

/// The runtime metrics registry: atomic counters/gauges/histograms with
/// Prometheus text exposition (re-export of `bv-metrics`).
pub mod metrics {
    pub use bv_metrics::*;
}

/// The sweep-serving daemon and its client (re-export of `bv-serve`).
pub mod serve {
    pub use bv_serve::*;
}

/// The experiment harness and figure functions (re-export of `bv-bench`).
pub mod bench {
    pub use bv_bench::*;
}

pub mod cli;

// Convenience re-exports of the most common types.
pub use bv_cache::{BasicCache, CacheGeometry, CacheStats, LineAddr, PolicyKind};
pub use bv_compress::{Bdi, CPack, CacheLine, CompressionStats, Compressor, Fpc, SegmentCount};
pub use bv_core::{
    BaseVictimLlc, DccLlc, HitKind, InclusionAgent, InclusionMode, LlcOrganization, LlcStats,
    NoInner, TwoTagFlavor, TwoTagLlc, UncompressedLlc, VictimPolicyKind, VscLlc,
};
pub use bv_energy::{EnergyBreakdown, EnergyModel, LlcEnergyClass};
pub use bv_sim::{CompressorKind, LlcKind, MulticoreSystem, RunResult, SimConfig, System};
pub use bv_trace::{TraceRegistry, TraceSpec, WorkloadCategory};

/// Loads an epoch-sampled telemetry report from a JSONL file.
///
/// Wraps [`telemetry::TelemetryReport::from_jsonl`] with file I/O and
/// prefixes every failure — unreadable file, wrong schema, corrupt row,
/// truncated stream — with the path, so callers (the `bvsim report`
/// subcommand in particular) can print the error verbatim and exit.
///
/// # Errors
///
/// Returns `"{path}: reason"` where the reason from the parser already
/// carries the 1-based line number (`"line N: ..."`).
pub fn load_report(path: &std::path::Path) -> Result<telemetry::TelemetryReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    telemetry::TelemetryReport::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod facade_tests {
    use super::load_report;
    use std::path::PathBuf;

    fn tmp(name: &str, body: &str) -> PathBuf {
        // CARGO_TARGET_TMPDIR only exists for integration tests.
        let path = std::env::temp_dir().join(format!("bvsim-load-report-{name}"));
        std::fs::write(&path, body).expect("write fixture");
        path
    }

    #[test]
    fn load_report_names_the_file_on_empty_input() {
        let path = tmp("load-report-empty.jsonl", "");
        let err = load_report(&path).expect_err("empty file must fail");
        assert!(err.starts_with(&path.display().to_string()), "{err}");
        assert!(err.contains("empty telemetry file"), "{err}");
    }

    #[test]
    fn load_report_names_the_line_on_wrong_schema() {
        let path = tmp(
            "load-report-schema.jsonl",
            "{\"schema\":\"not-telemetry\",\"epoch_insts\":1,\"epochs\":0}\n",
        );
        let err = load_report(&path).expect_err("wrong schema must fail");
        assert!(err.contains("line 1:"), "{err}");
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn load_report_names_the_line_on_truncation() {
        use crate::telemetry::{TelemetryReport, TimeSeries};
        let mut series = TimeSeries::new();
        let insts = series.u64_column("insts");
        for epoch in 0..4u64 {
            series.push_u64(insts, (epoch + 1) * 1_000);
            series.end_row();
        }
        let report = TelemetryReport {
            epoch_insts: 1_000,
            series,
            ..TelemetryReport::default()
        };
        let full = report.to_jsonl();
        let cut = full.lines().take(3).fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        });
        let path = tmp("load-report-truncated.jsonl", &cut);
        let err = load_report(&path).expect_err("truncated file must fail");
        assert!(err.contains("line 4:"), "{err}");
        assert!(err.contains("truncated"), "{err}");
    }
}
