//! Epoch-sampled instrumentation of the run loops.
//!
//! The single-core driver in [`system`](crate::system) is generic over
//! an [`Instrument`] observer. The default observer, [`NoInstrument`],
//! compiles to nothing: `next_boundary` is `u64::MAX` (one dead compare
//! per event) and [`Instrument::ENABLED`] is `false`, so
//! monomorphization removes even the boundary bookkeeping from the
//! uninstrumented path. The multi-program driver is not instrumented.
//! Goldens and benchmarks therefore stay bit-identical with telemetry
//! off.
//!
//! [`SimTelemetry`] is the real observer: every `epoch_insts`
//! committed instructions it snapshots the uncore counters, pushes one
//! row of per-epoch deltas into a [`TimeSeries`], and on `finish`
//! harvests whole-run counters
//! (LLC events, DRAM traffic, compressed-size distribution, per-encoder
//! selection counts). The result is a [`TelemetryReport`] ready for the
//! `bvsim-telemetry-v1` JSONL sink.
//!
//! Sampling is driven by the deterministic committed-instruction clock,
//! never wall time, so instrumented runs remain reproducible and the
//! simulated machine is unperturbed.

use std::collections::BTreeMap;

use bv_compress::{CompressionStats, SEGMENTS_PER_LINE};
use bv_core::LlcStats;
use bv_telemetry::{ColumnId, Log2Histogram, TelemetryReport, TimeSeries};

use crate::dram::DramStats;
use crate::hierarchy::Hierarchy;

pub use bv_telemetry::DEFAULT_EPOCH_INSTS;

/// Observer hooks for the single-core run loop.
///
/// `begin` fires once when the measured phase starts, `sample` whenever
/// the committed-instruction count crosses
/// [`next_boundary`](Instrument::next_boundary), and `finish` once when
/// the measured phase ends. All defaults are no-ops so that a disabled
/// observer costs exactly one `u64` compare per trace event.
pub trait Instrument {
    /// `false` only for [`NoInstrument`]; lets the drivers drop sampling
    /// bookkeeping from the monomorphized uninstrumented loop entirely.
    const ENABLED: bool = true;

    /// The measured phase is starting at `insts` committed instructions
    /// and `cycles` elapsed core cycles (warmup included in both).
    fn begin(&mut self, insts: u64, cycles: u64, hierarchy: &Hierarchy) {
        let _ = (insts, cycles, hierarchy);
    }

    /// The committed-instruction count at which the driver should call
    /// [`sample`](Instrument::sample) next. `u64::MAX` never fires.
    fn next_boundary(&self) -> u64 {
        u64::MAX
    }

    /// An epoch boundary was crossed.
    fn sample(&mut self, insts: u64, cycles: u64, hierarchy: &Hierarchy) {
        let _ = (insts, cycles, hierarchy);
    }

    /// The measured phase ended.
    fn finish(&mut self, insts: u64, cycles: u64, hierarchy: &Hierarchy) {
        let _ = (insts, cycles, hierarchy);
    }
}

/// The do-nothing observer the plain `run` entry points use.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoInstrument;

impl Instrument for NoInstrument {
    const ENABLED: bool = false;
}

/// Uncore counter snapshot used for epoch deltas and whole-run totals.
#[derive(Clone, Debug)]
struct UncoreSnapshot {
    llc: LlcStats,
    comp: CompressionStats,
    dram: DramStats,
    encoders: Vec<(&'static str, u64)>,
}

impl UncoreSnapshot {
    fn capture(hierarchy: &Hierarchy) -> UncoreSnapshot {
        let llc = hierarchy.uncore().llc();
        UncoreSnapshot {
            llc: *llc.stats(),
            comp: llc.compression_stats().clone(),
            dram: *hierarchy.uncore().dram().stats(),
            encoders: llc.encoder_counts(),
        }
    }
}

/// Resident logical lines expressed as kibibytes of uncompressed data —
/// the paper's "effective capacity" (compressed organizations exceed
/// their physical size when lines share ways).
fn effective_kib(hierarchy: &Hierarchy) -> f64 {
    let llc = hierarchy.uncore().llc();
    let lines = llc.resident_lines().len();
    (lines * llc.geometry().line_bytes()) as f64 / 1024.0
}

/// The per-epoch columns of [`SimTelemetry`], plus the two epoch
/// histograms.
#[derive(Clone, Debug)]
struct EpochSeries {
    series: TimeSeries,
    insts: ColumnId,
    ipc: ColumnId,
    llc_mpki: ColumnId,
    victim_hit_rate: ColumnId,
    victim_drops: ColumnId,
    comp_ratio: ColumnId,
    effective_kib: ColumnId,
    dram_reads: ColumnId,
    dram_writes: ColumnId,
    epoch_dram_reads: Log2Histogram,
    epoch_victim_drops: Log2Histogram,
}

impl EpochSeries {
    fn new() -> EpochSeries {
        let mut series = TimeSeries::new();
        EpochSeries {
            insts: series.u64_column("insts"),
            ipc: series.f64_column("ipc"),
            llc_mpki: series.f64_column("llc_mpki"),
            victim_hit_rate: series.f64_column("victim_hit_rate"),
            victim_drops: series.u64_column("victim_drops"),
            comp_ratio: series.f64_column("comp_ratio"),
            effective_kib: series.f64_column("effective_kib"),
            dram_reads: series.u64_column("dram_reads"),
            dram_writes: series.u64_column("dram_writes"),
            epoch_dram_reads: Log2Histogram::new(),
            epoch_victim_drops: Log2Histogram::new(),
            series,
        }
    }

    /// Pushes one epoch row from measured deltas.
    fn push(
        &mut self,
        measured_insts: u64,
        d_insts: u64,
        d_cycles: u64,
        prev: &UncoreSnapshot,
        cur: &UncoreSnapshot,
        hierarchy: &Hierarchy,
    ) {
        let llc = cur.llc.since(&prev.llc);
        let comp = cur.comp.since(&prev.comp);
        let dram = cur.dram.since(&prev.dram);

        self.series.push_u64(self.insts, measured_insts);
        self.series.push_f64(
            self.ipc,
            if d_cycles == 0 {
                0.0
            } else {
                d_insts as f64 / d_cycles as f64
            },
        );
        self.series.push_f64(
            self.llc_mpki,
            if d_insts == 0 {
                0.0
            } else {
                llc.read_misses as f64 * 1000.0 / d_insts as f64
            },
        );
        self.series
            .push_f64(self.victim_hit_rate, llc.victim_hit_rate());
        self.series.push_u64(self.victim_drops, llc.victim_drops());
        self.series.push_f64(self.comp_ratio, comp.mean_ratio());
        self.series
            .push_f64(self.effective_kib, effective_kib(hierarchy));
        self.series.push_u64(self.dram_reads, dram.reads);
        self.series.push_u64(self.dram_writes, dram.writes);

        self.series.end_row();

        self.epoch_dram_reads.record(dram.reads);
        self.epoch_victim_drops.record(llc.victim_drops());
    }

    /// Whole-run counters from the measured-phase deltas, in a fixed
    /// registration order.
    fn harvest_counters(begin: &UncoreSnapshot, end: &UncoreSnapshot) -> Vec<(String, u64)> {
        let llc = end.llc.since(&begin.llc);
        let comp = end.comp.since(&begin.comp);
        let dram = end.dram.since(&begin.dram);

        let mut counters = vec![
            ("llc.base_hits".to_string(), llc.base_hits),
            ("llc.victim_hits".to_string(), llc.victim_hits),
            ("llc.read_misses".to_string(), llc.read_misses),
            ("llc.demand_fills".to_string(), llc.demand_fills),
            ("llc.prefetch_fills".to_string(), llc.prefetch_fills),
            ("llc.prefetch_hits".to_string(), llc.prefetch_hits),
            ("llc.writeback_hits".to_string(), llc.writeback_hits),
            ("llc.memory_writes".to_string(), llc.memory_writes),
            ("llc.back_invalidations".to_string(), llc.back_invalidations),
            ("llc.migrations".to_string(), llc.migrations),
            ("llc.victim_inserts".to_string(), llc.victim_inserts),
            (
                "llc.victim_insert_failures".to_string(),
                llc.victim_insert_failures,
            ),
            ("llc.partner_evictions".to_string(), llc.partner_evictions),
            ("dram.reads".to_string(), dram.reads),
            ("dram.writes".to_string(), dram.writes),
            ("dram.row_hits".to_string(), dram.row_hits),
            ("dram.row_misses".to_string(), dram.row_misses),
        ];
        let histogram = comp.histogram();
        for segments in 1..=SEGMENTS_PER_LINE {
            counters.push((format!("size.{segments:02}seg"), histogram[segments - 1]));
        }
        // Encoder tallies are cumulative in the organization; subtract
        // the begin snapshot so counters cover the measured phase only.
        for (i, (name, total)) in end.encoders.iter().enumerate() {
            let warm = begin.encoders.get(i).map_or(0, |(_, n)| *n);
            counters.push((format!("encoder.{name}"), total - warm));
        }
        counters
    }
}

/// The epoch sampler for single-core runs
/// (`bvsim run --telemetry <file>`).
///
/// Drive it through [`System::run_sampled`](crate::System::run_sampled),
/// then convert with [`SimTelemetry::into_report`].
///
/// Epoch rows carry per-epoch deltas: IPC, LLC misses per
/// kilo-instruction, victim-cache hit rate, victim drops (failed
/// parkings plus partner evictions), mean compression ratio, effective
/// capacity in KiB, and DRAM read/write transfers. The final epoch may
/// be shorter than `epoch_insts` (the run's tail).
///
/// # Examples
///
/// ```
/// use bv_sim::{LlcKind, SimConfig, SimTelemetry, System};
/// use bv_trace::TraceRegistry;
///
/// let registry = TraceRegistry::paper_default();
/// let workload = &registry.get("specint.mcf.07").unwrap().workload;
/// let mut telemetry = SimTelemetry::new(20_000);
/// let sys = System::new(SimConfig::single_thread(LlcKind::BaseVictim));
/// let result = sys.run_sampled(workload, 10_000, 60_000, &mut telemetry);
/// let report = telemetry.into_report();
/// assert_eq!(report.series.rows(), 3);
/// assert!(result.ipc() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct SimTelemetry {
    epoch_insts: u64,
    meta: BTreeMap<String, String>,
    epochs: EpochSeries,
    next: u64,
    begin: Option<(u64, u64, UncoreSnapshot)>,
    prev: Option<(u64, u64, UncoreSnapshot)>,
    counters: Vec<(String, u64)>,
}

impl SimTelemetry {
    /// Creates a sampler that fires every `epoch_insts` committed
    /// instructions ([`DEFAULT_EPOCH_INSTS`] is the CLI default).
    ///
    /// # Panics
    ///
    /// Panics if `epoch_insts` is zero.
    #[must_use]
    pub fn new(epoch_insts: u64) -> SimTelemetry {
        assert!(epoch_insts > 0, "epoch must be at least one instruction");
        SimTelemetry {
            epoch_insts,
            meta: BTreeMap::new(),
            epochs: EpochSeries::new(),
            next: u64::MAX,
            begin: None,
            prev: None,
            counters: Vec::new(),
        }
    }

    /// Attaches a run-identity key (trace name, LLC kind, ...) to the
    /// report header.
    #[must_use]
    pub fn with_meta(mut self, key: &str, value: &str) -> SimTelemetry {
        self.meta.insert(key.to_string(), value.to_string());
        self
    }

    fn push_row(&mut self, insts: u64, cycles: u64, hierarchy: &Hierarchy) {
        let cur = UncoreSnapshot::capture(hierarchy);
        let (begin_insts, _, _) = self.begin.as_ref().expect("begin() not called");
        let measured = insts - begin_insts;
        let (prev_insts, prev_cycles, prev) = self.prev.as_ref().expect("begin() not called");
        self.epochs.push(
            measured,
            insts - prev_insts,
            cycles - prev_cycles,
            prev,
            &cur,
            hierarchy,
        );
        self.prev = Some((insts, cycles, cur));
    }

    /// Consumes the sampler into the serializable report. Call after the
    /// run completes.
    #[must_use]
    pub fn into_report(self) -> TelemetryReport {
        TelemetryReport {
            epoch_insts: self.epoch_insts,
            meta: self.meta,
            series: self.epochs.series,
            histograms: vec![
                ("epoch_dram_reads".to_string(), self.epochs.epoch_dram_reads),
                (
                    "epoch_victim_drops".to_string(),
                    self.epochs.epoch_victim_drops,
                ),
            ],
            counters: self.counters,
        }
    }
}

impl Instrument for SimTelemetry {
    fn begin(&mut self, insts: u64, cycles: u64, hierarchy: &Hierarchy) {
        let snap = UncoreSnapshot::capture(hierarchy);
        self.begin = Some((insts, cycles, snap.clone()));
        self.prev = Some((insts, cycles, snap));
        self.next = insts + self.epoch_insts;
    }

    fn next_boundary(&self) -> u64 {
        self.next
    }

    fn sample(&mut self, insts: u64, cycles: u64, hierarchy: &Hierarchy) {
        self.push_row(insts, cycles, hierarchy);
        // Events commit several instructions at once, so a boundary can
        // be overshot; advance past the current count, not by one step.
        while self.next <= insts {
            self.next += self.epoch_insts;
        }
    }

    fn finish(&mut self, insts: u64, cycles: u64, hierarchy: &Hierarchy) {
        if self
            .prev
            .as_ref()
            .is_some_and(|(prev_insts, _, _)| insts > *prev_insts)
        {
            // Tail shorter than one epoch.
            self.push_row(insts, cycles, hierarchy);
        }
        let (_, _, begin) = self.begin.as_ref().expect("begin() not called");
        let end = UncoreSnapshot::capture(hierarchy);
        self.counters = EpochSeries::harvest_counters(begin, &end);
        self.next = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LlcKind, SimConfig};
    use crate::system::System;
    use bv_trace::synth::{KernelSpec, WorkloadSpec};
    use bv_trace::{DataProfile, KernelKind};

    fn workload(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            kernels: vec![KernelSpec {
                kind: KernelKind::HotCold {
                    hot_fraction: 32,
                    hot_probability: 200,
                },
                region_bytes: 2 << 20,
                weight: 1,
                store_fraction: 48,
                profile: DataProfile::PointerLike,
            }],
            mem_fraction: 96,
            ifetch_fraction: 8,
            code_bytes: 16 << 10,
            seed,
        }
    }

    #[test]
    fn sampled_run_matches_unsampled_run_exactly() {
        let w = workload(11);
        let sys = System::new(SimConfig::single_thread(LlcKind::BaseVictim));
        let plain = sys.run_with_warmup(&w, 30_000, 120_000);
        let mut tel = SimTelemetry::new(10_000);
        let sampled = sys.run_sampled(&w, 30_000, 120_000, &mut tel);
        assert_eq!(plain, sampled, "observer perturbed the simulation");
    }

    #[test]
    fn epoch_rows_cover_the_measured_phase() {
        let w = workload(12);
        let sys = System::new(SimConfig::single_thread(LlcKind::BaseVictim));
        let mut tel = SimTelemetry::new(10_000);
        let result = sys.run_sampled(&w, 20_000, 95_000, &mut tel);
        let report = tel.into_report();
        // ~9 full epochs plus the tail; event granularity blurs the
        // exact count but the last row must land on the phase end.
        let insts = report.series.u64s("insts").expect("insts column");
        assert!(insts.len() >= 9, "{} rows", insts.len());
        assert_eq!(*insts.last().unwrap(), result.instructions);
        assert!(insts.windows(2).all(|w| w[0] < w[1]), "not monotonic");
        // Epoch DRAM reads sum to the run total, which also appears in
        // the harvested counters.
        let dram: u64 = report.series.u64s("dram_reads").unwrap().iter().sum();
        assert_eq!(dram, result.dram.reads);
        let counter = report
            .counters
            .iter()
            .find(|(n, _)| n == "dram.reads")
            .expect("dram.reads counter");
        assert_eq!(counter.1, result.dram.reads);
    }

    #[test]
    fn encoder_counters_cover_measured_fills_only() {
        let w = workload(13);
        let sys = System::new(SimConfig::single_thread(LlcKind::BaseVictim));
        let encoder_total = |report: &TelemetryReport| -> u64 {
            report
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("encoder."))
                .map(|(_, v)| v)
                .sum()
        };

        let mut tel = SimTelemetry::new(50_000);
        let result = sys.run_sampled(&w, 50_000, 100_000, &mut tel);
        let measured = encoder_total(&tel.into_report());
        // Every encoder invocation records into the compression
        // histogram, but not vice versa (write hits with unchanged data
        // reuse the stored size), so the tally is a nonzero lower bound.
        assert!(measured > 0);
        assert!(measured <= result.compression.lines());

        // The same phase without warmup exclusion tallies strictly more:
        // warmup fills were subtracted from the measured counters.
        let mut full = SimTelemetry::new(50_000);
        let _ = sys.run_sampled(&w, 0, 150_000, &mut full);
        assert!(encoder_total(&full.into_report()) > measured);
    }

    #[test]
    fn meta_and_histograms_reach_the_report() {
        let w = workload(14);
        let sys = System::new(SimConfig::single_thread(LlcKind::Uncompressed));
        let mut tel = SimTelemetry::new(10_000)
            .with_meta("trace", "unit")
            .with_meta("llc", "uncompressed");
        let _ = sys.run_sampled(&w, 0, 40_000, &mut tel);
        let report = tel.into_report();
        assert_eq!(report.meta.get("trace").map(String::as_str), Some("unit"));
        assert_eq!(report.histograms.len(), 2);
        let (name, hist) = &report.histograms[0];
        assert_eq!(name, "epoch_dram_reads");
        assert_eq!(hist.count(), report.series.rows() as u64);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn zero_epoch_is_rejected() {
        let _ = SimTelemetry::new(0);
    }
}
