//! Single-core simulation driver.

use crate::config::SimConfig;
use crate::core_model::CoreModel;
use crate::dram::DramStats;
use crate::hierarchy::{Hierarchy, LevelHit};
use crate::telemetry::{Instrument, NoInstrument, SimTelemetry};
use bv_compress::CompressionStats;
use bv_core::LlcStats;
use bv_trace::synth::WorkloadSpec;

/// The measurements of one single-core run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Organization simulated (e.g. `"base-victim"`).
    pub llc_name: &'static str,
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed core cycles.
    pub cycles: u64,
    /// LLC statistics at the end of the run.
    pub llc: LlcStats,
    /// Compressed-size distribution observed at the LLC.
    pub compression: CompressionStats,
    /// DRAM statistics at the end of the run.
    pub dram: DramStats,
    /// Demand accesses that reached each level (L1, L2, LLC-base,
    /// LLC-victim, memory).
    pub level_hits: [u64; 5],
}

impl RunResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// DRAM reads per kilo-instruction (the paper's "DRAM Read" metric is
    /// reported as a ratio of this between configurations).
    #[must_use]
    pub fn dram_reads_per_kilo_inst(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.dram.reads as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Ratio helpers against a baseline run of the same trace.
    #[must_use]
    pub fn ipc_ratio(&self, baseline: &RunResult) -> f64 {
        self.ipc() / baseline.ipc()
    }

    /// DRAM read ratio against a baseline run of the same trace.
    #[must_use]
    pub fn dram_read_ratio(&self, baseline: &RunResult) -> f64 {
        if baseline.dram.reads == 0 {
            1.0
        } else {
            self.dram.reads as f64 / baseline.dram.reads as f64
        }
    }
}

/// A single-core simulated system.
///
/// # Examples
///
/// ```
/// use bv_sim::{LlcKind, SimConfig, System};
/// use bv_trace::synth::{KernelSpec, WorkloadSpec};
/// use bv_trace::{DataProfile, KernelKind};
///
/// let workload = WorkloadSpec {
///     kernels: vec![KernelSpec {
///         kind: KernelKind::Loop,
///         region_bytes: 256 << 10,
///         weight: 1,
///         store_fraction: 32,
///         profile: DataProfile::SmallInt,
///     }],
///     mem_fraction: 85,
///     ifetch_fraction: 8,
///     code_bytes: 16 << 10,
///     seed: 1,
/// };
/// let result = System::new(SimConfig::single_thread(LlcKind::Uncompressed))
///     .run(&workload, 100_000);
/// assert!(result.ipc() > 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct System {
    cfg: SimConfig,
}

impl System {
    /// Creates a system with the given configuration.
    #[must_use]
    pub fn new(cfg: SimConfig) -> System {
        System { cfg }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs `instructions` instructions of `workload` and reports the
    /// measurements (no warmup exclusion).
    #[must_use]
    pub fn run(&self, workload: &WorkloadSpec, instructions: u64) -> RunResult {
        self.run_with_warmup(workload, 0, instructions)
    }

    /// Runs `warmup` instructions to populate the caches, then measures
    /// the next `instructions` instructions. All reported counters and
    /// the IPC cover only the measured phase, as in the paper's
    /// trace-phase methodology.
    #[must_use]
    pub fn run_with_warmup(
        &self,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
    ) -> RunResult {
        self.run_instrumented(workload, warmup, instructions, &mut NoInstrument)
    }

    /// Like [`run_with_warmup`](System::run_with_warmup), but samples
    /// `telemetry` at every epoch boundary of the measured phase
    /// (`bvsim run --telemetry`). The simulation itself is unperturbed:
    /// the result is identical to the unsampled run.
    #[must_use]
    pub fn run_sampled(
        &self,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
        telemetry: &mut SimTelemetry,
    ) -> RunResult {
        self.run_instrumented(workload, warmup, instructions, telemetry)
    }

    /// Like [`run_with_warmup`](System::run_with_warmup), but drives a
    /// caller-built LLC (typically `LlcKind::build_traced` with a
    /// `RingSink`) and hands it back after the run so the retained
    /// events can be drained. The drive loop is the same code as the
    /// untraced path: with a traced organization the *simulation* is
    /// still bit-identical, only the sink observes it.
    #[must_use]
    pub fn run_traced(
        &self,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
        llc: Box<dyn bv_core::LlcOrganization>,
    ) -> (RunResult, Box<dyn bv_core::LlcOrganization>) {
        let hierarchy = Hierarchy::with_llc(self.cfg, 1, llc);
        let (result, hierarchy) =
            self.drive(hierarchy, workload, warmup, instructions, &mut NoInstrument);
        (result, hierarchy.into_llc())
    }

    /// The generic driver under both entry points: runs the warmup
    /// phase, then the measured phase with `instr` observing epoch
    /// boundaries. With [`NoInstrument`] the observer monomorphizes to
    /// one dead `u64` compare per event.
    #[must_use]
    pub fn run_instrumented<I: Instrument>(
        &self,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
        instr: &mut I,
    ) -> RunResult {
        let hierarchy = Hierarchy::new(self.cfg, 1);
        self.drive(hierarchy, workload, warmup, instructions, instr)
            .0
    }

    /// Runs warmup + measured phases on `hierarchy` and returns it with
    /// the result, so traced callers can recover the LLC afterwards.
    fn drive<I: Instrument>(
        &self,
        mut hierarchy: Hierarchy,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
        instr: &mut I,
    ) -> (RunResult, Hierarchy) {
        let mut core = CoreModel::new(self.cfg.core);
        let mut gen = workload.generator();
        let mut level_hits = [0u64; 5];

        while core.instructions() < warmup {
            let ev = gen.next_event();
            core.work(ev.instructions());
            let out = hierarchy.access_on(0, &ev, core.cycles(), &gen);
            core.account(&ev, &out);
        }
        let warm_insts = core.instructions();
        let warm_cycles = core.cycles();
        let llc_snap = *hierarchy.uncore().llc().stats();
        let comp_snap = hierarchy.uncore().llc().compression_stats().clone();
        let dram_snap = *hierarchy.uncore().dram().stats();
        instr.begin(core.instructions(), core.cycles(), &hierarchy);
        // Cached locally so the hot loop compares against a register
        // instead of re-reading the observer through `&mut` every event.
        let mut boundary = instr.next_boundary();

        while core.instructions() < warm_insts + instructions {
            let ev = gen.next_event();
            core.work(ev.instructions());
            let out = hierarchy.access_on(0, &ev, core.cycles(), &gen);
            core.account(&ev, &out);
            let idx = match out.level {
                LevelHit::L1 => 0,
                LevelHit::L2 => 1,
                LevelHit::LlcBase => 2,
                LevelHit::LlcVictim => 3,
                LevelHit::Memory => 4,
            };
            level_hits[idx] += 1;
            if I::ENABLED && core.instructions() >= boundary {
                instr.sample(core.instructions(), core.cycles(), &hierarchy);
                boundary = instr.next_boundary();
            }
        }
        instr.finish(core.instructions(), core.cycles(), &hierarchy);

        let result = RunResult {
            llc_name: hierarchy.uncore().llc().name(),
            instructions: core.instructions() - warm_insts,
            cycles: core.cycles() - warm_cycles,
            llc: hierarchy.uncore().llc().stats().since(&llc_snap),
            compression: hierarchy
                .uncore()
                .llc()
                .compression_stats()
                .since(&comp_snap),
            dram: hierarchy.uncore().dram().stats().since(&dram_snap),
            level_hits,
        };
        (result, hierarchy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LlcKind;
    use bv_trace::synth::KernelSpec;
    use bv_trace::{DataProfile, KernelKind};

    fn workload(region: u64, profile: DataProfile) -> WorkloadSpec {
        WorkloadSpec {
            kernels: vec![KernelSpec {
                kind: KernelKind::HotCold {
                    hot_fraction: 32,
                    hot_probability: 200,
                },
                region_bytes: region,
                weight: 1,
                store_fraction: 48,
                profile,
            }],
            mem_fraction: 96,
            ifetch_fraction: 8,
            code_bytes: 16 << 10,
            seed: 99,
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = workload(1 << 20, DataProfile::SmallInt);
        let sys = System::new(SimConfig::single_thread(LlcKind::BaseVictim));
        let a = sys.run(&w, 200_000);
        let b = sys.run(&w, 200_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.llc, b.llc);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn base_victim_never_reads_more_than_uncompressed() {
        // The architectural guarantee, end to end through the full
        // hierarchy with prefetching.
        let w = workload(4 << 20, DataProfile::SmallInt);
        let base = System::new(SimConfig::single_thread(LlcKind::Uncompressed)).run(&w, 400_000);
        let bv = System::new(SimConfig::single_thread(LlcKind::BaseVictim)).run(&w, 400_000);
        assert!(
            bv.dram.reads <= base.dram.reads,
            "base-victim reads {} > uncompressed {}",
            bv.dram.reads,
            base.dram.reads
        );
        assert!(bv.llc.read_hits() >= base.llc.read_hits());
    }

    #[test]
    fn compressible_working_sets_gain_ipc() {
        // A working set ~2x the LLC with highly compressible data: the
        // victim cache should convert misses into hits and improve IPC.
        let w = workload(4 << 20, DataProfile::PointerLike);
        let base = System::new(SimConfig::single_thread(LlcKind::Uncompressed)).run(&w, 600_000);
        let bv = System::new(SimConfig::single_thread(LlcKind::BaseVictim)).run(&w, 600_000);
        assert!(
            bv.ipc_ratio(&base) > 1.0,
            "expected speedup, got {:.4}",
            bv.ipc_ratio(&base)
        );
        assert!(bv.llc.victim_hits > 0);
    }

    #[test]
    fn level_hit_counts_sum_to_demand_accesses() {
        let w = workload(1 << 20, DataProfile::SmallInt);
        let r = System::new(SimConfig::single_thread(LlcKind::Uncompressed)).run(&w, 100_000);
        let total: u64 = r.level_hits.iter().sum();
        assert!(total > 0);
        // Every demand access lands in exactly one level bucket.
        assert_eq!(
            r.level_hits[2] + r.level_hits[3],
            r.llc.base_hits + r.llc.victim_hits
        );
        assert_eq!(r.level_hits[4], r.llc.read_misses);
    }

    #[test]
    fn small_working_sets_rarely_touch_memory() {
        let w = workload(64 << 10, DataProfile::SmallInt);
        let r = System::new(SimConfig::single_thread(LlcKind::Uncompressed)).run(&w, 300_000);
        let mem_frac = r.level_hits[4] as f64 / r.level_hits.iter().sum::<u64>() as f64;
        assert!(mem_frac < 0.02, "memory fraction {mem_frac:.3} too high");
    }
}
