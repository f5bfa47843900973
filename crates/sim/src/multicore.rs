//! Multi-program (shared-LLC) simulation driver (Section V / Figure 13).
//!
//! Four cores with private L1/L2 caches share one LLC and the DRAM
//! channels. Each thread executes a fixed instruction budget; threads that
//! finish early continue executing so LLC contention stays realistic (as
//! in the paper), and the run ends when every thread has finished its
//! measured phase.

use crate::config::SimConfig;
use crate::core_model::CoreModel;
use crate::dram::DramStats;
use crate::hierarchy::Hierarchy;
use bv_core::LlcStats;
use bv_trace::synth::WorkloadSpec;
use bv_trace::TraceGenerator;

/// Per-thread address-space stride: 1 TB apart, far beyond any working
/// set.
const THREAD_OFFSET: u64 = 1 << 40;

/// Measurements of one multi-program run.
#[derive(Clone, Debug)]
pub struct MulticoreResult {
    /// Per-thread IPC over each thread's measured phase.
    pub thread_ipc: Vec<f64>,
    /// Shared-LLC statistics.
    pub llc: LlcStats,
    /// Shared-DRAM statistics.
    pub dram: DramStats,
}

impl MulticoreResult {
    /// The paper's metric: normalized weighted speedup,
    /// `(1/n) * sum(IPC_new_i / IPC_base_i)`, equal to 1.0 when nothing
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if the two results have different thread counts.
    #[must_use]
    pub fn weighted_speedup(&self, baseline: &MulticoreResult) -> f64 {
        assert_eq!(self.thread_ipc.len(), baseline.thread_ipc.len());
        let n = self.thread_ipc.len() as f64;
        self.thread_ipc
            .iter()
            .zip(baseline.thread_ipc.iter())
            .map(|(new, base)| new / base)
            .sum::<f64>()
            / n
    }
}

/// The shared-LLC multi-program system.
///
/// # Examples
///
/// ```no_run
/// use bv_sim::{LlcKind, MulticoreSystem, SimConfig};
/// use bv_trace::{mix::paper_mixes, TraceRegistry};
///
/// let reg = TraceRegistry::paper_default();
/// let mixes = paper_mixes(&reg);
/// let members = mixes[0].resolve(&reg);
/// let workloads: Vec<_> = members.iter().map(|t| t.workload.clone()).collect();
/// let result = MulticoreSystem::new(SimConfig::multi_program(LlcKind::BaseVictim))
///     .run(&workloads, 500_000);
/// assert_eq!(result.thread_ipc.len(), 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MulticoreSystem {
    cfg: SimConfig,
}

impl MulticoreSystem {
    /// Creates a multi-program system.
    #[must_use]
    pub fn new(cfg: SimConfig) -> MulticoreSystem {
        MulticoreSystem { cfg }
    }

    /// Runs the mix until every thread has retired `instructions_each`;
    /// early finishers keep executing to preserve contention.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    #[must_use]
    pub fn run(&self, workloads: &[WorkloadSpec], instructions_each: u64) -> MulticoreResult {
        assert!(!workloads.is_empty(), "need at least one workload");
        let n = workloads.len();
        let mut hierarchy = Hierarchy::new(self.cfg, n);
        let mut cores: Vec<CoreModel> = (0..n).map(|_| CoreModel::new(self.cfg.core)).collect();
        let mut gens: Vec<TraceGenerator> = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| w.generator_at(i as u64 * THREAD_OFFSET))
            .collect();
        let mut finished_cycles: Vec<Option<u64>> = vec![None; n];

        // Cycle-ordered interleaving: always step the thread whose local
        // clock is furthest behind, so shared-resource contention is
        // approximately simultaneous.
        while finished_cycles.iter().any(Option::is_none) {
            let tid = (0..n)
                .min_by_key(|&i| cores[i].cycles())
                .expect("at least one core");
            let ev = gens[tid].next_event();
            cores[tid].work(ev.instructions());
            let now = cores[tid].cycles();
            let out = hierarchy.access_on(tid, &ev, now, &gens[..]);
            cores[tid].account(&ev, &out);
            if finished_cycles[tid].is_none() && cores[tid].instructions() >= instructions_each {
                finished_cycles[tid] = Some(cores[tid].cycles());
            }
        }

        let thread_ipc = finished_cycles
            .iter()
            .map(|c| instructions_each as f64 / c.expect("all finished") as f64)
            .collect();
        MulticoreResult {
            thread_ipc,
            llc: *hierarchy.uncore().llc().stats(),
            dram: *hierarchy.uncore().dram().stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LlcKind;
    use bv_trace::synth::KernelSpec;
    use bv_trace::{DataProfile, KernelKind};

    fn workload(seed: u64, profile: DataProfile) -> WorkloadSpec {
        WorkloadSpec {
            kernels: vec![KernelSpec {
                kind: KernelKind::HotCold {
                    hot_fraction: 32,
                    hot_probability: 210,
                },
                region_bytes: 2 << 20,
                weight: 1,
                store_fraction: 40,
                profile,
            }],
            mem_fraction: 96,
            ifetch_fraction: 8,
            code_bytes: 16 << 10,
            seed,
        }
    }

    #[test]
    fn four_threads_all_finish() {
        let ws: Vec<WorkloadSpec> = (0..4).map(|i| workload(i, DataProfile::SmallInt)).collect();
        let r =
            MulticoreSystem::new(SimConfig::multi_program(LlcKind::Uncompressed)).run(&ws, 50_000);
        assert_eq!(r.thread_ipc.len(), 4);
        assert!(r.thread_ipc.iter().all(|&ipc| ipc > 0.0));
    }

    #[test]
    fn weighted_speedup_of_identical_runs_is_one() {
        let ws: Vec<WorkloadSpec> = (0..2).map(|i| workload(i, DataProfile::SmallInt)).collect();
        let sys = MulticoreSystem::new(SimConfig::multi_program(LlcKind::Uncompressed));
        let a = sys.run(&ws, 40_000);
        let b = sys.run(&ws, 40_000);
        assert!((a.weighted_speedup(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compression_helps_contended_mixes() {
        let ws: Vec<WorkloadSpec> = (0..4)
            .map(|i| workload(i, DataProfile::PointerLike))
            .collect();
        let base =
            MulticoreSystem::new(SimConfig::multi_program(LlcKind::Uncompressed)).run(&ws, 150_000);
        let bv =
            MulticoreSystem::new(SimConfig::multi_program(LlcKind::BaseVictim)).run(&ws, 150_000);
        // The architectural guarantee is on hit rate; IPC additionally
        // pays the tag/decompression latency, so allow a sliver of noise
        // at this tiny instruction budget.
        assert!(
            bv.weighted_speedup(&base) >= 0.98,
            "weighted speedup {:.3} unexpectedly low",
            bv.weighted_speedup(&base)
        );
        assert!(
            bv.llc.hit_rate() >= base.llc.hit_rate() - 1e-12,
            "hit-rate guarantee violated in the mix"
        );
        assert!(bv.llc.victim_hits > 0, "victim cache unused in the mix");
    }

    #[test]
    fn threads_use_disjoint_address_spaces() {
        // Two copies of the same workload (same seed).
        let w = workload(7, DataProfile::SmallInt);
        let mut g0 = w.generator_at(0);
        let mut g1 = w.generator_at(THREAD_OFFSET);
        for _ in 0..100 {
            let a = g0.next_event().addr;
            let b = g1.next_event().addr;
            assert!(b >= THREAD_OFFSET && a < THREAD_OFFSET);
        }
    }
}
