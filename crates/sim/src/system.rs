//! Single-core simulation driver.

use crate::config::SimConfig;
use crate::core_model::CoreModel;
use crate::dram::DramStats;
use crate::feed::{with_feed, CorePool, PROCESS_CORES};
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
        self.run_traced_in(&PROCESS_CORES, workload, warmup, instructions, llc)
    }

    fn run_traced_in(
        &self,
        pool: &CorePool,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
        llc: Box<dyn bv_core::LlcOrganization>,
    ) -> (RunResult, Box<dyn bv_core::LlcOrganization>) {
        let hierarchy = || Hierarchy::with_llc(self.cfg, 1, llc);
        let (result, hierarchy) = self.drive(
            pool,
            hierarchy,
            workload,
            warmup,
            instructions,
            &mut NoInstrument,
        );
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
        self.drive(
            &PROCESS_CORES,
            || Hierarchy::new(self.cfg, 1),
            workload,
            warmup,
            instructions,
            instr,
        )
        .0
    }

    /// Runs warmup + measured phases on the hierarchy that `hierarchy`
    /// builds and returns it with the result, so traced callers can
    /// recover the LLC afterwards. The calling thread counts as busy in
    /// `pool` from before the build on, so a run starting meanwhile does
    /// not take this thread's setup for a free core. A helper decodes and
    /// trains the prefetcher ahead if `pool` grants one; otherwise the
    /// loop decodes and trains one event at a time, through `access_on`.
    fn drive<I: Instrument>(
        &self,
        pool: &CorePool,
        hierarchy: impl FnOnce() -> Hierarchy,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
        instr: &mut I,
    ) -> (RunResult, Hierarchy) {
        let _busy = pool.enter();
        let hierarchy = hierarchy();
        let gen = workload.generator();
        let insts = warmup.saturating_add(instructions);
        with_feed(
            pool,
            gen,
            self.cfg.prefetch_degree,
            insts,
            |feed, mut gen| {
                let Some(mut feed) = feed else {
                    return self.drive_loop(hierarchy, warmup, instructions, instr, |h, core| {
                        let ev = gen.next_event();
                        core.work(ev.instructions());
                        let out = h.access_on(0, &ev, core.cycles(), &gen);
                        core.account(&ev, &out);
                        out.level
                    });
                };
                self.drive_loop(hierarchy, warmup, instructions, instr, |h, core| {
                    let (ev, prefetches) = feed.next();
                    gen.commit(&ev);
                    core.work(ev.instructions());
                    let out = h.access_prefetching(0, &ev, prefetches, core.cycles(), &gen);
                    core.account(&ev, &out);
                    out.level
                })
            },
        )
    }

    /// The drive loop proper: `step` runs the next event through the
    /// hierarchy and the core model and says where it hit.
    fn drive_loop<I: Instrument>(
        &self,
        mut hierarchy: Hierarchy,
        warmup: u64,
        instructions: u64,
        instr: &mut I,
        mut step: impl FnMut(&mut Hierarchy, &mut CoreModel) -> LevelHit,
    ) -> (RunResult, Hierarchy) {
        let mut core = CoreModel::new(self.cfg.core);
        let mut level_hits = [0u64; 5];

        while core.instructions() < warmup {
            step(&mut hierarchy, &mut core);
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
            let idx = match step(&mut hierarchy, &mut core) {
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
    use crate::feed::BLOCK_EVENTS;
    use bv_cache::{CacheGeometry, LineAddr, LlcStats};
    use bv_compress::{CacheLine, CompressionStats, SegmentCount};
    use bv_core::{InclusionAgent, LlcOrganization, OpOutcome, ReadOutcome};
    use bv_events::{CacheEvent, RingSink};
    use bv_telemetry::TelemetryReport;
    use bv_trace::synth::KernelSpec;
    use bv_trace::{DataProfile, KernelKind, TraceRegistry};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::{Duration, Instant};

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

    /// The organizations `--llc` names.
    fn every_llc() -> Vec<LlcKind> {
        LlcKind::NAMES
            .split(", ")
            .map(|name| LlcKind::from_name(name).expect("a listed name parses"))
            .collect()
    }

    /// What a run shows through each entry point.
    struct Outputs {
        result: RunResult,
        report: TelemetryReport,
        traced: RunResult,
        events: Vec<CacheEvent>,
    }

    fn outputs(pool: &CorePool, cfg: SimConfig, w: &WorkloadSpec, budget: (u64, u64)) -> Outputs {
        let sys = System::new(cfg);
        let (warmup, insts) = budget;
        let plain = || Hierarchy::new(cfg, 1);
        let (result, _) = sys.drive(pool, plain, w, warmup, insts, &mut NoInstrument);
        let mut telemetry = SimTelemetry::new(2_000);
        let (sampled, _) = sys.drive(pool, plain, w, warmup, insts, &mut telemetry);
        assert_eq!(sampled, result, "sampling perturbed the run");
        let llc = cfg
            .llc_kind
            .build_traced(cfg.llc, cfg.llc_policy, RingSink::new(1 << 17));
        let traced = || Hierarchy::with_llc(cfg, 1, llc);
        let (traced, traced_hierarchy) =
            sys.drive(pool, traced, w, warmup, insts, &mut NoInstrument);
        let mut llc = traced_hierarchy.into_llc();
        assert_eq!(llc.events_dropped(), 0, "the event ring overflowed");
        Outputs {
            result,
            report: telemetry.into_report(),
            traced,
            events: llc.drain_events(),
        }
    }

    /// Events the drive loop consumes for `(warmup, insts)`.
    fn events_consumed(w: &WorkloadSpec, (warmup, insts): (u64, u64)) -> usize {
        let mut gen = w.generator();
        let (mut events, mut done) = (0, 0);
        for end in [warmup, 0] {
            let end = if end == 0 { done + insts } else { end };
            while done < end {
                done += gen.next_event().instructions();
                events += 1;
            }
        }
        events
    }

    #[test]
    fn the_helper_feed_matches_the_serial_loop() {
        let registry = TraceRegistry::paper_default();
        // The 1-core pool grants no helper, so its runs are the serial
        // loop, the reference.
        let (inline, helper) = (CorePool::with_cores(1), CorePool::with_cores(2));
        // (warmup, measured instructions, prefetch degree): the default,
        // no warmup, training off, and more targets per event than the
        // default degree.
        let runs = [
            (2_000, 9_000, 4),
            (0, 7_000, 4),
            (1_500, 6_000, 0),
            (1_500, 6_000, 8),
        ];
        for name in ["specint.mcf.07", "productivity.winrar.04"] {
            let w = &registry.get(name).expect("registry trace").workload;
            for (warmup, insts, degree) in runs {
                let budget = (warmup, insts);
                assert_ne!(
                    events_consumed(w, budget) % BLOCK_EVENTS,
                    0,
                    "{name}: the budget must end inside a block"
                );
                for kind in every_llc() {
                    let mut cfg = SimConfig::single_thread(kind);
                    cfg.prefetch_degree = degree;
                    let want = outputs(&inline, cfg, w, budget);
                    assert!(!want.events.is_empty());
                    let got = outputs(&helper, cfg, w, budget);
                    let case = format!("{name} {} warmup {warmup} degree {degree}", kind.name());
                    assert_eq!(got.result, want.result, "{case}: result");
                    assert_eq!(got.report, want.report, "{case}: telemetry report");
                    assert_eq!(got.traced, want.traced, "{case}: traced result");
                    assert_eq!(got.events.len(), want.events.len(), "{case}: events");
                    if let Some(i) =
                        (0..want.events.len()).find(|&i| got.events[i] != want.events[i])
                    {
                        panic!(
                            "{case}: event {i} differs: {:?} vs {:?}",
                            got.events[i], want.events[i]
                        );
                    }
                }
            }
        }
        // Only the 2-core pool gives a feed.
        for (pool, on_helper) in [(&inline, false), (&helper, true)] {
            let _busy = pool.enter();
            let gen = registry
                .get("specint.mcf.07")
                .expect("registry trace")
                .workload
                .generator();
            assert_eq!(
                with_feed(pool, gen, 4, 0, |feed, _| feed.is_some()),
                on_helper
            );
        }
    }

    /// An organization that panics on its `panic_at`-th read, and records
    /// how many threads `pool` counted busy at that read.
    struct PanicAfter {
        inner: Box<dyn LlcOrganization>,
        pool: &'static CorePool,
        reads: u64,
        panic_at: u64,
        panics: bool,
        busy_seen: &'static AtomicUsize,
    }

    impl LlcOrganization for PanicAfter {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn geometry(&self) -> CacheGeometry {
            self.inner.geometry()
        }
        fn contains(&self, addr: LineAddr) -> bool {
            self.inner.contains(addr)
        }
        fn read(&mut self, addr: LineAddr, inner: &mut dyn InclusionAgent) -> ReadOutcome {
            self.reads += 1;
            if self.reads == self.panic_at {
                self.busy_seen.store(self.pool.busy(), Ordering::SeqCst);
                assert!(!self.panics, "planted LLC panic");
            }
            self.inner.read(addr, inner)
        }
        fn writeback(
            &mut self,
            addr: LineAddr,
            data: CacheLine,
            inner: &mut dyn InclusionAgent,
        ) -> OpOutcome {
            self.inner.writeback(addr, data, inner)
        }
        fn fill(
            &mut self,
            addr: LineAddr,
            data: CacheLine,
            inner: &mut dyn InclusionAgent,
        ) -> OpOutcome {
            self.inner.fill(addr, data, inner)
        }
        fn prefetch_fill(
            &mut self,
            addr: LineAddr,
            data: CacheLine,
            inner: &mut dyn InclusionAgent,
        ) -> Option<OpOutcome> {
            self.inner.prefetch_fill(addr, data, inner)
        }
        fn peek_data(&self, addr: LineAddr) -> Option<CacheLine> {
            self.inner.peek_data(addr)
        }
        fn hint_downgrade(&mut self, addr: LineAddr) {
            self.inner.hint_downgrade(addr);
        }
        fn stats(&self) -> &LlcStats {
            self.inner.stats()
        }
        fn compression_stats(&self) -> &CompressionStats {
            self.inner.compression_stats()
        }
        fn tag_latency_penalty(&self) -> u32 {
            self.inner.tag_latency_penalty()
        }
        fn decompression_latency(&self, size: SegmentCount) -> u32 {
            self.inner.decompression_latency(size)
        }
        fn resident_lines(&self) -> Vec<LineAddr> {
            self.inner.resident_lines()
        }
    }

    #[test]
    fn a_panicking_run_joins_its_helper_and_frees_its_core() {
        // A pool of its own, so other tests' runs do not move its count.
        static POOL: CorePool = CorePool::with_cores(2);
        static BUSY_SEEN: AtomicUsize = AtomicUsize::new(0);
        let cfg = SimConfig::single_thread(LlcKind::BaseVictim);
        let llc = move |panics| {
            Box::new(PanicAfter {
                inner: cfg.llc_kind.build(cfg.llc, cfg.llc_policy),
                pool: &POOL,
                reads: 0,
                panic_at: 300,
                panics,
                busy_seen: &BUSY_SEEN,
            })
        };
        let w = workload(1 << 20, DataProfile::SmallInt);
        let before = POOL.busy();
        assert_eq!(before, 0);

        // The run goes on a thread of its own, so a hang fails the test
        // instead of stalling it.
        let (tx, rx) = mpsc::channel();
        let started = Instant::now();
        let w2 = w.clone();
        let run = thread::spawn(move || {
            let sys = System::new(cfg);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                sys.run_traced_in(&POOL, &w2, 1_000, 200_000, llc(true))
            }));
            tx.send(caught.is_err()).expect("the test waits");
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the panicking run unwinds within seconds");
        assert!(panicked, "the planted panic reached the caller");
        assert!(started.elapsed() < Duration::from_secs(20));
        run.join().expect("the runner thread ends");
        assert_eq!(
            BUSY_SEEN.load(Ordering::SeqCst),
            2,
            "a helper ran beside the loop"
        );
        assert_eq!(
            POOL.busy(),
            before,
            "the loop and its helper released their cores"
        );

        // The next run still gets a helper, and completes.
        BUSY_SEEN.store(0, Ordering::SeqCst);
        let (result, _) = System::new(cfg).run_traced_in(&POOL, &w, 1_000, 20_000, llc(false));
        assert_eq!(
            BUSY_SEEN.load(Ordering::SeqCst),
            2,
            "the next run got a helper"
        );
        assert_eq!(POOL.busy(), before);
        assert_eq!(result, System::new(cfg).run_with_warmup(&w, 1_000, 20_000));
    }
}
