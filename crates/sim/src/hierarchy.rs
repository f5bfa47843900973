//! The three-level inclusive cache hierarchy.
//!
//! Per core: 32 KB L1I + 32 KB L1D (write-back, write-allocate) and a
//! unified 256 KB L2, all LRU. Shared: the LLC organization under study
//! and the DDR3 memory. Inclusion is strict at every level — an LLC
//! displacement back-invalidates the L2 and L1s, and an L2 eviction
//! back-invalidates the L1s — matching the paper's inclusive hierarchy
//! with back-invalidations (Section IV.B).
//!
//! The private caches keep tags and dirty bits only. Every store writes a
//! whole line, the trace's memory image at the epoch that store just
//! committed, and an epoch changes only through such a store, so a dirty
//! copy's data always equals the image's current contents: a dirty line
//! reads its data from the owning core's [`LineSource`] when it leaves the
//! core. A clean copy's data is never observed.

use crate::config::SimConfig;
use crate::dram::Dram;
use crate::prefetch::StreamPrefetcher;
use bv_cache::{BasicCache, Eviction, LineAddr, PolicyKind};
use bv_compress::CacheLine;
use bv_core::{HitKind, InclusionAgent, LlcOrganization};
use bv_trace::{AccessKind, TraceEvent, TraceGenerator};

/// The memory image of each core's address space: the data a line fill
/// or a writeback carries.
pub trait LineSource {
    /// The current contents of the line holding `byte_addr` in core
    /// `core`'s address space.
    fn line_data(&self, core: usize, byte_addr: u64) -> CacheLine;
}

/// One generator serves every core (single-core runs and tests).
impl LineSource for TraceGenerator {
    fn line_data(&self, _core: usize, byte_addr: u64) -> CacheLine {
        TraceGenerator::line_data(self, byte_addr)
    }
}

/// One generator per core, indexed by core id (multi-program runs).
impl LineSource for [TraceGenerator] {
    fn line_data(&self, core: usize, byte_addr: u64) -> CacheLine {
        self[core].line_data(byte_addr)
    }
}

/// Where a demand access was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LevelHit {
    /// L1 instruction or data cache.
    L1,
    /// Unified L2.
    L2,
    /// LLC Baseline (or sole) array.
    LlcBase,
    /// LLC Victim cache (Base-Victim only).
    LlcVictim,
    /// Main memory.
    Memory,
}

/// Result of one demand access through the hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct AccessOutcome {
    /// The level that supplied the data.
    pub level: LevelHit,
    /// Load-to-use latency in core cycles (includes DRAM queueing for
    /// memory accesses).
    pub latency: u64,
}

/// Entries in each core's table of lines known to be in its L2.
const L2_KNOWN_ENTRIES: usize = 1024;

/// An empty entry of that table: a line address is a byte address
/// shifted right by six, so no line has this one.
const NO_LINE: u64 = u64::MAX;

/// Private per-core caches plus the core's prefetcher.
#[derive(Debug)]
pub struct CoreCaches {
    l1i: BasicCache,
    l1d: BasicCache,
    l2: BasicCache,
    prefetcher: StreamPrefetcher,
    /// The prefetcher's output for the current access, reused on every
    /// access so the demand path never allocates.
    prefetches: Vec<u64>,
    /// An exact filter for prefetch targets: a direct-mapped table of
    /// lines known to be in `l2`, indexed by the low bits of the line
    /// address. Every entry names a resident L2 line, because the L2
    /// gains lines only in [`fill_l2`](CoreCaches::fill_l2) and loses
    /// them only there or in [`invalidate`](CoreCaches::invalidate), and
    /// both clear the entry of a line that leaves.
    l2_known: Box<[u64; L2_KNOWN_ENTRIES]>,
}

impl CoreCaches {
    /// Creates the private caches for one core.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> CoreCaches {
        CoreCaches {
            l1i: BasicCache::new(cfg.l1i, PolicyKind::Lru),
            l1d: BasicCache::new(cfg.l1d, PolicyKind::Lru),
            l2: BasicCache::new(cfg.l2, PolicyKind::Lru),
            prefetcher: StreamPrefetcher::new(cfg.prefetch_degree),
            prefetches: Vec::new(),
            l2_known: Box::new([NO_LINE; L2_KNOWN_ENTRIES]),
        }
    }

    fn known_slot(addr: LineAddr) -> usize {
        addr.get() as usize & (L2_KNOWN_ENTRIES - 1)
    }

    /// Whether the filter knows that the L2 holds `addr`. `false` says
    /// nothing: the line may still be there.
    #[inline]
    fn known_in_l2(&self, addr: LineAddr) -> bool {
        self.l2_known[Self::known_slot(addr)] == addr.get()
    }

    /// Records that the L2 holds `addr` (the caller has just found it
    /// there).
    fn note_in_l2(&mut self, addr: LineAddr) {
        self.l2_known[Self::known_slot(addr)] = addr.get();
    }

    /// Clears the filter entry of `addr`, which has left the L2.
    fn forget(&mut self, addr: LineAddr) {
        let entry = &mut self.l2_known[Self::known_slot(addr)];
        if *entry == addr.get() {
            *entry = NO_LINE;
        }
    }

    /// Fills `addr` into the L2 and records it, forgetting the line the
    /// fill evicts. Returns that eviction.
    fn fill_l2(&mut self, addr: LineAddr) -> Option<Eviction> {
        let evicted = self.l2.fill(addr);
        if let Some(ev) = evicted {
            self.forget(ev.addr);
        }
        self.note_in_l2(addr);
        evicted
    }

    /// Removes `addr` from the L1s and the L2 (a back-invalidation) and
    /// forgets it. Returns whether any copy was dirty.
    fn invalidate(&mut self, addr: LineAddr) -> bool {
        let mut dirty = false;
        for cache in [&mut self.l1d, &mut self.l1i, &mut self.l2] {
            if let Some(ev) = cache.invalidate(addr) {
                dirty |= ev.dirty;
            }
        }
        self.forget(addr);
        dirty
    }

    /// The L1 data cache (for stats inspection).
    #[must_use]
    pub fn l1d(&self) -> &BasicCache {
        &self.l1d
    }

    /// The unified L2 (for stats inspection).
    #[must_use]
    pub fn l2(&self) -> &BasicCache {
        &self.l2
    }
}

/// The shared uncore: LLC organization + DRAM.
pub struct Uncore {
    llc: Box<dyn LlcOrganization>,
    dram: Dram,
}

impl Uncore {
    /// Creates the shared uncore from a configuration.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Uncore {
        Uncore::with_llc(cfg, cfg.llc_kind.build(cfg.llc, cfg.llc_policy))
    }

    /// Creates the shared uncore around a pre-built LLC — the traced
    /// path, where the caller constructs the organization with an event
    /// sink (`LlcKind::build_traced`) before handing it over.
    #[must_use]
    pub fn with_llc(cfg: &SimConfig, llc: Box<dyn LlcOrganization>) -> Uncore {
        Uncore {
            llc,
            dram: Dram::new(cfg.dram),
        }
    }

    /// The LLC organization under study.
    #[must_use]
    pub fn llc(&self) -> &dyn LlcOrganization {
        self.llc.as_ref()
    }

    /// Mutable access to the LLC organization, for draining its event
    /// sink between phases of a traced run.
    pub fn llc_mut(&mut self) -> &mut dyn LlcOrganization {
        self.llc.as_mut()
    }

    /// The DRAM model.
    #[must_use]
    pub fn dram(&self) -> &Dram {
        &self.dram
    }
}

/// Back-invalidation agent over every core's private caches.
struct InnerAgent<'a, L: ?Sized> {
    cores: &'a mut [CoreCaches],
    lines: &'a L,
}

impl<L: LineSource + ?Sized> InclusionAgent for InnerAgent<'_, L> {
    fn back_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let mut owner = None;
        for (id, core) in self.cores.iter_mut().enumerate() {
            if core.invalidate(addr) && owner.is_none() {
                owner = Some(id);
            }
        }
        owner.map(|id| self.lines.line_data(id, addr.byte_addr()))
    }
}

/// A single-core view: one set of private caches plus the uncore. For
/// multi-core simulation, `Hierarchy::access_on` takes the core index.
pub struct Hierarchy {
    cfg: SimConfig,
    cores: Vec<CoreCaches>,
    uncore: Uncore,
}

impl Hierarchy {
    /// Builds a hierarchy with `n_cores` private cache sets sharing one
    /// LLC and DRAM.
    #[must_use]
    pub fn new(cfg: SimConfig, n_cores: usize) -> Hierarchy {
        Hierarchy {
            cfg,
            cores: (0..n_cores).map(|_| CoreCaches::new(&cfg)).collect(),
            uncore: Uncore::new(&cfg),
        }
    }

    /// Builds a hierarchy around a pre-built LLC (the traced path).
    #[must_use]
    pub fn with_llc(cfg: SimConfig, n_cores: usize, llc: Box<dyn LlcOrganization>) -> Hierarchy {
        Hierarchy {
            cfg,
            cores: (0..n_cores).map(|_| CoreCaches::new(&cfg)).collect(),
            uncore: Uncore::with_llc(&cfg, llc),
        }
    }

    /// The shared uncore.
    #[must_use]
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// Mutable access to the shared uncore.
    pub fn uncore_mut(&mut self) -> &mut Uncore {
        &mut self.uncore
    }

    /// Consumes the hierarchy and returns the LLC organization, so a
    /// traced run's caller can drain the sink after the run.
    #[must_use]
    pub fn into_llc(self) -> Box<dyn LlcOrganization> {
        self.uncore.llc
    }

    /// One core's private caches.
    #[must_use]
    pub fn core(&self, id: usize) -> &CoreCaches {
        &self.cores[id]
    }

    /// LLC hit latency including the organization's tag and decompression
    /// penalties for a hit of kind `kind`.
    fn llc_hit_latency(&self, kind: HitKind) -> u64 {
        let base = u64::from(self.cfg.core.llc_latency + self.cfg.extra_llc_latency)
            + u64::from(self.uncore.llc.tag_latency_penalty());
        let decompress = kind
            .size()
            .map_or(0, |s| u64::from(self.uncore.llc.decompression_latency(s)));
        base + decompress
    }

    /// Fills a line into a core's L2, handling the L2 eviction: dirty
    /// victims write back to the LLC with the owning core's current line
    /// data, clean victims send a downgrade hint (consumed by CHAR-style
    /// policies).
    fn fill_l2<L: LineSource + ?Sized>(&mut self, core_id: usize, addr: LineAddr, lines: &L) {
        let evicted = self.cores[core_id].fill_l2(addr);
        if let Some(ev) = evicted {
            // Enforce L1 ⊆ L2.
            let mut dirty = ev.dirty;
            let core = &mut self.cores[core_id];
            for l1 in [&mut core.l1d, &mut core.l1i] {
                if let Some(e1) = l1.invalidate(ev.addr) {
                    dirty |= e1.dirty;
                }
            }
            if dirty {
                let data = lines.line_data(core_id, ev.addr.byte_addr());
                let mut agent = InnerAgent {
                    cores: &mut self.cores,
                    lines,
                };
                self.uncore.llc.writeback(ev.addr, data, &mut agent);
            } else {
                self.uncore.llc.hint_downgrade(ev.addr);
            }
        }
    }

    /// Fills a line into a core's L1 (instruction or data side), handling
    /// the L1 eviction: a dirty victim passes its dirty bit to the L2.
    fn fill_l1(&mut self, core_id: usize, ifetch: bool, addr: LineAddr) {
        let core = &mut self.cores[core_id];
        let l1 = if ifetch { &mut core.l1i } else { &mut core.l1d };
        if let Some(ev) = l1.fill(addr) {
            if ev.dirty {
                // L1 ⊆ L2 holds, so this write hits the L2.
                let wrote = core.l2.write(ev.addr);
                debug_assert!(wrote, "L1 victim {0:?} missing from L2", ev.addr);
            }
        }
    }

    /// Performs one demand access at core-cycle `now`, returning where it
    /// hit and its latency. `lines` supplies the data of memory fills,
    /// prefetches and writebacks: a [`TraceGenerator`] for one core, or
    /// `&gens[..]` (one generator per core) for a multi-program run.
    ///
    /// It trains the core's own prefetcher on the access, then runs
    /// [`access_prefetching`](Hierarchy::access_prefetching) with the
    /// targets that training issued. `MulticoreSystem`, `System` runs
    /// that get no helper thread, and callers that step the hierarchy one
    /// event at a time use it; a `System` run with a helper trains a
    /// prefetcher of its own ahead of the caches and calls
    /// `access_prefetching` directly.
    pub fn access_on<L: LineSource + ?Sized>(
        &mut self,
        core_id: usize,
        ev: &TraceEvent,
        now: u64,
        lines: &L,
    ) -> AccessOutcome {
        // Train the prefetcher on every demand access. Section V models
        // "aggressive multi-stream instruction and data prefetchers", so
        // instruction fetches train streams too (sequential code is the
        // easiest stream there is). Training reads no cache state, so it
        // may run before the lookups.
        let core = &mut self.cores[core_id];
        let mut prefetches = std::mem::take(&mut core.prefetches);
        prefetches.clear();
        core.prefetcher.observe_into(ev.addr, &mut prefetches);
        let outcome = self.access_prefetching(core_id, ev, &prefetches, now, lines);
        self.cores[core_id].prefetches = prefetches;
        outcome
    }

    /// Performs one demand access whose prefetcher training has already
    /// run: `prefetches` are the byte addresses that a
    /// [`StreamPrefetcher`] issued when it observed `ev`, in issue order.
    /// They are issued below the L1 (filling the L2 and the LLC) after
    /// the demand access. With the targets of this core's prefetcher,
    /// this is [`access_on`](Hierarchy::access_on).
    pub fn access_prefetching<L: LineSource + ?Sized>(
        &mut self,
        core_id: usize,
        ev: &TraceEvent,
        prefetches: &[u64],
        now: u64,
        lines: &L,
    ) -> AccessOutcome {
        let addr = LineAddr::from_byte_addr(ev.addr);
        let ifetch = ev.kind == AccessKind::Ifetch;
        let is_store = ev.kind.is_write();

        // L1 lookup.
        let core = &mut self.cores[core_id];
        let l1 = if ifetch { &mut core.l1i } else { &mut core.l1d };
        let l1_hit = if is_store {
            l1.write(addr)
        } else {
            l1.read(addr)
        };

        let outcome = if l1_hit {
            AccessOutcome {
                level: LevelHit::L1,
                latency: u64::from(self.cfg.core.l1_latency),
            }
        } else {
            let outcome = self.access_below_l1(core_id, ifetch, addr, now, lines);
            // Write-allocate: apply the store on top of the filled line.
            if is_store {
                let wrote = self.cores[core_id].l1d.write(addr);
                debug_assert!(wrote, "write-allocate failed for {addr:?}");
            }
            outcome
        };

        // Issue prefetches below the L1 (they fill L2 + LLC).
        for &pa in prefetches {
            self.prefetch_line(core_id, pa, now, lines);
        }

        outcome
    }

    /// L2 -> LLC -> memory path for an L1 miss, filling each level on the
    /// way back.
    fn access_below_l1<L: LineSource + ?Sized>(
        &mut self,
        core_id: usize,
        ifetch: bool,
        addr: LineAddr,
        now: u64,
        lines: &L,
    ) -> AccessOutcome {
        // L2 lookup.
        if self.cores[core_id].l2.read(addr) {
            self.fill_l1(core_id, ifetch, addr);
            return AccessOutcome {
                level: LevelHit::L2,
                latency: u64::from(self.cfg.core.l2_latency),
            };
        }

        // LLC lookup.
        let kind = {
            let mut agent = InnerAgent {
                cores: &mut self.cores,
                lines,
            };
            let out = self.uncore.llc.read(addr, &mut agent);
            // Every memory write the LLC performed hits the DRAM write
            // path (bandwidth; not on the load's critical path).
            for _ in 0..out.effects.memory_writes {
                self.uncore.dram.access(now, addr.byte_addr(), true);
            }
            out.kind
        };

        if kind.is_hit() {
            let latency = self.llc_hit_latency(kind);
            self.fill_l2(core_id, addr, lines);
            self.fill_l1(core_id, ifetch, addr);
            let level = match kind {
                HitKind::Victim(_) => LevelHit::LlcVictim,
                _ => LevelHit::LlcBase,
            };
            return AccessOutcome { level, latency };
        }

        // Memory fetch. The request leaves the core after the LLC lookup
        // pipeline; the controller prioritizes it over queued prefetches.
        let issue = now + u64::from(self.cfg.core.llc_latency);
        let done = self.uncore.dram.demand_access(issue, addr.byte_addr());
        let data = lines.line_data(core_id, addr.byte_addr());
        {
            let mut agent = InnerAgent {
                cores: &mut self.cores,
                lines,
            };
            let out = self.uncore.llc.fill(addr, data, &mut agent);
            for _ in 0..out.effects.memory_writes {
                self.uncore.dram.access(now, addr.byte_addr(), true);
            }
        }
        self.fill_l2(core_id, addr, lines);
        self.fill_l1(core_id, ifetch, addr);
        AccessOutcome {
            level: LevelHit::Memory,
            latency: done.saturating_sub(now),
        }
    }

    /// Issues one prefetch: fills LLC (and L2) if absent, consuming DRAM
    /// bandwidth off the critical path.
    fn prefetch_line<L: LineSource + ?Sized>(
        &mut self,
        core_id: usize,
        byte_addr: u64,
        now: u64,
        lines: &L,
    ) {
        let addr = LineAddr::from_byte_addr(byte_addr);
        let core = &mut self.cores[core_id];
        // Already close to the core. The filter answers most of these
        // without a probe; a probe changes no replacement state or stats,
        // so skipping it changes nothing either.
        if core.known_in_l2(addr) {
            debug_assert!(
                core.l2.probe(addr).is_some(),
                "filter names absent {addr:?}"
            );
            return;
        }
        if core.l2.probe(addr).is_some() {
            core.note_in_l2(addr);
            return;
        }
        let fills_before = self.uncore.llc.stats().prefetch_fills;
        let data = lines.line_data(core_id, byte_addr);
        {
            let mut agent = InnerAgent {
                cores: &mut self.cores,
                lines,
            };
            if let Some(out) = self.uncore.llc.prefetch_fill(addr, data, &mut agent) {
                for _ in 0..out.effects.memory_writes {
                    self.uncore.dram.access(now, byte_addr, true);
                }
            }
        }
        // A new LLC fill means the line actually came from memory.
        if self.uncore.llc.stats().prefetch_fills > fills_before {
            self.uncore.dram.access(now, byte_addr, false);
        }
        // Bring the line into the L2 as well (data prefetchers fill the
        // core-side caches in the modeled design). The L2 missed above,
        // and the LLC fill can only back-invalidate inner lines, never
        // insert one, so the line is still absent.
        self.fill_l2(core_id, addr, lines);
    }

    /// Checks strict inclusion: every L1/L2-resident line is LLC-resident,
    /// and every L1I/L1D-resident line is in the same core's L2 (a dirty
    /// L1 victim hands only its dirty bit to the L2, so an L1 copy that
    /// outlived its L2 copy would lose it). Also checks that every line
    /// the prefetch filter names is in its core's L2. Used by integration
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if inclusion is violated.
    pub fn assert_inclusion(&self) {
        for (i, core) in self.cores.iter().enumerate() {
            for cache in [&core.l1i, &core.l1d, &core.l2] {
                for line in cache.resident_lines() {
                    assert!(
                        self.uncore.llc.contains(line),
                        "core {i}: line {line:?} in inner cache but not LLC"
                    );
                }
            }
            for l1 in [&core.l1i, &core.l1d] {
                for line in l1.resident_lines() {
                    assert!(
                        core.l2.probe(line).is_some(),
                        "core {i}: line {line:?} in L1 but not L2"
                    );
                }
            }
            for &line in core.l2_known.iter().filter(|&&l| l != NO_LINE) {
                let line = LineAddr::new(line);
                assert!(
                    core.l2.probe(line).is_some(),
                    "core {i}: filter names {line:?}, which is not in the L2"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LlcKind;
    use bv_cache::{CacheGeometry, LlcStats};
    use bv_compress::{CompressionStats, SegmentCount};
    use bv_core::{OpOutcome, ReadOutcome};
    use bv_trace::synth::{KernelSpec, WorkloadSpec};
    use bv_trace::{DataProfile, KernelKind};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn tiny_workload() -> WorkloadSpec {
        WorkloadSpec {
            kernels: vec![KernelSpec {
                kind: KernelKind::Loop,
                region_bytes: 1 << 20,
                weight: 1,
                store_fraction: 64,
                profile: DataProfile::SmallInt,
            }],
            mem_fraction: 128,
            ifetch_fraction: 16,
            code_bytes: 16 << 10,
            seed: 7,
        }
    }

    fn event(addr: u64, kind: AccessKind) -> TraceEvent {
        TraceEvent {
            gap: 0,
            pc: 0x400000,
            addr,
            kind,
            dependent: false,
        }
    }

    #[test]
    fn l1_hit_after_fill() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let e = event(0x1_0000_0000, AccessKind::Load);
        let first = h.access_on(0, &e, 0, &gen);
        assert_eq!(first.level, LevelHit::Memory);
        let second = h.access_on(0, &e, first.latency, &gen);
        assert_eq!(second.level, LevelHit::L1);
        assert_eq!(second.latency, 3);
    }

    #[test]
    fn memory_latency_includes_dram() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let out = h.access_on(0, &event(0x1_0000_0000, AccessKind::Load), 0, &gen);
        // LLC pipeline (24) + DRAM idle row miss ((15+15+4)*5 = 170).
        assert!(out.latency >= 170, "latency {} too small", out.latency);
    }

    #[test]
    fn inclusion_holds_under_traffic() {
        let cfg = SimConfig::single_thread(LlcKind::BaseVictim);
        let mut h = Hierarchy::new(cfg, 1);
        let mut gen = tiny_workload().generator();
        for i in 0..20_000 {
            let e = gen.next_event();
            h.access_on(0, &e, i, &gen);
            if i % 4096 == 0 {
                h.assert_inclusion();
            }
        }
        h.assert_inclusion();
    }

    #[test]
    fn streaming_accesses_get_prefetched() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let base = 0x2_0000_0000u64;
        let mut memory_hits = 0;
        for i in 0..64 {
            let out = h.access_on(0, &event(base + i * 64, AccessKind::Load), i, &gen);
            if out.level == LevelHit::Memory {
                memory_hits += 1;
            }
        }
        // After training (2 accesses), the stream runs ahead: most demand
        // accesses find their lines in the L2.
        assert!(
            memory_hits <= 4,
            "prefetcher ineffective: {memory_hits} memory-level accesses"
        );
    }

    #[test]
    fn stores_dirty_lines_and_write_back() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        // Store to one line, then walk far past both L1 and L2 capacity so
        // the dirty line is forced down to the LLC.
        let victim = 0x1_0000_0000u64;
        h.access_on(0, &event(victim, AccessKind::Store), 0, &gen);
        for i in 1..20_000u64 {
            h.access_on(0, &event(victim + i * 64 * 64, AccessKind::Load), i, &gen);
        }
        // The dirty line must either still be dirty somewhere in the
        // hierarchy or have been written back to DRAM.
        let wb = h.uncore().llc().stats().writeback_hits;
        assert!(wb > 0, "no L2 writeback reached the LLC");
    }

    #[test]
    fn ifetch_misses_use_the_instruction_cache() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let code = 0x40_0000u64;
        let first = h.access_on(0, &event(code, AccessKind::Ifetch), 0, &gen);
        assert_eq!(first.level, LevelHit::Memory);
        let second = h.access_on(0, &event(code, AccessKind::Ifetch), 1000, &gen);
        assert_eq!(second.level, LevelHit::L1, "L1I holds the line");
        // The same address on the data side is an L2 hit, not an L1D hit:
        // the line was filled into L1I and L2, not L1D.
        let data_side = h.access_on(0, &event(code, AccessKind::Load), 2000, &gen);
        assert_eq!(data_side.level, LevelHit::L2);
    }

    #[test]
    fn store_write_allocates_and_dirties() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let mut gen = tiny_workload().generator();
        // Advance the generator so line_data has an epoch table.
        for _ in 0..10 {
            gen.next_event();
        }
        let a = 0x1_0000_0000u64;
        let out = h.access_on(0, &event(a, AccessKind::Store), 0, &gen);
        assert_eq!(
            out.level,
            LevelHit::Memory,
            "write-allocate fetches the line"
        );
        // The line is now dirty in the L1D.
        let addr = LineAddr::from_byte_addr(a);
        assert_eq!(h.core(0).l1d().is_dirty(addr), Some(true));
        // A subsequent load hits the L1D.
        let out = h.access_on(0, &event(a, AccessKind::Load), 100, &gen);
        assert_eq!(out.level, LevelHit::L1);
    }

    #[test]
    fn prefetches_fill_l2_but_not_l1() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let base = 0x3_0000_0000u64;
        // Train a stream: two sequential accesses trigger run-ahead.
        h.access_on(0, &event(base, AccessKind::Load), 0, &gen);
        h.access_on(0, &event(base + 64, AccessKind::Load), 10, &gen);
        // The next line was prefetched into L2 (and LLC), not L1.
        let next = LineAddr::from_byte_addr(base + 128);
        assert!(h.core(0).l2().probe(next).is_some(), "prefetched into L2");
        assert!(h.core(0).l1d().probe(next).is_none(), "not into L1");
        let out = h.access_on(0, &event(base + 128, AccessKind::Load), 20, &gen);
        assert_eq!(out.level, LevelHit::L2);
    }

    #[test]
    fn multicore_private_caches_are_isolated() {
        let cfg = SimConfig::multi_program(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 2);
        let gen = tiny_workload().generator();
        let a = 0x5_0000_0000u64;
        h.access_on(0, &event(a, AccessKind::Load), 0, &gen);
        // Core 1 misses its private caches but hits the shared LLC.
        let out = h.access_on(1, &event(a, AccessKind::Load), 100, &gen);
        assert_eq!(out.level, LevelHit::LlcBase, "shared LLC serves core 1");
    }

    #[test]
    fn victim_hits_report_their_level() {
        let cfg = SimConfig::single_thread(LlcKind::BaseVictim);
        let mut h = Hierarchy::new(cfg, 1);
        let mut gen = tiny_workload().generator();
        let mut victim_hits = 0;
        for i in 0..200_000 {
            let e = gen.next_event();
            let out = h.access_on(0, &e, i, &gen);
            if out.level == LevelHit::LlcVictim {
                victim_hits += 1;
            }
        }
        assert_eq!(
            victim_hits,
            h.uncore().llc().stats().victim_hits,
            "hierarchy and LLC disagree on victim hits"
        );
    }

    /// The data that left the private caches, in arrival order.
    #[derive(Default)]
    struct Departures {
        /// Every L2 writeback the LLC received.
        writebacks: Vec<(LineAddr, CacheLine)>,
        /// Every dirty answer to a back-invalidation.
        invalidations: Vec<(LineAddr, CacheLine)>,
    }

    /// An LLC that forwards to a real organization and logs the data of
    /// every line leaving the private caches.
    struct Recorder {
        inner: Box<dyn LlcOrganization>,
        log: Rc<RefCell<Departures>>,
    }

    /// Logs the dirty answers of the hierarchy's inclusion agent.
    struct LoggingAgent<'a> {
        inner: &'a mut dyn InclusionAgent,
        log: &'a RefCell<Departures>,
    }

    impl InclusionAgent for LoggingAgent<'_> {
        fn back_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
            let data = self.inner.back_invalidate(addr);
            if let Some(d) = data {
                self.log.borrow_mut().invalidations.push((addr, d));
            }
            data
        }
    }

    impl Recorder {
        /// A hierarchy over a recording `cfg.llc_kind` LLC, and its log.
        fn hierarchy(cfg: SimConfig, n_cores: usize) -> (Hierarchy, Rc<RefCell<Departures>>) {
            let log = Rc::new(RefCell::new(Departures::default()));
            let llc = Recorder {
                inner: cfg.llc_kind.build(cfg.llc, cfg.llc_policy),
                log: Rc::clone(&log),
            };
            (Hierarchy::with_llc(cfg, n_cores, Box::new(llc)), log)
        }
    }

    impl LlcOrganization for Recorder {
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
            let mut agent = LoggingAgent {
                inner,
                log: &self.log,
            };
            self.inner.read(addr, &mut agent)
        }
        fn writeback(
            &mut self,
            addr: LineAddr,
            data: CacheLine,
            inner: &mut dyn InclusionAgent,
        ) -> OpOutcome {
            self.log.borrow_mut().writebacks.push((addr, data));
            let mut agent = LoggingAgent {
                inner,
                log: &self.log,
            };
            self.inner.writeback(addr, data, &mut agent)
        }
        fn fill(
            &mut self,
            addr: LineAddr,
            data: CacheLine,
            inner: &mut dyn InclusionAgent,
        ) -> OpOutcome {
            let mut agent = LoggingAgent {
                inner,
                log: &self.log,
            };
            self.inner.fill(addr, data, &mut agent)
        }
        fn prefetch_fill(
            &mut self,
            addr: LineAddr,
            data: CacheLine,
            inner: &mut dyn InclusionAgent,
        ) -> Option<OpOutcome> {
            let mut agent = LoggingAgent {
                inner,
                log: &self.log,
            };
            self.inner.prefetch_fill(addr, data, &mut agent)
        }
        fn peek_data(&self, addr: LineAddr) -> Option<CacheLine> {
            self.inner.peek_data(addr)
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

    /// Commits a store to `byte_addr` in core `core`'s memory image and
    /// runs it on that core, as the drive loops do; returns the line's new
    /// contents.
    fn store(
        h: &mut Hierarchy,
        gens: &mut [TraceGenerator],
        core: usize,
        byte_addr: u64,
        now: u64,
    ) -> CacheLine {
        let ev = event(byte_addr, AccessKind::Store);
        gens[core].commit(&ev);
        h.access_on(core, &ev, now, gens);
        gens[core].line_data(byte_addr)
    }

    /// A line stored twice carries the second store's data when the L2
    /// evicts it for capacity.
    #[test]
    fn l2_writeback_carries_the_latest_store() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let (mut h, log) = Recorder::hierarchy(cfg, 1);
        let mut gens = [tiny_workload().generator()];
        let a = 0x1_0000_0000u64;
        let line = LineAddr::from_byte_addr(a);
        let first = store(&mut h, &mut gens, 0, a, 0);
        let latest = store(&mut h, &mut gens, 0, a, 1);
        assert_ne!(first, latest, "the second store changes the line");
        // Loads one L2 set-span apart (each in its own 4 KB region, so the
        // prefetcher stays idle) share the line's L2 set and push it out.
        let span = (cfg.l2.sets() * 64) as u64;
        let mut k = 0;
        while h.core(0).l2().probe(line).is_some() {
            k += 1;
            assert!(k <= 64, "line never left the L2");
            h.access_on(0, &event(a + k * span, AccessKind::Load), 1 + k, &gens[..]);
        }
        let log = log.borrow();
        assert_eq!(log.writebacks, vec![(line, latest)]);
        assert!(log.invalidations.is_empty());
        assert_eq!(h.uncore().llc().peek_data(line), Some(latest));
    }

    /// A one-way LLC of 64 sets: two lines 4 KB apart share a set, so the
    /// second one's fill displaces the first from the LLC while the L1
    /// still holds it.
    fn direct_mapped(cfg: SimConfig) -> SimConfig {
        cfg.with_llc_size(64 * 64, 1)
    }

    /// A line stored twice carries the second store's data when an LLC
    /// displacement back-invalidates it out of the L1.
    #[test]
    fn back_invalidation_carries_the_latest_store() {
        let cfg = direct_mapped(SimConfig::single_thread(LlcKind::Uncompressed));
        let (mut h, log) = Recorder::hierarchy(cfg, 1);
        let mut gens = [tiny_workload().generator()];
        let a = 0x1_0000_0000u64;
        let line = LineAddr::from_byte_addr(a);
        store(&mut h, &mut gens, 0, a, 0);
        let latest = store(&mut h, &mut gens, 0, a, 1);
        assert_eq!(h.core(0).l1d().is_dirty(line), Some(true));
        h.access_on(0, &event(a + 4096, AccessKind::Load), 2, &gens[..]);
        assert_eq!(h.core(0).l1d().probe(line), None, "back-invalidated");
        let log = log.borrow();
        assert_eq!(log.invalidations, vec![(line, latest)]);
        assert!(log.writebacks.is_empty());
    }

    /// Prefetches `byte_addr` on `core` and checks that the L2 probed and
    /// refilled it: the filter did not answer for a line the L2 lost.
    fn assert_prefetch_refills(
        h: &mut Hierarchy,
        core: usize,
        byte_addr: u64,
        gen: &TraceGenerator,
    ) {
        let line = LineAddr::from_byte_addr(byte_addr);
        assert!(
            h.core(core).l2().probe(line).is_none(),
            "the L2 lost the line"
        );
        assert!(
            !h.core(core).known_in_l2(line),
            "the filter forgot the line"
        );
        let fills = h.core(core).l2().stats().fills;
        h.prefetch_line(core, byte_addr, 1000, gen);
        assert_eq!(
            h.core(core).l2().stats().fills,
            fills + 1,
            "prefetch refilled it"
        );
        assert!(h.core(core).known_in_l2(line));
        h.assert_inclusion();
    }

    /// A line the L2 evicts leaves the prefetch filter with it.
    #[test]
    fn l2_eviction_clears_the_prefetch_filter() {
        // One way over 1 MB: the loads below share the line's L2 set but
        // sit in LLC sets of their own, so the line leaves by an L2
        // eviction, not a back-invalidation.
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed).with_llc_size(1 << 20, 1);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let a = 0x1_0000_0000u64;
        let line = LineAddr::from_byte_addr(a);
        h.prefetch_line(0, a, 0, &gen);
        assert!(h.core(0).known_in_l2(line));
        // Odd multiples of the L2 set span: the line's L2 set, another
        // filter entry, and a 4 KB region each, so the prefetcher idles.
        let span = (cfg.l2.sets() * 64) as u64;
        let mut k = 1;
        while h.core(0).l2().probe(line).is_some() {
            assert!(k < 64, "line never left the L2");
            h.access_on(0, &event(a + k * span, AccessKind::Load), k, &gen);
            k += 2;
        }
        assert_prefetch_refills(&mut h, 0, a, &gen);
    }

    /// A line another core's fill back-invalidates leaves the prefetch
    /// filter with it.
    #[test]
    fn back_invalidation_clears_the_prefetch_filter() {
        let cfg = direct_mapped(SimConfig::multi_program(LlcKind::Uncompressed));
        let mut h = Hierarchy::new(cfg, 2);
        let gen = tiny_workload().generator();
        let a = 0x1_0000_0000u64;
        h.prefetch_line(0, a, 0, &gen);
        assert!(h.core(0).known_in_l2(LineAddr::from_byte_addr(a)));
        // Core 1's line shares the one-way LLC set and displaces it.
        h.access_on(1, &event(a + 4096, AccessKind::Load), 1, &gen);
        assert_prefetch_refills(&mut h, 0, a, &gen);
    }

    /// Core 0's fill back-invalidates core 1's dirty line: the data comes
    /// from core 1's memory image, not from the core whose fill caused it.
    #[test]
    fn cross_core_back_invalidation_reads_the_owners_image() {
        let cfg = direct_mapped(SimConfig::multi_program(LlcKind::Uncompressed));
        let (mut h, log) = Recorder::hierarchy(cfg, 2);
        let offset = 1u64 << 40;
        let w = tiny_workload();
        let mut gens = [w.generator_at(0), w.generator_at(offset)];
        // Core 1's line and core 0's line share LLC set 0.
        let theirs = 0x1_0000_0000u64 + offset;
        let ours = 0x1_0000_0000u64;
        let line = LineAddr::from_byte_addr(theirs);
        store(&mut h, &mut gens, 1, theirs, 0);
        let latest = store(&mut h, &mut gens, 1, theirs, 1);
        assert_ne!(gens[0].line_data(theirs), latest);
        h.access_on(0, &event(ours, AccessKind::Load), 2, &gens[..]);
        assert_eq!(h.core(1).l1d().probe(line), None, "back-invalidated");
        let log = log.borrow();
        assert_eq!(log.invalidations, vec![(line, latest)]);
        h.assert_inclusion();
    }
}
