//! A functional model of the Decoupled Variable-Segment Cache (VSC-2X).
//!
//! Alameldeen & Wood's VSC (ISCA 2004) decouples tags from data: a set has
//! `2N` tags and a shared pool of `16 * N` four-byte segments in which
//! compressed lines are compacted back-to-back. Section V of the
//! Base-Victim paper reports that, "when simulated on functional cache
//! models, these policies come close to an 80% increase in cache capacity"
//! — but refuses an IPC comparison because VSC's data-array changes make
//! its access latency incomparable. This model reproduces that functional
//! comparison: hit/miss behavior, capacity utilization, and the
//! re-compaction overhead (VSC's first drawback).

use crate::slot::{
    line_addr, prefetch_miss, write_hit, writeback_miss, CapacitySampler, Fetch, LineMeta,
    LinePayloads, Occupancy, Sizer,
};
use crate::{Effects, HitKind, InclusionAgent, LlcOrganization, LlcStats, OpOutcome, ReadOutcome};
use bv_cache::engine::SetEngine;
use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
use bv_compress::{CacheLine, CompressionStats, Compressor, SegmentCount, SEGMENTS_PER_LINE};
use bv_events::{CacheEvent, EventSink, EvictCause, NoEventSink};

/// Functional VSC-2X: twice the tags, compacted variable-size data.
///
/// The delta over the set engine is segmented data-space accounting: a
/// fill needs a free tag *and* enough free segments in the set's shared
/// pool, so one install can evict several small lines and force the
/// survivors to be re-compacted.
///
/// # Examples
///
/// ```
/// use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
/// use bv_compress::CacheLine;
/// use bv_core::{LlcOrganization, NoInner, VscLlc};
///
/// let mut vsc = VscLlc::new(CacheGeometry::new(4096, 4, 64), PolicyKind::Lru);
/// let mut inner = NoInner;
/// vsc.fill(LineAddr::new(1), CacheLine::zeroed(), &mut inner);
/// assert!(vsc.contains(LineAddr::new(1)));
/// ```
#[derive(Debug)]
pub struct VscLlc<E: EventSink = NoEventSink> {
    geom: CacheGeometry,
    engine: SetEngine<LineMeta, E>, // sets x 2*ways logical tags
    /// Per-set segments in use and resident lines, maintained at every
    /// install, growth and eviction.
    occupancy: Vec<Occupancy>,
    /// Line data, indexed like the engine's logical slots.
    payloads: LinePayloads,
    sizer: Sizer,
    /// Set compaction events (any fill/growth that had to evict and
    /// repack).
    recompactions: u64,
    /// Resident logical lines of the filled set, sampled at every fill.
    capacity: CapacitySampler,
}

impl VscLlc {
    /// Engine tag slots per physical way: two logical tags per data way.
    pub const SLOTS_PER_WAY: usize = 2;

    /// Creates an empty functional VSC over the given physical geometry.
    #[must_use]
    pub fn new(geom: CacheGeometry, policy: PolicyKind) -> VscLlc {
        VscLlc::with_sink(geom, policy, NoEventSink)
    }
}

impl<E: EventSink> VscLlc<E> {
    /// Creates an empty functional VSC that reports cache events to
    /// `sink`. [`VscLlc::new`] routes here with [`NoEventSink`], which
    /// compiles the event path out entirely.
    #[must_use]
    pub fn with_sink(geom: CacheGeometry, policy: PolicyKind, sink: E) -> VscLlc<E> {
        let logical = geom.ways() * VscLlc::SLOTS_PER_WAY;
        VscLlc {
            geom,
            engine: SetEngine::with_sink(geom.sets(), logical, policy, sink),
            occupancy: vec![Occupancy::default(); geom.sets()],
            payloads: LinePayloads::new(geom.sets(), logical),
            sizer: Sizer::bdi(),
            recompactions: 0,
            capacity: CapacitySampler::default(),
        }
    }

    fn capacity_segments(&self) -> usize {
        self.geom.ways() * SEGMENTS_PER_LINE
    }

    fn find(&self, addr: LineAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_index(addr.get());
        let tag = self.geom.tag(addr.get());
        self.engine.find(set, tag).map(|l| (set, l))
    }

    fn free_segments(&self, set: usize) -> usize {
        self.capacity_segments() - self.occupancy[set].units as usize
    }

    /// The occupancy of `set` counted slot by slot: the reference
    /// [`assert_invariants`](LlcOrganization::assert_invariants) checks
    /// the maintained counters against.
    fn rescan(&self, set: usize) -> Occupancy {
        let mut occ = Occupancy::default();
        for l in 0..self.engine.ways() {
            let s = self.engine.slot(set, l);
            if s.valid {
                occ.add(s.meta.size.get() as usize);
            }
        }
        occ
    }

    /// Evicts valid lines in replacement order (oldest first) until the
    /// set has `needed` free segments *and* a free tag. Exempts `keep`,
    /// used when growing a resident line in place.
    fn make_room(
        &mut self,
        set: usize,
        needed: usize,
        keep: Option<usize>,
        inner: &mut dyn InclusionAgent,
        effects: &mut Effects,
    ) {
        let mut evicted_any = false;
        loop {
            // `keep` is a resident line that already owns its tag.
            let free_tags = keep.is_some() || self.engine.first_invalid(set).is_some();
            if self.free_segments(set) >= needed && free_tags {
                break;
            }
            // Oldest valid line (highest eviction rank), excluding `keep`.
            let victim = (0..self.engine.ways())
                .filter(|&l| self.engine.slot(set, l).valid && Some(l) != keep)
                .max_by_key(|&l| self.engine.eviction_rank(set, l))
                .expect("a victim must exist while the set is over capacity");
            let slot = self.engine.slot(set, victim).copied();
            let addr = line_addr(&self.geom, set, slot.tag);
            effects.back_invalidations += 1;
            let inner_dirty = inner.back_invalidate(addr);
            if inner_dirty.is_some() || slot.meta.dirty {
                effects.memory_writes += 1;
            }
            self.occupancy[set].remove(slot.meta.size.get() as usize);
            // VSC's multi-eviction drawback: lines leave under segment
            // pressure, not replacement order alone.
            self.engine
                .invalidate_as(set, victim, EvictCause::SizePressure);
            evicted_any = true;
        }
        if evicted_any {
            // Surviving lines must be repacked to close the holes.
            self.recompactions += 1;
        }
    }

    fn install(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
        fetch: Fetch,
    ) -> OpOutcome {
        debug_assert!(self.find(addr).is_none(), "fill of resident line");
        let mut effects = Effects::default();
        let set = self.geom.set_index(addr.get());
        let tag = self.geom.tag(addr.get());
        let sizing = self.sizer.size(&data);
        let size = sizing.size;

        self.make_room(set, size.get() as usize, None, inner, &mut effects);

        let l = self
            .engine
            .first_invalid(set)
            .expect("make_room guarantees a free tag");
        fetch.emit(&mut self.engine, set, l, tag, sizing, size);
        let meta = LineMeta { dirty: false, size };
        self.engine.install(set, l, tag, meta, size);
        self.payloads.put(set, l, &data);
        self.occupancy[set].add(size.get() as usize);
        self.capacity.sample(self.occupancy[set]);
        fetch.finish(&mut self.engine, effects)
    }

    /// Total set-compaction events so far (VSC's read-modify-write
    /// overhead).
    #[must_use]
    pub fn recompactions(&self) -> u64 {
        self.recompactions
    }

    /// Clears the capacity-sampling accumulators (not the cache contents),
    /// so [`effective_capacity_ratio`](VscLlc::effective_capacity_ratio)
    /// measures steady state after a warmup drive.
    pub fn reset_capacity_samples(&mut self) {
        self.capacity = CapacitySampler::default();
    }

    /// Average resident logical lines per set, normalized to the physical
    /// way count: 1.0 means no capacity benefit; the paper reports VSC-2X
    /// "comes close to" 1.8 on compressible workloads.
    #[must_use]
    pub fn effective_capacity_ratio(&self) -> f64 {
        self.capacity.ratio(self.geom.ways())
    }
}

impl<E: EventSink> LlcOrganization for VscLlc<E> {
    fn name(&self) -> &'static str {
        "vsc-2x"
    }

    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn contains(&self, addr: LineAddr) -> bool {
        self.find(addr).is_some()
    }

    fn read(&mut self, addr: LineAddr, _inner: &mut dyn InclusionAgent) -> ReadOutcome {
        match self.find(addr) {
            Some((set, l)) => {
                self.engine.demand_hit(set, l);
                let size = self.engine.slot(set, l).meta.size;
                ReadOutcome {
                    kind: HitKind::Base(size),
                    effects: Effects::default(),
                }
            }
            None => {
                self.engine.demand_miss(self.geom.set_index(addr.get()));
                ReadOutcome {
                    kind: HitKind::Miss,
                    effects: Effects::default(),
                }
            }
        }
    }

    fn writeback(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        let Some((set, l)) = self.find(addr) else {
            return writeback_miss(&mut self.engine, addr);
        };
        let mut effects = Effects::default();
        let old_size = self.engine.slot(set, l).meta.size;
        let unchanged = self.payloads.holds(set, l, &data);
        let new_size = self.sizer.resize(unchanged, old_size, &data);
        if new_size > old_size {
            // Growth: free the delta, evicting LRU lines if needed (and
            // re-compacting). The set's count still charges the line its
            // old size, so only the delta is missing.
            let delta = (new_size.get() - old_size.get()) as usize;
            if self.free_segments(set) < delta {
                self.make_room(set, delta, Some(l), inner, &mut effects);
            } else {
                // In-place growth still moves neighboring lines.
                self.recompactions += 1;
            }
        }
        self.payloads.put(set, l, &data);
        let meta = &mut self.engine.slot_mut(set, l).meta;
        meta.dirty = true;
        meta.size = new_size;
        self.occupancy[set].resize(old_size.get() as usize, new_size.get() as usize);
        let tag = self.geom.tag(addr.get());
        write_hit(&mut self.engine, set, l, tag, new_size);
        self.engine.absorb(effects);
        OpOutcome { effects }
    }

    fn fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        self.install(addr, data, inner, Fetch::Demand)
    }

    fn prefetch_fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> Option<OpOutcome> {
        let resident = self.contains(addr);
        prefetch_miss(&mut self.engine, resident)
            .then(|| self.install(addr, data, inner, Fetch::Prefetch))
    }

    fn peek_data(&self, addr: LineAddr) -> Option<CacheLine> {
        let (set, l) = self.find(addr)?;
        Some(self.payloads.get(set, l))
    }

    fn hint_downgrade(&mut self, addr: LineAddr) {
        if let Some((set, l)) = self.find(addr) {
            self.engine.hint_downgrade(set, l);
        }
    }

    fn stats(&self) -> &LlcStats {
        self.engine.stats()
    }

    fn compression_stats(&self) -> &CompressionStats {
        self.sizer.stats()
    }

    fn tag_latency_penalty(&self) -> u32 {
        1
    }

    fn decompression_latency(&self, size: SegmentCount) -> u32 {
        self.sizer.compressor().decompression_latency(size, 2)
    }

    fn resident_lines(&self) -> Vec<LineAddr> {
        self.engine
            .iter_valid()
            .map(|(set, _, s)| line_addr(&self.geom, set, s.tag))
            .collect()
    }

    /// Panics if a set's resident compressed sizes exceed the pool, or
    /// its maintained occupancy differs from a rescan.
    fn assert_invariants(&self) {
        for set in 0..self.geom.sets() {
            let occ = self.rescan(set);
            assert_eq!(
                self.occupancy[set], occ,
                "set {set} occupancy counters drifted"
            );
            assert!(
                occ.units as usize <= self.capacity_segments(),
                "set {set} over capacity"
            );
        }
    }

    fn encoder_counts(&self) -> Vec<(&'static str, u64)> {
        self.sizer.encoder_counts()
    }

    fn drain_events(&mut self) -> Vec<CacheEvent> {
        self.engine.drain_events()
    }

    fn events_dropped(&self) -> u64 {
        self.engine.events_dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoInner;
    use bv_testkit::fixtures;

    fn compressible(seed: u64) -> CacheLine {
        CacheLine::from_u64_words(&core::array::from_fn(|i| {
            0x4000_0000_0000 + seed * 0x10_0000 + i as u64
        }))
    }

    fn incompressible(seed: u64) -> CacheLine {
        CacheLine::from_u64_words(&core::array::from_fn(|i| {
            (seed + 1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((i as u64) << 56 | (i as u64).wrapping_mul(0x1234_5678_9abc))
        }))
    }

    fn addr(set: u64, k: u64) -> LineAddr {
        LineAddr::new(set + 4 * k)
    }

    fn toy() -> VscLlc {
        VscLlc::new(fixtures::toy_geometry(), fixtures::toy_policy())
    }

    #[test]
    fn holds_up_to_2x_logical_lines() {
        let mut vsc = toy();
        let mut inner = NoInner;
        // 5-segment lines: the 64-segment pool holds 12, but only 8 tags.
        for k in 0..8 {
            vsc.fill(addr(0, k), compressible(k), &mut inner);
        }
        assert_eq!(vsc.resident_lines().len(), 8);
        vsc.assert_invariants();
    }

    #[test]
    fn incompressible_fill_evicts_multiple_small_lines() {
        let mut vsc = toy();
        let mut inner = NoInner;
        // Fill the pool with 5-segment lines (8 tags, 40/64 segments).
        for k in 0..8 {
            vsc.fill(addr(0, k), compressible(k), &mut inner);
        }
        // Two incompressible lines need 32 segments; only 24 are free, so
        // VSC evicts LRU lines (this is its multi-eviction drawback).
        vsc.fill(addr(0, 8), incompressible(8), &mut inner);
        vsc.fill(addr(0, 9), incompressible(9), &mut inner);
        vsc.assert_invariants();
        assert!(vsc.recompactions() >= 1);
        assert!(!vsc.contains(addr(0, 0)), "LRU line evicted first");
    }

    #[test]
    fn growth_triggers_recompaction() {
        let mut vsc = toy();
        let mut inner = NoInner;
        for k in 0..8 {
            vsc.fill(addr(0, k), compressible(k), &mut inner);
        }
        let before = vsc.recompactions();
        vsc.writeback(addr(0, 7), incompressible(7), &mut inner);
        assert!(vsc.recompactions() > before);
        vsc.assert_invariants();
    }

    /// A growing line evicts only what its growth needs: the set already
    /// charges the line its old size.
    #[test]
    fn growing_writeback_evicts_only_its_delta() {
        let mut vsc = toy();
        let mut inner = NoInner;
        // Oldest first: three 5-segment lines, then three 16-segment
        // ones, 63 of 64 segments in use.
        for k in 0..3 {
            vsc.fill(addr(0, k), compressible(k), &mut inner);
        }
        for k in 3..6 {
            vsc.fill(addr(0, k), incompressible(k), &mut inner);
        }
        // Line 2 grows by 11 segments with 1 free: evicting lines 0 and
        // 1 frees 10 more, which is enough.
        let out = vsc.writeback(addr(0, 2), incompressible(2), &mut inner);
        assert_eq!(out.effects.back_invalidations, 2);
        assert!(!vsc.contains(addr(0, 0)) && !vsc.contains(addr(0, 1)));
        for k in 2..6 {
            assert!(vsc.contains(addr(0, k)), "line {k} survives");
        }
        vsc.assert_invariants();
    }

    #[test]
    fn effective_capacity_approaches_2x_for_compressible_streams() {
        let mut vsc = toy();
        let mut inner = NoInner;
        // A long compressible stream over one set.
        for k in 0..200 {
            if !vsc.read(addr(0, k % 16), &mut inner).is_hit() {
                vsc.fill(addr(0, k % 16), compressible(k % 16), &mut inner);
            }
        }
        let ratio = vsc.effective_capacity_ratio();
        assert!(ratio > 1.5, "expected near-2x capacity, got {ratio:.2}");
        vsc.assert_invariants();
    }

    #[test]
    fn uncompressible_stream_keeps_baseline_capacity() {
        let mut vsc = toy();
        let mut inner = NoInner;
        for k in 0..100 {
            if !vsc.read(addr(0, k % 8), &mut inner).is_hit() {
                vsc.fill(addr(0, k % 8), incompressible(k % 8), &mut inner);
            }
        }
        let ratio = vsc.effective_capacity_ratio();
        assert!(
            ratio <= 1.01,
            "incompressible data cannot exceed 1x, got {ratio:.2}"
        );
    }
}
