//! The simple two-tags-per-way compressed caches of Section III.
//!
//! These organizations demonstrate the paper's negative result: doubling
//! tags and pairing compressed lines in physical ways *without* the
//! Base-Victim split interacts badly with the replacement policy. Both
//! are one [`TwoTagLlc`] type; its [`TwoTagFlavor`] picks the eviction.
//!
//! * [`TwoTagFlavor::PartnerVictimization`] treats all `2N` logical slots
//!   of a set as peers of one replacement policy. When the incoming line
//!   does not fit with the victim slot's partner, the partner is evicted
//!   too ("partner line victimization") — even if it is the MRU line.
//!   Figure 6 shows this losing 12% on average.
//! * [`TwoTagFlavor::EcmSizeAware`] adds the ECM-inspired fix evaluated in
//!   Figure 7: it
//!   searches for an eviction candidate (per the policy's candidate
//!   predicate) whose removal alone frees enough space, choosing the one
//!   with the largest compressed size; partner victimization remains the
//!   fallback. This helps compressible workloads but still breaks the
//!   replacement order, leaving large negative outliers.

use crate::slot::{prefetch_miss, write_hit, writeback_miss, Fetch, LinePayloads, Sizer};
use crate::{Effects, HitKind, InclusionAgent, LlcOrganization, LlcStats, OpOutcome, ReadOutcome};
use bv_cache::engine::SetEngine;
use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
use bv_compress::{CacheLine, CompressionStats, Compressor, SegmentCount, SEGMENTS_PER_LINE};
use bv_events::{CacheEvent, EventSink, EvictCause, NoEventSink};

/// How a two-tag organization picks its eviction when no free slot fits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum TwoTagFlavor {
    /// Naive: policy victim + partner victimization (Figure 6), reported
    /// as `two-tag`.
    PartnerVictimization,
    /// Modified: ECM-style size-aware candidate search (Figure 7),
    /// reported as `two-tag-ecm`.
    EcmSizeAware,
}

/// The two-tags-per-way compressed LLC of Section III, in either
/// [`TwoTagFlavor`].
///
/// The set engine holds `sets x 2N` logical slots; slot `l` lives in
/// physical way `l / 2`, its partner is `l ^ 1`. The two-tag delta over
/// the engine is purely the pairing rule: a line may only be installed
/// where it fits with its partner, and lines that stop fitting victimize
/// the partner.
///
/// # Examples
///
/// ```
/// use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
/// use bv_compress::CacheLine;
/// use bv_core::{LlcOrganization, NoInner, TwoTagFlavor, TwoTagLlc};
///
/// let geom = CacheGeometry::new(4096, 4, 64);
/// let mut llc = TwoTagLlc::new(geom, PolicyKind::Nru, TwoTagFlavor::EcmSizeAware);
/// llc.fill(LineAddr::new(3), CacheLine::zeroed(), &mut NoInner);
/// assert!(llc.contains(LineAddr::new(3)));
/// assert_eq!(llc.name(), "two-tag-ecm");
/// ```
#[derive(Debug)]
pub struct TwoTagLlc<E: EventSink = NoEventSink> {
    geom: CacheGeometry,
    /// Each logical slot's payload is its line's compressed size.
    engine: SetEngine<SegmentCount, E>,
    /// Line data, indexed like the engine's logical slots.
    payloads: LinePayloads,
    flavor: TwoTagFlavor,
    sizer: Sizer,
}

impl TwoTagLlc {
    /// Engine tag slots per physical way: two tags per data way.
    pub const SLOTS_PER_WAY: usize = 2;

    /// Creates an empty organization over the given physical geometry
    /// (each data way carries two tags).
    #[must_use]
    pub fn new(geom: CacheGeometry, policy: PolicyKind, flavor: TwoTagFlavor) -> TwoTagLlc {
        TwoTagLlc::with_sink(geom, policy, flavor, NoEventSink)
    }
}

impl<E: EventSink> TwoTagLlc<E> {
    /// Creates an empty organization that reports cache events to
    /// `sink`. [`TwoTagLlc::new`] routes here with [`NoEventSink`], which
    /// compiles the event path out entirely.
    #[must_use]
    pub fn with_sink(
        geom: CacheGeometry,
        policy: PolicyKind,
        flavor: TwoTagFlavor,
        sink: E,
    ) -> TwoTagLlc<E> {
        let slots = geom.ways() * TwoTagLlc::SLOTS_PER_WAY;
        TwoTagLlc {
            geom,
            engine: SetEngine::with_sink(geom.sets(), slots, policy, sink),
            payloads: LinePayloads::new(geom.sets(), slots),
            flavor,
            sizer: Sizer::bdi(),
        }
    }

    fn find(&self, addr: LineAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_index(addr.get());
        let tag = self.geom.tag(addr.get());
        self.engine.tags().find(set, tag).map(|l| (set, l))
    }

    /// Evicts the occupant of logical slot `l`, if valid, labeling the
    /// eviction event with `cause`.
    fn evict_slot(
        &mut self,
        set: usize,
        l: usize,
        inner: &mut dyn InclusionAgent,
        effects: &mut Effects,
        cause: EvictCause,
    ) {
        let tags = self.engine.tags();
        if !tags.is_valid(set, l) {
            return;
        }
        let addr = self.geom.line_addr(set, tags.tag(set, l));
        let dirty = tags.is_dirty(set, l);
        effects.back_invalidations += 1;
        let inner_dirty = inner.back_invalidate(addr);
        if inner_dirty.is_some() || dirty {
            effects.memory_writes += 1;
        }
        self.engine.invalidate_as(set, l, cause);
    }

    /// Whether installing a line of `size` in logical slot `l` fits with
    /// the current partner occupant.
    fn fits_in(&self, set: usize, l: usize, size: SegmentCount) -> bool {
        if self.engine.tags().is_valid(set, l ^ 1) {
            self.engine.meta(set, l ^ 1).fits_with(size)
        } else {
            size.get() as usize <= SEGMENTS_PER_LINE
        }
    }

    /// The ECM flavor's size-aware pick, tried before partner
    /// victimization: among valid slots whose sole removal frees enough
    /// space for a line of `size`, the policy's eviction candidates
    /// (e.g. NRU bit clear) first, then the largest compressed size
    /// (maximizes retained capacity, as in ECM). Breaking the policy
    /// order like this is exactly the compromise Figure 7 evaluates.
    /// `None` for the naive flavor, or when no slot qualifies.
    fn ecm_candidate(&self, set: usize, size: SegmentCount) -> Option<usize> {
        if self.flavor != TwoTagFlavor::EcmSizeAware {
            return None;
        }
        (0..self.engine.tags().ways())
            .filter(|&l| self.engine.tags().is_valid(set, l) && self.fits_in(set, l, size))
            .max_by_key(|&l| {
                (
                    self.engine.is_eviction_candidate(set, l),
                    self.engine.meta(set, l).get(),
                    usize::MAX - l,
                )
            })
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

        // Warmup path: an invalid logical slot whose partner leaves room.
        let target = (0..self.engine.tags().ways())
            .find(|&l| !self.engine.tags().is_valid(set, l) && self.fits_in(set, l, size));

        let l = if let Some(l) = target {
            l
        } else if let Some(l) = self.ecm_candidate(set, size) {
            self.evict_slot(set, l, inner, &mut effects, EvictCause::SizePressure);
            l
        } else {
            // Evict the policy's victim; if the incoming line does not
            // fit with its partner, victimize the partner too — even if
            // the partner is the MRU line.
            let v = self.engine.victim(set);
            self.evict_slot(set, v, inner, &mut effects, EvictCause::Replacement);
            if !self.fits_in(set, v, size) {
                self.evict_slot(set, v ^ 1, inner, &mut effects, EvictCause::SizePressure);
                effects.partner_evictions += 1;
            }
            v
        };

        fetch.emit(&mut self.engine, set, l, tag, sizing, size);
        self.engine.install(set, l, tag, size, size);
        self.payloads.put(set, l, &data);
        fetch.finish(&mut self.engine, effects)
    }
}

impl<E: EventSink> LlcOrganization for TwoTagLlc<E> {
    fn name(&self) -> &'static str {
        match self.flavor {
            TwoTagFlavor::PartnerVictimization => "two-tag",
            TwoTagFlavor::EcmSizeAware => "two-tag-ecm",
        }
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
                let size = *self.engine.meta(set, l);
                ReadOutcome {
                    kind: HitKind::Base(size),
                    effects: Effects::default(),
                }
            }
            None => {
                let set = self.geom.set_index(addr.get());
                self.engine.demand_miss(set);
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
        let unchanged = self.payloads.holds(set, l, &data);
        let new_size = self
            .sizer
            .resize(unchanged, *self.engine.meta(set, l), &data);
        self.payloads.put(set, l, &data);
        self.engine.set_dirty(set, l);
        *self.engine.meta_mut(set, l) = new_size;
        let tag = self.geom.tag(addr.get());
        write_hit(&mut self.engine, set, l, tag, new_size);
        // If the line grew past its partner's space, the partner must be
        // evicted (with a writeback if dirty).
        let mut effects = Effects::default();
        if !self.fits_in(set, l, new_size) {
            self.evict_slot(set, l ^ 1, inner, &mut effects, EvictCause::SizePressure);
            effects.partner_evictions += 1;
        }
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
        1 // doubled tags
    }

    fn decompression_latency(&self, size: SegmentCount) -> u32 {
        self.sizer.compressor().decompression_latency(size, 2)
    }

    fn resident_lines(&self) -> Vec<LineAddr> {
        self.engine
            .tags()
            .iter_valid()
            .map(|(set, _, tag)| self.geom.line_addr(set, tag))
            .collect()
    }

    /// Panics if any physical way's two logical lines exceed 16 segments.
    fn assert_invariants(&self) {
        for set in 0..self.geom.sets() {
            for w in 0..self.geom.ways() {
                let (a, b) = (2 * w, 2 * w + 1);
                let tags = self.engine.tags();
                if tags.is_valid(set, a) && tags.is_valid(set, b) {
                    let (a, b) = (self.engine.meta(set, a), self.engine.meta(set, b));
                    assert!(
                        a.fits_with(*b),
                        "pair overflow set {set} way {w}: {a} + {b}"
                    );
                }
            }
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
    use bv_compress::CacheLine;
    use bv_testkit::fixtures;

    fn compressible(seed: u64) -> CacheLine {
        // B8D1: 5 segments.
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
        LineAddr::new(set + 4 * k) // 4-set caches below
    }

    fn toy_naive() -> TwoTagLlc {
        TwoTagLlc::new(
            fixtures::toy_geometry(),
            fixtures::toy_policy(),
            TwoTagFlavor::PartnerVictimization,
        )
    }

    fn toy_ecm() -> TwoTagLlc {
        TwoTagLlc::new(
            fixtures::toy_geometry(),
            PolicyKind::Nru,
            TwoTagFlavor::EcmSizeAware,
        )
    }

    #[test]
    fn compressible_lines_double_capacity() {
        let mut c = toy_naive();
        let mut inner = NoInner;
        // Eight 5-segment lines fit in four physical ways (5 + 5 <= 16).
        for k in 0..8 {
            c.fill(addr(0, k), compressible(k), &mut inner);
        }
        for k in 0..8 {
            assert!(c.contains(addr(0, k)), "line {k} evicted prematurely");
        }
        c.assert_invariants();
        assert_eq!(c.stats().memory_writes, 0);
    }

    #[test]
    fn incompressible_lines_keep_baseline_capacity() {
        let mut c = toy_naive();
        let mut inner = NoInner;
        for k in 0..4 {
            c.fill(addr(0, k), incompressible(k), &mut inner);
        }
        // A fifth incompressible line evicts one resident line only (its
        // slot's partner is invalid).
        c.fill(addr(0, 4), incompressible(4), &mut inner);
        let resident = c.resident_lines().len();
        assert_eq!(resident, 4);
        c.assert_invariants();
    }

    #[test]
    fn partner_victimization_can_evict_the_mru_line() {
        // The Section III pathology: the LRU victim's physical partner is
        // the MRU line, and an incompressible fill kills them both.
        let mut c = toy_naive();
        let mut inner = NoInner;
        // Fill all 8 logical slots with compressible lines; fills land in
        // slot order, so addr(0,k) occupies slot k and addr(0,0)/addr(0,1)
        // share physical way 0.
        for k in 0..8 {
            c.fill(addr(0, k), compressible(k), &mut inner);
        }
        // Touch everything except addr(0,0), ending with addr(0,1): the
        // LRU line (slot 0) and the MRU line (slot 1) now share a way.
        for k in [2, 3, 4, 5, 6, 7, 1] {
            assert!(c.read(addr(0, k), &mut inner).is_hit());
        }
        // Incompressible fill: the LRU victim is slot 0; the incoming line
        // does not fit with its partner, so the MRU line is victimized.
        c.fill(addr(0, 9), incompressible(9), &mut inner);
        assert!(!c.contains(addr(0, 0)), "LRU line evicted");
        assert!(
            !c.contains(addr(0, 1)),
            "naive two-tag must victimize the MRU partner"
        );
        assert_eq!(c.stats().partner_evictions, 1);
        c.assert_invariants();
    }

    #[test]
    fn full_sets_of_incompressible_lines_waste_the_spare_tags() {
        // With four incompressible residents, the four spare tags can
        // never be used; every further fill victimizes some partner.
        let mut c = toy_naive();
        let mut inner = NoInner;
        for k in 0..4 {
            c.fill(addr(0, k), incompressible(k), &mut inner);
        }
        let before = c.stats().partner_evictions;
        c.fill(addr(0, 9), incompressible(9), &mut inner);
        assert_eq!(c.resident_lines().len(), 4);
        assert_eq!(c.stats().partner_evictions, before + 1);
        c.assert_invariants();
    }

    #[test]
    fn ecm_variant_avoids_partner_victimization_when_possible() {
        let mut c = toy_ecm();
        let mut inner = NoInner;
        c.fill(addr(0, 0), compressible(0), &mut inner);
        c.fill(addr(0, 1), compressible(1), &mut inner);
        for k in 2..5 {
            c.fill(addr(0, k), incompressible(k), &mut inner);
        }
        // Touch the compressible pair so they are protected; the
        // incompressible lines age out.
        assert!(c.read(addr(0, 0), &mut inner).is_hit());
        assert!(c.read(addr(0, 1), &mut inner).is_hit());
        // An incompressible fill should evict one of the stale
        // incompressible lines (whose partners are invalid), not split the
        // protected pair.
        c.fill(addr(0, 9), incompressible(9), &mut inner);
        assert!(c.contains(addr(0, 0)));
        assert!(c.contains(addr(0, 1)));
        assert_eq!(c.stats().partner_evictions, 0);
        c.assert_invariants();
    }

    #[test]
    fn writeback_growth_evicts_partner_with_writeback() {
        let mut c = toy_naive();
        let mut inner = NoInner;
        c.fill(addr(1, 0), compressible(0), &mut inner);
        c.fill(addr(1, 1), compressible(1), &mut inner); // partner pair
                                                         // Dirty the partner so its eviction costs a memory write.
        c.writeback(addr(1, 1), compressible(1), &mut inner);
        // Grow the first line to a full line: partner must be evicted and
        // written back.
        let out = c.writeback(addr(1, 0), incompressible(7), &mut inner);
        assert_eq!(out.effects.partner_evictions, 1);
        assert_eq!(out.effects.memory_writes, 1);
        assert!(!c.contains(addr(1, 1)));
        c.assert_invariants();
    }

    #[test]
    fn doubled_tags_cost_a_cycle() {
        let c = toy_naive();
        assert_eq!(c.tag_latency_penalty(), 1);
        assert_eq!(c.decompression_latency(SegmentCount::new(5)), 2);
        assert_eq!(c.decompression_latency(SegmentCount::FULL), 0);
    }

    #[test]
    fn prefetch_fills_install_once() {
        let mut c = toy_ecm();
        let mut inner = NoInner;
        let a = addr(2, 0);
        assert!(c.prefetch_fill(a, compressible(0), &mut inner).is_some());
        assert!(c.prefetch_fill(a, compressible(0), &mut inner).is_none());
        assert_eq!(c.stats().prefetch_fills, 1);
        assert_eq!(c.stats().prefetch_hits, 1);
    }
}
