//! The uncompressed baseline LLC every experiment normalizes against.

use crate::slot::{prefetch_miss, write_hit, writeback_miss, Fetch, LinePayloads, Sizer};
use crate::{Effects, HitKind, InclusionAgent, LlcOrganization, LlcStats, OpOutcome, ReadOutcome};
use bv_cache::engine::SetEngine;
use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
use bv_compress::{CacheLine, CompressionStats, SegmentCount};
use bv_events::{CacheEvent, EventKind, EventSink, EvictCause, NoEventSink};

/// An ordinary inclusive LLC: one tag per physical way, no compression.
///
/// Besides serving as the normalization baseline, this organization is the
/// reference model in the Base-Victim differential tests: the Baseline
/// cache of [`BaseVictimLlc`](crate::BaseVictimLlc) must mirror it
/// access-for-access.
///
/// # Examples
///
/// ```
/// use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
/// use bv_compress::CacheLine;
/// use bv_core::{LlcOrganization, NoInner, UncompressedLlc};
///
/// let mut llc = UncompressedLlc::new(CacheGeometry::new(4096, 4, 64), PolicyKind::Nru);
/// let mut inner = NoInner;
/// llc.fill(LineAddr::new(3), CacheLine::zeroed(), &mut inner);
/// assert!(llc.contains(LineAddr::new(3)));
/// ```
#[derive(Debug)]
pub struct UncompressedLlc<E: EventSink = NoEventSink> {
    geom: CacheGeometry,
    /// Lines are stored full, so a slot carries nothing beyond its tag.
    engine: SetEngine<(), E>,
    /// Line data, indexed like the engine's slots.
    payloads: LinePayloads,
    sizer: Sizer,
}

impl UncompressedLlc {
    /// Engine tag slots per physical way: one tag per way.
    pub const SLOTS_PER_WAY: usize = 1;

    /// Creates an empty uncompressed LLC.
    #[must_use]
    pub fn new(geom: CacheGeometry, policy: PolicyKind) -> UncompressedLlc {
        UncompressedLlc::with_sink(geom, policy, NoEventSink)
    }
}

impl<E: EventSink> UncompressedLlc<E> {
    /// Creates an empty uncompressed LLC that reports cache events to
    /// `sink`. [`UncompressedLlc::new`] routes here with [`NoEventSink`],
    /// which compiles the event path out entirely.
    #[must_use]
    pub fn with_sink(geom: CacheGeometry, policy: PolicyKind, sink: E) -> UncompressedLlc<E> {
        let slots = geom.ways() * UncompressedLlc::SLOTS_PER_WAY;
        UncompressedLlc {
            geom,
            engine: SetEngine::with_sink(geom.sets(), slots, policy, sink),
            payloads: LinePayloads::new(geom.sets(), slots),
            sizer: Sizer::bdi(),
        }
    }

    fn locate(&self, addr: LineAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_index(addr.get());
        let tag = self.geom.tag(addr.get());
        self.engine.tags().find(set, tag).map(|w| (set, w))
    }

    /// Installs a line (shared by demand and prefetch fills).
    fn install(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
        fetch: Fetch,
    ) -> OpOutcome {
        debug_assert!(!self.contains(addr), "fill of resident line");
        let set = self.geom.set_index(addr.get());
        let tag = self.geom.tag(addr.get());

        let way = self.engine.fill_way(set);

        let mut effects = Effects::default();
        let tags = self.engine.tags();
        if tags.is_valid(set, way) {
            let (evicted, dirty) = (tags.tag(set, way), tags.is_dirty(set, way));
            effects.back_invalidations += 1;
            let inner_dirty = inner.back_invalidate(self.geom.line_addr(set, evicted));
            if inner_dirty.is_some() || dirty {
                effects.memory_writes += 1;
            }
            if E::ENABLED {
                self.engine.emit(CacheEvent::new(
                    set,
                    way,
                    EventKind::Eviction {
                        tag: evicted,
                        cause: EvictCause::Replacement,
                    },
                ));
            }
        }

        // Track compressibility of the access stream even though this
        // organization stores lines uncompressed (used to classify traces,
        // and fed to size-aware policies like CAMP as their predictor).
        let sizing = self.sizer.size(&data);
        let stored = SegmentCount::FULL; // stored uncompressed
        fetch.emit(&mut self.engine, set, way, tag, sizing, stored);
        self.engine.install(set, way, tag, (), sizing.size);
        self.payloads.put(set, way, &data);
        fetch.finish(&mut self.engine, effects)
    }
}

impl<E: EventSink> LlcOrganization for UncompressedLlc<E> {
    fn name(&self) -> &'static str {
        "uncompressed"
    }

    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn contains(&self, addr: LineAddr) -> bool {
        self.locate(addr).is_some()
    }

    fn read(&mut self, addr: LineAddr, _inner: &mut dyn InclusionAgent) -> ReadOutcome {
        match self.locate(addr) {
            Some((set, way)) => {
                self.engine.demand_hit(set, way);
                ReadOutcome {
                    kind: HitKind::Base(SegmentCount::FULL),
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
        _inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        match self.locate(addr) {
            Some((set, way)) => {
                self.engine.set_dirty(set, way);
                self.payloads.put(set, way, &data);
                let tag = self.geom.tag(addr.get());
                write_hit(&mut self.engine, set, way, tag, SegmentCount::FULL);
                OpOutcome::default()
            }
            None => writeback_miss(&mut self.engine, addr),
        }
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
        let (set, way) = self.locate(addr)?;
        Some(self.payloads.get(set, way))
    }

    fn hint_downgrade(&mut self, addr: LineAddr) {
        if let Some((set, way)) = self.locate(addr) {
            self.engine.hint_downgrade(set, way);
        }
    }

    fn stats(&self) -> &LlcStats {
        self.engine.stats()
    }

    fn compression_stats(&self) -> &CompressionStats {
        self.sizer.stats()
    }

    fn tag_latency_penalty(&self) -> u32 {
        0
    }

    fn decompression_latency(&self, _size: SegmentCount) -> u32 {
        0
    }

    fn resident_lines(&self) -> Vec<LineAddr> {
        self.engine
            .tags()
            .iter_valid()
            .map(|(set, _, tag)| self.geom.line_addr(set, tag))
            .collect()
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

    fn llc() -> UncompressedLlc {
        UncompressedLlc::new(fixtures::toy_geometry(), fixtures::toy_policy())
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut c = llc();
        let mut inner = NoInner;
        let a = LineAddr::new(5);
        assert!(!c.read(a, &mut inner).is_hit());
        c.fill(a, CacheLine::zeroed(), &mut inner);
        let out = c.read(a, &mut inner);
        assert_eq!(out.kind, HitKind::Base(SegmentCount::FULL));
        assert_eq!(c.stats().base_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().demand_fills, 1);
    }

    #[test]
    fn eviction_back_invalidates_and_writes_back_dirty() {
        // One-set cache (4 ways): fifth fill evicts the LRU line.
        let mut c = UncompressedLlc::new(CacheGeometry::new(256, 4, 64), PolicyKind::Lru);
        let mut inner = NoInner;
        for i in 0..4 {
            c.fill(LineAddr::new(i), CacheLine::zeroed(), &mut inner);
        }
        // Dirty the LRU line via an L2 writeback.
        c.writeback(
            LineAddr::new(0),
            CacheLine::from_u32_words(&[1; 16]),
            &mut inner,
        );
        let out = c.fill(LineAddr::new(9), CacheLine::zeroed(), &mut inner);
        assert_eq!(out.effects.memory_writes, 1);
        assert_eq!(out.effects.back_invalidations, 1);
        assert!(!c.contains(LineAddr::new(0)));
    }

    #[test]
    fn prefetch_fill_skips_resident_lines() {
        let mut c = llc();
        let mut inner = NoInner;
        let a = LineAddr::new(7);
        assert!(c
            .prefetch_fill(a, CacheLine::zeroed(), &mut inner)
            .is_some());
        assert!(c
            .prefetch_fill(a, CacheLine::zeroed(), &mut inner)
            .is_none());
        assert_eq!(c.stats().prefetch_fills, 1);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn no_compression_latency() {
        let c = llc();
        assert_eq!(c.tag_latency_penalty(), 0);
        assert_eq!(c.decompression_latency(SegmentCount::new(4)), 0);
    }

    #[test]
    fn inner_dirty_copy_forces_writeback_on_eviction() {
        struct DirtyInner;
        impl InclusionAgent for DirtyInner {
            fn back_invalidate(&mut self, _addr: LineAddr) -> Option<CacheLine> {
                Some(CacheLine::from_u32_words(&[9; 16]))
            }
        }
        let mut c = UncompressedLlc::new(CacheGeometry::new(256, 4, 64), PolicyKind::Lru);
        let mut inner = DirtyInner;
        for i in 0..5 {
            c.fill(LineAddr::new(i), CacheLine::zeroed(), &mut inner);
        }
        // The eviction found a dirty inner copy: memory write required.
        assert_eq!(c.stats().memory_writes, 1);
    }
}
