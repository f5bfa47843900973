//! A functional model of the Decoupled Compressed Cache (DCC).
//!
//! Sardashti & Wood (MICRO 2013) organize the compressed cache around
//! **super-blocks**: one tag covers four consecutive cache lines, and the
//! data array is managed as 16-byte sub-blocks reached through
//! back-pointers, so a line's sub-blocks need not be contiguous and no
//! re-compaction is ever required (fixing VSC's first drawback — Section
//! II of the Base-Victim paper).
//!
//! The Base-Victim paper declines an IPC comparison against DCC for the
//! same reason as VSC — the data-array changes (multi-sub-bank activation,
//! extra indirection latency) make access latency incomparable — so, like
//! [`VscLlc`](crate::VscLlc), this is a *functional* model: hits, misses,
//! effective capacity, and DCC's remaining drawbacks (coarse super-block
//! replacement that can evict several useful lines at once, and tag reach
//! wasted on sparse super-blocks).

use crate::slot::{
    prefetch_miss, write_hit, writeback_miss, CapacitySampler, Fetch, LinePayloads, Occupancy,
    Sizer,
};
use crate::{Effects, HitKind, InclusionAgent, LlcOrganization, LlcStats, OpOutcome, ReadOutcome};
use bv_cache::engine::{SetEngine, SlotMeta};
use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
use bv_compress::{CacheLine, CompressionStats, Compressor, SegmentCount};
use bv_events::{CacheEvent, EventKind, EventSink, EvictCause, NoEventSink};

/// Lines per super-block (DCC uses 4).
const SUPER_BLOCK_LINES: usize = 4;
/// Sub-block granularity in bytes (DCC manages data at 16 B).
const SUB_BLOCK_BYTES: usize = 16;
/// Sub-blocks per uncompressed line.
const SUB_BLOCKS_PER_LINE: usize = 64 / SUB_BLOCK_BYTES;
/// Address bits that select a member within its super-block.
const MEMBER_BITS: u32 = SUPER_BLOCK_LINES.trailing_zeros();

/// One member line of a super-block: its state bits and compressed
/// size. The member's address follows from the super-block tag and its
/// index; its data lives in [`DccLlc`]'s payload array.
#[derive(Clone, Copy, Debug)]
struct Member {
    valid: bool,
    dirty: bool,
    size: SegmentCount,
}

impl Member {
    const EMPTY: Member = Member {
        valid: false,
        dirty: false,
        size: SegmentCount::FULL,
    };
}

/// Sub-blocks a line of `size` occupies.
fn sub_blocks(size: SegmentCount) -> usize {
    size.bytes().div_ceil(SUB_BLOCK_BYTES)
}

/// Metadata of one super-block tag: up to four co-resident neighbor
/// lines (index = line address & 3). Validity and the super-block tag
/// live in the engine slot.
#[derive(Clone, Copy, Debug)]
struct SuperLines {
    lines: [Member; SUPER_BLOCK_LINES],
}

impl SlotMeta for SuperLines {
    fn empty() -> SuperLines {
        SuperLines {
            lines: [Member::EMPTY; SUPER_BLOCK_LINES],
        }
    }
}

impl SuperLines {
    /// The block's resident members as `(index, member)` pairs.
    fn resident(&self) -> impl Iterator<Item = (usize, &Member)> {
        self.lines.iter().enumerate().filter(|(_, l)| l.valid)
    }
}

/// Functional DCC: super-block tags over a 16-byte sub-block pool.
///
/// The delta over the set engine is super-block grouping: an engine slot
/// is a *super-block* tag covering four neighbor lines, sets are indexed
/// by super-block address (`sb % sets`, not geometry bit-extraction), and
/// capacity is accounted in 16 B sub-blocks against a per-set pool.
/// Each set's pool use and resident-line count are counters updated
/// wherever a member changes, never recounted from the tags.
///
/// # Examples
///
/// ```
/// use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
/// use bv_compress::CacheLine;
/// use bv_core::{DccLlc, LlcOrganization, NoInner};
///
/// let mut dcc = DccLlc::new(CacheGeometry::new(4096, 4, 64), PolicyKind::Lru);
/// let mut inner = NoInner;
/// dcc.fill(LineAddr::new(8), CacheLine::zeroed(), &mut inner);
/// assert!(dcc.contains(LineAddr::new(8)));
/// ```
#[derive(Debug)]
pub struct DccLlc<E: EventSink = NoEventSink> {
    geom: CacheGeometry,
    /// `sets x 2*ways` super-block tags (DCC doubles tag reach like the
    /// other compressed organizations; each tag covers 4 lines).
    engine: SetEngine<SuperLines, E>,
    /// Per-set sub-blocks in use and resident lines.
    occupancy: Vec<Occupancy>,
    /// Member line data; member `m` of tag slot `t` is slot
    /// `t * 4 + m` of its set.
    payloads: LinePayloads,
    sizer: Sizer,
    /// Evictions that removed more than one valid line (DCC's coarse
    /// replacement drawback).
    multi_line_evictions: u64,
    /// Resident lines of the filled set, sampled at every fill.
    capacity: CapacitySampler,
}

impl DccLlc {
    /// Engine tag slots per physical way: two super-block tags per data way.
    pub const SLOTS_PER_WAY: usize = 2;

    /// Creates an empty functional DCC over the given physical geometry.
    #[must_use]
    pub fn new(geom: CacheGeometry, policy: PolicyKind) -> DccLlc {
        DccLlc::with_sink(geom, policy, NoEventSink)
    }
}

impl<E: EventSink> DccLlc<E> {
    /// Creates an empty functional DCC that reports cache events to
    /// `sink`. [`DccLlc::new`] routes here with [`NoEventSink`], which
    /// compiles the event path out entirely.
    #[must_use]
    pub fn with_sink(geom: CacheGeometry, policy: PolicyKind, sink: E) -> DccLlc<E> {
        let tags = geom.ways() * DccLlc::SLOTS_PER_WAY;
        DccLlc {
            geom,
            engine: SetEngine::with_sink(geom.sets(), tags, policy, sink),
            occupancy: vec![Occupancy::default(); geom.sets()],
            payloads: LinePayloads::new(geom.sets(), tags * SUPER_BLOCK_LINES),
            sizer: Sizer::bdi(),
            multi_line_evictions: 0,
            capacity: CapacitySampler::default(),
        }
    }

    /// Pool capacity per set, in 16 B sub-blocks.
    fn pool_sub_blocks(&self) -> usize {
        self.geom.ways() * SUB_BLOCKS_PER_LINE
    }

    /// Super-blocks are indexed by the line address with the low two bits
    /// (member index) stripped; sets are selected by super-block address
    /// so neighbors share a set. The set count is a power of two
    /// ([`CacheGeometry::check`]), so `sb % sets` and `sb / sets` are a
    /// mask and a shift.
    fn locate_super(&self, addr: LineAddr) -> (usize, u64, usize) {
        let sb_addr = addr.get() >> MEMBER_BITS;
        let set = (sb_addr & (self.geom.sets() as u64 - 1)) as usize;
        let tag = sb_addr >> self.geom.index_bits();
        let member = (addr.get() & (SUPER_BLOCK_LINES as u64 - 1)) as usize;
        (set, tag, member)
    }

    fn find(&self, addr: LineAddr) -> Option<(usize, usize, usize)> {
        let (set, tag, member) = self.locate_super(addr);
        self.engine.find(set, tag).map(|t| (set, t, member))
    }

    fn free_sub_blocks(&self, set: usize) -> usize {
        self.pool_sub_blocks() - self.occupancy[set].units as usize
    }

    /// The occupancy of `set` counted member by member: the reference
    /// [`assert_invariants`](LlcOrganization::assert_invariants) checks
    /// the maintained counters against.
    fn rescan(&self, set: usize) -> Occupancy {
        let mut occ = Occupancy::default();
        for t in 0..self.engine.ways() {
            let block = self.engine.slot(set, t);
            if block.valid {
                for (_, line) in block.meta.resident() {
                    occ.add(sub_blocks(line.size));
                }
            }
        }
        occ
    }

    /// Rebuilds a member line's address from its super-block coordinates.
    fn member_addr(&self, set: usize, sb_tag: u64, member: usize) -> LineAddr {
        let sb_addr = (sb_tag << self.geom.index_bits()) | set as u64;
        LineAddr::new(sb_addr << MEMBER_BITS | member as u64)
    }

    fn evict_super(
        &mut self,
        set: usize,
        t: usize,
        inner: &mut dyn InclusionAgent,
        effects: &mut Effects,
    ) {
        let block = self.engine.slot(set, t).copied();
        if block.meta.resident().nth(1).is_some() {
            self.multi_line_evictions += 1;
        }
        for (m, line) in block.meta.resident() {
            let line_addr = self.member_addr(set, block.tag, m);
            effects.back_invalidations += 1;
            let inner_dirty = inner.back_invalidate(line_addr);
            if inner_dirty.is_some() || line.dirty {
                effects.memory_writes += 1;
            }
            self.occupancy[set].remove(sub_blocks(line.size));
        }
        // The whole super-block leaves under pool pressure — DCC's
        // coarse-replacement drawback, visible as one size-pressure
        // eviction per displaced super-block tag.
        self.engine.invalidate_as(set, t, EvictCause::SizePressure);
    }

    /// Evicts one member line from super-block `t` (never `protect`),
    /// largest footprint first so pressure resolves in the fewest line
    /// losses. Returns `false` when no member is evictable.
    fn evict_member(
        &mut self,
        set: usize,
        t: usize,
        protect: Option<usize>,
        inner: &mut dyn InclusionAgent,
        effects: &mut Effects,
    ) -> bool {
        let block = self.engine.slot(set, t).copied();
        let Some((m, line)) = block
            .meta
            .resident()
            .filter(|&(m, _)| Some(m) != protect)
            .max_by_key(|&(m, l)| (l.size.get(), m))
        else {
            return false;
        };
        let line_addr = self.member_addr(set, block.tag, m);
        effects.back_invalidations += 1;
        let inner_dirty = inner.back_invalidate(line_addr);
        if inner_dirty.is_some() || line.dirty {
            effects.memory_writes += 1;
        }
        if E::ENABLED {
            self.engine.emit(CacheEvent::new(
                set,
                t,
                EventKind::Eviction {
                    tag: block.tag,
                    cause: EvictCause::SizePressure,
                },
            ));
        }
        self.occupancy[set].remove(sub_blocks(line.size));
        self.engine.slot_mut(set, t).meta.lines[m] = Member::EMPTY;
        true
    }

    /// Frees pool space and/or a tag for an incoming line of `needed`
    /// sub-blocks, evicting whole super-blocks in replacement order. The
    /// `home` super-block is spared whole-block eviction; when it alone
    /// exhausts the pool (narrow geometries: four members can need more
    /// sub-blocks than the set owns), its members are shed one line at a
    /// time instead, never touching `protect` (the member a writeback is
    /// growing in place).
    fn make_room(
        &mut self,
        set: usize,
        needed: usize,
        home: Option<usize>,
        protect: Option<usize>,
        inner: &mut dyn InclusionAgent,
        effects: &mut Effects,
    ) {
        loop {
            let has_tag = home.is_some() || self.engine.first_invalid(set).is_some();
            if self.free_sub_blocks(set) >= needed && has_tag {
                return;
            }
            let victim = (0..self.engine.ways())
                .filter(|&t| self.engine.slot(set, t).valid && Some(t) != home)
                .max_by_key(|&t| self.engine.eviction_rank(set, t));
            match victim {
                Some(t) => self.evict_super(set, t, inner, effects),
                None => {
                    let t = home.expect("over-capacity set has a victim");
                    if !self.evict_member(set, t, protect, inner, effects) {
                        // Only the protected member remains; a single
                        // line always fits the per-set pool.
                        return;
                    }
                }
            }
        }
    }

    fn install(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
        fetch: Fetch,
    ) -> OpOutcome {
        debug_assert!(!self.contains(addr), "fill of resident line");
        let mut effects = Effects::default();
        let (set, tag, member) = self.locate_super(addr);
        let sizing = self.sizer.size(&data);
        let size = sizing.size;
        let needed = sub_blocks(size);

        // An existing super-block for this neighbor group is "home".
        let home = self.engine.find(set, tag);
        self.make_room(set, needed, home, None, inner, &mut effects);

        // Home was exempted from whole-block eviction in make_room, so
        // it is still valid here; otherwise claim a free tag.
        let t = home.unwrap_or_else(|| {
            self.engine
                .first_invalid(set)
                .expect("make_room guarantees a free tag")
        });
        fetch.emit(&mut self.engine, set, t, tag, sizing, size);
        let mut meta = *self.engine.slot(set, t).meta;
        meta.lines[member] = Member {
            valid: true,
            dirty: false,
            size,
        };
        self.engine.install(set, t, tag, meta, size);
        self.payloads
            .put(set, t * SUPER_BLOCK_LINES + member, &data);
        self.occupancy[set].add(needed);
        self.capacity.sample(self.occupancy[set]);
        fetch.finish(&mut self.engine, effects)
    }

    /// Evictions that removed more than one valid line at once.
    #[must_use]
    pub fn multi_line_evictions(&self) -> u64 {
        self.multi_line_evictions
    }

    /// Clears the capacity accumulators (for steady-state measurement).
    pub fn reset_capacity_samples(&mut self) {
        self.capacity = CapacitySampler::default();
    }

    /// Average resident lines per set over the physical way count (1.0 =
    /// no benefit; DCC approaches ~1.8x on compressible spatial data).
    #[must_use]
    pub fn effective_capacity_ratio(&self) -> f64 {
        self.capacity.ratio(self.geom.ways())
    }
}

impl<E: EventSink> LlcOrganization for DccLlc<E> {
    fn name(&self) -> &'static str {
        "dcc"
    }

    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn contains(&self, addr: LineAddr) -> bool {
        self.find(addr)
            .is_some_and(|(set, t, m)| self.engine.slot(set, t).meta.lines[m].valid)
    }

    fn read(&mut self, addr: LineAddr, _inner: &mut dyn InclusionAgent) -> ReadOutcome {
        if let Some((set, t, m)) = self.find(addr) {
            let line = &self.engine.slot(set, t).meta.lines[m];
            if line.valid {
                let size = line.size;
                self.engine.demand_hit(set, t);
                return ReadOutcome {
                    kind: HitKind::Base(size),
                    effects: Effects::default(),
                };
            }
        }
        let (set, _, _) = self.locate_super(addr);
        self.engine.demand_miss(set);
        ReadOutcome {
            kind: HitKind::Miss,
            effects: Effects::default(),
        }
    }

    fn writeback(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        let Some((set, t, m)) = self
            .find(addr)
            .filter(|&(set, t, m)| self.engine.slot(set, t).meta.lines[m].valid)
        else {
            return writeback_miss(&mut self.engine, addr);
        };
        let mut effects = Effects::default();
        let slot = t * SUPER_BLOCK_LINES + m;
        let old = self.engine.slot(set, t).meta.lines[m].size;
        let unchanged = self.payloads.holds(set, slot, &data);
        let new_size = self.sizer.resize(unchanged, old, &data);
        if new_size > old {
            let delta = sub_blocks(new_size) - sub_blocks(old);
            if self.free_sub_blocks(set) < delta {
                self.make_room(set, delta, Some(t), Some(m), inner, &mut effects);
            }
        }
        let (_, sb_tag, _) = self.locate_super(addr);
        write_hit(&mut self.engine, set, t, sb_tag, new_size);
        self.payloads.put(set, slot, &data);
        let line = &mut self.engine.slot_mut(set, t).meta.lines[m];
        line.dirty = true;
        line.size = new_size;
        self.occupancy[set].resize(sub_blocks(old), sub_blocks(new_size));
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

    fn stats(&self) -> &LlcStats {
        self.engine.stats()
    }

    fn compression_stats(&self) -> &CompressionStats {
        self.sizer.stats()
    }

    fn tag_latency_penalty(&self) -> u32 {
        // DCC's tag-data indirection costs extra pipeline stages on top
        // of the doubled tags (Section II); functional model only.
        2
    }

    fn decompression_latency(&self, size: SegmentCount) -> u32 {
        self.sizer.compressor().decompression_latency(size, 2)
    }

    fn peek_data(&self, addr: LineAddr) -> Option<CacheLine> {
        let (set, t, m) = self.find(addr)?;
        let valid = self.engine.slot(set, t).meta.lines[m].valid;
        valid.then(|| self.payloads.get(set, t * SUPER_BLOCK_LINES + m))
    }

    fn resident_lines(&self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for (set, _, block) in self.engine.iter_valid() {
            for (m, _) in block.meta.resident() {
                out.push(self.member_addr(set, block.tag, m));
            }
        }
        out
    }

    /// Panics if any set exceeds its sub-block pool, or its maintained
    /// occupancy differs from a rescan.
    fn assert_invariants(&self) {
        for set in 0..self.geom.sets() {
            let occ = self.rescan(set);
            assert_eq!(
                self.occupancy[set], occ,
                "set {set} occupancy counters drifted"
            );
            assert!(
                occ.units as usize <= self.pool_sub_blocks(),
                "set {set} over pool capacity"
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

    fn toy() -> DccLlc {
        DccLlc::new(fixtures::toy_geometry(), fixtures::toy_policy())
    }

    /// Four consecutive lines share one super-block and one set.
    fn sb_addr(set: u64, sb: u64, member: u64) -> LineAddr {
        LineAddr::new((sb * 4 + set) * 4 + member) // 4 sets
    }

    #[test]
    fn neighbors_share_a_super_block_tag() {
        let mut dcc = toy();
        let mut inner = NoInner;
        for m in 0..4 {
            dcc.fill(sb_addr(0, 0, m), compressible(m), &mut inner);
        }
        // All four lines resident, but only one tag consumed: seven more
        // tag slots remain for other super-blocks.
        for m in 0..4 {
            assert!(dcc.contains(sb_addr(0, 0, m)));
        }
        assert_eq!(dcc.resident_lines().len(), 4);
        dcc.assert_invariants();
    }

    #[test]
    fn spatial_compressible_data_approaches_2x_capacity() {
        let mut dcc = toy();
        let mut inner = NoInner;
        // 8 super-blocks x 4 lines of 5-segment data in one set: 32 lines
        // need 32 x 2 sub-blocks = 64... pool is 16 sub-blocks per way x 4
        // = 16 lines worth. 5-segment lines take 2 sub-blocks (20 B), so
        // 8 lines per way fit: 2x the uncompressed 4.
        let mut resident = 0;
        for sb in 0..8u64 {
            for m in 0..4 {
                dcc.fill(sb_addr(0, sb, m), compressible(sb * 4 + m), &mut inner);
            }
        }
        for sb in 0..8u64 {
            for m in 0..4 {
                if dcc.contains(sb_addr(0, sb, m)) {
                    resident += 1;
                }
            }
        }
        assert!(
            resident >= 8,
            "expected >= 2x capacity, got {resident} lines"
        );
        dcc.assert_invariants();
    }

    #[test]
    fn super_block_eviction_removes_multiple_lines() {
        let mut dcc = toy();
        let mut inner = NoInner;
        for m in 0..4 {
            dcc.fill(sb_addr(1, 0, m), incompressible(m), &mut inner);
        }
        // Fill incompressible super-blocks until the first one is evicted.
        for sb in 1..4u64 {
            dcc.fill(sb_addr(1, sb, 0), incompressible(10 + sb), &mut inner);
        }
        assert!(
            dcc.multi_line_evictions() >= 1,
            "coarse replacement must evict grouped lines"
        );
        dcc.assert_invariants();
    }

    #[test]
    fn growth_makes_room_without_relocating() {
        let mut dcc = toy();
        let mut inner = NoInner;
        // Two full super-blocks of 5-segment lines: 8 lines x 2 sub-blocks
        // fill the 16-sub-block pool exactly.
        for sb in 0..2u64 {
            for m in 0..4 {
                dcc.fill(sb_addr(2, sb, m), compressible(sb * 4 + m), &mut inner);
            }
        }
        // Grow one line to full size: room is made by evicting other
        // super-blocks, never by re-compacting (no recompaction counter
        // exists — that is the point of DCC).
        dcc.writeback(sb_addr(2, 0, 0), incompressible(99), &mut inner);
        assert!(dcc.contains(sb_addr(2, 0, 0)));
        dcc.assert_invariants();
    }

    #[test]
    fn read_hit_miss_accounting() {
        let mut dcc = toy();
        let mut inner = NoInner;
        let a = sb_addr(3, 0, 1);
        assert!(!dcc.read(a, &mut inner).is_hit());
        dcc.fill(a, compressible(1), &mut inner);
        assert!(dcc.read(a, &mut inner).is_hit());
        // A different member of the same super-block is NOT resident.
        assert!(!dcc.read(sb_addr(3, 0, 2), &mut inner).is_hit());
        assert_eq!(dcc.stats().base_hits, 1);
        assert_eq!(dcc.stats().read_misses, 2);
    }
}
