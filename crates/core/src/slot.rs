//! State and bookkeeping shared by the LLC organizations: the cold
//! payload array set scans never touch, the per-set occupancy counters
//! that replace whole-set rescans, and the sizing and fill core. Tags,
//! validity and dirty bits live in the engine's `bv_cache::TagArray`,
//! and most organizations' slot payload is the line's `SegmentCount`.
//!
//! The core is what every organization does around its own decisions:
//! a [`Sizer`] compresses each line once and keeps both tallies, and
//! [`Fetch`], [`prefetch_miss`], [`write_hit`] and [`writeback_miss`]
//! emit the install and writeback events and count fills, prefetch hits
//! and writebacks. Slot choice, eviction, pairing, victim insertion and
//! re-compaction stay in the organization files.

use crate::{Effects, OpOutcome};
use bv_cache::engine::SetEngine;
use bv_cache::LineAddr;
use bv_compress::{Bdi, CacheLine, CompressionStats, Compressor, EncoderStats, SegmentCount};
use bv_events::{CacheEvent, EventKind, EventSink};

/// The data of every line slot of one organization, addressed by
/// `(set, slot)` like its tag slots and kept apart from them, so set
/// scans stride over dense tags and sizes only.
///
/// Only `peek_data`, the unchanged-data writeback shortcut and
/// Base-Victim's promote/displace paths read it. Each row holds a line
/// as its eight little-endian words, so the array is allocated zeroed:
/// `vec![x; n]` asks the allocator for zeroed memory only when std can
/// see that `x` is zero, which it checks for primitive integers and
/// for arrays of at most 16 of them. A `[u8; 64]` row has 64 elements,
/// so std would write every row of a byte-row array. Slots that never
/// hold a line cost no resident memory, and building an organization
/// touches none of their pages.
#[derive(Clone, Debug)]
pub(crate) struct LinePayloads {
    slots_per_set: usize,
    lines: Vec<[u64; 8]>,
}

impl LinePayloads {
    /// Zeroed payloads for `sets` sets of `slots_per_set` slots.
    pub fn new(sets: usize, slots_per_set: usize) -> LinePayloads {
        LinePayloads {
            slots_per_set,
            lines: vec![[0; 8]; sets * slots_per_set],
        }
    }

    fn index(&self, set: usize, slot: usize) -> usize {
        debug_assert!(slot < self.slots_per_set);
        set * self.slots_per_set + slot
    }

    /// The data stored in `(set, slot)`.
    pub fn get(&self, set: usize, slot: usize) -> CacheLine {
        CacheLine::from_u64_words(&self.lines[self.index(set, slot)])
    }

    /// Whether `(set, slot)` already holds `data`.
    pub fn holds(&self, set: usize, slot: usize, data: &CacheLine) -> bool {
        self.lines[self.index(set, slot)] == data.u64_array()
    }

    /// Stores `data` in `(set, slot)`.
    pub fn put(&mut self, set: usize, slot: usize, data: &CacheLine) {
        let i = self.index(set, slot);
        self.lines[i] = data.u64_array();
    }
}

/// One set's occupancy, kept up to date at every install, resize and
/// eviction instead of being recounted by walking the set: `units` of
/// data space in use (segments for VSC, sub-blocks for DCC) and resident
/// `lines`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Occupancy {
    pub units: u32,
    pub lines: u32,
}

impl Occupancy {
    /// Accounts for a line of `units` entering the set.
    pub fn add(&mut self, units: usize) {
        self.units += units as u32;
        self.lines += 1;
    }

    /// Accounts for a line of `units` leaving the set.
    pub fn remove(&mut self, units: usize) {
        self.units -= units as u32;
        self.lines -= 1;
    }

    /// Accounts for a resident line changing from `old` to `new` units.
    pub fn resize(&mut self, old: usize, new: usize) {
        self.units = self.units + new as u32 - old as u32;
    }
}

/// Samples a set's resident lines at every fill: the effective-capacity
/// ratio of the decoupled organizations (VSC, DCC).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CapacitySampler {
    samples: u64,
    total: u64,
}

impl CapacitySampler {
    /// Records the occupancy of the set a line was just installed in.
    pub fn sample(&mut self, set: Occupancy) {
        self.samples += 1;
        self.total += u64::from(set.lines);
    }

    /// Average resident lines per set over `ways` physical ways; 1.0
    /// before any sample.
    pub fn ratio(&self, ways: usize) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        self.total as f64 / self.samples as f64 / ways as f64
    }
}

/// A line's compressed size and the encoder class that produced it
/// (`u8::MAX` when the algorithm exposes no classes), from one pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sizing {
    pub size: SegmentCount,
    pub encoder: u8,
}

/// One organization's compressor with the two tallies its sized lines
/// feed: the encoder classes selected and the compressed-size
/// distribution. The four BDI organizations call BDI statically (boxing
/// the zero-sized `Bdi` allocates nothing); Base-Victim's
/// `Sizer<dyn Compressor>` takes any algorithm for the compressor
/// ablation.
#[derive(Debug)]
pub(crate) struct Sizer<C: Compressor + ?Sized = Bdi> {
    compressor: Box<C>,
    encoders: EncoderStats,
    compression: CompressionStats,
}

impl Sizer {
    /// A BDI sizer with empty tallies.
    pub fn bdi() -> Sizer {
        Sizer::new(Box::new(Bdi::new()))
    }
}

impl<C: Compressor + ?Sized> Sizer<C> {
    /// A sizer over `compressor` with empty tallies.
    pub fn new(compressor: Box<C>) -> Sizer<C> {
        Sizer {
            compressor,
            encoders: EncoderStats::new(),
            compression: CompressionStats::default(),
        }
    }

    /// The compressor, for its name and decompression latency.
    pub fn compressor(&self) -> &C {
        &self.compressor
    }

    /// The distribution of sizes recorded at fill and writeback time.
    pub fn stats(&self) -> &CompressionStats {
        &self.compression
    }

    /// Per-encoding selection counts.
    pub fn encoder_counts(&self) -> Vec<(&'static str, u64)> {
        self.encoders.counts(self.compressor())
    }

    /// Sizes an incoming line in one compressor pass and records both
    /// tallies; the encoder class is there for the compression event.
    pub fn size(&mut self, data: &CacheLine) -> Sizing {
        let (size, class) = self.encoders.record(&*self.compressor, data);
        self.compression.record(size);
        Sizing {
            size,
            encoder: class.map_or(u8::MAX, |c| c as u8),
        }
    }

    /// Sizes data written over a resident line whose size is `cached`.
    /// Unchanged data (a clean writeback) keeps `cached` without calling
    /// the compressor: the size is a pure function of the data. Records
    /// the size distribution either way.
    pub fn resize(
        &mut self,
        unchanged: bool,
        cached: SegmentCount,
        data: &CacheLine,
    ) -> SegmentCount {
        let size = if unchanged { cached } else { self.encode(data) };
        self.compression.record(size);
        size
    }

    /// Sizes a line, recording only its encoder class (a displaced line
    /// that picked up fresher inner data).
    pub fn encode(&mut self, data: &CacheLine) -> SegmentCount {
        self.encoders.record(&*self.compressor, data).0
    }
}

/// Why a line is installed from memory: a demand miss or a prefetch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Fetch {
    Demand,
    Prefetch,
}

impl Fetch {
    /// Emits an install's two events at `(set, way)`: the compression
    /// outcome, then the fill of `tag` holding `stored` segments (the
    /// uncompressed organization stores every line full).
    pub fn emit<S, E: EventSink>(
        self,
        engine: &mut SetEngine<S, E>,
        set: usize,
        way: usize,
        tag: u64,
        sizing: Sizing,
        stored: SegmentCount,
    ) {
        if E::ENABLED {
            let compression = EventKind::Compression {
                encoder: sizing.encoder,
                size: sizing.size.get(),
            };
            engine.emit(CacheEvent::new(set, way, compression));
            let size = stored.get();
            let fill = match self {
                Fetch::Demand => EventKind::Fill { tag, size },
                Fetch::Prefetch => EventKind::PrefetchFill { tag, size },
            };
            engine.emit(CacheEvent::new(set, way, fill));
        }
    }

    /// Counts a finished install and folds its side effects into the
    /// engine's counters.
    pub fn finish<S, E: EventSink>(
        self,
        engine: &mut SetEngine<S, E>,
        effects: Effects,
    ) -> OpOutcome {
        let stats = engine.stats_mut();
        match self {
            Fetch::Demand => stats.demand_fills += 1,
            Fetch::Prefetch => stats.prefetch_fills += 1,
        }
        engine.absorb(effects);
        OpOutcome { effects }
    }
}

/// Whether a prefetch must install its line: a `resident` line counts a
/// prefetch hit instead.
pub(crate) fn prefetch_miss<S, E: EventSink>(engine: &mut SetEngine<S, E>, resident: bool) -> bool {
    if resident {
        engine.stats_mut().prefetch_hits += 1;
    }
    !resident
}

/// Counts a writeback that hit `(set, way)` and emits its event: `tag`
/// now holds dirty data of `size`.
pub(crate) fn write_hit<S, E: EventSink>(
    engine: &mut SetEngine<S, E>,
    set: usize,
    way: usize,
    tag: u64,
    size: SegmentCount,
) {
    engine.stats_mut().writeback_hits += 1;
    if E::ENABLED {
        let size = size.get();
        engine.emit(CacheEvent::new(
            set,
            way,
            EventKind::Writeback { tag, size },
        ));
    }
}

/// A writeback to a line the LLC does not hold, impossible under strict
/// inclusion: the data goes straight to memory.
pub(crate) fn writeback_miss<S, E: EventSink>(
    engine: &mut SetEngine<S, E>,
    addr: LineAddr,
) -> OpOutcome {
    debug_assert!(false, "L2 writeback to non-resident LLC line {addr:?}");
    let effects = Effects {
        memory_writes: 1,
        ..Effects::default()
    };
    engine.stats_mut().writeback_misses += 1;
    engine.absorb(effects);
    OpOutcome { effects }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_start_zeroed_and_keep_each_slot_apart() {
        let mut p = LinePayloads::new(2, 2);
        assert_eq!(p.get(1, 1), CacheLine::zeroed());
        let line = CacheLine::from_u32_words(&[7; 16]);
        p.put(1, 0, &line);
        assert_eq!(p.get(1, 0), line);
        assert!(p.holds(1, 0, &line));
        assert!(!p.holds(0, 1, &line));
        assert_eq!(p.get(0, 1), CacheLine::zeroed());
        assert_eq!(p.get(1, 1), CacheLine::zeroed());
    }

    #[test]
    fn occupancy_counts_units_and_lines() {
        let mut o = Occupancy::default();
        o.add(5);
        o.add(16);
        o.resize(5, 7);
        assert_eq!(
            o,
            Occupancy {
                units: 23,
                lines: 2
            }
        );
        o.remove(16);
        o.resize(7, 2);
        assert_eq!(o, Occupancy { units: 2, lines: 1 });
    }
}
