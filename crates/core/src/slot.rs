//! Per-line state shared by the LLC organizations: the hot tag-slot
//! metadata the set scans read, the cold payload array they never touch,
//! and the per-set occupancy counters that replace whole-set rescans.

use bv_cache::engine::SlotMeta;
use bv_cache::{CacheGeometry, LineAddr};
use bv_compress::{CacheLine, SegmentCount, CACHE_LINE_BYTES};

/// Per-line metadata stored in a [`SetEngine`](bv_cache::engine::SetEngine)
/// slot: dirty bit and compressed size. The engine owns validity and the
/// tag; the line's data lives in the organization's [`LinePayloads`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct LineMeta {
    pub dirty: bool,
    pub size: SegmentCount,
}

impl SlotMeta for LineMeta {
    fn empty() -> LineMeta {
        LineMeta {
            dirty: false,
            size: SegmentCount::FULL,
        }
    }
}

/// Reconstructs a line address from its geometry-extracted parts.
pub(crate) fn line_addr(geom: &CacheGeometry, set: usize, tag: u64) -> LineAddr {
    LineAddr::new((tag << geom.index_bits()) | set as u64)
}

/// The data of every line slot of one organization, addressed by
/// `(set, slot)` like its tag slots and kept apart from them, so set
/// scans stride over dense tags and sizes only.
///
/// Only `peek_data`, the unchanged-data writeback shortcut and
/// Base-Victim's promote/displace paths read it. The array is allocated
/// zeroed (`vec![[0; 64]; n]` takes the calloc path), so slots that
/// never hold a line cost no resident memory.
#[derive(Clone, Debug)]
pub(crate) struct LinePayloads {
    slots_per_set: usize,
    lines: Vec<[u8; CACHE_LINE_BYTES]>,
}

impl LinePayloads {
    /// Zeroed payloads for `sets` sets of `slots_per_set` slots.
    pub fn new(sets: usize, slots_per_set: usize) -> LinePayloads {
        LinePayloads {
            slots_per_set,
            lines: vec![[0; CACHE_LINE_BYTES]; sets * slots_per_set],
        }
    }

    fn index(&self, set: usize, slot: usize) -> usize {
        debug_assert!(slot < self.slots_per_set);
        set * self.slots_per_set + slot
    }

    /// The data stored in `(set, slot)`.
    pub fn get(&self, set: usize, slot: usize) -> CacheLine {
        CacheLine::from_bytes(self.lines[self.index(set, slot)])
    }

    /// Whether `(set, slot)` already holds `data`.
    pub fn holds(&self, set: usize, slot: usize, data: &CacheLine) -> bool {
        self.lines[self.index(set, slot)] == *data.as_bytes()
    }

    /// Stores `data` in `(set, slot)`.
    pub fn put(&mut self, set: usize, slot: usize, data: &CacheLine) {
        let i = self.index(set, slot);
        self.lines[i] = *data.as_bytes();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_roundtrips_through_tag() {
        let geom = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
        let addr = LineAddr::new(0xdead_beef);
        let set = geom.set_index(addr.get());
        let tag = geom.tag(addr.get());
        assert_eq!(line_addr(&geom, set, tag), addr);
    }

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
