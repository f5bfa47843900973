//! A concrete tag-only cache, used for the L1 and L2 levels.

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::replacement::{Policy, PolicyKind, ReplacementPolicy};
use crate::stats::CacheStats;
use crate::tags::TagArray;

/// A line evicted from a cache: its address and whether it needs a
/// writeback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line's address.
    pub addr: LineAddr,
    /// Whether the line was modified (requires a writeback).
    pub dirty: bool,
}

/// An uncompressed set-associative cache that keeps tags, dirty bits and
/// a pluggable replacement policy, but no data.
///
/// Nothing ever inspects the data of an L1 or L2 line, so none is
/// stored: a dirty line's contents are read from the memory image when
/// it leaves the core (the caller's job), and a clean line's contents are
/// never observed. Tags and dirty bits live in a [`TagArray`], the same
/// store the LLC set engine uses.
///
/// This type deliberately separates *lookup* ([`probe`](BasicCache::probe),
/// which does not touch replacement state) from *access*
/// ([`read`](BasicCache::read) / [`write`](BasicCache::write), which do),
/// so callers can model tag checks without perturbing recency.
///
/// # Examples
///
/// ```
/// use bv_cache::{BasicCache, CacheGeometry, LineAddr, PolicyKind};
///
/// let mut cache = BasicCache::new(CacheGeometry::new(4096, 4, 64), PolicyKind::Lru);
/// let a = LineAddr::new(1);
/// assert!(!cache.read(a));            // miss
/// cache.fill(a);
/// assert!(cache.read(a));             // hit
/// assert_eq!(cache.stats().read_misses, 1);
/// assert_eq!(cache.stats().read_hits, 1);
/// ```
#[derive(Debug)]
pub struct BasicCache {
    geom: CacheGeometry,
    tags: TagArray,
    policy: Policy,
    stats: CacheStats,
}

impl BasicCache {
    /// Creates an empty cache with the given geometry and policy. A
    /// geometry never exceeds [`MAX_WAYS`](crate::MAX_WAYS), so each set's
    /// validity fits one `u64` mask.
    #[must_use]
    pub fn new(geom: CacheGeometry, policy: PolicyKind) -> BasicCache {
        let sets = geom.sets();
        let ways = geom.ways();
        BasicCache {
            geom,
            tags: TagArray::new(sets, ways),
            policy: policy.instantiate(sets, ways),
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_range(&self, addr: LineAddr) -> (usize, u64) {
        let set = self.geom.set_index(addr.get());
        let tag = self.geom.tag(addr.get());
        (set, tag)
    }

    /// Looks up a line without modifying replacement state or statistics.
    /// Returns the way index on presence.
    #[must_use]
    pub fn probe(&self, addr: LineAddr) -> Option<usize> {
        let (set, tag) = self.set_range(addr);
        self.tags.find(set, tag)
    }

    /// Performs a demand read. Returns `true` on hit (updating recency) and
    /// `false` on miss (the caller is responsible for the fill).
    pub fn read(&mut self, addr: LineAddr) -> bool {
        let (set, tag) = self.set_range(addr);
        match self.tags.find(set, tag) {
            Some(way) => {
                self.policy.on_hit(set, way);
                self.stats.read_hits += 1;
                true
            }
            None => {
                self.policy.on_miss(set);
                self.stats.read_misses += 1;
                false
            }
        }
    }

    /// Performs a demand write. On hit, marks the line dirty; on miss
    /// returns `false` (write-allocate is the caller's job).
    pub fn write(&mut self, addr: LineAddr) -> bool {
        let (set, tag) = self.set_range(addr);
        match self.tags.find(set, tag) {
            Some(way) => {
                self.policy.on_hit(set, way);
                self.tags.set_dirty(set, way);
                self.stats.write_hits += 1;
                true
            }
            None => {
                self.policy.on_miss(set);
                self.stats.write_misses += 1;
                false
            }
        }
    }

    /// Installs a clean line, evicting if the set is full (a later
    /// [`write`](BasicCache::write) dirties it). Returns the eviction (if
    /// any) so the caller can propagate writebacks or victim-cache
    /// insertions.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (fills must be preceded by a
    /// miss).
    pub fn fill(&mut self, addr: LineAddr) -> Option<Eviction> {
        assert!(
            self.probe(addr).is_none(),
            "fill of already-present line {addr:?}"
        );
        let (set, tag) = self.set_range(addr);
        self.stats.fills += 1;

        let way = match self.tags.first_free(set) {
            Some(way) => way,
            None => self.policy.victim(set),
        };

        let evicted = self.tags.is_valid(set, way).then(|| Eviction {
            addr: self.geom.line_addr(set, self.tags.tag(set, way)),
            dirty: self.tags.is_dirty(set, way),
        });
        if let Some(ev) = evicted {
            self.stats.evictions += 1;
            if ev.dirty {
                self.stats.writebacks += 1;
            }
        }

        self.tags.insert(set, way, tag);
        self.policy.on_fill(set, way);
        evicted
    }

    /// Removes a line (back-invalidation from an inclusive outer level).
    /// Returns the eviction record if the line was present, so a dirty
    /// copy can be written back.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<Eviction> {
        let (set, tag) = self.set_range(addr);
        let way = self.tags.find(set, tag)?;
        let ev = Eviction {
            addr,
            dirty: self.tags.is_dirty(set, way),
        };
        self.tags.clear(set, way);
        self.policy.on_invalidate(set, way);
        self.stats.back_invalidations += 1;
        Some(ev)
    }

    /// Whether a resident line is dirty.
    #[must_use]
    pub fn is_dirty(&self, addr: LineAddr) -> Option<bool> {
        let (set, tag) = self.set_range(addr);
        let way = self.tags.find(set, tag)?;
        Some(self.tags.is_dirty(set, way))
    }

    /// Iterates over all resident line addresses (for inclusion checks).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags
            .iter_valid()
            .map(|(set, _, tag)| self.geom.line_addr(set, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> BasicCache {
        // 4 sets x 2 ways.
        BasicCache::new(CacheGeometry::new(512, 2, 64), PolicyKind::Lru)
    }

    fn addr_in_set(set: u64, k: u64) -> LineAddr {
        LineAddr::new(set + 4 * k) // 4 sets
    }

    #[test]
    fn fill_then_read_hits() {
        let mut c = small_cache();
        let a = addr_in_set(0, 0);
        assert!(!c.read(a));
        c.fill(a);
        assert!(c.read(a));
    }

    #[test]
    fn conflict_eviction_returns_victim() {
        let mut c = small_cache();
        let a = addr_in_set(1, 0);
        let b = addr_in_set(1, 1);
        let d = addr_in_set(1, 2);
        c.fill(a);
        c.fill(b);
        let ev = c.fill(d).expect("set is full");
        assert_eq!(ev.addr, a, "LRU victim is the oldest fill");
        assert!(!ev.dirty);
        assert!(c.probe(a).is_none());
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small_cache();
        let a = addr_in_set(2, 0);
        c.fill(a);
        assert!(c.write(a));
        c.fill(addr_in_set(2, 1));
        let ev = c.fill(addr_in_set(2, 2)).expect("eviction");
        assert_eq!(ev.addr, a);
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = small_cache();
        let a = LineAddr::new(0x1234_5678 & !3 | 3); // set 3, big tag
        c.fill(a);
        c.fill(addr_in_set(3, 1));
        let ev = c.fill(addr_in_set(3, 2)).expect("eviction");
        assert_eq!(ev.addr, a);
    }

    #[test]
    fn invalidate_removes_and_reports_dirty_data() {
        let mut c = small_cache();
        let a = addr_in_set(0, 5);
        c.fill(a);
        assert!(c.write(a));
        let ev = c.invalidate(a).expect("line present");
        assert_eq!(ev.addr, a);
        assert!(ev.dirty);
        assert!(c.probe(a).is_none());
        assert_eq!(c.invalidate(a), None);
        assert_eq!(c.stats().back_invalidations, 1);
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_fill_panics() {
        let mut c = small_cache();
        let a = addr_in_set(0, 0);
        c.fill(a);
        c.fill(a);
    }

    #[test]
    fn probe_does_not_perturb_recency_or_stats() {
        let mut c = small_cache();
        let a = addr_in_set(1, 0);
        let b = addr_in_set(1, 1);
        c.fill(a);
        c.fill(b);
        // Probing `a` must not promote it.
        for _ in 0..10 {
            let _ = c.probe(a);
        }
        let ev = c.fill(addr_in_set(1, 2)).expect("eviction");
        assert_eq!(ev.addr, a);
        assert_eq!(c.stats().read_hits, 0);
    }

    #[test]
    fn resident_lines_reports_exact_set() {
        let mut c = small_cache();
        let lines = [addr_in_set(0, 0), addr_in_set(1, 3), addr_in_set(2, 9)];
        for &a in &lines {
            c.fill(a);
        }
        let mut resident: Vec<LineAddr> = c.resident_lines().collect();
        resident.sort();
        let mut expected = lines.to_vec();
        expected.sort();
        assert_eq!(resident, expected);
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut c = small_cache();
        let a = addr_in_set(0, 0);
        assert!(!c.write(a));
        assert!(c.probe(a).is_none());
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn peek_and_dirty_views() {
        let mut c = small_cache();
        let a = addr_in_set(0, 1);
        c.fill(a);
        assert_eq!(c.is_dirty(a), Some(false));
        c.write(a);
        assert_eq!(c.is_dirty(a), Some(true));
        assert_eq!(c.is_dirty(addr_in_set(3, 3)), None);
    }

    #[test]
    fn refill_after_dirty_eviction_clears_dirty_bit() {
        let mut c = small_cache();
        let a = addr_in_set(2, 0);
        c.fill(a);
        c.write(a);
        c.invalidate(a).expect("present");
        c.fill(a);
        assert_eq!(c.is_dirty(a), Some(false));
    }
}
