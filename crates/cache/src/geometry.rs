//! Cache geometry: size, associativity, and index arithmetic.

use core::fmt;

/// The shape of one cache: capacity, associativity, and line size.
///
/// All quantities must be powers of two so that set indexing is a simple
/// bit-field extraction, as in the modeled hardware.
///
/// # Examples
///
/// ```
/// use bv_cache::CacheGeometry;
///
/// // The paper's single-thread LLC: 2 MB, 16-way, 64 B lines.
/// let llc = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
/// assert_eq!(llc.sets(), 2048);
/// assert_eq!(llc.index_bits(), 11);
/// ```
///
/// `sets` and `index_bits` follow from the three inputs and are computed
/// once in [`CacheGeometry::new`], so set indexing on the access path is
/// a mask and a shift, never a division. Because they follow from the
/// inputs, the derived `PartialEq` and `Hash` mean the same as over the
/// inputs alone.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: usize,
    ways: usize,
    line_bytes: usize,
    sets: usize,
    index_bits: u32,
}

/// The most ways one set may hold: [`SetEngine`](crate::engine::SetEngine)
/// and [`BasicCache`](crate::BasicCache) keep each set's validity in one
/// `u64` mask.
pub const MAX_WAYS: usize = 64;

impl CacheGeometry {
    /// Checks the shape [`CacheGeometry::new`] would build, so that sizes
    /// from argv or the network are rejected instead of panicking.
    ///
    /// The associativity need not be a power of two — the paper's 3 MB and
    /// 6 MB configurations add 8 ways to a 16-way baseline, giving 24-way
    /// caches — but it must be at most [`MAX_WAYS`], and the line size and
    /// the resulting set count must be powers of two, so that indexing
    /// remains a bit-field extraction.
    ///
    /// # Errors
    ///
    /// Describes the first rule the shape breaks.
    pub fn check(size_bytes: usize, ways: usize, line_bytes: usize) -> Result<(), String> {
        if !line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".to_string());
        }
        if !(1..=MAX_WAYS).contains(&ways) {
            return Err(format!(
                "{ways} ways: associativity must be between 1 and {MAX_WAYS}"
            ));
        }
        let way_bytes = ways * line_bytes;
        if !size_bytes.is_multiple_of(way_bytes) {
            return Err(format!(
                "cache size {size_bytes} not a multiple of {ways} ways x {line_bytes} B"
            ));
        }
        let sets = size_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(format!(
                "{size_bytes} B in {ways} ways x {line_bytes} B is {sets} sets, \
                 not a nonzero power of two"
            ));
        }
        Ok(())
    }

    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheGeometry::check`] rejects the shape.
    #[must_use]
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> CacheGeometry {
        if let Err(e) = CacheGeometry::check(size_bytes, ways, line_bytes) {
            panic!("{e}");
        }
        let sets = size_bytes / (ways * line_bytes);
        CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
            sets,
            index_bits: sets.trailing_zeros(),
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Associativity (ways per set).
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Bits of the line address used as the set index.
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Bits of the byte address used as the line offset.
    #[must_use]
    pub fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Set index for a line address (byte address >> offset bits).
    #[must_use]
    pub fn set_index(&self, line: u64) -> usize {
        (line & (self.sets as u64 - 1)) as usize
    }

    /// Tag for a line address (the bits above the set index).
    #[must_use]
    pub fn tag(&self, line: u64) -> u64 {
        line >> self.index_bits
    }
}

impl fmt::Debug for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheGeometry({} KB, {}-way, {} sets, {} B lines)",
            self.size_bytes / 1024,
            self.ways,
            self.sets(),
            self.line_bytes
        )
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.size_bytes >= 1024 * 1024 && self.size_bytes.is_multiple_of(1024 * 1024) {
            write!(
                f,
                "{} MB {}-way",
                self.size_bytes / (1024 * 1024),
                self.ways
            )
        } else {
            write!(f, "{} KB {}-way", self.size_bytes / 1024, self.ways)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_hierarchy_geometries() {
        let l1 = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(l1.sets(), 64);
        let l2 = CacheGeometry::new(256 * 1024, 8, 64);
        assert_eq!(l2.sets(), 512);
        let llc = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
        assert_eq!(llc.sets(), 2048);
        assert_eq!(llc.index_bits(), 11);
        assert_eq!(llc.offset_bits(), 6);
        let llc_mp = CacheGeometry::new(4 * 1024 * 1024, 16, 64);
        assert_eq!(llc_mp.sets(), 4096);
    }

    #[test]
    fn set_index_and_tag_partition_the_address() {
        let g = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
        let line: u64 = 0xabcd_1234;
        let rebuilt = (g.tag(line) << g.index_bits()) | g.set_index(line) as u64;
        assert_eq!(rebuilt, line);
    }

    #[test]
    fn every_accepted_shape_indexes_like_the_division() {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        let mut accepted = 0;
        // Powers of two and their triples, so the 24- and 48-way shapes
        // (which need a factor of three in the size) are reached too.
        let sizes = (10..=26).flat_map(|k| [1usize << k, 3 << k]);
        for size in sizes.filter(|&s| s <= 64 << 20) {
            for ways in [1, 2, 8, 16, 24, 48, 64] {
                for line in [32, 64, 128] {
                    if CacheGeometry::check(size, ways, line).is_err() {
                        continue;
                    }
                    accepted += 1;
                    let g = CacheGeometry::new(size, ways, line);
                    let sets = size / (ways * line);
                    assert_eq!(g.sets(), sets, "{g:?}");
                    assert_eq!(g.index_bits(), sets.trailing_zeros(), "{g:?}");
                    for i in 0..64 {
                        let line_addr = bv_testkit::mix(i) >> 6;
                        let rebuilt =
                            (g.tag(line_addr) << g.index_bits()) | g.set_index(line_addr) as u64;
                        assert_eq!(rebuilt, line_addr, "{g:?}");
                    }
                    let twin = CacheGeometry::new(size, ways, line);
                    assert_eq!(g, twin);
                    assert_eq!(hasher.hash_one(g), hasher.hash_one(twin));
                }
            }
        }
        assert!(accepted > 200, "grid reached only {accepted} shapes");
    }

    #[test]
    fn paper_3mb_is_24_way_with_2048_sets() {
        // Section VI.A: "We construct a 3MB cache by adding 8 ways to a
        // 2MB, 16-way baseline."
        let g = CacheGeometry::new(3 * 1024 * 1024, 24, 64);
        assert_eq!(g.sets(), 2048);
        let g6 = CacheGeometry::new(6 * 1024 * 1024, 24, 64);
        assert_eq!(g6.sets(), 4096);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_non_divisible_size() {
        let _ = CacheGeometry::new(1000, 4, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheGeometry::new(3 * 64 * 16, 16, 64); // 3 sets
    }

    #[test]
    fn check_rejects_every_bad_shape() {
        assert_eq!(CacheGeometry::check(2 * 1024 * 1024, 16, 64), Ok(()));
        assert_eq!(CacheGeometry::check(8 * 1024 * 1024, MAX_WAYS, 64), Ok(()));
        for (size, ways, line) in [
            (2 * 1024 * 1024, 0, 64),            // no ways
            (8 * 1024 * 1024, MAX_WAYS + 1, 64), // over the mask width
            (3 * 1024 * 1024, 16, 64),           // 3072 sets
            (1000, 4, 64),                       // not a multiple
            (0, 16, 64),                         // zero sets
            (4096, 4, 48),                       // odd line size
        ] {
            assert!(
                CacheGeometry::check(size, ways, line).is_err(),
                "{size} B {ways}-way {line} B lines accepted"
            );
        }
    }

    #[test]
    #[should_panic(expected = "between 1 and 64")]
    fn rejects_more_ways_than_the_validity_mask() {
        let _ = CacheGeometry::new(8 * 1024 * 1024, 128, 64);
    }

    #[test]
    fn display_prefers_mb_for_large_caches() {
        let g = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
        assert_eq!(g.to_string(), "2 MB 16-way");
        let l1 = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(l1.to_string(), "32 KB 8-way");
    }
}
