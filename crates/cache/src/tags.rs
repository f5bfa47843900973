//! The one structure-of-arrays tag store under every cache in the
//! simulator: the L1/L2 [`BasicCache`](crate::BasicCache), the LLC
//! [`SetEngine`](crate::engine::SetEngine) and Base-Victim's Victim tags.

/// The lowest way of a tag row whose tag equals `tag` and whose bit is
/// set in `valid` — the one tag match under every [`TagArray`].
///
/// Every word of the row is compared unconditionally and folded into a
/// match mask; invalid slots' stale tag words may match, and the
/// validity mask, not the tag word, decides. LLVM vectorizes the loop
/// 16 lanes at a time, so a 16-way LLC row is a single vector step.
#[inline]
fn find_tag(row: &[u64], valid: u64, tag: u64) -> Option<usize> {
    let mut matches = 0u64;
    for (w, &t) in row.iter().enumerate() {
        matches |= u64::from(t == tag) << w;
    }
    matches &= valid;
    (matches != 0).then(|| matches.trailing_zeros() as usize)
}

/// A `sets x ways` tag array: a row-major `u64` tag per slot and, per
/// set, one validity and one dirty bitmask (`ways <= 64`).
///
/// A set probe compares the set's `ways` adjacent tag words into one
/// branchless match mask, instead of a strided walk over fat slot
/// records. The fields are
/// private so the array stays coherent: a tag word is written only with
/// its valid bit ([`insert`](TagArray::insert)), a cleared slot's tag
/// word is zero and its dirty bit is off ([`clear`](TagArray::clear)),
/// and only a valid slot can be dirty. What a slot carries beyond its
/// tag (a compressed size, line data) lives in arrays its owner indexes
/// the same way.
///
/// # Examples
///
/// ```
/// use bv_cache::TagArray;
///
/// let mut tags = TagArray::new(4, 2);
/// assert_eq!(tags.first_free(3), Some(0));
/// tags.insert(3, 0, 0x7);
/// tags.set_dirty(3, 0);
/// assert_eq!(tags.find(3, 0x7), Some(0));
/// assert!(tags.is_dirty(3, 0));
/// tags.clear(3, 0);
/// assert_eq!(tags.find(3, 0x7), None);
/// assert!(!tags.is_dirty(3, 0));
/// ```
#[derive(Clone, Debug)]
pub struct TagArray {
    ways: usize,
    /// `sets * ways` tags: set `s` owns `tags[s*ways..(s+1)*ways]`.
    /// Only meaningful where the set's valid bit is set; invalid slots
    /// keep a zeroed tag so probes may read every word unconditionally.
    tags: Vec<u64>,
    /// One validity bitmask per set: bit `w` set means `(set, w)` holds
    /// a line. Validity is decided by this mask, never by the tag word.
    valid: Vec<u64>,
    /// One dirty bitmask per set, always a subset of `valid`.
    dirty: Vec<u64>,
}

impl TagArray {
    /// An empty `sets x ways` array.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64`.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> TagArray {
        assert!(ways <= 64, "a set's masks cover at most 64 ways");
        TagArray {
            ways,
            tags: vec![0; sets * ways],
            valid: vec![0; sets],
            dirty: vec![0; sets],
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.valid.len()
    }

    /// Slots per set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The row-major index of `(set, way)`, which arrays kept beside
    /// the tags (payloads, sizes, line data) share.
    #[must_use]
    #[inline]
    pub fn index(&self, set: usize, way: usize) -> usize {
        debug_assert!(way < self.ways);
        set * self.ways + way
    }

    /// The way holding `tag` in `set`, if resident: the vectorized match
    /// over the set's tag row, masked by its validity.
    /// [`find_reference`](TagArray::find_reference) is the retained
    /// scalar walk it is differential-tested against.
    #[must_use]
    #[inline]
    pub fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        find_tag(&self.tags[base..base + self.ways], self.valid[set], tag)
    }

    /// The retained scalar reference walk: way-by-way validity and tag
    /// checks, exactly the pre-SoA probe. Kept as the differential
    /// oracle for [`find`](TagArray::find) (and as the yardstick behind
    /// the `probe-only` bench rows); not used on any hot path.
    #[must_use]
    pub fn find_reference(&self, set: usize, tag: u64) -> Option<usize> {
        (0..self.ways).find(|&w| self.is_valid(set, w) && self.tag(set, w) == tag)
    }

    /// The lowest invalid way of `set`, if any: one bitmask negation
    /// instead of a walk.
    #[must_use]
    #[inline]
    pub fn first_free(&self, set: usize) -> Option<usize> {
        let ways_mask = if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        };
        let free = !self.valid[set] & ways_mask;
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Stores `tag` in `(set, way)` as a valid, clean line, replacing
    /// any occupant.
    #[inline]
    pub fn insert(&mut self, set: usize, way: usize, tag: u64) {
        let i = self.index(set, way);
        self.tags[i] = tag;
        self.valid[set] |= 1 << way;
        self.dirty[set] &= !(1 << way);
    }

    /// Empties `(set, way)`: clears its valid and dirty bits and zeroes
    /// its tag word.
    #[inline]
    pub fn clear(&mut self, set: usize, way: usize) {
        let i = self.index(set, way);
        self.tags[i] = 0;
        self.valid[set] &= !(1 << way);
        self.dirty[set] &= !(1 << way);
    }

    /// Whether `(set, way)` holds a line.
    #[must_use]
    #[inline]
    pub fn is_valid(&self, set: usize, way: usize) -> bool {
        self.valid[set] >> way & 1 == 1
    }

    /// Whether `(set, way)` holds a modified line.
    #[must_use]
    #[inline]
    pub fn is_dirty(&self, set: usize, way: usize) -> bool {
        self.dirty[set] >> way & 1 == 1
    }

    /// Marks the line in `(set, way)` modified.
    #[inline]
    pub fn set_dirty(&mut self, set: usize, way: usize) {
        debug_assert!(self.is_valid(set, way), "dirty bit on an empty slot");
        self.dirty[set] |= 1 << way;
    }

    /// The tag word of `(set, way)`: the line's tag if valid, else 0.
    #[must_use]
    #[inline]
    pub fn tag(&self, set: usize, way: usize) -> u64 {
        self.tags[self.index(set, way)]
    }

    /// Every valid slot as `(set, way, tag)`, in set order and, within a
    /// set, in way order.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.valid.iter().enumerate().flat_map(move |(set, &mask)| {
            (0..self.ways)
                .filter(move |w| mask >> w & 1 == 1)
                .map(move |w| (set, w, self.tags[set * self.ways + w]))
        })
    }

    /// Number of valid slots across all sets: one popcount per set.
    #[must_use]
    pub fn valid_count(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_tag_takes_the_lowest_valid_match() {
        let row = [7, 9, 9, 3];
        assert_eq!(find_tag(&row, 0b1111, 9), Some(1));
        assert_eq!(find_tag(&row, 0b1100, 9), Some(2)); // way 1 is invalid
        assert_eq!(find_tag(&row, 0b1111, 5), None);
    }

    #[test]
    fn first_free_covers_the_full_64_way_mask() {
        let mut t = TagArray::new(1, 64);
        for w in 0..64 {
            assert_eq!(t.first_free(0), Some(w));
            t.insert(0, w, w as u64);
        }
        assert_eq!(t.first_free(0), None);
        assert_eq!(t.valid_count(), 64);
        t.clear(0, 63);
        assert_eq!(t.first_free(0), Some(63));
    }
}
