//! The set-engine: one tag/replacement core under every LLC organization.
//!
//! Each organization in `bv-core` (uncompressed, two-tag, Base-Victim,
//! VSC, DCC) used to re-implement the same plumbing privately: a flat
//! `sets x ways` slot array, the tag walk, the install-way choice
//! (first invalid way, else the policy's victim), replacement-policy
//! bookkeeping, and the [`LlcStats`] counters. [`SetEngine`] centralizes
//! that substrate so each organization file keeps only its paper-specific
//! delta — victim-cache partnering, partner-line victimization, segment
//! accounting, or super-block grouping.
//!
//! # Data layout
//!
//! The tag array is stored **structure-of-arrays**: one contiguous
//! `Vec<u64>` of tags, one packed per-set validity bitmask (`ways <= 64`),
//! and a parallel `Vec<S>` of organization payloads. A set probe is then
//! [`find_tag`] over `ways` adjacent `u64` words — one or two cache
//! lines — folded into a match bitmask, instead of a strided walk over
//! fat `(valid, tag, meta)` records whose payload (a 64-byte data line
//! and more) pushed each tag onto its own cache line. `first_invalid` and `valid_count` collapse to
//! bitmask arithmetic on the validity words.
//!
//! Organizations do not see the layout: [`SetEngine::slot`] and
//! [`SetEngine::slot_mut`] return the [`SlotView`] / [`SlotViewMut`] view
//! types, which present the old `{valid, tag, meta}` slot shape over the
//! split arrays. The retained scalar walk
//! [`SetEngine::find_reference`] is the differential oracle for the
//! vector-friendly probe (property-tested in `tests/probe_differential.rs`).
//!
//! The engine builds its own replacement policy from a [`PolicyKind`] for
//! its `sets x ways` array, so a policy can never disagree with the tag
//! array about its dimensions. The policy is the enum-dispatched
//! [`Policy`]: a runtime-selected policy costs one branch on the enum
//! discriminant per call, with no vtable or allocation.
//!
//! What the engine deliberately does *not* do is map addresses to sets:
//! most organizations index sets by geometry bit-extraction, but DCC
//! indexes by `super_block % sets`. Callers therefore speak (set, tag)
//! and (set, way), and keep address reconstruction to themselves.
//!
//! # Examples
//!
//! ```
//! use bv_cache::engine::{SetEngine, SlotMeta};
//! use bv_cache::PolicyKind;
//!
//! #[derive(Clone, Copy)]
//! struct Plain;
//! impl SlotMeta for Plain {
//!     fn empty() -> Plain {
//!         Plain
//!     }
//! }
//!
//! let mut engine: SetEngine<Plain> = SetEngine::new(16, 4, PolicyKind::Lru);
//! let way = engine.fill_way(3);
//! engine.install(3, way, 0x7, Plain, bv_compress::SegmentCount::FULL);
//! assert_eq!(engine.find(3, 0x7), Some(way));
//! ```

use crate::replacement::{Policy, PolicyKind, ReplacementPolicy};
use crate::stats::{Effects, LlcStats};
use bv_compress::SegmentCount;
use bv_events::{CacheEvent, EventKind, EventSink, EvictCause, NoEventSink};

/// Per-slot payload stored next to the tag: whatever one organization
/// needs per logical line (dirty bit, data, compressed size, sub-block
/// map, ...).
pub trait SlotMeta {
    /// The payload of an empty (invalid) slot.
    fn empty() -> Self;
}

/// The lowest way of a tag row whose tag equals `tag` and whose bit is
/// set in `valid` — the one tag match under the L1/L2 caches, the set
/// engine and Base-Victim's victim tag row.
///
/// Every word of the row is compared unconditionally and folded into a
/// match mask; invalid slots' stale tag words may match, and the
/// validity mask, not the tag word, decides. LLVM vectorizes the loop
/// 16 lanes at a time, so a 16-way LLC row is a single vector step.
///
/// # Examples
///
/// ```
/// use bv_cache::engine::find_tag;
///
/// let row = [7, 9, 9, 3];
/// assert_eq!(find_tag(&row, 0b1111, 9), Some(1));
/// assert_eq!(find_tag(&row, 0b1100, 9), Some(2)); // way 1 is invalid
/// assert_eq!(find_tag(&row, 0b1111, 5), None);
/// ```
#[must_use]
#[inline]
pub fn find_tag(row: &[u64], valid: u64, tag: u64) -> Option<usize> {
    let mut matches = 0u64;
    for (w, &t) in row.iter().enumerate() {
        matches |= u64::from(t == tag) << w;
    }
    matches &= valid;
    (matches != 0).then(|| matches.trailing_zeros() as usize)
}

/// One logical tag-array entry as an owned value: validity and tag owned
/// by the engine, payload owned by the organization. The engine stores
/// these fields in separate arrays (see the module docs); `EngineSlot` is
/// the shape organizations copy a slot out into via
/// [`SlotView::copied`].
#[derive(Clone, Copy, Debug)]
pub struct EngineSlot<S> {
    /// Whether this slot holds a line.
    pub valid: bool,
    /// The line's tag (meaning is organization-specific: line tag for
    /// most, super-block tag for DCC).
    pub tag: u64,
    /// Organization-specific payload.
    pub meta: S,
}

/// Read-only view of one `(set, way)` slot over the split arrays,
/// mirroring the `{valid, tag, meta}` shape of [`EngineSlot`].
#[derive(Clone, Copy, Debug)]
pub struct SlotView<'a, S> {
    /// Whether this slot holds a line.
    pub valid: bool,
    /// The line's tag.
    pub tag: u64,
    /// Organization-specific payload.
    pub meta: &'a S,
}

impl<S: Copy> SlotView<'_, S> {
    /// Copies the slot out of the engine's arrays into an owned
    /// [`EngineSlot`] (the old `*engine.slot(set, way)` idiom).
    #[must_use]
    pub fn copied(&self) -> EngineSlot<S> {
        EngineSlot {
            valid: self.valid,
            tag: self.tag,
            meta: *self.meta,
        }
    }
}

/// Mutable view of one `(set, way)` slot. Validity lives in a packed
/// per-set bitmask, so it is exposed through accessors rather than a
/// field; the payload is a plain `&mut S` so organization code mutates
/// `slot.meta.<field>` exactly as it did against the fat-slot layout.
#[derive(Debug)]
pub struct SlotViewMut<'a, S> {
    valid_word: &'a mut u64,
    bit: u32,
    tag: &'a mut u64,
    /// Organization-specific payload.
    pub meta: &'a mut S,
}

impl<S> SlotViewMut<'_, S> {
    /// Whether this slot holds a line.
    #[must_use]
    pub fn valid(&self) -> bool {
        *self.valid_word >> self.bit & 1 == 1
    }

    /// The line's tag.
    #[must_use]
    pub fn tag(&self) -> u64 {
        *self.tag
    }

    /// Resets the slot to the empty state.
    pub fn clear(&mut self)
    where
        S: SlotMeta,
    {
        *self.valid_word &= !(1u64 << self.bit);
        *self.tag = 0;
        *self.meta = S::empty();
    }
}

/// The shared tag/replacement core: a `sets x ways` structure-of-arrays
/// tag store, the replacement policy driving it, and the [`LlcStats`]
/// counters every organization reports.
///
/// `ways` is the number of *logical* slots per set — physical ways for
/// the uncompressed baseline and Base-Victim's baseline array, `2N` for
/// the doubled-tag organizations (two-tag, VSC, DCC). At most 64, so one
/// `u64` bitmask covers a set's validity.
///
/// The engine is additionally generic over an [`EventSink`], defaulted
/// to [`NoEventSink`]: tag-level decisions (demand hits and misses,
/// invalidations) are emitted from here, and organizations push their
/// paper-specific events through [`SetEngine::emit`]. Every emission is
/// guarded by `E::ENABLED`, a compile-time constant, so the default
/// build carries no event cost at all.
#[derive(Clone, Debug)]
pub struct SetEngine<S, E = NoEventSink> {
    sets: usize,
    ways: usize,
    /// `sets * ways` tags, row-major: set `s` owns `tags[s*ways..(s+1)*ways]`.
    tags: Vec<u64>,
    /// One validity bitmask per set; bit `w` set means `(set, w)` holds a
    /// line. Invalid slots keep `tags[i] == 0`, but validity is always
    /// decided by this mask, never by a sentinel tag value.
    valid: Vec<u64>,
    /// `sets * ways` organization payloads, parallel to `tags`.
    metas: Vec<S>,
    policy: Policy,
    stats: LlcStats,
    sink: E,
}

impl<S: SlotMeta + Clone> SetEngine<S> {
    /// Creates an empty engine over a `sets x ways` logical tag array,
    /// running the replacement policy `policy` selects.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64`.
    #[must_use]
    pub fn new(sets: usize, ways: usize, policy: PolicyKind) -> SetEngine<S> {
        SetEngine::with_sink(sets, ways, policy, NoEventSink)
    }
}

impl<S: SlotMeta + Clone, E: EventSink> SetEngine<S, E> {
    /// Creates an empty engine emitting events into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64`.
    #[must_use]
    pub fn with_sink(sets: usize, ways: usize, policy: PolicyKind, sink: E) -> SetEngine<S, E> {
        assert!(ways <= 64, "engine validity mask covers at most 64 ways");
        SetEngine {
            sets,
            ways,
            tags: vec![0; sets * ways],
            valid: vec![0; sets],
            metas: vec![S::empty(); sets * ways],
            policy: policy.instantiate(sets, ways),
            stats: LlcStats::default(),
            sink,
        }
    }
}

impl<S, E: EventSink> SetEngine<S, E> {
    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of logical slots per set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        debug_assert!(way < self.ways);
        set * self.ways + way
    }

    /// Bitmask with one bit per way of a set.
    #[inline]
    fn ways_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    /// The slot at `(set, way)`.
    #[must_use]
    pub fn slot(&self, set: usize, way: usize) -> SlotView<'_, S> {
        let i = self.idx(set, way);
        SlotView {
            valid: self.valid[set] >> way & 1 == 1,
            tag: self.tags[i],
            meta: &self.metas[i],
        }
    }

    /// Mutable access to the slot at `(set, way)`.
    ///
    /// Mutating validity or tags directly is the organization's
    /// responsibility to pair with the matching policy callback; prefer
    /// [`install`](SetEngine::install) / [`invalidate`](SetEngine::invalidate).
    pub fn slot_mut(&mut self, set: usize, way: usize) -> SlotViewMut<'_, S> {
        let i = self.idx(set, way);
        SlotViewMut {
            valid_word: &mut self.valid[set],
            bit: way as u32,
            tag: &mut self.tags[i],
            meta: &mut self.metas[i],
        }
    }

    /// The way holding `tag` in `set`, if resident: [`find_tag`] over
    /// the set's tag row and validity mask.
    /// [`find_reference`](SetEngine::find_reference) is the retained
    /// scalar walk it is differential-tested against.
    #[must_use]
    #[inline]
    pub fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        find_tag(&self.tags[base..base + self.ways], self.valid[set], tag)
    }

    /// The retained scalar reference walk: way-by-way validity and tag
    /// checks, exactly the pre-SoA probe. Kept as the differential oracle
    /// for [`find`](SetEngine::find) (and as the yardstick behind the
    /// `probe-only` bench rows); not used on any hot path.
    #[must_use]
    pub fn find_reference(&self, set: usize, tag: u64) -> Option<usize> {
        (0..self.ways).find(|&w| {
            let s = self.slot(set, w);
            s.valid && s.tag == tag
        })
    }

    /// The first invalid way in `set`, if any — one bitmask negation
    /// instead of a walk.
    #[must_use]
    pub fn first_invalid(&self, set: usize) -> Option<usize> {
        let free = !self.valid[set] & self.ways_mask();
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }

    /// The way a new line should go to: the first invalid way, else the
    /// policy's victim. This is the install order every organization
    /// shares; the caller evicts the occupant if the returned way is
    /// still valid.
    pub fn fill_way(&mut self, set: usize) -> usize {
        self.first_invalid(set)
            .unwrap_or_else(|| self.policy.victim(set))
    }

    /// Writes a line into `(set, way)` and records the fill with the
    /// policy, passing `size` through to size-aware policies.
    ///
    /// Does *not* notify the policy about any occupant being replaced —
    /// overwriting a valid slot is a silent replacement (the uncompressed
    /// and Base-Victim baseline behavior). Organizations that must free a
    /// slot explicitly call [`invalidate`](SetEngine::invalidate) first.
    pub fn install(&mut self, set: usize, way: usize, tag: u64, meta: S, size: SegmentCount) {
        let i = self.idx(set, way);
        self.valid[set] |= 1u64 << way;
        self.tags[i] = tag;
        self.metas[i] = meta;
        self.policy.on_fill_sized(set, way, size);
    }

    /// Records a demand hit on `(set, way)`: touches the policy and
    /// counts a baseline hit.
    pub fn demand_hit(&mut self, set: usize, way: usize) {
        self.policy.on_hit(set, way);
        self.stats.base_hits += 1;
        if E::ENABLED {
            let tag = self.tags[self.idx(set, way)];
            self.sink
                .emit(CacheEvent::new(set, way, EventKind::DemandHit { tag }));
        }
    }

    /// Records a demand miss on `set`: trains set-dueling policies and
    /// counts the miss.
    pub fn demand_miss(&mut self, set: usize) {
        self.policy.on_miss(set);
        self.stats.read_misses += 1;
        if E::ENABLED {
            self.sink
                .emit(CacheEvent::set_wide(set, EventKind::DemandMiss));
        }
    }

    /// Touches the policy for a hit without counting statistics (prefetch
    /// probes and other non-demand touches).
    pub fn touch(&mut self, set: usize, way: usize) {
        self.policy.on_hit(set, way);
    }

    /// Chooses the policy's victim way in a full `set`.
    pub fn victim(&mut self, set: usize) -> usize {
        self.policy.victim(set)
    }

    /// Empties `(set, way)` and notifies the policy.
    pub fn invalidate(&mut self, set: usize, way: usize)
    where
        S: SlotMeta,
    {
        self.invalidate_as(set, way, EvictCause::Invalidation);
    }

    /// Empties `(set, way)` and notifies the policy, labeling the emitted
    /// eviction event with an organization-chosen cause (replacement,
    /// size pressure). Identical to [`invalidate`](SetEngine::invalidate)
    /// in untraced builds.
    pub fn invalidate_as(&mut self, set: usize, way: usize, cause: EvictCause)
    where
        S: SlotMeta,
    {
        let i = self.idx(set, way);
        if E::ENABLED && self.valid[set] >> way & 1 == 1 {
            self.sink.emit(CacheEvent::new(
                set,
                way,
                EventKind::Eviction {
                    tag: self.tags[i],
                    cause,
                },
            ));
        }
        self.valid[set] &= !(1u64 << way);
        self.tags[i] = 0;
        self.metas[i] = S::empty();
        self.policy.on_invalidate(set, way);
    }

    /// Emits an organization-level event. A no-op (including argument
    /// construction at the call site, which should be guarded by
    /// `E::ENABLED`) when the sink is disabled.
    #[inline]
    pub fn emit(&mut self, ev: CacheEvent) {
        if E::ENABLED {
            self.sink.emit(ev);
        }
    }

    /// Whether this engine's sink retains events.
    #[must_use]
    pub fn events_enabled(&self) -> bool {
        E::ENABLED
    }

    /// Drains retained events from the sink, oldest first.
    pub fn drain_events(&mut self) -> Vec<CacheEvent> {
        self.sink.drain()
    }

    /// Read access to the sink (capture statistics, capacity).
    #[must_use]
    pub fn sink(&self) -> &E {
        &self.sink
    }

    /// How many retained events the sink has overwritten (bounded
    /// sinks); 0 otherwise.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// Forwards a downgrade hint to the policy.
    pub fn hint_downgrade(&mut self, set: usize, way: usize) {
        self.policy.hint_downgrade(set, way);
    }

    /// The policy's eviction-age rank for `(set, way)`.
    #[must_use]
    pub fn eviction_rank(&self, set: usize, way: usize) -> u64 {
        self.policy.eviction_rank(set, way)
    }

    /// Whether `(set, way)` is an eviction candidate under the policy.
    #[must_use]
    pub fn is_eviction_candidate(&self, set: usize, way: usize) -> bool {
        self.policy.is_eviction_candidate(set, way)
    }

    /// All valid slots as `(set, way, slot)` triples, for resident-line
    /// listings and invariant checks.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, usize, SlotView<'_, S>)> {
        (0..self.sets).flat_map(move |set| {
            let mask = self.valid[set];
            (0..self.ways)
                .filter(move |w| mask >> w & 1 == 1)
                .map(move |w| (set, w, self.slot(set, w)))
        })
    }

    /// Number of valid slots across all sets — the occupancy probe the
    /// telemetry sampler turns into an effective-capacity series. One
    /// popcount per set, no per-slot walk.
    #[must_use]
    pub fn valid_count(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Mutable counters, for organization-specific events (victim hits,
    /// writeback accounting, fill counts).
    pub fn stats_mut(&mut self) -> &mut LlcStats {
        &mut self.stats
    }

    /// Folds one operation's side effects into the lifetime counters.
    pub fn absorb(&mut self, effects: Effects) {
        self.stats.absorb_effects(effects);
    }

    /// Mutable access to the policy, for organization-specific sequences
    /// the engine has no verb for.
    pub fn policy_mut(&mut self) -> &mut Policy {
        &mut self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Tagged(u32);

    impl SlotMeta for Tagged {
        fn empty() -> Tagged {
            Tagged(0)
        }
    }

    fn engine() -> SetEngine<Tagged> {
        SetEngine::new(4, 2, PolicyKind::Lru)
    }

    #[test]
    fn fill_way_prefers_invalid_then_policy_victim() {
        let mut e = engine();
        assert_eq!(e.fill_way(0), 0);
        e.install(0, 0, 10, Tagged(1), SegmentCount::FULL);
        assert_eq!(e.fill_way(0), 1);
        e.install(0, 1, 11, Tagged(2), SegmentCount::FULL);
        // Set full: LRU victim is way 0 (filled first, never touched).
        assert_eq!(e.fill_way(0), 0);
    }

    #[test]
    fn valid_count_tracks_installs_and_invalidations() {
        let mut e = engine();
        assert_eq!(e.valid_count(), 0);
        e.install(0, 0, 10, Tagged(1), SegmentCount::FULL);
        e.install(3, 1, 11, Tagged(2), SegmentCount::FULL);
        assert_eq!(e.valid_count(), 2);
        e.invalidate(0, 0);
        assert_eq!(e.valid_count(), 1);
    }

    #[test]
    fn find_matches_only_valid_tags() {
        let mut e = engine();
        assert_eq!(e.find(2, 7), None);
        e.install(2, 0, 7, Tagged(9), SegmentCount::FULL);
        assert_eq!(e.find(2, 7), Some(0));
        e.invalidate(2, 0);
        assert_eq!(e.find(2, 7), None);
    }

    #[test]
    fn find_ignores_stale_tag_words_of_invalid_slots() {
        // A cleared slot zeroes its tag word, but validity — not the tag
        // value — must decide matches: tag 0 is a legal live tag.
        let mut e = engine();
        e.install(1, 0, 0, Tagged(3), SegmentCount::FULL);
        assert_eq!(e.find(1, 0), Some(0), "tag 0 is matchable when valid");
        e.invalidate(1, 0);
        assert_eq!(e.find(1, 0), None, "tag 0 unmatchable when invalid");
    }

    #[test]
    fn find_agrees_with_reference_walk() {
        let mut e = engine();
        e.install(0, 1, 42, Tagged(1), SegmentCount::FULL);
        for tag in [0, 7, 42, 43] {
            assert_eq!(e.find(0, tag), e.find_reference(0, tag));
        }
    }

    #[test]
    fn demand_hits_and_misses_update_stats() {
        let mut e = engine();
        e.install(1, 0, 3, Tagged(0), SegmentCount::FULL);
        e.demand_hit(1, 0);
        e.demand_miss(1);
        assert_eq!(e.stats().base_hits, 1);
        assert_eq!(e.stats().read_misses, 1);
    }

    #[test]
    fn demand_hit_protects_the_line_from_eviction() {
        let mut e = engine();
        e.install(0, 0, 1, Tagged(0), SegmentCount::FULL);
        e.install(0, 1, 2, Tagged(0), SegmentCount::FULL);
        e.demand_hit(0, 0); // way 0 becomes MRU; way 1 is now the victim
        assert_eq!(e.fill_way(0), 1);
    }

    #[test]
    fn iter_valid_reports_set_and_way() {
        let mut e = engine();
        e.install(3, 1, 42, Tagged(5), SegmentCount::FULL);
        let all: Vec<_> = e
            .iter_valid()
            .map(|(s, w, slot)| (s, w, slot.tag))
            .collect();
        assert_eq!(all, vec![(3, 1, 42)]);
    }

    #[test]
    fn slot_views_roundtrip_mutation() {
        let mut e = engine();
        e.install(2, 1, 9, Tagged(4), SegmentCount::FULL);
        assert!(e.slot_mut(2, 1).valid());
        assert_eq!(e.slot_mut(2, 1).tag(), 9);
        *e.slot_mut(2, 1).meta = Tagged(8);
        assert_eq!(e.slot(2, 1).meta, &Tagged(8));
        assert_eq!(e.slot(2, 1).copied().meta, Tagged(8));
        e.slot_mut(2, 1).clear();
        assert!(!e.slot(2, 1).valid);
        assert_eq!(e.find(2, 9), None);
    }

    #[test]
    fn absorb_folds_effects_into_stats() {
        let mut e = engine();
        e.absorb(Effects {
            memory_writes: 2,
            back_invalidations: 1,
            ..Effects::default()
        });
        assert_eq!(e.stats().memory_writes, 2);
        assert_eq!(e.stats().back_invalidations, 1);
    }

    #[test]
    fn traced_engine_emits_hits_misses_and_invalidations() {
        use bv_events::RingSink;
        let mut e: SetEngine<Tagged, RingSink> =
            SetEngine::with_sink(4, 2, PolicyKind::Lru, RingSink::new(16));
        assert!(e.events_enabled());
        e.install(1, 0, 7, Tagged(0), SegmentCount::FULL);
        e.demand_hit(1, 0);
        e.demand_miss(1);
        e.invalidate(1, 0);
        let events = e.drain_events();
        let kinds: Vec<&str> = events.iter().map(|ev| ev.kind.name()).collect();
        assert_eq!(kinds, vec!["hit", "miss", "eviction"]);
        assert_eq!(events[0].kind.tag(), Some(7));
        assert_eq!(events[1].way, bv_events::CacheEvent::NO_WAY);
        // Invalidating an already-empty slot emits nothing.
        e.invalidate(1, 0);
        assert!(e.drain_events().is_empty());
        assert_eq!(e.sink().emitted(), 3);
    }

    #[test]
    fn default_engine_reports_events_disabled() {
        let mut e = engine();
        assert!(!e.events_enabled());
        e.install(0, 0, 1, Tagged(0), SegmentCount::FULL);
        e.demand_hit(0, 0);
        assert!(e.drain_events().is_empty());
    }
}
