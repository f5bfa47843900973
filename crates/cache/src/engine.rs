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
//! Tags, validity and the whole-line dirty bit live in a [`TagArray`],
//! the structure-of-arrays store the L1/L2 caches use too; the engine
//! adds a parallel `Vec<S>` of organization payloads. Organizations read
//! the array through [`SetEngine::tags`] and a slot's payload through
//! [`SetEngine::meta`], and change a slot only through the engine's
//! verbs ([`install`](SetEngine::install), [`invalidate`](SetEngine::invalidate),
//! [`clear`](SetEngine::clear), [`set_dirty`](SetEngine::set_dirty) and
//! [`meta_mut`](SetEngine::meta_mut)), so the tag array, the payloads and
//! the policy cannot drift apart.
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
//! assert_eq!(engine.tags().find(3, 0x7), Some(way));
//! ```

use crate::replacement::{Policy, PolicyKind, ReplacementPolicy};
use crate::stats::{Effects, LlcStats};
use crate::tags::TagArray;
use bv_compress::SegmentCount;
use bv_events::{CacheEvent, EventKind, EventSink, EvictCause, NoEventSink};

/// Per-slot payload stored next to the tag: whatever one organization
/// needs per logical line beyond its tag and dirty bit (compressed size,
/// a super-block's member lines, ...).
pub trait SlotMeta {
    /// The payload of an empty (invalid) slot.
    fn empty() -> Self;
}

/// No payload: a slot is its tag and dirty bit alone.
impl SlotMeta for () {
    fn empty() {}
}

/// A line's compressed size, the whole payload of most organizations'
/// slots. An empty slot reads as a full line.
impl SlotMeta for SegmentCount {
    fn empty() -> SegmentCount {
        SegmentCount::FULL
    }
}

/// The shared tag/replacement core: a `sets x ways` [`TagArray`] with a
/// payload per slot, the replacement policy driving it, and the
/// [`LlcStats`] counters every organization reports.
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
    tags: TagArray,
    /// `sets * ways` organization payloads, indexed like the tags.
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
        SetEngine {
            tags: TagArray::new(sets, ways),
            metas: vec![S::empty(); sets * ways],
            policy: policy.instantiate(sets, ways),
            stats: LlcStats::default(),
            sink,
        }
    }
}

impl<S, E: EventSink> SetEngine<S, E> {
    /// The tag array: validity, tags and dirty bits of every slot.
    #[must_use]
    #[inline]
    pub fn tags(&self) -> &TagArray {
        &self.tags
    }

    /// The organization payload of `(set, way)`.
    #[must_use]
    #[inline]
    pub fn meta(&self, set: usize, way: usize) -> &S {
        &self.metas[self.tags.index(set, way)]
    }

    /// Mutable access to the organization payload of `(set, way)`.
    #[inline]
    pub fn meta_mut(&mut self, set: usize, way: usize) -> &mut S {
        let i = self.tags.index(set, way);
        &mut self.metas[i]
    }

    /// Marks the line in `(set, way)` modified.
    #[inline]
    pub fn set_dirty(&mut self, set: usize, way: usize) {
        self.tags.set_dirty(set, way);
    }

    /// The way a new line should go to: the first invalid way, else the
    /// policy's victim. This is the install order every organization
    /// shares; the caller evicts the occupant if the returned way is
    /// still valid.
    pub fn fill_way(&mut self, set: usize) -> usize {
        self.tags
            .first_free(set)
            .unwrap_or_else(|| self.policy.victim(set))
    }

    /// Writes a clean line into `(set, way)` and records the fill with
    /// the policy, passing `size` through to size-aware policies.
    ///
    /// Does *not* notify the policy about any occupant being replaced —
    /// overwriting a valid slot is a silent replacement (the uncompressed
    /// and Base-Victim baseline behavior). Organizations that must free a
    /// slot explicitly call [`invalidate`](SetEngine::invalidate) first.
    pub fn install(&mut self, set: usize, way: usize, tag: u64, meta: S, size: SegmentCount) {
        let i = self.tags.index(set, way);
        self.tags.insert(set, way, tag);
        self.metas[i] = meta;
        self.policy.on_fill_sized(set, way, size);
    }

    /// Records a demand hit on `(set, way)`: touches the policy and
    /// counts a baseline hit.
    pub fn demand_hit(&mut self, set: usize, way: usize) {
        self.policy.on_hit(set, way);
        self.stats.base_hits += 1;
        if E::ENABLED {
            let tag = self.tags.tag(set, way);
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
        if E::ENABLED && self.tags.is_valid(set, way) {
            self.sink.emit(CacheEvent::new(
                set,
                way,
                EventKind::Eviction {
                    tag: self.tags.tag(set, way),
                    cause,
                },
            ));
        }
        self.clear(set, way);
        self.policy.on_invalidate(set, way);
    }

    /// Empties `(set, way)` *without* a policy callback or event: the
    /// slot's line left in a way the policy must not observe (Base-Victim
    /// displacing a Baseline line, which the uncompressed mirror
    /// replaces silently).
    pub fn clear(&mut self, set: usize, way: usize)
    where
        S: SlotMeta,
    {
        let i = self.tags.index(set, way);
        self.tags.clear(set, way);
        self.metas[i] = S::empty();
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
    fn install_and_invalidate_keep_tags_and_metas_in_step() {
        let mut e = engine();
        e.install(2, 0, 7, Tagged(9), SegmentCount::FULL);
        e.install(3, 1, 11, Tagged(2), SegmentCount::FULL);
        assert_eq!(e.tags().find(2, 7), Some(0));
        assert_eq!(e.meta(2, 0), &Tagged(9));
        assert_eq!(e.tags().valid_count(), 2);
        e.invalidate(2, 0);
        assert_eq!(e.tags().find(2, 7), None);
        assert_eq!(e.meta(2, 0), &Tagged(0));
        assert_eq!(e.tags().valid_count(), 1);
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
    fn clear_empties_the_slot_without_telling_the_policy() {
        let mut e = engine();
        e.install(2, 0, 8, Tagged(1), SegmentCount::FULL);
        e.install(2, 1, 9, Tagged(4), SegmentCount::FULL);
        e.set_dirty(2, 1);
        *e.meta_mut(2, 1) = Tagged(8);
        assert_eq!(e.meta(2, 1), &Tagged(8));
        assert!(e.tags().is_dirty(2, 1));
        // Way 0 is LRU. A cleared way 1 is free, but the policy still
        // ranks it as the most recent fill.
        e.clear(2, 1);
        assert_eq!(e.tags().find(2, 9), None);
        assert!(!e.tags().is_dirty(2, 1));
        assert_eq!(e.meta(2, 1), &Tagged(0));
        assert_eq!(e.fill_way(2), 1);
        assert_eq!(e.victim(2), 0);
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
        const { assert!(RingSink::ENABLED) };
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
        const { assert!(!NoEventSink::ENABLED) };
        e.install(0, 0, 1, Tagged(0), SegmentCount::FULL);
        e.demand_hit(0, 0);
        assert!(e.drain_events().is_empty());
    }
}
