//! The Base-Victim opportunistic compressed LLC (Section IV of the paper).
//!
//! Each physical way carries **two tags**: tag 0 forms the **Baseline
//! cache**, tag 1 the **Victim cache**. The Baseline cache runs the
//! unmodified baseline replacement policy and therefore holds, at every
//! instant, exactly the lines an uncompressed cache would hold — this is
//! the architecture's hit-rate guarantee, enforced here and verified by
//! differential tests. Lines displaced from the Baseline cache are written
//! back if dirty (making them clean), then *opportunistically* parked in
//! the Victim cache of any way whose base line leaves enough free
//! segments. Victim lines are always clean, so they can be dropped
//! silently at any time: at most one memory writeback ever happens per
//! fill.
//!
//! The Baseline cache is a stock [`SetEngine`]: tag walk, fill-way choice,
//! and replacement bookkeeping are the shared substrate. Everything in
//! this file is the paper-specific delta — the Victim cache partnering,
//! clean-victim insertion policies, and promotion on victim hits.

use crate::slot::{
    line_addr, prefetch_miss, write_hit, writeback_miss, Fetch, LineMeta, LinePayloads, Sizer,
};
use crate::victim_policy::{VictimCandidate, VictimPolicyKind};
use crate::{Effects, HitKind, InclusionAgent, LlcOrganization, LlcStats, OpOutcome, ReadOutcome};
use bv_cache::engine::{find_tag, SetEngine};
use bv_cache::{CacheGeometry, LineAddr, PolicyKind, ReplacementPolicy};
use bv_compress::{Bdi, CacheLine, CompressionStats, Compressor, SegmentCount, SEGMENTS_PER_LINE};
use bv_events::{CacheEvent, DropCause, EventKind, EventSink, EvictCause, NoEventSink};

/// Whether the LLC maintains inclusion with the core caches.
///
/// The paper's primary design is inclusive (Section IV.B): victim lines
/// are always clean, inner copies are back-invalidated before a line
/// enters the Victim cache, and at most one writeback happens per fill.
/// Section IV.B.3 sketches the non-inclusive variant: victim lines may be
/// dirty (saving writeback traffic), no back-invalidations are sent, and
/// a write that hits the Victim cache promotes the line like a read hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum InclusionMode {
    /// Inclusive hierarchy with an always-clean Victim cache (default).
    #[default]
    Inclusive,
    /// Non-inclusive hierarchy; Victim-cache lines may be dirty.
    NonInclusive,
}

/// One line in transit: arriving from memory or the L2, promoted out of
/// the Victim cache, or displaced from the Baseline cache and awaiting
/// opportunistic insertion into the Victim cache.
#[derive(Clone, Copy, Debug)]
struct MovingLine {
    tag: u64,
    data: CacheLine,
    size: SegmentCount,
    /// A displaced line is only ever dirty in non-inclusive mode, where
    /// dirty lines may park in the Victim cache instead of being written
    /// back eagerly.
    dirty: bool,
}

/// The Victim cache's tag store, laid out like the Baseline engine's:
/// a contiguous tag row, per-set valid and dirty bitmasks, and parallel
/// size and insertion-stamp rows, all indexed `set * ways + way`. A
/// probe is [`find_tag`], the engine's tag match, over one set's tag
/// words.
#[derive(Clone, Debug)]
struct VictimTags {
    ways: usize,
    tags: Vec<u64>,
    valid: Vec<u64>,
    dirty: Vec<u64>,
    sizes: Vec<SegmentCount>,
    /// Insertion sequence numbers (LruFit variant).
    birth: Vec<u64>,
}

impl VictimTags {
    fn new(sets: usize, ways: usize) -> VictimTags {
        assert!(ways <= 64, "victim masks cover at most 64 ways");
        VictimTags {
            ways,
            tags: vec![0; sets * ways],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            sizes: vec![SegmentCount::FULL; sets * ways],
            birth: vec![0; sets * ways],
        }
    }

    /// The way of `set` whose valid victim line has `tag`.
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        find_tag(&self.tags[base..base + self.ways], self.valid[set], tag)
    }

    fn is_valid(&self, set: usize, way: usize) -> bool {
        self.valid[set] >> way & 1 == 1
    }

    fn is_dirty(&self, set: usize, way: usize) -> bool {
        self.dirty[set] >> way & 1 == 1
    }

    fn tag(&self, set: usize, way: usize) -> u64 {
        self.tags[set * self.ways + way]
    }

    fn size(&self, set: usize, way: usize) -> SegmentCount {
        self.sizes[set * self.ways + way]
    }

    fn birth(&self, set: usize, way: usize) -> u64 {
        self.birth[set * self.ways + way]
    }

    /// Stores a line in `(set, way)`, stamped with insertion number
    /// `birth`.
    fn insert(&mut self, set: usize, way: usize, line: &MovingLine, birth: u64) {
        let i = set * self.ways + way;
        self.tags[i] = line.tag;
        self.sizes[i] = line.size;
        self.birth[i] = birth;
        self.valid[set] |= 1 << way;
        self.dirty[set] = self.dirty[set] & !(1 << way) | u64::from(line.dirty) << way;
    }

    fn clear(&mut self, set: usize, way: usize) {
        self.valid[set] &= !(1 << way);
        self.dirty[set] &= !(1 << way);
    }

    /// Every valid `(set, way)`.
    fn iter_valid(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.valid.iter().enumerate().flat_map(move |(set, &mask)| {
            (0..self.ways)
                .filter(move |w| mask >> w & 1 == 1)
                .map(move |w| (set, w))
        })
    }
}

/// The Base-Victim opportunistic compressed LLC.
///
/// # Examples
///
/// ```
/// use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
/// use bv_compress::CacheLine;
/// use bv_core::{BaseVictimLlc, LlcOrganization, NoInner, VictimPolicyKind};
///
/// let geom = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
/// let mut llc = BaseVictimLlc::new(geom, PolicyKind::Nru, VictimPolicyKind::EcmLargestBase);
/// let mut inner = NoInner;
///
/// llc.fill(LineAddr::new(1), CacheLine::zeroed(), &mut inner);
/// assert!(llc.read(LineAddr::new(1), &mut inner).is_hit());
/// ```
pub struct BaseVictimLlc<E: EventSink = NoEventSink> {
    geom: CacheGeometry,
    /// The Baseline cache: one engine slot per physical way, driven by the
    /// unmodified baseline replacement policy.
    engine: SetEngine<LineMeta, E>,
    /// The Victim cache: the second tag of every physical way.
    victim: VictimTags,
    /// Baseline and Victim line data, indexed like the tags. Read only
    /// to move lines between the two caches, for the unchanged-data
    /// writeback shortcut, and by `peek_data`.
    base_data: LinePayloads,
    victim_data: LinePayloads,
    /// Reused buffer of the fitting ways for one victim insertion.
    candidates: Vec<VictimCandidate>,
    victim_kind: VictimPolicyKind,
    sizer: Sizer<dyn Compressor>,
    mode: InclusionMode,
    clock: u64,
    rng: u64,
}

impl<E: EventSink> core::fmt::Debug for BaseVictimLlc<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BaseVictimLlc")
            .field("geom", &self.geom)
            .field("victim_kind", &self.victim_kind)
            .field("mode", &self.mode)
            .field("compressor", &self.sizer.compressor().name())
            .field("stats", self.engine.stats())
            .finish_non_exhaustive()
    }
}

impl BaseVictimLlc {
    /// Engine tag slots per physical way: the Baseline cache's one tag.
    /// The second tag of each way (the Victim cache) lives outside the
    /// engine, so the baseline policy never sees it.
    pub const SLOTS_PER_WAY: usize = 1;

    /// Creates an empty inclusive Base-Victim LLC compressing with BDI
    /// over the given *physical* geometry (`geom.ways()` data ways per
    /// set, each carrying two tags).
    #[must_use]
    pub fn new(
        geom: CacheGeometry,
        policy: PolicyKind,
        victim_kind: VictimPolicyKind,
    ) -> BaseVictimLlc {
        BaseVictimLlc::with_sink(
            geom,
            policy,
            victim_kind,
            InclusionMode::Inclusive,
            Box::new(Bdi::new()),
            NoEventSink,
        )
    }

    /// The report name of a Base-Victim LLC with this victim-cache policy
    /// and inclusion mode: `base-victim` for the paper's default, else a
    /// suffix naming the variant.
    #[must_use]
    pub fn name_for(victim_kind: VictimPolicyKind, mode: InclusionMode) -> &'static str {
        if mode == InclusionMode::NonInclusive {
            return "base-victim-ni";
        }
        match victim_kind {
            VictimPolicyKind::EcmLargestBase => "base-victim",
            VictimPolicyKind::RandomFit => "base-victim-random-fit",
            VictimPolicyKind::LruFit => "base-victim-lru-fit",
            VictimPolicyKind::SmallestBase => "base-victim-smallest-base",
        }
    }
}

impl<E: EventSink> BaseVictimLlc<E> {
    /// Creates a Base-Victim LLC with an explicit inclusion mode and
    /// compression algorithm that reports cache events to `sink`.
    ///
    /// [`InclusionMode::NonInclusive`] is the variant of Section IV.B.3:
    /// victim lines may be dirty (saving writebacks), and writes that hit
    /// the Victim cache promote the line instead of being a protocol
    /// violation. The paper compresses with BDI; FPC and C-Pack plug in
    /// here for ablation studies. [`BaseVictimLlc::new`] routes here with
    /// [`NoEventSink`], which compiles the event path out entirely.
    #[must_use]
    pub fn with_sink(
        geom: CacheGeometry,
        policy: PolicyKind,
        victim_kind: VictimPolicyKind,
        mode: InclusionMode,
        compressor: Box<dyn Compressor>,
        sink: E,
    ) -> BaseVictimLlc<E> {
        let sets = geom.sets();
        let ways = geom.ways();
        BaseVictimLlc {
            geom,
            engine: SetEngine::with_sink(sets, ways * BaseVictimLlc::SLOTS_PER_WAY, policy, sink),
            victim: VictimTags::new(sets, ways),
            base_data: LinePayloads::new(sets, ways),
            victim_data: LinePayloads::new(sets, ways),
            candidates: Vec::with_capacity(ways),
            victim_kind,
            sizer: Sizer::new(compressor),
            mode,
            clock: 0,
            rng: 0x1234_5678_9abc_def1,
        }
    }

    /// The inclusion mode in use.
    #[must_use]
    pub fn inclusion_mode(&self) -> InclusionMode {
        self.mode
    }

    /// The victim-cache insertion policy in use.
    #[must_use]
    pub fn victim_policy(&self) -> VictimPolicyKind {
        self.victim_kind
    }

    fn find_base(&self, addr: LineAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_index(addr.get());
        let tag = self.geom.tag(addr.get());
        self.engine.find(set, tag).map(|w| (set, w))
    }

    fn find_victim(&self, addr: LineAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_index(addr.get());
        let tag = self.geom.tag(addr.get());
        self.victim.find(set, tag).map(|w| (set, w))
    }

    /// Removes the Victim-cache line of `(set, way)` for promotion,
    /// returning it with its data.
    fn take_victim(&mut self, set: usize, way: usize) -> MovingLine {
        let line = MovingLine {
            tag: self.victim.tag(set, way),
            data: self.victim_data.get(set, way),
            size: self.victim.size(set, way),
            dirty: self.victim.is_dirty(set, way),
        };
        self.victim.clear(set, way);
        line
    }

    fn next_rng(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Displaces the base occupant of `(set, way)`, if any.
    ///
    /// Inclusive mode: back-invalidates inner copies and writes dirty data
    /// to memory, returning a clean line for opportunistic victim
    /// insertion (Section IV.B). Non-inclusive mode: no back-invalidation,
    /// and the line keeps its dirty bit — it may park dirty in the Victim
    /// cache (Section IV.B.3).
    ///
    /// The slot is cleared *without* a policy callback: the baseline
    /// policy only ever observes the fill that triggered the displacement,
    /// exactly as it would in the uncompressed mirror.
    fn displace_base(
        &mut self,
        set: usize,
        way: usize,
        inner: &mut dyn InclusionAgent,
        effects: &mut Effects,
    ) -> Option<MovingLine> {
        let slot = self.engine.slot(set, way).copied();
        if !slot.valid {
            return None;
        }
        if E::ENABLED {
            // "Eviction" = left the Baseline cache by replacement; a
            // following victim-insert event shows opportunistic retention.
            self.engine.emit(CacheEvent::new(
                set,
                way,
                EventKind::Eviction {
                    tag: slot.tag,
                    cause: EvictCause::Replacement,
                },
            ));
        }
        let addr = line_addr(&self.geom, set, slot.tag);
        let stored = self.base_data.get(set, way);
        if self.mode == InclusionMode::NonInclusive {
            self.engine.slot_mut(set, way).clear();
            return Some(MovingLine {
                tag: slot.tag,
                data: stored,
                size: slot.meta.size,
                dirty: slot.meta.dirty,
            });
        }
        effects.back_invalidations += 1;
        let inner_dirty = inner.back_invalidate(addr);
        let (data, dirty) = match inner_dirty {
            Some(fresh) => (fresh, true),
            None => (stored, slot.meta.dirty),
        };
        if dirty {
            effects.memory_writes += 1;
        }
        let size = if inner_dirty.is_some() {
            self.sizer.encode(&data)
        } else {
            slot.meta.size
        };
        self.engine.slot_mut(set, way).clear();
        Some(MovingLine {
            tag: slot.tag,
            data,
            size,
            dirty: false,
        })
    }

    /// Opportunistically inserts a clean displaced line into the Victim
    /// cache of `set`. Silently drops the previous occupant of the chosen
    /// way. Counts one migration on success.
    fn insert_victim(&mut self, set: usize, line: MovingLine, effects: &mut Effects) {
        self.candidates.clear();
        for w in 0..self.geom.ways() {
            let base = self.engine.slot(set, w);
            let base_size = if base.valid {
                base.meta.size
            } else {
                SegmentCount::MIN
            };
            let used = if base.valid {
                base_size.get() as usize
            } else {
                0
            };
            if used + line.size.get() as usize <= SEGMENTS_PER_LINE {
                let occupied = self.victim.is_valid(set, w);
                self.candidates.push(VictimCandidate {
                    way: w,
                    base_size,
                    occupied,
                    occupant_age: if occupied {
                        self.clock - self.victim.birth(set, w)
                    } else {
                        0
                    },
                });
            }
        }
        let draw = self.next_rng();
        match self.victim_kind.choose(&self.candidates, draw) {
            Some(c) => {
                let occupied = self.victim.is_valid(set, c.way);
                // Inclusive: the previous occupant is clean — silent drop.
                // Non-inclusive: a dirty occupant must be written back.
                if occupied && self.victim.is_dirty(set, c.way) {
                    debug_assert_eq!(self.mode, InclusionMode::NonInclusive);
                    effects.memory_writes += 1;
                }
                if E::ENABLED {
                    if occupied {
                        self.engine.emit(CacheEvent::new(
                            set,
                            c.way,
                            EventKind::SilentDrop {
                                tag: self.victim.tag(set, c.way),
                                cause: DropCause::Displaced,
                            },
                        ));
                    }
                    self.engine.emit(CacheEvent::new(
                        set,
                        c.way,
                        EventKind::VictimInsert {
                            tag: line.tag,
                            size: line.size.get(),
                        },
                    ));
                }
                self.clock += 1;
                self.victim.insert(set, c.way, &line, self.clock);
                self.victim_data.put(set, c.way, &line.data);
                effects.migrations += 1;
                self.engine.stats_mut().victim_inserts += 1;
            }
            None => {
                // No fitting way: the line leaves the LLC entirely. In
                // inclusive mode it is already clean; in non-inclusive
                // mode a dirty line is written back now.
                if line.dirty {
                    debug_assert_eq!(self.mode, InclusionMode::NonInclusive);
                    effects.memory_writes += 1;
                }
                if E::ENABLED {
                    self.engine.emit(CacheEvent::set_wide(
                        set,
                        EventKind::VictimInsertFail {
                            tag: line.tag,
                            size: line.size.get(),
                        },
                    ));
                }
                self.engine.stats_mut().victim_insert_failures += 1;
            }
        }
    }

    /// Drops the victim partner of `(set, way)` if it no longer fits with
    /// a base line of `base_size`.
    fn enforce_pairing(
        &mut self,
        set: usize,
        way: usize,
        base_size: SegmentCount,
        effects: &mut Effects,
    ) {
        if self.victim.is_valid(set, way) && !base_size.fits_with(self.victim.size(set, way)) {
            // Inclusive: victim lines are clean, so this drop is silent.
            // Non-inclusive: a dirty victim pays a writeback here.
            if self.victim.is_dirty(set, way) {
                debug_assert_eq!(self.mode, InclusionMode::NonInclusive);
                effects.memory_writes += 1;
            }
            if E::ENABLED {
                let tag = self.victim.tag(set, way);
                self.engine.emit(CacheEvent::new(
                    set,
                    way,
                    EventKind::SilentDrop {
                        tag,
                        cause: DropCause::PairOverflow,
                    },
                ));
            }
            self.victim.clear(set, way);
            effects.partner_evictions += 1;
        }
    }

    /// Common install path for demand fills, prefetch fills, and victim
    /// promotions: displace the baseline victim, install the incoming
    /// line, enforce pairing, and re-insert the displaced line. Returns
    /// the way the line landed in (event emission only).
    fn install_base(
        &mut self,
        set: usize,
        line: MovingLine,
        inner: &mut dyn InclusionAgent,
        effects: &mut Effects,
    ) -> usize {
        let way = self.engine.fill_way(set);

        let displaced = self.displace_base(set, way, inner, effects);

        // Keep the victim partner only if it fits with the incoming line.
        self.enforce_pairing(set, way, line.size, effects);

        // Size-aware policies (CAMP) receive the compressed size; others
        // ignore it. The uncompressed mirror passes identical sizes, so
        // the mirror property is preserved.
        let meta = LineMeta {
            dirty: line.dirty,
            size: line.size,
        };
        self.engine.install(set, way, line.tag, meta, line.size);
        self.base_data.put(set, way, &line.data);

        if let Some(line) = displaced {
            self.insert_victim(set, line, effects);
        }
        way
    }

    /// The miss path of demand and prefetch fills: sizes the line from
    /// memory once and installs it. Its compression and fill events
    /// follow those of the displacement it caused.
    fn fill_from_memory(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
        fetch: Fetch,
    ) -> OpOutcome {
        let mut effects = Effects::default();
        let set = self.geom.set_index(addr.get());
        let tag = self.geom.tag(addr.get());
        let sizing = self.sizer.size(&data);
        let line = MovingLine {
            tag,
            data,
            size: sizing.size,
            dirty: false,
        };
        let way = self.install_base(set, line, inner, &mut effects);
        fetch.emit(&mut self.engine, set, way, tag, sizing, sizing.size);
        fetch.finish(&mut self.engine, effects)
    }

    /// Addresses currently resident in the Baseline cache only. The
    /// differential test compares this against an
    /// [`UncompressedLlc`](crate::UncompressedLlc) driven with the same
    /// access stream.
    #[must_use]
    pub fn baseline_lines(&self) -> Vec<LineAddr> {
        self.engine
            .iter_valid()
            .map(|(set, _, s)| line_addr(&self.geom, set, s.tag))
            .collect()
    }

    /// Addresses currently resident in the Victim cache only.
    #[must_use]
    pub fn victim_lines(&self) -> Vec<LineAddr> {
        self.victim
            .iter_valid()
            .map(|(set, w)| line_addr(&self.geom, set, self.victim.tag(set, w)))
            .collect()
    }
}

impl<E: EventSink> LlcOrganization for BaseVictimLlc<E> {
    fn name(&self) -> &'static str {
        BaseVictimLlc::name_for(self.victim_kind, self.mode)
    }

    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn contains(&self, addr: LineAddr) -> bool {
        self.find_base(addr).is_some() || self.find_victim(addr).is_some()
    }

    fn read(&mut self, addr: LineAddr, inner: &mut dyn InclusionAgent) -> ReadOutcome {
        let mut effects = Effects::default();

        if let Some((set, way)) = self.find_base(addr) {
            let size = self.engine.slot(set, way).meta.size;
            self.engine.demand_hit(set, way);
            return ReadOutcome {
                kind: HitKind::Base(size),
                effects,
            };
        }

        if let Some((set, vway)) = self.find_victim(addr) {
            // Victim hit (Section IV.B.2): promote to the Baseline cache.
            // The Baseline policy sees exactly what the uncompressed cache
            // would: a miss, then a fill — but no read-miss is counted.
            self.engine.policy_mut().on_miss(set);
            let promoted = self.take_victim(set, vway);
            debug_assert!(
                !promoted.dirty || self.mode == InclusionMode::NonInclusive,
                "inclusive victim lines must be clean"
            );
            if E::ENABLED {
                self.engine.emit(CacheEvent::new(
                    set,
                    vway,
                    EventKind::VictimHit {
                        tag: promoted.tag,
                        size: promoted.size.get(),
                    },
                ));
            }
            effects.migrations += 1; // victim way -> base way data movement

            self.install_base(set, promoted, inner, &mut effects);

            self.engine.stats_mut().victim_hits += 1;
            self.engine.absorb(effects);
            return ReadOutcome {
                kind: HitKind::Victim(promoted.size),
                effects,
            };
        }

        let set = self.geom.set_index(addr.get());
        self.engine.demand_miss(set);
        ReadOutcome {
            kind: HitKind::Miss,
            effects,
        }
    }

    fn writeback(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        let mut effects = Effects::default();
        if let Some((set, way)) = self.find_base(addr) {
            // Write hit to the Baseline cache (Section IV.B.5): recompress;
            // if the line grew past its partner's space, silently evict the
            // partner, even if it was the victim set's MRU line.
            let unchanged = self.base_data.holds(set, way, &data);
            let cached = self.engine.slot(set, way).meta.size;
            let new_size = self.sizer.resize(unchanged, cached, &data);
            self.base_data.put(set, way, &data);
            let meta = &mut self.engine.slot_mut(set, way).meta;
            meta.dirty = true;
            meta.size = new_size;
            let tag = self.geom.tag(addr.get());
            write_hit(&mut self.engine, set, way, tag, new_size);
            self.enforce_pairing(set, way, new_size, &mut effects);
            self.engine.absorb(effects);
            return OpOutcome { effects };
        }
        if let Some((set, vway)) = self.find_victim(addr) {
            match self.mode {
                InclusionMode::Inclusive => {
                    // Section IV.B.3: "This case will not occur for
                    // inclusive caches" — victim insertion back-invalidated
                    // all inner copies, so the L2 cannot hold (let alone
                    // dirty) this line.
                    panic!("write hit to Victim cache is impossible under inclusion ({addr:?})");
                }
                InclusionMode::NonInclusive => {
                    // Section IV.B.3: handled exactly like a Victim-cache
                    // read hit, except the line is recompressed with the
                    // written data before promotion.
                    let promoted = self.take_victim(set, vway);
                    effects.migrations += 1;
                    let new_size = self
                        .sizer
                        .resize(promoted.data == data, promoted.size, &data);
                    let written = MovingLine {
                        tag: promoted.tag,
                        data,
                        size: new_size,
                        dirty: true,
                    };
                    self.install_base(set, written, inner, &mut effects);
                    self.engine.stats_mut().writeback_hits += 1;
                    self.engine.absorb(effects);
                    return OpOutcome { effects };
                }
            }
        }
        if self.mode == InclusionMode::NonInclusive {
            // Non-inclusive LLCs allocate on writeback: the line left the
            // LLC earlier but the L2 still held it.
            let set = self.geom.set_index(addr.get());
            let tag = self.geom.tag(addr.get());
            let line = MovingLine {
                tag,
                data,
                size: self.sizer.size(&data).size,
                dirty: true,
            };
            self.install_base(set, line, inner, &mut effects);
            self.engine.stats_mut().writeback_hits += 1;
            self.engine.absorb(effects);
            return OpOutcome { effects };
        }
        writeback_miss(&mut self.engine, addr)
    }

    fn fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        debug_assert!(!self.contains(addr), "fill of resident line {addr:?}");
        self.fill_from_memory(addr, data, inner, Fetch::Demand)
    }

    fn prefetch_fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> Option<OpOutcome> {
        let resident = self.find_base(addr).is_some();
        if !prefetch_miss(&mut self.engine, resident) {
            return None;
        }
        if let Some((set, vway)) = self.find_victim(addr) {
            // A prefetch that hits the Victim cache saves the memory read
            // but must still promote the line: the uncompressed mirror
            // would have installed it in the Baseline cache. The baseline
            // policy sees exactly what the uncompressed prefetch fill
            // would: a fill (no demand-miss event).
            let mut effects = Effects::default();
            let promoted = self.take_victim(set, vway);
            effects.migrations += 1;
            self.install_base(set, promoted, inner, &mut effects);
            self.engine.stats_mut().prefetch_hits += 1;
            self.engine.absorb(effects);
            return Some(OpOutcome { effects });
        }
        Some(self.fill_from_memory(addr, data, inner, Fetch::Prefetch))
    }

    fn peek_data(&self, addr: LineAddr) -> Option<CacheLine> {
        if let Some((set, way)) = self.find_base(addr) {
            return Some(self.base_data.get(set, way));
        }
        let (set, way) = self.find_victim(addr)?;
        Some(self.victim_data.get(set, way))
    }

    fn hint_downgrade(&mut self, addr: LineAddr) {
        // Hints apply to the Baseline cache only — exactly what the
        // uncompressed mirror would do. Victim-cache residency is never
        // hinted (victim lines are invisible to the baseline policy).
        if let Some((set, way)) = self.find_base(addr) {
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
        1 // doubled tags (Section V: "an additional cycle for tag lookup")
    }

    fn decompression_latency(&self, size: SegmentCount) -> u32 {
        self.sizer.compressor().decompression_latency(size, 2)
    }

    fn resident_lines(&self) -> Vec<LineAddr> {
        let mut lines = self.baseline_lines();
        lines.extend(self.victim_lines());
        lines
    }

    /// Panics if any invariant is violated: a dirty victim line in
    /// inclusive mode, a dirty bit on an empty victim slot, a base/victim
    /// pair exceeding the physical way capacity, or a line resident in
    /// both caches of a set.
    fn assert_invariants(&self) {
        let ways = self.geom.ways();
        for set in 0..self.geom.sets() {
            assert_eq!(
                self.victim.dirty[set] & !self.victim.valid[set],
                0,
                "dirty bit on an empty victim slot in set {set}"
            );
            for w in 0..ways {
                let b = self.engine.slot(set, w);
                let v_valid = self.victim.is_valid(set, w);
                if self.mode == InclusionMode::Inclusive {
                    assert!(
                        !v_valid || !self.victim.is_dirty(set, w),
                        "dirty victim line in set {set} way {w}"
                    );
                }
                if b.valid && v_valid {
                    let v_size = self.victim.size(set, w);
                    assert!(
                        b.meta.size.fits_with(v_size),
                        "pair overflow in set {set} way {w}: {} + {v_size}",
                        b.meta.size,
                    );
                }
            }
            // No address may be resident twice within a set.
            let mut tags: Vec<u64> = Vec::new();
            for w in 0..ways {
                let b = self.engine.slot(set, w);
                if b.valid {
                    assert!(
                        !tags.contains(&b.tag),
                        "tag {:#x} duplicated in set {set}",
                        b.tag
                    );
                    tags.push(b.tag);
                }
                if self.victim.is_valid(set, w) {
                    let tag = self.victim.tag(set, w);
                    assert!(!tags.contains(&tag), "tag {tag:#x} duplicated in set {set}");
                    tags.push(tag);
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
    use bv_testkit::fixtures;

    /// Builds a line whose BDI size is exactly `segments` (for the sizes
    /// BDI can produce: 1, 2, 5, 6, 7, 10, 11, 16).
    fn line_with_segments(segments: u8) -> CacheLine {
        let line = match segments {
            1 => CacheLine::zeroed(),
            2 => CacheLine::from_u64_words(&[0xdead_beef_f00d_0000; 8]),
            // B8D1: 17 B.
            5 => CacheLine::from_u64_words(&core::array::from_fn(|i| 0x7f00_0000_0000 + i as u64)),
            // B4D1: 22 B.
            6 => CacheLine::from_u32_words(&core::array::from_fn(|i| {
                0x0100_0000 + (i as u32 % 5) * 8 + (i as u32 & 1)
            })),
            // B8D2: 25 B.
            7 => CacheLine::from_u64_words(&core::array::from_fn(|i| {
                0x7f00_0000_0000 + i as u64 * 300
            })),
            // B4D2: 38 B.
            10 => {
                CacheLine::from_u32_words(&core::array::from_fn(|i| 0x0100_0000 + i as u32 * 2000))
            }
            // B8D4: 41 B.
            11 => CacheLine::from_u64_words(&core::array::from_fn(|i| {
                0x7f00_0000_0000 + i as u64 * 1_000_000
            })),
            16 => CacheLine::from_u64_words(&core::array::from_fn(|i| {
                (i as u64 + 1).wrapping_mul(0x0123_4567_89ab_cdef)
            })),
            other => panic!("no constructor for {other} segments"),
        };
        let got = Bdi::new().compressed_size(&line).get();
        assert_eq!(got, segments, "constructor produced {got} segments");
        line
    }

    /// A 4-set, 4-way toy cache, as in the paper's worked examples.
    fn toy() -> BaseVictimLlc {
        BaseVictimLlc::new(
            fixtures::toy_geometry(),
            fixtures::toy_policy(),
            VictimPolicyKind::EcmLargestBase,
        )
    }

    fn addr(set: u64, k: u64) -> LineAddr {
        LineAddr::new(set + 4 * k)
    }

    #[test]
    fn fill_miss_hit_cycle() {
        let mut c = toy();
        let mut inner = NoInner;
        let a = addr(0, 0);
        assert_eq!(c.read(a, &mut inner).kind, HitKind::Miss);
        c.fill(a, line_with_segments(5), &mut inner);
        let out = c.read(a, &mut inner);
        assert_eq!(out.kind, HitKind::Base(SegmentCount::new(5)));
        c.assert_invariants();
    }

    #[test]
    fn displaced_line_parks_in_victim_cache() {
        let mut c = toy();
        let mut inner = NoInner;
        // Fill 4 small lines into set 0; the 5th fill displaces the LRU
        // line, which should be retained in the Victim cache.
        for k in 0..4 {
            c.fill(addr(0, k), line_with_segments(5), &mut inner);
        }
        c.fill(addr(0, 4), line_with_segments(5), &mut inner);
        c.assert_invariants();
        // addr(0,0) left the Baseline cache but is still resident.
        assert!(!c.baseline_lines().contains(&addr(0, 0)));
        assert!(c.victim_lines().contains(&addr(0, 0)));
        assert_eq!(c.stats().victim_inserts, 1);

        // Reading it is a victim hit, which promotes it back.
        let out = c.read(addr(0, 0), &mut inner);
        assert_eq!(out.kind, HitKind::Victim(SegmentCount::new(5)));
        assert!(c.baseline_lines().contains(&addr(0, 0)));
        c.assert_invariants();
    }

    #[test]
    fn incompressible_victims_are_dropped() {
        let mut c = toy();
        let mut inner = NoInner;
        for k in 0..4 {
            c.fill(addr(0, k), line_with_segments(16), &mut inner);
        }
        c.fill(addr(0, 4), line_with_segments(16), &mut inner);
        // No way has 16 free segments: the displaced line is gone.
        assert!(!c.contains(addr(0, 0)));
        assert_eq!(c.stats().victim_insert_failures, 1);
        c.assert_invariants();
    }

    #[test]
    fn victim_hit_promotion_mirrors_miss_plus_fill_for_the_policy() {
        // After a victim hit, the baseline victim (LRU) must be the line an
        // uncompressed cache would have evicted for this access.
        let mut c = toy();
        let mut inner = NoInner;
        for k in 0..5 {
            c.fill(addr(0, k), line_with_segments(5), &mut inner);
        }
        // Baseline: {1,2,3,4}; victim cache: {0}. LRU of baseline is 1.
        let out = c.read(addr(0, 0), &mut inner);
        assert!(matches!(out.kind, HitKind::Victim(_)));
        assert!(
            !c.baseline_lines().contains(&addr(0, 1)),
            "LRU line displaced"
        );
        assert!(c.baseline_lines().contains(&addr(0, 0)), "promoted");
        // The displaced LRU line itself parked in the victim cache.
        assert!(c.victim_lines().contains(&addr(0, 1)));
        c.assert_invariants();
    }

    #[test]
    fn dirty_baseline_victim_writes_back_exactly_once() {
        let mut c = toy();
        let mut inner = NoInner;
        for k in 0..4 {
            c.fill(addr(0, k), line_with_segments(5), &mut inner);
        }
        // Dirty the future victim via an L2 writeback (it stays 5 segments).
        c.writeback(addr(0, 0), line_with_segments(5), &mut inner);
        let out = c.fill(addr(0, 4), line_with_segments(5), &mut inner);
        assert_eq!(
            out.effects.memory_writes, 1,
            "exactly one writeback per fill"
        );
        // The line is now clean and parked in the victim cache.
        assert!(c.victim_lines().contains(&addr(0, 0)));
        c.assert_invariants();
    }

    #[test]
    fn growing_write_evicts_victim_partner() {
        let mut c = toy();
        let mut inner = NoInner;
        // Base line of 5 segments shares way with an 11-segment victim.
        for k in 0..4 {
            c.fill(addr(0, k), line_with_segments(11), &mut inner);
        }
        c.fill(addr(0, 4), line_with_segments(5), &mut inner);
        // addr(0,0) (11 segs) parked with the 5-seg base in the same way.
        assert!(c.victim_lines().contains(&addr(0, 0)));
        // Rewrite the base line so it grows to 16 segments: partner must go.
        c.writeback(addr(0, 4), line_with_segments(16), &mut inner);
        assert!(!c.contains(addr(0, 0)), "grown line displaces its partner");
        assert_eq!(c.stats().partner_evictions, 1);
        c.assert_invariants();
    }

    #[test]
    fn fill_that_does_not_fit_partner_silently_evicts_it() {
        let mut c = toy();
        let mut inner = NoInner;
        for k in 0..4 {
            c.fill(addr(0, k), line_with_segments(11), &mut inner);
        }
        // Fill a 5-seg line: LRU (way 0) displaced, parked somewhere.
        c.fill(addr(0, 4), line_with_segments(5), &mut inner);
        let parked = c.victim_lines();
        assert_eq!(parked, vec![addr(0, 0)]);
        // Fill a 16-seg line: the victim partner of the chosen way cannot
        // stay if it shares that way.
        c.fill(addr(0, 5), line_with_segments(16), &mut inner);
        c.assert_invariants();
    }

    #[test]
    fn paper_figure_5_scenario() {
        // Reproduce the Victim-cache read-hit flow: E hits in the Victim
        // cache, the LRU baseline line B is displaced, E takes its place,
        // and B parks in the Victim cache.
        let mut c = toy();
        let mut inner = NoInner;
        // Build baseline {A0..A3}, all 5 segments.
        for k in 0..4 {
            c.fill(addr(1, k), line_with_segments(5), &mut inner);
        }
        // Displace A0 into the victim cache with a new fill E'.
        c.fill(addr(1, 9), line_with_segments(5), &mut inner);
        assert!(c.victim_lines().contains(&addr(1, 0)));
        // Touch everything but A1 so A1 is LRU.
        for k in [2, 3, 9] {
            assert!(c.read(addr(1, k), &mut inner).is_hit());
        }
        // Victim hit on A0: A1 (LRU) must be displaced and parked.
        let out = c.read(addr(1, 0), &mut inner);
        assert!(matches!(out.kind, HitKind::Victim(_)));
        assert!(c.baseline_lines().contains(&addr(1, 0)));
        assert!(!c.baseline_lines().contains(&addr(1, 1)));
        assert!(c.victim_lines().contains(&addr(1, 1)));
        c.assert_invariants();
    }

    #[test]
    fn back_invalidations_accompany_every_baseline_displacement() {
        let mut c = toy();
        let mut inner = NoInner;
        for k in 0..4 {
            c.fill(addr(2, k), line_with_segments(5), &mut inner);
        }
        let before = c.stats().back_invalidations;
        c.fill(addr(2, 7), line_with_segments(5), &mut inner);
        assert_eq!(c.stats().back_invalidations, before + 1);
    }

    #[test]
    #[should_panic(expected = "Victim cache is impossible")]
    fn writeback_to_victim_line_panics() {
        let mut c = toy();
        let mut inner = NoInner;
        for k in 0..5 {
            c.fill(addr(0, k), line_with_segments(5), &mut inner);
        }
        // addr(0,0) is in the victim cache; an L2 writeback to it violates
        // the inclusion protocol.
        c.writeback(addr(0, 0), line_with_segments(5), &mut inner);
    }

    #[test]
    fn zero_lines_have_no_decompression_latency() {
        let c = toy();
        assert_eq!(c.decompression_latency(SegmentCount::MIN), 0);
        assert_eq!(c.decompression_latency(SegmentCount::FULL), 0);
        assert_eq!(c.decompression_latency(SegmentCount::new(5)), 2);
        assert_eq!(c.tag_latency_penalty(), 1);
    }

    #[test]
    fn victim_insert_best_fit_prefers_fullest_base() {
        let mut c = toy();
        let mut inner = NoInner;
        // Ways get bases of sizes 5, 5, 11, 10 (fills in order, empty ways
        // first, so way index follows fill order).
        c.fill(addr(3, 0), line_with_segments(5), &mut inner);
        c.fill(addr(3, 1), line_with_segments(5), &mut inner);
        c.fill(addr(3, 2), line_with_segments(11), &mut inner);
        c.fill(addr(3, 3), line_with_segments(10), &mut inner);
        // Displace addr(3,0) (5 segs) with a 5-seg fill. Candidates for the
        // displaced line: every way with >= 5 free segments. The largest
        // base that still fits 5 segments is the 11-seg base (way 2).
        c.fill(addr(3, 4), line_with_segments(5), &mut inner);
        assert!(c.victim_lines().contains(&addr(3, 0)));
        // Verify it parked alongside the 11-segment base: reading the
        // 11-seg line and the victim line must coexist.
        c.assert_invariants();
        assert!(
            c.victim.is_valid(3, 2),
            "victim parked in way 2 (largest base)"
        );
    }

    fn toy_non_inclusive() -> BaseVictimLlc {
        BaseVictimLlc::with_sink(
            fixtures::toy_geometry(),
            fixtures::toy_policy(),
            VictimPolicyKind::EcmLargestBase,
            InclusionMode::NonInclusive,
            Box::new(Bdi::new()),
            NoEventSink,
        )
    }

    #[test]
    fn non_inclusive_parks_dirty_victims_without_writeback() {
        let mut c = toy_non_inclusive();
        let mut inner = NoInner;
        for k in 0..4 {
            c.fill(addr(0, k), line_with_segments(5), &mut inner);
        }
        // Dirty the future victim; its displacement must NOT write back.
        c.writeback(addr(0, 0), line_with_segments(5), &mut inner);
        let out = c.fill(addr(0, 4), line_with_segments(5), &mut inner);
        assert_eq!(
            out.effects.memory_writes, 0,
            "dirty victim parks without writeback"
        );
        assert_eq!(
            out.effects.back_invalidations, 0,
            "non-inclusive sends no back-invals"
        );
        assert!(c.victim_lines().contains(&addr(0, 0)));
        c.assert_invariants();
    }

    #[test]
    fn non_inclusive_dirty_victim_writes_back_when_dropped() {
        let mut c = toy_non_inclusive();
        let mut inner = NoInner;
        for k in 0..4 {
            c.fill(addr(0, k), line_with_segments(11), &mut inner);
        }
        c.writeback(addr(0, 0), line_with_segments(11), &mut inner);
        // Park the dirty 11-seg victim next to a 5-seg base.
        c.fill(addr(0, 4), line_with_segments(5), &mut inner);
        assert!(c.victim_lines().contains(&addr(0, 0)));
        // Grow the base so the dirty partner must be dropped: one
        // writeback must happen then.
        let out = c.writeback(addr(0, 4), line_with_segments(16), &mut inner);
        assert_eq!(
            out.effects.memory_writes, 1,
            "dirty partner drop pays the deferred writeback"
        );
        assert!(!c.contains(addr(0, 0)));
        c.assert_invariants();
    }

    #[test]
    fn non_inclusive_write_hit_to_victim_promotes() {
        let mut c = toy_non_inclusive();
        let mut inner = NoInner;
        for k in 0..5 {
            c.fill(addr(0, k), line_with_segments(5), &mut inner);
        }
        assert!(c.victim_lines().contains(&addr(0, 0)));
        // A writeback to the victim-resident line promotes it (Section
        // IV.B.3), rather than panicking as in inclusive mode.
        c.writeback(addr(0, 0), line_with_segments(5), &mut inner);
        assert!(c.baseline_lines().contains(&addr(0, 0)));
        c.assert_invariants();
    }

    #[test]
    fn non_inclusive_allocates_on_writeback_miss() {
        let mut c = toy_non_inclusive();
        let mut inner = NoInner;
        let a = addr(1, 0);
        assert!(!c.contains(a));
        c.writeback(a, line_with_segments(5), &mut inner);
        assert!(c.baseline_lines().contains(&a), "writeback allocate");
        c.assert_invariants();
    }

    #[test]
    fn inclusive_mode_is_the_default() {
        let c = toy();
        assert_eq!(c.inclusion_mode(), InclusionMode::Inclusive);
        let n = toy_non_inclusive();
        assert_eq!(n.inclusion_mode(), InclusionMode::NonInclusive);
    }

    #[test]
    fn alternative_compressors_plug_in() {
        use bv_compress::{Fpc, ZeroOnly};
        let geom = fixtures::toy_geometry();
        let mut inner = NoInner;
        for compressor in [
            Box::new(Fpc::new()) as Box<dyn Compressor>,
            Box::new(ZeroOnly::new()),
        ] {
            let mut c = BaseVictimLlc::with_sink(
                geom,
                fixtures::toy_policy(),
                VictimPolicyKind::EcmLargestBase,
                InclusionMode::Inclusive,
                compressor,
                NoEventSink,
            );
            // Zero lines compress to one segment under both algorithms:
            // five of them share four physical ways.
            for k in 0..5 {
                c.fill(addr(0, k), CacheLine::zeroed(), &mut inner);
            }
            assert!(c.contains(addr(0, 0)), "{}: victim retained", c.name());
            c.assert_invariants();
        }
    }

    #[test]
    fn stats_track_migrations() {
        let mut c = toy();
        let mut inner = NoInner;
        for k in 0..5 {
            c.fill(addr(0, k), line_with_segments(5), &mut inner);
        }
        assert_eq!(c.stats().migrations, 1); // one base->victim move
        c.read(addr(0, 0), &mut inner); // victim hit: promote + park
        assert_eq!(c.stats().migrations, 3);
    }
}
