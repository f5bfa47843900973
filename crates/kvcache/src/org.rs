//! The three byte-budgeted cache-tier organizations.
//!
//! Each tier stores variable-sized values under a fixed byte budget and
//! differs only in what it charges against that budget:
//!
//! * [`UncompressedKv`] — charges logical bytes; the baseline every
//!   comparison is anchored to.
//! * [`CompressedKv`] — naive always-compress: charges BDI-compressed
//!   bytes, so it holds more entries but its replacement decisions
//!   diverge from the uncompressed tier (the software analogue of the
//!   two-tag LLC designs the paper argues against).
//! * [`BaseVictimKv`] — the paper's opportunistic idea one level up:
//!   admission/eviction decisions are made exactly as the uncompressed
//!   tier would (charging logical bytes), so the *baseline area* always
//!   holds exactly the uncompressed tier's contents; values are stored
//!   compressed, and the slack this creates hosts a *victim area* of
//!   recently evicted entries that can serve extra hits but can never
//!   influence a baseline decision. Hit rate is therefore guaranteed
//!   `>=` the uncompressed tier at equal budget — the kv-level mirror
//!   of the paper's Section III invariant, checked op-by-op in
//!   [`crate::lockstep`].
//!
//! Event tracing mirrors the LLC organizations: every tier is generic
//! over an [`EventSink`] monomorphized to nothing by default. Since a
//! kv tier has no sets or ways, events use a 1024-bucket hash of the
//! key as the `set` and express sizes in 64-byte lines (clamped to
//! 255) rather than 4-byte segments.

use crate::lru::LruMap;
use crate::value::ValueMeta;
use bv_events::{CacheEvent, DropCause, EventKind, EventSink, EvictCause, NoEventSink};

/// Event `set` buckets for kv keys (power of two, heatmap-friendly).
pub const KV_EVENT_BUCKETS: u64 = 1024;

/// Which tier organization to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KvOrgKind {
    /// Values stored raw; budget charged at logical size.
    Uncompressed,
    /// Values stored compressed; budget charged at compressed size.
    Compressed,
    /// Uncompressed-mirror decisions plus an opportunistic compressed
    /// victim area in the slack.
    BaseVictim,
}

impl KvOrgKind {
    /// Every organization, for sweeps and goldens.
    pub const ALL: [KvOrgKind; 3] = [
        KvOrgKind::Uncompressed,
        KvOrgKind::Compressed,
        KvOrgKind::BaseVictim,
    ];

    /// Stable lower-case name (the CLI `--org` value).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KvOrgKind::Uncompressed => "uncompressed",
            KvOrgKind::Compressed => "compressed",
            KvOrgKind::BaseVictim => "base-victim",
        }
    }

    /// The names [`KvOrgKind::from_name`] accepts, for error messages.
    pub const NAMES: &'static str = "uncompressed, compressed, base-victim";

    /// Parses [`KvOrgKind::name`] back.
    #[must_use]
    pub fn from_name(s: &str) -> Option<KvOrgKind> {
        Some(match s {
            "uncompressed" => KvOrgKind::Uncompressed,
            "compressed" => KvOrgKind::Compressed,
            "base-victim" => KvOrgKind::BaseVictim,
            _ => return None,
        })
    }

    /// Builds the untraced tier.
    #[must_use]
    pub fn build(self, budget: u64) -> KvCache {
        self.build_traced(budget, NoEventSink)
    }

    /// Builds the tier around an event sink.
    #[must_use]
    pub fn build_traced<S: EventSink>(self, budget: u64, sink: S) -> KvCacheWith<S> {
        match self {
            KvOrgKind::Uncompressed => KvCacheWith::Uncompressed(UncompressedKv::new(budget, sink)),
            KvOrgKind::Compressed => KvCacheWith::Compressed(CompressedKv::new(budget, sink)),
            KvOrgKind::BaseVictim => KvCacheWith::BaseVictim(BaseVictimKv::new(budget, sink)),
        }
    }
}

/// What a `get` did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOutcome {
    /// Served from the baseline (decision-making) area.
    BaseHit,
    /// Served from the opportunistic victim area (base-victim only).
    VictimHit,
    /// Fetched from the backing store and admitted.
    Miss,
    /// Fetched from the backing store but too large to admit.
    Bypass,
}

impl KvOutcome {
    /// True for both hit flavors.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, KvOutcome::BaseHit | KvOutcome::VictimHit)
    }
}

/// Every counter a kv tier maintains. All integers, so golden snapshots
/// pin them bit-for-bit; rates are derived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvStats {
    /// `get` requests served.
    pub gets: u64,
    /// Gets served from the baseline area.
    pub base_hits: u64,
    /// Gets rescued by the victim area.
    pub victim_hits: u64,
    /// Gets that went to the backing store.
    pub misses: u64,
    /// `put` requests served.
    pub puts: u64,
    /// Values admitted (fills), from either op.
    pub admitted: u64,
    /// Requests whose value exceeded the whole budget (never admitted).
    pub bypassed: u64,
    /// Baseline-area evictions (replacement decisions).
    pub evictions: u64,
    /// Evicted entries successfully parked in the victim area.
    pub victim_inserts: u64,
    /// Evicted entries that found no victim-area room.
    pub victim_insert_failures: u64,
    /// Victim entries displaced by newer parked entries.
    pub victim_evictions: u64,
    /// Victim entries dropped because baseline growth shrank the slack.
    pub victim_overflow_drops: u64,
    /// Cumulative logical bytes over admissions.
    pub admitted_bytes: u64,
    /// Cumulative compressed bytes over admissions.
    pub admitted_compressed_bytes: u64,
}

impl KvStats {
    /// Hits of either flavor.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.base_hits + self.victim_hits
    }

    /// Get hit rate in `[0, 1]` (0 when no gets ran).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.hits() as f64 / self.gets as f64
        }
    }

    /// Mean compression ratio over admitted values (1.0 when nothing
    /// was admitted).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.admitted_bytes == 0 {
            1.0
        } else {
            self.admitted_compressed_bytes as f64 / self.admitted_bytes as f64
        }
    }
}

/// Point-in-time occupancy, shared across organizations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvOccupancy {
    /// Physical bytes charged against the budget.
    pub resident_bytes: u64,
    /// Logical bytes resident (the "bytes-effective" numerator: how
    /// much data the tier actually serves from its budget).
    pub logical_bytes: u64,
    /// Baseline-area entries.
    pub entries: u64,
    /// Victim-area physical bytes (base-victim only).
    pub victim_bytes: u64,
    /// Victim-area entries (base-victim only).
    pub victim_entries: u64,
}

fn bucket(key: u64) -> usize {
    (key % KV_EVENT_BUCKETS) as usize
}

/// Size in 64-byte lines, clamped to the event schema's `u8`.
fn lines(meta: ValueMeta) -> u8 {
    u64::from(meta.compressed).div_ceil(64).clamp(1, 255) as u8
}

/// The uncompressed baseline tier: plain byte-budgeted LRU.
#[derive(Debug)]
pub struct UncompressedKv<S: EventSink = NoEventSink> {
    lru: LruMap,
    budget: u64,
    stats: KvStats,
    sink: S,
}

impl<S: EventSink> UncompressedKv<S> {
    /// An empty tier with `budget` bytes of capacity.
    #[must_use]
    pub fn new(budget: u64, sink: S) -> UncompressedKv<S> {
        UncompressedKv {
            lru: LruMap::new(),
            budget,
            stats: KvStats::default(),
            sink,
        }
    }

    /// Looks `key` up; on a miss the value is fetched (its metadata
    /// produced by `fetch`) and admitted when it can ever fit.
    pub fn get(&mut self, key: u64, fetch: impl FnOnce() -> ValueMeta) -> KvOutcome {
        self.stats.gets += 1;
        if self.lru.touch(key).is_some() {
            self.stats.base_hits += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(key),
                    EventKind::DemandHit { tag: key },
                ));
            }
            return KvOutcome::BaseHit;
        }
        self.stats.misses += 1;
        if S::ENABLED {
            self.sink
                .emit(CacheEvent::set_wide(bucket(key), EventKind::DemandMiss));
        }
        self.admit(key, fetch())
    }

    /// Writes `key` (write-allocate, write-through backing store).
    pub fn put(&mut self, key: u64, fetch: impl FnOnce() -> ValueMeta) {
        self.stats.puts += 1;
        if self.lru.touch(key).is_some() {
            return;
        }
        self.admit(key, fetch());
    }

    fn admit(&mut self, key: u64, meta: ValueMeta) -> KvOutcome {
        if u64::from(meta.bytes) > self.budget {
            self.stats.bypassed += 1;
            return KvOutcome::Bypass;
        }
        self.stats.admitted += 1;
        self.stats.admitted_bytes += u64::from(meta.bytes);
        self.stats.admitted_compressed_bytes += u64::from(meta.compressed);
        self.lru.insert_front(key, meta);
        if S::ENABLED {
            self.sink.emit(CacheEvent::set_wide(
                bucket(key),
                EventKind::Fill {
                    tag: key,
                    size: lines(meta),
                },
            ));
        }
        while self.lru.sum_bytes() > self.budget {
            let (victim, _) = self.lru.pop_lru().expect("over budget implies entries");
            self.stats.evictions += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(victim),
                    EventKind::Eviction {
                        tag: victim,
                        cause: EvictCause::Replacement,
                    },
                ));
            }
        }
        KvOutcome::Miss
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// Resets flow counters (end of warmup), keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = KvStats::default();
    }

    /// Point-in-time occupancy.
    #[must_use]
    pub fn occupancy(&self) -> KvOccupancy {
        KvOccupancy {
            resident_bytes: self.lru.sum_bytes(),
            logical_bytes: self.lru.sum_bytes(),
            entries: self.lru.len() as u64,
            victim_bytes: 0,
            victim_entries: 0,
        }
    }

    /// Keys in recency order — the full decision state, for lockstep
    /// comparison.
    #[must_use]
    pub fn keys_mru(&self) -> Vec<u64> {
        self.lru.keys_mru()
    }

    /// The byte budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Drains captured events (empty for non-retaining sinks).
    pub fn drain_events(&mut self) -> Vec<CacheEvent> {
        self.sink.drain()
    }

    /// Events the sink overwrote.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.sink.dropped()
    }
}

/// The naive always-compress tier: LRU charged at compressed size.
#[derive(Debug)]
pub struct CompressedKv<S: EventSink = NoEventSink> {
    lru: LruMap,
    budget: u64,
    stats: KvStats,
    sink: S,
}

impl<S: EventSink> CompressedKv<S> {
    /// An empty tier with `budget` bytes of capacity.
    #[must_use]
    pub fn new(budget: u64, sink: S) -> CompressedKv<S> {
        CompressedKv {
            lru: LruMap::new(),
            budget,
            stats: KvStats::default(),
            sink,
        }
    }

    /// Looks `key` up; admits on miss if the compressed value fits.
    pub fn get(&mut self, key: u64, fetch: impl FnOnce() -> ValueMeta) -> KvOutcome {
        self.stats.gets += 1;
        if self.lru.touch(key).is_some() {
            self.stats.base_hits += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(key),
                    EventKind::DemandHit { tag: key },
                ));
            }
            return KvOutcome::BaseHit;
        }
        self.stats.misses += 1;
        if S::ENABLED {
            self.sink
                .emit(CacheEvent::set_wide(bucket(key), EventKind::DemandMiss));
        }
        self.admit(key, fetch())
    }

    /// Writes `key` (write-allocate).
    pub fn put(&mut self, key: u64, fetch: impl FnOnce() -> ValueMeta) {
        self.stats.puts += 1;
        if self.lru.touch(key).is_some() {
            return;
        }
        self.admit(key, fetch());
    }

    fn admit(&mut self, key: u64, meta: ValueMeta) -> KvOutcome {
        if u64::from(meta.compressed) > self.budget {
            self.stats.bypassed += 1;
            return KvOutcome::Bypass;
        }
        self.stats.admitted += 1;
        self.stats.admitted_bytes += u64::from(meta.bytes);
        self.stats.admitted_compressed_bytes += u64::from(meta.compressed);
        self.lru.insert_front(key, meta);
        if S::ENABLED {
            self.sink.emit(CacheEvent::set_wide(
                bucket(key),
                EventKind::Fill {
                    tag: key,
                    size: lines(meta),
                },
            ));
        }
        while self.lru.sum_compressed() > self.budget {
            let (victim, _) = self.lru.pop_lru().expect("over budget implies entries");
            self.stats.evictions += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(victim),
                    EventKind::Eviction {
                        tag: victim,
                        cause: EvictCause::Replacement,
                    },
                ));
            }
        }
        KvOutcome::Miss
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// Resets flow counters (end of warmup), keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = KvStats::default();
    }

    /// Point-in-time occupancy.
    #[must_use]
    pub fn occupancy(&self) -> KvOccupancy {
        KvOccupancy {
            resident_bytes: self.lru.sum_compressed(),
            logical_bytes: self.lru.sum_bytes(),
            entries: self.lru.len() as u64,
            victim_bytes: 0,
            victim_entries: 0,
        }
    }

    /// The byte budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Drains captured events (empty for non-retaining sinks).
    pub fn drain_events(&mut self) -> Vec<CacheEvent> {
        self.sink.drain()
    }

    /// Events the sink overwrote.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.sink.dropped()
    }
}

/// The Base-Victim tier: an uncompressed-mirror baseline area plus an
/// opportunistic compressed victim area living in the slack that
/// compression opens up.
///
/// Two invariants hold after every operation (checked by
/// [`BaseVictimKv::check_invariants`] in tests and the fuzz suite):
///
/// 1. **Decision mirror** — the baseline area's keys and recency order
///    are exactly the uncompressed tier's at the same request stream.
/// 2. **Byte budget** — baseline compressed bytes + victim compressed
///    bytes `<=` budget (the physical store never overflows).
#[derive(Debug)]
pub struct BaseVictimKv<S: EventSink = NoEventSink> {
    baseline: LruMap,
    victim: LruMap,
    budget: u64,
    stats: KvStats,
    sink: S,
}

impl<S: EventSink> BaseVictimKv<S> {
    /// An empty tier with `budget` bytes of capacity.
    #[must_use]
    pub fn new(budget: u64, sink: S) -> BaseVictimKv<S> {
        BaseVictimKv {
            baseline: LruMap::new(),
            victim: LruMap::new(),
            budget,
            stats: KvStats::default(),
            sink,
        }
    }

    /// Looks `key` up in the baseline, then the victim area; a victim
    /// hit promotes the entry back into the baseline exactly as the
    /// uncompressed tier would fill it after its (inevitable) miss, so
    /// the mirror property is preserved.
    pub fn get(&mut self, key: u64, fetch: impl FnOnce() -> ValueMeta) -> KvOutcome {
        self.stats.gets += 1;
        if self.baseline.touch(key).is_some() {
            self.stats.base_hits += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(key),
                    EventKind::DemandHit { tag: key },
                ));
            }
            return KvOutcome::BaseHit;
        }
        if let Some(meta) = self.victim.remove(key) {
            self.stats.victim_hits += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(key),
                    EventKind::VictimHit {
                        tag: key,
                        size: lines(meta),
                    },
                ));
            }
            // The uncompressed mirror misses here and fills; replay the
            // identical admission so the baselines stay in lockstep.
            self.admit(key, meta);
            return KvOutcome::VictimHit;
        }
        self.stats.misses += 1;
        if S::ENABLED {
            self.sink
                .emit(CacheEvent::set_wide(bucket(key), EventKind::DemandMiss));
        }
        self.admit(key, fetch())
    }

    /// Writes `key` (write-allocate). A stale victim copy is discarded
    /// so the rewritten value cannot be served from the victim area.
    pub fn put(&mut self, key: u64, fetch: impl FnOnce() -> ValueMeta) {
        self.stats.puts += 1;
        if self.baseline.touch(key).is_some() {
            return;
        }
        if self.victim.remove(key).is_some() && S::ENABLED {
            self.sink.emit(CacheEvent::set_wide(
                bucket(key),
                EventKind::SilentDrop {
                    tag: key,
                    cause: DropCause::Displaced,
                },
            ));
        }
        self.admit(key, fetch());
    }

    /// The shared fill path: baseline admission mirroring the
    /// uncompressed tier, then opportunistic parking of what it
    /// displaced.
    fn admit(&mut self, key: u64, meta: ValueMeta) -> KvOutcome {
        if u64::from(meta.bytes) > self.budget {
            self.stats.bypassed += 1;
            return KvOutcome::Bypass;
        }
        self.stats.admitted += 1;
        self.stats.admitted_bytes += u64::from(meta.bytes);
        self.stats.admitted_compressed_bytes += u64::from(meta.compressed);
        self.baseline.insert_front(key, meta);
        if S::ENABLED {
            self.sink.emit(CacheEvent::set_wide(
                bucket(key),
                EventKind::Fill {
                    tag: key,
                    size: lines(meta),
                },
            ));
        }
        // Baseline decisions charge logical bytes — the uncompressed
        // tier's exact rule.
        let mut displaced = Vec::new();
        while self.baseline.sum_bytes() > self.budget {
            let (victim, vmeta) = self
                .baseline
                .pop_lru()
                .expect("over budget implies entries");
            self.stats.evictions += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(victim),
                    EventKind::Eviction {
                        tag: victim,
                        cause: EvictCause::Replacement,
                    },
                ));
            }
            displaced.push((victim, vmeta));
        }
        // The new resident may compress worse than what left: shrink
        // the victim area to the new slack before parking anything.
        self.enforce_slack();
        for (victim, vmeta) in displaced {
            self.park(victim, vmeta);
        }
        KvOutcome::Miss
    }

    /// Opportunistically parks a displaced baseline entry in the slack.
    fn park(&mut self, key: u64, meta: ValueMeta) {
        let slack = self.budget - self.baseline.sum_compressed();
        if u64::from(meta.compressed) > slack {
            self.stats.victim_insert_failures += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(key),
                    EventKind::VictimInsertFail {
                        tag: key,
                        size: lines(meta),
                    },
                ));
            }
            return;
        }
        while self.victim.sum_compressed() + u64::from(meta.compressed) > slack {
            let (dropped, _) = self
                .victim
                .pop_lru()
                .expect("area non-empty while over slack");
            self.stats.victim_evictions += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(dropped),
                    EventKind::SilentDrop {
                        tag: dropped,
                        cause: DropCause::Displaced,
                    },
                ));
            }
        }
        self.victim.insert_front(key, meta);
        self.stats.victim_inserts += 1;
        if S::ENABLED {
            self.sink.emit(CacheEvent::set_wide(
                bucket(key),
                EventKind::VictimInsert {
                    tag: key,
                    size: lines(meta),
                },
            ));
        }
    }

    /// Drops victim-LRU entries until the area fits the current slack
    /// (called when baseline growth shrinks it).
    fn enforce_slack(&mut self) {
        let slack = self.budget - self.baseline.sum_compressed();
        while self.victim.sum_compressed() > slack {
            let (dropped, _) = self
                .victim
                .pop_lru()
                .expect("area non-empty while over slack");
            self.stats.victim_overflow_drops += 1;
            if S::ENABLED {
                self.sink.emit(CacheEvent::set_wide(
                    bucket(dropped),
                    EventKind::SilentDrop {
                        tag: dropped,
                        cause: DropCause::PairOverflow,
                    },
                ));
            }
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// Resets flow counters (end of warmup), keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = KvStats::default();
    }

    /// Point-in-time occupancy.
    #[must_use]
    pub fn occupancy(&self) -> KvOccupancy {
        KvOccupancy {
            resident_bytes: self.baseline.sum_compressed() + self.victim.sum_compressed(),
            logical_bytes: self.baseline.sum_bytes() + self.victim.sum_bytes(),
            entries: self.baseline.len() as u64,
            victim_bytes: self.victim.sum_compressed(),
            victim_entries: self.victim.len() as u64,
        }
    }

    /// Baseline keys in recency order — compared against the
    /// uncompressed tier by the lockstep auditor.
    #[must_use]
    pub fn baseline_keys_mru(&self) -> Vec<u64> {
        self.baseline.keys_mru()
    }

    /// The byte budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Asserts the byte-budget and area-disjointness invariants;
    /// returns a description of the first violation instead of
    /// panicking so fuzz drivers can report context.
    ///
    /// # Errors
    ///
    /// Returns a human-readable violation description.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.baseline.sum_bytes() > self.budget {
            return Err(format!(
                "baseline logical bytes {} exceed budget {}",
                self.baseline.sum_bytes(),
                self.budget
            ));
        }
        let physical = self.baseline.sum_compressed() + self.victim.sum_compressed();
        if physical > self.budget {
            return Err(format!(
                "physical bytes {physical} (baseline {} + victim {}) exceed budget {}",
                self.baseline.sum_compressed(),
                self.victim.sum_compressed(),
                self.budget
            ));
        }
        for key in self.victim.keys_mru() {
            if self.baseline.peek(key).is_some() {
                return Err(format!("key {key} resident in both areas"));
            }
        }
        Ok(())
    }

    /// Drains captured events (empty for non-retaining sinks).
    pub fn drain_events(&mut self) -> Vec<CacheEvent> {
        self.sink.drain()
    }

    /// Events the sink overwrote.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// Test-only perturbation: demotes the baseline MRU entry to LRU,
    /// breaking the mirror property on purpose so divergence detection
    /// can prove it is not vacuous (the kv analogue of the LLC
    /// auditor's `--inject`).
    pub fn inject_baseline_perturbation(&mut self) {
        let keys = self.baseline.keys_mru();
        // Touching every key but the MRU one, least-recent first,
        // rotates the MRU entry to the LRU position without changing
        // membership.
        for &key in keys[1.min(keys.len())..].iter().rev() {
            self.baseline.touch(key);
        }
    }
}

/// Enum dispatch over the three organizations (the untraced alias is
/// [`KvCache`]).
#[derive(Debug)]
pub enum KvCacheWith<S: EventSink = NoEventSink> {
    /// [`UncompressedKv`].
    Uncompressed(UncompressedKv<S>),
    /// [`CompressedKv`].
    Compressed(CompressedKv<S>),
    /// [`BaseVictimKv`].
    BaseVictim(BaseVictimKv<S>),
}

/// The untraced tier (events compiled out).
pub type KvCache = KvCacheWith<NoEventSink>;

impl<S: EventSink> KvCacheWith<S> {
    /// Which organization this is.
    #[must_use]
    pub fn kind(&self) -> KvOrgKind {
        match self {
            KvCacheWith::Uncompressed(_) => KvOrgKind::Uncompressed,
            KvCacheWith::Compressed(_) => KvOrgKind::Compressed,
            KvCacheWith::BaseVictim(_) => KvOrgKind::BaseVictim,
        }
    }

    /// Looks `key` up; fetches and admits on miss.
    pub fn get(&mut self, key: u64, fetch: impl FnOnce() -> ValueMeta) -> KvOutcome {
        match self {
            KvCacheWith::Uncompressed(t) => t.get(key, fetch),
            KvCacheWith::Compressed(t) => t.get(key, fetch),
            KvCacheWith::BaseVictim(t) => t.get(key, fetch),
        }
    }

    /// Writes `key` (write-allocate).
    pub fn put(&mut self, key: u64, fetch: impl FnOnce() -> ValueMeta) {
        match self {
            KvCacheWith::Uncompressed(t) => t.put(key, fetch),
            KvCacheWith::Compressed(t) => t.put(key, fetch),
            KvCacheWith::BaseVictim(t) => t.put(key, fetch),
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> &KvStats {
        match self {
            KvCacheWith::Uncompressed(t) => t.stats(),
            KvCacheWith::Compressed(t) => t.stats(),
            KvCacheWith::BaseVictim(t) => t.stats(),
        }
    }

    /// Resets flow counters (end of warmup), keeping contents.
    pub fn reset_stats(&mut self) {
        match self {
            KvCacheWith::Uncompressed(t) => t.reset_stats(),
            KvCacheWith::Compressed(t) => t.reset_stats(),
            KvCacheWith::BaseVictim(t) => t.reset_stats(),
        }
    }

    /// Point-in-time occupancy.
    #[must_use]
    pub fn occupancy(&self) -> KvOccupancy {
        match self {
            KvCacheWith::Uncompressed(t) => t.occupancy(),
            KvCacheWith::Compressed(t) => t.occupancy(),
            KvCacheWith::BaseVictim(t) => t.occupancy(),
        }
    }

    /// The byte budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        match self {
            KvCacheWith::Uncompressed(t) => t.budget(),
            KvCacheWith::Compressed(t) => t.budget(),
            KvCacheWith::BaseVictim(t) => t.budget(),
        }
    }

    /// Drains captured events (empty for non-retaining sinks).
    pub fn drain_events(&mut self) -> Vec<CacheEvent> {
        match self {
            KvCacheWith::Uncompressed(t) => t.drain_events(),
            KvCacheWith::Compressed(t) => t.drain_events(),
            KvCacheWith::BaseVictim(t) => t.drain_events(),
        }
    }

    /// Events the sink overwrote.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        match self {
            KvCacheWith::Uncompressed(t) => t.events_dropped(),
            KvCacheWith::Compressed(t) => t.events_dropped(),
            KvCacheWith::BaseVictim(t) => t.events_dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(bytes: u32, compressed: u32) -> ValueMeta {
        ValueMeta::new(bytes, compressed)
    }

    #[test]
    fn uncompressed_evicts_lru_beyond_budget() {
        let mut t: UncompressedKv = UncompressedKv::new(256, NoEventSink);
        for key in 0..4 {
            t.get(key, || meta(128, 64));
        }
        // Budget holds 2 entries; keys 2 and 3 remain.
        assert_eq!(t.occupancy().entries, 2);
        assert_eq!(t.get(3, || meta(128, 64)), KvOutcome::BaseHit);
        assert_eq!(t.get(0, || meta(128, 64)), KvOutcome::Miss);
        assert_eq!(t.stats().evictions, 3);
    }

    #[test]
    fn compressed_holds_more_entries_at_equal_budget() {
        let mut unc: UncompressedKv = UncompressedKv::new(512, NoEventSink);
        let mut cmp: CompressedKv = CompressedKv::new(512, NoEventSink);
        for key in 0..8 {
            unc.get(key, || meta(128, 32));
            cmp.get(key, || meta(128, 32));
        }
        assert_eq!(unc.occupancy().entries, 4);
        assert_eq!(cmp.occupancy().entries, 8);
    }

    #[test]
    fn base_victim_rescues_evicted_entries_from_slack() {
        // Budget 256, values 128 logical / 32 compressed: baseline holds
        // 2 (logical charge), and slack hosts the rest compressed.
        let mut t: BaseVictimKv = BaseVictimKv::new(256, NoEventSink);
        for key in 0..4 {
            t.get(key, || meta(128, 32));
        }
        t.check_invariants().expect("invariants");
        assert_eq!(t.stats().victim_inserts, 2, "evictions parked");
        // Key 0 was evicted from baseline but parked: a get is a
        // victim hit, not a miss.
        assert_eq!(t.get(0, || meta(128, 32)), KvOutcome::VictimHit);
        assert_eq!(t.stats().victim_hits, 1);
        t.check_invariants().expect("invariants after promote");
    }

    #[test]
    fn base_victim_incompressible_values_park_nothing() {
        let mut t: BaseVictimKv = BaseVictimKv::new(256, NoEventSink);
        for key in 0..4 {
            t.get(key, || meta(128, 128));
        }
        t.check_invariants().expect("invariants");
        assert_eq!(t.stats().victim_inserts, 0);
        assert_eq!(t.stats().victim_insert_failures, 2);
        assert_eq!(t.get(0, || meta(128, 128)), KvOutcome::Miss);
    }

    #[test]
    fn base_victim_slack_shrinks_when_baseline_compresses_worse() {
        let mut t: BaseVictimKv = BaseVictimKv::new(256, NoEventSink);
        // Fill with highly compressible entries, park victims.
        for key in 0..4 {
            t.get(key, || meta(128, 32));
        }
        assert!(t.occupancy().victim_entries > 0);
        // Now fill with incompressible entries: slack collapses and the
        // victim area must be flushed, never the baseline decisions.
        for key in 10..12 {
            t.get(key, || meta(128, 128));
        }
        t.check_invariants().expect("invariants");
        assert_eq!(t.occupancy().victim_entries, 0);
        assert!(t.stats().victim_overflow_drops + t.stats().victim_evictions > 0);
    }

    #[test]
    fn oversized_values_bypass_every_org() {
        for kind in KvOrgKind::ALL {
            let mut t = kind.build(128);
            t.get(1, || meta(1024, 8));
            match kind {
                // The compressed org charges compressed size, and 8 <= 128.
                KvOrgKind::Compressed => assert_eq!(t.stats().admitted, 1),
                _ => assert_eq!(t.stats().bypassed, 1, "{}", kind.name()),
            }
        }
    }

    #[test]
    fn put_is_write_allocate_and_invalidates_victim_copies() {
        let mut t: BaseVictimKv = BaseVictimKv::new(256, NoEventSink);
        for key in 0..4 {
            t.get(key, || meta(128, 32));
        }
        // Key 0 sits in the victim area; a put must not leave a stale
        // copy there.
        t.put(0, || meta(128, 32));
        t.check_invariants().expect("invariants");
        assert_eq!(t.get(0, || meta(128, 32)), KvOutcome::BaseHit);
    }

    #[test]
    fn org_names_round_trip() {
        for kind in KvOrgKind::ALL {
            assert_eq!(KvOrgKind::from_name(kind.name()), Some(kind));
        }
        assert!(KvOrgKind::from_name("bogus").is_none());
    }
}
