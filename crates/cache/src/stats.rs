//! Per-cache statistics counters.

use core::fmt;

/// Event counters maintained by every cache level.
///
/// All experiment metrics (DRAM read ratio, hit-rate guarantees, LLC access
/// counts for the energy model) are derived from these counters.
///
/// # Examples
///
/// ```
/// use bv_cache::CacheStats;
///
/// let mut stats = CacheStats::default();
/// stats.read_hits = 90;
/// stats.read_misses = 10;
/// assert!((stats.hit_rate() - 0.9).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand read (load/ifetch) hits.
    pub read_hits: u64,
    /// Demand read misses.
    pub read_misses: u64,
    /// Demand write (store) hits.
    pub write_hits: u64,
    /// Demand write misses.
    pub write_misses: u64,
    /// Lines evicted (any reason).
    pub evictions: u64,
    /// Dirty evictions that produced a writeback to the next level.
    pub writebacks: u64,
    /// Lines invalidated by back-invalidation from an inclusive outer cache.
    pub back_invalidations: u64,
    /// Fill operations (lines installed).
    pub fills: u64,
}

impl CacheStats {
    /// Total demand accesses (reads + writes, excluding prefetches).
    #[must_use]
    pub fn demand_accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Total demand misses.
    #[must_use]
    pub fn demand_misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Total demand hits.
    #[must_use]
    pub fn demand_hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Demand hit rate in [0, 1]; 0 when no accesses were recorded.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_hits() as f64 / total as f64
        }
    }

    /// Demand misses per kilo-access, a scale-free miss metric.
    #[must_use]
    pub fn misses_per_kilo_access(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_misses() as f64 * 1000.0 / total as f64
        }
    }

    /// Adds another cache's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
        self.write_hits += other.write_hits;
        self.write_misses += other.write_misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.back_invalidations += other.back_invalidations;
        self.fills += other.fills;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} misses {} (hit rate {:.1}%), {} writebacks",
            self.demand_hits(),
            self.demand_misses(),
            self.hit_rate() * 100.0,
            self.writebacks
        )
    }
}

/// Side effects of one LLC operation, for the timing and energy models.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Effects {
    /// Lines written back to memory by this operation.
    pub memory_writes: u64,
    /// Back-invalidation messages sent to the inner caches.
    pub back_invalidations: u64,
    /// Data migrations between physical ways (Baseline <-> Victim moves),
    /// each costing one data-array read plus one write.
    pub migrations: u64,
    /// Compressed partner lines silently dropped to make room.
    pub partner_evictions: u64,
}

impl Effects {
    /// Accumulates another operation's effects.
    pub fn absorb(&mut self, other: Effects) {
        self.memory_writes += other.memory_writes;
        self.back_invalidations += other.back_invalidations;
        self.migrations += other.migrations;
        self.partner_evictions += other.partner_evictions;
    }
}

/// Counters shared by every LLC organization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// Demand reads that hit the Baseline cache (or the sole array).
    pub base_hits: u64,
    /// Demand reads that hit the Victim cache.
    pub victim_hits: u64,
    /// Demand reads that missed entirely.
    pub read_misses: u64,
    /// Writebacks from the L2 that hit.
    pub writeback_hits: u64,
    /// Writebacks from the L2 that missed (forwarded to memory; impossible
    /// under strict inclusion and asserted against in tests).
    pub writeback_misses: u64,
    /// Prefetch fills installed.
    pub prefetch_fills: u64,
    /// Prefetch probes that hit (no fill needed).
    pub prefetch_hits: u64,
    /// Demand fills installed (each implies one memory read).
    pub demand_fills: u64,
    /// Total lines written back to memory.
    pub memory_writes: u64,
    /// Total back-invalidations sent to inner caches.
    pub back_invalidations: u64,
    /// Total Baseline <-> Victim data migrations.
    pub migrations: u64,
    /// Compressed partner lines silently evicted.
    pub partner_evictions: u64,
    /// Victim-cache insertion attempts that found a fitting way.
    pub victim_inserts: u64,
    /// Victim-cache insertion attempts that found no fitting way.
    pub victim_insert_failures: u64,
}

impl LlcStats {
    /// Demand reads that hit anywhere in the LLC.
    #[must_use]
    pub fn read_hits(&self) -> u64 {
        self.base_hits + self.victim_hits
    }

    /// Counter-wise difference `self - snapshot`, for excluding warmup
    /// from measurements.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `snapshot` was taken after `self`.
    #[must_use]
    pub fn since(&self, snapshot: &LlcStats) -> LlcStats {
        LlcStats {
            base_hits: self.base_hits - snapshot.base_hits,
            victim_hits: self.victim_hits - snapshot.victim_hits,
            read_misses: self.read_misses - snapshot.read_misses,
            writeback_hits: self.writeback_hits - snapshot.writeback_hits,
            writeback_misses: self.writeback_misses - snapshot.writeback_misses,
            prefetch_fills: self.prefetch_fills - snapshot.prefetch_fills,
            prefetch_hits: self.prefetch_hits - snapshot.prefetch_hits,
            demand_fills: self.demand_fills - snapshot.demand_fills,
            memory_writes: self.memory_writes - snapshot.memory_writes,
            back_invalidations: self.back_invalidations - snapshot.back_invalidations,
            migrations: self.migrations - snapshot.migrations,
            partner_evictions: self.partner_evictions - snapshot.partner_evictions,
            victim_inserts: self.victim_inserts - snapshot.victim_inserts,
            victim_insert_failures: self.victim_insert_failures - snapshot.victim_insert_failures,
        }
    }

    /// All demand reads.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.read_hits() + self.read_misses
    }

    /// Memory reads caused by demand misses plus prefetch fills.
    #[must_use]
    pub fn memory_reads(&self) -> u64 {
        self.demand_fills + self.prefetch_fills
    }

    /// Demand hit rate in [0, 1]; 0 with no reads.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.reads() == 0 {
            0.0
        } else {
            self.read_hits() as f64 / self.reads() as f64
        }
    }

    /// Fraction of demand reads served by the Victim cache, in [0, 1];
    /// 0 with no reads (and for single-tag organizations).
    #[must_use]
    pub fn victim_hit_rate(&self) -> f64 {
        if self.reads() == 0 {
            0.0
        } else {
            self.victim_hits as f64 / self.reads() as f64
        }
    }

    /// Victim lines lost without ever being read: parking attempts that
    /// found no fitting way plus compressed partners silently evicted to
    /// make room. The per-epoch delta of this is the telemetry
    /// "victim drops" series.
    #[must_use]
    pub fn victim_drops(&self) -> u64 {
        self.victim_insert_failures + self.partner_evictions
    }

    /// Folds one operation's side effects into the lifetime totals.
    pub fn absorb_effects(&mut self, effects: Effects) {
        self.memory_writes += effects.memory_writes;
        self.back_invalidations += effects.back_invalidations;
        self.migrations += effects.migrations;
        self.partner_evictions += effects.partner_evictions;
    }
}

impl fmt::Display for LlcStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads {} (hits {} + victim {}), misses {}, mem writes {}",
            self.reads(),
            self.base_hits,
            self.victim_hits,
            self.read_misses,
            self.memory_writes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_counters() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.misses_per_kilo_access(), 0.0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = CacheStats {
            read_hits: 1,
            writebacks: 2,
            ..CacheStats::default()
        };
        let b = CacheStats {
            read_hits: 10,
            write_misses: 5,
            ..CacheStats::default()
        };
        a.merge(&b);
        assert_eq!(a.read_hits, 11);
        assert_eq!(a.write_misses, 5);
        assert_eq!(a.writebacks, 2);
        assert_eq!(a.demand_accesses(), 16);
    }

    #[test]
    fn effects_absorb_sums() {
        let mut a = Effects {
            memory_writes: 1,
            ..Effects::default()
        };
        a.absorb(Effects {
            memory_writes: 2,
            migrations: 3,
            ..Effects::default()
        });
        assert_eq!(a.memory_writes, 3);
        assert_eq!(a.migrations, 3);
    }

    #[test]
    fn llc_stats_rates() {
        let stats = LlcStats {
            base_hits: 6,
            victim_hits: 2,
            read_misses: 2,
            demand_fills: 2,
            prefetch_fills: 1,
            ..LlcStats::default()
        };
        assert_eq!(stats.read_hits(), 8);
        assert_eq!(stats.reads(), 10);
        assert_eq!(stats.memory_reads(), 3);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn victim_telemetry_rates() {
        let stats = LlcStats {
            base_hits: 6,
            victim_hits: 2,
            read_misses: 2,
            victim_insert_failures: 3,
            partner_evictions: 4,
            ..LlcStats::default()
        };
        assert!((stats.victim_hit_rate() - 0.2).abs() < 1e-12);
        assert_eq!(stats.victim_drops(), 7);
        assert_eq!(LlcStats::default().victim_hit_rate(), 0.0);
    }

    #[test]
    fn mpka_scales_by_thousand() {
        let s = CacheStats {
            read_hits: 900,
            read_misses: 100,
            ..CacheStats::default()
        };
        assert!((s.misses_per_kilo_access() - 100.0).abs() < 1e-9);
    }
}
