//! Compressed last-level-cache organizations: the Base-Victim architecture
//! and the baselines it is evaluated against.
//!
//! This crate implements the primary contribution of Gaur, Alameldeen, and
//! Subramoney, *"Base-Victim Compression: An Opportunistic Cache
//! Compression Architecture"* (ISCA 2016), plus every LLC organization the
//! paper compares it to:
//!
//! * [`UncompressedLlc`] — the baseline cache every figure normalizes to.
//! * [`TwoTagLlc`] — the two-tags-per-way design of Section III, in two
//!   [`TwoTagFlavor`]s: the naive one victimizes partner lines (Figure 6;
//!   loses 12% on average), the modified one selects victims ECM-style by
//!   size (Figure 7; still has heavy outliers).
//! * [`BaseVictimLlc`] — the paper's proposal (Section IV): the Baseline
//!   cache mirrors the uncompressed cache exactly, and replacement victims
//!   are *opportunistically* retained in a always-clean Victim cache when
//!   compression lets them share a physical way (Figures 8-13).
//! * [`VscLlc`] — a functional model of the Decoupled Variable-Segment
//!   Cache used for the effective-capacity comparison in Section V.
//! * [`DccLlc`] — a functional model of the Decoupled Compressed Cache
//!   (super-block tags, 16 B sub-blocks), the Section II state of the art
//!   whose data-array complexity Base-Victim avoids.
//!
//! All organizations speak the same [`LlcOrganization`] interface so the
//! timing simulator (`bv-sim`) and the experiment harness can swap them
//! freely. Each is built the same way: `new(geom, policy, ..)` with a
//! [`PolicyKind`](bv_cache::PolicyKind), or `with_sink(.., sink)` to
//! report cache events, and each states its engine tag slots per
//! physical way as `SLOTS_PER_WAY`.
//!
//! # Examples
//!
//! ```
//! use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
//! use bv_compress::CacheLine;
//! use bv_core::{BaseVictimLlc, LlcOrganization, NoInner, VictimPolicyKind};
//!
//! let geom = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
//! let mut llc = BaseVictimLlc::new(geom, PolicyKind::Nru, VictimPolicyKind::EcmLargestBase);
//!
//! let mut inner = NoInner;
//! let addr = LineAddr::new(42);
//! assert!(!llc.read(addr, &mut inner).is_hit());
//! llc.fill(addr, CacheLine::zeroed(), &mut inner);
//! assert!(llc.read(addr, &mut inner).is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod audit;
mod base_victim;
mod dcc;
mod slot;
mod two_tag;
mod uncompressed;
mod victim_policy;
mod vsc;

pub use base_victim::{BaseVictimLlc, InclusionMode};
pub use dcc::DccLlc;
pub use two_tag::{TwoTagFlavor, TwoTagLlc};
pub use uncompressed::UncompressedLlc;
pub use victim_policy::VictimPolicyKind;
pub use vsc::VscLlc;

pub use bv_cache::{Effects, LlcStats};

use bv_cache::{CacheGeometry, LineAddr};
use bv_compress::{CacheLine, CompressionStats, SegmentCount};

/// Interface through which the LLC drives inclusive inner caches (L1/L2).
///
/// When an inclusive LLC displaces a line — on eviction, or when the
/// Base-Victim architecture moves a line into its always-clean Victim cache
/// — copies in the inner levels must be invalidated and any modified inner
/// data recovered so it can be written back to memory.
pub trait InclusionAgent {
    /// Invalidates `addr` in every inner cache. Returns the freshest dirty
    /// data if an inner copy was modified, or `None` if all inner copies
    /// were clean or absent.
    fn back_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine>;
}

/// An [`InclusionAgent`] for standalone LLC use (no inner caches).
///
/// Useful in unit tests and in functional (non-timing) studies.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInner;

impl InclusionAgent for NoInner {
    fn back_invalidate(&mut self, _addr: LineAddr) -> Option<CacheLine> {
        None
    }
}

/// Where a demand read found its line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitKind {
    /// Hit in the Baseline cache (or the only cache, for uncompressed),
    /// with the line's stored compressed size.
    Base(SegmentCount),
    /// Hit in the Victim cache (Base-Victim only); the line was promoted.
    Victim(SegmentCount),
    /// Not present; the caller must fetch from memory and call
    /// [`LlcOrganization::fill`].
    Miss,
}

impl HitKind {
    /// `true` for either hit flavor.
    #[must_use]
    pub fn is_hit(self) -> bool {
        !matches!(self, HitKind::Miss)
    }

    /// The stored compressed size, if this was a hit.
    #[must_use]
    pub fn size(self) -> Option<SegmentCount> {
        match self {
            HitKind::Base(s) | HitKind::Victim(s) => Some(s),
            HitKind::Miss => None,
        }
    }
}

/// Outcome of a demand read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Hit classification (and size, for the decompression-latency model).
    pub kind: HitKind,
    /// Side effects (victim promotions can evict and write back).
    pub effects: Effects,
}

impl ReadOutcome {
    /// Convenience: `true` for either hit flavor.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        self.kind.is_hit()
    }
}

/// Outcome of a fill or writeback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpOutcome {
    /// Side effects of the operation.
    pub effects: Effects,
}

/// A last-level-cache organization.
///
/// The timing simulator drives this interface with demand reads, writebacks
/// arriving from the L2, prefetch probes, and fills after memory fetches.
/// Inclusion is enforced through the [`InclusionAgent`] the caller passes
/// in.
pub trait LlcOrganization {
    /// Organization name for reports (e.g. `"base-victim"`).
    fn name(&self) -> &'static str;

    /// The underlying physical geometry (per-set data ways).
    fn geometry(&self) -> CacheGeometry;

    /// Whether the line is present (in any logical slot). Does not perturb
    /// replacement state.
    fn contains(&self, addr: LineAddr) -> bool;

    /// Demand read. On a miss the caller fetches from memory and calls
    /// [`fill`](LlcOrganization::fill).
    fn read(&mut self, addr: LineAddr, inner: &mut dyn InclusionAgent) -> ReadOutcome;

    /// Dirty writeback arriving from the L2.
    fn writeback(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome;

    /// Installs a (clean) line fetched from memory after a demand miss.
    fn fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome;

    /// Installs a (clean) line fetched by the prefetcher. Returns `None`
    /// if the line was already present (probe hit, nothing installed).
    fn prefetch_fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> Option<OpOutcome>;

    /// The current data contents of a resident line (post-decompression
    /// view), or `None` if absent. An inspection view for tests and
    /// auditors; the hierarchy never needs it, because its inner caches
    /// hold no data. Does not perturb replacement state.
    fn peek_data(&self, addr: LineAddr) -> Option<CacheLine>;

    /// Applies a replacement downgrade hint to a resident line (CHAR
    /// sends these on clean L2 evictions). Organizations forward the hint
    /// to their baseline replacement policy; the default ignores it.
    fn hint_downgrade(&mut self, _addr: LineAddr) {}

    /// Accumulated statistics.
    fn stats(&self) -> &LlcStats;

    /// Distribution of compressed sizes observed at fill/writeback time.
    fn compression_stats(&self) -> &CompressionStats;

    /// Extra tag-lookup cycles relative to the uncompressed baseline
    /// (1 for every doubled-tag organization, 0 otherwise).
    fn tag_latency_penalty(&self) -> u32;

    /// Decompression cycles for a hit of the given size (0 for
    /// uncompressed organizations and for zero/full lines).
    fn decompression_latency(&self, size: SegmentCount) -> u32;

    /// Addresses of all currently resident logical lines, in no particular
    /// order. For invariant checks.
    fn resident_lines(&self) -> Vec<LineAddr>;

    /// Checks the organization's structural invariants: capacity and
    /// pairing rules, and that every incrementally maintained per-set
    /// counter equals a full rescan of the set. For tests, auditors and
    /// the fuzzer; the default checks nothing.
    ///
    /// # Panics
    ///
    /// Panics naming the first violated invariant.
    fn assert_invariants(&self) {}

    /// Per-encoding selection counts of this organization's compressor, as
    /// `(encoding name, count)` pairs — telemetry for the compressed-size
    /// distribution over the run. Empty (the default) when the
    /// organization does not compress or its algorithm exposes no
    /// encoding classes.
    fn encoder_counts(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Drains retained [`CacheEvent`](bv_events::CacheEvent)s from the
    /// organization's event sink, oldest first. Empty (the default) for
    /// untraced builds, so the simulator can ask through
    /// `Box<dyn LlcOrganization>` without knowing whether tracing is on.
    fn drain_events(&mut self) -> Vec<bv_events::CacheEvent> {
        Vec::new()
    }

    /// How many retained events the organization's sink overwrote with
    /// newer ones (bounded captures); 0 for untraced builds.
    fn events_dropped(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_kind_accessors() {
        let h = HitKind::Base(SegmentCount::new(8));
        assert!(h.is_hit());
        assert_eq!(h.size(), Some(SegmentCount::new(8)));
        assert!(!HitKind::Miss.is_hit());
        assert_eq!(HitKind::Miss.size(), None);
    }

    #[test]
    fn no_inner_reports_clean() {
        assert_eq!(NoInner.back_invalidate(LineAddr::new(1)), None);
    }
}
