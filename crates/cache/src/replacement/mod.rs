//! Pluggable cache replacement policies.
//!
//! The Base-Victim architecture's central guarantee is that the Baseline
//! cache runs the *unmodified* baseline replacement policy, whatever that
//! policy is. The paper evaluates with 1-bit NRU by default and shows
//! sensitivity to SRRIP and CHAR (Figure 10); LRU is used in the worked
//! examples of Sections III and IV, and random replacement in the Victim
//! cache discussion.

mod camp_lite;
mod char_lite;
mod lru;
mod nru;
mod random;
mod srrip;

pub use camp_lite::CampLite;
pub use char_lite::CharLite;
pub use lru::Lru;
pub use nru::Nru;
pub use random::Random;
pub use srrip::Srrip;

use core::fmt;

/// A per-set replacement policy over a fixed `sets x ways` tag array.
///
/// Implementations are deterministic state machines: the simulator calls
/// [`on_fill`](ReplacementPolicy::on_fill) when a line is installed,
/// [`on_hit`](ReplacementPolicy::on_hit) when a line is touched, and
/// [`victim`](ReplacementPolicy::victim) to choose a way to evict when the
/// set is full. Ways that are invalid are filled by the caller before
/// `victim` is consulted.
pub trait ReplacementPolicy: fmt::Debug {
    /// Number of sets this policy tracks.
    fn sets(&self) -> usize;

    /// Number of ways per set.
    fn ways(&self) -> usize;

    /// Records that `way` in `set` was filled with a new line.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Records a fill with the line's compressed size, for size-aware
    /// policies (CAMP). The default ignores the size and delegates to
    /// [`on_fill`](ReplacementPolicy::on_fill).
    fn on_fill_sized(&mut self, set: usize, way: usize, _size: bv_compress::SegmentCount) {
        self.on_fill(set, way);
    }

    /// Records a hit on `way` in `set`.
    fn on_hit(&mut self, set: usize, way: usize);

    /// Chooses the way to evict from a full `set`.
    ///
    /// May mutate internal state (e.g. NRU clears reference bits when all
    /// are set; the pseudo-random policy advances its generator).
    fn victim(&mut self, set: usize) -> usize;

    /// Records that `way` in `set` was invalidated (the way becomes empty).
    ///
    /// The default implementation does nothing; age-based policies may
    /// reset per-way state.
    fn on_invalidate(&mut self, _set: usize, _way: usize) {}

    /// Applies a downgrade hint: the line in `way` is predicted dead and
    /// should become an early eviction candidate.
    ///
    /// Used by hint-driven policies (CHAR receives downgrade hints on L2
    /// evictions); the default implementation ignores hints.
    fn hint_downgrade(&mut self, _set: usize, _way: usize) {}

    /// Reports a demand miss on `set` (before the fill), used by
    /// set-dueling policies to train their selector. Default: ignored.
    fn on_miss(&mut self, _set: usize) {}

    /// The relative age rank of `way` in `set`: higher means closer to
    /// eviction. Used by size-aware victim searches (ECM-style policies
    /// walk candidates from oldest to youngest). Implementations should
    /// return a value that orders the ways; exact scale is policy-specific.
    fn eviction_rank(&self, set: usize, way: usize) -> u64;

    /// Whether `way` is currently an eviction candidate under this policy
    /// (e.g. NRU reference bit clear, SRRIP RRPV saturated). Size-aware
    /// victim searches restrict themselves to candidate ways to stay
    /// faithful to the underlying policy. The default considers every way
    /// a candidate.
    fn is_eviction_candidate(&self, _set: usize, _way: usize) -> bool {
        true
    }
}

/// Selects and constructs a replacement policy.
///
/// # Examples
///
/// ```
/// use bv_cache::{PolicyKind, ReplacementPolicy};
///
/// let policy = PolicyKind::Nru.instantiate(2048, 16);
/// assert_eq!(policy.sets(), 2048);
/// assert_eq!(policy.ways(), 16);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PolicyKind {
    /// True least-recently-used ordering.
    Lru,
    /// 1-bit Not-Recently-Used (the paper's default LLC policy).
    Nru,
    /// 2-bit Static Re-Reference Interval Prediction (Jaleel et al.).
    Srrip,
    /// CHAR-style 1-bit ages with set-dueling insertion and downgrade
    /// hints (simplified from Chaudhuri et al., PACT 2012).
    CharLite,
    /// CAMP-style size-aware insertion on SRRIP with set dueling
    /// (Pekhimenko et al., HPCA 2015) — the Base-Victim paper's §VII.C
    /// future work.
    CampLite,
    /// Deterministic pseudo-random victim selection.
    Random,
}

impl PolicyKind {
    /// All policy kinds, for exhaustive sweeps.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Lru,
        PolicyKind::Nru,
        PolicyKind::Srrip,
        PolicyKind::CharLite,
        PolicyKind::CampLite,
        PolicyKind::Random,
    ];

    /// Short stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Nru => "nru",
            PolicyKind::Srrip => "srrip",
            PolicyKind::CharLite => "char",
            PolicyKind::CampLite => "camp",
            PolicyKind::Random => "random",
        }
    }

    /// The names [`PolicyKind::from_name`] accepts, for error messages.
    pub const NAMES: &'static str = "lru, nru, srrip, char, camp, random";

    /// Parses a CLI/protocol policy name (inverse of [`PolicyKind::name`]).
    #[must_use]
    pub fn from_name(s: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.iter().copied().find(|p| p.name() == s)
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every concrete policy in one enum, dispatched by `match` instead of a
/// vtable.
///
/// This is the policy every cache level runs: [`BasicCache`](crate::BasicCache)
/// and the LLC [`SetEngine`](crate::engine::SetEngine) build one from a
/// [`PolicyKind`] with [`PolicyKind::instantiate`]. A policy selected at
/// runtime (a CLI flag) costs one branch on the enum discriminant per
/// call on the hot path, instead of an indirect call.
#[derive(Debug, Clone)]
pub enum Policy {
    /// See [`Lru`].
    Lru(Lru),
    /// See [`Nru`].
    Nru(Nru),
    /// See [`Srrip`].
    Srrip(Srrip),
    /// See [`CharLite`].
    CharLite(CharLite),
    /// See [`CampLite`].
    CampLite(CampLite),
    /// See [`Random`].
    Random(Random),
}

/// Forwards one method call to whichever concrete policy this enum holds.
macro_rules! each_policy {
    ($self:ident, $p:ident => $call:expr) => {
        match $self {
            Policy::Lru($p) => $call,
            Policy::Nru($p) => $call,
            Policy::Srrip($p) => $call,
            Policy::CharLite($p) => $call,
            Policy::CampLite($p) => $call,
            Policy::Random($p) => $call,
        }
    };
}

impl ReplacementPolicy for Policy {
    fn sets(&self) -> usize {
        each_policy!(self, p => p.sets())
    }

    fn ways(&self) -> usize {
        each_policy!(self, p => p.ways())
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        each_policy!(self, p => p.on_fill(set, way));
    }

    fn on_fill_sized(&mut self, set: usize, way: usize, size: bv_compress::SegmentCount) {
        each_policy!(self, p => p.on_fill_sized(set, way, size));
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        each_policy!(self, p => p.on_hit(set, way));
    }

    fn victim(&mut self, set: usize) -> usize {
        each_policy!(self, p => p.victim(set))
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        each_policy!(self, p => p.on_invalidate(set, way));
    }

    fn hint_downgrade(&mut self, set: usize, way: usize) {
        each_policy!(self, p => p.hint_downgrade(set, way));
    }

    fn on_miss(&mut self, set: usize) {
        each_policy!(self, p => p.on_miss(set));
    }

    fn eviction_rank(&self, set: usize, way: usize) -> u64 {
        each_policy!(self, p => p.eviction_rank(set, way))
    }

    fn is_eviction_candidate(&self, set: usize, way: usize) -> bool {
        each_policy!(self, p => p.is_eviction_candidate(set, way))
    }
}

impl PolicyKind {
    /// Builds the enum-dispatched [`Policy`] for a `sets x ways` array.
    #[must_use]
    pub fn instantiate(self, sets: usize, ways: usize) -> Policy {
        match self {
            PolicyKind::Lru => Policy::Lru(Lru::new(sets, ways)),
            PolicyKind::Nru => Policy::Nru(Nru::new(sets, ways)),
            PolicyKind::Srrip => Policy::Srrip(Srrip::new(sets, ways)),
            PolicyKind::CharLite => Policy::CharLite(CharLite::new(sets, ways)),
            PolicyKind::CampLite => Policy::CampLite(CampLite::new(sets, ways)),
            PolicyKind::Random => Policy::Random(Random::new(sets, ways, RANDOM_SEED)),
        }
    }
}

/// Seed for [`PolicyKind::Random`] construction, so every instance
/// produces the same victim stream.
const RANDOM_SEED: u64 = 0x9e37_79b9;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every policy must return an in-range victim and prefer a line that
    /// was never touched over the line that was just filled and hit.
    #[test]
    fn policies_return_valid_victims() {
        for kind in PolicyKind::ALL {
            let mut p = kind.instantiate(4, 8);
            for way in 0..8 {
                p.on_fill(1, way);
            }
            let v = p.victim(1);
            assert!(v < 8, "{kind}: victim way {v} out of range");
        }
    }

    #[test]
    fn recency_policies_protect_the_mru_line() {
        for kind in [PolicyKind::Lru, PolicyKind::Nru, PolicyKind::Srrip] {
            let mut p = kind.instantiate(1, 4);
            for way in 0..4 {
                p.on_fill(0, way);
            }
            p.on_hit(0, 3);
            // Several consecutive victim choices should avoid the MRU way
            // as long as other candidates exist.
            let v = p.victim(0);
            assert_ne!(v, 3, "{kind}: evicted the most recently used line");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PolicyKind::Nru.to_string(), "nru");
        assert_eq!(PolicyKind::CharLite.name(), "char");
    }
}
