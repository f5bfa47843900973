//! The baseline-mirror auditor: the scientific deliverable.
//!
//! The Base-Victim tier's whole claim is that its *decision-making*
//! state is bit-identical to the uncompressed tier's at every point in
//! time — compression can only add hits, never change a decision.
//! [`KvMirror`] is the kv tier's [`Mirror`] for the shared lockstep
//! driver [`bv_testkit::mirror::run`]: it builds a base-victim and an
//! uncompressed tier through [`KvOrgKind::build`], steps both through
//! the same request stream and, after **every** operation, compares the
//! full recency-ordered key list of the base-victim baseline area
//! against the uncompressed tier's. The first mismatch is described by
//! the two orderings around the first differing position.
//!
//! Both tiers run one [`KvCache`] code path, so — as on the LLC side,
//! where both Baselines sit on one set engine — the mirror guards what
//! Base-Victim adds (the victim area, its promotions and its parking),
//! and the goldens and unit tests guard the shared baseline path.
//!
//! Alongside the mirror identity the auditor checks the consequences
//! that make it worth having:
//!
//! * `base_hits == uncompressed hits` and
//!   `misses + victim_hits == uncompressed misses` — every victim hit
//!   is a rescued miss, never a reshuffled one.
//! * The byte-budget invariant (physical bytes `<=` budget) after every
//!   op, via [`KvCache::check_invariants`].
//!
//! Like the LLC auditor's, [`Mirror::inject`] deliberately perturbs the
//! baseline mid-run so tests can show the auditor actually detects
//! divergence rather than vacuously passing.

use crate::org::{KvCache, KvOrgKind, KvStats};
use crate::value::ValueMeta;
use bv_testkit::mirror::Mirror;
use bv_trace::request::{KvOp, KvRequest};

/// A base-victim tier and an uncompressed tier under one byte budget,
/// with values from `meta_for` (which must be a function of the key
/// only, so both tiers see the same value for the same key).
pub struct KvMirror<F> {
    bv: KvCache,
    unc: KvCache,
    meta_for: F,
}

impl<F: Fn(u64) -> ValueMeta> KvMirror<F> {
    /// Builds both tiers with `budget` bytes each.
    #[must_use]
    pub fn new(budget: u64, meta_for: F) -> KvMirror<F> {
        KvMirror {
            bv: KvOrgKind::BaseVictim.build(budget),
            unc: KvOrgKind::Uncompressed.build(budget),
            meta_for,
        }
    }

    /// The (uncompressed, base-victim) statistics.
    #[must_use]
    pub fn stats(&self) -> (&KvStats, &KvStats) {
        (self.unc.stats(), self.bv.stats())
    }
}

impl<F: Fn(u64) -> ValueMeta> Mirror for KvMirror<F> {
    type Op = KvRequest;
    /// Which check failed and how.
    type Mismatch = String;

    fn apply(&mut self, req: KvRequest) {
        let fetch = || (self.meta_for)(req.key);
        match req.op {
            KvOp::Get => {
                self.bv.get(req.key, fetch);
                self.unc.get(req.key, fetch);
            }
            KvOp::Put => {
                self.bv.put(req.key, fetch);
                self.unc.put(req.key, fetch);
            }
        }
    }

    fn inject(&mut self) {
        self.bv.inject_baseline_perturbation();
    }

    fn check(&mut self) -> Result<(), String> {
        let (bv, unc) = (&self.bv, &self.unc);
        let expected = unc.keys_mru();
        let got = bv.keys_mru();
        if expected != got {
            return Err(describe_mismatch(&expected, &got));
        }
        if bv.stats().base_hits != unc.stats().base_hits {
            return Err(format!(
                "base hits diverged: base-victim {} vs uncompressed {}",
                bv.stats().base_hits,
                unc.stats().base_hits
            ));
        }
        if bv.stats().misses + bv.stats().victim_hits != unc.stats().misses {
            return Err(format!(
                "miss accounting diverged: base-victim misses {} + victim hits {} != uncompressed misses {}",
                bv.stats().misses,
                bv.stats().victim_hits,
                unc.stats().misses
            ));
        }
        bv.check_invariants()
    }
}

/// Describes the first position where two recency orderings differ.
fn describe_mismatch(expected: &[u64], got: &[u64]) -> String {
    if expected.len() != got.len() {
        return format!(
            "baseline holds {} keys, uncompressed tier holds {}",
            got.len(),
            expected.len()
        );
    }
    let at = expected
        .iter()
        .zip(got.iter())
        .position(|(e, g)| e != g)
        .unwrap_or(0);
    format!(
        "recency order differs at position {at}: uncompressed has key {}, baseline has key {}",
        expected[at], got[at]
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::compress_value;
    use bv_testkit::mirror::{run, MirrorReport};
    use bv_trace::request::{RequestProfile, RequestStream};

    /// 6000 requests of `profile` against a 256 KiB mirror; returns the
    /// report and the (base-victim hits, victim hits, uncompressed hits).
    fn lockstep(
        profile: &RequestProfile,
        seed: u64,
        inject_at: Option<usize>,
    ) -> (MirrorReport<String>, (u64, u64, u64)) {
        let mut m = KvMirror::new(256 * 1024, |key| {
            compress_value(key, profile.value_spec(key))
        });
        let ops = RequestStream::new(profile.clone(), seed).take(6_000);
        let report = run(&mut m, ops, inject_at);
        let (unc, bv) = m.stats();
        (report, (bv.hits(), bv.victim_hits, unc.hits()))
    }

    #[test]
    fn mirror_holds_on_every_preset() {
        for name in RequestProfile::NAMES {
            let profile = RequestProfile::by_name(name).expect("preset");
            let (report, (bv_hits, _, unc_hits)) = lockstep(&profile, 77, None);
            assert!(report.passed(), "{name}: {:?}", report.divergence);
            assert!(bv_hits >= unc_hits, "{name}: bv {bv_hits} < unc {unc_hits}");
        }
    }

    #[test]
    fn victim_hits_account_for_the_entire_gain() {
        let (report, (bv_hits, victim_hits, unc_hits)) = lockstep(&RequestProfile::web(), 3, None);
        assert!(report.passed());
        assert_eq!(bv_hits - unc_hits, victim_hits);
        assert!(
            victim_hits > 0,
            "web traffic should exercise the victim area"
        );
    }

    #[test]
    fn injected_perturbation_is_detected() {
        let (report, _) = lockstep(&RequestProfile::web(), 5, Some(2_000));
        assert!(report.passed(), "perturbation must be caught");
        let (op, detail) = report.divergence.expect("perturbation must be caught");
        // Detection is immediate: the check runs right after the inject.
        assert_eq!(op, 2_000);
        assert!(detail.contains("recency order"), "{detail}");
    }

    #[test]
    fn divergence_reports_are_descriptive() {
        assert!(describe_mismatch(&[1, 2], &[1]).contains("holds"));
        let msg = describe_mismatch(&[1, 2, 3], &[1, 3, 2]);
        assert!(msg.contains("position 1"), "{msg}");
    }
}
