//! Greedy delta-debugging: minimize a tripping case while it keeps
//! tripping the same property.
//!
//! The loop is classic ddmin-lite, specialized per domain:
//!
//! 1. **Truncate** — binary-search the shortest op/request prefix that
//!    still trips (divergence detection is effectively monotone in the
//!    prefix length, so this alone usually cuts 10-100x).
//! 2. **Cut chunks** — remove halves, then quarters, then single ops
//!    from the middle of an LLC stream.
//! 3. **Simplify** — drop clients, flatten the Zipf skew, collapse the
//!    value mixture to one entry, shrink the geometry, canonicalize the
//!    policies, and re-seed the kv stream toward seed 1.
//! 4. Repeat until a full round adopts nothing.
//!
//! Every candidate is re-validated against [`observe`]: a reduction is
//! adopted only when the *same property* still trips, so a mirror
//! divergence never silently shrinks into an unrelated stats mismatch.

use crate::case::{CaseBody, FuzzCase};
use crate::check::observe;
use bv_cache::PolicyKind;
use bv_core::VictimPolicyKind;

/// What a shrink run did.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimized case (equal to the input when nothing trips or
    /// nothing could be removed).
    pub case: FuzzCase,
    /// Candidate evaluations performed.
    pub attempts: u64,
    /// Reductions adopted.
    pub accepted: u64,
}

/// Evaluation budget: plenty for ≤ 4096-op cases, a hard stop for
/// pathological ones.
const MAX_ATTEMPTS: u64 = 4096;

/// Minimizes `case` against the property it currently trips. Returns
/// the input unchanged when no property trips.
#[must_use]
pub fn shrink(case: &FuzzCase) -> ShrinkOutcome {
    let Some(target) = observe(case).map(|f| f.property) else {
        return ShrinkOutcome {
            case: case.clone(),
            attempts: 0,
            accepted: 0,
        };
    };
    let mut s = Shrinker {
        current: case.clone(),
        target,
        attempts: 0,
        accepted: 0,
    };
    loop {
        let before = s.accepted;
        s.truncate();
        s.cut_chunks();
        s.simplify();
        if s.accepted == before || s.attempts >= MAX_ATTEMPTS {
            break;
        }
    }
    ShrinkOutcome {
        case: s.current,
        attempts: s.attempts,
        accepted: s.accepted,
    }
}

/// `c` with its fault moved, if need be, to the last op it can be
/// planted after and still be seen: the kv oracle sees a perturbed
/// recency order at once, while a skewed LLC replacement state surfaces
/// only at a later fill.
fn clamp_injection(mut c: FuzzCase) -> FuzzCase {
    let settle = match c.body {
        CaseBody::Llc(_) => 2,
        CaseBody::Kv(_) => 1,
    };
    c.inject_at = c
        .inject_at
        .map(|at| at.min(c.op_count().saturating_sub(settle)));
    c
}

struct Shrinker {
    current: FuzzCase,
    target: &'static str,
    attempts: u64,
    accepted: u64,
}

impl Shrinker {
    /// Adopts `candidate` if the target property still trips on it.
    fn try_adopt(&mut self, candidate: FuzzCase) -> bool {
        if candidate == self.current || self.attempts >= MAX_ATTEMPTS {
            return false;
        }
        self.attempts += 1;
        if observe(&candidate).is_some_and(|f| f.property == self.target) {
            self.current = candidate;
            self.accepted += 1;
            true
        } else {
            false
        }
    }

    /// A copy of the current case truncated to its first `len` ops,
    /// with `inject_at` clamped inside the shortened stream.
    fn truncated(&self, len: u64) -> FuzzCase {
        let mut c = self.current.clone();
        match &mut c.body {
            CaseBody::Llc(l) => l.ops.truncate(len as usize),
            CaseBody::Kv(k) => k.requests = k.requests.min(len),
        }
        clamp_injection(c)
    }

    /// Binary-searches the shortest tripping prefix.
    fn truncate(&mut self) {
        let (mut lo, mut hi) = (1u64, self.current.op_count());
        while lo < hi && self.attempts < MAX_ATTEMPTS {
            let mid = lo + (hi - lo) / 2;
            if self.try_adopt(self.truncated(mid)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
    }

    /// ddmin-lite chunk removal over an LLC op stream (kv streams are
    /// seed-generated, so truncation is their only cut).
    fn cut_chunks(&mut self) {
        loop {
            let CaseBody::Llc(l) = &self.current.body else {
                return;
            };
            let n = l.ops.len();
            if n < 2 {
                return;
            }
            let mut chunk = n / 2;
            let mut adopted = false;
            while chunk >= 1 && self.attempts < MAX_ATTEMPTS {
                let mut start = 0;
                while start < self.op_len() {
                    let mut c = self.current.clone();
                    let CaseBody::Llc(ref mut lc) = c.body else {
                        unreachable!()
                    };
                    let end = (start + chunk).min(lc.ops.len());
                    lc.ops.drain(start..end);
                    if self.try_adopt(clamp_injection(c)) {
                        adopted = true;
                        // Re-scan the same start: the next chunk slid in.
                    } else {
                        start += chunk;
                    }
                    if self.attempts >= MAX_ATTEMPTS {
                        break;
                    }
                }
                chunk /= 2;
            }
            if !adopted {
                return;
            }
        }
    }

    fn op_len(&self) -> usize {
        match &self.current.body {
            CaseBody::Llc(l) => l.ops.len(),
            CaseBody::Kv(k) => k.requests as usize,
        }
    }

    /// Structural simplifications, each adopted independently.
    fn simplify(&mut self) {
        // Pull the injection point toward the front (smaller prefixes
        // then become reachable on the next truncation round).
        if let Some(at) = self.current.inject_at {
            for smaller in [0, 1, 2, at / 4, at / 2] {
                if smaller < at {
                    let mut c = self.current.clone();
                    c.inject_at = Some(smaller);
                    if self.try_adopt(c) {
                        break;
                    }
                }
            }
        }
        match self.current.body.clone() {
            CaseBody::Llc(l) => {
                if l.palette.len() > 1 {
                    let mut c = self.current.clone();
                    if let CaseBody::Llc(ref mut lc) = c.body {
                        lc.palette = vec![l.palette[0]];
                    }
                    self.try_adopt(c);
                }
                for case in [
                    self.with_llc(|lc| lc.sets = 4),
                    self.with_llc(|lc| lc.ways = 2),
                    self.with_llc(|lc| lc.policy = PolicyKind::Lru),
                    self.with_llc(|lc| lc.victim = VictimPolicyKind::EcmLargestBase),
                ] {
                    self.try_adopt(case);
                }
            }
            CaseBody::Kv(k) => {
                for case in [
                    self.with_kv(|kc| kc.profile.clients = 1),
                    self.with_kv(|kc| kc.profile.phase_requests = 0),
                    self.with_kv(|kc| kc.profile.skew = 0.0),
                    self.with_kv(|kc| kc.profile.get_ratio = 1.0),
                    self.with_kv(|kc| kc.profile.size_buckets.truncate(1)),
                    self.with_kv(|kc| kc.profile.value_mix.truncate(1)),
                    self.with_kv(|kc| kc.profile.keys = (k.profile.keys / 2).max(1)),
                    self.with_kv(|kc| kc.budget = (kc.budget / 2).max(4096)),
                    self.with_kv(|kc| kc.stream_seed = 1),
                ] {
                    self.try_adopt(case);
                }
            }
        }
    }

    fn with_llc(&self, edit: impl FnOnce(&mut crate::case::LlcCase)) -> FuzzCase {
        let mut c = self.current.clone();
        if let CaseBody::Llc(ref mut lc) = c.body {
            edit(lc);
        }
        c
    }

    fn with_kv(&self, edit: impl FnOnce(&mut crate::case::KvCase)) -> FuzzCase {
        let mut c = self.current.clone();
        if let CaseBody::Kv(ref mut kc) = c.body {
            edit(kc);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Domain;
    use crate::check::verdict;

    #[test]
    fn clean_cases_shrink_to_themselves() {
        let case = FuzzCase::generate(2, Some(Domain::Kv));
        let out = shrink(&case);
        assert_eq!(out.case, case);
        assert_eq!(out.accepted, 0);
    }

    #[test]
    fn injected_kv_case_shrinks_to_a_tiny_reproducer() {
        let case = FuzzCase::generate(1, Some(Domain::Kv)).with_injection();
        assert!(observe(&case).is_some(), "fault must be detected first");
        let out = shrink(&case);
        assert!(
            out.case.op_count() <= 64,
            "shrunk to {} ops (from {})",
            out.case.op_count(),
            case.op_count()
        );
        assert!(out.accepted > 0);
        // The minimized case still detects the fault and still passes
        // the injected-case verdict.
        assert!(observe(&out.case).is_some());
        assert!(verdict(&out.case).is_ok());
    }

    #[test]
    fn injected_llc_case_shrinks_to_a_tiny_reproducer() {
        // Pick a seed whose injection demonstrably surfaces.
        let case = (0..10u64)
            .map(|s| FuzzCase::generate(s, Some(Domain::Llc)).with_injection())
            .find(|c| observe(c).is_some())
            .expect("some seed must surface the injected fault");
        let out = shrink(&case);
        assert!(
            out.case.op_count() <= 64,
            "shrunk to {} ops (from {})",
            out.case.op_count(),
            case.op_count()
        );
        assert!(observe(&out.case).is_some());
    }
}
