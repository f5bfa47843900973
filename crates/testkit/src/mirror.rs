//! The lockstep oracle for the paper's one promise: a Base-Victim
//! organization's Baseline holds exactly what its uncompressed twin
//! holds, so compression can only add hits (Section IV.A).
//!
//! A [`Mirror`] owns both sides and knows one domain's operations; the
//! single driver [`run`] steps it through an op stream, plants the
//! self-test fault when asked, and stops at the first mismatch. Both
//! domains follow one injection rule: the fault is planted **after** op
//! `inject_at` is applied and **before** that op is checked, so a
//! detecting oracle reports a divergence at op `inject_at` or later.

/// A compressed organization and its uncompressed twin, driven together.
pub trait Mirror {
    /// One operation of the domain's workload.
    type Op;
    /// What [`Mirror::check`] reports when the two sides disagree.
    type Mismatch;

    /// Applies `op` to both sides.
    fn apply(&mut self, op: Self::Op);

    /// Plants the self-test fault on the compressed side only: a
    /// perturbation a healthy oracle must go on to detect.
    fn inject(&mut self);

    /// Compares the compressed side against its uncompressed twin.
    ///
    /// # Errors
    ///
    /// The first mismatch found.
    fn check(&mut self) -> Result<(), Self::Mismatch>;
}

/// What one [`run`] observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MirrorReport<X> {
    /// Ops applied, the diverging one included.
    pub ops_run: usize,
    /// Whether the self-test fault was planted.
    pub injected: bool,
    /// The first mismatch and the index of the op it was found after.
    pub divergence: Option<(usize, X)>,
}

impl<X> MirrorReport<X> {
    /// The `--inject` convention: a run without the fault passes when
    /// nothing diverged, a run with it passes when the fault was caught.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.injected == self.divergence.is_some()
    }

    /// The same report with its mismatch converted by `f`.
    pub fn map<Y>(self, f: impl FnOnce(usize, X) -> Y) -> MirrorReport<Y> {
        MirrorReport {
            ops_run: self.ops_run,
            injected: self.injected,
            divergence: self.divergence.map(|(op, x)| (op, f(op, x))),
        }
    }
}

/// Steps `mirror` through `ops`, checking after every op and stopping at
/// the first mismatch. With `inject_at = Some(n)` the fault is planted
/// right after op `n` is applied; an `n` at or past the end of the
/// stream plants nothing.
pub fn run<M: Mirror>(
    mirror: &mut M,
    ops: impl IntoIterator<Item = M::Op>,
    inject_at: Option<usize>,
) -> MirrorReport<M::Mismatch> {
    let mut report = MirrorReport {
        ops_run: 0,
        injected: false,
        divergence: None,
    };
    for (i, op) in ops.into_iter().enumerate() {
        mirror.apply(op);
        report.ops_run = i + 1;
        if inject_at == Some(i) {
            mirror.inject();
            report.injected = true;
        }
        if let Err(mismatch) = mirror.check() {
            report.divergence = Some((i, mismatch));
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two counters that must stay equal; the fault bumps one of them.
    #[derive(Default)]
    struct Twins {
        compressed: u64,
        uncompressed: u64,
    }

    impl Mirror for Twins {
        type Op = u64;
        type Mismatch = (u64, u64);

        fn apply(&mut self, op: u64) {
            self.compressed += op;
            self.uncompressed += op;
        }

        fn inject(&mut self) {
            self.compressed += 1;
        }

        fn check(&mut self) -> Result<(), (u64, u64)> {
            if self.compressed == self.uncompressed {
                Ok(())
            } else {
                Err((self.compressed, self.uncompressed))
            }
        }
    }

    #[test]
    fn stops_at_the_first_mismatch_found_after_the_injected_op() {
        let mut twins = Twins::default();
        let report = run(&mut twins, [1, 2, 3, 4], Some(1));
        assert!(report.injected);
        assert_eq!(report.ops_run, 2, "ops after the mismatch must not run");
        assert_eq!(report.divergence, Some((1, (4, 3))));
        assert_eq!(twins.uncompressed, 3);
    }

    #[test]
    fn injection_at_or_past_the_end_plants_nothing() {
        for at in [None, Some(3), Some(4), Some(usize::MAX)] {
            let report = run(&mut Twins::default(), [1, 2, 3], at);
            let clean = MirrorReport {
                ops_run: 3,
                injected: false,
                divergence: None,
            };
            assert_eq!(report, clean, "inject_at {at:?}");
        }
        let empty = run(&mut Twins::default(), [], Some(0));
        assert!(!empty.injected);
        assert_eq!(empty.ops_run, 0);
    }

    #[test]
    fn passed_follows_the_inject_convention() {
        let report = |injected, diverged: bool| MirrorReport {
            ops_run: 1,
            injected,
            divergence: diverged.then_some((0, ())),
        };
        assert!(report(false, false).passed(), "clean and quiet");
        assert!(!report(false, true).passed(), "clean but diverged");
        assert!(report(true, true).passed(), "fault caught");
        assert!(!report(true, false).passed(), "fault missed");
    }

    #[test]
    fn map_keeps_the_counts_and_the_op() {
        let report = run(&mut Twins::default(), [5, 5], Some(0));
        let mapped = report.map(|op, (c, u)| format!("op {op}: {c} vs {u}"));
        assert_eq!(mapped.ops_run, 1);
        assert!(mapped.injected);
        assert_eq!(mapped.divergence, Some((0, "op 0: 6 vs 5".to_string())));
    }
}
