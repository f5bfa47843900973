//! The fuzz campaign loop: generate, check, and (on failure) shrink,
//! counting progress as it goes.

use crate::case::{Domain, FuzzCase};
use crate::check::{observe, verdict, FuzzFailure};
use crate::shrink::{shrink, ShrinkOutcome};
use bv_testkit::Rng;

/// Campaign parameters (the `bvsim fuzz` flags).
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Cases to run.
    pub cases: u64,
    /// Master seed; per-case seeds derive from it.
    pub seed: u64,
    /// Restrict to one domain (`None` = alternate over both).
    pub domain: Option<Domain>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            cases: 100,
            seed: 1,
            domain: None,
        }
    }
}

/// The first failing case of a campaign, with its minimized form.
#[derive(Clone, Debug)]
pub struct CampaignFailure {
    /// 0-based index of the failing case.
    pub case_index: u64,
    /// The per-case seed (replays via `FuzzCase::generate`).
    pub case_seed: u64,
    /// Which property tripped (or `inject-undetected`).
    pub failure: FuzzFailure,
    /// The case exactly as generated.
    pub original: FuzzCase,
    /// The shrunk reproducer, when the failure has an observation to
    /// minimize against.
    pub shrunk: Option<ShrinkOutcome>,
}

/// What a campaign did.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases completed (stops at the first failure).
    pub cases_run: u64,
    /// LLC cases among them.
    pub llc_cases: u64,
    /// Kv cases among them.
    pub kv_cases: u64,
    /// Operations across every case run.
    pub ops_replayed: u64,
    /// Failing cases: 0, or 1 since the campaign stops there.
    pub failures: u64,
    /// Shrink candidates tried on the failure.
    pub shrink_attempts: u64,
    /// Shrink candidates that kept the failure and were taken.
    pub shrink_accepted: u64,
    /// The first failure, or `None` when every case passed.
    pub failure: Option<CampaignFailure>,
}

impl FuzzReport {
    /// True when every case passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// The counters as `fuzz.*` `(name, value)` pairs, in print order.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("fuzz.cases", self.cases_run),
            ("fuzz.llc_cases", self.llc_cases),
            ("fuzz.kv_cases", self.kv_cases),
            ("fuzz.ops_replayed", self.ops_replayed),
            ("fuzz.failures", self.failures),
            ("fuzz.shrink_attempts", self.shrink_attempts),
            ("fuzz.shrink_accepted", self.shrink_accepted),
        ]
    }
}

/// Runs the campaign, invoking `progress(done, total)` after each case.
/// Stops at (and minimizes) the first failure.
pub fn run_fuzz(cfg: &FuzzConfig, mut progress: impl FnMut(u64, u64)) -> FuzzReport {
    let mut report = FuzzReport::default();
    let mut seeds = Rng::new(cfg.seed);
    for i in 0..cfg.cases {
        let case_seed = seeds.next_u64();
        let case = FuzzCase::generate(case_seed, cfg.domain);
        match case.domain() {
            Domain::Llc => report.llc_cases += 1,
            Domain::Kv => report.kv_cases += 1,
        }
        report.ops_replayed += case.op_count();
        let result = verdict(&case);
        report.cases_run += 1;
        progress(report.cases_run, cfg.cases);
        if let Err(f) = result {
            report.failures += 1;
            // Shrinking minimizes against the observation; an
            // `inject-undetected` failure has nothing to observe, so it
            // is reported as-is.
            let shrunk = if observe(&case).is_some() {
                let out = shrink(&case);
                report.shrink_attempts += out.attempts;
                report.shrink_accepted += out.accepted;
                Some(out)
            } else {
                None
            };
            report.failure = Some(CampaignFailure {
                case_index: i,
                case_seed,
                failure: f,
                original: case,
                shrunk,
            });
            break;
        }
    }
    report
}

/// One domain's `--inject` self-test result.
#[derive(Clone, Debug)]
pub struct InjectReport {
    /// Domain exercised.
    pub domain: Domain,
    /// Injected cases tried before one surfaced.
    pub tried: u64,
    /// The seed whose injected fault was detected (`None` = auditor
    /// blind, a hard failure).
    pub detected_seed: Option<u64>,
    /// Op count of the detected case before shrinking.
    pub original_ops: u64,
    /// The minimized reproducer.
    pub shrunk: Option<ShrinkOutcome>,
}

impl InjectReport {
    /// The self-test passes when a fault was detected and its
    /// reproducer shrank to at most `bound` ops.
    #[must_use]
    pub fn passed(&self, bound: u64) -> bool {
        self.detected_seed.is_some()
            && self
                .shrunk
                .as_ref()
                .is_some_and(|s| s.case.op_count() <= bound)
    }
}

/// How many seeds the self-test scans per domain before declaring the
/// auditor blind. Detection is immediate for kv; for the LLC the
/// replacement-state perturbation needs eviction pressure, which not
/// every random stream supplies under every policy.
pub const INJECT_SCAN_LIMIT: u64 = 32;

/// Runs the injection self-test for each selected domain: generate
/// injected cases until one is detected, then shrink it.
#[must_use]
pub fn run_inject_selftest(cfg: &FuzzConfig) -> Vec<InjectReport> {
    let domains: &[Domain] = match cfg.domain {
        Some(Domain::Llc) => &[Domain::Llc],
        Some(Domain::Kv) => &[Domain::Kv],
        None => &[Domain::Llc, Domain::Kv],
    };
    domains
        .iter()
        .map(|&domain| {
            let mut seeds = Rng::new(cfg.seed);
            let mut tried = 0;
            let mut found = None;
            while tried < INJECT_SCAN_LIMIT && found.is_none() {
                let seed = seeds.next_u64();
                tried += 1;
                let case = FuzzCase::generate(seed, Some(domain)).with_injection();
                if verdict(&case).is_ok() {
                    found = Some((seed, case));
                }
            }
            match found {
                Some((seed, case)) => InjectReport {
                    domain,
                    tried,
                    detected_seed: Some(seed),
                    original_ops: case.op_count(),
                    shrunk: Some(shrink(&case)),
                },
                None => InjectReport {
                    domain,
                    tried,
                    detected_seed: None,
                    original_ops: 0,
                    shrunk: None,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaigns_pass_and_count() {
        let cfg = FuzzConfig {
            cases: 8,
            seed: 1,
            domain: None,
        };
        let mut ticks = 0;
        let report = run_fuzz(&cfg, |done, total| {
            assert_eq!(total, 8);
            ticks = done;
        });
        assert!(report.passed(), "{:?}", report.failure.map(|f| f.failure));
        assert_eq!(report.cases_run, 8);
        assert_eq!(ticks, 8);
        assert_eq!(report.counters()[0], ("fuzz.cases", 8));
        assert_eq!(report.llc_cases + report.kv_cases, 8);
        assert!(report.ops_replayed > 0);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = FuzzConfig {
            cases: 4,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg, |_, _| {});
        let b = run_fuzz(&cfg, |_, _| {});
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.cases_run, b.cases_run);
    }

    #[test]
    fn inject_selftest_detects_and_shrinks_both_domains() {
        let reports = run_inject_selftest(&FuzzConfig::default());
        assert_eq!(reports.len(), 2);
        for r in reports {
            assert!(
                r.detected_seed.is_some(),
                "{}: auditor blind after {} seeds",
                r.domain.name(),
                r.tried
            );
            assert!(
                r.passed(64),
                "{}: reproducer did not shrink to <= 64 ops (got {:?})",
                r.domain.name(),
                r.shrunk.as_ref().map(|s| s.case.op_count())
            );
        }
    }
}
