//! Property evaluation: replay a case through its domain's lockstep
//! oracle and the organization zoo and report the first observed
//! divergence.
//!
//! Two layers, because injection flips the meaning of an observation:
//!
//! * [`observe`] answers "did any property *trip*?" — a divergence, a
//!   budget violation, a stats mismatch — with no judgement attached.
//! * [`verdict`] applies the `--inject` convention through
//!   [`MirrorReport::passed`]: a clean case passes when nothing trips;
//!   an injected case passes when the planted fault **is** detected (an
//!   undetected injected fault means the oracle is blind, which is
//!   exactly the regression the fuzzer exists to catch).
//!
//! The shrinker minimizes against [`observe`]: whatever tripped must
//! keep tripping as the case gets smaller.

use crate::case::{CaseBody, FuzzCase, KvCase, LlcCase};
use bv_cache::LineAddr;
use bv_core::audit::{render_divergence, LlcMirror};
use bv_core::LlcOrganization;
use bv_events::RingSink;
use bv_kvcache::{compress_value, run_kv, KvConfig, KvMirror, KvOrgKind};
use bv_sim::LlcKind;
use bv_testkit::mirror::{run, MirrorReport};
use bv_trace::request::RequestStream;

/// The organization cross-section every LLC case replays for stats
/// identity: the same seven kinds the event zero-cost suite pins.
pub const LLC_KINDS: [LlcKind; 7] = [
    LlcKind::Uncompressed,
    LlcKind::TwoTag,
    LlcKind::TwoTagEcm,
    LlcKind::BaseVictim,
    LlcKind::BaseVictimNonInclusive,
    LlcKind::Vsc,
    LlcKind::Dcc,
];

/// One tripped property.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Stable property name (`llc-mirror`, `llc-stats-identity`,
    /// `llc-payload`, `kv-mirror`, `kv-budget`, `kv-determinism`,
    /// `inject-undetected`, `panic`).
    pub property: &'static str,
    /// Human-readable explanation of what differed.
    pub detail: String,
}

/// Replays every property for the case and returns the first observed
/// trip, or `None` when all properties held. Injection (if armed) is
/// live during the oracle; the zoo properties are skipped for injected
/// cases since the fault model only exists inside the oracle.
///
/// A panic anywhere under replay — a violated internal invariant, an
/// overflow, an `expect` on a state the model thought impossible — is
/// caught and reported as the `panic` property, so a crashing case gets
/// minimized and serialized like any other counterexample instead of
/// killing the campaign.
#[must_use]
pub fn observe(case: &FuzzCase) -> Option<FuzzFailure> {
    match replay(case) {
        Ok(report) => report.divergence.map(|(_, f)| f),
        Err(f) => Some(f),
    }
}

/// Applies the `--inject` pass/fail convention: the oracle's
/// [`MirrorReport::passed`], plus every zoo property of a clean case.
///
/// # Errors
///
/// A clean case fails with whatever property tripped; an injected case
/// fails with the oracle's divergence when it diverged before the fault
/// was planted, and with `inject-undetected` when no divergence
/// followed the fault (or the fault lay past the end of the stream).
pub fn verdict(case: &FuzzCase) -> Result<(), FuzzFailure> {
    let report = replay(case)?;
    if report.passed() && report.injected == case.inject_at.is_some() {
        return Ok(());
    }
    Err(match report.divergence {
        Some((_, f)) => f,
        None => FuzzFailure {
            property: "inject-undetected",
            detail: format!(
                "fault injected after op {} but no oracle property tripped \
                 ({} case, {} ops)",
                case.inject_at.unwrap_or_default(),
                case.domain().name(),
                case.op_count()
            ),
        },
    })
}

/// Runs the case's lockstep oracle and then, for a clean case the oracle
/// passed, the zoo properties. A zoo trip or a panic anywhere is the
/// `Err`.
fn replay(case: &FuzzCase) -> Result<MirrorReport<FuzzFailure>, FuzzFailure> {
    quiet_catch(|| {
        let inject_at = case
            .inject_at
            .map(|at| usize::try_from(at).unwrap_or(usize::MAX));
        let report = match &case.body {
            CaseBody::Llc(c) => {
                let mut mirror =
                    LlcMirror::new(c.geometry(), c.policy, c.victim, 8, |a| c.data_for(a));
                run(&mut mirror, c.ops.iter().copied(), inject_at).map(|op, d| FuzzFailure {
                    property: "llc-mirror",
                    detail: render_divergence(op, &d),
                })
            }
            CaseBody::Kv(c) => {
                let mut mirror = KvMirror::new(c.budget, |key| {
                    compress_value(key, c.profile.value_spec(key))
                });
                let ops = RequestStream::new(c.profile.clone(), c.stream_seed);
                run(&mut mirror, ops.take(c.requests as usize), inject_at).map(|op, detail| {
                    FuzzFailure {
                        property: "kv-mirror",
                        detail: format!("op {op}: {detail}"),
                    }
                })
            }
        };
        if report.divergence.is_none() && case.inject_at.is_none() {
            match &case.body {
                CaseBody::Llc(c) => stats_identity(c)?,
                CaseBody::Kv(c) => kv_zoo(c)?,
            }
        }
        Ok(report)
    })
}

thread_local! {
    /// True while this thread is inside [`quiet_catch`]; the shared hook
    /// consults it so a caught replay panic prints nothing (the shrinker
    /// re-triggers the same panic hundreds of times) while panics on
    /// every other thread keep their normal report.
    static CATCHING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f`, converting a panic into a [`FuzzFailure`] and suppressing
/// the default panic message for the duration.
fn quiet_catch<T>(f: impl FnOnce() -> Result<T, FuzzFailure>) -> Result<T, FuzzFailure> {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CATCHING.with(std::cell::Cell::get) {
                default(info);
            }
        }));
    });
    CATCHING.with(|c| c.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CATCHING.with(|c| c.set(false));
    match result {
        Ok(observed) => observed,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(FuzzFailure {
                property: "panic",
                detail: format!("replay panicked: {msg}"),
            })
        }
    }
}

fn sorted_lines(llc: &dyn LlcOrganization) -> Vec<u64> {
    let mut v: Vec<u64> = llc.resident_lines().iter().map(|a| a.get()).collect();
    v.sort_unstable();
    v
}

/// Stats identity across the organization zoo: an untraced run, a
/// second untraced run (determinism), and a traced run must agree on
/// every counter and on the resident-line set, and the traced run must
/// actually emit events. After the stream, every run must pass its
/// organization's `assert_invariants` (a violation panics, reported as
/// the `panic` property) and hold each resident line's memory contents
/// (`llc-payload`): contents are address-stable, so a line whose data
/// went to the wrong slot on a move shows up here.
///
/// Every run replays the stream next to one uncompressed model: a
/// writeback reaches an organization only when the model holds the line
/// (inclusion bounds the inner level by uncompressed residency, and a
/// victim-area write hit would break inclusive Base-Victim) and the
/// organization does (TwoTag, Vsc and Dcc may have evicted it).
fn stats_identity(c: &LlcCase) -> Result<(), FuzzFailure> {
    let geom = c.geometry();
    for kind in LLC_KINDS {
        let mut model = LlcKind::Uncompressed.build(geom, c.policy);
        let mut first = kind.build(geom, c.policy);
        let mut again = kind.build(geom, c.policy);
        let mut traced = kind.build_traced(geom, c.policy, RingSink::new(1 << 12));
        let mut events = 0u64;
        for &op in &c.ops {
            let data = c.data_for(op.addr());
            let legal = model.contains(LineAddr::new(op.addr()));
            for llc in [&mut model, &mut first, &mut again, &mut traced] {
                op.apply(llc.as_mut(), data, legal);
            }
            events += traced.drain_events().len() as u64;
        }
        let fail = |what: &str| {
            Err(FuzzFailure {
                property: "llc-stats-identity",
                detail: format!("{}: {what}", kind.name()),
            })
        };
        if first.stats() != again.stats()
            || sorted_lines(first.as_ref()) != sorted_lines(again.as_ref())
        {
            return fail(&format!(
                "two untraced runs disagree: {:?} vs {:?}",
                first.stats(),
                again.stats()
            ));
        }
        if first.stats() != traced.stats()
            || sorted_lines(first.as_ref()) != sorted_lines(traced.as_ref())
        {
            return fail(&format!(
                "traced run diverged from untraced: {:?} vs {:?}",
                traced.stats(),
                first.stats()
            ));
        }
        if events == 0 {
            return fail("traced run emitted no events");
        }
        for llc in [&model, &first, &again, &traced] {
            llc.assert_invariants();
            if let Some(a) = llc
                .resident_lines()
                .into_iter()
                .find(|&a| llc.peek_data(a) != Some(c.data_for(a.get())))
            {
                return Err(FuzzFailure {
                    property: "llc-payload",
                    detail: format!(
                        "{}: resident line {:#x} does not hold its memory contents",
                        llc.name(),
                        a.get()
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Budget and determinism across the three kv organizations.
fn kv_zoo(c: &KvCase) -> Result<(), FuzzFailure> {
    for org in KvOrgKind::ALL {
        let cfg = KvConfig {
            org,
            profile: c.profile.clone(),
            budget: c.budget,
            requests: c.requests,
            warmup: 0,
            seed: c.stream_seed,
        };
        let run = run_kv(&cfg);
        if run.occupancy.resident_bytes > c.budget {
            return Err(FuzzFailure {
                property: "kv-budget",
                detail: format!(
                    "{}: resident {} bytes exceeds budget {}",
                    org.name(),
                    run.occupancy.resident_bytes,
                    c.budget
                ),
            });
        }
        let replay = run_kv(&cfg);
        if run.stats != replay.stats || run.occupancy != replay.occupancy {
            return Err(FuzzFailure {
                property: "kv-determinism",
                detail: format!(
                    "{}: identical configs disagree: {:?} vs {:?}",
                    org.name(),
                    run.stats,
                    replay.stats
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Domain;

    #[test]
    fn clean_generated_cases_pass_both_domains() {
        for seed in 0..6u64 {
            for domain in [Domain::Llc, Domain::Kv] {
                let case = FuzzCase::generate(seed, Some(domain));
                let v = verdict(&case);
                assert!(
                    v.is_ok(),
                    "seed {seed} {}: {:?}",
                    domain.name(),
                    v.err().map(|f| format!("{}: {}", f.property, f.detail))
                );
            }
        }
    }

    #[test]
    fn injected_kv_faults_are_detected() {
        for seed in 0..4u64 {
            let case = FuzzCase::generate(seed, Some(Domain::Kv)).with_injection();
            let obs = observe(&case).expect("kv perturbation must trip the mirror");
            assert_eq!(obs.property, "kv-mirror");
            assert!(verdict(&case).is_ok(), "detected fault must pass verdict");
        }
    }

    #[test]
    fn injected_llc_faults_are_detected() {
        let mut detected = 0;
        for seed in 0..6u64 {
            let case = FuzzCase::generate(seed, Some(Domain::Llc)).with_injection();
            if let Some(obs) = observe(&case) {
                assert_eq!(obs.property, "llc-mirror");
                detected += 1;
            }
        }
        // The replacement-state perturbation needs pressure to surface;
        // most but not necessarily all random streams provide it.
        assert!(detected >= 4, "only {detected}/6 injections surfaced");
    }

    #[test]
    fn replay_panics_become_failures_not_aborts() {
        let f = quiet_catch::<()>(|| panic!("boom {}", 7)).expect_err("panic must surface");
        assert_eq!(f.property, "panic");
        assert!(f.detail.contains("boom 7"), "{}", f.detail);
        assert!(quiet_catch(|| Ok(())).is_ok(), "clean replay stays clean");
    }

    #[test]
    fn undetected_injection_fails_the_verdict() {
        // An empty-stream injected case can never trip an auditor.
        let mut case = FuzzCase::generate(1, Some(Domain::Kv));
        if let CaseBody::Kv(ref mut c) = case.body {
            c.requests = 0;
        }
        case.inject_at = Some(0);
        let err = verdict(&case).expect_err("nothing to detect");
        assert_eq!(err.property, "inject-undetected");
    }
}
