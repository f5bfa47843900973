//! The fuzz case model and its seed-driven generator.
//!
//! A [`FuzzCase`] is a fully materialized adversarial workload for one
//! property domain: either an explicit LLC operation stream driven
//! through the baseline-divergence auditor and the organization zoo, or
//! a kv request-traffic shape driven through the lockstep auditor and
//! the three kv organizations. Everything in a case is a pure function
//! of the generation seed, so a failing seed *is* a reproducer; the
//! materialized form exists so the shrinker can edit it piecewise.

use bv_cache::{CacheGeometry, PolicyKind};
use bv_compress::CacheLine;
use bv_core::audit::AuditOp;
use bv_core::VictimPolicyKind;
use bv_testkit::{mix, Rng};
use bv_trace::request::RequestProfile;
use bv_trace::DataProfile;

/// Which property family a case exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// Hardware LLC: baseline-mirror audit plus stats identity across
    /// the organization zoo.
    Llc,
    /// Software kv tier: lockstep mirror plus budget and determinism.
    Kv,
}

impl Domain {
    /// Stable name (the corpus `domain` field and CLI flag).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Domain::Llc => "llc",
            Domain::Kv => "kv",
        }
    }

    /// Inverse of [`Domain::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Domain> {
        match s {
            "llc" => Some(Domain::Llc),
            "kv" => Some(Domain::Kv),
            _ => None,
        }
    }
}

/// An LLC case: a small geometry, a policy pair, a data palette, and an
/// explicit operation stream.
#[derive(Clone, Debug, PartialEq)]
pub struct LlcCase {
    /// Sets in the toy geometry (small, so divergence surfaces fast).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Baseline replacement policy for both lockstep sides.
    pub policy: PolicyKind,
    /// Victim-cache allocation policy for the Base-Victim side.
    pub victim: VictimPolicyKind,
    /// Data palette: a line address's bytes come from
    /// `palette[mix(addr) % len]`, so compressibility is address-stable.
    pub palette: Vec<DataProfile>,
    /// The operation stream, explicit so the shrinker can cut it.
    pub ops: Vec<AuditOp>,
}

impl LlcCase {
    /// The case's cache geometry (64 B lines).
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry::new(self.sets * self.ways * 64, self.ways, 64)
    }

    /// Address-stable line contents drawn from the palette.
    #[must_use]
    pub fn data_for(&self, addr: u64) -> CacheLine {
        let profile = self.palette[(mix(addr) as usize) % self.palette.len()];
        profile.synthesize(addr, 0)
    }
}

/// A kv case: a request-traffic shape plus replay parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct KvCase {
    /// The traffic shape (always named `"fuzz"`).
    pub profile: RequestProfile,
    /// Tier byte budget shared by every organization under test.
    pub budget: u64,
    /// Requests to replay.
    pub requests: u64,
    /// Request-stream seed (independent of the generation seed so the
    /// shrinker can re-seed toward a canonical stream).
    pub stream_seed: u64,
}

/// The domain-specific body of a case.
#[derive(Clone, Debug, PartialEq)]
pub enum CaseBody {
    /// See [`LlcCase`].
    Llc(LlcCase),
    /// See [`KvCase`].
    Kv(KvCase),
}

/// One adversarial workload, ready to check, shrink, or serialize.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// The generation seed this case was derived from (kept through
    /// shrinking for provenance).
    pub seed: u64,
    /// The workload itself.
    pub body: CaseBody,
    /// If set, a synthetic fault is planted after op `inject_at` is
    /// applied and before it is checked, in both domains (LLC: extra
    /// baseline reads; kv: a baseline recency perturbation).
    /// An injected case *passes* when the fault is detected — the
    /// `--inject` self-test convention.
    pub inject_at: Option<u64>,
}

impl FuzzCase {
    /// The case's domain.
    #[must_use]
    pub fn domain(&self) -> Domain {
        match self.body {
            CaseBody::Llc(_) => Domain::Llc,
            CaseBody::Kv(_) => Domain::Kv,
        }
    }

    /// How many operations the case replays — the size the shrinker
    /// minimizes and the acceptance bound for `--inject` reproducers.
    #[must_use]
    pub fn op_count(&self) -> u64 {
        match &self.body {
            CaseBody::Llc(c) => c.ops.len() as u64,
            CaseBody::Kv(c) => c.requests,
        }
    }

    /// Generates the case for a seed, optionally pinned to one domain.
    /// Pure: the same `(seed, domain)` always yields the same case.
    #[must_use]
    pub fn generate(seed: u64, domain: Option<Domain>) -> FuzzCase {
        let mut rng = Rng::new(seed);
        let picked = domain.unwrap_or(if rng.flip() { Domain::Llc } else { Domain::Kv });
        let body = match picked {
            Domain::Llc => CaseBody::Llc(generate_llc(&mut rng)),
            Domain::Kv => CaseBody::Kv(generate_kv(&mut rng)),
        };
        FuzzCase {
            seed,
            body,
            inject_at: None,
        }
    }

    /// Arms the case's synthetic fault at the stream midpoint, turning
    /// it into a detection self-test (the fuzz twin of `--inject` on
    /// `bvsim trace` / `bvsim kv`).
    #[must_use]
    pub fn with_injection(mut self) -> FuzzCase {
        self.inject_at = Some((self.op_count() / 2).max(1));
        self
    }
}

/// How one contiguous run of LLC addresses is laid out.
#[derive(Clone, Copy)]
enum AddressPattern {
    /// A small hot set hammered repeatedly.
    HotSet { base: u64, span: u64 },
    /// A sequential sweep (streaming, evicts everything).
    Scan { start: u64 },
    /// Set-aliasing: every address lands in the same set.
    Alias { base: u64, sets: u64 },
    /// Uniform over a wide span.
    Uniform { span: u64 },
}

fn generate_llc(rng: &mut Rng) -> LlcCase {
    let sets = *rng.choose(&[4usize, 8, 16]);
    let ways = *rng.choose(&[2usize, 4, 8]);
    let policy = *rng.choose(&PolicyKind::ALL);
    let victim = *rng.choose(&VictimPolicyKind::ALL);

    // Palette: 1-4 profiles; one case in four is an incompressible
    // burst (all-Random values starve the victim area of slack).
    let palette = if rng.below(4) == 0 {
        vec![DataProfile::Random]
    } else {
        let n = 1 + rng.index(4);
        rng.vec_of(n, |r| *r.choose(&DataProfile::ALL))
    };

    let capacity = (sets * ways) as u64;
    let total_ops = 256 + rng.below(1792) as usize;
    let mut ops = Vec::with_capacity(total_ops);
    let mut hot_base = rng.below(capacity * 8);
    while ops.len() < total_ops {
        // Hot-set flips: each segment may relocate the hot region.
        if rng.below(3) == 0 {
            hot_base = rng.below(capacity * 8);
        }
        let pattern = match rng.below(4) {
            0 => AddressPattern::HotSet {
                base: hot_base,
                span: 1 + rng.below(capacity / 2 + 1),
            },
            1 => AddressPattern::Scan {
                start: rng.below(capacity * 4),
            },
            2 => AddressPattern::Alias {
                base: rng.below(sets as u64),
                sets: sets as u64,
            },
            _ => AddressPattern::Uniform {
                span: capacity * (2 + rng.below(6)),
            },
        };
        let seg_len = (8 + rng.below(64) as usize).min(total_ops - ops.len());
        for i in 0..seg_len {
            let a = match pattern {
                AddressPattern::HotSet { base, span } => base + rng.below(span),
                AddressPattern::Scan { start } => start + i as u64,
                AddressPattern::Alias { base, sets } => base + rng.below(4 * 8) * sets,
                AddressPattern::Uniform { span } => rng.below(span),
            };
            ops.push(match rng.below(10) {
                0..=6 => AuditOp::Read(a),
                7..=8 => AuditOp::Writeback(a),
                _ => AuditOp::Prefetch(a),
            });
        }
    }

    LlcCase {
        sets,
        ways,
        policy,
        victim,
        palette,
        ops,
    }
}

fn generate_kv(rng: &mut Rng) -> KvCase {
    let budget = 4096 + rng.below(128 * 1024);
    let keys = 8 + rng.below(4096);
    let skew = rng.below(1400) as f64 / 1000.0;
    let get_ratio = (500 + rng.below(500)) as f64 / 1000.0;
    let clients = 1 + rng.below(8) as u32;
    let phase_requests = if rng.flip() { 0 } else { 64 + rng.below(2000) };

    // Size buckets: ordinary object sizes, with one case in four adding
    // a budget-boundary bucket (just-fits / just-misses / bypasses).
    let bucket_count = 1 + rng.index(4);
    let mut size_buckets = rng.vec_of(bucket_count, |r| {
        (64 * (1 + r.below(64)) as u32, 1 + r.below(4) as u32)
    });
    if rng.below(4) == 0 {
        let aligned = ((budget / 64).max(1) * 64) as u32;
        let boundary = *rng.choose(&[
            aligned,
            aligned.saturating_sub(64).max(64),
            aligned / 2,
            aligned + 64,
        ]);
        size_buckets.push((boundary.max(64), 1 + rng.below(4) as u32));
    }

    // Value mix: 1-4 profiles, or an incompressible burst dominated by
    // Random data (one case in four).
    let value_mix = if rng.below(4) == 0 {
        vec![
            (DataProfile::Random, 8),
            (*rng.choose(&DataProfile::ALL), 1),
        ]
    } else {
        {
            let mix_count = 1 + rng.index(4);
            rng.vec_of(mix_count, |r| {
                (*r.choose(&DataProfile::ALL), 1 + r.below(4) as u32)
            })
        }
    };

    KvCase {
        profile: RequestProfile {
            name: "fuzz",
            keys,
            skew,
            get_ratio,
            clients,
            phase_requests,
            size_buckets,
            value_mix,
        },
        budget,
        requests: 256 + rng.below(4096),
        stream_seed: rng.next_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50u64 {
            assert_eq!(
                FuzzCase::generate(seed, None),
                FuzzCase::generate(seed, None)
            );
        }
    }

    #[test]
    fn domain_pinning_is_respected() {
        for seed in 0..20u64 {
            assert_eq!(
                FuzzCase::generate(seed, Some(Domain::Llc)).domain(),
                Domain::Llc
            );
            assert_eq!(
                FuzzCase::generate(seed, Some(Domain::Kv)).domain(),
                Domain::Kv
            );
        }
    }

    #[test]
    fn both_domains_appear_without_pinning() {
        let mut llc = 0;
        let mut kv = 0;
        for seed in 0..40u64 {
            match FuzzCase::generate(seed, None).domain() {
                Domain::Llc => llc += 1,
                Domain::Kv => kv += 1,
            }
        }
        assert!(llc > 0 && kv > 0, "llc {llc} kv {kv}");
    }

    #[test]
    fn llc_cases_are_well_formed() {
        for seed in 0..30u64 {
            let case = FuzzCase::generate(seed, Some(Domain::Llc));
            let CaseBody::Llc(c) = &case.body else {
                panic!("pinned llc")
            };
            assert!(!c.ops.is_empty() && c.ops.len() <= 2048);
            assert!(!c.palette.is_empty());
            assert_eq!(c.geometry().sets(), c.sets);
            assert_eq!(c.geometry().ways(), c.ways);
            // Data must be address-stable for size-aware policies.
            assert_eq!(c.data_for(17), c.data_for(17));
        }
    }

    #[test]
    fn kv_cases_are_well_formed() {
        for seed in 0..30u64 {
            let case = FuzzCase::generate(seed, Some(Domain::Kv));
            let CaseBody::Kv(c) = &case.body else {
                panic!("pinned kv")
            };
            assert!(c.requests >= 256);
            assert!(c.profile.keys >= 8);
            assert!(!c.profile.size_buckets.is_empty());
            assert!(!c.profile.value_mix.is_empty());
            assert!(c.profile.size_buckets.iter().all(|&(b, _)| b >= 64));
        }
    }

    #[test]
    fn injection_arms_the_midpoint() {
        let case = FuzzCase::generate(3, Some(Domain::Kv)).with_injection();
        assert_eq!(case.inject_at, Some((case.op_count() / 2).max(1)));
    }
}
