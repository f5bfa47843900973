//! Property tests for the kv tier's two structural guarantees, checked
//! after **every** operation of randomized request mixtures rather than
//! only at the end of canned streams:
//!
//! 1. **Baseline mirror** — the base-victim tier's baseline area holds
//!    exactly the keys, in exactly the recency order, of an uncompressed
//!    tier fed the same requests; its base hits and (misses + victim
//!    hits) match the uncompressed tier's hits and misses one-for-one.
//! 2. **Byte budget** — no organization's physical occupancy ever
//!    exceeds its budget, not even transiently between an admission and
//!    the evictions it forces.
//!
//! The mixtures are deliberately nastier than the preset profiles: tiny
//! keyspaces that force constant eviction, values spanning 1 byte to
//! larger-than-budget (exercising the bypass path), and per-key
//! compressibility from incompressible to 32x.
//!
//! All three organizations share one code path, which the mirror cannot
//! see wrong on both sides at once, so each organization's full event
//! stream is also pinned by digest.

use base_victim::events::RingSink;
use base_victim::kvcache::{run_kv, run_kv_traced, KvConfig, KvMirror, KvOrgKind, ValueMeta};
use base_victim::trace::request::{KvOp, KvRequest, RequestProfile, SplitMix64};
use bv_testkit::mirror::run;

mod common;
use common::event_digest;

const BUDGET: u64 = 64 * 1024;
const OPS_PER_SEED: u64 = 4_000;
const SEEDS: [u64; 4] = [1, 42, 0xdead_beef, 0x5eed_5eed_5eed_5eed];

/// Deterministic per-key value shape: sizes from 1 byte up past the
/// budget (bypass), compressed size anywhere from `bytes/32` to `bytes`.
fn meta_for(key: u64, budget: u64) -> ValueMeta {
    let mut rng = SplitMix64::new(key ^ 0xfeed_face_cafe_f00d);
    let bytes = match rng.below(100) {
        0 => budget + 1 + rng.below(budget), // larger than the whole tier
        1..=9 => 1 + rng.below(63),          // tiny
        _ => 64 + rng.below(8 * 1024),       // typical object
    };
    let compressed = (bytes / (1 + rng.below(32))).max(1).min(bytes);
    ValueMeta::new(bytes as u32, compressed as u32)
}

/// One randomized request: 70% gets, 30% puts, keys Zipf-ish by nesting
/// `below` so low keys are much hotter than the tail.
fn next_request(rng: &mut SplitMix64, keyspace: u64) -> (bool, u64) {
    let is_get = rng.below(10) < 7;
    let bound = 1 + rng.below(keyspace);
    (is_get, rng.below(bound))
}

/// The lockstep oracle checks the recency order, the hit split and the
/// byte budget after every request.
#[test]
fn fuzzed_mixtures_uphold_the_baseline_mirror() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let requests = (0..OPS_PER_SEED).map(|_| {
            let (is_get, key) = next_request(&mut rng, 512);
            let op = if is_get { KvOp::Get } else { KvOp::Put };
            KvRequest { client: 0, op, key }
        });
        let mut mirror = KvMirror::new(BUDGET, |key| meta_for(key, BUDGET));
        let report = run(&mut mirror, requests, None);
        assert!(report.passed(), "seed {seed}: {:?}", report.divergence);
        assert_eq!(report.ops_run, OPS_PER_SEED as usize);
        let (unc, bv) = mirror.stats();
        assert!(
            bv.hits() >= unc.hits(),
            "seed {seed}: base-victim lost hits vs uncompressed"
        );
    }
}

/// Every organization runs the same request draws, and its invariants
/// (charged and physical bytes within budget, victim area disjoint and
/// empty outside base-victim) are checked after every op.
#[test]
fn fuzzed_mixtures_never_exceed_the_byte_budget() {
    for seed in SEEDS {
        let mut bypassed = Vec::new();
        for org in KvOrgKind::ALL {
            let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut tier = org.build(BUDGET);
            for op in 0..OPS_PER_SEED {
                let (is_get, key) = next_request(&mut rng, 256);
                if is_get {
                    tier.get(key, || meta_for(key, BUDGET));
                } else {
                    tier.put(key, || meta_for(key, BUDGET));
                }
                let occ = tier.occupancy();
                assert!(
                    occ.resident_bytes <= BUDGET,
                    "{} seed {seed}, op {op}: {} resident bytes > {BUDGET} budget",
                    org.name(),
                    occ.resident_bytes
                );
                if let Err(e) = tier.check_invariants() {
                    panic!("{} seed {seed}, op {op}: {e}", org.name());
                }
            }
            bypassed.push(tier.stats().bypassed);
        }
        // The oversized values must have gone through the bypass path,
        // not been force-fit; both logical-charge orgs bypass the same.
        let [unc, _, bv] = bypassed[..] else {
            unreachable!("three organizations")
        };
        assert!(bv > 0, "seed {seed}: bypass never exercised");
        assert_eq!(bv, unc, "seed {seed}");
    }
}

/// The end-to-end guarantee on the preset profiles across budgets: the
/// base-victim tier's hit count is never below the uncompressed tier's,
/// and never above the idealized always-compressed tier's.
#[test]
fn preset_profiles_order_the_organizations() {
    for dist in RequestProfile::NAMES {
        for budget_kib in [64u64, 256] {
            let run = |org| {
                let mut cfg = KvConfig::new(org, RequestProfile::by_name(dist).expect("preset"));
                cfg.budget = budget_kib * 1024;
                cfg.warmup = 2_000;
                cfg.requests = 8_000;
                run_kv(&cfg)
            };
            let unc = run(KvOrgKind::Uncompressed);
            let comp = run(KvOrgKind::Compressed);
            let bv = run(KvOrgKind::BaseVictim);
            assert!(
                bv.stats.hits() >= unc.stats.hits(),
                "{dist}@{budget_kib}KiB: bv {} < unc {}",
                bv.stats.hits(),
                unc.stats.hits()
            );
            assert_eq!(
                bv.stats.base_hits,
                unc.stats.hits(),
                "{dist}@{budget_kib}KiB: baseline is not a mirror"
            );
            assert!(
                bv.stats.hits() <= comp.stats.hits(),
                "{dist}@{budget_kib}KiB: bv {} beat always-compress {}",
                bv.stats.hits(),
                comp.stats.hits()
            );
        }
    }
}

/// (profile, organization, event count, FNV-1a digest) of each full
/// event stream on [`event_config`]. Any change to event order, kind,
/// bucket, tag, size or cause changes them; update them only for an
/// intentional change to what a tier emits.
const EVENT_DIGESTS: [(&str, &str, usize, u64); 9] = [
    ("web", "uncompressed", 26154, 0xffb94c4252d347cf),
    ("web", "compressed", 24723, 0x037c8a6e850659ea),
    ("web", "base-victim", 42090, 0xc05e6125f15dc20a),
    ("analytics", "uncompressed", 27926, 0x4ab81e63d4e74258),
    ("analytics", "compressed", 27915, 0x4927659beac87f44),
    ("analytics", "base-victim", 46297, 0x26998872fdcb16d3),
    ("social", "uncompressed", 16759, 0xb18a023d1dd899f8),
    ("social", "compressed", 15066, 0x57cf7f7af905473a),
    ("social", "base-victim", 23582, 0xcaca74c88979a9dc),
];

/// A 16 KiB tier: small enough that analytics traffic also fails to
/// park some displaced entries.
fn event_config(org: KvOrgKind, dist: &str) -> KvConfig {
    let mut cfg = KvConfig::new(org, RequestProfile::by_name(dist).expect("preset"));
    cfg.budget = 16 * 1024;
    cfg.warmup = 2_000;
    cfg.requests = 8_000;
    cfg.seed = 17;
    cfg
}

/// Pins the order and content of every organization's event stream, not
/// only the counters the goldens cover.
#[test]
fn event_streams_match_the_recorded_digests() {
    let mut got = Vec::new();
    for dist in RequestProfile::NAMES {
        for org in KvOrgKind::ALL {
            let cfg = event_config(org, dist);
            let (_, events, dropped) = run_kv_traced(&cfg, RingSink::new(1 << 20));
            assert_eq!(
                dropped,
                0,
                "{dist}/{}: the ring must hold every event",
                org.name()
            );
            got.push((dist, org.name(), events.len(), event_digest(&events)));
        }
    }
    assert_eq!(got, EVENT_DIGESTS, "an event stream changed");
}
