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

use base_victim::kvcache::{
    run_kv, BaseVictimKv, CompressedKv, KvConfig, KvMirror, KvOrgKind, UncompressedKv, ValueMeta,
};
use base_victim::trace::request::{KvOp, KvRequest, RequestProfile, SplitMix64};
use bv_testkit::mirror::run;

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

#[test]
fn fuzzed_mixtures_never_exceed_the_byte_budget() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut unc: UncompressedKv = UncompressedKv::new(BUDGET, bv_events::NoEventSink);
        let mut comp: CompressedKv = CompressedKv::new(BUDGET, bv_events::NoEventSink);
        let mut bv: BaseVictimKv = BaseVictimKv::new(BUDGET, bv_events::NoEventSink);
        for op in 0..OPS_PER_SEED {
            let (is_get, key) = next_request(&mut rng, 256);
            for occ in [
                {
                    if is_get {
                        unc.get(key, || meta_for(key, BUDGET));
                    } else {
                        unc.put(key, || meta_for(key, BUDGET));
                    }
                    unc.occupancy()
                },
                {
                    if is_get {
                        comp.get(key, || meta_for(key, BUDGET));
                    } else {
                        comp.put(key, || meta_for(key, BUDGET));
                    }
                    comp.occupancy()
                },
                {
                    if is_get {
                        bv.get(key, || meta_for(key, BUDGET));
                    } else {
                        bv.put(key, || meta_for(key, BUDGET));
                    }
                    bv.occupancy()
                },
            ] {
                assert!(
                    occ.resident_bytes <= BUDGET,
                    "seed {seed}, op {op}: {} resident bytes > {BUDGET} budget",
                    occ.resident_bytes
                );
            }
        }
        // The oversized values must have gone through the bypass path,
        // not been force-fit.
        assert!(
            bv.stats().bypassed > 0,
            "seed {seed}: bypass never exercised"
        );
        assert_eq!(bv.stats().bypassed, unc.stats().bypassed, "seed {seed}");
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
