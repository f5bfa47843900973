//! Benchmarks comparing the per-access cost of each LLC organization
//! model (the machinery behind Figures 6-8): uncompressed, naive two-tag,
//! ECM two-tag, Base-Victim, and functional VSC.

use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
use bv_core::{
    BaseVictimLlc, LlcOrganization, NoInner, TwoTagFlavor, TwoTagLlc, UncompressedLlc,
    VictimPolicyKind, VscLlc,
};
use bv_testkit::bench::time;
use bv_trace::DataProfile;
use std::hint::black_box;

/// A deterministic mixed-compressibility access pattern over ~2x the
/// cache's line count, so fills, evictions, victim insertions, and
/// promotions all occur.
fn drive(org: &mut dyn LlcOrganization, accesses: u64) -> u64 {
    let mut inner = NoInner;
    let mut hits = 0;
    let lines = (org.geometry().size_bytes() / 64) as u64 * 2;
    for i in 0..accesses {
        let a = (i * 0x9e37_79b9) % lines;
        let addr = LineAddr::new(a);
        if org.read(addr, &mut inner).is_hit() {
            hits += 1;
        } else {
            let profile = if a.is_multiple_of(3) {
                DataProfile::PointerLike
            } else if a % 3 == 1 {
                DataProfile::WideInt
            } else {
                DataProfile::Random
            };
            org.fill(addr, profile.synthesize(a, 0), &mut inner);
        }
    }
    hits
}

fn bench_organizations() {
    let geom = CacheGeometry::new(256 * 1024, 16, 64); // scaled-down LLC
    let accesses = 50_000;

    time("llc_access", "uncompressed", 10, || {
        let mut org = UncompressedLlc::new(geom, PolicyKind::Nru);
        black_box(drive(&mut org, accesses))
    });
    time("llc_access", "two_tag", 10, || {
        let mut org = TwoTagLlc::new(geom, PolicyKind::Nru, TwoTagFlavor::PartnerVictimization);
        black_box(drive(&mut org, accesses))
    });
    time("llc_access", "two_tag_ecm", 10, || {
        let mut org = TwoTagLlc::new(geom, PolicyKind::Nru, TwoTagFlavor::EcmSizeAware);
        black_box(drive(&mut org, accesses))
    });
    time("llc_access", "base_victim", 10, || {
        let mut org = BaseVictimLlc::new(geom, PolicyKind::Nru, VictimPolicyKind::EcmLargestBase);
        black_box(drive(&mut org, accesses))
    });
    time("llc_access", "vsc_2x", 10, || {
        let mut org = VscLlc::new(geom, PolicyKind::Lru);
        black_box(drive(&mut org, accesses))
    });
}

fn bench_victim_policies() {
    // Section VI.B.4's variants have identical hit rates to first order;
    // this measures their selection cost.
    let geom = CacheGeometry::new(256 * 1024, 16, 64);
    for vp in VictimPolicyKind::ALL {
        time("victim_policy", vp.name(), 10, || {
            let mut org = BaseVictimLlc::new(geom, PolicyKind::Nru, vp);
            black_box(drive(&mut org, 30_000))
        });
    }
}

fn main() {
    bench_organizations();
    bench_victim_policies();
}
