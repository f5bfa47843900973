//! Randomized stress of the state the compressed organizations keep
//! incrementally: DCC's and VSC's per-set occupancy counters, the
//! Base-Victim victim tag row with its valid and dirty masks, and every
//! organization's payload array.
//!
//! Each case drives one organization on a small random geometry (down
//! to one set of one way, where a DCC super-block outgrows its own set)
//! with reads that fill on a miss, prefetches, and writebacks whose data
//! changes compressibility, so lines grow and shrink in place. After
//! every op the organization's `assert_invariants` must pass (it
//! compares each maintained counter against a full rescan), and every
//! resident line must hold the last data written to its address.

use bv_cache::{CacheGeometry, LineAddr, PolicyKind};
use bv_compress::{Bdi, CacheLine};
use bv_core::{
    BaseVictimLlc, DccLlc, InclusionMode, LlcOrganization, NoInner, TwoTagFlavor, TwoTagLlc,
    UncompressedLlc, VictimPolicyKind, VscLlc,
};
use bv_events::NoEventSink;
use bv_testkit::{cases, Rng};
use std::cell::Cell;
use std::collections::HashMap;

/// Line contents of one of four compressibility classes (1, 2, about 5,
/// and 16 BDI segments), picked by `key`.
fn line_for(key: u64) -> CacheLine {
    let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    match h % 4 {
        0 => CacheLine::zeroed(),
        1 => CacheLine::from_u64_words(&core::array::from_fn(|i| {
            0x4000_0000_0000 + (key & 0xffff) * 64 + i as u64
        })),
        2 => CacheLine::from_u64_words(&[h; 8]),
        _ => CacheLine::from_u64_words(&core::array::from_fn(|i| {
            h.wrapping_mul(i as u64 + 1).wrapping_add((i as u64) << 55)
        })),
    }
}

/// A geometry of 1, 2 or 4 sets of one of `ways` ways.
fn small_geometry(rng: &mut Rng, ways: &[usize]) -> CacheGeometry {
    let sets = 1 << rng.below(3);
    let ways = *rng.choose(ways);
    CacheGeometry::new(sets * ways * 64, ways, 64)
}

/// Drives `build(geom, policy)` with 400 random operations per case on
/// geometries of `ways` ways, checking invariants and payloads after
/// each. Writebacks reach the organization only for lines an
/// uncompressed model of the same geometry holds (the inner level can
/// only hold those) and the organization holds.
fn stress(ways: &[usize], build: impl Fn(CacheGeometry, PolicyKind) -> Box<dyn LlcOrganization>) {
    let writebacks = Cell::new(0);
    cases(24, |rng| {
        let geom = small_geometry(rng, ways);
        let policy = *rng.choose(&PolicyKind::ALL);
        let mut llc = build(geom, policy);
        let mut model = UncompressedLlc::new(geom, policy);
        // Memory contents: a writeback's data is what a later refetch
        // reads, as it would be after the dirty line is written back.
        let mut memory: HashMap<u64, CacheLine> = HashMap::new();
        let span = (geom.sets() * geom.ways() * 16) as u64;
        let mut inner = NoInner;
        for step in 0..400u64 {
            let a = rng.below(span);
            let addr = LineAddr::new(a);
            let data = *memory.entry(a).or_insert_with(|| line_for(a));
            match rng.below(10) {
                0..=5 => {
                    for side in [&mut *llc as &mut dyn LlcOrganization, &mut model] {
                        if !side.read(addr, &mut inner).is_hit() {
                            side.fill(addr, data, &mut inner);
                        }
                    }
                }
                6..=7 => {
                    if model.contains(addr) && llc.contains(addr) {
                        let fresh = line_for(rng.next_u64());
                        memory.insert(a, fresh);
                        llc.writeback(addr, fresh, &mut inner);
                        model.writeback(addr, fresh, &mut inner);
                    }
                }
                _ => {
                    llc.prefetch_fill(addr, data, &mut inner);
                    model.prefetch_fill(addr, data, &mut inner);
                }
            }
            llc.assert_invariants();
            for line in llc.resident_lines() {
                assert_eq!(
                    llc.peek_data(line),
                    Some(memory[&line.get()]),
                    "{} on {geom:?}: step {step} left line {:#x} with the wrong data",
                    llc.name(),
                    line.get()
                );
            }
        }
        writebacks.set(writebacks.get() + llc.stats().writeback_hits);
    });
    assert!(writebacks.get() > 0, "the streams issued no writebacks");
}

#[test]
fn two_tag_pairing_holds_under_random_traffic() {
    for flavor in [
        TwoTagFlavor::PartnerVictimization,
        TwoTagFlavor::EcmSizeAware,
    ] {
        stress(&[1, 2, 4], |geom, policy| {
            Box::new(TwoTagLlc::new(geom, policy, flavor))
        });
    }
}

#[test]
fn base_victim_tag_row_holds_under_random_traffic() {
    for mode in [InclusionMode::Inclusive, InclusionMode::NonInclusive] {
        for kind in VictimPolicyKind::ALL {
            stress(&[1, 2, 4], |geom, policy| {
                Box::new(BaseVictimLlc::with_sink(
                    geom,
                    policy,
                    kind,
                    mode,
                    Box::new(Bdi::new()),
                    NoEventSink,
                ))
            });
        }
    }
}

#[test]
fn vsc_segment_counters_hold_under_random_traffic() {
    stress(&[1, 2, 4], |geom, policy| {
        Box::new(VscLlc::new(geom, policy))
    });
}

#[test]
fn dcc_sub_block_counters_hold_under_random_traffic() {
    stress(&[1, 2, 4], |geom, policy| {
        Box::new(DccLlc::new(geom, policy))
    });
}
