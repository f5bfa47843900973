//! Differential property test for the structure-of-arrays probe: over
//! thousands of fuzzed set states, `SetEngine::find` (the bitmask scan
//! over the SoA tag rows) must return the identical `(way, hit/miss)`
//! answer as both the retained scalar `find_reference` walk and an
//! independent shadow model that never touches the engine's layout.

use bv_cache::engine::{SetEngine, SlotMeta};
use bv_cache::PolicyKind;
use bv_compress::SegmentCount;
use bv_testkit::{cases, Rng};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Meta(u32);

impl SlotMeta for Meta {
    fn empty() -> Meta {
        Meta(0)
    }
}

/// The shadow model: per-set slots as plain `Option<u64>` tags, updated
/// alongside the engine with the same install/invalidate stream.
struct Shadow {
    ways: usize,
    slots: Vec<Option<u64>>,
}

impl Shadow {
    fn new(sets: usize, ways: usize) -> Shadow {
        Shadow {
            ways,
            slots: vec![None; sets * ways],
        }
    }

    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        (0..self.ways).find(|&w| self.slots[set * self.ways + w] == Some(tag))
    }
}

/// Builds a random engine/shadow pair: a churn of installs and
/// invalidations, with tags drawn from a small pool so stale tags of
/// invalidated slots frequently collide with live probes.
fn churn(rng: &mut Rng, sets: usize, ways: usize) -> (SetEngine<Meta>, Shadow) {
    let mut engine: SetEngine<Meta> = SetEngine::new(sets, ways, PolicyKind::Lru);
    let mut shadow = Shadow::new(sets, ways);
    let tag_pool: Vec<u64> = (0..16).map(|_| rng.next_u64() | 1).collect();
    let ops = rng.range_u64(1, (sets * ways * 2) as u64);
    for _ in 0..ops {
        let set = rng.below(sets as u64) as usize;
        let way = rng.below(ways as u64) as usize;
        if rng.below(4) == 0 {
            if engine.slot(set, way).valid {
                engine.invalidate(set, way);
            }
            shadow.slots[set * ways + way] = None;
        } else {
            let tag = *rng.choose(&tag_pool);
            // Engines never hold one tag twice in a set; skip duplicates.
            if shadow.find(set, tag).is_some() {
                continue;
            }
            if engine.slot(set, way).valid {
                engine.invalidate(set, way);
            }
            engine.install(
                set,
                way,
                tag,
                Meta(rng.next_u64() as u32),
                SegmentCount::FULL,
            );
            shadow.slots[set * ways + way] = Some(tag);
        }
    }
    (engine, shadow)
}

/// 10_000 fuzzed set states: every probe agrees across the SoA bitmask
/// scan, the scalar reference walk, and the shadow model — both on the
/// hit/miss verdict and on the way index.
#[test]
fn soa_probe_matches_reference_walk_and_shadow_model() {
    cases(10_000, |rng| {
        let sets = 1 << rng.below(4); // 1..8 sets
        let ways = *rng.choose(&[1usize, 2, 4, 7, 16, 32]);
        let (engine, shadow) = churn(rng, sets, ways);
        let tag_pool: Vec<u64> = (0..8)
            .map(|_| rng.next_u64() | 1)
            .chain((0..sets * ways).filter_map(|i| shadow.slots[i]).take(8))
            .collect();
        for _ in 0..32 {
            let set = rng.below(sets as u64) as usize;
            let tag = *rng.choose(&tag_pool);
            let got = engine.find(set, tag);
            assert_eq!(
                got,
                engine.find_reference(set, tag),
                "bitmask scan vs scalar walk, set {set} tag {tag:#x}"
            );
            assert_eq!(
                got,
                shadow.find(set, tag),
                "engine vs shadow model, set {set} tag {tag:#x}"
            );
        }
        // The aggregate views must agree with the shadow too.
        assert_eq!(
            engine.valid_count(),
            shadow.slots.iter().filter(|s| s.is_some()).count()
        );
        for (set, way, slot) in engine.iter_valid() {
            assert_eq!(shadow.slots[set * ways + way], Some(slot.tag));
        }
    });
}

/// Invalidated slots must never hit, even though the SoA probe reads
/// every tag word in the row unconditionally: the validity mask, not the
/// tag word, is authoritative. Invalidation zeroes the tag word, so the
/// zero-tag probe is the case where a mask bug would show.
#[test]
fn invalidated_slots_never_hit() {
    cases(1_000, |rng| {
        let ways = *rng.choose(&[2usize, 8, 32]);
        let mut engine: SetEngine<Meta> = SetEngine::new(1, ways, PolicyKind::Lru);
        let tag = rng.next_u64() | 1;
        let way = rng.below(ways as u64) as usize;
        engine.install(0, way, tag, Meta(7), SegmentCount::FULL);
        assert_eq!(engine.find(0, tag), Some(way));
        engine.invalidate(0, way);
        assert_eq!(engine.find(0, tag), None);
        assert_eq!(engine.find_reference(0, tag), None);
        // The cleared tag word is 0; a zero-tag probe must still miss on
        // every invalid slot.
        assert_eq!(engine.find(0, 0), None);
        assert_eq!(engine.find_reference(0, 0), None);
    });
}
