//! Differential property tests for the structure-of-arrays tag store:
//! over thousands of fuzzed set states, `TagArray` itself, the LLC
//! `SetEngine` built on it and the L1/L2 `BasicCache::probe` must return
//! the identical `(way, hit/miss)` answer as an independent shadow model
//! that never touches the array's layout, and `TagArray::find` the same
//! as the retained scalar `find_reference` walk.

use bv_cache::engine::{SetEngine, SlotMeta};
use bv_cache::{BasicCache, CacheGeometry, LineAddr, PolicyKind, TagArray};
use bv_compress::SegmentCount;
use bv_testkit::{cases, Rng};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Meta(u32);

impl SlotMeta for Meta {
    fn empty() -> Meta {
        Meta(0)
    }
}

/// The shadow model: per-set slots as plain `Option<u64>` tags and
/// dirty flags, updated alongside the cache with the same
/// install/invalidate stream.
struct Shadow {
    ways: usize,
    slots: Vec<Option<u64>>,
    dirty: Vec<bool>,
}

impl Shadow {
    fn new(sets: usize, ways: usize) -> Shadow {
        Shadow {
            ways,
            slots: vec![None; sets * ways],
            dirty: vec![false; sets * ways],
        }
    }

    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        (0..self.ways).find(|&w| self.slots[set * self.ways + w] == Some(tag))
    }
}

/// Row widths: every width the simulator runs (the 8-way L1/L2, the
/// 16-way LLC, and the 32-slot rows of DCC, VSC and two-tag), the match
/// loop's vector steps and remainders around them, and the 64-way
/// maximum.
const WAYS: [usize; 10] = [1, 2, 4, 7, 8, 9, 16, 17, 32, 64];

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
            if engine.tags().is_valid(set, way) {
                engine.invalidate(set, way);
            }
            shadow.slots[set * ways + way] = None;
        } else {
            let tag = *rng.choose(&tag_pool);
            // Engines never hold one tag twice in a set; skip duplicates.
            if shadow.find(set, tag).is_some() {
                continue;
            }
            if engine.tags().is_valid(set, way) {
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
        let ways = *rng.choose(&WAYS);
        let (engine, shadow) = churn(rng, sets, ways);
        let tag_pool: Vec<u64> = (0..8)
            .map(|_| rng.next_u64() | 1)
            .chain((0..sets * ways).filter_map(|i| shadow.slots[i]).take(8))
            .collect();
        for _ in 0..32 {
            let set = rng.below(sets as u64) as usize;
            let tag = *rng.choose(&tag_pool);
            let got = engine.tags().find(set, tag);
            assert_eq!(
                got,
                engine.tags().find_reference(set, tag),
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
            engine.tags().valid_count(),
            shadow.slots.iter().filter(|s| s.is_some()).count()
        );
        for (set, way, tag) in engine.tags().iter_valid() {
            assert_eq!(shadow.slots[set * ways + way], Some(tag));
        }
    });
}

/// 10_000 fuzzed `TagArray`s churned directly with inserts, clears and
/// dirty marks: every answer the array gives — `find`, `find_reference`,
/// `first_free`, `is_dirty`, `valid_count` and the `iter_valid` order —
/// matches the shadow model.
#[test]
fn tag_array_matches_shadow_model_under_churn() {
    cases(10_000, |rng| {
        let sets = 1 << rng.below(4);
        let ways = *rng.choose(&WAYS);
        let mut tags = TagArray::new(sets, ways);
        let mut shadow = Shadow::new(sets, ways);
        // Tag 0 is in the pool: cleared slots keep a zeroed tag word.
        let pool: Vec<u64> = (0..16)
            .map(|i| if i == 0 { 0 } else { rng.next_u64() })
            .collect();
        let ops = rng.range_u64(1, (sets * ways * 3) as u64);
        for _ in 0..ops {
            let set = rng.below(sets as u64) as usize;
            let way = rng.below(ways as u64) as usize;
            let i = set * ways + way;
            match rng.below(4) {
                0 => {
                    tags.clear(set, way);
                    shadow.slots[i] = None;
                    shadow.dirty[i] = false;
                }
                1 if shadow.slots[i].is_some() => {
                    tags.set_dirty(set, way);
                    shadow.dirty[i] = true;
                }
                _ => {
                    let tag = *rng.choose(&pool);
                    // A set never holds one tag twice; skip duplicates.
                    if shadow.find(set, tag).is_some() {
                        continue;
                    }
                    tags.insert(set, way, tag);
                    shadow.slots[i] = Some(tag);
                    shadow.dirty[i] = false;
                }
            }
        }
        for set in 0..sets {
            let row = set * ways..(set + 1) * ways;
            assert_eq!(
                tags.first_free(set),
                shadow.slots[row.clone()].iter().position(Option::is_none),
                "first free way of set {set}"
            );
            for way in 0..ways {
                assert_eq!(
                    tags.is_valid(set, way),
                    shadow.slots[set * ways + way].is_some()
                );
                assert_eq!(tags.is_dirty(set, way), shadow.dirty[set * ways + way]);
            }
            for &tag in &pool {
                let got = tags.find(set, tag);
                assert_eq!(got, tags.find_reference(set, tag), "set {set} tag {tag:#x}");
                assert_eq!(got, shadow.find(set, tag), "set {set} tag {tag:#x}");
            }
        }
        let expected: Vec<(usize, usize, u64)> = shadow
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|tag| (i / ways, i % ways, tag)))
            .collect();
        assert_eq!(tags.valid_count(), expected.len());
        assert_eq!(tags.iter_valid().collect::<Vec<_>>(), expected);
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
        assert_eq!(engine.tags().find(0, tag), Some(way));
        engine.invalidate(0, way);
        let tags = engine.tags();
        assert_eq!(tags.find(0, tag), None);
        assert_eq!(tags.find_reference(0, tag), None);
        // The cleared tag word is 0; a zero-tag probe must still miss on
        // every invalid slot.
        assert_eq!(tags.find(0, 0), None);
        assert_eq!(tags.find_reference(0, 0), None);
    });
}

/// 4_000 fuzzed L1/L2-style caches: after a churn of fills (which pick
/// their own way) and invalidations, every probe agrees with a shadow
/// that places each fill where the cache must have put it — the lowest
/// free way, else the way of the line the fill evicted.
#[test]
fn basic_cache_probe_matches_shadow_model() {
    cases(4_000, |rng| {
        let sets = 1usize << rng.below(4);
        let ways = *rng.choose(&WAYS);
        let geom = CacheGeometry::new(sets * ways * 64, ways, 64);
        let policy = *rng.choose(&PolicyKind::ALL);
        let mut cache = BasicCache::new(geom, policy);
        let mut shadow = Shadow::new(sets, ways);
        // Tag 0 is in the pool: invalid slots keep a zeroed tag word.
        let tags: Vec<u64> = (0..16)
            .map(|i| if i == 0 { 0 } else { rng.below(1 << 20) })
            .collect();
        let line = |set: usize, tag: u64| LineAddr::new(tag << geom.index_bits() | set as u64);
        let ops = rng.range_u64(1, (sets * ways * 3) as u64);
        for _ in 0..ops {
            let set = rng.below(sets as u64) as usize;
            let tag = *rng.choose(&tags);
            let addr = line(set, tag);
            let row = set * ways;
            if shadow.find(set, tag).is_some() {
                if rng.below(2) == 0 {
                    assert!(cache.invalidate(addr).is_some(), "{addr:?} resident");
                    let way = shadow.find(set, tag).expect("resident");
                    shadow.slots[row + way] = None;
                } else {
                    assert!(cache.read(addr));
                }
                continue;
            }
            let way = match cache.fill(addr) {
                Some(ev) => {
                    let old = geom.tag(ev.addr.get());
                    shadow
                        .find(set, old)
                        .expect("the evicted line was resident")
                }
                None => (0..ways)
                    .find(|&w| shadow.slots[row + w].is_none())
                    .expect("a fill without an eviction takes a free way"),
            };
            shadow.slots[row + way] = Some(tag);
        }
        for set in 0..sets {
            for &tag in &tags {
                assert_eq!(
                    cache.probe(line(set, tag)),
                    shadow.find(set, tag),
                    "{ways}-way cache vs shadow, set {set} tag {tag:#x}"
                );
            }
        }
    });
}
