//! Property tests for the replacement policies: every policy must stay
//! within bounds, and LRU must agree with a straightforward reference
//! model under arbitrary access interleavings.

use bv_cache::replacement::Lru;
use bv_cache::{PolicyKind, ReplacementPolicy};
use bv_testkit::{cases, Rng};

#[derive(Clone, Copy, Debug)]
enum PolicyOp {
    Fill(u8),
    Hit(u8),
    Victim,
    Invalidate(u8),
    Hint(u8),
    Miss,
}

fn random_op(rng: &mut Rng, ways: u8) -> PolicyOp {
    let w = rng.below(u64::from(ways)) as u8;
    match rng.below(6) {
        0 => PolicyOp::Fill(w),
        1 => PolicyOp::Hit(w),
        2 => PolicyOp::Victim,
        3 => PolicyOp::Invalidate(w),
        4 => PolicyOp::Hint(w),
        _ => PolicyOp::Miss,
    }
}

fn random_ops(rng: &mut Rng, ways: u8, max_len: usize) -> Vec<PolicyOp> {
    let len = rng.range_u64(1, max_len as u64) as usize;
    rng.vec_of(len, |r| random_op(r, ways))
}

/// Victims are always in range and eviction ranks order all ways, for
/// every policy, under arbitrary operation sequences.
#[test]
fn policies_stay_in_bounds() {
    cases(128, |rng| {
        let ops = random_ops(rng, 8, 300);
        let kind = *rng.choose(&PolicyKind::ALL);
        let mut p = kind.instantiate(4, 8);
        for op in ops {
            match op {
                PolicyOp::Fill(w) => p.on_fill(2, w as usize),
                PolicyOp::Hit(w) => p.on_hit(2, w as usize),
                PolicyOp::Victim => {
                    let v = p.victim(2);
                    assert!(v < 8, "{kind}: victim {v} out of range");
                }
                PolicyOp::Invalidate(w) => p.on_invalidate(2, w as usize),
                PolicyOp::Hint(w) => p.hint_downgrade(2, w as usize),
                PolicyOp::Miss => p.on_miss(2),
            }
            for w in 0..8 {
                let _ = p.eviction_rank(2, w);
                let _ = p.is_eviction_candidate(2, w);
            }
        }
    });
}

/// LRU agrees with a reference model (a recency-ordered list).
#[test]
fn lru_matches_reference_model() {
    cases(128, |rng| {
        let ops = random_ops(rng, 4, 200);
        let mut lru = Lru::new(1, 4);
        let mut reference: Vec<usize> = Vec::new(); // front = LRU, back = MRU
        let touch = |reference: &mut Vec<usize>, w: usize| {
            reference.retain(|&x| x != w);
            reference.push(w);
        };
        for op in ops {
            match op {
                PolicyOp::Fill(w) | PolicyOp::Hit(w) => {
                    let w = (w % 4) as usize;
                    lru.on_fill(0, w);
                    touch(&mut reference, w);
                }
                PolicyOp::Victim => {
                    if reference.len() == 4 {
                        // Only meaningful when every way has a defined
                        // recency; otherwise untouched ways win arbitrarily.
                        assert_eq!(lru.victim(0), reference[0]);
                    }
                }
                PolicyOp::Invalidate(w) => {
                    let w = (w % 4) as usize;
                    lru.on_invalidate(0, w);
                    reference.retain(|&x| x != w);
                }
                PolicyOp::Hint(_) | PolicyOp::Miss => {}
            }
        }
        // Stack positions must match the reference ordering exactly when
        // all ways have been touched.
        if reference.len() == 4 {
            for (depth, &w) in reference.iter().rev().enumerate() {
                assert_eq!(lru.stack_position(0, w), depth);
            }
        }
    });
}

/// SRRIP victims always have maximal RRPV among valid candidates at
/// selection time.
#[test]
fn srrip_victim_has_max_rrpv() {
    cases(128, |rng| {
        use bv_cache::replacement::Srrip;
        let ops = random_ops(rng, 8, 200);
        let mut p = Srrip::new(1, 8);
        for op in ops {
            match op {
                PolicyOp::Fill(w) => p.on_fill(0, w as usize),
                PolicyOp::Hit(w) => p.on_hit(0, w as usize),
                PolicyOp::Victim => {
                    let v = p.victim(0);
                    let max = (0..8).map(|w| p.rrpv(0, w)).max().expect("8 ways");
                    assert_eq!(p.rrpv(0, v), max);
                    assert_eq!(max, 3, "victim selection ages until an RRPV-3 way exists");
                }
                _ => {}
            }
        }
    });
}
