//! Deterministic randomness and lightweight property-test helpers.
//!
//! The build environment has no access to a crate registry, so the
//! workspace's randomized tests cannot use `proptest` or `rand`. This
//! crate supplies the small subset those suites actually need: a fast,
//! seedable, well-mixed PRNG and a `cases` driver that runs a property
//! closure over many seeds, reporting the failing seed so a
//! counterexample can be replayed by hand.
//!
//! Every generator is a pure function of the seed, so any failure is
//! reproducible by construction — the moral equivalent of a proptest
//! regression file is "re-run with the printed seed".

#![warn(missing_docs)]

pub mod mirror;

/// One SplitMix64 step as a stateless mix: advances `x` by the golden
/// gamma and finalizes. This is the workspace's single canonical mixing
/// function — [`Rng`] is exactly this function iterated over an internal
/// state, and hash-like call sites (per-key value shapes, per-region
/// palettes) call it directly so every seed in the workspace derives
/// from one stream family.
#[must_use]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a `u64` map key with [`mix`] in place of SipHash.
///
/// For maps whose keys the workspace generates itself: line addresses a
/// trace generator walks, and kv keys drawn by a request stream, the
/// fuzzer or a test. There is no outside input to craft collisions, so
/// SipHash's flooding resistance buys nothing, and `mix` spreads every
/// key bit into the high bits the map's probing uses. Callers must not
/// let a decision depend on such a map's iteration order.
#[derive(Clone, Copy, Debug, Default)]
pub struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix(x);
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`MixHasher`] maps.
pub type MixBuildHasher = std::hash::BuildHasherDefault<MixHasher>;

/// SplitMix64: tiny, statistically solid, and seedable from any `u64`.
///
/// This is the generator recommended for seeding xorshift-family state;
/// it passes BigCrush on its own and is more than adequate for test-case
/// generation.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Distinct seeds give independent
    /// streams.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next raw 64-bit output: one [`mix`] step of the internal state.
    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// Uniform in `[0, 1)`, built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Next 32-bit output (upper half of the 64-bit stream).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift bounded generation (Lemire); the slight bias at
        // 2^64 scale is irrelevant for test-case generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Fair coin.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform choice from a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// A vector of `len` values drawn by `gen`.
    pub fn vec_of<T>(&mut self, len: usize, mut gen: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..len).map(|_| gen(self)).collect()
    }
}

/// Runs `property` once per case with an independently seeded generator,
/// panicking with the offending case index on failure so the run can be
/// replayed (`Rng::new(CASE_SEED_BASE + i)`).
///
/// The property receives the case's `Rng`; any panic inside it is
/// reported with the case number attached.
pub fn cases(n: u64, property: impl Fn(&mut Rng)) {
    for i in 0..n {
        let mut rng = Rng::new(CASE_SEED_BASE.wrapping_add(i));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property failed on case {i} (seed base {CASE_SEED_BASE:#x} + {i})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Base seed used by [`cases`]; exposed so a failing case can be replayed
/// in isolation.
pub const CASE_SEED_BASE: u64 = 0xb5e0_c0de_0000_0000;

/// Shared cache-configuration fixtures for the workspace test suites.
///
/// Every LLC-organization test module used to repeat the same "toy"
/// configuration — a 4-set × 4-way × 64 B cache under LRU, matching the
/// paper's worked examples. Centralizing it here keeps the suites in
/// lockstep: a test that wants the toy cache gets exactly the geometry
/// the other suites (and the doc examples) exercise.
pub mod fixtures {
    use bv_cache::{CacheGeometry, PolicyKind};

    /// The 4-set × 4-way × 64 B toy geometry from the paper's worked
    /// examples, shared by every organization's unit-test suite.
    #[must_use]
    pub fn toy_geometry() -> CacheGeometry {
        CacheGeometry::new(1024, 4, 64)
    }

    /// The default baseline policy for toy-cache tests. LRU keeps
    /// eviction order trivially predictable in hand-written scenarios.
    #[must_use]
    pub fn toy_policy() -> PolicyKind {
        PolicyKind::Lru
    }
}

/// A dependency-free stand-in for the Criterion harness: wall-clock
/// timing with warmup, reporting per-iteration cost. Benches built on it
/// stay `harness = false` binaries runnable via `cargo bench`.
pub mod bench {
    use std::time::Instant;

    /// Times `samples` calls of `f` after one warmup call and prints a
    /// `group/name  median .. max` line. Returns the median seconds per
    /// call.
    pub fn time<T>(group: &str, name: &str, samples: usize, mut f: impl FnMut() -> T) -> f64 {
        let secs = sorted_samples(samples, &mut f);
        let median = secs[secs.len() / 2];
        println!(
            "{group}/{name:28} median {} .. max {}",
            human(median),
            human(secs[secs.len() - 1])
        );
        median
    }

    /// Quiet twin of [`time`]: identical warmup and sampling, no printing.
    /// Returns the median seconds per call, for harnesses that do their own
    /// reporting (e.g. `bvsim bench`).
    pub fn measure<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
        let secs = sorted_samples(samples, &mut f);
        secs[secs.len() / 2]
    }

    /// Best-of-N seconds per call: same warmup and sampling as [`measure`]
    /// but returns the *minimum*. Scheduler and frequency noise only ever
    /// add time, so the minimum is the stable statistic for regression
    /// gating on shared or single-core hosts (the median still swings with
    /// sustained background load).
    pub fn fastest<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
        sorted_samples(samples, &mut f)[0]
    }

    /// Per-round seconds for several closures with *interleaved* sampling:
    /// round `r` times every closure once before round `r + 1` starts, so
    /// slow frequency or load drift over the measurement window biases all
    /// of them equally instead of penalizing whichever happened to run
    /// last. Use this when the quantity of interest is a *ratio* between
    /// the closures (e.g. an instrumentation-overhead gate), where a
    /// systematic drift between back-to-back [`fastest`] calls would read
    /// as a real cost: within a round the timings are adjacent, so the
    /// per-round ratio is robust to common-mode noise, and the median
    /// ratio over rounds is robust to bursts that straddle a round
    /// boundary. Returns one `Vec` of `rounds` timings per closure, in
    /// input order.
    pub fn interleaved_samples(rounds: usize, fns: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
        assert!(rounds > 0, "at least one round required");
        for f in fns.iter_mut() {
            f();
        }
        let mut samples = vec![Vec::with_capacity(rounds); fns.len()];
        for _ in 0..rounds {
            for (f, secs) in fns.iter_mut().zip(samples.iter_mut()) {
                let t = Instant::now();
                f();
                secs.push(t.elapsed().as_secs_f64());
            }
        }
        samples
    }

    fn sorted_samples<T>(samples: usize, f: &mut impl FnMut() -> T) -> Vec<f64> {
        assert!(samples > 0, "at least one sample required");
        std::hint::black_box(f());
        let mut secs: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        secs
    }

    fn human(secs: f64) -> String {
        if secs < 1e-6 {
            format!("{:8.1} ns", secs * 1e9)
        } else if secs < 1e-3 {
            format!("{:8.2} µs", secs * 1e6)
        } else if secs < 1.0 {
            format!("{:8.2} ms", secs * 1e3)
        } else {
            format!("{secs:8.3} s ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_u64_is_mix_iterated() {
        let mut rng = Rng::new(0xabc);
        let mut state = 0xabcu64.wrapping_add(0x9e37_79b9_7f4a_7c15);
        for _ in 0..16 {
            assert_eq!(rng.next_u64(), mix(state));
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[test]
    fn next_f64_stays_in_unit_interval() {
        let mut rng = Rng::new(5);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::new(42);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn range_covers_endpoints_eventually() {
        let mut rng = Rng::new(9);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.range_u64(0, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_i64_handles_negative_bounds() {
        let mut rng = Rng::new(3);
        for _ in 0..500 {
            let v = rng.range_i64(-128, 128);
            assert!((-128..128).contains(&v));
        }
    }

    #[test]
    fn cases_runs_all_cases() {
        use std::cell::Cell;
        let count = Cell::new(0u64);
        cases(17, |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 17);
    }

    #[test]
    fn timers_sample_the_closure() {
        use std::cell::Cell;
        let calls = Cell::new(0u64);
        let median = bench::measure(5, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 6, "5 samples + 1 warmup");
        assert!(median >= 0.0);
        calls.set(0);
        let best = bench::fastest(5, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 6);
        assert!(best >= 0.0);
    }
}
