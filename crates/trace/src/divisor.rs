//! Remainders by a fixed divisor without a hardware divide.
//!
//! Trace decode takes three or four remainders per event, each by a
//! divisor fixed when the generator or kernel is built. A 64-bit `div`
//! costs tens of cycles; a precomputed reciprocal turns each remainder
//! into a multiply-high, a multiply, a subtract and one conditional
//! correction.

/// A divisor `d ≥ 1` with its reciprocal `m = min(⌊2^64 / d⌋, 2^64 − 1)`.
///
/// For any `n < 2^64`, `q = ⌊n·m / 2^64⌋` is `⌊n / d⌋` or one less:
/// `m·d > 2^64 − d` gives `n·m / 2^64 > n/d − n/2^64 > n/d − 1` (for
/// `d = 1`, `m = 2^64 − 1` gives the same bound directly), and `m·d ≤
/// 2^64` gives `n·m / 2^64 ≤ n/d`. So `n − q·d` lies in `[0, 2d)` and one
/// conditional subtract of `d` yields `n mod d` exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Divisor {
    d: u64,
    m: u64,
}

impl Divisor {
    /// Precomputes the reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub(crate) fn new(d: u64) -> Divisor {
        assert!(d > 0, "divisor must be nonzero");
        let m = ((1u128 << 64) / u128::from(d)).min(u128::from(u64::MAX)) as u64;
        Divisor { d, m }
    }

    /// `n % d`.
    #[inline]
    pub(crate) fn rem(self, n: u64) -> u64 {
        let q = ((u128::from(n) * u128::from(self.m)) >> 64) as u64;
        let r = n - q * self.d;
        if r >= self.d {
            r - self.d
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bv_testkit::cases;

    fn check(d: u64, n: u64) {
        assert_eq!(Divisor::new(d).rem(n), n % d, "{n} mod {d}");
    }

    /// The reciprocal remainder equals `%` at the edges of both operands
    /// and over random pairs.
    #[test]
    fn reciprocal_remainder_matches_hardware_modulo() {
        let edges = [
            1,
            2,
            3,
            255,
            256,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
        ];
        let numerators = |d: u64| [0, d - 1, d, (1 << 56) - 1, u64::MAX];
        for d in edges {
            for n in numerators(d) {
                check(d, n);
            }
        }
        cases(20_000, |rng| {
            // Divisors of every width from 1 to 64 bits.
            let d = (rng.next_u64() >> rng.below(64)).max(1);
            for n in numerators(d) {
                check(d, n);
            }
            check(d, rng.next_u64());
            check(d, rng.next_u64() >> rng.below(64));
            let e = *rng.choose(&edges);
            check(e, rng.next_u64());
        });
    }
}
