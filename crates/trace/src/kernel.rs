//! Address-stream kernels.
//!
//! Real workloads are mixtures of a few canonical access behaviors; each
//! kernel reproduces one, parameterized by a private memory region. Cache
//! sensitivity emerges from the kernel mix: loops slightly larger than the
//! LLC respond sharply to extra capacity, hot/cold mixtures respond
//! smoothly, and pure streams not at all.

use crate::divisor::Divisor;
use core::fmt;

/// The behavior class of one kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum KernelKind {
    /// Sequential walk, line by line (prefetch-friendly, no reuse).
    Streaming,
    /// Fixed-stride walk (prefetch-friendly once the stride is learned).
    Strided {
        /// Stride in bytes between consecutive accesses.
        stride: u32,
    },
    /// Cyclic walk over the whole region: reuse distance equals the
    /// region size, the sharpest capacity cliff.
    Loop,
    /// Zipf-flavored mixture: most accesses go to a hot subset, the rest
    /// uniformly over the region.
    HotCold {
        /// Fraction of the region that is hot, in 1/256 units.
        hot_fraction: u8,
        /// Probability of accessing the hot subset, in 1/256 units.
        hot_probability: u8,
    },
    /// Pseudo-random permutation walk (pointer chasing): defeats stride
    /// prefetchers, reuse distance equals region size.
    PointerChase,
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelKind::Streaming => write!(f, "streaming"),
            KernelKind::Strided { stride } => write!(f, "strided({stride})"),
            KernelKind::Loop => write!(f, "loop"),
            KernelKind::HotCold {
                hot_fraction,
                hot_probability,
            } => write!(f, "hot-cold({hot_fraction}/256 @ {hot_probability}/256)"),
            KernelKind::PointerChase => write!(f, "pointer-chase"),
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// A running kernel instance bound to a memory region.
#[derive(Clone, Debug)]
pub struct Kernel {
    kind: KernelKind,
    base: u64,
    lines: u64,
    cursor: u64,
    rng: u64,
    /// `lines`, for Strided and HotCold remainders.
    lines_div: Divisor,
    /// HotCold's hot-subset size in lines (unused by other kinds).
    hot_div: Divisor,
    /// PointerChase's power-of-two modulus minus one.
    chase_mask: u64,
}

impl Kernel {
    /// Creates a kernel over `[base, base + region_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if the region is smaller than one cache line.
    #[must_use]
    pub fn new(kind: KernelKind, base: u64, region_bytes: u64, seed: u64) -> Kernel {
        let lines = region_bytes / 64;
        assert!(lines > 0, "kernel region must hold at least one line");
        let hot_lines = match kind {
            KernelKind::HotCold { hot_fraction, .. } => {
                (lines * u64::from(hot_fraction.max(1)) / 256).max(1)
            }
            _ => 1,
        };
        Kernel {
            kind,
            base,
            lines,
            cursor: seed % lines,
            rng: seed | 1,
            lines_div: Divisor::new(lines),
            hot_div: Divisor::new(hot_lines),
            chase_mask: lines.next_power_of_two() - 1,
        }
    }

    /// The kernel's behavior class.
    #[must_use]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The cursor's successor in a cyclic walk of the region: `cursor`
    /// stays below `lines`, so `(cursor + 1) % lines` is one compare.
    fn next_line(&self) -> u64 {
        if self.cursor + 1 == self.lines {
            0
        } else {
            self.cursor + 1
        }
    }

    /// Produces the next byte address.
    #[inline]
    pub fn next_addr(&mut self) -> u64 {
        let line = match self.kind {
            KernelKind::Streaming | KernelKind::Loop => {
                self.cursor = self.next_line();
                self.cursor
            }
            KernelKind::Strided { stride } => {
                let step = u64::from(stride.max(64)) / 64;
                self.cursor = self.lines_div.rem(self.cursor + step);
                self.cursor
            }
            KernelKind::HotCold {
                hot_probability, ..
            } => {
                let r = xorshift(&mut self.rng);
                if (r & 0xff) < u64::from(hot_probability) {
                    self.hot_div.rem(r >> 8)
                } else {
                    self.lines_div.rem(r >> 8)
                }
            }
            KernelKind::PointerChase => {
                // Full-period LCG over the line index space: visits every
                // line before repeating, in an order no stride prefetcher
                // can learn. (Period is maximal when modulus is a power of
                // two, a % 8 == 5, c odd; we round the region up to a
                // power of two and reject out-of-range values.)
                loop {
                    self.cursor = self
                        .cursor
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407)
                        & self.chase_mask;
                    if self.cursor < self.lines {
                        break;
                    }
                }
                self.cursor
            }
        };
        self.base + line * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streaming_is_sequential() {
        let mut k = Kernel::new(KernelKind::Streaming, 0x10000, 4096, 0);
        let a = k.next_addr();
        let b = k.next_addr();
        assert_eq!(b, a + 64);
    }

    #[test]
    fn addresses_stay_in_region() {
        for kind in [
            KernelKind::Streaming,
            KernelKind::Strided { stride: 256 },
            KernelKind::Loop,
            KernelKind::HotCold {
                hot_fraction: 32,
                hot_probability: 200,
            },
            KernelKind::PointerChase,
        ] {
            let base = 0x40_0000;
            let size = 8192u64;
            let mut k = Kernel::new(kind, base, size, 7);
            for _ in 0..1000 {
                let a = k.next_addr();
                assert!(a >= base && a < base + size, "{kind}: {a:#x} out of region");
                assert_eq!(a % 64, 0, "line aligned");
            }
        }
    }

    #[test]
    fn loop_kernel_has_full_reuse_distance() {
        let lines = 64;
        let mut k = Kernel::new(KernelKind::Loop, 0, lines * 64, 0);
        let mut seen = HashSet::new();
        for _ in 0..lines {
            assert!(seen.insert(k.next_addr()), "revisit before full cycle");
        }
        // The next access revisits the first line of the cycle.
        let first = *seen.iter().min().unwrap();
        let mut k2 = k.clone();
        let revisit = k2.next_addr();
        assert!(seen.contains(&revisit));
        let _ = first;
    }

    #[test]
    fn pointer_chase_covers_the_region() {
        let lines = 100u64; // deliberately not a power of two
        let mut k = Kernel::new(KernelKind::PointerChase, 0, lines * 64, 3);
        let mut seen = HashSet::new();
        for _ in 0..lines {
            seen.insert(k.next_addr());
        }
        assert_eq!(seen.len() as u64, lines, "full-period permutation");
    }

    #[test]
    fn hot_cold_concentrates_on_hot_set() {
        let lines = 25600u64;
        let mut k = Kernel::new(
            KernelKind::HotCold {
                hot_fraction: 26,     // ~10% of the region
                hot_probability: 230, // ~90% of accesses
            },
            0,
            lines * 64,
            11,
        );
        let hot_limit = lines * 26 / 256 * 64;
        let mut hot = 0;
        let n = 10_000;
        for _ in 0..n {
            if k.next_addr() < hot_limit {
                hot += 1;
            }
        }
        let frac = hot as f64 / n as f64;
        assert!(frac > 0.85, "hot fraction {frac:.2} too low");
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn rejects_empty_region() {
        let _ = Kernel::new(KernelKind::Loop, 0, 32, 0);
    }
}
