//! Multi-stream prefetching (Section V: "aggressive multi-stream
//! instruction and data prefetchers").
//!
//! A classic stream prefetcher: accesses are grouped into 4 KB regions;
//! when a region shows two consecutive accesses with a consistent line
//! delta, a stream is trained and the prefetcher runs `degree` lines ahead
//! of the demand stream in that direction.

const REGION_BITS: u32 = 12; // 4 KB regions
const TABLE_SIZE: usize = 64;

/// A per-core multi-stream prefetcher.
///
/// The stream table is kept as parallel arrays, one per field, so the
/// region scan that every access performs reads one dense `u64` array.
/// Slots `0..len` are live, in insertion order with swap-remove
/// replacement; that order decides which stream a new region inherits
/// from, so it is part of the prefetcher's behaviour.
///
/// # Examples
///
/// ```
/// use bv_sim::StreamPrefetcher;
///
/// let mut pf = StreamPrefetcher::new(4);
/// let mut prefetches = Vec::new();
/// pf.observe_into(0x1000, &mut prefetches); // first touch: training
/// assert!(prefetches.is_empty());
/// pf.observe_into(0x1040, &mut prefetches); // +1 line: stream confirmed
/// assert_eq!(prefetches, vec![0x1080, 0x10c0, 0x1100, 0x1140]);
/// ```
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    degree: u32,
    len: usize,
    region: [u64; TABLE_SIZE],
    last_line: [u64; TABLE_SIZE],
    delta: [i64; TABLE_SIZE],
    confidence: [u8; TABLE_SIZE],
    last_issued: [u64; TABLE_SIZE],
    lru: [u64; TABLE_SIZE],
    clock: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher issuing `degree` lines ahead (0 disables it).
    #[must_use]
    pub fn new(degree: u32) -> StreamPrefetcher {
        StreamPrefetcher {
            degree,
            len: 0,
            region: [0; TABLE_SIZE],
            last_line: [0; TABLE_SIZE],
            delta: [0; TABLE_SIZE],
            confidence: [0; TABLE_SIZE],
            last_issued: [0; TABLE_SIZE],
            lru: [0; TABLE_SIZE],
            clock: 0,
            issued: 0,
        }
    }

    /// Total prefetch addresses issued.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes a demand access to `byte_addr` and appends the byte
    /// addresses to prefetch (possibly none) to `out`, leaving what `out`
    /// already held in place.
    pub fn observe_into(&mut self, byte_addr: u64, out: &mut Vec<u64>) {
        if self.degree == 0 {
            return;
        }
        self.clock += 1;
        let line = byte_addr >> 6;
        let region = byte_addr >> REGION_BITS;
        let before = out.len();

        let slot = match self.region[..self.len].iter().position(|&r| r == region) {
            Some(i) => {
                let delta = line as i64 - self.last_line[i] as i64;
                if delta == 0 {
                    // Same line: nothing to learn.
                } else if delta == self.delta[i] {
                    self.confidence[i] = self.confidence[i].saturating_add(1);
                } else {
                    self.delta[i] = delta;
                    self.confidence[i] = 1;
                }
                self.last_line[i] = line;
                i
            }
            None => {
                // Page handoff: if an existing stream predicts this line
                // as its next step, carry the training into the new
                // region instead of starting cold (hardware streamers do
                // the same at page boundaries).
                let inherited = (0..self.len)
                    .find(|&i| {
                        self.delta[i] != 0
                            && self.last_line[i] as i64 + self.delta[i] == line as i64
                    })
                    .map_or((0, 0, 0), |i| {
                        (self.delta[i], self.confidence[i], self.last_issued[i])
                    });
                if self.len == TABLE_SIZE {
                    // Replace the least recently used stream.
                    let oldest = (0..self.len)
                        .min_by_key(|&i| self.lru[i])
                        .expect("table non-empty");
                    self.swap_remove(oldest);
                }
                let i = self.len;
                self.len += 1;
                self.region[i] = region;
                self.last_line[i] = line;
                (self.delta[i], self.confidence[i], self.last_issued[i]) = inherited;
                i
            }
        };
        self.lru[slot] = self.clock;
        let delta = self.delta[slot];
        if self.confidence[slot] >= 1 && delta != 0 {
            // Run ahead of the demand stream without re-issuing lines
            // already covered.
            let last_issued = &mut self.last_issued[slot];
            for k in 1..=i64::from(self.degree) {
                let target = line as i64 + delta * k;
                if target <= 0 {
                    break;
                }
                let target = target as u64;
                if *last_issued == 0
                    || (delta > 0 && target > *last_issued)
                    || (delta < 0 && target < *last_issued)
                {
                    out.push(target << 6);
                    *last_issued = target;
                }
            }
        }
        self.issued += (out.len() - before) as u64;
    }

    /// Moves the last live slot into slot `i`, dropping what `i` held.
    fn swap_remove(&mut self, i: usize) {
        let last = self.len - 1;
        self.region[i] = self.region[last];
        self.last_line[i] = self.last_line[last];
        self.delta[i] = self.delta[last];
        self.confidence[i] = self.confidence[last];
        self.last_issued[i] = self.last_issued[last];
        self.lru[i] = self.lru[last];
        self.len = last;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one access issues, in a fresh buffer.
    fn observe(pf: &mut StreamPrefetcher, byte_addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        pf.observe_into(byte_addr, &mut out);
        out
    }

    #[test]
    fn sequential_stream_trains_and_runs_ahead() {
        let mut pf = StreamPrefetcher::new(4);
        assert!(observe(&mut pf, 0x10_0000).is_empty());
        let p = observe(&mut pf, 0x10_0040);
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], 0x10_0080);
        // The next demand access only extends the run-ahead window by one.
        let p2 = observe(&mut pf, 0x10_0080);
        assert_eq!(p2, vec![0x10_0180]);
    }

    #[test]
    fn strided_streams_are_learned() {
        let mut pf = StreamPrefetcher::new(2);
        observe(&mut pf, 0x20_0000);
        let p = observe(&mut pf, 0x20_0100); // stride 4 lines
        assert_eq!(p, vec![0x20_0200, 0x20_0300]);
    }

    #[test]
    fn descending_streams_work() {
        let mut pf = StreamPrefetcher::new(2);
        observe(&mut pf, 0x30_0400);
        let p = observe(&mut pf, 0x30_03c0);
        assert_eq!(p, vec![0x30_0380, 0x30_0340]);
    }

    #[test]
    fn random_accesses_do_not_trigger() {
        let mut pf = StreamPrefetcher::new(4);
        let mut state = 12345u64;
        let mut total = 0;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Random lines within one region would alias; use many regions.
            let addr = (state >> 16) & 0x3fff_ffc0;
            total += observe(&mut pf, addr).len();
        }
        assert!(
            total < 40,
            "random stream should rarely trigger, issued {total}"
        );
    }

    #[test]
    fn zero_degree_disables() {
        let mut pf = StreamPrefetcher::new(0);
        observe(&mut pf, 0x1000);
        assert!(observe(&mut pf, 0x1040).is_empty());
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn table_capacity_is_bounded() {
        let mut pf = StreamPrefetcher::new(2);
        for i in 0..1000u64 {
            observe(&mut pf, i << REGION_BITS);
        }
        assert!(pf.len <= TABLE_SIZE);
    }

    #[test]
    fn same_line_repeats_do_not_retrain() {
        let mut pf = StreamPrefetcher::new(2);
        observe(&mut pf, 0x50_0000);
        observe(&mut pf, 0x50_0040);
        let before = pf.issued();
        // Re-touching the same line issues nothing new.
        let p = observe(&mut pf, 0x50_0040);
        assert!(p.is_empty());
        assert_eq!(pf.issued(), before);
    }

    #[test]
    fn observe_into_appends_and_counts_only_its_own() {
        let mut pf = StreamPrefetcher::new(4);
        let mut out = vec![7, 9];
        pf.observe_into(0x60_0000, &mut out);
        pf.observe_into(0x60_0040, &mut out);
        assert_eq!(out, vec![7, 9, 0x60_0080, 0x60_00c0, 0x60_0100, 0x60_0140]);
        assert_eq!(pf.issued(), 4);
    }

    /// Pins the prefetcher's output over a real trace to the stream the
    /// struct-of-entries table issued before it became parallel arrays:
    /// slot order, LRU replacement and first-match inheritance all feed
    /// into the hash.
    #[test]
    fn mcf_stream_issues_the_pinned_prefetches() {
        let registry = bv_trace::TraceRegistry::paper_default();
        let trace = registry.get("specint.mcf.07").expect("registry trace");
        let mut gen = trace.workload.generator();
        let mut batch = crate::EventBatch::new();
        let mut pf = StreamPrefetcher::new(4);
        let mut out = Vec::new();
        let (mut count, mut fnv) = (0u64, 0xcbf2_9ce4_8422_2325u64);
        for _ in 0..1_000_000 {
            out.clear();
            pf.observe_into(batch.next(&mut gen).addr, &mut out);
            for &addr in &out {
                count += 1;
                for b in addr.to_le_bytes() {
                    fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(count, 2_816_066);
        assert_eq!(fnv, 0xdedd_6134_6fba_25fd);
        assert_eq!(pf.issued(), 2_816_066);
    }
}
