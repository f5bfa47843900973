//! Aggregate compressibility statistics.

use crate::{CacheLine, Compressor, SegmentCount, SEGMENTS_PER_LINE};
use core::fmt;

/// A histogram of compressed line sizes, used to classify workloads as
/// compression-friendly (mean compressed size ≤ 75% of uncompressed; the
/// paper's friendly set averages ≈ 50%).
///
/// # Examples
///
/// ```
/// use bv_compress::{CompressionStats, SegmentCount};
///
/// let mut stats = CompressionStats::new();
/// stats.record(SegmentCount::new(8));
/// stats.record(SegmentCount::new(16));
/// assert_eq!(stats.lines(), 2);
/// assert!((stats.mean_ratio() - 0.75).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompressionStats {
    histogram: [u64; SEGMENTS_PER_LINE],
}

impl CompressionStats {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> CompressionStats {
        CompressionStats::default()
    }

    /// Records one compressed line.
    pub fn record(&mut self, size: SegmentCount) {
        self.histogram[size.get() as usize - 1] += 1;
    }

    /// Total lines recorded.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Lines recorded with exactly `size` segments.
    #[must_use]
    pub fn count(&self, size: SegmentCount) -> u64 {
        self.histogram[size.get() as usize - 1]
    }

    /// Mean compressed size as a fraction of the uncompressed size
    /// (1.0 = incompressible). Returns 1.0 when empty.
    #[must_use]
    pub fn mean_ratio(&self) -> f64 {
        let lines = self.lines();
        if lines == 0 {
            return 1.0;
        }
        let total_segments: u64 = self
            .histogram
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        total_segments as f64 / (lines as f64 * SEGMENTS_PER_LINE as f64)
    }

    /// Fraction of lines that compressed to at most half a line.
    #[must_use]
    pub fn half_line_fraction(&self) -> f64 {
        let lines = self.lines();
        if lines == 0 {
            return 0.0;
        }
        let half: u64 = self.histogram[..SEGMENTS_PER_LINE / 2].iter().sum();
        half as f64 / lines as f64
    }

    /// The raw per-size counts (index `i` holds lines of `i + 1`
    /// segments), for serialization by checkpoint stores.
    #[must_use]
    pub fn histogram(&self) -> [u64; SEGMENTS_PER_LINE] {
        self.histogram
    }

    /// Rebuilds a histogram from serialized counts (the inverse of
    /// [`CompressionStats::histogram`]).
    #[must_use]
    pub fn from_histogram(histogram: [u64; SEGMENTS_PER_LINE]) -> CompressionStats {
        CompressionStats { histogram }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &CompressionStats) {
        for (a, b) in self.histogram.iter_mut().zip(other.histogram.iter()) {
            *a += b;
        }
    }

    /// Histogram-wise difference `self - snapshot`, for excluding warmup
    /// from measurements.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` has more lines in any bucket.
    #[must_use]
    pub fn since(&self, snapshot: &CompressionStats) -> CompressionStats {
        let mut out = CompressionStats::new();
        for (i, slot) in out.histogram.iter_mut().enumerate() {
            *slot = self.histogram[i] - snapshot.histogram[i];
        }
        out
    }
}

/// Per-encoding-class selection counts for one compressor instance.
///
/// LLC organizations route their size computations through
/// [`EncoderStats::record`], which performs the same single compression
/// pass as [`Compressor::compressed_size`] but also tallies which
/// encoding the line selected — the per-encoder telemetry the sampler
/// harvests. Algorithms that expose no classes ([`Compressor::encodings`]
/// empty) tally nothing and pay nothing beyond the size pass.
///
/// # Examples
///
/// ```
/// use bv_compress::{Bdi, CacheLine, EncoderStats};
///
/// let mut stats = EncoderStats::new();
/// let bdi = Bdi::new();
/// stats.record(&bdi, &CacheLine::zeroed());
/// assert_eq!(stats.counts(&bdi)[0], ("zeros", 1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EncoderStats {
    counts: Vec<u64>,
}

impl EncoderStats {
    /// An empty tally. Sizes itself to the compressor's class count on
    /// first use.
    #[must_use]
    pub fn new() -> EncoderStats {
        EncoderStats::default()
    }

    /// Computes the compressed size of `line` via `comp`, recording the
    /// encoding class it selected (if the algorithm exposes classes).
    /// Returns both, as [`Compressor::classified_size`] does, so a caller
    /// that reports the class needs no second pass.
    pub fn record<C: Compressor + ?Sized>(
        &mut self,
        comp: &C,
        line: &CacheLine,
    ) -> (SegmentCount, Option<usize>) {
        let (size, class) = comp.classified_size(line);
        if let Some(class) = class {
            if self.counts.is_empty() {
                self.counts = vec![0; comp.encodings().len()];
            }
            self.counts[class] += 1;
        }
        (size, class)
    }

    /// `(encoding name, selection count)` pairs in class order. Empty for
    /// algorithms without classes.
    #[must_use]
    pub fn counts<C: Compressor + ?Sized>(&self, comp: &C) -> Vec<(&'static str, u64)> {
        comp.encodings()
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, self.counts.get(i).copied().unwrap_or(0)))
            .collect()
    }
}

impl fmt::Display for CompressionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lines, mean size {:.1}% of uncompressed",
            self.lines(),
            self.mean_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_report_incompressible() {
        let stats = CompressionStats::new();
        assert_eq!(stats.lines(), 0);
        assert_eq!(stats.mean_ratio(), 1.0);
        assert_eq!(stats.half_line_fraction(), 0.0);
    }

    #[test]
    fn mean_ratio_weighted_by_counts() {
        let mut stats = CompressionStats::new();
        for _ in 0..3 {
            stats.record(SegmentCount::new(4)); // 25%
        }
        stats.record(SegmentCount::new(16)); // 100%
        let expected = (3.0 * 4.0 + 16.0) / (4.0 * 16.0);
        assert!((stats.mean_ratio() - expected).abs() < 1e-12);
    }

    #[test]
    fn half_line_fraction_counts_boundary() {
        let mut stats = CompressionStats::new();
        stats.record(SegmentCount::new(8)); // exactly half counts
        stats.record(SegmentCount::new(9)); // just over half does not
        assert!((stats.half_line_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn encoder_stats_tally_matches_selection() {
        let bdi = crate::Bdi::new();
        let mut stats = EncoderStats::new();
        let rep = CacheLine::from_u64_words(&[0xabcd; 8]);
        for line in [CacheLine::zeroed(), CacheLine::zeroed(), rep] {
            let sized = stats.record(&bdi, &line);
            assert_eq!(sized, bdi.classified_size(&line), "same as the plain pass");
        }
        let counts = stats.counts(&bdi);
        assert_eq!(
            counts.iter().find(|(n, _)| *n == "zeros"),
            Some(&("zeros", 2))
        );
        assert_eq!(counts.iter().find(|(n, _)| *n == "rep"), Some(&("rep", 1)));
    }

    #[test]
    fn encoder_stats_empty_for_classless_algorithms() {
        let fpc = crate::Fpc::new();
        let mut stats = EncoderStats::new();
        stats.record(&fpc, &CacheLine::zeroed());
        assert!(stats.counts(&fpc).is_empty());
    }

    #[test]
    fn merge_adds_histograms() {
        let mut a = CompressionStats::new();
        a.record(SegmentCount::new(1));
        let mut b = CompressionStats::new();
        b.record(SegmentCount::new(1));
        b.record(SegmentCount::new(16));
        a.merge(&b);
        assert_eq!(a.lines(), 3);
        assert_eq!(a.count(SegmentCount::new(1)), 2);
    }
}
