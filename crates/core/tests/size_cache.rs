//! Tests for the cached-`SegmentCount` invariant: the size stored in a tag
//! slot is recomputed only when the line's data actually changes, and a
//! writeback carrying unchanged data must not invoke the compressor at all.
//!
//! Also pins down the stale-size bug class: a dirty writeback that changes
//! the data must update the cached size (so a grown line evicts its victim
//! partner instead of silently overlapping it).

use std::cell::Cell;
use std::rc::Rc;

use bv_cache::LineAddr;
use bv_compress::{Bdi, CacheLine, Compressed, Compressor, SegmentCount};
use bv_core::{BaseVictimLlc, InclusionMode, LlcOrganization, NoInner, VictimPolicyKind};
use bv_events::{EventSink, NoEventSink, RingSink};
use bv_testkit::fixtures;

/// Wraps BDI and counts how many times the cache asks for a compression
/// (size-only or full), so tests can assert the memoization actually
/// short-circuits the compressor.
struct CountingCompressor {
    inner: Bdi,
    size_calls: Rc<Cell<u64>>,
    compress_calls: Rc<Cell<u64>>,
}

impl CountingCompressor {
    fn new() -> (CountingCompressor, Rc<Cell<u64>>, Rc<Cell<u64>>) {
        let size_calls = Rc::new(Cell::new(0));
        let compress_calls = Rc::new(Cell::new(0));
        let c = CountingCompressor {
            inner: Bdi::new(),
            size_calls: Rc::clone(&size_calls),
            compress_calls: Rc::clone(&compress_calls),
        };
        (c, size_calls, compress_calls)
    }
}

impl Compressor for CountingCompressor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress(&self, line: &CacheLine) -> Compressed {
        self.compress_calls.set(self.compress_calls.get() + 1);
        self.inner.compress(line)
    }

    fn decompress(&self, compressed: &Compressed) -> CacheLine {
        self.inner.decompress(compressed)
    }

    fn compressed_size(&self, line: &CacheLine) -> SegmentCount {
        self.size_calls.set(self.size_calls.get() + 1);
        self.inner.compressed_size(line)
    }
}

fn counting_llc(mode: InclusionMode) -> (BaseVictimLlc, Rc<Cell<u64>>) {
    counting_llc_with(mode, NoEventSink)
}

fn counting_llc_with<E: EventSink>(
    mode: InclusionMode,
    sink: E,
) -> (BaseVictimLlc<E>, Rc<Cell<u64>>) {
    let (compressor, size_calls, _) = CountingCompressor::new();
    let llc = BaseVictimLlc::with_sink(
        fixtures::toy_geometry(), // 4 sets x 4 ways toy cache
        fixtures::toy_policy(),
        VictimPolicyKind::EcmLargestBase,
        mode,
        Box::new(compressor),
        sink,
    );
    (llc, size_calls)
}

fn addr(set: u64, k: u64) -> LineAddr {
    LineAddr::new(set + 4 * k)
}

/// A line with a mid-range BDI size (B8D1, 5 segments).
fn small_line() -> CacheLine {
    CacheLine::from_u64_words(&core::array::from_fn(|i| 0x7f00_0000_0000 + i as u64))
}

/// An incompressible line (16 segments).
fn full_line() -> CacheLine {
    CacheLine::from_u64_words(&core::array::from_fn(|i| {
        (i as u64 + 1).wrapping_mul(0x0123_4567_89ab_cdef)
    }))
}

#[test]
fn unchanged_writeback_skips_recompression() {
    let (mut llc, size_calls) = counting_llc(InclusionMode::Inclusive);
    let mut inner = NoInner;
    let a = addr(0, 0);
    let data = small_line();
    llc.fill(a, data, &mut inner);
    let after_fill = size_calls.get();
    assert!(after_fill >= 1, "fill must compress the incoming line");

    // A clean writeback (inner eviction of an unmodified line) carries the
    // exact bytes the LLC already holds: no compressor call is allowed.
    llc.writeback(a, data, &mut inner);
    assert_eq!(
        size_calls.get(),
        after_fill,
        "writeback of unchanged data must reuse the cached SegmentCount"
    );
    assert_eq!(llc.stats().writeback_hits, 1);
}

#[test]
fn changed_writeback_recompresses_and_updates_size() {
    let (mut llc, size_calls) = counting_llc(InclusionMode::Inclusive);
    let mut inner = NoInner;
    let a = addr(0, 0);
    llc.fill(a, small_line(), &mut inner);
    let after_fill = size_calls.get();

    // A dirty writeback with different bytes must recompress...
    llc.writeback(a, full_line(), &mut inner);
    assert_eq!(
        size_calls.get(),
        after_fill + 1,
        "writeback of changed data must recompress"
    );
    // ...and the updated size must be visible on the next read hit.
    let out = llc.read(a, &mut inner);
    assert!(out.is_hit());
    assert_eq!(
        llc.compression_stats().count(SegmentCount::FULL),
        1,
        "the grown size must have been recorded"
    );
}

#[test]
fn unchanged_writeback_to_victim_slot_skips_recompression() {
    // Non-inclusive mode: a write hit in the Victim cache promotes the
    // line. With unchanged data the promotion must reuse the victim slot's
    // cached size.
    let (mut llc, size_calls) = counting_llc(InclusionMode::NonInclusive);
    let mut inner = NoInner;
    let data = small_line();
    // Park addr(0,0) in the Victim cache by overfilling set 0.
    for k in 0..5 {
        llc.fill(addr(0, k), data, &mut inner);
    }
    assert!(llc.contains(addr(0, 0)), "LRU line parked as victim");
    let before = size_calls.get();
    llc.writeback(addr(0, 0), data, &mut inner);
    assert_eq!(
        size_calls.get(),
        before,
        "victim promotion with unchanged data must not recompress"
    );
    assert_eq!(llc.stats().writeback_hits, 1);
}

#[test]
fn grown_base_evicts_victim_partner_not_overlap() {
    // The stale-size bug class: if a dirty writeback failed to refresh the
    // cached size, a grown base line would silently overlap its victim
    // partner. The partner must be evicted instead.
    let mut llc = BaseVictimLlc::new(
        fixtures::toy_geometry(),
        fixtures::toy_policy(),
        VictimPolicyKind::EcmLargestBase,
    );
    let mut inner = NoInner;
    // Fill set 0 with large lines, then a small one: the displaced LRU
    // line parks as the small line's victim partner.
    let big = CacheLine::from_u64_words(&core::array::from_fn(|i| {
        0x7f00_0000_0000 + i as u64 * 1_000_000 // B8D4, 11 segments
    }));
    for k in 0..4 {
        llc.fill(addr(0, k), big, &mut inner);
    }
    llc.fill(addr(0, 4), small_line(), &mut inner);
    assert!(llc.contains(addr(0, 0)), "victim partner parked");

    // Grow the base line to a full 16 segments: 16 + 11 > 16, so the
    // partner can no longer share the way.
    llc.writeback(addr(0, 4), full_line(), &mut inner);
    assert!(
        !llc.contains(addr(0, 0)),
        "grown base must evict its victim partner, not overlap it"
    );
    assert_eq!(llc.stats().partner_evictions, 1);
    // The grown line itself must still be resident and readable.
    assert!(llc.read(addr(0, 4), &mut inner).is_hit());
}

#[test]
fn shrunken_writeback_updates_cached_size() {
    // The complementary direction: a write that shrinks the line must also
    // refresh the cached size, freeing space for future victim pairing.
    let (mut llc, size_calls) = counting_llc(InclusionMode::Inclusive);
    let mut inner = NoInner;
    let a = addr(1, 0);
    llc.fill(a, full_line(), &mut inner);
    let before = size_calls.get();
    llc.writeback(a, CacheLine::zeroed(), &mut inner);
    assert_eq!(size_calls.get(), before + 1, "shrink must recompress");
    assert_eq!(
        llc.compression_stats().count(SegmentCount::MIN),
        1,
        "the shrunken size must have been recorded"
    );
}

#[test]
fn traced_installs_compress_once() {
    // A traced install reports the encoder class in its compression
    // event; that class must come from the same pass that sized the line.
    let (mut llc, size_calls) = counting_llc_with(InclusionMode::Inclusive, RingSink::new(64));
    let mut inner = NoInner;
    llc.fill(addr(0, 0), small_line(), &mut inner);
    assert_eq!(size_calls.get(), 1, "a traced demand fill compresses once");
    llc.prefetch_fill(addr(0, 1), small_line(), &mut inner);
    assert_eq!(
        size_calls.get(),
        2,
        "a traced prefetch fill compresses once"
    );
    llc.writeback(addr(0, 0), full_line(), &mut inner);
    assert_eq!(
        size_calls.get(),
        3,
        "a changed-data writeback compresses once"
    );
    assert!(!llc.drain_events().is_empty(), "the run was traced");
}
