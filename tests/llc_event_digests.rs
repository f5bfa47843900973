//! Pins every LLC organization's full event stream, not only the
//! counters the goldens cover: a reordered, dropped or mislabeled event
//! (a fill on the wrong set, a compression outcome with the wrong
//! encoder) changes a digest here even when every counter still matches.
//!
//! One trace runs under every name `--llc` accepts, on a 128 KB LLC over
//! a 32 KB L2: small enough that replacement, victim insertion, pairing
//! drops and size-pressure evictions all happen within the budget.

use base_victim::events::RingSink;
use base_victim::{CacheGeometry, LlcKind, SimConfig, System, TraceRegistry};

mod common;
use common::event_digest;

const TRACE: &str = "specint.mcf.07";
const WARMUP: u64 = 20_000;
const INSTS: u64 = 60_000;

/// (organization, event count, FNV-1a digest) of each full event stream
/// of [`TRACE`]. Update them only for an intentional change to what an
/// organization emits.
const EVENT_DIGESTS: [(&str, usize, u64); 8] = [
    ("uncompressed", 23090, 0x7f276666eea614c7),
    ("two-tag", 19146, 0xec1f6b66c8c8befd),
    ("two-tag-ecm", 17414, 0xa7e439cc02bdc7e2),
    ("base-victim", 26606, 0xc386d0212dfd0e7c),
    ("base-victim-ni", 26873, 0x2b1957f335d623b7),
    ("base-victim-random-fit", 26124, 0xef3a23e2ce2a1e77),
    ("vsc", 17994, 0x896f41a45b8396e3),
    ("dcc", 17613, 0x4ce3d43957f290c6),
];

#[test]
fn llc_event_streams_match_the_recorded_digests() {
    let registry = TraceRegistry::paper_default();
    let trace = registry.get(TRACE).expect("trace in the registry");
    let mut got = Vec::new();
    for name in LlcKind::NAMES.split(", ") {
        let kind = LlcKind::from_name(name).expect("listed name parses");
        let mut cfg = SimConfig::single_thread(kind).with_llc_size(128 * 1024, 8);
        cfg.l2 = CacheGeometry::new(32 * 1024, 8, 64);
        let llc = kind.build_traced(cfg.llc, cfg.llc_policy, RingSink::new(1 << 20));
        let (_, mut llc) = System::new(cfg).run_traced(&trace.workload, WARMUP, INSTS, llc);
        assert_eq!(
            llc.events_dropped(),
            0,
            "{name}: the ring must hold every event"
        );
        let events = llc.drain_events();
        got.push((name, events.len(), event_digest(&events)));
    }
    assert_eq!(got, EVENT_DIGESTS, "an LLC event stream changed");
}
