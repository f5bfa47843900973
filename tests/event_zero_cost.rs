//! The event path must not perturb simulation results.
//!
//! Two guarantees, checked through the facade crate:
//!
//! * **Disabled is invisible.** The default build monomorphizes every
//!   organization over `NoEventSink`, so the 85 committed goldens (see
//!   `tests/golden_snapshot.rs`) double as the bit-identity proof for
//!   the untraced build — they were recorded before the event layer
//!   existed and must never need regeneration because of it.
//! * **Enabled is observation-only.** A traced run (ring sink attached)
//!   must produce a [`base_victim::RunResult`] equal in every field to
//!   the untraced run of the same configuration: events are emitted
//!   *about* decisions, never *into* them.

use base_victim::events::RingSink;
use base_victim::{LlcKind, SimConfig, System, TraceRegistry};

#[test]
fn traced_run_matches_untraced_run_for_every_organization() {
    let registry = TraceRegistry::paper_default();
    let trace = registry.all().next().expect("non-empty registry");
    let kinds = [
        LlcKind::Uncompressed,
        LlcKind::TwoTag,
        LlcKind::TwoTagEcm,
        LlcKind::BaseVictim,
        LlcKind::BaseVictimNonInclusive,
        LlcKind::Vsc,
        LlcKind::Dcc,
    ];
    for kind in kinds {
        let cfg = SimConfig::single_thread(kind);
        let system = System::new(cfg);
        let plain = system.run_with_warmup(&trace.workload, 2_000, 6_000);

        let sink = RingSink::new(1 << 16);
        let llc = cfg.llc_kind.build_traced(cfg.llc, cfg.llc_policy, sink);
        let (traced, mut llc) = system.run_traced(&trace.workload, 2_000, 6_000, llc);

        assert_eq!(plain, traced, "{} diverged under tracing", kind.name());
        let events = llc.drain_events();
        assert!(
            !events.is_empty(),
            "{} emitted no events in a traced run",
            kind.name()
        );
        // Sequence numbers are stamped by the sink in emission order.
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "{} events out of order",
            kind.name()
        );
    }
}
