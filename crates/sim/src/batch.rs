//! The simulation drive loop's trace source.

use bv_trace::synth::TraceGenerator;
use bv_trace::TraceEvent;

/// The drive loop's handle on a generator's event stream: each
/// [`next`](EventBatch::next) decodes one event and commits its memory
/// side effect, exactly [`TraceGenerator::next_event`].
///
/// It holds no state. Decoding ahead into a ring measured slower than
/// decoding per call (37.5 vs 33.0 ns per event), so it decodes none.
///
/// # Examples
///
/// ```
/// use bv_sim::EventBatch;
/// # use bv_trace::synth::{KernelSpec, WorkloadSpec};
/// # use bv_trace::{DataProfile, KernelKind};
/// # let spec = WorkloadSpec {
/// #     kernels: vec![KernelSpec {
/// #         kind: KernelKind::Loop,
/// #         region_bytes: 1 << 20,
/// #         weight: 1,
/// #         store_fraction: 64,
/// #         profile: DataProfile::SmallInt,
/// #     }],
/// #     mem_fraction: 85,
/// #     ifetch_fraction: 10,
/// #     code_bytes: 16 << 10,
/// #     seed: 7,
/// # };
/// let mut direct = spec.generator();
/// let mut gen = spec.generator();
/// let mut batch = EventBatch::new();
/// for _ in 0..1000 {
///     assert_eq!(batch.next(&mut gen), direct.next_event());
/// }
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct EventBatch;

impl EventBatch {
    /// Creates the handle.
    #[must_use]
    pub fn new() -> EventBatch {
        EventBatch
    }

    /// The next event of `gen`, its memory side effect committed, so the
    /// caller may immediately query `gen.line_data`.
    #[inline]
    pub fn next(&mut self, gen: &mut TraceGenerator) -> TraceEvent {
        gen.next_event()
    }
}
