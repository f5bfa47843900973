//! The `bvsim bench` regression suite: fixed kernel and end-to-end
//! workloads timed with [`bv_testkit::bench`], reported as a `BENCH.json`
//! perf-trajectory file that CI diffs against the committed baseline.
//!
//! Two suites:
//!
//! * **Kernel** — `compressed_size` throughput (lines/s) over a fixed
//!   synthetic corpus, for each compression algorithm in both its
//!   optimized word-wise form and the frozen byte-at-a-time
//!   [`bv_compress::reference`] form. The optimized/reference pair yields
//!   a speedup figure; a segment-count checksum guards against the two
//!   implementations silently diverging inside the timing loop.
//! * **End-to-end** — simulated instructions per wall-clock second for a
//!   registry trace under the main LLC organizations.
//!
//! The report serializes through `bv_runner::json` (the workspace has no
//! serde) so the same reader that parses run journals parses `BENCH.json`.

use bv_cache::engine::{SetEngine, SlotMeta};
use bv_cache::PolicyKind;
use bv_compress::reference::{RefBdi, RefCPack, RefFpc};
use bv_compress::{Bdi, CPack, CacheLine, Compressor, Fpc, SegmentCount};
use bv_kvcache::{run_kv as run_kv_tier, KvConfig, KvOrgKind};
use bv_metrics::Registry;
use bv_runner::json::{self, ObjWriter, Value};
use bv_sim::{EventBatch, LlcKind, SimConfig, SimTelemetry, System, DEFAULT_EPOCH_INSTS};
use bv_trace::request::RequestProfile;
use bv_trace::{DataProfile, TraceRegistry};

/// Schema marker written into every report.
///
/// v2 extends the end-to-end suite from three organizations to all five
/// (adding VSC and DCC) plus the telemetry-enabled [`TELEMETRY_ROW`]; the
/// row format itself is unchanged, so the reader also accepts
/// [`SCHEMA_V1`] files.
pub const SCHEMA: &str = "bvsim-bench-v2";

/// The previous schema marker, still accepted by [`BenchReport::from_json`]
/// (identical row format; shorter end-to-end suite).
pub const SCHEMA_V1: &str = "bvsim-bench-v1";

/// Implementation label for the fast word-wise kernels.
pub const IMPL_OPTIMIZED: &str = "optimized";
/// Implementation label for the frozen scalar reference kernels.
pub const IMPL_REFERENCE: &str = "reference";

/// Suite sizing: how much work each measurement does.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Cache lines in the kernel corpus.
    pub corpus_lines: usize,
    /// Timing samples per kernel measurement (best-of-N is reported).
    pub kernel_samples: usize,
    /// Measured instructions per end-to-end run.
    pub sim_insts: u64,
    /// Timing samples per end-to-end measurement (best-of-N is reported).
    pub sim_samples: usize,
    /// Measured requests per kv-tier run (warmup is a quarter of this,
    /// mirroring the end-to-end warmup ratio).
    pub kv_requests: u64,
}

impl BenchConfig {
    /// The full suite, used to produce the committed `BENCH.json`.
    ///
    /// `sim_insts` is sized so one timed run lasts tens of milliseconds
    /// even at post-SoA hot-loop speeds: the events-disabled gate compares
    /// two runs of identical machine code, so its measured "overhead" is
    /// pure timing noise and must stay well under
    /// [`EVENTS_DISABLED_MAX_PCT`].
    #[must_use]
    pub fn full() -> BenchConfig {
        BenchConfig {
            corpus_lines: 4096,
            kernel_samples: 15,
            sim_insts: 1_200_000,
            sim_samples: 5,
            kv_requests: 100_000,
        }
    }

    /// The CI gate: identical per-measurement work to [`BenchConfig::full`]
    /// (so lines/s and insts/s are directly comparable to the committed
    /// baseline), just fewer timing samples.
    #[must_use]
    pub fn quick() -> BenchConfig {
        BenchConfig {
            corpus_lines: 4096,
            kernel_samples: 5,
            sim_insts: 1_200_000,
            sim_samples: 3,
            kv_requests: 100_000,
        }
    }

    /// Minimal sizing for unit tests of the harness itself.
    #[must_use]
    pub fn tiny() -> BenchConfig {
        BenchConfig {
            corpus_lines: 32,
            kernel_samples: 1,
            sim_insts: 2_000,
            sim_samples: 1,
            kv_requests: 2_000,
        }
    }
}

/// One kernel measurement: an algorithm under one implementation.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelBench {
    /// Algorithm name (`"bdi"`, `"fpc"`, `"cpack"`).
    pub kernel: String,
    /// [`IMPL_OPTIMIZED`] or [`IMPL_REFERENCE`].
    pub implementation: String,
    /// `compressed_size` calls per second over the fixed corpus.
    pub lines_per_sec: f64,
    /// Sum of reported segment counts over the corpus; identical between
    /// implementations by construction (differential tests enforce it),
    /// so a mismatch inside the bench means the timing loop is broken.
    pub segment_checksum: u64,
}

/// One end-to-end measurement: a full simulated system on one trace.
#[derive(Clone, Debug, PartialEq)]
pub struct EndToEndBench {
    /// LLC organization name (e.g. `"base-victim"`).
    pub llc: String,
    /// Simulated instructions per wall-clock second.
    pub insts_per_sec: f64,
}

/// A complete `bvsim bench` report.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Kernel-suite rows.
    pub kernels: Vec<KernelBench>,
    /// End-to-end rows.
    pub end_to_end: Vec<EndToEndBench>,
}

/// The fixed kernel corpus: every [`DataProfile`] in equal proportion so
/// each encoding path gets exercised (zeros, repeats, pointers, small
/// ints, floats, and incompressible noise).
#[must_use]
pub fn corpus(lines: usize) -> Vec<CacheLine> {
    const PROFILES: [DataProfile; 8] = [
        DataProfile::Zero,
        DataProfile::Repeated,
        DataProfile::PointerLike,
        DataProfile::SmallInt,
        DataProfile::Clustered,
        DataProfile::WideInt,
        DataProfile::FloatLike,
        DataProfile::Random,
    ];
    (0..lines)
        .map(|i| {
            PROFILES[i % PROFILES.len()].synthesize(i as u64 * 131, (i / PROFILES.len()) as u64)
        })
        .collect()
}

/// A kernel name with its optimized and reference implementations.
type KernelPair = (&'static str, Box<dyn Compressor>, Box<dyn Compressor>);

fn kernel_pairs() -> Vec<KernelPair> {
    vec![
        ("bdi", Box::new(Bdi::new()), Box::new(RefBdi::new())),
        ("fpc", Box::new(Fpc::new()), Box::new(RefFpc::new())),
        ("cpack", Box::new(CPack::new()), Box::new(RefCPack::new())),
    ]
}

fn time_kernel(
    kernel: &str,
    implementation: &str,
    comp: &dyn Compressor,
    lines: &[CacheLine],
    samples: usize,
) -> KernelBench {
    let mut checksum = 0u64;
    let secs = bv_testkit::bench::fastest(samples, || {
        checksum = lines
            .iter()
            .map(|l| u64::from(comp.compressed_size(l).get()))
            .sum();
        checksum
    });
    KernelBench {
        kernel: kernel.to_string(),
        implementation: implementation.to_string(),
        lines_per_sec: lines.len() as f64 / secs.max(f64::MIN_POSITIVE),
        segment_checksum: checksum,
    }
}

/// Runs the kernel suite: each algorithm, optimized then reference.
///
/// # Panics
///
/// Panics if the two implementations of a kernel disagree on the corpus's
/// total segment count (they are differential-tested to agree).
#[must_use]
pub fn run_kernel_suite(cfg: &BenchConfig) -> Vec<KernelBench> {
    let lines = corpus(cfg.corpus_lines);
    let mut rows = Vec::new();
    for (name, optimized, reference) in kernel_pairs() {
        let opt = time_kernel(
            name,
            IMPL_OPTIMIZED,
            optimized.as_ref(),
            &lines,
            cfg.kernel_samples,
        );
        let reference = time_kernel(
            name,
            IMPL_REFERENCE,
            reference.as_ref(),
            &lines,
            cfg.kernel_samples,
        );
        assert_eq!(
            opt.segment_checksum, reference.segment_checksum,
            "{name}: optimized and reference kernels diverged during timing"
        );
        rows.push(opt);
        rows.push(reference);
    }
    rows
}

/// Kernel-row label for the set-probe microbench: `SetEngine::find`
/// (optimized bitmask scan) vs `find_reference` (scalar walk) over a fixed
/// probe stream. `lines_per_sec` carries probes/s; the checksum sums the
/// returned ways so a divergence between the two probe paths fails the
/// bench, not just the differential tests.
pub const PROBE_ROW: &str = "probe-only";

/// Kernel-row label for the trace-decode microbench: decoding through
/// [`EventBatch`] (optimized) vs the per-call `next_event` loop
/// (reference), with no cache attached. `EventBatch::next` is
/// `next_event`, so both sides run the same loop and the row reads about
/// 1.0x; it stays so a drive-loop wrapper that slows decode shows.
/// `lines_per_sec` carries events/s; the checksum folds every decoded
/// event so the two decode paths must produce the identical stream.
pub const DECODE_ROW: &str = "decode-only";

/// Probe-stream geometry for the [`PROBE_ROW`] microbench: the default
/// single-thread LLC shape (2 MB / 16-way at 64 B lines).
const PROBE_SETS: usize = 2048;
const PROBE_WAYS: usize = 16;

/// Payload-free slot metadata for the probe microbench engine.
#[derive(Clone, Copy, Debug)]
struct NoMeta;

impl SlotMeta for NoMeta {
    fn empty() -> NoMeta {
        NoMeta
    }
}

/// Runs the [`PROBE_ROW`] pair: a populated LLC-shaped engine probed with
/// a fixed ~3:1 hit:miss stream, timed through the optimized bitmask
/// `find` and the retained scalar `find_reference`.
///
/// # Panics
///
/// Panics if the two probe paths disagree on the stream's way checksum.
#[must_use]
pub fn run_probe_suite(cfg: &BenchConfig) -> Vec<KernelBench> {
    // The SplitMix64 stream from this seed: `mix` of the state, then one
    // golden-ratio step.
    let mut state = 0x0bad_cafe_f00d_d00du64;
    let mut rng = || {
        let out = bv_testkit::mix(state);
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    };
    let mut engine: SetEngine<NoMeta> = SetEngine::new(PROBE_SETS, PROBE_WAYS, PolicyKind::Lru);
    let mut resident = vec![0u64; PROBE_SETS * PROBE_WAYS];
    for set in 0..PROBE_SETS {
        for way in 0..PROBE_WAYS {
            let tag = rng() | 1;
            resident[set * PROBE_WAYS + way] = tag;
            engine.install(set, way, tag, NoMeta, SegmentCount::FULL);
        }
    }
    // Leave some holes so probes also exercise the validity mask.
    for set in (0..PROBE_SETS).step_by(5) {
        engine.invalidate(set, set % PROBE_WAYS);
    }
    let probes: Vec<(usize, u64)> = (0..cfg.corpus_lines * 64)
        .map(|_| {
            let r = rng();
            let set = (r as usize >> 8) % PROBE_SETS;
            let tag = if r & 3 != 0 {
                resident[set * PROBE_WAYS + (r as usize >> 40) % PROBE_WAYS]
            } else {
                rng() | 1 // near-certain miss
            };
            (set, tag)
        })
        .collect();

    let mut opt_checksum = 0u64;
    let opt_secs = bv_testkit::bench::fastest(cfg.kernel_samples, || {
        opt_checksum = probes
            .iter()
            .map(|&(set, tag)| engine.find(set, tag).map_or(0, |w| w as u64 + 1))
            .sum();
        opt_checksum
    });
    let mut ref_checksum = 0u64;
    let ref_secs = bv_testkit::bench::fastest(cfg.kernel_samples, || {
        ref_checksum = probes
            .iter()
            .map(|&(set, tag)| engine.find_reference(set, tag).map_or(0, |w| w as u64 + 1))
            .sum();
        ref_checksum
    });
    assert_eq!(
        opt_checksum, ref_checksum,
        "probe-only: find and find_reference diverged during timing"
    );
    vec![
        KernelBench {
            kernel: PROBE_ROW.to_string(),
            implementation: IMPL_OPTIMIZED.to_string(),
            lines_per_sec: probes.len() as f64 / opt_secs.max(f64::MIN_POSITIVE),
            segment_checksum: opt_checksum,
        },
        KernelBench {
            kernel: PROBE_ROW.to_string(),
            implementation: IMPL_REFERENCE.to_string(),
            lines_per_sec: probes.len() as f64 / ref_secs.max(f64::MIN_POSITIVE),
            segment_checksum: ref_checksum,
        },
    ]
}

fn fold_event(sum: u64, ev: &bv_trace::TraceEvent) -> u64 {
    sum.wrapping_mul(31)
        .wrapping_add(ev.addr ^ (u64::from(ev.gap) << 1) ^ ev.kind as u64)
}

/// Runs the [`DECODE_ROW`] pair: the end-to-end trace decoded with no
/// cache attached, through [`EventBatch`] and the per-call loop.
///
/// # Panics
///
/// Panics if the registry trace is missing or the two decode paths
/// produce different event streams.
#[must_use]
pub fn run_decode_suite(cfg: &BenchConfig) -> Vec<KernelBench> {
    let registry = TraceRegistry::paper_default();
    let workload = &registry
        .get(END_TO_END_TRACE)
        .expect("decode bench trace in registry")
        .workload;
    let events = cfg.sim_insts;

    let mut opt_checksum = 0u64;
    let opt_secs = bv_testkit::bench::fastest(cfg.kernel_samples, || {
        let mut gen = workload.generator();
        let mut batch = EventBatch::new();
        let mut sum = 0u64;
        for _ in 0..events {
            sum = fold_event(sum, &batch.next(&mut gen));
        }
        opt_checksum = sum;
        sum
    });
    let mut ref_checksum = 0u64;
    let ref_secs = bv_testkit::bench::fastest(cfg.kernel_samples, || {
        let mut gen = workload.generator();
        let mut sum = 0u64;
        for _ in 0..events {
            sum = fold_event(sum, &gen.next_event());
        }
        ref_checksum = sum;
        sum
    });
    assert_eq!(
        opt_checksum, ref_checksum,
        "decode-only: EventBatch and next_event decode diverged during timing"
    );
    vec![
        KernelBench {
            kernel: DECODE_ROW.to_string(),
            implementation: IMPL_OPTIMIZED.to_string(),
            lines_per_sec: events as f64 / opt_secs.max(f64::MIN_POSITIVE),
            segment_checksum: opt_checksum,
        },
        KernelBench {
            kernel: DECODE_ROW.to_string(),
            implementation: IMPL_REFERENCE.to_string(),
            lines_per_sec: events as f64 / ref_secs.max(f64::MIN_POSITIVE),
            segment_checksum: ref_checksum,
        },
    ]
}

/// The trace the end-to-end suite runs (a mid-size, cache-sensitive
/// registry workload).
pub const END_TO_END_TRACE: &str = "specint.mcf.07";

/// The organizations the end-to-end suite times: every LLC built on the
/// shared set-engine layer, so a throughput regression in any of the five
/// paper organizations trips the CI gate.
pub const END_TO_END_LLCS: [LlcKind; 5] = [
    LlcKind::Uncompressed,
    LlcKind::BaseVictim,
    LlcKind::TwoTag,
    LlcKind::Vsc,
    LlcKind::Dcc,
];

/// Label for the telemetry-enabled end-to-end row: base-victim with
/// epoch sampling at the `--telemetry` default epoch. Its baseline entry
/// in `BENCH.json` puts instrumentation overhead under the same
/// regression gate as the raw organizations.
pub const TELEMETRY_ROW: &str = "base-victim+telemetry";

/// Label for the events-disabled end-to-end row: base-victim built as
/// usual (every organization monomorphizes over `NoEventSink` by
/// default) but driven through the `run_traced` entry point `bvsim
/// trace` uses. Together with the plain `base-victim` row it prices the
/// disabled event path — the emission guards compiled into every
/// organization plus the boxed-LLC driver — which [`compare`] caps at
/// [`EVENTS_DISABLED_MAX_PCT`]. Both this row and [`TELEMETRY_ROW`] are
/// timed interleaved with the base row and reported via the median
/// per-round ratio, so the gate measures instrumentation cost rather
/// than background-load drift between separate timing windows.
pub const EVENTS_DISABLED_ROW: &str = "base-victim+events-disabled";

/// The [`compare`] bound on [`BenchReport::events_disabled_overhead_pct`]:
/// the disabled event path may cost at most this much of base-victim
/// throughput. The bound sits just above the paired-measurement noise
/// floor on a shared single-core host (~±2–3% per-round ratio spread at
/// post-SoA loop speeds, where one measured run lasts ~100 ms); a real
/// cost on the disabled path — e.g. an emission guard that escapes the
/// monomorphized fast path — shows up well past it.
pub const EVENTS_DISABLED_MAX_PCT: f64 = 4.0;

/// Label for the serve-metrics end-to-end row: the ~8 metric records
/// the daemon's worker makes per job (queue-wait, busy flag edges,
/// sim/total/journal latency, completion counters) against an *enabled*
/// [`bv_metrics::Registry`], timed as an amplified loop against the
/// identical loop holding disabled handles and spread over the measured
/// base job time. That difference is exactly what `bvsim serve` pays
/// for metrics — pre-registered handles, relaxed atomic RMWs on the
/// record path — and [`compare`] caps it at [`SERVE_METRICS_MAX_PCT`].
pub const SERVE_METRICS_ROW: &str = "serve+metrics";

/// The [`compare`] bound on [`BenchReport::serve_metrics_overhead_pct`]:
/// the enabled metric registry may cost at most this much of the
/// metrics-off job path. A handful of uncontended relaxed atomics
/// against a multi-millisecond simulation sits far below this; crossing
/// it means a record call grew a lock, an allocation, or a registration
/// onto the per-job path.
pub const SERVE_METRICS_MAX_PCT: f64 = 2.0;

/// Runs the end-to-end suite: sim insts/s for [`END_TO_END_LLCS`], then
/// the [`TELEMETRY_ROW`] sampled run and the [`EVENTS_DISABLED_ROW`]
/// traced-driver run.
///
/// # Panics
///
/// Panics if [`END_TO_END_TRACE`] is missing from the registry.
#[must_use]
pub fn run_end_to_end_suite(cfg: &BenchConfig) -> Vec<EndToEndBench> {
    let registry = TraceRegistry::paper_default();
    let trace = registry
        .get(END_TO_END_TRACE)
        .expect("end-to-end bench trace in registry");
    let mut rows: Vec<EndToEndBench> = END_TO_END_LLCS
        .iter()
        .map(|&kind| {
            let mut llc_name = "";
            let secs = bv_testkit::bench::fastest(cfg.sim_samples, || {
                let result = System::new(SimConfig::single_thread(kind)).run_with_warmup(
                    &trace.workload,
                    cfg.sim_insts / 4,
                    cfg.sim_insts,
                );
                llc_name = result.llc_name;
                result.cycles
            });
            EndToEndBench {
                llc: llc_name.to_string(),
                insts_per_sec: cfg.sim_insts as f64 / secs.max(f64::MIN_POSITIVE),
            }
        })
        .collect();

    // The telemetry and events-disabled rows are priced as *ratios*
    // against base-victim (the 2% events-off gate in particular holds two
    // runs of identical machine code to near-parity), so their absolute
    // rates are derived: base-victim's measured rate divided by the
    // median per-round slowdown from an interleaved block of short runs.
    // Short rounds make a background-load burst *longer* than a round, so
    // it inflates every closure of the rounds it covers equally and
    // cancels in the ratio; the median then rides on the majority of
    // clean rounds. Timing the instrumented variants with independent
    // full-length windows instead reads any drift between the windows as
    // instrumentation cost.
    let short_insts = (cfg.sim_insts / 8).max(50_000).min(cfg.sim_insts);
    let mut base =
        || {
            let result = System::new(SimConfig::single_thread(LlcKind::BaseVictim))
                .run_with_warmup(&trace.workload, short_insts / 4, short_insts);
            std::hint::black_box(result.cycles);
        };
    let mut sampled = || {
        let mut tel = SimTelemetry::new(DEFAULT_EPOCH_INSTS);
        let result = System::new(SimConfig::single_thread(LlcKind::BaseVictim)).run_sampled(
            &trace.workload,
            short_insts / 4,
            short_insts,
            &mut tel,
        );
        std::hint::black_box(result.cycles);
    };
    let mut traced = || {
        let sim_cfg = SimConfig::single_thread(LlcKind::BaseVictim);
        let llc = sim_cfg.llc_kind.build(sim_cfg.llc, sim_cfg.llc_policy);
        let (result, _llc) =
            System::new(sim_cfg).run_traced(&trace.workload, short_insts / 4, short_insts, llc);
        std::hint::black_box(result.cycles);
    };
    // The serve+metrics pair prices the daemon worker's per-job record
    // sequence — the handful of counter/gauge/histogram updates made
    // around one simulation — with connected vs disconnected handles.
    // One sequence is nanoseconds against a job's milliseconds of
    // simulation, far below round-timing noise, so each round runs the
    // sequence `METRIC_SEQS_PER_ROUND` times back to back; the derived
    // row then spreads the measured enabled-minus-disabled cost over
    // the base job time instead of trusting a sim-dominated ratio.
    const METRIC_SEQS_PER_ROUND: u32 = 10_000;
    let job_records = |reg: &Registry| {
        let done = reg.counter("jobs_completed_total", &[("source", "simulated")]);
        let jobs = reg.counter("worker_jobs_total", &[("worker", "0")]);
        let busy = reg.gauge("worker_busy", &[("worker", "0")]);
        let queue_wait = reg.histogram("job_queue_wait_ms", &[]);
        let sim = reg.histogram("job_sim_ms", &[]);
        let total = reg.histogram("job_total_ms", &[]);
        let journal = reg.histogram("job_journal_ms", &[]);
        move || {
            for i in 0..METRIC_SEQS_PER_ROUND {
                let ms = u64::from(i % 97);
                busy.set(1);
                queue_wait.observe(ms / 3);
                sim.observe(ms);
                total.observe(ms + ms / 3);
                journal.observe(0);
                done.inc();
                jobs.inc();
                busy.set(0);
            }
        }
    };
    let enabled = Registry::new();
    let disabled = Registry::disabled();
    let mut metrics_off = job_records(&disabled);
    let mut metrics_on = job_records(&enabled);
    let samples = bv_testkit::bench::interleaved_samples(
        cfg.sim_samples * 6,
        &mut [
            &mut base,
            &mut sampled,
            &mut traced,
            &mut metrics_off,
            &mut metrics_on,
        ],
    );
    let ratio_of = |num: usize, den: usize| {
        let mut ratios: Vec<f64> = samples[num]
            .iter()
            .zip(&samples[den])
            .map(|(&a, &b)| a / b.max(f64::MIN_POSITIVE))
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };
    let base_rate = rows
        .iter()
        .find(|r| r.llc == "base-victim")
        .expect("BaseVictim is in END_TO_END_LLCS")
        .insts_per_sec;
    rows.push(EndToEndBench {
        llc: TELEMETRY_ROW.to_string(),
        insts_per_sec: base_rate / ratio_of(1, 0).max(f64::MIN_POSITIVE),
    });
    rows.push(EndToEndBench {
        llc: EVENTS_DISABLED_ROW.to_string(),
        insts_per_sec: base_rate / ratio_of(2, 0).max(f64::MIN_POSITIVE),
    });
    // Per-job registry cost: the median round delta between the enabled
    // and disabled record loops, divided down to one sequence, spread
    // over the measured base job time. Negative deltas are timer noise
    // around a sub-noise cost — clamp to zero rather than report a
    // speedup.
    let med = |idx: usize| {
        let mut s = samples[idx].clone();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    let per_job_extra = ((med(4) - med(3)) / f64::from(METRIC_SEQS_PER_ROUND)).max(0.0);
    let serve_slowdown = 1.0 + per_job_extra / med(0).max(f64::MIN_POSITIVE);
    rows.push(EndToEndBench {
        llc: SERVE_METRICS_ROW.to_string(),
        insts_per_sec: base_rate / serve_slowdown,
    });
    rows
}

/// Runs the kv-tier suite: replayed requests per wall-clock second for
/// each organization on the `web` request profile, reported as
/// `kv-<org>` rows (the `insts_per_sec` field carries requests/s).
/// Rides in the end-to-end vector so the same 20% regression gate covers
/// the tier's hot path — the per-miss BDI chunk walk plus the
/// victim-area bookkeeping.
#[must_use]
pub fn run_kv_suite(cfg: &BenchConfig) -> Vec<EndToEndBench> {
    KvOrgKind::ALL
        .into_iter()
        .map(|org| {
            let mut kv_cfg = KvConfig::new(org, RequestProfile::web());
            kv_cfg.requests = cfg.kv_requests;
            kv_cfg.warmup = cfg.kv_requests / 4;
            let secs =
                bv_testkit::bench::fastest(cfg.sim_samples, || run_kv_tier(&kv_cfg).stats.gets);
            EndToEndBench {
                llc: format!("kv-{}", org.name()),
                insts_per_sec: cfg.kv_requests as f64 / secs.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

/// Runs every suite: compression kernels, the probe/decode stage
/// microbenches, the end-to-end organizations, and the kv tier.
#[must_use]
pub fn run(cfg: &BenchConfig) -> BenchReport {
    let mut kernels = run_kernel_suite(cfg);
    kernels.extend(run_probe_suite(cfg));
    kernels.extend(run_decode_suite(cfg));
    let mut end_to_end = run_end_to_end_suite(cfg);
    end_to_end.extend(run_kv_suite(cfg));
    BenchReport {
        kernels,
        end_to_end,
    }
}

impl BenchReport {
    /// The row for one kernel under one implementation.
    #[must_use]
    pub fn kernel(&self, kernel: &str, implementation: &str) -> Option<&KernelBench> {
        self.kernels
            .iter()
            .find(|k| k.kernel == kernel && k.implementation == implementation)
    }

    /// Optimized-over-reference speedup per kernel, in suite order.
    #[must_use]
    pub fn kernel_speedups(&self) -> Vec<(String, f64)> {
        self.kernels
            .iter()
            .filter(|k| k.implementation == IMPL_OPTIMIZED)
            .filter_map(|opt| {
                let reference = self.kernel(&opt.kernel, IMPL_REFERENCE)?;
                Some((
                    opt.kernel.clone(),
                    opt.lines_per_sec / reference.lines_per_sec.max(f64::MIN_POSITIVE),
                ))
            })
            .collect()
    }

    /// Instrumentation cost of the [`TELEMETRY_ROW`] relative to the
    /// plain base-victim row, as a percentage (positive means the
    /// sampled run is slower). `None` when either row is absent.
    #[must_use]
    pub fn telemetry_overhead_pct(&self) -> Option<f64> {
        let plain = self.end_to_end.iter().find(|e| e.llc == "base-victim")?;
        let sampled = self.end_to_end.iter().find(|e| e.llc == TELEMETRY_ROW)?;
        Some((plain.insts_per_sec / sampled.insts_per_sec.max(f64::MIN_POSITIVE) - 1.0) * 100.0)
    }

    /// Cost of the disabled event path ([`EVENTS_DISABLED_ROW`]) relative
    /// to the plain base-victim row, as a percentage (positive means the
    /// traced-driver run is slower). `None` when either row is absent.
    #[must_use]
    pub fn events_disabled_overhead_pct(&self) -> Option<f64> {
        let plain = self.end_to_end.iter().find(|e| e.llc == "base-victim")?;
        let traced = self
            .end_to_end
            .iter()
            .find(|e| e.llc == EVENTS_DISABLED_ROW)?;
        Some((plain.insts_per_sec / traced.insts_per_sec.max(f64::MIN_POSITIVE) - 1.0) * 100.0)
    }

    /// Cost of the enabled metric registry ([`SERVE_METRICS_ROW`])
    /// relative to the plain base-victim row, as a percentage (positive
    /// means the instrumented job path is slower). `None` when either
    /// row is absent.
    #[must_use]
    pub fn serve_metrics_overhead_pct(&self) -> Option<f64> {
        let plain = self.end_to_end.iter().find(|e| e.llc == "base-victim")?;
        let metered = self
            .end_to_end
            .iter()
            .find(|e| e.llc == SERVE_METRICS_ROW)?;
        Some((plain.insts_per_sec / metered.insts_per_sec.max(f64::MIN_POSITIVE) - 1.0) * 100.0)
    }

    /// Serializes to the `BENCH.json` schema (one pretty-stable JSON
    /// object; round-trips through [`bv_runner::json::parse`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|k| {
                ObjWriter::new()
                    .str("kernel", &k.kernel)
                    .str("impl", &k.implementation)
                    .f64("lines_per_sec", k.lines_per_sec)
                    .u64("segment_checksum", k.segment_checksum)
                    .finish()
            })
            .collect();
        let end_to_end: Vec<String> = self
            .end_to_end
            .iter()
            .map(|e| {
                ObjWriter::new()
                    .str("llc", &e.llc)
                    .f64("insts_per_sec", e.insts_per_sec)
                    .finish()
            })
            .collect();
        let mut root = ObjWriter::new();
        root.str("schema", SCHEMA)
            .raw("kernels", &format!("[{}]", kernels.join(",")))
            .raw("end_to_end", &format!("[{}]", end_to_end.join(",")));
        root.finish()
    }

    /// Parses a report previously written by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema violation.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema field")?;
        if schema != SCHEMA && schema != SCHEMA_V1 {
            return Err(format!(
                "unsupported schema '{schema}' (want '{SCHEMA}' or '{SCHEMA_V1}')"
            ));
        }
        let kernels = v
            .get("kernels")
            .and_then(Value::as_arr)
            .ok_or("missing kernels array")?
            .iter()
            .map(|k| {
                Ok(KernelBench {
                    kernel: k.req_str("kernel")?.to_string(),
                    implementation: k.req_str("impl")?.to_string(),
                    lines_per_sec: k.req_f64("lines_per_sec")?,
                    segment_checksum: k
                        .get("segment_checksum")
                        .and_then(Value::as_u64)
                        .ok_or("missing segment_checksum")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let end_to_end = v
            .get("end_to_end")
            .and_then(Value::as_arr)
            .ok_or("missing end_to_end array")?
            .iter()
            .map(|e| {
                Ok(EndToEndBench {
                    llc: e.req_str("llc")?.to_string(),
                    insts_per_sec: e.req_f64("insts_per_sec")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport {
            kernels,
            end_to_end,
        })
    }
}

/// Compares a fresh report against a committed baseline. Returns one
/// message per regression: a throughput figure present in the baseline
/// that dropped by more than `max_regress_pct` percent, or that vanished
/// from the current report. Only optimized-kernel and end-to-end rows are
/// gated — the reference kernels exist as a yardstick, not a contract.
///
/// Additionally, when the current report carries both the plain
/// base-victim row and [`EVENTS_DISABLED_ROW`], their ratio is held to
/// [`EVENTS_DISABLED_MAX_PCT`] — an absolute bound independent of the
/// baseline, because the disabled event path is designed to be free.
#[must_use]
pub fn compare(current: &BenchReport, baseline: &BenchReport, max_regress_pct: f64) -> Vec<String> {
    let floor = 1.0 - max_regress_pct / 100.0;
    let mut regressions = Vec::new();
    if let Some(pct) = current.events_disabled_overhead_pct() {
        if pct > EVENTS_DISABLED_MAX_PCT {
            regressions.push(format!(
                "disabled event path costs {pct:.2}% of base-victim throughput \
                 (budget {EVENTS_DISABLED_MAX_PCT}%)"
            ));
        }
    }
    if let Some(pct) = current.serve_metrics_overhead_pct() {
        if pct > SERVE_METRICS_MAX_PCT {
            regressions.push(format!(
                "metric registry costs {pct:.2}% of the metrics-off job path \
                 (budget {SERVE_METRICS_MAX_PCT}%)"
            ));
        }
    }
    for base in &baseline.kernels {
        if base.implementation != IMPL_OPTIMIZED {
            continue;
        }
        match current.kernel(&base.kernel, &base.implementation) {
            None => regressions.push(format!(
                "kernel {}/{} missing from current report",
                base.kernel, base.implementation
            )),
            Some(cur) if cur.lines_per_sec < base.lines_per_sec * floor => {
                regressions.push(format!(
                    "kernel {}: {:.3e} lines/s is {:.1}% below baseline {:.3e}",
                    base.kernel,
                    cur.lines_per_sec,
                    (1.0 - cur.lines_per_sec / base.lines_per_sec) * 100.0,
                    base.lines_per_sec
                ));
            }
            Some(_) => {}
        }
    }
    for base in &baseline.end_to_end {
        match current.end_to_end.iter().find(|e| e.llc == base.llc) {
            None => regressions.push(format!(
                "end-to-end {} missing from current report",
                base.llc
            )),
            Some(cur) if cur.insts_per_sec < base.insts_per_sec * floor => {
                regressions.push(format!(
                    "end-to-end {}: {:.3e} insts/s is {:.1}% below baseline {:.3e}",
                    base.llc,
                    cur.insts_per_sec,
                    (1.0 - cur.insts_per_sec / base.insts_per_sec) * 100.0,
                    base.insts_per_sec
                ));
            }
            Some(_) => {}
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            kernels: vec![
                KernelBench {
                    kernel: "bdi".into(),
                    implementation: IMPL_OPTIMIZED.into(),
                    lines_per_sec: 1.5e8,
                    segment_checksum: 12345,
                },
                KernelBench {
                    kernel: "bdi".into(),
                    implementation: IMPL_REFERENCE.into(),
                    lines_per_sec: 5.0e7,
                    segment_checksum: 12345,
                },
            ],
            end_to_end: vec![EndToEndBench {
                llc: "base-victim".into(),
                insts_per_sec: 2.5e6,
            }],
        }
    }

    #[test]
    fn report_roundtrips_through_runner_json() {
        let report = sample_report();
        let text = report.to_json();
        // The schema must be readable by the journal's generic parser...
        let generic = json::parse(&text).expect("generic parse");
        assert_eq!(generic.get("schema").unwrap().as_str(), Some(SCHEMA));
        // ...and by the typed reader, losslessly.
        let back = BenchReport::from_json(&text).expect("typed parse");
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let text = sample_report().to_json().replace(SCHEMA, "other-v9");
        assert!(BenchReport::from_json(&text).is_err());
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn from_json_accepts_v1_reports() {
        // A committed v1 baseline (three end-to-end rows) must stay
        // readable after the v2 schema bump.
        let text = sample_report().to_json().replace(SCHEMA, SCHEMA_V1);
        let report = BenchReport::from_json(&text).expect("v1 parse");
        assert_eq!(report, sample_report());
    }

    #[test]
    fn speedup_is_optimized_over_reference() {
        let speedups = sample_report().kernel_speedups();
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].0, "bdi");
        assert!((speedups[0].1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let baseline = sample_report();
        let mut current = sample_report();
        assert!(compare(&current, &baseline, 20.0).is_empty());

        // A 10% dip is inside the 20% envelope.
        current.kernels[0].lines_per_sec = 1.35e8;
        assert!(compare(&current, &baseline, 20.0).is_empty());

        // A 30% dip is not.
        current.kernels[0].lines_per_sec = 1.05e8;
        let regressions = compare(&current, &baseline, 20.0);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("bdi"));

        // Reference-kernel rows are never gated.
        let mut current = sample_report();
        current.kernels[1].lines_per_sec = 1.0;
        assert!(compare(&current, &baseline, 20.0).is_empty());

        // A vanished end-to-end row is a regression.
        let mut current = sample_report();
        current.end_to_end.clear();
        assert_eq!(compare(&current, &baseline, 20.0).len(), 1);
    }

    #[test]
    fn tiny_kernel_suite_runs_and_checksums_agree() {
        let rows = run_kernel_suite(&BenchConfig::tiny());
        assert_eq!(rows.len(), 6, "three kernels, two implementations each");
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].kernel, pair[1].kernel);
            assert_eq!(pair[0].implementation, IMPL_OPTIMIZED);
            assert_eq!(pair[1].implementation, IMPL_REFERENCE);
            assert_eq!(pair[0].segment_checksum, pair[1].segment_checksum);
            assert!(pair[0].lines_per_sec > 0.0);
        }
    }

    #[test]
    fn tiny_microbench_suites_run_and_checksums_agree() {
        for rows in [
            run_probe_suite(&BenchConfig::tiny()),
            run_decode_suite(&BenchConfig::tiny()),
        ] {
            assert_eq!(rows.len(), 2, "optimized + reference");
            assert_eq!(rows[0].kernel, rows[1].kernel);
            assert_eq!(rows[0].implementation, IMPL_OPTIMIZED);
            assert_eq!(rows[1].implementation, IMPL_REFERENCE);
            assert_eq!(rows[0].segment_checksum, rows[1].segment_checksum);
            assert!(rows[0].lines_per_sec > 0.0);
            assert!(rows[1].lines_per_sec > 0.0);
        }
    }

    #[test]
    fn events_disabled_row_is_gated() {
        let mut report = sample_report();
        assert_eq!(report.events_disabled_overhead_pct(), None, "row absent");
        report.end_to_end.push(EndToEndBench {
            llc: EVENTS_DISABLED_ROW.into(),
            insts_per_sec: 2.49e6,
        });
        let pct = report.events_disabled_overhead_pct().expect("both rows");
        assert!((pct - (2.5 / 2.49 - 1.0) * 100.0).abs() < 1e-9);
        // Within budget: no regression even against an empty baseline row
        // set for this label.
        let baseline = sample_report();
        assert!(compare(&report, &baseline, 20.0).is_empty());

        // A disabled-path cost past EVENTS_DISABLED_MAX_PCT trips the
        // absolute gate regardless of the baseline.
        report.end_to_end.last_mut().unwrap().insts_per_sec = 2.3e6;
        let regressions = compare(&report, &baseline, 20.0);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(
            regressions[0].contains("disabled event path"),
            "{}",
            regressions[0]
        );
    }

    #[test]
    fn serve_metrics_row_is_gated() {
        let mut report = sample_report();
        assert_eq!(report.serve_metrics_overhead_pct(), None, "row absent");
        report.end_to_end.push(EndToEndBench {
            llc: SERVE_METRICS_ROW.into(),
            insts_per_sec: 2.49e6,
        });
        let pct = report.serve_metrics_overhead_pct().expect("both rows");
        assert!((pct - (2.5 / 2.49 - 1.0) * 100.0).abs() < 1e-9);
        // ~0.4% is inside the 2% budget, even with no baseline row.
        let baseline = sample_report();
        assert!(compare(&report, &baseline, 20.0).is_empty());

        // A 4% registry cost trips the absolute gate.
        report.end_to_end.last_mut().unwrap().insts_per_sec = 2.4e6;
        let regressions = compare(&report, &baseline, 20.0);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(
            regressions[0].contains("metric registry"),
            "{}",
            regressions[0]
        );
    }

    #[test]
    fn telemetry_overhead_pct_reads_both_rows() {
        let mut report = sample_report();
        assert_eq!(report.telemetry_overhead_pct(), None, "row absent");
        report.end_to_end.push(EndToEndBench {
            llc: TELEMETRY_ROW.into(),
            insts_per_sec: 2.45e6,
        });
        let pct = report.telemetry_overhead_pct().expect("both rows present");
        assert!((pct - (2.5 / 2.45 - 1.0) * 100.0).abs() < 1e-9);
    }

    /// One interleaved overhead measurement: alternating plain/sampled
    /// runs so both sides see the same machine conditions, best-of-N on
    /// each side so transient stalls drop out of the ratio. Every run
    /// decodes inline: whether a run gets a helper thread depends on the
    /// cores that other tests' runs hold at that moment, so otherwise one
    /// side could get it and the other not.
    fn measure_telemetry_overhead_pct(iterations: usize) -> f64 {
        use std::time::Instant;
        let _inline = bv_sim::inline_feed();
        let registry = TraceRegistry::paper_default();
        let trace = registry.get(END_TO_END_TRACE).expect("trace");
        let mut plain = f64::MAX;
        let mut sampled = f64::MAX;
        for _ in 0..iterations {
            let t = Instant::now();
            let r = System::new(SimConfig::single_thread(LlcKind::BaseVictim)).run_with_warmup(
                &trace.workload,
                50_000,
                200_000,
            );
            plain = plain.min(t.elapsed().as_secs_f64());
            std::hint::black_box(r.cycles);

            let t = Instant::now();
            let mut tel = SimTelemetry::new(DEFAULT_EPOCH_INSTS);
            let r = System::new(SimConfig::single_thread(LlcKind::BaseVictim)).run_sampled(
                &trace.workload,
                50_000,
                200_000,
                &mut tel,
            );
            sampled = sampled.min(t.elapsed().as_secs_f64());
            std::hint::black_box(r.cycles);
        }
        (sampled / plain - 1.0) * 100.0
    }

    #[test]
    fn telemetry_overhead_stays_within_five_percent() {
        // The acceptance bound for the instrumentation layer: sampling at
        // the default 100k-instruction epoch must cost under 5% of
        // end-to-end throughput. On a shared machine a single measurement
        // can be swamped by scheduler noise, so the gate takes the best
        // of up to three measurements: a genuine regression fails all
        // three, while a noise spike passes on retry.
        let mut best = f64::MAX;
        for _ in 0..3 {
            best = best.min(measure_telemetry_overhead_pct(10));
            if best < 5.0 {
                return;
            }
        }
        panic!("telemetry overhead {best:.2}% exceeds the 5% budget in all attempts");
    }

    #[test]
    fn corpus_is_deterministic_and_mixed() {
        let a = corpus(64);
        let b = corpus(64);
        assert_eq!(a, b);
        // The corpus must contain both highly compressible and
        // incompressible lines, or the bench exercises only one path.
        let bdi = Bdi::new();
        let sizes: Vec<u8> = a.iter().map(|l| bdi.compressed_size(l).get()).collect();
        assert!(sizes.contains(&1));
        assert!(sizes.contains(&16));
    }
}
