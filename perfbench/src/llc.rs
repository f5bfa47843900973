//! `llc-demand`: single-core simulation jobs through
//! `System::run_instrumented`, and the layer ledger of the same jobs.
//!
//! The traced ledger records each layer boundary once and replays every
//! layer alone over its recorded input:
//!
//! * trace decode — `EventBatch::next` over the job's event stream;
//! * the hierarchy — `Hierarchy::access_on` over the decoded events,
//!   with the LLC wrapped in a recording [`LlcOrganization`];
//! * the LLC organization — its recorded call stream, replayed into a
//!   fresh organization with a scripted [`InclusionAgent`];
//! * DRAM — the recorded miss and writeback stream into a standalone
//!   [`Dram`];
//! * BDI — the recorded fill and writeback data through
//!   `Bdi::compressed_size`;
//! * the core model — `CoreModel::work/account` over the recorded
//!   access outcomes.
//!
//! Each replay must reproduce the untraced run's counters exactly, or it
//! counts as a failed operation.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bv_cache::{CacheGeometry, LineAddr};
use bv_compress::{Bdi, CacheLine, CompressionStats, Compressor as _, SegmentCount};
use bv_core::{InclusionAgent, LlcOrganization, LlcStats, OpOutcome, ReadOutcome};
use bv_sim::{CoreModel, Dram, EventBatch, Hierarchy, Instrument, LevelHit, LlcKind, SimConfig};
use bv_sim::{DramStats, RunResult, System};
use bv_trace::synth::WorkloadSpec;
use bv_trace::{TraceEvent, TraceRegistry};

use crate::stats::{median, mix, ms, push_latency, reps_for, time_reps, HostProbe, Report};

/// LLC-sensitive registry traces: two that compress well and one that
/// does not (it runs compression but almost never packs a victim).
pub const TRACES: [&str; 3] = [
    "specint.mcf.07",
    "productivity.winrar.04",
    "client.speech.13",
];

/// The organizations every trace runs on. Uncompressed comes first: it
/// is the reference the base-victim guarantee is checked against.
pub const ORGS: [LlcKind; 5] = [
    LlcKind::Uncompressed,
    LlcKind::BaseVictim,
    LlcKind::TwoTag,
    LlcKind::Vsc,
    LlcKind::Dcc,
];

/// A short warm-up leaves most of a run measured; the LLC keeps filling
/// in the measured phase, as it does in a sweep's short jobs.
const WARMUP: u64 = 500_000;
/// Short measured phases give many rounds per run, so every job samples
/// the host's slow and fast phases alike.
const MEASURED: u64 = 1_500_000;
/// Simulated instructions per latency sample, about 150 ms of host time.
const CHUNK: u64 = 750_000;
/// Budgets of the untimed warm pass that runs before timing starts.
const WARM_PASS: (u64, u64) = (200_000, 400_000);
/// Host seconds one round of 15 jobs takes on the reference host
/// (2 vCPU x86-64, see NOTES.md); fixes how many rounds a run does.
const ROUND_NOMINAL_S: f64 = 6.0;

fn cfg(org: LlcKind) -> SimConfig {
    SimConfig::single_thread(org)
}

/// The job's workload: the registry trace with the benchmark seed and
/// round mixed into its generator seed.
fn seeded(spec: &WorkloadSpec, seed: u64, round: u64) -> WorkloadSpec {
    let mut w = spec.clone();
    w.seed ^= mix(seed ^ mix(round));
    w
}

fn registry_workloads() -> Vec<(&'static str, WorkloadSpec)> {
    let registry = TraceRegistry::paper_default();
    TRACES
        .iter()
        .map(|&name| {
            let spec = registry
                .get(name)
                .unwrap_or_else(|| panic!("trace {name} is in the registry"));
            (name, spec.workload.clone())
        })
        .collect()
}

/// Timestamps the measured phase at `Instrument` boundaries: one sample
/// per [`CHUNK`] simulated instructions.
struct ChunkClock {
    next: u64,
    begin: Instant,
    last: Instant,
    end: Instant,
    samples_ms: Vec<f64>,
}

impl ChunkClock {
    fn new() -> ChunkClock {
        let now = Instant::now();
        ChunkClock {
            next: u64::MAX,
            begin: now,
            last: now,
            end: now,
            samples_ms: Vec::new(),
        }
    }
}

impl Instrument for ChunkClock {
    fn begin(&mut self, insts: u64, _cycles: u64, _h: &Hierarchy) {
        self.begin = Instant::now();
        self.last = self.begin;
        self.next = insts + CHUNK;
    }

    fn next_boundary(&self) -> u64 {
        self.next
    }

    fn sample(&mut self, _insts: u64, _cycles: u64, _h: &Hierarchy) {
        let now = Instant::now();
        self.samples_ms.push(ms(now - self.last));
        self.last = now;
        self.next += CHUNK;
    }

    fn finish(&mut self, _insts: u64, _cycles: u64, _h: &Hierarchy) {
        self.end = Instant::now();
    }
}

/// The base-victim guarantee on one trace: Baseline hits equal the
/// uncompressed cache's hits, and DRAM reads never rise.
fn check_guarantee(report: &mut Report, trace: &str, unc: &RunResult, bv: &RunResult) {
    report.check(bv.llc.base_hits == unc.llc.read_hits(), || {
        format!(
            "{trace}: base-victim base hits {} != uncompressed hits {}",
            bv.llc.base_hits,
            unc.llc.read_hits()
        )
    });
    report.check(bv.dram.reads <= unc.dram.reads, || {
        format!(
            "{trace}: base-victim DRAM reads {} > uncompressed {}",
            bv.dram.reads, unc.dram.reads
        )
    });
}

fn print_counters(trace: &str, r: &RunResult) {
    println!(
        "counters: {trace} {:<12} ipc={:.6} base_hits={} victim_hits={} dram_reads={}",
        r.llc_name,
        r.ipc(),
        r.llc.base_hits,
        r.llc.victim_hits,
        r.dram.reads
    );
}

/// The untraced run: end-to-end metrics only.
pub fn run(seed: u64, seconds: u64, probe: &mut HostProbe) -> Report {
    let mut report = Report::default();
    let t_setup = Instant::now();
    let workloads = registry_workloads();
    for org in ORGS {
        let w = seeded(&workloads[0].1, seed, u64::MAX);
        black_box(System::new(cfg(org)).run_with_warmup(&w, WARM_PASS.0, WARM_PASS.1));
    }
    let mut setup = t_setup.elapsed();

    let rounds = ((seconds as f64 / ROUND_NOMINAL_S).round() as u64).max(1);
    let mut measured = Duration::ZERO;
    let mut insts = 0u64;
    let mut chunks_ms = Vec::new();
    for round in 0..rounds {
        for (trace, spec) in &workloads {
            let w = seeded(spec, seed, round);
            let mut results = Vec::with_capacity(ORGS.len());
            for org in ORGS {
                probe.calibrate();
                let mut clock = ChunkClock::new();
                let t0 = Instant::now();
                let r = System::new(cfg(org)).run_instrumented(&w, WARMUP, MEASURED, &mut clock);
                setup += clock.begin - t0;
                measured += clock.end - clock.begin;
                chunks_ms.extend_from_slice(&clock.samples_ms);
                insts += r.instructions;
                report.check(r.instructions >= MEASURED, || {
                    format!(
                        "{trace} {}: only {} instructions",
                        r.llc_name, r.instructions
                    )
                });
                if round == 0 {
                    print_counters(trace, &r);
                }
                results.push(r);
            }
            check_guarantee(&mut report, trace, &results[0], &results[1]);
        }
    }
    println!(
        "llc-demand: {rounds} rounds, {} jobs, {insts} measured instructions",
        rounds as usize * TRACES.len() * ORGS.len()
    );
    report.push(
        "throughput_per_s",
        insts as f64 / measured.as_secs_f64(),
        "1/s",
    );
    push_latency(&mut report, "750k-instruction chunk", &chunks_ms);
    report.push("setup_s", setup.as_secs_f64(), "s");
    report
}

// ---------------------------------------------------------------------
// Traced run: record once, replay each layer alone.

/// One call into the LLC, as the hierarchy made it.
#[derive(Clone, Copy)]
enum Call {
    Read(LineAddr),
    Writeback(LineAddr, CacheLine),
    Fill(LineAddr, CacheLine),
    Prefetch(LineAddr, CacheLine),
    Hint(LineAddr),
    Peek(LineAddr),
}

/// One DRAM transfer the hierarchy issued, derived from the LLC calls'
/// outcomes exactly as `Hierarchy` derives them.
#[derive(Clone, Copy)]
enum DramOp {
    Write(u64, u64),
    Read(u64, u64),
    Demand(u64, u64),
}

#[derive(Default)]
struct Log {
    /// Core cycle of the access in flight, set by the driver.
    now: u64,
    llc_latency: u64,
    calls: Vec<Call>,
    /// Back-invalidation requests and the answers the inner caches gave.
    answers: Vec<(LineAddr, Option<CacheLine>)>,
    dram: Vec<DramOp>,
    /// Data of every call that added a line to the compression
    /// histogram, in call order.
    compressed: Vec<CacheLine>,
    /// Calls that added more than one line to the histogram.
    anomalies: u64,
}

impl Log {
    fn writes(&mut self, addr: LineAddr, effects_writes: u64) {
        for _ in 0..effects_writes {
            self.dram.push(DramOp::Write(self.now, addr.byte_addr()));
        }
    }
}

/// Records every call the hierarchy makes into the organization it
/// wraps, plus the answers of the inner caches.
struct Recorder {
    inner: Box<dyn LlcOrganization>,
    log: Rc<RefCell<Log>>,
}

struct RecordingAgent<'a> {
    inner: &'a mut dyn InclusionAgent,
    answers: &'a mut Vec<(LineAddr, Option<CacheLine>)>,
}

impl InclusionAgent for RecordingAgent<'_> {
    fn back_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let answer = self.inner.back_invalidate(addr);
        self.answers.push((addr, answer));
        answer
    }
}

impl Recorder {
    /// Runs one inner call with a recording agent, and records the data
    /// if the call added a line to the compression histogram.
    fn with_agent<T>(
        &mut self,
        inner: &mut dyn InclusionAgent,
        data: Option<CacheLine>,
        call: impl FnOnce(&mut dyn LlcOrganization, &mut dyn InclusionAgent) -> T,
    ) -> T {
        let mut answers = std::mem::take(&mut self.log.borrow_mut().answers);
        let before = self.inner.compression_stats().lines();
        let out = {
            let mut agent = RecordingAgent {
                inner,
                answers: &mut answers,
            };
            call(self.inner.as_mut(), &mut agent)
        };
        let added = self.inner.compression_stats().lines() - before;
        let mut log = self.log.borrow_mut();
        log.answers = answers;
        match (added, data) {
            (0, _) => {}
            (1, Some(line)) => log.compressed.push(line),
            _ => log.anomalies += 1,
        }
        out
    }
}

impl LlcOrganization for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }
    fn contains(&self, addr: LineAddr) -> bool {
        self.inner.contains(addr)
    }
    fn read(&mut self, addr: LineAddr, inner: &mut dyn InclusionAgent) -> ReadOutcome {
        self.log.borrow_mut().calls.push(Call::Read(addr));
        let out = self.with_agent(inner, None, |org, agent| org.read(addr, agent));
        let mut log = self.log.borrow_mut();
        log.writes(addr, out.effects.memory_writes);
        if !out.kind.is_hit() {
            let issue = log.now + log.llc_latency;
            log.dram.push(DramOp::Demand(issue, addr.byte_addr()));
        }
        out
    }
    fn writeback(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        // The hierarchy sends no DRAM traffic for writeback outcomes.
        self.log
            .borrow_mut()
            .calls
            .push(Call::Writeback(addr, data));
        self.with_agent(inner, Some(data), |org, agent| {
            org.writeback(addr, data, agent)
        })
    }
    fn fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        self.log.borrow_mut().calls.push(Call::Fill(addr, data));
        let out = self.with_agent(inner, Some(data), |org, agent| org.fill(addr, data, agent));
        self.log
            .borrow_mut()
            .writes(addr, out.effects.memory_writes);
        out
    }
    fn prefetch_fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> Option<OpOutcome> {
        self.log.borrow_mut().calls.push(Call::Prefetch(addr, data));
        let fills_before = self.inner.stats().prefetch_fills;
        let out = self.with_agent(inner, Some(data), |org, agent| {
            org.prefetch_fill(addr, data, agent)
        });
        let mut log = self.log.borrow_mut();
        if let Some(o) = out {
            log.writes(addr, o.effects.memory_writes);
        }
        if self.inner.stats().prefetch_fills > fills_before {
            let now = log.now;
            log.dram.push(DramOp::Read(now, addr.byte_addr()));
        }
        out
    }
    fn peek_data(&self, addr: LineAddr) -> Option<CacheLine> {
        self.log.borrow_mut().calls.push(Call::Peek(addr));
        self.inner.peek_data(addr)
    }
    fn hint_downgrade(&mut self, addr: LineAddr) {
        self.log.borrow_mut().calls.push(Call::Hint(addr));
        self.inner.hint_downgrade(addr);
    }
    fn stats(&self) -> &LlcStats {
        self.inner.stats()
    }
    fn compression_stats(&self) -> &CompressionStats {
        self.inner.compression_stats()
    }
    fn tag_latency_penalty(&self) -> u32 {
        self.inner.tag_latency_penalty()
    }
    fn decompression_latency(&self, size: SegmentCount) -> u32 {
        self.inner.decompression_latency(size)
    }
    fn resident_lines(&self) -> Vec<LineAddr> {
        self.inner.resident_lines()
    }
}

/// Answers back-invalidations from the recorded script, counting any
/// request that differs from the recorded one.
struct ScriptedAgent<'a> {
    answers: &'a [(LineAddr, Option<CacheLine>)],
    pos: usize,
    mismatches: u64,
}

impl InclusionAgent for ScriptedAgent<'_> {
    fn back_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let Some(&(want, answer)) = self.answers.get(self.pos) else {
            self.mismatches += 1;
            return None;
        };
        self.pos += 1;
        if want != addr {
            self.mismatches += 1;
        }
        answer
    }
}

/// Replays a recorded call stream into `org`; returns how many
/// back-invalidations differed from the script.
fn replay_llc(
    org: &mut dyn LlcOrganization,
    calls: &[Call],
    answers: &[(LineAddr, Option<CacheLine>)],
) -> u64 {
    let mut agent = ScriptedAgent {
        answers,
        pos: 0,
        mismatches: 0,
    };
    for call in calls {
        match *call {
            Call::Read(a) => {
                black_box(org.read(a, &mut agent));
            }
            Call::Writeback(a, d) => {
                black_box(org.writeback(a, d, &mut agent));
            }
            Call::Fill(a, d) => {
                black_box(org.fill(a, d, &mut agent));
            }
            Call::Prefetch(a, d) => {
                black_box(org.prefetch_fill(a, d, &mut agent));
            }
            Call::Hint(a) => org.hint_downgrade(a),
            Call::Peek(a) => {
                black_box(org.peek_data(a));
            }
        }
    }
    agent.mismatches + (answers.len() - agent.pos) as u64
}

fn replay_dram(dram: &mut Dram, ops: &[DramOp]) {
    for op in ops {
        black_box(match *op {
            DramOp::Write(now, a) => dram.access(now, a, true),
            DramOp::Read(now, a) => dram.access(now, a, false),
            DramOp::Demand(now, a) => dram.demand_access(now, a),
        });
    }
}

fn bdi_histogram(lines: &[CacheLine]) -> CompressionStats {
    let bdi = Bdi::new();
    let mut stats = CompressionStats::new();
    for line in lines {
        stats.record(bdi.compressed_size(line));
    }
    stats
}

/// Host seconds of each layer of one job, and its work counts.
#[derive(Default)]
struct Ledger {
    e2e_s: f64,
    record_s: f64,
    decode_s: f64,
    commit_s: f64,
    hierarchy_s: f64,
    llc_s: f64,
    dram_s: f64,
    bdi_s: f64,
    core_s: f64,
    events: u64,
    insts: u64,
    llc_calls: u64,
    dram_ops: u64,
    l1_hits: u64,
    bdi_lines: u64,
    bdi_half: u64,
    dram_stats: DramStats,
    llc_stats: LlcStats,
}

/// Records one job and replays every layer alone; every replay is
/// checked against the untraced run.
fn trace_job(report: &mut Report, trace: &str, w: &WorkloadSpec, org: LlcKind) -> Ledger {
    let cfg = cfg(org);
    let mut lg = Ledger::default();

    // The untraced reference: median host time of three identical runs.
    let mut e2e = Vec::new();
    let mut reference = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = System::new(cfg).run_with_warmup(w, WARMUP, MEASURED);
        e2e.push(t.elapsed().as_secs_f64());
        reference = Some(r);
    }
    let reference = reference.expect("three reference runs");
    lg.e2e_s = median(&e2e);

    // Record: decode into memory, drive the hierarchy with a recording
    // LLC, and keep each access's cycle and outcome.
    let t_record = Instant::now();
    let mut gen = w.generator();
    let mut batch = EventBatch::new();
    let log = Rc::new(RefCell::new(Log {
        llc_latency: u64::from(cfg.core.llc_latency),
        ..Log::default()
    }));
    let recorder = Recorder {
        inner: cfg.llc_kind.build(cfg.llc, cfg.llc_policy),
        log: Rc::clone(&log),
    };
    let mut h = Hierarchy::with_llc(cfg, 1, Box::new(recorder));
    let mut core = CoreModel::new(cfg.core);
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut nows = Vec::new();
    let mut outcomes = Vec::new();
    // Warmup ends, as in `System::run_with_warmup`, at the first event
    // that reaches WARMUP instructions; (events, instructions, cycles).
    let mut warm: Option<(usize, u64, u64)> = None;
    let mut level_hits = [0u64; 5];
    loop {
        if warm.is_none() && core.instructions() >= WARMUP {
            warm = Some((events.len(), core.instructions(), core.cycles()));
        }
        if let Some((_, warm_insts, _)) = warm {
            if core.instructions() >= warm_insts + MEASURED {
                break;
            }
        }
        let ev = batch.next(&mut gen);
        core.work(ev.instructions());
        let now = core.cycles();
        log.borrow_mut().now = now;
        let out = h.access_on(0, &ev, now, &gen);
        core.account(&ev, &out);
        if warm.is_some() {
            level_hits[level_index(out.level)] += 1;
        }
        events.push(ev);
        nows.push(now);
        outcomes.push(out);
    }
    let (n_warm, warm_insts, warm_cycles) = warm.expect("the loop ends after warmup");
    lg.record_s = t_record.elapsed().as_secs_f64();
    let final_cycles = core.cycles();
    let rec_llc_full = *h.uncore().llc().stats();
    let rec_comp_full = h.uncore().llc().compression_stats().clone();
    let rec_dram_full = *h.uncore().dram().stats();
    drop(h);
    let log = Rc::try_unwrap(log)
        .ok()
        .expect("the hierarchy released the log")
        .into_inner();
    lg.events = events.len() as u64;
    lg.insts = core.instructions();
    lg.llc_calls = log.calls.len() as u64;
    lg.dram_ops = log.dram.len() as u64;
    lg.l1_hits = outcomes.iter().filter(|o| o.level == LevelHit::L1).count() as u64;
    let name = reference.llc_name;

    // Each layer below runs one checked pass over its recorded input,
    // which also sets how many repetitions fill one timed interval; the
    // timed repetitions then run over prebuilt fresh state.

    // Decode alone: EventBatch::next over the same stream.
    let decode_pass = |check: bool| {
        let mut gen = w.generator();
        let mut batch = EventBatch::new();
        let mut same = true;
        for ev in &events {
            let decoded = batch.next(&mut gen);
            same &= !check || decoded == *ev;
            black_box(decoded);
        }
        same
    };
    let t = Instant::now();
    let same = decode_pass(true);
    report.check(same, || format!("{trace} {name}: decode replay differs"));
    lg.decode_s = time_reps(reps_for(t.elapsed().as_secs_f64()), |_| {
        decode_pass(false);
    });

    // Commit alone: the per-store epoch bump the hierarchy replay needs
    // to reproduce `line_data`; subtracted from the hierarchy time.
    let commit_pass = || {
        let mut gen = w.generator();
        for ev in &events {
            gen.commit(ev);
        }
        black_box(gen);
    };
    let probe = time_reps(1, |_| commit_pass());
    lg.commit_s = time_reps(reps_for(probe), |_| commit_pass());

    // Hierarchy over the recorded events and cycles, with the plain LLC.
    let mut h = Hierarchy::new(cfg, 1);
    let mut gen = w.generator();
    let mut snap = None;
    let mut same_outcomes = true;
    let t = Instant::now();
    for (i, (ev, recorded)) in events.iter().zip(&outcomes).enumerate() {
        if i == n_warm {
            snap = Some((
                *h.uncore().llc().stats(),
                h.uncore().llc().compression_stats().clone(),
                *h.uncore().dram().stats(),
            ));
        }
        gen.commit(ev);
        let out = h.access_on(0, ev, nows[i], &gen);
        same_outcomes &= out.level == recorded.level && out.latency == recorded.latency;
    }
    let probe = t.elapsed().as_secs_f64();
    let (llc_snap, comp_snap, dram_snap) = snap.expect("warmup ends inside the stream");
    let replayed = RunResult {
        llc_name: h.uncore().llc().name(),
        instructions: lg.insts - warm_insts,
        cycles: final_cycles - warm_cycles,
        llc: h.uncore().llc().stats().since(&llc_snap),
        compression: h.uncore().llc().compression_stats().since(&comp_snap),
        dram: h.uncore().dram().stats().since(&dram_snap),
        level_hits,
    };
    report.check(same_outcomes && replayed == reference, || {
        format!("{trace} {name}: hierarchy replay differs from the untraced run")
    });
    report.check(
        rec_llc_full == *h.uncore().llc().stats() && rec_dram_full == *h.uncore().dram().stats(),
        || format!("{trace} {name}: recording changed the simulation"),
    );
    drop(h);
    let mut fresh: Vec<_> = (0..reps_for(probe))
        .map(|_| (Hierarchy::new(cfg, 1), w.generator()))
        .collect();
    lg.hierarchy_s = time_reps(fresh.len(), |r| {
        let (h, gen) = &mut fresh[r];
        for (ev, &now) in events.iter().zip(&nows) {
            gen.commit(ev);
            black_box(h.access_on(0, ev, now, gen));
        }
    });
    drop(fresh);

    // The organization alone over its recorded calls.
    let build = || cfg.llc_kind.build(cfg.llc, cfg.llc_policy);
    let mut org = build();
    let t = Instant::now();
    let mismatches = replay_llc(org.as_mut(), &log.calls, &log.answers);
    let probe = t.elapsed().as_secs_f64();
    report.check(
        mismatches == 0
            && *org.stats() == rec_llc_full
            && *org.compression_stats() == rec_comp_full,
        || format!("{trace} {name}: LLC replay differs ({mismatches} script mismatches)"),
    );
    lg.llc_stats = reference.llc;
    let mut orgs: Vec<_> = (0..reps_for(probe)).map(|_| build()).collect();
    lg.llc_s = time_reps(orgs.len(), |r| {
        replay_llc(orgs[r].as_mut(), &log.calls, &log.answers);
    });

    // DRAM alone over the derived transfer stream.
    let mut dram = Dram::new(cfg.dram);
    let t = Instant::now();
    replay_dram(&mut dram, &log.dram);
    let probe = t.elapsed().as_secs_f64();
    report.check(*dram.stats() == rec_dram_full, || {
        format!("{trace} {name}: DRAM replay differs")
    });
    lg.dram_stats = rec_dram_full;
    let reps = reps_for(probe);
    let mut drams: Vec<_> = (0..reps).map(|_| Dram::new(cfg.dram)).collect();
    lg.dram_s = time_reps(reps, |r| replay_dram(&mut drams[r], &log.dram));

    // BDI alone over the lines the organization compressed.
    let t = Instant::now();
    let hist = bdi_histogram(&log.compressed);
    let probe = t.elapsed().as_secs_f64();
    report.check(log.anomalies == 0 && hist == rec_comp_full, || {
        format!(
            "{trace} {name}: BDI replay histogram differs ({} anomalous calls)",
            log.anomalies
        )
    });
    lg.bdi_lines = log.compressed.len() as u64;
    lg.bdi_half = (hist.half_line_fraction() * hist.lines() as f64).round() as u64;
    lg.bdi_s = time_reps(reps_for(probe), |_| {
        black_box(bdi_histogram(&log.compressed));
    });

    // The core model alone over the recorded outcomes.
    let core_pass = || {
        let mut core = CoreModel::new(cfg.core);
        for (ev, out) in events.iter().zip(&outcomes) {
            core.work(ev.instructions());
            core.account(ev, out);
        }
        core.cycles()
    };
    let t = Instant::now();
    let cycles = core_pass();
    let probe = t.elapsed().as_secs_f64();
    report.check(cycles == final_cycles, || {
        format!("{trace} {name}: core-model replay differs")
    });
    lg.core_s = time_reps(reps_for(probe), |_| {
        black_box(core_pass());
    });
    lg
}

fn level_index(level: LevelHit) -> usize {
    match level {
        LevelHit::L1 => 0,
        LevelHit::L2 => 1,
        LevelHit::LlcBase => 2,
        LevelHit::LlcVictim => 3,
        LevelHit::Memory => 4,
    }
}

/// The traced run: per-layer metrics of one job per organization.
pub fn trace(report: &mut Report, seed: u64) {
    let workloads = registry_workloads();
    let (trace, spec) = &workloads[0];
    let w = seeded(spec, seed, 0);
    let mut all = Vec::new();
    for org in ORGS {
        let lg = trace_job(report, trace, &w, org);
        let name = org.name();
        let kinst = lg.insts as f64 / 1e3;
        report.push(
            format!("core.{name}.ns_per_call"),
            lg.llc_s * 1e9 / lg.llc_calls as f64,
            "ns",
        );
        report.push(
            format!("core.{name}.calls_per_kinst"),
            lg.llc_calls as f64 / kinst,
            "count",
        );
        if org == LlcKind::BaseVictim {
            report.push(
                "core.base-victim.victim_hits_per_insert",
                lg.llc_stats.victim_hits as f64 / lg.llc_stats.victim_inserts.max(1) as f64,
                "ratio",
            );
        }
        all.push(lg);
    }
    let sum = |f: fn(&Ledger) -> f64| all.iter().map(f).sum::<f64>();
    let events = sum(|l| l.events as f64);
    let insts = sum(|l| l.insts as f64);
    let l1l2 = sum(|l| l.hierarchy_s - l.commit_s - l.llc_s - l.dram_s);
    report.push(
        "trace.decode_ns_per_event",
        sum(|l| l.decode_s) * 1e9 / events,
        "ns",
    );
    report.push("cache.l1l2_self_ns_per_event", l1l2 * 1e9 / events, "ns");
    report.push(
        "cache.l1_hit_share",
        sum(|l| l.l1_hits as f64) / events,
        "ratio",
    );
    report.push(
        "compress.bdi_ns_per_line",
        sum(|l| l.bdi_s) * 1e9 / sum(|l| l.bdi_lines as f64),
        "ns",
    );
    report.push(
        "compress.bdi_half_line_share",
        sum(|l| l.bdi_half as f64) / sum(|l| l.bdi_lines as f64),
        "ratio",
    );
    report.push(
        "sim.core_model_ns_per_event",
        sum(|l| l.core_s) * 1e9 / events,
        "ns",
    );
    report.push(
        "sim.dram_ns_per_access",
        sum(|l| l.dram_s) * 1e9 / sum(|l| l.dram_ops as f64),
        "ns",
    );
    report.push(
        "sim.dram_accesses_per_kinst",
        sum(|l| l.dram_ops as f64) * 1e3 / insts,
        "count",
    );
    let row_hits = sum(|l| l.dram_stats.row_hits as f64);
    let dram_total = sum(|l| l.dram_stats.accesses() as f64);
    report.push("sim.dram_row_hit_rate", row_hits / dram_total, "ratio");

    // The ledger: the layers that block the result, summed, against the
    // untraced host time of the same jobs.
    let layers = sum(|l| l.decode_s + l.hierarchy_s - l.commit_s + l.core_s);
    let e2e = sum(|l| l.e2e_s);
    println!(
        "ledger llc-demand ({trace}, {} orgs): decode {:.1} ms + l1/l2 self {:.1} ms + llc {:.1} ms \
         + dram {:.1} ms + core {:.1} ms = {:.1} ms vs untraced {:.1} ms",
        ORGS.len(),
        sum(|l| l.decode_s) * 1e3,
        l1l2 * 1e3,
        sum(|l| l.llc_s) * 1e3,
        sum(|l| l.dram_s) * 1e3,
        sum(|l| l.core_s) * 1e3,
        layers * 1e3,
        e2e * 1e3
    );
    report.push("ledger.llc-demand.sum_over_e2e", layers / e2e, "ratio");
    report.push(
        "ledger.llc-demand.trace_overhead_pct",
        (sum(|l| l.record_s) / e2e - 1.0) * 100.0,
        "%",
    );
}
