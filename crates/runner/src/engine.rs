//! The job engine: the one transport-free job core behind both front
//! ends. An in-process sweep ([`crate::Runner`]) and the serving daemon
//! (`bv-serve`) submit tickets to it and read results back.
//!
//! Jobs are keyed by [`JobSpec::stable_hash`]. A submission opens a
//! ticket and, per job, adopts an entry another ticket holds (the job
//! simulates once for both), loads it from the journal (when resuming),
//! or enqueues it. Workers claim from one FIFO queue under the state
//! mutex, simulate with the lock released, publish the row to every
//! subscribed ticket, and then journal it. Every claim carries a token
//! `(worker, attempt)`: a monitor re-queues the job of a worker that
//! died or overran the timeout, with backoff, and a straggler whose
//! token is stale drops its result, so no configuration journals twice.
//! A job out of retries fails. Canceling a ticket drops its pending jobs
//! that no live ticket wants; running ones finish and are journaled.
//! DESIGN.md §5 describes the whole lifecycle.

use crate::job::JobSpec;
use crate::journal::{JobTiming, Journal};
use crate::json::ObjWriter;
use crate::spans::{Span, SpanLog};
use bv_metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
use bv_sim::{RunResult, SimTelemetry, System};
use bv_trace::synth::WorkloadSpec;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How an engine is started.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads.
    pub workers: usize,
    /// The checkpoint journal every simulated job is recorded in.
    pub journal: Option<Arc<Journal>>,
    /// Satisfy submitted jobs from journal checkpoints where they exist;
    /// when false the journal is write-only.
    pub resume: bool,
    /// A job running longer than this is presumed hung: it is re-queued
    /// and the eventual straggler result is dropped.
    pub timeout: Duration,
    /// Re-queues allowed per job after its first attempt.
    pub retries: u32,
    /// Record live metrics. When false the registry is inert: every
    /// record call is a no-op and snapshots are empty.
    pub metrics: bool,
    /// Epoch-sampled telemetry, `(dir, epoch_insts)`: every simulated
    /// job writes `<dir>/<hash>.telemetry.jsonl`.
    pub telemetry: Option<(PathBuf, u64)>,
}

/// One completed job, shaped like a `runs.jsonl` record plus the ticket
/// metadata (ticket, sequence, provenance).
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    /// The ticket this line belongs to.
    pub ticket: u64,
    /// Position within the ticket's stream (0-based, completion order).
    pub seq: u64,
    /// Registry trace name.
    pub trace: String,
    /// LLC organization name (as reported by the simulation).
    pub llc: String,
    /// Replacement policy name.
    pub policy: String,
    /// The job's 16-hex-digit stable hash (checkpoint identity).
    pub hash: String,
    /// Instructions per cycle.
    pub ipc: f64,
    /// LLC hit rate.
    pub llc_hit_rate: f64,
    /// Mean compression ratio.
    pub comp_ratio: f64,
    /// Measured instructions.
    pub instructions: u64,
    /// Simulation wall-clock seconds (0 for journal hits).
    pub wall_secs: f64,
    /// Worker that ran the job (0 for journal hits).
    pub worker: u64,
    /// 1-based attempt that succeeded (0 for journal hits).
    pub attempt: u64,
    /// `"simulated"` or `"journal"`.
    pub source: String,
    /// The engine's per-job correlation id. Stamped at submit, it
    /// follows the job through claim, simulation, the `runs.jsonl`
    /// journal line, and its span, so one id joins all four.
    pub trace_id: String,
}

impl ResultRow {
    /// Appends the row's fields to an object under construction (a
    /// protocol `result` line embeds them next to its envelope).
    pub fn write_fields(&self, w: &mut ObjWriter) {
        w.u64("ticket", self.ticket)
            .u64("seq", self.seq)
            .str("trace", &self.trace)
            .str("llc", &self.llc)
            .str("policy", &self.policy)
            .str("hash", &self.hash)
            .f64("ipc", self.ipc)
            .f64("llc_hit_rate", self.llc_hit_rate)
            .f64("comp_ratio", self.comp_ratio)
            .u64("instructions", self.instructions)
            .f64("wall_secs", self.wall_secs)
            .u64("worker", self.worker)
            .u64("attempt", self.attempt)
            .str("source", &self.source)
            .str("trace_id", &self.trace_id);
    }

    /// Renders the row as a bare JSON object line — no protocol
    /// envelope — shaped like the journal's `runs.jsonl` rows, so
    /// client-side `--out` files feed the same downstream consumers.
    #[must_use]
    pub fn to_jsonl_line(&self) -> String {
        let mut w = ObjWriter::new();
        self.write_fields(&mut w);
        w.finish()
    }
}

/// The terminal line of a ticket's result stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DoneSummary {
    /// The ticket that finished.
    pub ticket: u64,
    /// Unique jobs the ticket planned.
    pub jobs: u64,
    /// Rows of the ticket that a simulation produced.
    pub simulated: u64,
    /// Jobs satisfied from on-disk checkpoints at submit time.
    pub journaled: u64,
    /// Jobs merged with another ticket's identical work.
    pub merged: u64,
    /// Jobs that exhausted their retries.
    pub failed: u64,
    /// The ticket was canceled before completing.
    pub canceled: bool,
}

/// Engine-wide counters for `status`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusInfo {
    /// Worker slots ever started (replacements included).
    pub workers: u64,
    /// Worker slots currently alive.
    pub alive: u64,
    /// Jobs waiting in the queue (including backoff).
    pub pending: u64,
    /// Jobs claimed by a worker right now.
    pub running: u64,
    /// Jobs in the terminal done state.
    pub done: u64,
    /// Jobs in the terminal failed state.
    pub failed: u64,
    /// Tickets ever issued.
    pub tickets: u64,
    /// Worker threads that died and were replaced.
    pub crashes: u64,
    /// Job re-queues (after a crash or timeout).
    pub retries: u64,
    /// Jobs completed per worker slot, for utilization reporting.
    pub per_worker_done: Vec<u64>,
    /// p50 end-to-end job latency (queue wait + simulation) in ms,
    /// from the live `job_total_ms` histogram; 0 when no job has
    /// completed yet or metrics are disabled.
    pub p50_ms: u64,
    /// p95 end-to-end job latency in ms (see `p50_ms`).
    pub p95_ms: u64,
    /// p99 end-to-end job latency in ms (see `p50_ms`).
    pub p99_ms: u64,
}

/// A submission's acknowledgement: its ticket and how each job was
/// satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Submission {
    /// The ticket to wait on or cancel.
    pub ticket: u64,
    /// Jobs in the submission.
    pub jobs: u64,
    /// Newly enqueued.
    pub fresh: u64,
    /// Satisfied at once from the journal.
    pub journaled: u64,
    /// Shared with jobs an earlier ticket holds.
    pub merged: u64,
}

/// The engine's pre-registered metric handles. Everything recorded on
/// the job path goes through a handle resolved once here (or once per
/// worker), so the per-job cost is a few relaxed atomic RMWs.
struct Metrics {
    registry: Registry,
    queue_depth: Gauge,
    jobs_running: Gauge,
    workers_alive: Gauge,
    jobs_completed_simulated: Counter,
    jobs_completed_journal: Counter,
    jobs_failed: Counter,
    worker_crashes: Counter,
    job_retries: Counter,
    job_timeouts: Counter,
    tickets_opened: Counter,
    jobs_submitted_fresh: Counter,
    jobs_submitted_journal: Counter,
    jobs_submitted_merged: Counter,
    queue_wait_ms: Histogram,
    sim_ms: Histogram,
    journal_ms: Histogram,
    job_total_ms: Histogram,
}

impl Metrics {
    fn new(enabled: bool) -> Metrics {
        let registry = if enabled {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let counter = |name: &str| registry.counter(name, &[]);
        let completed =
            |source: &str| registry.counter("jobs_completed_total", &[("source", source)]);
        let submitted = |disposition: &str| {
            registry.counter("jobs_submitted_total", &[("disposition", disposition)])
        };
        let hist = |name: &str| registry.histogram(name, &[]);
        Metrics {
            queue_depth: registry.gauge("queue_depth", &[]),
            jobs_running: registry.gauge("jobs_running", &[]),
            workers_alive: registry.gauge("workers_alive", &[]),
            jobs_completed_simulated: completed("simulated"),
            jobs_completed_journal: completed("journal"),
            jobs_failed: counter("jobs_failed_total"),
            worker_crashes: counter("worker_crashes_total"),
            job_retries: counter("job_retries_total"),
            job_timeouts: counter("job_timeouts_total"),
            tickets_opened: counter("tickets_opened_total"),
            jobs_submitted_fresh: submitted("fresh"),
            jobs_submitted_journal: submitted("journal"),
            jobs_submitted_merged: submitted("merged"),
            queue_wait_ms: hist("job_queue_wait_ms"),
            sim_ms: hist("job_sim_ms"),
            journal_ms: hist("job_journal_ms"),
            job_total_ms: hist("job_total_ms"),
            registry,
        }
    }

    /// The per-worker utilization pair: a busy flag and a completion
    /// counter, labeled by worker slot.
    fn worker_handles(&self, worker: usize) -> (Gauge, Counter) {
        let label = worker.to_string();
        (
            self.registry.gauge("worker_busy", &[("worker", &label)]),
            self.registry
                .counter("worker_jobs_total", &[("worker", &label)]),
        )
    }
}

/// Scheduling state of one job entry.
enum Phase {
    /// Waiting in the queue; `not_before` is the retry backoff gate and
    /// `enqueued` is when the wait began (reset on re-queue), so the
    /// claim can attribute queue-wait latency.
    Pending {
        not_before: Option<Instant>,
        enqueued: Instant,
    },
    /// Claimed by `worker` as its `attempt`-th try.
    Running {
        worker: usize,
        attempt: u32,
        since: Instant,
    },
    /// Terminal: result available in `JobEntry::{row, result}`.
    Done,
    /// Terminal: retry budget exhausted.
    Failed,
}

struct JobEntry {
    spec: JobSpec,
    workload: WorkloadSpec,
    phase: Phase,
    /// Attempts started so far (claims, including crashed ones).
    attempts: u32,
    /// Tickets subscribed to this job's completion.
    tickets: Vec<u64>,
    /// The completed row (ticket/seq zeroed) and result, once done.
    row: Option<ResultRow>,
    result: Option<RunResult>,
    /// Correlation id stamped at submit; follows the job into its
    /// result row, journal line, and span.
    trace_id: String,
}

struct Ticket {
    jobs: u64,
    merged: u64,
    failed: u64,
    canceled: bool,
    rows: Vec<ResultRow>,
}

struct WorkerSlot {
    /// Cleared by the worker itself on a clean exit, so a finished
    /// thread still marked alive died mid-job.
    alive: bool,
    handle: Option<JoinHandle<()>>,
    jobs_done: u64,
}

#[derive(Default)]
struct State {
    jobs: HashMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    tickets: HashMap<u64, Ticket>,
    next_ticket: u64,
    shutting_down: bool,
    /// Worker ids armed to panic on their next claim (test hook).
    kill_armed: Vec<usize>,
    crashes: u64,
    retries: u64,
    workers: Vec<WorkerSlot>,
    /// Monotonic source for per-job trace ids.
    next_trace_id: u64,
    /// Published rows whose journal append has not finished yet.
    journaling: usize,
}

/// Mints the next per-job trace id: an engine-wide sequence number plus
/// the low half of the job's stable hash, so an id is both unique within
/// the engine's lifetime and visually joinable to the job identity.
fn mint_trace_id(st: &mut State, hash: u64) -> String {
    st.next_trace_id += 1;
    format!("{:06x}-{:08x}", st.next_trace_id, hash & 0xffff_ffff)
}

struct Inner {
    cfg: EngineConfig,
    spans: SpanLog,
    metrics: Metrics,
    state: Mutex<State>,
    /// Signaled when the queue gains work, backoff expires, or shutdown
    /// begins — what idle workers wait on.
    wake_workers: Condvar,
    /// Signaled on every job completion / ticket change — what ticket
    /// waiters and the shutdown drain wait on.
    progress: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("engine state")
    }
}

/// A running engine: its worker shard and monitor thread. Dropping it
/// drains the queue and joins every thread.
pub struct Engine {
    inner: Arc<Inner>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Spawns the worker shard and the monitor.
    #[must_use]
    pub fn start(cfg: EngineConfig) -> Engine {
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            metrics: Metrics::new(cfg.metrics),
            cfg,
            spans: SpanLog::new(),
            state: Mutex::new(State {
                next_ticket: 1,
                ..State::default()
            }),
            wake_workers: Condvar::new(),
            progress: Condvar::new(),
        });
        for _ in 0..workers {
            spawn_worker(&inner);
        }
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || monitor_loop(&inner))
        };
        Engine {
            inner,
            monitor: Mutex::new(Some(monitor)),
        }
    }

    /// The live metric registry (front ends register their own
    /// request counters on it).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.inner.metrics.registry
    }

    /// Opens a ticket over `jobs` (each with the workload it drives) and
    /// folds them into the job table: adopt, journal-load, or enqueue.
    ///
    /// # Errors
    ///
    /// Refuses the submission once a drain has begun.
    pub fn submit(&self, jobs: Vec<(JobSpec, WorkloadSpec)>) -> Result<Submission, String> {
        let inner = &self.inner;
        let journal = inner.cfg.journal.as_deref().filter(|_| inner.cfg.resume);
        let mut st = inner.lock();
        if st.shutting_down {
            return Err("daemon is shutting down".to_string());
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        inner.metrics.tickets_opened.inc();
        st.tickets.insert(
            ticket,
            Ticket {
                jobs: jobs.len() as u64,
                merged: 0,
                failed: 0,
                canceled: false,
                rows: Vec::new(),
            },
        );
        let (mut fresh, mut journaled, mut merged, mut failed) = (0u64, 0u64, 0u64, 0u64);
        for (spec, workload) in jobs {
            let hash = spec.stable_hash();
            if let Some(entry) = st.jobs.get_mut(&hash) {
                // Adopt: a done job's row is ours at once, a failed job
                // fails this ticket too, a queued or running one merges.
                entry.tickets.push(ticket);
                let row = entry.row.clone();
                failed += u64::from(matches!(entry.phase, Phase::Failed));
                merged += 1;
                if let Some(row) = row {
                    push_row(&mut st, ticket, &row);
                }
                continue;
            }
            let trace_id = mint_trace_id(&mut st, hash);
            let result = journal.and_then(|j| j.load(&spec));
            let row = result
                .as_ref()
                .map(|r| row_core(&spec, r, 0.0, 0, 0, "journal", &trace_id));
            let phase = if let Some(row) = &row {
                push_row(&mut st, ticket, row);
                journaled += 1;
                Phase::Done
            } else {
                st.queue.push_back(hash);
                fresh += 1;
                Phase::Pending {
                    not_before: None,
                    enqueued: Instant::now(),
                }
            };
            let entry = JobEntry {
                spec,
                workload,
                phase,
                attempts: 0,
                tickets: vec![ticket],
                row,
                result,
                trace_id,
            };
            st.jobs.insert(hash, entry);
        }
        let t = st.tickets.get_mut(&ticket).expect("new ticket");
        (t.merged, t.failed) = (merged, failed);
        inner.metrics.jobs_completed_journal.add(journaled);
        inner.metrics.jobs_submitted_fresh.add(fresh);
        inner.metrics.jobs_submitted_journal.add(journaled);
        inner.metrics.jobs_submitted_merged.add(merged);
        drop(st);
        inner.wake_workers.notify_all();
        inner.progress.notify_all();
        Ok(Submission {
            ticket,
            jobs: fresh + journaled + merged,
            fresh,
            journaled,
            merged,
        })
    }

    /// The rows of `ticket` from position `cursor` on, or its summary
    /// once it is done. Waits (briefly) for progress when there is
    /// neither, and may return an empty batch: callers loop. A ticket is
    /// done when every job has a row or failed, or once it is canceled;
    /// with `settle`, it is additionally held back until none of its
    /// jobs is still pending or running and every published row is
    /// journaled. `None` when the ticket is unknown.
    #[must_use]
    pub fn next(
        &self,
        ticket: u64,
        cursor: usize,
        settle: bool,
    ) -> Option<(Vec<ResultRow>, Option<DoneSummary>)> {
        let mut st = self.inner.lock();
        for waited in [false, true] {
            let t = st.tickets.get(&ticket)?;
            if cursor < t.rows.len() {
                return Some((t.rows[cursor..].to_vec(), None));
            }
            if let Some(done) = ticket_done(ticket, t) {
                if !settle || settled(&st, ticket) {
                    return Some((Vec::new(), Some(done)));
                }
            }
            if !waited {
                st = self
                    .inner
                    .progress
                    .wait_timeout(st, Duration::from_millis(200))
                    .expect("engine state")
                    .0;
            }
        }
        Some((Vec::new(), None))
    }

    /// Cancels a ticket: pending jobs wanted by no other live ticket are
    /// dropped from the table (their queue slots go stale); running jobs
    /// finish and are journaled as usual.
    ///
    /// # Errors
    ///
    /// An unknown ticket.
    pub fn cancel(&self, ticket: u64) -> Result<String, String> {
        let mut st = self.inner.lock();
        st.tickets
            .get_mut(&ticket)
            .ok_or_else(|| format!("unknown ticket {ticket}"))?
            .canceled = true;
        let live: Vec<u64> = st
            .tickets
            .iter()
            .filter(|(_, t)| !t.canceled)
            .map(|(&id, _)| id)
            .collect();
        let before = st.jobs.len();
        st.jobs.retain(|_, e| {
            !matches!(e.phase, Phase::Pending { .. }) || e.tickets.iter().any(|t| live.contains(t))
        });
        let dropped = before - st.jobs.len();
        drop(st);
        self.inner.progress.notify_all();
        Ok(format!(
            "ticket {ticket} canceled, {dropped} pending job(s) dropped"
        ))
    }

    /// Arms `worker` to panic on its next claim — the test hook behind
    /// the kill-worker request and the crash-recovery drills.
    ///
    /// # Errors
    ///
    /// No live worker has that id.
    pub fn kill_worker(&self, worker: usize) -> Result<String, String> {
        let mut st = self.inner.lock();
        if st.workers.get(worker).is_none_or(|w| !w.alive) {
            return Err(format!("no live worker {worker}"));
        }
        st.kill_armed.push(worker);
        Ok(format!("worker {worker} armed to die on its next claim"))
    }

    /// The result of a done job.
    #[must_use]
    pub fn result(&self, job: &JobSpec) -> Option<RunResult> {
        self.inner
            .lock()
            .jobs
            .get(&job.stable_hash())
            .and_then(|e| e.result.clone())
    }

    /// Engine-wide counters, with latency percentiles from the live
    /// `job_total_ms` histogram (0 with metrics disabled or before any
    /// completion).
    #[must_use]
    pub fn status(&self) -> StatusInfo {
        let mut info = StatusInfo::default();
        {
            let st = self.inner.lock();
            for e in st.jobs.values() {
                match e.phase {
                    Phase::Pending { .. } => info.pending += 1,
                    Phase::Running { .. } => info.running += 1,
                    Phase::Done => info.done += 1,
                    Phase::Failed => info.failed += 1,
                }
            }
            info.workers = st.workers.len() as u64;
            info.alive = st.workers.iter().filter(|w| w.alive).count() as u64;
            info.tickets = st.next_ticket - 1;
            info.crashes = st.crashes;
            info.retries = st.retries;
            info.per_worker_done = st.workers.iter().map(|w| w.jobs_done).collect();
        }
        let snap = self.inner.metrics.registry.snapshot();
        let pct = |q: f64| {
            snap.histogram("job_total_ms")
                .and_then(|h| h.hist.percentile(q))
                .unwrap_or(0)
        };
        (info.p50_ms, info.p95_ms, info.p99_ms) = (pct(0.50), pct(0.95), pct(0.99));
        info
    }

    /// Takes a registry snapshot with the scheduler gauges (queue depth,
    /// running jobs, live workers) refreshed from the job table first —
    /// they describe current state, so they are computed at observation
    /// time rather than maintained on every queue edge.
    #[must_use]
    pub fn metrics(&self) -> Snapshot {
        let status = self.status();
        let m = &self.inner.metrics;
        m.queue_depth.set(status.pending);
        m.jobs_running.set(status.running);
        m.workers_alive.set(status.alive);
        m.registry.snapshot()
    }

    /// Removes and returns the per-job spans recorded so far, ordered by
    /// start time. Every simulated job records one.
    #[must_use]
    pub fn take_spans(&self) -> Vec<Span> {
        self.inner.spans.take()
    }

    /// The graceful drain: refuse new submissions, let workers finish
    /// every queued job, and return once the job table is terminal.
    pub fn drain(&self) {
        let mut st = self.inner.lock();
        st.shutting_down = true;
        self.inner.wake_workers.notify_all();
        while !all_terminal(&st) {
            st = self
                .inner
                .progress
                .wait_timeout(st, Duration::from_millis(200))
                .expect("engine state")
                .0;
        }
    }

    /// Drains, then joins the monitor and every worker thread, so every
    /// journal append and span is recorded when it returns.
    pub fn shutdown(&self) {
        self.drain();
        if let Some(monitor) = self.monitor.lock().expect("monitor handle").take() {
            let _ = monitor.join();
        }
        let handles: Vec<JoinHandle<()>> = self
            .inner
            .lock()
            .workers
            .iter_mut()
            .filter_map(|w| w.handle.take())
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // A poisoned state mutex means a thread panicked mid-update;
        // draining would panic again, so the threads are left to exit
        // with the process.
        if !self.inner.state.is_poisoned() {
            self.shutdown();
        }
    }
}

fn all_terminal(st: &State) -> bool {
    st.jobs
        .values()
        .all(|e| matches!(e.phase, Phase::Done | Phase::Failed))
}

/// Whether a ticket has no job left in flight and every published row
/// is journaled.
fn settled(st: &State, ticket: u64) -> bool {
    st.journaling == 0
        && !st.jobs.values().any(|e| {
            matches!(e.phase, Phase::Pending { .. } | Phase::Running { .. })
                && e.tickets.contains(&ticket)
        })
}

/// Exponential claim-retry backoff: 50 ms doubling per prior attempt,
/// capped at 2 s.
fn backoff(attempts: u32) -> Duration {
    let ms = 50u64.saturating_mul(1 << attempts.min(6));
    Duration::from_millis(ms.min(2_000))
}

fn spawn_worker(inner: &Arc<Inner>) {
    let me = {
        let mut st = inner.lock();
        st.workers.push(WorkerSlot {
            alive: true,
            handle: None,
            jobs_done: 0,
        });
        st.workers.len() - 1
    };
    let handle = {
        let inner = Arc::clone(inner);
        std::thread::Builder::new()
            .name(format!("bv-engine-worker-{me}"))
            .spawn(move || worker_loop(&inner, me))
            .expect("spawn worker")
    };
    inner.lock().workers[me].handle = Some(handle);
}

enum Claim {
    Job(u64),
    Wait(Duration),
    Idle,
}

/// Pops the first runnable job, cycling backoff-gated entries to the
/// back and dropping stale queue slots (canceled or already-claimed
/// hashes) on the way.
fn claim_next(st: &mut State, now: Instant) -> Claim {
    let mut soonest: Option<Duration> = None;
    for _ in 0..st.queue.len() {
        let Some(hash) = st.queue.pop_front() else {
            break;
        };
        let Some(entry) = st.jobs.get(&hash) else {
            continue; // canceled underneath the queue
        };
        let Phase::Pending { not_before, .. } = &entry.phase else {
            continue; // stale: claimed or finished via another queue slot
        };
        if let Some(gate) = not_before {
            if *gate > now {
                let wait = *gate - now;
                soonest = Some(soonest.map_or(wait, |s| s.min(wait)));
                st.queue.push_back(hash);
                continue;
            }
        }
        return Claim::Job(hash);
    }
    soonest.map_or(Claim::Idle, Claim::Wait)
}

/// What a worker took from the queue.
struct Claimed {
    hash: u64,
    spec: JobSpec,
    workload: WorkloadSpec,
    attempt: u32,
    queued: Duration,
    trace_id: String,
}

/// Claims the next runnable job under the lock, or returns `None` once a
/// drained shutdown leaves nothing to do.
fn claim(inner: &Inner, me: usize) -> Option<Claimed> {
    let mut st = inner.lock();
    let (hash, now) = loop {
        let now = Instant::now();
        let wait = match claim_next(&mut st, now) {
            Claim::Job(hash) => break (hash, now),
            Claim::Wait(d) => d,
            Claim::Idle if st.shutting_down => return None,
            Claim::Idle => Duration::from_millis(200),
        };
        st = inner
            .wake_workers
            .wait_timeout(st, wait)
            .expect("engine state")
            .0;
    };
    let armed = st.kill_armed.iter().position(|&w| w == me);
    if let Some(pos) = armed {
        st.kill_armed.remove(pos);
    }
    let entry = st.jobs.get_mut(&hash).expect("claimed job");
    let queued = match &entry.phase {
        Phase::Pending { enqueued, .. } => now.saturating_duration_since(*enqueued),
        _ => Duration::ZERO,
    };
    entry.attempts += 1;
    let attempt = entry.attempts;
    entry.phase = Phase::Running {
        worker: me,
        attempt,
        since: now,
    };
    let claimed = Claimed {
        hash,
        spec: entry.spec.clone(),
        workload: entry.workload.clone(),
        attempt,
        queued,
        trace_id: entry.trace_id.clone(),
    };
    if armed.is_some() {
        // The deterministic mid-sweep crash: die *after* claiming, so the
        // monitor must detect the dead thread and re-queue a running job.
        drop(st);
        panic!("bv-engine: worker {me} killed by kill-worker hook");
    }
    Some(claimed)
}

fn worker_loop(inner: &Arc<Inner>, me: usize) {
    let (busy, jobs_total) = inner.metrics.worker_handles(me);
    let metrics = &inner.metrics;
    while let Some(job) = claim(inner, me) {
        // Queue wait is a property of the claim, not the outcome: a job
        // that goes on to crash still waited.
        metrics.queue_wait_ms.observe_ms(job.queued);
        // This worker's core stays counted from the claim through the
        // journal write, so another worker's run does not take it for a
        // helper thread in between.
        let _core = bv_sim::hold_core();
        busy.set(1);
        // Simulate with the lock released: the engine keeps taking
        // submissions and answering waiters while jobs run.
        let t0 = Instant::now();
        let (result, telemetry) = simulate(&job.spec, &job.workload, inner.cfg.telemetry.as_ref());
        let timing = JobTiming {
            queue_secs: job.queued.as_secs_f64(),
            sim_secs: t0.elapsed().as_secs_f64(),
        };
        busy.set(0);

        // Publish under the lock, but only if our claim token is still
        // current — a timed-out-and-requeued job's straggler result is
        // dropped here, which is what makes re-queue + retry free of
        // duplicate journal lines.
        let mut st = inner.lock();
        let current = matches!(
            st.jobs.get(&job.hash).map(|e| &e.phase),
            Some(Phase::Running { worker, attempt, .. }) if *worker == me && *attempt == job.attempt
        );
        if !current {
            continue;
        }
        // Record completion metrics before the row becomes visible to
        // waiters, so a client that just received its last row never
        // reads a snapshot missing it.
        metrics.sim_ms.observe(timing.sim_ms());
        metrics
            .job_total_ms
            .observe(timing.queue_ms() + timing.sim_ms());
        metrics.jobs_completed_simulated.inc();
        jobs_total.inc();
        let row = row_core(
            &job.spec,
            &result,
            timing.sim_secs,
            me,
            job.attempt,
            "simulated",
            &job.trace_id,
        );
        finish_job(&mut st, job.hash, row, result.clone());
        st.workers[me].jobs_done += 1;
        st.journaling += 1;
        inner.progress.notify_all();
        drop(st);
        // Checkpoint outside the lock; a crash here costs one
        // re-simulation after restart, never a duplicate row.
        if let Some(journal) = &inner.cfg.journal {
            let tj = Instant::now();
            journal.record(
                &job.spec,
                &result,
                timing,
                me,
                Some(&job.trace_id),
                telemetry.as_deref(),
            );
            metrics.journal_ms.observe_ms(tj.elapsed());
        }
        inner.spans.record(
            &format!("{} {} [{}]", job.spec.trace, result.llc_name, job.trace_id),
            me,
            t0,
        );
        let mut st = inner.lock();
        st.journaling -= 1;
        if st.journaling == 0 {
            inner.progress.notify_all();
        }
    }
    if let Some(slot) = inner.lock().workers.get_mut(me) {
        slot.alive = false;
    }
    inner.progress.notify_all();
}

/// Simulates one job — the one place a [`JobSpec`] becomes a
/// [`RunResult`]. With `telemetry = Some((dir, epoch_insts))` the run is
/// epoch-sampled into `<dir>/<hash>.telemetry.jsonl`, whose path is
/// returned when the write succeeded.
fn simulate(
    job: &JobSpec,
    workload: &WorkloadSpec,
    telemetry: Option<&(PathBuf, u64)>,
) -> (RunResult, Option<PathBuf>) {
    let system = System::new(job.cfg);
    let Some((dir, epoch_insts)) = telemetry else {
        return (
            system.run_with_warmup(workload, job.warmup, job.insts),
            None,
        );
    };
    let mut tel = SimTelemetry::new(*epoch_insts)
        .with_meta("trace", &job.trace)
        .with_meta("key", &job.key());
    let result = system.run_sampled(workload, job.warmup, job.insts, &mut tel);
    let tel = tel.with_meta("llc", result.llc_name);
    let path = dir.join(format!("{:016x}.telemetry.jsonl", job.stable_hash()));
    if let Err(e) = std::fs::write(&path, tel.into_report().to_jsonl()) {
        // Like a lost checkpoint, a lost telemetry file does not fail
        // the job.
        eprintln!("telemetry: failed to write {}: {e}", path.display());
        return (result, None);
    }
    (result, Some(path))
}

/// Builds the ticket-agnostic result row for a terminal job (`ticket`
/// and `seq` are stamped per subscriber).
fn row_core(
    spec: &JobSpec,
    result: &RunResult,
    wall: f64,
    worker: usize,
    attempt: u32,
    source: &str,
    trace_id: &str,
) -> ResultRow {
    ResultRow {
        trace_id: trace_id.to_string(),
        ticket: 0,
        seq: 0,
        trace: spec.trace.clone(),
        llc: result.llc_name.to_string(),
        policy: spec.cfg.llc_policy.name().to_string(),
        hash: format!("{:016x}", spec.stable_hash()),
        ipc: result.ipc(),
        llc_hit_rate: result.llc.hit_rate(),
        comp_ratio: result.compression.mean_ratio(),
        instructions: result.instructions,
        wall_secs: wall,
        worker: worker as u64,
        attempt: u64::from(attempt),
        source: source.to_string(),
    }
}

/// Marks a job done and fans its row out to every subscribed ticket.
fn finish_job(st: &mut State, hash: u64, row: ResultRow, result: RunResult) {
    let entry = st.jobs.get_mut(&hash).expect("finished job");
    entry.phase = Phase::Done;
    entry.result = Some(result);
    entry.row = Some(row.clone());
    let subscribers = entry.tickets.clone();
    for t in subscribers {
        push_row(st, t, &row);
    }
}

fn push_row(st: &mut State, ticket: u64, row: &ResultRow) {
    if let Some(t) = st.tickets.get_mut(&ticket) {
        let mut row = row.clone();
        row.ticket = ticket;
        row.seq = t.rows.len() as u64;
        t.rows.push(row);
    }
}

/// Re-queues a crashed or timed-out job with backoff, or fails it
/// terminally once the retry budget is spent.
fn requeue_or_fail(inner: &Inner, st: &mut State, hash: u64) {
    let Some(entry) = st.jobs.get_mut(&hash) else {
        return;
    };
    if entry.attempts > inner.cfg.retries {
        entry.phase = Phase::Failed;
        inner.metrics.jobs_failed.inc();
        eprintln!(
            "engine: job {} {} [{}] failed after {} attempt(s)",
            entry.spec.trace,
            entry.spec.cfg.llc_kind.name(),
            entry.trace_id,
            entry.attempts
        );
        let subscribers = entry.tickets.clone();
        for t in subscribers {
            if let Some(ticket) = st.tickets.get_mut(&t) {
                ticket.failed += 1;
            }
        }
    } else {
        st.retries += 1;
        inner.metrics.job_retries.inc();
        entry.phase = Phase::Pending {
            not_before: Some(Instant::now() + backoff(entry.attempts)),
            enqueued: Instant::now(),
        };
        st.queue.push_back(hash);
        inner.wake_workers.notify_all();
    }
}

/// The monitor: detects dead worker threads (re-queueing their claimed
/// jobs and spawning replacements), enforces the per-job timeout, and
/// exits once a drained shutdown completes.
fn monitor_loop(inner: &Arc<Inner>) {
    loop {
        std::thread::sleep(Duration::from_millis(25));
        let mut respawn = 0usize;
        let finished = {
            let mut st = inner.lock();

            // Dead workers: a finished thread that never marked itself
            // gone panicked mid-job.
            let crashed: Vec<usize> = st
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.alive && w.handle.as_ref().is_some_and(JoinHandle::is_finished))
                .map(|(i, _)| i)
                .collect();
            for w in crashed {
                st.workers[w].alive = false;
                st.crashes += 1;
                inner.metrics.worker_crashes.inc();
                let orphans: Vec<u64> = st
                    .jobs
                    .iter()
                    .filter(
                        |(_, e)| matches!(e.phase, Phase::Running { worker, .. } if worker == w),
                    )
                    .map(|(&h, _)| h)
                    .collect();
                for hash in orphans {
                    requeue_or_fail(inner, &mut st, hash);
                }
                inner.progress.notify_all();
                if !st.shutting_down {
                    respawn += 1;
                }
            }

            // Hung jobs: past the timeout, re-queue; the straggler's
            // eventual publish fails its token check and is dropped.
            let now = Instant::now();
            let hung: Vec<u64> = st
                .jobs
                .iter()
                .filter(|(_, e)| {
                    matches!(e.phase, Phase::Running { since, .. } if now.duration_since(since) > inner.cfg.timeout)
                })
                .map(|(&h, _)| h)
                .collect();
            for hash in hung {
                inner.metrics.job_timeouts.inc();
                requeue_or_fail(inner, &mut st, hash);
                inner.progress.notify_all();
            }

            st.shutting_down && all_terminal(&st)
        };
        for _ in 0..respawn {
            spawn_worker(inner);
        }
        if finished {
            inner.wake_workers.notify_all();
            return;
        }
    }
}

fn ticket_done(ticket: u64, t: &Ticket) -> Option<DoneSummary> {
    let terminal = t.rows.len() as u64 + t.failed >= t.jobs;
    if !(terminal || t.canceled) {
        return None;
    }
    let simulated = t.rows.iter().filter(|r| r.source == "simulated").count() as u64;
    let journaled = t.rows.iter().filter(|r| r.source == "journal").count() as u64;
    Some(DoneSummary {
        ticket,
        jobs: t.jobs,
        simulated,
        journaled,
        merged: t.merged,
        failed: t.failed,
        canceled: t.canceled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(0), Duration::from_millis(50));
        assert_eq!(backoff(1), Duration::from_millis(100));
        assert_eq!(backoff(3), Duration::from_millis(400));
        assert_eq!(backoff(10), Duration::from_millis(2_000));
        assert_eq!(backoff(u32::MAX), Duration::from_millis(2_000));
    }

    #[test]
    fn claim_skips_stale_and_gated_entries() {
        let mut st = State::default();
        let spec = JobSpec::new(
            "t",
            bv_sim::SimConfig::single_thread(bv_sim::LlcKind::Uncompressed),
            0,
            100,
        );
        let workload = bv_trace::TraceRegistry::paper_default()
            .all()
            .next()
            .expect("trace")
            .workload
            .clone();
        let now = Instant::now();
        let pending = |not_before, trace_id: &str| JobEntry {
            spec: spec.clone(),
            workload: workload.clone(),
            phase: Phase::Pending {
                not_before,
                enqueued: now,
            },
            attempts: 0,
            tickets: vec![],
            row: None,
            result: None,
            trace_id: trace_id.to_string(),
        };
        // 1: gated into the future; 2: stale (no entry); 3: runnable.
        st.jobs.insert(
            1,
            pending(Some(now + Duration::from_secs(60)), "000001-00000001"),
        );
        st.jobs.insert(3, pending(None, "000002-00000003"));
        st.queue.extend([1, 2, 3]);
        match claim_next(&mut st, now) {
            Claim::Job(h) => assert_eq!(h, 3),
            _ => panic!("expected the runnable job"),
        }
        // Only the gated job remains queued; claiming again reports how
        // long to wait for it.
        match claim_next(&mut st, now) {
            Claim::Wait(d) => assert!(d <= Duration::from_secs(60)),
            _ => panic!("expected a backoff wait"),
        }
        assert_eq!(st.queue.len(), 1);
    }
}
