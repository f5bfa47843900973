//! The in-process sweep client: deduplicates a job set, submits it to
//! the job [`Engine`] as one ticket and waits on it. The engine queues,
//! simulates, journals and retains every result; the runner adds only
//! the progress line and the Ctrl-C cancel.

use crate::engine::{Engine, EngineConfig};
use crate::job::JobSpec;
use crate::journal::Journal;
use crate::spans::Span;
use bv_sim::RunResult;
use bv_trace::TraceRegistry;
use std::collections::HashSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Re-queues a sweep job gets after a worker crash (the daemon's
/// default `--retries`).
const RETRIES: u32 = 3;

/// What one `execute` call did, for progress reporting and for the
/// resume tests ("a resumed sweep re-simulates zero journaled configs").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Jobs submitted, including duplicates.
    pub requested: usize,
    /// Distinct configurations after deduplication.
    pub unique: usize,
    /// Served from the engine's results (earlier batches this process).
    pub from_memory: usize,
    /// Served from on-disk checkpoints (a previous, interrupted sweep).
    pub from_journal: usize,
    /// Actually simulated by this call.
    pub simulated: usize,
    /// Scheduled but never started because the cancel flag
    /// ([`Runner::with_cancel`]) was raised mid-sweep. These jobs are
    /// absent from the results and the journal; a `--resume` rerun
    /// picks them up.
    pub canceled: usize,
    /// Jobs whose every attempt crashed its worker: the engine gave up
    /// on them after its retries, and they have no result.
    pub failed: usize,
}

/// The in-process client of the job engine. One `Runner` is shared by a
/// whole experiment suite; its engine starts on first use, so the
/// builder methods configure it.
pub struct Runner {
    cfg: EngineConfig,
    progress: bool,
    cancel: Option<Arc<AtomicBool>>,
    engine: OnceLock<Engine>,
}

impl Runner {
    /// A runner with `workers` threads, no journal, no progress output.
    #[must_use]
    pub fn new(workers: usize) -> Runner {
        Runner {
            cfg: EngineConfig {
                workers: workers.max(1),
                journal: None,
                resume: false,
                // A long sweep job is slow, not hung: only served jobs
                // have a deadline.
                timeout: Duration::MAX,
                retries: RETRIES,
                metrics: true,
                telemetry: None,
            },
            progress: false,
            cancel: None,
            engine: OnceLock::new(),
        }
    }

    /// Attaches a checkpoint journal. When `resume` is true, existing
    /// checkpoints satisfy jobs without re-simulation; when false, the
    /// journal is write-only (checkpoints are refreshed).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the journal directory cannot be opened.
    pub fn with_journal(
        mut self,
        dir: impl Into<PathBuf>,
        resume: bool,
    ) -> std::io::Result<Runner> {
        self.cfg.journal = Some(Arc::new(Journal::open(dir)?));
        self.cfg.resume = resume;
        Ok(self)
    }

    /// Enables the live `completed/total` progress line on stderr.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Runner {
        self.progress = progress;
        self
    }

    /// Enables epoch-sampled telemetry: every *simulated* job writes a
    /// `bvsim-telemetry-v1` JSONL file named `<hash>.telemetry.jsonl`
    /// under `dir`, sampling every `epoch_insts` committed instructions.
    /// Jobs satisfied from memory or (under resume) the journal are not
    /// re-simulated and therefore write no telemetry.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if `dir` cannot be created.
    pub fn with_telemetry(
        mut self,
        dir: impl Into<PathBuf>,
        epoch_insts: u64,
    ) -> std::io::Result<Runner> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.cfg.telemetry = Some((dir, epoch_insts));
        Ok(self)
    }

    /// Removes and returns the per-job wall-clock spans recorded so far
    /// (one per simulated job, labeled with its trace id), ordered by
    /// start time; export them with
    /// [`chrome_trace_json`](crate::chrome_trace_json)
    /// (`bvsim sweep --spans`).
    #[must_use]
    pub fn take_spans(&self) -> Vec<Span> {
        self.engine
            .get()
            .map(Engine::take_spans)
            .unwrap_or_default()
    }

    /// Attaches a cooperative cancel flag (the Ctrl-C path): once some
    /// other thread — typically a signal handler — sets it, the batch's
    /// pending jobs are canceled. In-flight jobs run to completion and
    /// are checkpointed normally, so the journal stays resumable; jobs
    /// never started are counted in [`ExecutionReport::canceled`].
    #[must_use]
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Runner {
        self.cancel = Some(flag);
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// The journal, if one is attached.
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.cfg.journal.as_deref()
    }

    /// A result the engine already holds.
    #[must_use]
    pub fn get(&self, job: &JobSpec) -> Option<RunResult> {
        self.engine.get()?.result(job)
    }

    /// [`Runner::execute`] of one job, returning its result — the path
    /// for ad-hoc lookups outside a planned sweep.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not in `registry`, or if the job failed or
    /// was canceled.
    pub fn run_one(&self, registry: &TraceRegistry, job: &JobSpec) -> RunResult {
        self.execute(registry, std::slice::from_ref(job));
        self.get(job)
            .unwrap_or_else(|| panic!("job {} failed or was canceled", job.key()))
    }

    fn engine(&self) -> &Engine {
        self.engine.get_or_init(|| Engine::start(self.cfg.clone()))
    }

    /// Plans and executes a batch: deduplicates, takes what the engine
    /// already holds, then submits the rest as one ticket (served from
    /// the journal under resume, else simulated across the workers) and
    /// waits for it to settle. Afterwards every submitted job's result
    /// is available via [`Runner::get`], and every simulated job is in
    /// the journal.
    ///
    /// # Panics
    ///
    /// Panics if any job names a trace missing from `registry`.
    pub fn execute(&self, registry: &TraceRegistry, jobs: &[JobSpec]) -> ExecutionReport {
        let mut report = ExecutionReport {
            requested: jobs.len(),
            ..ExecutionReport::default()
        };
        // Deduplicate while preserving first-seen order, so equal-budget
        // sweeps schedule identically whether or not callers repeat jobs.
        // Workloads resolve up front so a missing trace fails before any
        // simulation time is spent.
        let mut seen = HashSet::new();
        let mut batch = Vec::new();
        for job in jobs {
            if !seen.insert(job.stable_hash()) {
                continue;
            }
            report.unique += 1;
            if self.get(job).is_some() {
                report.from_memory += 1;
                continue;
            }
            let spec = registry
                .get(&job.trace)
                .unwrap_or_else(|| panic!("trace '{}' not in the registry", job.trace));
            batch.push((job.clone(), spec.workload.clone()));
        }
        if batch.is_empty() {
            return report;
        }
        let engine = self.engine();
        let ticket = engine
            .submit(batch)
            .expect("the runner's engine takes submissions until it is dropped");
        let t0 = Instant::now();
        let (mut cursor, mut finished) = (0, 0);
        let mut cancel = self.cancel.as_deref();
        let done = loop {
            if cancel.is_some_and(|f| f.load(Ordering::SeqCst)) {
                let _ = engine.cancel(ticket.ticket);
                cancel = None;
            }
            let (rows, done) = engine
                .next(ticket.ticket, cursor, true)
                .expect("the runner's own ticket");
            cursor += rows.len();
            for row in rows.iter().filter(|r| r.source == "simulated") {
                finished += 1;
                if self.progress {
                    progress_line(finished, ticket.fresh as usize, t0.elapsed(), &row.trace);
                }
            }
            if let Some(done) = done {
                break done;
            }
        };
        if self.progress && finished > 0 {
            eprintln!();
        }
        report.from_journal = done.journaled as usize;
        report.simulated = done.simulated as usize;
        report.failed = done.failed as usize;
        report.canceled = (done.jobs - done.journaled - done.simulated - done.failed) as usize;
        report
    }
}

fn progress_line(done: usize, total: usize, elapsed: Duration, last_trace: &str) {
    let secs = elapsed.as_secs_f64();
    let rate = done as f64 / secs.max(1e-9);
    let eta = total.saturating_sub(done) as f64 / rate.max(1e-9);
    let mut err = std::io::stderr().lock();
    let _ = write!(
        err,
        "\r[sweep] {done}/{total} jobs  {rate:5.2} jobs/s  eta {eta:4.0}s  last {last_trace:<28}"
    );
    let _ = err.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bv_sim::{LlcKind, SimConfig};

    fn tiny_job(trace: &str, kind: LlcKind) -> JobSpec {
        JobSpec::new(trace, SimConfig::single_thread(kind), 2_000, 4_000)
    }

    #[test]
    fn execute_deduplicates_and_caches() {
        let registry = TraceRegistry::paper_default();
        let trace = registry.all().next().expect("trace").name.clone();
        let runner = Runner::new(2);
        let job = tiny_job(&trace, LlcKind::Uncompressed);
        let jobs = vec![job.clone(), job.clone(), job.clone()];
        let r1 = runner.execute(&registry, &jobs);
        assert_eq!(r1.requested, 3);
        assert_eq!(r1.unique, 1);
        assert_eq!(r1.simulated, 1);
        let r2 = runner.execute(&registry, &jobs);
        assert_eq!(r2.from_memory, 1);
        assert_eq!(r2.simulated, 0);
        assert!(runner.get(&job).is_some());
    }

    #[test]
    fn run_one_matches_execute() {
        let registry = TraceRegistry::paper_default();
        let trace = registry.all().next().expect("trace").name.clone();
        let job = tiny_job(&trace, LlcKind::BaseVictim);
        let serial = Runner::new(1);
        let parallel = Runner::new(3);
        let a = serial.run_one(&registry, &job);
        parallel.execute(&registry, std::slice::from_ref(&job));
        let b = parallel.get(&job).expect("executed");
        assert_eq!(a, b);
    }

    #[test]
    fn a_job_that_exhausts_its_retries_is_counted_as_failed() {
        let registry = TraceRegistry::paper_default();
        let trace = registry.all().next().expect("trace").name.clone();
        let runner = Runner::new(1);
        let engine = runner.engine.get_or_init(|| {
            Engine::start(EngineConfig {
                retries: 0,
                ..runner.cfg.clone()
            })
        });
        engine.kill_worker(0).expect("worker 0 is alive");
        let job = tiny_job(&trace, LlcKind::Uncompressed);
        let report = runner.execute(&registry, std::slice::from_ref(&job));
        assert_eq!(
            (report.failed, report.simulated, report.canceled),
            (1, 0, 0)
        );
        assert!(runner.get(&job).is_none());
        assert_eq!(engine.status().crashes, 1);
    }
}
