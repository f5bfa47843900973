//! `serve-sweeps`: a `bv_serve::Daemon` with one worker and a fresh
//! journal in a temporary directory receives small sweeps from one client
//! connection at a time.
//!
//! Sweeps walk a seeded order of cache-resident registry traces (working
//! set under 2 MiB), two new traces per sweep plus the last trace of the
//! previous sweep, so every sweep repeats part of an earlier one. The
//! sims are short and decode/L1/core-bound, so daemon overhead is a
//! visible share. A run restarts the daemon on the same journal several
//! times: the repeat that straddles a restart is served by the journal
//! read path, the others by in-memory dedup.

use std::collections::HashSet;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bv_metrics::Snapshot;
use bv_runner::{JobTiming, Journal};
use bv_serve::{client, Daemon, Request, Response, ResultRow, ServeConfig, SweepGrid};
use bv_sim::System;
use bv_trace::TraceRegistry;

use crate::stats::{median, mix, ms, push_latency, reps_for, time_reps, HostProbe, Report};

const WARMUP: u64 = 50_000;
const INSTS: u64 = 100_000;
/// Daemon lives per run; each one is set up, warmed and shut down.
const LIVES: u64 = 4;
/// Host seconds one measured sweep takes on the reference host (see
/// NOTES.md); fixes how many sweeps a run does.
const SWEEP_NOMINAL_S: f64 = 0.17;

/// A directory under the working directory, removed with everything in
/// it when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = Path::new(".perfbench_tmp").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// A running daemon that is always shut down through
/// `Request::Shutdown` and joined, even when a check fails or panics.
struct Live {
    daemon: Option<Daemon>,
    addr: String,
}

impl Live {
    fn start(journal: &Path) -> Result<Live, String> {
        let daemon = Daemon::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            journal: journal.to_path_buf(),
            timeout: Duration::from_secs(120),
            retries: 3,
            port_file: None,
            spans: None,
            metrics: true,
            metrics_port: None,
        })
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let addr = daemon.addr().to_string();
        Ok(Live {
            daemon: Some(daemon),
            addr,
        })
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        // Without an acknowledged shutdown `wait` would block forever;
        // the daemon's threads then end with the process.
        match client::control(&self.addr, &Request::Shutdown)? {
            Response::Ok { .. } => daemon
                .wait()
                .map(|_| ())
                .map_err(|e| format!("daemon exit: {e}")),
            other => Err(format!("unexpected shutdown reply: {other:?}")),
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("perfbench: daemon shutdown: {e}");
        }
    }
}

const ORGS: [&str; 5] = ["uncompressed", "base-victim", "two-tag", "vsc-2x", "dcc"];

/// The seeded inputs of one run: a trace order, an organization offset
/// and an instruction budget.
struct Plan {
    traces: Vec<String>,
    org: usize,
    insts: u64,
}

impl Plan {
    fn new(registry: &TraceRegistry, seed: u64) -> Plan {
        let mut traces: Vec<String> = registry
            .cache_insensitive()
            .filter(|t| t.workload.working_set_bytes() < 2 << 20)
            .map(|t| t.name.clone())
            .collect();
        // Fisher-Yates with the seed's SplitMix stream.
        let mut state = seed;
        for i in (1..traces.len()).rev() {
            state = mix(state);
            traces.swap(i, (state % (i as u64 + 1)) as usize);
        }
        Plan {
            traces,
            org: (mix(seed ^ 0x11c5) % 5) as usize,
            // Seed-dependent budgets, so two seeds never share a job.
            insts: INSTS + (mix(seed ^ 0x33c5) % 1000) * 16,
        }
    }

    /// Sweeps per pass over the trace order: sweep j of a pass takes
    /// traces 2j, 2j+1 and 2j+2, so it repeats the last trace of sweep
    /// j-1.
    fn per_pass(&self) -> u64 {
        (self.traces.len() as u64 - 1) / 2
    }

    /// Sweep `k` of the walk. Each pass runs a new pair of organizations
    /// at a new budget, so no job repeats outside the planned overlap.
    fn sweep(&self, k: u64) -> SweepGrid {
        let (pass, j) = (k / self.per_pass(), k % self.per_pass());
        let org = self.org + pass as usize;
        SweepGrid {
            traces: (0..3)
                .map(|i| self.traces[(2 * j + i) as usize].clone())
                .collect(),
            llcs: vec![ORGS[org % 5].to_string(), ORGS[(org + 1) % 5].to_string()],
            policies: vec!["nru".to_string()],
            llc_mb: 2,
            ways: 16,
            warmup: WARMUP,
            insts: self.insts + pass * 16,
        }
    }

    /// The untimed warm sweep of a daemon life: jobs no measured sweep
    /// shares (an odd budget), so it warms without pre-filling.
    fn warm_sweep(&self, life: u64) -> SweepGrid {
        let mut grid = self.sweep(life * self.per_pass());
        grid.insts += 8;
        grid
    }
}

/// What one sweep returned, as the client saw it.
struct SweepOutcome {
    latency_ms: f64,
    /// Jobs of the sweep that were simulated fresh, merged with
    /// in-memory results, and read from the journal.
    fresh: u64,
    merged: u64,
    journaled: u64,
    ack_ms: f64,
    first_row_ms: f64,
    rows: Vec<ResultRow>,
}

/// Checks one sweep: exactly one row per planned job, no error, no
/// failed job.
fn check_sweep(report: &mut Report, grid: &SweepGrid, result: &Result<SweepOutcome, String>) {
    let planned: HashSet<String> = grid
        .plan()
        .map(|specs| {
            specs
                .iter()
                .map(|s| format!("{:016x}", s.stable_hash()))
                .collect()
        })
        .unwrap_or_default();
    match result {
        Ok(out) => {
            let got: HashSet<&str> = out.rows.iter().map(|r| r.hash.as_str()).collect();
            let ok = out.rows.len() == planned.len()
                && got.len() == planned.len()
                && got.iter().all(|h| planned.contains(*h));
            report.check(ok, || {
                format!(
                    "sweep of {:?}: {} rows for {} planned jobs",
                    grid.traces,
                    out.rows.len(),
                    planned.len()
                )
            });
        }
        Err(e) => report.check(false, || format!("sweep of {:?}: {e}", grid.traces)),
    }
}

/// Submits through the public client helper and waits for `done`.
fn submit(addr: &str, grid: &SweepGrid) -> Result<SweepOutcome, String> {
    let mut rows = Vec::new();
    let t = Instant::now();
    let out = client::submit(addr, grid, true, |row| rows.push(row.clone()))?;
    let latency_ms = ms(t.elapsed());
    let done = out.done.ok_or("submit returned without a done line")?;
    if done.failed != 0 || done.canceled {
        return Err(format!(
            "{} jobs failed, canceled={}",
            done.failed, done.canceled
        ));
    }
    Ok(SweepOutcome {
        latency_ms,
        fresh: out.fresh,
        merged: out.merged,
        journaled: out.journaled,
        ack_ms: 0.0,
        first_row_ms: 0.0,
        rows,
    })
}

/// Submits over the wire protocol directly, timing the acknowledgement
/// and the first row as well (the traced run).
fn submit_timed(addr: &str, grid: &SweepGrid) -> Result<SweepOutcome, String> {
    let t = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let line = Request::Submit {
        grid: grid.clone(),
        wait: true,
    }
    .to_line();
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut read = || -> Result<Response, String> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Response::parse_line(&line),
            Err(e) => Err(format!("read: {e}")),
        }
    };
    let (ack_ms, fresh, merged, journaled) = match read()? {
        Response::Submitted {
            fresh,
            merged,
            journaled,
            ..
        } => (ms(t.elapsed()), fresh, merged, journaled),
        other => return Err(format!("unexpected submit reply: {other:?}")),
    };
    let mut rows = Vec::new();
    let mut first_row_ms = 0.0;
    loop {
        match read()? {
            Response::Result(row) => {
                if rows.is_empty() {
                    first_row_ms = ms(t.elapsed());
                }
                rows.push(row);
            }
            Response::Done(done) if done.failed == 0 && !done.canceled => break,
            other => return Err(format!("unexpected stream line: {other:?}")),
        }
    }
    Ok(SweepOutcome {
        latency_ms: ms(t.elapsed()),
        fresh,
        merged,
        journaled,
        ack_ms,
        first_row_ms,
        rows,
    })
}

/// Every failure counter of a daemon life must read zero.
fn check_metrics(report: &mut Report, snap: &Snapshot) {
    for name in [
        "jobs_failed_total",
        "job_retries_total",
        "worker_crashes_total",
        "job_timeouts_total",
    ] {
        let v = snap.counter(name);
        report.check(v == 0, || format!("daemon {name} = {v}"));
    }
}

/// Re-simulates a few rows in process and compares their IPC exactly.
fn check_sampled_rows(
    report: &mut Report,
    registry: &TraceRegistry,
    grids: &[(SweepGrid, ResultRow)],
) {
    for (grid, row) in grids {
        let spec = grid.plan().ok().and_then(|specs| {
            specs
                .into_iter()
                .find(|s| format!("{:016x}", s.stable_hash()) == row.hash)
        });
        let ipc = spec.as_ref().and_then(|s| {
            registry.get(&s.trace).map(|t| {
                System::new(s.cfg)
                    .run_with_warmup(&t.workload, s.warmup, s.insts)
                    .ipc()
            })
        });
        report.check(ipc == Some(row.ipc), || {
            format!(
                "{} {}: served ipc {} != in-process {ipc:?}",
                row.trace, row.llc, row.ipc
            )
        });
    }
}

/// The measured sweeps of one run, and what they returned.
struct Session {
    setup_s: f64,
    grids: Vec<SweepGrid>,
    sweeps: Vec<SweepOutcome>,
    /// Each daemon life's metrics after its warm sweep and at its end.
    snapshots: Vec<(Snapshot, Snapshot)>,
    samples: Vec<(SweepGrid, ResultRow)>,
}

/// Runs `sweeps` measured sweeps over [`LIVES`] daemon lives on the
/// journal in `journal`, with `submit` as the client.
fn session(
    report: &mut Report,
    plan: &Plan,
    sweeps: u64,
    journal: &Path,
    probe: &mut HostProbe,
    submit: fn(&str, &SweepGrid) -> Result<SweepOutcome, String>,
) -> Result<Session, String> {
    let mut s = Session {
        setup_s: 0.0,
        grids: Vec::new(),
        sweeps: Vec::new(),
        snapshots: Vec::new(),
        samples: Vec::new(),
    };
    let per_life = sweeps.div_ceil(LIVES);
    let mut k = 0;
    for life in 0..LIVES {
        probe.calibrate();
        let t = Instant::now();
        let mut live = Live::start(journal)?;
        let warm = plan.warm_sweep(life);
        let warmed = submit(&live.addr, &warm);
        check_sweep(report, &warm, &warmed);
        s.setup_s += t.elapsed().as_secs_f64();
        let warm_snap = client::metrics(&live.addr)?;
        for _ in 0..per_life.min(sweeps - k) {
            probe.calibrate();
            let grid = plan.sweep(k);
            let out = submit(&live.addr, &grid);
            check_sweep(report, &grid, &out);
            if let Ok(out) = out {
                if let (0, Some(row)) = (k % 16, out.rows.first()) {
                    s.samples.push((grid.clone(), row.clone()));
                }
                s.sweeps.push(out);
            }
            s.grids.push(grid);
            k += 1;
        }
        let snap = client::metrics(&live.addr)?;
        check_metrics(report, &snap);
        s.snapshots.push((warm_snap, snap));
        live.shutdown()?;
    }
    Ok(s)
}

/// Jobs of every sweep counted by one of their sources.
fn jobs_by(sweeps: &[SweepOutcome], source: fn(&SweepOutcome) -> u64) -> u64 {
    sweeps.iter().map(source).sum()
}

/// The untraced run: end-to-end metrics only.
pub fn run(seed: u64, seconds: u64, probe: &mut HostProbe) -> Result<Report, String> {
    let mut report = Report::default();
    let t = Instant::now();
    let registry = TraceRegistry::paper_default();
    let plan = Plan::new(&registry, seed);
    let registry_s = t.elapsed().as_secs_f64();
    let sweeps = ((seconds as f64 / SWEEP_NOMINAL_S).round() as u64).max(LIVES);
    let dir = TempDir::new()?;
    let s = session(
        &mut report,
        &plan,
        sweeps,
        &dir.0.join("journal"),
        probe,
        submit,
    )?;
    check_sampled_rows(&mut report, &registry, &s.samples);

    let latencies: Vec<f64> = s.sweeps.iter().map(|o| o.latency_ms).collect();
    let rows: usize = s.sweeps.iter().map(|o| o.rows.len()).sum();
    for (grid, row) in &s.samples {
        println!(
            "counters: {} {:<12} ipc={} llc_hit_rate={} insts={} (budget {})",
            row.trace, row.llc, row.ipc, row.llc_hit_rate, row.instructions, grid.insts
        );
    }
    println!(
        "serve-sweeps: {} sweeps over {LIVES} daemon lives and {} traces, {rows} rows \
         ({} simulated, {} merged, {} journal)",
        s.sweeps.len(),
        plan.traces.len(),
        jobs_by(&s.sweeps, |o| o.fresh),
        jobs_by(&s.sweeps, |o| o.merged),
        jobs_by(&s.sweeps, |o| o.journaled)
    );
    report.push(
        "throughput_per_s",
        rows as f64 / (latencies.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    push_latency(&mut report, "sweep, submit to done", &latencies);
    report.push("setup_s", registry_s + s.setup_s, "s");
    Ok(report)
}

/// Sum and count of a daemon histogram over the measured sweeps of
/// every life (warm sweeps excluded).
fn hist_delta(snaps: &[(Snapshot, Snapshot)], name: &str) -> (f64, u64) {
    let (mut sum, mut count) = (0u64, 0u64);
    for (warm, end) in snaps {
        if let (Some(a), Some(b)) = (warm.histogram(name), end.histogram(name)) {
            sum += b.sum - a.sum;
            count += b.hist.count() - a.hist.count();
        }
    }
    (sum as f64, count)
}

/// Replays the journal layer alone: every measured job's result, read
/// back from the session's journal, is checkpointed into fresh journals.
/// Returns the mean ms per recorded job.
fn replay_journal(report: &mut Report, dir: &Path, grids: &[SweepGrid]) -> Result<f64, String> {
    let source = Journal::open(dir.join("journal")).map_err(|e| format!("journal: {e}"))?;
    let mut seen = HashSet::new();
    let mut jobs = Vec::new();
    for spec in grids.iter().flat_map(|g| g.plan().unwrap_or_default()) {
        if seen.insert(spec.stable_hash()) {
            let result = source.load(&spec);
            report.check(result.is_some(), || {
                format!("{}: not in the journal", spec.key())
            });
            jobs.extend(result.map(|r| (spec, r)));
        }
    }
    let record = |journal: &Journal| {
        for (spec, result) in &jobs {
            journal.record(spec, result, JobTiming::sim_only(0.0), 0, None, None);
        }
    };
    let open = |i: usize| {
        Journal::open(dir.join(format!("replay-{i}"))).map_err(|e| format!("journal: {e}"))
    };
    let probe_journal = open(0)?;
    let t = Instant::now();
    record(&probe_journal);
    let reps = reps_for(t.elapsed().as_secs_f64());
    let journals = (1..=reps).map(open).collect::<Result<Vec<_>, _>>()?;
    let per_rep = time_reps(reps, |r| record(&journals[r]));
    Ok(per_rep * 1e3 / jobs.len().max(1) as f64)
}

/// The traced run: the same session with a timing client, the daemon's
/// own phase split from its metrics snapshots, and the journal layer
/// replayed alone.
pub fn trace(report: &mut Report, seed: u64) -> Result<(), String> {
    let registry = TraceRegistry::paper_default();
    let plan = Plan::new(&registry, seed);
    let mut probe = HostProbe::new();
    let dir = TempDir::new()?;
    let s = session(
        report,
        &plan,
        48,
        &dir.0.join("journal"),
        &mut probe,
        submit_timed,
    )?;
    check_sampled_rows(report, &registry, &s.samples);
    let journal_ms = replay_journal(report, &dir.0, &s.grids)?;

    let total_ms: f64 = s.sweeps.iter().map(|o| o.latency_ms).sum();
    let rows: usize = s.sweeps.iter().map(|o| o.rows.len()).sum();
    let (queue_sum, jobs) = hist_delta(&s.snapshots, "job_queue_wait_ms");
    let (sim_sum, _) = hist_delta(&s.snapshots, "job_sim_ms");
    let counter = |name: &str| {
        s.snapshots
            .iter()
            .map(|(_, x)| x.counter(name))
            .sum::<u64>()
    };
    let ack: Vec<f64> = s.sweeps.iter().map(|o| o.ack_ms).collect();
    let first: Vec<f64> = s.sweeps.iter().map(|o| o.first_row_ms).collect();
    let jobs_f = jobs.max(1) as f64;
    report.push("serve.submit_ack_ms", median(&ack), "ms");
    report.push("serve.first_row_ms", median(&first), "ms");
    report.push("serve.queue_wait_ms_mean", queue_sum / jobs_f, "ms");
    report.push("serve.sim_ms_mean", sim_sum / jobs_f, "ms");
    report.push("runner.journal_ms_mean", journal_ms, "ms");
    report.push(
        "serve.overhead_ms_per_job",
        (total_ms - sim_sum) / jobs_f,
        "ms",
    );
    report.push(
        "serve.journal_row_share",
        jobs_by(&s.sweeps, |o| o.journaled) as f64 / rows as f64,
        "ratio",
    );
    report.push("serve.worker_busy_share", sim_sum / total_ms, "ratio");
    report.push(
        "serve.jobs_failed",
        counter("jobs_failed_total") as f64,
        "count",
    );
    report.push(
        "serve.job_retries",
        counter("job_retries_total") as f64,
        "count",
    );
    let ack_sum: f64 = ack.iter().sum();
    let journal_sum = journal_ms * jobs_f;
    println!(
        "ledger serve-sweeps: ack {ack_sum:.1} ms + sim {sim_sum:.1} ms + journal {journal_sum:.1} ms \
         vs client {total_ms:.1} ms over {} sweeps, {jobs} simulated jobs",
        s.sweeps.len()
    );
    report.push(
        "ledger.serve-sweeps.sum_over_e2e",
        (ack_sum + sim_sum + journal_sum) / total_ms,
        "ratio",
    );
    Ok(())
}
