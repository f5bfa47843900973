//! End-to-end daemon tests over real TCP connections: cross-client
//! dedup, worker-crash recovery, journal-backed restart, and cancel.

use bv_serve::{client, Daemon, Request, Response, ResultRow, ServeConfig, SweepGrid};
use bv_trace::TraceRegistry;
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bv-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn start(journal: PathBuf, workers: usize) -> Daemon {
    Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        journal,
        timeout: Duration::from_secs(120),
        retries: 2,
        port_file: None,
        spans: None,
        metrics: true,
        metrics_port: None,
    })
    .expect("start daemon")
}

fn trace_names(n: usize) -> Vec<String> {
    TraceRegistry::paper_default()
        .all()
        .take(n)
        .map(|t| t.name.clone())
        .collect()
}

fn tiny_grid(traces: Vec<String>) -> SweepGrid {
    SweepGrid {
        traces,
        llcs: vec!["uncompressed".into(), "base-victim".into()],
        policies: vec!["nru".into()],
        llc_mb: 2,
        ways: 16,
        warmup: 1_000,
        insts: 2_000,
    }
}

fn shutdown(addr: &str) {
    match client::control(addr, &Request::Shutdown).expect("shutdown request") {
        Response::Ok { .. } => {}
        other => panic!("shutdown rejected: {other:?}"),
    }
}

fn runs_lines(journal: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(journal.join("runs.jsonl")).unwrap_or_default();
    text.lines().map(str::to_string).collect()
}

#[test]
fn concurrent_overlapping_sweeps_simulate_each_config_once() {
    let dir = tmp_dir("overlap");
    let journal = dir.join("journal");
    let daemon = start(journal.clone(), 3);
    let addr = daemon.addr().to_string();

    // Grids A (traces 0,1) and B (traces 1,2) overlap on trace 1: the
    // daemon must simulate the 2 shared configs once while both clients
    // receive them.
    let names = trace_names(3);
    let grid_a = tiny_grid(vec![names[0].clone(), names[1].clone()]);
    let grid_b = tiny_grid(vec![names[1].clone(), names[2].clone()]);

    let addr_b = addr.clone();
    let b = std::thread::spawn(move || {
        let mut rows: Vec<ResultRow> = Vec::new();
        let outcome =
            client::submit(&addr_b, &grid_b, true, |r| rows.push(r.clone())).expect("submit B");
        (outcome, rows)
    });
    let mut rows_a: Vec<ResultRow> = Vec::new();
    let outcome_a =
        client::submit(&addr, &grid_a, true, |r| rows_a.push(r.clone())).expect("submit A");
    let (outcome_b, rows_b) = b.join().expect("client B");

    // Each client sees its complete sweep.
    assert_eq!(outcome_a.jobs, 4);
    assert_eq!(outcome_b.jobs, 4);
    assert_eq!(rows_a.len(), 4, "client A misses rows: {rows_a:?}");
    assert_eq!(rows_b.len(), 4, "client B misses rows: {rows_b:?}");
    let done_a = outcome_a.done.expect("A streamed to completion");
    let done_b = outcome_b.done.expect("B streamed to completion");
    assert_eq!(done_a.failed + done_b.failed, 0);

    // The union is 6 unique configs; runs.jsonl must hold exactly one
    // simulation per config — no duplicates from the overlap.
    let unique: HashSet<&str> = rows_a
        .iter()
        .chain(&rows_b)
        .map(|r| r.hash.as_str())
        .collect();
    assert_eq!(unique.len(), 6);
    match client::control(&addr, &Request::Status).expect("status") {
        Response::Status(s) => {
            assert_eq!(s.done, 6, "status: {s:?}");
            assert_eq!(s.pending + s.running, 0);
            assert_eq!(s.crashes, 0);
            assert_eq!(s.tickets, 2);
        }
        other => panic!("unexpected status reply: {other:?}"),
    }
    shutdown(&addr);
    daemon.wait().expect("daemon exit");
    assert_eq!(runs_lines(&journal).len(), 6, "one journal line per config");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_jobs_requeue_and_sweep_completes() {
    let dir = tmp_dir("kill");
    let journal = dir.join("journal");
    let daemon = start(journal.clone(), 2);
    let addr = daemon.addr().to_string();

    // Arm worker 0 to panic after claiming its next job, BEFORE the
    // submit: the crash lands mid-sweep deterministically.
    match client::control(&addr, &Request::KillWorker { worker: 0 }).expect("arm kill") {
        Response::Ok { .. } => {}
        other => panic!("kill-worker rejected: {other:?}"),
    }

    let grid = tiny_grid(trace_names(2));
    let mut rows: Vec<ResultRow> = Vec::new();
    let outcome = client::submit(&addr, &grid, true, |r| rows.push(r.clone())).expect("submit");
    let done = outcome.done.expect("streamed to completion");

    // Zero lost: all 4 configs complete despite the crash.
    assert_eq!(rows.len(), 4, "lost jobs after worker crash: {rows:?}");
    assert_eq!(done.failed, 0);
    // The re-queued job records attempt 2 (first claim died).
    assert!(
        rows.iter().any(|r| r.attempt >= 2),
        "expected a retried job: {rows:?}"
    );
    match client::control(&addr, &Request::Status).expect("status") {
        Response::Status(s) => {
            assert_eq!(s.crashes, 1, "status: {s:?}");
            assert!(s.retries >= 1);
            assert_eq!(s.done, 4);
            assert!(s.workers >= 3, "a replacement worker was spawned: {s:?}");
            assert!(s.alive >= 2);
        }
        other => panic!("unexpected status reply: {other:?}"),
    }
    shutdown(&addr);
    daemon.wait().expect("daemon exit");
    // Zero duplicates: exactly one runs.jsonl line per unique config.
    let lines = runs_lines(&journal);
    assert_eq!(lines.len(), 4, "duplicate or lost journal lines: {lines:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_restart_resimulates_nothing_journaled() {
    let dir = tmp_dir("restart");
    let journal = dir.join("journal");
    let grid = tiny_grid(trace_names(2));

    let daemon = start(journal.clone(), 2);
    let addr = daemon.addr().to_string();
    let outcome = client::submit(&addr, &grid, true, |_| {}).expect("first submit");
    assert_eq!(outcome.fresh, 4);
    assert_eq!(outcome.journaled, 0);
    shutdown(&addr);
    daemon.wait().expect("first daemon exit");

    // Same journal, fresh process: every config is served from disk.
    let daemon = start(journal.clone(), 2);
    let addr = daemon.addr().to_string();
    let mut rows: Vec<ResultRow> = Vec::new();
    let outcome =
        client::submit(&addr, &grid, true, |r| rows.push(r.clone())).expect("second submit");
    assert_eq!(outcome.fresh, 0, "restart re-queued journaled work");
    assert_eq!(outcome.journaled, 4);
    let done = outcome.done.expect("streamed");
    assert_eq!(done.simulated, 0, "restart re-simulated journaled work");
    assert_eq!(done.journaled, 4);
    assert!(rows.iter().all(|r| r.source == "journal"), "{rows:?}");
    shutdown(&addr);
    daemon.wait().expect("second daemon exit");
    // The journal still holds exactly the original 4 simulations.
    assert_eq!(runs_lines(&journal).len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One HTTP/1.0 scrape of `GET /metrics` against the daemon's
/// exposition endpoint; returns the response body.
fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect /metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send scrape");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read scrape");
    let (head, body) = text.split_once("\r\n\r\n").expect("http response split");
    assert!(head.starts_with("HTTP/1.0 200"), "scrape failed: {head}");
    body.to_string()
}

#[test]
fn metrics_and_trace_ids_flow_through_protocol_and_http() {
    let dir = tmp_dir("metrics");
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        journal: dir.join("journal"),
        timeout: Duration::from_secs(120),
        retries: 2,
        port_file: None,
        spans: None,
        metrics: true,
        metrics_port: Some(0),
    })
    .expect("start daemon");
    let addr = daemon.addr().to_string();
    let http = daemon.metrics_addr().expect("metrics endpoint bound");

    let names = trace_names(3);
    let mut rows: Vec<ResultRow> = Vec::new();
    let outcome = client::submit(
        &addr,
        &tiny_grid(vec![names[0].clone(), names[1].clone()]),
        true,
        |r| {
            rows.push(r.clone());
        },
    )
    .expect("submit");
    assert_eq!(rows.len(), 4);

    // Every row carries a trace id minted at submit, unique per job and
    // joinable to the job identity (its tail is the low hash bits).
    let ids: HashSet<&str> = rows.iter().map(|r| r.trace_id.as_str()).collect();
    assert_eq!(ids.len(), 4, "trace ids must be unique: {rows:?}");
    for r in &rows {
        let (seq, tail) = r.trace_id.split_once('-').expect("trace id shape");
        assert_eq!(seq.len(), 6, "bad trace id {:?}", r.trace_id);
        assert_eq!(
            tail,
            &r.hash[8..],
            "trace id tail must be the low hash bits"
        );
    }

    // The protocol snapshot and the HTTP exposition must agree.
    let snap = client::metrics(&addr).expect("metrics snapshot");
    assert_eq!(snap.counter("jobs_completed_total"), 4);
    assert_eq!(snap.counter("rows_streamed_total"), 4);
    assert_eq!(snap.counter("tickets_opened_total"), 1);
    assert_eq!(snap.gauge("workers_alive"), 2);
    assert_eq!(snap.gauge("queue_depth"), 0);
    let h = snap
        .histogram("job_total_ms")
        .expect("job latency histogram");
    assert_eq!(h.hist.count(), 4);
    let body = scrape(http);
    assert!(
        body.contains("jobs_completed_total{source=\"simulated\"} 4"),
        "exposition missing completions:\n{body}"
    );
    assert!(body.contains("# TYPE job_total_ms histogram"), "{body}");
    assert!(
        body.contains("client_requests_total{kind=\"submit-sweep\",tenant=\"127.0.0.1\"} 1"),
        "exposition missing tenant counters:\n{body}"
    );

    // Status percentiles come from the same histogram and are monotone.
    match client::control(&addr, &Request::Status).expect("status") {
        Response::Status(s) => {
            assert!(
                s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms,
                "status: {s:?}"
            );
        }
        other => panic!("unexpected status reply: {other:?}"),
    }

    // Scrape-twice delta: more work moves the counters, and the second
    // snapshot's delta against the first counts exactly the new jobs.
    client::submit(&addr, &tiny_grid(vec![names[2].clone()]), true, |_| {}).expect("submit 2");
    let snap2 = client::metrics(&addr).expect("second snapshot");
    assert_eq!(snap2.counter_delta("jobs_completed_total", &snap), 2);
    assert_eq!(snap2.counter("tickets_opened_total"), 2);
    let body2 = scrape(http);
    assert!(
        body2.contains("jobs_completed_total{source=\"simulated\"} 6"),
        "second scrape stale:\n{body2}"
    );

    let _ = outcome;
    shutdown(&addr);
    daemon.wait().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unbuildable_geometry_is_rejected_at_submit_without_crashing_workers() {
    let dir = tmp_dir("geometry");
    let daemon = start(dir.join("journal"), 1);
    let addr = daemon.addr().to_string();
    // 0 ways fails the geometry rules; 128 ways is a valid geometry that
    // no set engine can hold.
    for (llc_mb, ways) in [(2, 0), (8, 128)] {
        let mut grid = tiny_grid(trace_names(1));
        (grid.llc_mb, grid.ways) = (llc_mb, ways);
        let req = Request::Submit { grid, wait: true };
        match client::control(&addr, &req).expect("daemon answers") {
            Response::Error { error } => assert!(error.contains("ways"), "{error}"),
            other => panic!("{ways}-way grid accepted: {other:?}"),
        }
    }
    match client::control(&addr, &Request::Status).expect("status") {
        Response::Status(s) => {
            assert_eq!(
                (s.crashes, s.retries, s.tickets),
                (0, 0, 0),
                "status: {s:?}"
            );
        }
        other => panic!("unexpected status reply: {other:?}"),
    }
    assert_eq!(
        client::metrics(&addr)
            .expect("metrics")
            .counter("worker_crashes_total"),
        0
    );
    shutdown(&addr);
    daemon.wait().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_metrics_leave_snapshots_empty_but_serve_results() {
    let dir = tmp_dir("nometrics");
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        journal: dir.join("journal"),
        timeout: Duration::from_secs(120),
        retries: 2,
        port_file: None,
        spans: None,
        metrics: false,
        metrics_port: None,
    })
    .expect("start daemon");
    let addr = daemon.addr().to_string();
    let outcome = client::submit(&addr, &tiny_grid(trace_names(1)), true, |_| {}).expect("submit");
    assert_eq!(outcome.done.expect("streamed").simulated, 2);
    let snap = client::metrics(&addr).expect("metrics snapshot");
    assert_eq!(snap.counter("jobs_completed_total"), 0);
    assert!(snap.histogram("job_total_ms").is_none());
    match client::control(&addr, &Request::Status).expect("status") {
        Response::Status(s) => {
            assert_eq!((s.p50_ms, s.p95_ms, s.p99_ms), (0, 0, 0), "status: {s:?}");
            assert_eq!(s.done, 2);
        }
        other => panic!("unexpected status reply: {other:?}"),
    }
    shutdown(&addr);
    daemon.wait().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_drops_pending_jobs_and_done_reports_it() {
    let dir = tmp_dir("cancel");
    let daemon = start(dir.join("journal"), 1);
    let addr = daemon.addr().to_string();

    // A wide grid on one worker guarantees pending jobs exist when the
    // cancel lands.
    let mut grid = tiny_grid(trace_names(8));
    grid.insts = 50_000;
    let outcome = client::submit(&addr, &grid, false, |_| {}).expect("submit");
    assert_eq!(outcome.done, None, "no-wait submit returns immediately");
    match client::control(
        &addr,
        &Request::Cancel {
            ticket: outcome.ticket,
        },
    )
    .expect("cancel")
    {
        Response::Ok { info } => assert!(info.contains("canceled"), "{info}"),
        other => panic!("cancel rejected: {other:?}"),
    }
    let done = client::watch(&addr, outcome.ticket, |_| {}).expect("watch canceled ticket");
    assert!(done.canceled);
    assert!(
        done.simulated < outcome.jobs,
        "cancel should skip pending jobs: {done:?}"
    );
    // Unknown tickets are rejected cleanly.
    assert!(client::watch(&addr, 999, |_| {}).is_err());
    shutdown(&addr);
    daemon.wait().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends raw bytes as one request, half-closes, and reads the reply.
fn raw_request(addr: &str, bytes: &[u8]) -> Response {
    use std::io::{BufRead as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send frame");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut line = String::new();
    std::io::BufReader::new(stream)
        .read_line(&mut line)
        .expect("read reply");
    Response::parse_line(&line).expect("a protocol line")
}

#[test]
fn hostile_frames_get_errors_and_the_daemon_keeps_serving() {
    let dir = tmp_dir("frames");
    let daemon = start(dir.join("journal"), 2);
    let addr = daemon.addr().to_string();

    // A status request whose extra field opens 200,000 arrays.
    let nested = format!(
        "{{\"v\":\"bvsim-serve-v1\",\"kind\":\"status\",\"x\":{}}}\n",
        "[".repeat(200_000)
    );
    match raw_request(&addr, nested.as_bytes()) {
        Response::Error { error } => {
            assert!(error.starts_with("nesting deeper than 128"), "{error}")
        }
        other => panic!("deep nesting accepted: {other:?}"),
    }
    // A 2 MiB line with no newline.
    match raw_request(&addr, &vec![b'x'; 2 << 20]) {
        Response::Error { error } => assert_eq!(error, "frame longer than 1048576 bytes"),
        other => panic!("oversized frame accepted: {other:?}"),
    }

    // The daemon still serves a sweep, and no worker died.
    let outcome = client::submit(&addr, &tiny_grid(trace_names(1)), true, |_| {}).expect("submit");
    assert_eq!(outcome.done.expect("streamed").simulated, 2);
    assert_eq!(
        client::metrics(&addr)
            .expect("metrics")
            .counter("worker_crashes_total"),
        0
    );
    shutdown(&addr);
    daemon.wait().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}
