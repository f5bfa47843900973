//! The sweep-serving daemon: a TCP front end (and an optional HTTP
//! `/metrics` endpoint) over one [`Engine`].
//!
//! The engine owns everything transport-free — the job table with
//! cross-client dedup, the FIFO queue and worker shard, claim tokens,
//! the crash/timeout monitor with retry and respawn, tickets, journal
//! appends, spans and job-path metrics (see `bv_runner::Engine`). This
//! module accepts connections, reads one bounded request line from
//! each, and answers it from the engine: a submit plans its grid and
//! opens a ticket, a stream follows a ticket's rows, and a shutdown
//! drains the engine.

use crate::proto::{Request, Response, SweepGrid};
use bv_metrics::Counter;
use bv_runner::{Engine, EngineConfig, Journal};
use bv_trace::TraceRegistry;
use std::io::{BufRead as _, BufReader, BufWriter, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest request line the daemon reads, in bytes (newline
/// excluded). Requests are a few hundred bytes; a longer line is
/// answered with an error instead of growing without bound.
const MAX_FRAME: usize = 1 << 20;

/// How a daemon is started (`bvsim serve`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads in the simulation shard.
    pub workers: usize,
    /// Checkpoint journal directory (shared with `bvsim sweep`).
    pub journal: PathBuf,
    /// A job running longer than this is presumed hung: it is re-queued
    /// and the eventual straggler result is dropped.
    pub timeout: Duration,
    /// Re-queues allowed per job after its first attempt.
    pub retries: u32,
    /// Write the actual bound address here (atomically) once listening —
    /// how scripts find an ephemeral port.
    pub port_file: Option<PathBuf>,
    /// Export per-job worker spans as Chrome trace-event JSON here on
    /// shutdown.
    pub spans: Option<PathBuf>,
    /// Record live metrics (counters, gauges, latency histograms).
    /// When false the registry is inert: every record call is a no-op
    /// and snapshots are empty.
    pub metrics: bool,
    /// Serve Prometheus text exposition over plain HTTP (`GET
    /// /metrics`) on this port (0 for an ephemeral one) at the same
    /// host address as the protocol listener.
    pub metrics_port: Option<u16>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            journal: PathBuf::from("results/journal"),
            timeout: Duration::from_secs(300),
            retries: 3,
            port_file: None,
            spans: None,
            metrics: true,
            metrics_port: None,
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    registry: TraceRegistry,
    engine: Engine,
    rows_streamed: Counter,
    metrics_addr: Option<SocketAddr>,
    /// Stops the accept loops.
    stop: AtomicBool,
    local_addr: SocketAddr,
}

/// A running daemon: the handle the `bvsim serve` command (and the
/// integration tests) hold while the service is live.
pub struct Daemon {
    shared: Arc<Shared>,
    listener: JoinHandle<()>,
    metrics_http: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener, opens the journal, starts the engine (worker
    /// shard and monitor), and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound or the
    /// journal directory cannot be opened.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let journal = Journal::open(&cfg.journal)?;
        if let Some(summary) = journal.recovery().summary() {
            eprintln!("serve: {summary}");
        }
        // Bind the exposition endpoint on the same host as the protocol
        // listener, before writing port files, so a script that sees the
        // files can scrape immediately.
        let metrics_listener = cfg
            .metrics_port
            .map(|port| TcpListener::bind(SocketAddr::new(local_addr.ip(), port)))
            .transpose()?;
        let metrics_addr = metrics_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;
        if let Some(path) = &cfg.port_file {
            write_atomic(path, &local_addr.to_string())?;
            if let Some(addr) = metrics_addr {
                // A sibling `<port-file>.metrics` file for scrape scripts.
                let sibling = PathBuf::from(format!("{}.metrics", path.display()));
                write_atomic(&sibling, &addr.to_string())?;
            }
        }
        let engine = Engine::start(EngineConfig {
            workers: cfg.workers,
            journal: Some(Arc::new(journal)),
            resume: true,
            timeout: cfg.timeout,
            retries: cfg.retries,
            metrics: cfg.metrics,
            telemetry: None,
        });
        let shared = Arc::new(Shared {
            rows_streamed: engine.registry().counter("rows_streamed_total", &[]),
            cfg,
            registry: TraceRegistry::paper_default(),
            engine,
            metrics_addr,
            stop: AtomicBool::new(false),
            local_addr,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared, handle_conn))
        };
        let metrics_http = metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared, serve_scrape))
        });
        Ok(Daemon {
            shared,
            listener: accept,
            metrics_http,
        })
    }

    /// The bound address of the HTTP `/metrics` endpoint, when one was
    /// configured (resolves port 0 to the real port).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// The address actually bound (resolves `:0` to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Blocks until a `shutdown` request drains the daemon, then writes
    /// the span export (if configured) and returns its worker
    /// utilization summary.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the span export cannot be written.
    pub fn wait(self) -> std::io::Result<Option<String>> {
        let _ = self.listener.join();
        if let Some(h) = self.metrics_http {
            let _ = h.join();
        }
        // Join the engine's threads so every span is recorded before
        // export.
        self.shared.engine.shutdown();
        let Some(path) = &self.shared.cfg.spans else {
            return Ok(None);
        };
        let spans = self.shared.engine.take_spans();
        std::fs::write(path, bv_runner::chrome_trace_json(&spans))?;
        Ok(Some(bv_runner::utilization_summary(&spans)))
    }
}

/// Writes `text` to `path` through a temp file, so no reader sees half.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Serves one listener until shutdown: each connection gets a thread
/// running `handle` on it.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handle: fn(&Shared, TcpStream) -> std::io::Result<()>,
) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            if let Err(e) = handle(&shared, stream) {
                // A client hanging up mid-stream is routine, not fatal.
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    eprintln!("serve: connection error: {e}");
                }
            }
        });
    }
}

/// The Prometheus exposition endpoint: a deliberately tiny HTTP/1.0
/// server — read the request line, answer `GET /metrics` with the
/// text-format registry snapshot, 404 anything else, close. One
/// request per connection, exactly like the protocol listener.
fn serve_scrape(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    let mut line = String::new();
    BufReader::new(stream.try_clone()?)
        .take(MAX_FRAME as u64)
        .read_line(&mut line)?;
    let mut out = BufWriter::new(stream);
    let target = line.split_whitespace().nth(1).unwrap_or("");
    if line.starts_with("GET ") && target == "/metrics" {
        let body = bv_metrics::render_exposition(&shared.engine.metrics());
        write!(
            out,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
    } else {
        write!(out, "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n")?;
    }
    out.flush()
}

fn handle_conn(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    let tenant = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.ip().to_string());
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    (&mut reader)
        .take(MAX_FRAME as u64 + 1)
        .read_line(&mut line)?;
    let mut out = BufWriter::new(stream);
    let reply = |out: &mut BufWriter<TcpStream>, resp: &Response| -> std::io::Result<()> {
        writeln!(out, "{}", resp.to_line())?;
        out.flush()
    };
    if line.len() > MAX_FRAME && !line.ends_with('\n') {
        let error = format!("frame longer than {MAX_FRAME} bytes");
        reply(&mut out, &Response::Error { error })?;
        // Read (and drop) what the client is still sending, bounded in
        // bytes and time, so closing does not reset the connection
        // under the reply.
        out.get_ref().shutdown(Shutdown::Write)?;
        reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(1)))?;
        let _ = std::io::copy(
            &mut reader.take(16 * MAX_FRAME as u64),
            &mut std::io::sink(),
        );
        return Ok(());
    }
    let request = match Request::parse_line(&line) {
        Ok(r) => r,
        Err(error) => return reply(&mut out, &Response::Error { error }),
    };
    let engine = &shared.engine;
    engine
        .registry()
        .counter(
            "client_requests_total",
            &[("tenant", &tenant), ("kind", request.kind())],
        )
        .inc();
    let answer = |out: &mut BufWriter<TcpStream>, r: Result<String, String>| match r {
        Ok(info) => reply(out, &Response::Ok { info }),
        Err(error) => reply(out, &Response::Error { error }),
    };
    match request {
        Request::Submit { grid, wait } => match submit(shared, &grid) {
            Ok((ticket, resp)) => {
                reply(&mut out, &resp)?;
                if wait {
                    stream_ticket(shared, &mut out, ticket)?;
                }
                Ok(())
            }
            Err(error) => reply(&mut out, &Response::Error { error }),
        },
        Request::Status => reply(&mut out, &Response::Status(engine.status())),
        Request::Metrics => reply(&mut out, &Response::Metrics(engine.metrics())),
        Request::Stream { ticket } => stream_ticket(shared, &mut out, ticket),
        Request::Cancel { ticket } => answer(&mut out, engine.cancel(ticket)),
        Request::KillWorker { worker } => answer(&mut out, engine.kill_worker(worker as usize)),
        Request::Shutdown => {
            engine.drain();
            answer(&mut out, Ok("drained; daemon exiting".to_string()))?;
            // Unblock the accept loops so the listener threads exit.
            shared.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(shared.local_addr);
            if let Some(addr) = shared.metrics_addr {
                let _ = TcpStream::connect(addr);
            }
            Ok(())
        }
    }
}

/// Plans a grid, resolves its workloads, and submits it to the engine.
/// Returns the new ticket and its ack.
fn submit(shared: &Shared, grid: &SweepGrid) -> Result<(u64, Response), String> {
    let mut jobs = Vec::new();
    for spec in grid.plan()? {
        let trace = shared
            .registry
            .get(&spec.trace)
            .ok_or_else(|| format!("trace '{}' not in the registry", spec.trace))?;
        jobs.push((spec, trace.workload.clone()));
    }
    let s = shared.engine.submit(jobs)?;
    let ack = Response::Submitted {
        ticket: s.ticket,
        jobs: s.jobs,
        fresh: s.fresh,
        journaled: s.journaled,
        merged: s.merged,
    };
    Ok((s.ticket, ack))
}

/// Streams a ticket's rows (past and future) followed by its `done`
/// line, as the engine publishes them.
fn stream_ticket(
    shared: &Shared,
    out: &mut BufWriter<TcpStream>,
    ticket: u64,
) -> std::io::Result<()> {
    let mut cursor = 0usize;
    // Tickets are never forgotten, so only an unknown one has no entry.
    while let Some((rows, done)) = shared.engine.next(ticket, cursor, false) {
        for row in rows {
            writeln!(out, "{}", Response::Result(row).to_line())?;
            shared.rows_streamed.inc();
            cursor += 1;
        }
        if let Some(done) = done {
            writeln!(out, "{}", Response::Done(done).to_line())?;
            return out.flush();
        }
        out.flush()?;
    }
    let error = format!("unknown ticket {ticket}");
    writeln!(out, "{}", Response::Error { error }.to_line())?;
    out.flush()
}
