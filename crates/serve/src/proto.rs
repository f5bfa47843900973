//! The `bvsim-serve-v1` wire protocol: line-delimited JSON over TCP.
//!
//! Every message is one JSON object on one line, stamped with
//! `"v": "bvsim-serve-v1"` and a `"kind"` discriminator. A connection
//! carries exactly one request; the response is either a single line
//! (status, ok, error) or a stream of `result` lines terminated by one
//! `done` line (submit-sweep with `wait`, stream-results).
//!
//! The encoding reuses `bv_telemetry::json` (re-exported as
//! [`bv_runner::json`]) — the same writer/parser the run journal and
//! telemetry sink use — so result lines are byte-compatible with
//! `runs.jsonl` consumers: a client can append the `result` lines it
//! receives to a local file and feed it to the same analysis scripts.

use bv_cache::PolicyKind;
use bv_metrics::{HistogramSnapshot, MetricKey, Snapshot};
use bv_runner::json::{self, ArrWriter, ObjWriter, Value};
use bv_runner::JobSpec;
pub use bv_runner::{DoneSummary, ResultRow, StatusInfo};
use bv_sim::{LlcKind, SimConfig};
use bv_telemetry::Log2Histogram;

/// The protocol version stamped into (and required on) every message.
pub const VERSION: &str = "bvsim-serve-v1";

/// A sweep submission: the Cartesian product of traces x LLC
/// organizations x replacement policies at one geometry and budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepGrid {
    /// Registry trace names.
    pub traces: Vec<String>,
    /// LLC organization names ([`LlcKind::from_name`]).
    pub llcs: Vec<String>,
    /// Replacement policy names ([`PolicyKind::from_name`]).
    pub policies: Vec<String>,
    /// LLC capacity in megabytes.
    pub llc_mb: u64,
    /// LLC associativity.
    pub ways: u64,
    /// Warmup instructions per job.
    pub warmup: u64,
    /// Measured instructions per job.
    pub insts: u64,
}

impl Default for SweepGrid {
    fn default() -> SweepGrid {
        SweepGrid {
            traces: Vec::new(),
            llcs: vec!["base-victim".to_string()],
            policies: vec!["nru".to_string()],
            llc_mb: 2,
            ways: 16,
            warmup: 1_000_000,
            insts: 1_500_000,
        }
    }
}

impl SweepGrid {
    /// Expands the grid into concrete jobs, in deterministic
    /// trace-major order, deduplicating repeated names.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown LLC or policy name, of
    /// an LLC size or associativity an organization cannot be built with,
    /// or of an empty dimension.
    pub fn plan(&self) -> Result<Vec<JobSpec>, String> {
        if self.traces.is_empty() {
            return Err("sweep grid has no traces".to_string());
        }
        let mut llcs = Vec::new();
        for name in &self.llcs {
            let kind = LlcKind::from_name(name).ok_or_else(|| {
                format!("unknown LLC kind '{name}' (expected {})", LlcKind::NAMES)
            })?;
            let bytes = kind.check_llc_size(self.llc_mb, self.ways)?;
            llcs.push((kind, bytes));
        }
        let mut policies = Vec::new();
        for name in &self.policies {
            let kind = PolicyKind::from_name(name).ok_or_else(|| {
                format!("unknown policy '{name}' (expected {})", PolicyKind::NAMES)
            })?;
            policies.push(kind);
        }
        if llcs.is_empty() || policies.is_empty() {
            return Err("sweep grid has an empty llc or policy dimension".to_string());
        }
        let mut jobs = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for trace in &self.traces {
            for &(llc, bytes) in &llcs {
                for &policy in &policies {
                    let cfg = SimConfig::single_thread(llc)
                        .with_llc_size(bytes, self.ways as usize)
                        .with_policy(policy);
                    let job = JobSpec::new(trace.clone(), cfg, self.warmup, self.insts);
                    if seen.insert(job.stable_hash()) {
                        jobs.push(job);
                    }
                }
            }
        }
        Ok(jobs)
    }

    fn render(&self) -> String {
        let mut traces = ArrWriter::new();
        for t in &self.traces {
            traces.str(t);
        }
        let mut llcs = ArrWriter::new();
        for l in &self.llcs {
            llcs.str(l);
        }
        let mut policies = ArrWriter::new();
        for p in &self.policies {
            policies.str(p);
        }
        let mut w = ObjWriter::new();
        w.raw("traces", &traces.finish())
            .raw("llcs", &llcs.finish())
            .raw("policies", &policies.finish())
            .u64("llc_mb", self.llc_mb)
            .u64("ways", self.ways)
            .u64("warmup", self.warmup)
            .u64("insts", self.insts);
        w.finish()
    }

    fn decode(v: &Value) -> Result<SweepGrid, String> {
        let strings = |key: &str| -> Result<Vec<String>, String> {
            let arr = v
                .get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("grid missing array '{key}'"))?;
            arr.iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("grid '{key}' has a non-string element"))
                })
                .collect()
        };
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("grid missing number '{key}'"))
        };
        Ok(SweepGrid {
            traces: strings("traces")?,
            llcs: strings("llcs")?,
            policies: strings("policies")?,
            llc_mb: num("llc_mb")?,
            ways: num("ways")?,
            warmup: num("warmup")?,
            insts: num("insts")?,
        })
    }
}

/// A client-to-daemon request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a sweep; with `wait` the same connection then streams the
    /// ticket's results to completion.
    Submit {
        /// The grid to plan and enqueue.
        grid: SweepGrid,
        /// Stream results on this connection after the `submitted` line.
        wait: bool,
    },
    /// Report daemon-wide queue/worker counters.
    Status,
    /// Stream an existing ticket's results (past and future) to
    /// completion.
    Stream {
        /// The ticket to follow.
        ticket: u64,
    },
    /// Cancel a ticket: its pending jobs are dropped unless another
    /// ticket also wants them; running jobs finish.
    Cancel {
        /// The ticket to cancel.
        ticket: u64,
    },
    /// Arm worker `worker` to die when it claims its next job — the
    /// deterministic mid-sweep crash used by the recovery tests and CI.
    KillWorker {
        /// Worker index to arm.
        worker: u64,
    },
    /// Fetch a point-in-time snapshot of the daemon's metric registry —
    /// what `bvsim top` refreshes on.
    Metrics,
    /// Drain every queued job, then stop accepting and exit.
    Shutdown,
}

impl Request {
    /// The wire `kind` discriminator — also the label value used by the
    /// daemon's per-tenant request counters.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit-sweep",
            Request::Status => "status",
            Request::Stream { .. } => "stream-results",
            Request::Cancel { .. } => "cancel",
            Request::KillWorker { .. } => "kill-worker",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }

    /// Renders the request as one protocol line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("v", VERSION);
        match self {
            Request::Submit { grid, wait } => {
                w.str("kind", "submit-sweep")
                    .raw("grid", &grid.render())
                    .raw("wait", if *wait { "true" } else { "false" });
            }
            Request::Status => {
                w.str("kind", "status");
            }
            Request::Stream { ticket } => {
                w.str("kind", "stream-results").u64("ticket", *ticket);
            }
            Request::Cancel { ticket } => {
                w.str("kind", "cancel").u64("ticket", *ticket);
            }
            Request::KillWorker { worker } => {
                w.str("kind", "kill-worker").u64("worker", *worker);
            }
            Request::Metrics => {
                w.str("kind", "metrics");
            }
            Request::Shutdown => {
                w.str("kind", "shutdown");
            }
        }
        w.finish()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax, version, or schema
    /// problem.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let v = parse_versioned(line)?;
        match v.req_str("kind")? {
            "submit-sweep" => Ok(Request::Submit {
                grid: SweepGrid::decode(v.get("grid").ok_or("submit-sweep missing 'grid'")?)?,
                wait: matches!(v.get("wait"), Some(Value::Bool(true))),
            }),
            "status" => Ok(Request::Status),
            "stream-results" => Ok(Request::Stream {
                ticket: v.req_u64("ticket")?,
            }),
            "cancel" => Ok(Request::Cancel {
                ticket: v.req_u64("ticket")?,
            }),
            "kill-worker" => Ok(Request::KillWorker {
                worker: v.req_u64("worker")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request kind '{other}'")),
        }
    }
}

/// Decodes the fields of a `result` line into a row.
fn decode_row(v: &Value) -> Result<ResultRow, String> {
    Ok(ResultRow {
        ticket: v.req_u64("ticket")?,
        seq: v.req_u64("seq")?,
        trace: v.req_str("trace")?.to_string(),
        llc: v.req_str("llc")?.to_string(),
        policy: v.req_str("policy")?.to_string(),
        hash: v.req_str("hash")?.to_string(),
        ipc: v.req_f64("ipc")?,
        llc_hit_rate: v.req_f64("llc_hit_rate")?,
        comp_ratio: v.req_f64("comp_ratio")?,
        instructions: v.req_u64("instructions")?,
        wall_secs: v.req_f64("wall_secs")?,
        worker: v.req_u64("worker")?,
        attempt: v.req_u64("attempt")?,
        source: v.req_str("source")?.to_string(),
        trace_id: v.req_str("trace_id")?.to_string(),
    })
}

/// A daemon-to-client response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Acknowledges a submit: the ticket and its planning breakdown.
    Submitted {
        /// The ticket to stream or cancel with.
        ticket: u64,
        /// Unique jobs planned from the grid.
        jobs: u64,
        /// Newly enqueued by this submission.
        fresh: u64,
        /// Satisfied immediately from the journal.
        journaled: u64,
        /// Shared with earlier, still-active submissions.
        merged: u64,
    },
    /// One completed job.
    Result(ResultRow),
    /// End of a ticket's stream.
    Done(DoneSummary),
    /// Daemon-wide counters.
    Status(StatusInfo),
    /// A point-in-time copy of the daemon's metric registry.
    Metrics(Snapshot),
    /// Generic success.
    Ok {
        /// A short human-readable note.
        info: String,
    },
    /// The request failed.
    Error {
        /// What went wrong.
        error: String,
    },
}

impl Response {
    /// Renders the response as one protocol line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("v", VERSION);
        match self {
            Response::Submitted {
                ticket,
                jobs,
                fresh,
                journaled,
                merged,
            } => {
                w.str("kind", "submitted")
                    .u64("ticket", *ticket)
                    .u64("jobs", *jobs)
                    .u64("fresh", *fresh)
                    .u64("journaled", *journaled)
                    .u64("merged", *merged);
            }
            Response::Result(row) => {
                w.str("kind", "result");
                row.write_fields(&mut w);
            }
            Response::Done(d) => {
                w.str("kind", "done")
                    .u64("ticket", d.ticket)
                    .u64("jobs", d.jobs)
                    .u64("simulated", d.simulated)
                    .u64("journaled", d.journaled)
                    .u64("merged", d.merged)
                    .u64("failed", d.failed)
                    .raw("canceled", if d.canceled { "true" } else { "false" });
            }
            Response::Status(s) => {
                w.str("kind", "status")
                    .u64("workers", s.workers)
                    .u64("alive", s.alive)
                    .u64("pending", s.pending)
                    .u64("running", s.running)
                    .u64("done", s.done)
                    .u64("failed", s.failed)
                    .u64("tickets", s.tickets)
                    .u64("crashes", s.crashes)
                    .u64("retries", s.retries)
                    .u64_array("per_worker_done", &s.per_worker_done)
                    .u64("p50_ms", s.p50_ms)
                    .u64("p95_ms", s.p95_ms)
                    .u64("p99_ms", s.p99_ms);
            }
            Response::Metrics(snap) => {
                w.str("kind", "metrics");
                render_snapshot(&mut w, snap);
            }
            Response::Ok { info } => {
                w.str("kind", "ok").str("info", info);
            }
            Response::Error { error } => {
                w.str("kind", "error").str("error", error);
            }
        }
        w.finish()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax, version, or schema
    /// problem.
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let v = parse_versioned(line)?;
        match v.req_str("kind")? {
            "submitted" => Ok(Response::Submitted {
                ticket: v.req_u64("ticket")?,
                jobs: v.req_u64("jobs")?,
                fresh: v.req_u64("fresh")?,
                journaled: v.req_u64("journaled")?,
                merged: v.req_u64("merged")?,
            }),
            "result" => Ok(Response::Result(decode_row(&v)?)),
            "done" => Ok(Response::Done(DoneSummary {
                ticket: v.req_u64("ticket")?,
                jobs: v.req_u64("jobs")?,
                simulated: v.req_u64("simulated")?,
                journaled: v.req_u64("journaled")?,
                merged: v.req_u64("merged")?,
                failed: v.req_u64("failed")?,
                canceled: matches!(v.get("canceled"), Some(Value::Bool(true))),
            })),
            "status" => Ok(Response::Status(StatusInfo {
                workers: v.req_u64("workers")?,
                alive: v.req_u64("alive")?,
                pending: v.req_u64("pending")?,
                running: v.req_u64("running")?,
                done: v.req_u64("done")?,
                failed: v.req_u64("failed")?,
                tickets: v.req_u64("tickets")?,
                crashes: v.req_u64("crashes")?,
                retries: v.req_u64("retries")?,
                per_worker_done: v
                    .get("per_worker_done")
                    .and_then(Value::as_arr)
                    .ok_or("status missing 'per_worker_done'")?
                    .iter()
                    .map(|x| x.as_u64().ok_or_else(|| "bad worker count".to_string()))
                    .collect::<Result<_, _>>()?,
                p50_ms: v.req_u64("p50_ms")?,
                p95_ms: v.req_u64("p95_ms")?,
                p99_ms: v.req_u64("p99_ms")?,
            })),
            "metrics" => Ok(Response::Metrics(decode_snapshot(&v)?)),
            "ok" => Ok(Response::Ok {
                info: v.req_str("info")?.to_string(),
            }),
            "error" => Ok(Response::Error {
                error: v.req_str("error")?.to_string(),
            }),
            other => Err(format!("unknown response kind '{other}'")),
        }
    }
}

/// Renders a metric series' identity: its name plus labels as a flat
/// `[k, v, k, v]` array (objects would need escape-order guarantees the
/// hand-rolled writer does not promise for arbitrary label keys).
fn render_key(w: &mut ObjWriter, key: &MetricKey) {
    let mut labels = ArrWriter::new();
    for (k, v) in &key.labels {
        labels.str(k);
        labels.str(v);
    }
    w.str("name", &key.name).raw("labels", &labels.finish());
}

fn render_snapshot(w: &mut ObjWriter, snap: &Snapshot) {
    let mut counters = ArrWriter::new();
    for (key, value) in &snap.counters {
        let mut o = ObjWriter::new();
        render_key(&mut o, key);
        o.u64("value", *value);
        counters.raw(&o.finish());
    }
    let mut gauges = ArrWriter::new();
    for (key, value) in &snap.gauges {
        let mut o = ObjWriter::new();
        render_key(&mut o, key);
        o.u64("value", *value);
        gauges.raw(&o.finish());
    }
    let mut hists = ArrWriter::new();
    for (key, h) in &snap.histograms {
        let mut o = ObjWriter::new();
        render_key(&mut o, key);
        o.u64_array("buckets", &h.hist.buckets()[..])
            .u64("sum", h.sum);
        hists.raw(&o.finish());
    }
    w.raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        .raw("histograms", &hists.finish());
}

fn decode_key(v: &Value) -> Result<MetricKey, String> {
    let name = v.req_str("name")?.to_string();
    let arr = v
        .get("labels")
        .and_then(Value::as_arr)
        .ok_or("metric series missing 'labels'")?;
    if arr.len() % 2 != 0 {
        return Err(format!("metric '{name}' has an odd label array"));
    }
    let mut labels = Vec::with_capacity(arr.len() / 2);
    for pair in arr.chunks(2) {
        let k = pair[0].as_str().ok_or("non-string label key")?;
        let val = pair[1].as_str().ok_or("non-string label value")?;
        labels.push((k.to_string(), val.to_string()));
    }
    Ok(MetricKey { name, labels })
}

fn decode_series(v: &Value, key: &str) -> Result<Vec<(MetricKey, u64)>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("metrics snapshot missing '{key}'"))?
        .iter()
        .map(|s| Ok((decode_key(s)?, s.req_u64("value")?)))
        .collect()
}

fn decode_snapshot(v: &Value) -> Result<Snapshot, String> {
    let mut histograms = Vec::new();
    for s in v
        .get("histograms")
        .and_then(Value::as_arr)
        .ok_or("metrics snapshot missing 'histograms'")?
    {
        let buckets: Vec<u64> = s
            .get("buckets")
            .and_then(Value::as_arr)
            .ok_or("histogram missing 'buckets'")?
            .iter()
            .map(|x| x.as_u64().ok_or_else(|| "bad bucket count".to_string()))
            .collect::<Result<_, _>>()?;
        let hist = Log2Histogram::from_buckets(&buckets)
            .ok_or_else(|| format!("histogram has {} buckets", buckets.len()))?;
        histograms.push((
            decode_key(s)?,
            HistogramSnapshot {
                hist,
                sum: s.req_u64("sum")?,
            },
        ));
    }
    Ok(Snapshot {
        counters: decode_series(v, "counters")?,
        gauges: decode_series(v, "gauges")?,
        histograms,
    })
}

fn parse_versioned(line: &str) -> Result<Value, String> {
    let v = json::parse(line.trim())?;
    match v.get("v").and_then(Value::as_str) {
        Some(VERSION) => Ok(v),
        Some(other) => Err(format!("unsupported protocol version '{other}'")),
        None => Err("message missing protocol version 'v'".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SweepGrid {
        SweepGrid {
            traces: vec!["specint.mcf.07".into(), "client.octane.00".into()],
            llcs: vec!["base-victim".into(), "uncompressed".into()],
            policies: vec!["nru".into()],
            llc_mb: 2,
            ways: 16,
            warmup: 1000,
            insts: 2000,
        }
    }

    #[test]
    fn every_request_kind_round_trips() {
        let requests = vec![
            Request::Submit {
                grid: grid(),
                wait: true,
            },
            Request::Submit {
                grid: grid(),
                wait: false,
            },
            Request::Status,
            Request::Stream { ticket: 7 },
            Request::Cancel { ticket: 9 },
            Request::KillWorker { worker: 3 },
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one line per message: {line}");
            let back = Request::parse_line(&line).expect("parse");
            assert_eq!(back, req, "round trip failed for {line}");
        }
    }

    #[test]
    fn every_response_kind_round_trips() {
        let responses = vec![
            Response::Submitted {
                ticket: 1,
                jobs: 4,
                fresh: 2,
                journaled: 1,
                merged: 1,
            },
            Response::Result(ResultRow {
                ticket: 1,
                seq: 0,
                trace: "specint.mcf.07".into(),
                llc: "base-victim".into(),
                policy: "nru".into(),
                hash: "00ff00ff00ff00ff".into(),
                ipc: 1.25,
                llc_hit_rate: 0.5,
                comp_ratio: 1.75,
                instructions: 2000,
                wall_secs: 0.125,
                worker: 2,
                attempt: 1,
                source: "simulated".into(),
                trace_id: "00000001-00ff00ff".into(),
            }),
            Response::Done(DoneSummary {
                ticket: 1,
                jobs: 4,
                simulated: 2,
                journaled: 1,
                merged: 1,
                failed: 0,
                canceled: false,
            }),
            Response::Done(DoneSummary {
                ticket: 2,
                jobs: 4,
                simulated: 0,
                journaled: 0,
                merged: 0,
                failed: 1,
                canceled: true,
            }),
            Response::Status(StatusInfo {
                workers: 4,
                alive: 3,
                pending: 10,
                running: 3,
                done: 20,
                failed: 1,
                tickets: 5,
                crashes: 1,
                retries: 2,
                per_worker_done: vec![5, 7, 8, 0],
                p50_ms: 120,
                p95_ms: 500,
                p99_ms: 900,
            }),
            {
                // A metrics snapshot built through a real registry, so
                // the wire shape tracks whatever the registry produces.
                let reg = bv_metrics::Registry::new();
                reg.counter("jobs_completed_total", &[("source", "simulated")])
                    .add(4);
                reg.counter(
                    "client_requests_total",
                    &[("tenant", "127.0.0.1"), ("kind", "submit")],
                )
                .inc();
                reg.gauge("queue_depth", &[]).set(3);
                let h = reg.histogram("job_total_ms", &[]);
                h.observe(12);
                h.observe(900);
                Response::Metrics(reg.snapshot())
            },
            Response::Ok {
                info: "worker 3 armed".into(),
            },
            Response::Error {
                error: "unknown ticket 42".into(),
            },
        ];
        for resp in responses {
            let line = resp.to_line();
            assert!(!line.contains('\n'), "one line per message: {line}");
            let back = Response::parse_line(&line).expect("parse");
            assert_eq!(back, resp, "round trip failed for {line}");
        }
    }

    #[test]
    fn version_is_enforced() {
        assert!(Request::parse_line("{\"kind\":\"status\"}")
            .unwrap_err()
            .contains("version"));
        let wrong = "{\"v\":\"bvsim-serve-v0\",\"kind\":\"status\"}";
        assert!(Request::parse_line(wrong).unwrap_err().contains("v0"));
        assert!(Response::parse_line(wrong).is_err());
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let line = format!("{{\"v\":{:?},\"kind\":\"frobnicate\"}}", VERSION);
        assert!(Request::parse_line(&line)
            .unwrap_err()
            .contains("frobnicate"));
        assert!(Response::parse_line(&line)
            .unwrap_err()
            .contains("frobnicate"));
    }

    #[test]
    fn grid_plans_the_cartesian_product_once() {
        let jobs = grid().plan().expect("plan");
        assert_eq!(jobs.len(), 4, "2 traces x 2 llcs x 1 policy");
        let mut doubled = grid();
        doubled.traces.push("specint.mcf.07".into());
        assert_eq!(
            doubled.plan().expect("plan").len(),
            4,
            "duplicates collapse"
        );
        for job in &jobs {
            assert_eq!(job.warmup, 1000);
            assert_eq!(job.insts, 2000);
            assert_eq!(job.cfg.llc.size_bytes(), 2 * 1024 * 1024);
        }
    }

    #[test]
    fn grid_rejects_unknown_names() {
        let mut bad = grid();
        bad.llcs = vec!["warp-drive".into()];
        assert!(bad.plan().unwrap_err().contains("warp-drive"));
        let mut bad = grid();
        bad.policies = vec!["mru".into()];
        assert!(bad.plan().unwrap_err().contains("mru"));
        let mut bad = grid();
        bad.traces.clear();
        assert!(bad.plan().is_err());
    }

    #[test]
    fn grid_rejects_geometries_that_cannot_be_built() {
        for (llc_mb, ways) in [(2, 0), (3, 16), (8, 128), (u64::MAX, 16), (2, u64::MAX)] {
            let mut bad = grid();
            (bad.llc_mb, bad.ways) = (llc_mb, ways);
            assert!(bad.plan().is_err(), "{llc_mb} MB {ways}-way planned");
        }
        // Two-tag doubles the tag array: 64 ways fit base-victim, not it.
        let mut wide = grid();
        (wide.llc_mb, wide.ways) = (8, 64);
        assert_eq!(wide.plan().expect("plan").len(), 4);
        wide.llcs = vec!["two-tag".into()];
        assert!(wide.plan().unwrap_err().contains("two-tag"));
    }
}
