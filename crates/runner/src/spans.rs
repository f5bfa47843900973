//! Per-job wall-clock spans and their Chrome trace-event export.
//!
//! A sweep's wall-clock behavior — worker imbalance, one straggler trace
//! serializing the tail, checkpoint hits collapsing a re-run — is
//! invisible in `runs.jsonl` aggregates. The job [`Engine`](crate::Engine)
//! records one [`Span`] per simulated job, labeled with the job's
//! `[trace_id]`; [`chrome_trace_json`] renders them in the Chrome
//! trace-event format (the `{"traceEvents":[...]}` object form), which
//! loads directly in Perfetto / `chrome://tracing` with one track per
//! worker.
//!
//! Spans measure the *orchestration*, not the simulation: timestamps are
//! host wall clock and differ run to run. They are deliberately kept out
//! of the deterministic journal records.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::ObjWriter;

/// One completed unit of wall-clock work on a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What ran (trace + organization for simulation jobs).
    pub label: String,
    /// The worker thread that ran it (0 for the serial path).
    pub worker: usize,
    /// Start, in microseconds since the log's origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl Span {
    /// End, in microseconds since the log's origin.
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// A thread-safe span accumulator with a fixed time origin.
#[derive(Debug)]
pub(crate) struct SpanLog {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose time origin is now.
    #[must_use]
    pub(crate) fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a span that started at `start` and just ended.
    pub(crate) fn record(&self, label: &str, worker: usize, start: Instant) {
        let end = Instant::now();
        let span = Span {
            label: label.to_string(),
            worker,
            start_us: start.duration_since(self.t0).as_micros() as u64,
            dur_us: end.duration_since(start).as_micros() as u64,
        };
        self.spans.lock().expect("span log").push(span);
    }

    /// Removes and returns every recorded span, ordered by start time.
    #[must_use]
    pub(crate) fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span log"));
        spans.sort_by_key(|s| s.start_us);
        spans
    }
}

/// Renders spans as a Chrome trace-event JSON document (the
/// `{"traceEvents":[...]}` object form Perfetto accepts). Each span is a
/// complete (`"ph":"X"`) event; workers map to `tid` so each gets its
/// own track.
#[must_use]
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut events = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            events.push(',');
        }
        let mut ev = ObjWriter::new();
        ev.str("name", &s.label)
            .str("cat", "job")
            .str("ph", "X")
            .u64("ts", s.start_us)
            .u64("dur", s.dur_us)
            .u64("pid", 1)
            .u64("tid", s.worker as u64);
        events.push_str(&ev.finish());
    }
    events.push(']');
    let mut out = ObjWriter::new();
    out.raw("traceEvents", &events).str("displayTimeUnit", "ms");
    let mut text = out.finish();
    text.push('\n');
    text
}

/// One line summarizing worker utilization: total busy time against the
/// sweep's wall-clock span, per the workers that actually ran jobs.
#[must_use]
pub fn utilization_summary(spans: &[Span]) -> String {
    if spans.is_empty() {
        return "no spans recorded".to_string();
    }
    let wall = spans.iter().map(Span::end_us).max().unwrap_or(0).max(1);
    let mut per_worker: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans {
        *per_worker.entry(s.worker).or_default() += s.dur_us;
    }
    let busy: u64 = per_worker.values().sum();
    let workers = per_worker.len().max(1);
    format!(
        "{} span(s) on {} worker(s): wall {:.2}s, busy {:.2}s, utilization {:.0}%",
        spans.len(),
        workers,
        wall as f64 / 1e6,
        busy as f64 / 1e6,
        100.0 * busy as f64 / (wall as f64 * workers as f64)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn sample() -> Vec<Span> {
        vec![
            Span {
                label: "trace-a base-victim".to_string(),
                worker: 0,
                start_us: 0,
                dur_us: 1000,
            },
            Span {
                label: "trace-b uncompressed".to_string(),
                worker: 1,
                start_us: 100,
                dur_us: 700,
            },
        ]
    }

    #[test]
    fn chrome_trace_is_schema_valid() {
        let text = chrome_trace_json(&sample());
        let v = json::parse(text.trim()).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        for ev in events {
            // The fields Perfetto requires of a complete event.
            assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
            assert!(ev.get("name").and_then(Value::as_str).is_some());
            assert!(ev.get("ts").and_then(Value::as_u64).is_some());
            assert!(ev.get("dur").and_then(Value::as_u64).is_some());
            assert!(ev.get("pid").and_then(Value::as_u64).is_some());
            assert!(ev.get("tid").and_then(Value::as_u64).is_some());
        }
        assert_eq!(events[1].get("tid").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn span_log_records_and_sorts() {
        let log = SpanLog::new();
        let t = Instant::now();
        log.record("b", 1, t);
        log.record("a", 0, t);
        let spans = log.take();
        assert_eq!(spans.len(), 2);
        assert!(log.take().is_empty());
        assert!(spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
    }

    #[test]
    fn utilization_summary_counts_workers() {
        let s = utilization_summary(&sample());
        assert!(s.contains("2 span(s) on 2 worker(s)"), "{s}");
        assert_eq!(utilization_summary(&[]), "no spans recorded");
    }
}
