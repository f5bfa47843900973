//! The persistent run journal: a checkpoint store (one JSON record per
//! completed run) plus an append-only JSONL observability stream.
//!
//! Layout under the journal directory (default `results/journal/`):
//!
//! * `<hash>.json` — one checkpoint per completed `(trace, config,
//!   budget)` job, written atomically (temp file + rename) from the
//!   worker thread that finished it, so a killed sweep loses at most the
//!   jobs that were in flight.
//! * `runs.jsonl` — one line per completed job with the headline metrics
//!   (IPC, hit rate, compression ratio, wall-clock, worker id), for
//!   tailing a live sweep and for post-hoc analysis.
//!
//! Checkpoints embed the full canonical job key and are validated
//! against it at load time, so a hash collision or a record from an
//! older incompatible schema is ignored (and re-simulated) rather than
//! trusted.
//!
//! ## Crash hardening
//!
//! `runs.jsonl` must survive its writer dying at any instant (Ctrl-C, a
//! killed worker process, a full disk):
//!
//! * appends are **line-atomic** — each record is rendered complete with
//!   its trailing newline and handed to the kernel in one `write_all`
//!   call on an `O_APPEND` handle, so concurrent writers and crashes can
//!   only ever leave a *trailing* partial line, never interleaved bytes;
//! * [`Journal::open`] runs a recovery scan before the first append: an
//!   unterminated trailing line is completed in place when it still
//!   parses (the writer died between `write` and nothing — the data is
//!   whole) or truncated away when it does not, and either way the event
//!   is reported via [`Journal::recovery`] instead of poisoning every
//!   later read of the stream.

use crate::job::JobSpec;
use crate::json::{self, ObjWriter};
use bv_compress::{CompressionStats, SEGMENTS_PER_LINE};
use bv_core::LlcStats;
use bv_sim::{DramStats, RunResult};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Schema version stamped into every record; bump when the serialized
/// shape changes so stale checkpoints are re-simulated, not misread.
const SCHEMA: u64 = 1;

/// Wall-clock phase split for one completed job: how long it waited
/// before a worker claimed it (zero outside serve mode, where jobs run
/// as soon as a pool thread is free) and how long the simulation itself
/// ran. `runs.jsonl` records both (`queue_ms` / `sim_ms`) so a slow row
/// can be attributed to a loaded daemon rather than a slow simulation;
/// `duration_ms` stays their sum for readers of the old single field.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobTiming {
    /// Seconds spent queued, waiting for a worker claim.
    pub queue_secs: f64,
    /// Seconds the simulation ran on its worker.
    pub sim_secs: f64,
}

impl JobTiming {
    /// A timing with no queue phase — the plain-sweep path.
    #[must_use]
    pub fn sim_only(sim_secs: f64) -> JobTiming {
        JobTiming {
            queue_secs: 0.0,
            sim_secs,
        }
    }

    /// The queue phase in whole milliseconds.
    #[must_use]
    pub fn queue_ms(&self) -> u64 {
        (self.queue_secs * 1000.0).round() as u64
    }

    /// The simulation phase in whole milliseconds.
    #[must_use]
    pub fn sim_ms(&self) -> u64 {
        (self.sim_secs * 1000.0).round() as u64
    }
}

/// What the `runs.jsonl` recovery scan found (and did) when the journal
/// was opened. A previous writer dying mid-append leaves an unterminated
/// trailing line; recovery repairs or drops it so the stream stays
/// parseable line by line, and this report says which happened.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunsRecovery {
    /// Complete, parseable records in the stream after recovery.
    pub rows: usize,
    /// Complete lines that are not valid JSON. They are tolerated in
    /// place (skipped by readers), never deleted: mid-file damage is
    /// evidence worth keeping.
    pub corrupt: usize,
    /// The trailing line lacked its newline but still parsed as a full
    /// record; recovery terminated it in place, losing nothing.
    pub repaired_tail: bool,
    /// A torn (unterminated, unparseable) trailing line was truncated
    /// away; its bytes are reported here for the log.
    pub torn_tail: Option<String>,
}

impl RunsRecovery {
    /// True when the stream needed no intervention at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0 && !self.repaired_tail && self.torn_tail.is_none()
    }

    /// A one-line human-readable summary of what recovery did, or `None`
    /// when the stream was clean.
    #[must_use]
    pub fn summary(&self) -> Option<String> {
        if self.is_clean() {
            return None;
        }
        let mut parts = Vec::new();
        if let Some(tail) = &self.torn_tail {
            let snippet: String = tail.chars().take(40).collect();
            parts.push(format!("dropped a torn trailing line ({snippet:?}…)"));
        }
        if self.repaired_tail {
            parts.push("completed an unterminated trailing line".to_string());
        }
        if self.corrupt > 0 {
            parts.push(format!("tolerating {} corrupt line(s)", self.corrupt));
        }
        Some(format!(
            "runs.jsonl recovery: {} ({} intact row(s) kept)",
            parts.join(", "),
            self.rows
        ))
    }
}

/// Scans `runs.jsonl` and fixes its tail: an unterminated final line is
/// completed when it parses and truncated when it does not. A missing
/// file is a clean (empty) stream.
fn recover_runs(path: &Path) -> std::io::Result<RunsRecovery> {
    let mut rec = RunsRecovery::default();
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(rec),
        Err(e) => return Err(e),
    };
    // Everything up to and including the last newline is the committed
    // prefix; anything after it is a tail some writer never finished.
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    if keep < bytes.len() {
        let tail = String::from_utf8_lossy(&bytes[keep..]).into_owned();
        if json::parse(tail.trim()).is_ok() {
            // The record is whole — only the newline went missing.
            let mut f = fs::OpenOptions::new().append(true).open(path)?;
            f.write_all(b"\n")?;
            rec.repaired_tail = true;
            rec.rows += 1;
        } else {
            fs::OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(keep as u64)?;
            rec.torn_tail = Some(tail);
        }
    }
    for line in String::from_utf8_lossy(&bytes[..keep]).lines() {
        if line.trim().is_empty() {
            continue;
        }
        if json::parse(line).is_ok() {
            rec.rows += 1;
        } else {
            rec.corrupt += 1;
        }
    }
    Ok(rec)
}

/// A journal directory handle. Thread-safe: checkpoint writes go to
/// distinct files, and the JSONL stream is serialized by a mutex.
pub struct Journal {
    dir: PathBuf,
    log: Mutex<fs::File>,
    recovery: RunsRecovery,
}

impl Journal {
    /// Opens (creating if needed) a journal directory, running the
    /// `runs.jsonl` torn-tail recovery scan before the first append.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory or the JSONL
    /// stream cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let runs = dir.join("runs.jsonl");
        let recovery = recover_runs(&runs)?;
        let log = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(runs)?;
        Ok(Journal {
            dir,
            log: Mutex::new(log),
            recovery,
        })
    }

    /// The journal directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the open-time `runs.jsonl` recovery scan found.
    #[must_use]
    pub fn recovery(&self) -> &RunsRecovery {
        &self.recovery
    }

    fn checkpoint_path(&self, job: &JobSpec) -> PathBuf {
        self.dir.join(format!("{:016x}.json", job.stable_hash()))
    }

    /// Loads the checkpointed result for `job`, if one exists and its
    /// embedded key matches exactly.
    #[must_use]
    pub fn load(&self, job: &JobSpec) -> Option<RunResult> {
        let text = fs::read_to_string(self.checkpoint_path(job)).ok()?;
        let v = json::parse(&text).ok()?;
        if v.get("schema")?.as_u64()? != SCHEMA || v.get("key")?.as_str()? != job.key() {
            return None;
        }
        decode_result(&v)
    }

    /// Checkpoints a completed run and appends its observability record.
    /// `telemetry` is the epoch-sampled JSONL file this run produced, if
    /// any; its path lands in the `runs.jsonl` line so analysis scripts
    /// can join a sweep row to its time series. `trace_id` is the serve
    /// daemon's per-job correlation id (absent for plain sweeps).
    /// I/O failures are reported to stderr but do not fail the sweep: a
    /// lost checkpoint only costs a future re-simulation.
    pub fn record(
        &self,
        job: &JobSpec,
        result: &RunResult,
        timing: JobTiming,
        worker: usize,
        trace_id: Option<&str>,
        telemetry: Option<&Path>,
    ) {
        let path = self.checkpoint_path(job);
        let tmp = path.with_extension("json.tmp");
        let body = encode_result(job, result);
        let write = fs::write(&tmp, &body).and_then(|()| fs::rename(&tmp, &path));
        if let Err(e) = write {
            eprintln!("journal: failed to checkpoint {}: {e}", path.display());
        }

        let mut line = ObjWriter::new();
        line.u64("schema", SCHEMA)
            .str("trace", &job.trace)
            .str("llc", result.llc_name)
            .str("key", &job.key())
            .str("hash", &format!("{:016x}", job.stable_hash()))
            .f64("ipc", result.ipc())
            .f64("llc_hit_rate", result.llc.hit_rate())
            .f64("comp_ratio", result.compression.mean_ratio())
            .u64("dram_reads", result.dram.reads)
            .u64("instructions", result.instructions)
            .f64("wall_secs", timing.sim_secs)
            .u64("duration_ms", timing.queue_ms() + timing.sim_ms())
            .u64("queue_ms", timing.queue_ms())
            .u64("sim_ms", timing.sim_ms())
            .u64("worker", worker as u64);
        if let Some(id) = trace_id {
            line.str("trace_id", id);
        }
        if let Some(path) = telemetry {
            line.str("telemetry", &path.display().to_string());
        }
        // Render the record complete with its newline and append it in a
        // single write_all on the O_APPEND handle: a crash can then only
        // ever leave a *trailing* partial line (which the open-time
        // recovery scan repairs), never a record split mid-stream.
        let mut rendered = line.finish();
        rendered.push('\n');
        let mut log = self.log.lock().expect("journal log");
        if let Err(e) = log.write_all(rendered.as_bytes()) {
            eprintln!("journal: failed to append runs.jsonl: {e}");
        }
    }

    /// The number of checkpoint records currently on disk.
    #[must_use]
    pub fn checkpoint_count(&self) -> usize {
        fs::read_dir(&self.dir).map_or(0, |entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.len() == 21 && name.ends_with(".json")
                })
                .count()
        })
    }
}

fn encode_result(job: &JobSpec, r: &RunResult) -> String {
    let llc = &r.llc;
    let mut llc_obj = ObjWriter::new();
    llc_obj
        .u64("base_hits", llc.base_hits)
        .u64("victim_hits", llc.victim_hits)
        .u64("read_misses", llc.read_misses)
        .u64("writeback_hits", llc.writeback_hits)
        .u64("writeback_misses", llc.writeback_misses)
        .u64("prefetch_fills", llc.prefetch_fills)
        .u64("prefetch_hits", llc.prefetch_hits)
        .u64("demand_fills", llc.demand_fills)
        .u64("memory_writes", llc.memory_writes)
        .u64("back_invalidations", llc.back_invalidations)
        .u64("migrations", llc.migrations)
        .u64("partner_evictions", llc.partner_evictions)
        .u64("victim_inserts", llc.victim_inserts)
        .u64("victim_insert_failures", llc.victim_insert_failures);
    let mut dram_obj = ObjWriter::new();
    dram_obj
        .u64("reads", r.dram.reads)
        .u64("writes", r.dram.writes)
        .u64("row_hits", r.dram.row_hits)
        .u64("row_misses", r.dram.row_misses);

    let mut out = ObjWriter::new();
    out.u64("schema", SCHEMA)
        .str("key", &job.key())
        .str("trace", &job.trace)
        .str("llc_name", r.llc_name)
        .u64("instructions", r.instructions)
        .u64("cycles", r.cycles)
        .raw("llc", &llc_obj.finish())
        .raw("dram", &dram_obj.finish())
        .u64_array("compression", &r.compression.histogram())
        .u64_array("level_hits", &r.level_hits);
    out.finish()
}

fn decode_result(v: &json::Value) -> Option<RunResult> {
    let llc = v.get("llc")?;
    let dram = v.get("dram")?;
    let hist = v.get("compression")?.as_arr()?;
    if hist.len() != SEGMENTS_PER_LINE {
        return None;
    }
    let mut histogram = [0u64; SEGMENTS_PER_LINE];
    for (slot, value) in histogram.iter_mut().zip(hist) {
        *slot = value.as_u64()?;
    }
    let levels = v.get("level_hits")?.as_arr()?;
    if levels.len() != 5 {
        return None;
    }
    let mut level_hits = [0u64; 5];
    for (slot, value) in level_hits.iter_mut().zip(levels) {
        *slot = value.as_u64()?;
    }
    Some(RunResult {
        llc_name: intern_llc_name(v.get("llc_name")?.as_str()?),
        instructions: v.get("instructions")?.as_u64()?,
        cycles: v.get("cycles")?.as_u64()?,
        llc: LlcStats {
            base_hits: llc.get("base_hits")?.as_u64()?,
            victim_hits: llc.get("victim_hits")?.as_u64()?,
            read_misses: llc.get("read_misses")?.as_u64()?,
            writeback_hits: llc.get("writeback_hits")?.as_u64()?,
            writeback_misses: llc.get("writeback_misses")?.as_u64()?,
            prefetch_fills: llc.get("prefetch_fills")?.as_u64()?,
            prefetch_hits: llc.get("prefetch_hits")?.as_u64()?,
            demand_fills: llc.get("demand_fills")?.as_u64()?,
            memory_writes: llc.get("memory_writes")?.as_u64()?,
            back_invalidations: llc.get("back_invalidations")?.as_u64()?,
            migrations: llc.get("migrations")?.as_u64()?,
            partner_evictions: llc.get("partner_evictions")?.as_u64()?,
            victim_inserts: llc.get("victim_inserts")?.as_u64()?,
            victim_insert_failures: llc.get("victim_insert_failures")?.as_u64()?,
        },
        compression: CompressionStats::from_histogram(histogram),
        dram: DramStats {
            reads: dram.get("reads")?.as_u64()?,
            writes: dram.get("writes")?.as_u64()?,
            row_hits: dram.get("row_hits")?.as_u64()?,
            row_misses: dram.get("row_misses")?.as_u64()?,
        },
        level_hits,
    })
}

/// Maps a deserialized organization name back to the `&'static str` the
/// live organizations use. Unknown names (from a future organization)
/// fall back to a leaked allocation — bounded by the number of distinct
/// names, not the number of records.
fn intern_llc_name(name: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "uncompressed",
        "two-tag",
        "two-tag-ecm",
        "base-victim",
        "base-victim-ni",
        "base-victim-random-fit",
        "base-victim-lru-fit",
        "base-victim-smallest-base",
        "base-victim-compressor",
        "vsc-2x",
        "dcc",
    ];
    if let Some(&k) = KNOWN.iter().find(|&&k| k == name) {
        return k;
    }
    use std::collections::HashSet;
    use std::sync::OnceLock;
    static EXTRA: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let extra = EXTRA.get_or_init(|| Mutex::new(HashSet::new()));
    let mut extra = extra.lock().expect("intern table");
    if let Some(&k) = extra.iter().find(|&&k| k == name) {
        return k;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    extra.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bv-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn recovery_is_clean_on_missing_and_intact_streams() {
        let dir = tmp_dir("clean");
        // Absent file: clean.
        let j = Journal::open(&dir).expect("open");
        assert!(j.recovery().is_clean());
        assert_eq!(j.recovery().rows, 0);
        drop(j);
        // Two intact lines: clean, counted.
        fs::write(dir.join("runs.jsonl"), "{\"a\":1}\n{\"a\":2}\n").expect("seed");
        let j = Journal::open(&dir).expect("reopen");
        assert!(j.recovery().is_clean());
        assert_eq!(j.recovery().rows, 2);
        assert!(j.recovery().summary().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_truncated_and_reported() {
        let dir = tmp_dir("torn");
        let runs = dir.join("runs.jsonl");
        fs::write(&runs, "{\"a\":1}\n{\"a\":2}\n{\"a\":3,\"tr").expect("seed");
        let j = Journal::open(&dir).expect("open");
        let rec = j.recovery();
        assert_eq!(rec.rows, 2);
        assert_eq!(rec.torn_tail.as_deref(), Some("{\"a\":3,\"tr"));
        assert!(!rec.repaired_tail);
        assert!(rec.summary().expect("summary").contains("torn"));
        // The stream is whole again: every remaining line parses.
        let text = fs::read_to_string(&runs).expect("read back");
        assert_eq!(text, "{\"a\":1}\n{\"a\":2}\n");
        // And the *next* open sees a clean stream.
        drop(j);
        let j = Journal::open(&dir).expect("reopen");
        assert!(j.recovery().is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unterminated_but_whole_tail_is_repaired_in_place() {
        let dir = tmp_dir("repair");
        let runs = dir.join("runs.jsonl");
        fs::write(&runs, "{\"a\":1}\n{\"a\":2}").expect("seed");
        let j = Journal::open(&dir).expect("open");
        let rec = j.recovery();
        assert_eq!(rec.rows, 2, "the whole tail record is kept");
        assert!(rec.repaired_tail);
        assert!(rec.torn_tail.is_none());
        let text = fs::read_to_string(&runs).expect("read back");
        assert_eq!(text, "{\"a\":1}\n{\"a\":2}\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_stream_corruption_is_tolerated_not_deleted() {
        let dir = tmp_dir("corrupt");
        let runs = dir.join("runs.jsonl");
        fs::write(&runs, "{\"a\":1}\nnot json at all\n{\"a\":2}\n").expect("seed");
        let j = Journal::open(&dir).expect("open");
        let rec = j.recovery();
        assert_eq!((rec.rows, rec.corrupt), (2, 1));
        assert!(rec.summary().expect("summary").contains("corrupt"));
        // Evidence preserved: the damaged line is still in the file.
        let text = fs::read_to_string(&runs).expect("read back");
        assert!(text.contains("not json at all"));
        let _ = fs::remove_dir_all(&dir);
    }
}
