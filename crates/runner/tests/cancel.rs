//! Cancel at the engine level: raising the `Runner::with_cancel` flag
//! mid-sweep stops new work, lets in-flight jobs finish and journal,
//! and leaves a journal that a resumed sweep completes.

use bv_runner::{json, JobSpec, Runner};
use bv_sim::{LlcKind, SimConfig};
use bv_trace::TraceRegistry;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn a_raised_cancel_flag_stops_the_sweep_and_leaves_it_resumable() {
    let registry = TraceRegistry::paper_default();
    let jobs: Vec<JobSpec> = registry
        .all()
        .take(12)
        .flat_map(|t| {
            [LlcKind::Uncompressed, LlcKind::BaseVictim]
                .map(|kind| JobSpec::new(&t.name, SimConfig::single_thread(kind), 2_000, 20_000))
        })
        .collect();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cancel-journal");
    let _ = std::fs::remove_dir_all(&dir);
    let runs = dir.join("runs.jsonl");

    // Raise the flag as soon as the first job is journaled.
    let flag = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (flag, runs) = (Arc::clone(&flag), runs.clone());
        std::thread::spawn(move || {
            while !std::fs::read_to_string(&runs).is_ok_and(|t| !t.is_empty()) {
                std::thread::sleep(Duration::from_millis(1));
            }
            flag.store(true, Ordering::SeqCst);
        })
    };
    let report = Runner::new(2)
        .with_journal(&dir, false)
        .expect("open journal")
        .with_cancel(flag)
        .execute(&registry, &jobs);
    watcher.join().expect("watcher");

    assert!(
        report.canceled > 0,
        "the flag must skip pending jobs: {report:?}"
    );
    assert_eq!(
        report.simulated + report.canceled,
        report.unique,
        "{report:?}"
    );
    // Every simulated job, and only those, is journaled exactly once.
    let text = std::fs::read_to_string(&runs).expect("runs.jsonl");
    let hashes: Vec<String> = text
        .lines()
        .map(|line| {
            let v = json::parse(line).expect("valid runs.jsonl line");
            v.get("hash")
                .and_then(json::Value::as_str)
                .expect("hash")
                .to_string()
        })
        .collect();
    assert_eq!(hashes.len(), report.simulated);
    assert_eq!(hashes.iter().collect::<HashSet<_>>().len(), hashes.len());

    // Resume simulates exactly what the cancel skipped.
    let resumed = Runner::new(2)
        .with_journal(&dir, true)
        .expect("reopen journal")
        .execute(&registry, &jobs);
    assert_eq!(resumed.simulated, report.canceled, "{resumed:?}");
    assert_eq!(resumed.from_journal, report.simulated);

    let _ = std::fs::remove_dir_all(&dir);
}
