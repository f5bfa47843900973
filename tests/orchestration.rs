//! Orchestration guarantees exercised through the facade crate, so the
//! default `cargo test` run covers them: parallel execution is
//! bit-identical to serial, and a journaled sweep resumes without
//! re-simulating completed configurations.

use base_victim::runner::{JobSpec, Runner};
use base_victim::{LlcKind, SimConfig, TraceRegistry};

fn tiny_jobs(registry: &TraceRegistry) -> Vec<JobSpec> {
    registry
        .all()
        .take(3)
        .flat_map(|t| {
            [LlcKind::Uncompressed, LlcKind::BaseVictim]
                .map(|kind| JobSpec::new(&t.name, SimConfig::single_thread(kind), 2_000, 4_000))
        })
        .collect()
}

#[test]
fn parallel_execution_is_deterministic() {
    let registry = TraceRegistry::paper_default();
    let jobs = tiny_jobs(&registry);
    let serial = Runner::new(1);
    let parallel = Runner::new(4);
    serial.execute(&registry, &jobs);
    parallel.execute(&registry, &jobs);
    for job in &jobs {
        assert_eq!(serial.get(job), parallel.get(job), "job {}", job.key());
    }
}

#[test]
fn journaled_sweep_resumes_with_zero_resimulation() {
    let registry = TraceRegistry::paper_default();
    let jobs = tiny_jobs(&registry);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("facade-journal");
    let _ = std::fs::remove_dir_all(&dir);

    {
        let first = Runner::new(2).with_journal(&dir, false).expect("journal");
        assert_eq!(first.execute(&registry, &jobs).simulated, jobs.len());
    }
    let resumed = Runner::new(2).with_journal(&dir, true).expect("journal");
    let report = resumed.execute(&registry, &jobs);
    assert_eq!(report.simulated, 0);
    assert_eq!(report.from_journal, jobs.len());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runs_journal_records_duration_and_resume_preserves_it() {
    use base_victim::runner::json;

    let registry = TraceRegistry::paper_default();
    let jobs = tiny_jobs(&registry);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("facade-durations");
    let _ = std::fs::remove_dir_all(&dir);

    {
        let first = Runner::new(2).with_journal(&dir, false).expect("journal");
        assert_eq!(first.execute(&registry, &jobs).simulated, jobs.len());
    }
    let runs_path = dir.join("runs.jsonl");
    let runs = std::fs::read_to_string(&runs_path).expect("runs.jsonl");
    assert_eq!(runs.lines().count(), jobs.len());
    for line in runs.lines() {
        let v = json::parse(line).expect("valid runs.jsonl line");
        let field = |key: &str| v.get(key).and_then(json::Value::as_u64);
        let ms = field("duration_ms").expect("duration_ms field");
        let queue_ms = field("queue_ms").expect("queue_ms field");
        let sim_ms = field("sim_ms").expect("sim_ms field");
        let wall = v
            .get("wall_secs")
            .and_then(json::Value::as_f64)
            .expect("wall_secs field");
        // duration_ms is the phase sum: the wait in the engine's queue
        // plus the simulation.
        assert_eq!(ms, queue_ms + sim_ms);
        assert_eq!(sim_ms, (wall * 1000.0).round() as u64);
    }

    // Resume serves every job from checkpoints; the observability stream
    // is untouched, so the recorded durations survive verbatim.
    let resumed = Runner::new(2).with_journal(&dir, true).expect("journal");
    assert_eq!(resumed.execute(&registry, &jobs).from_journal, jobs.len());
    let after = std::fs::read_to_string(&runs_path).expect("runs.jsonl");
    assert_eq!(after, runs, "resume must preserve journaled durations");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_sweep_writes_one_file_per_simulated_job() {
    let registry = TraceRegistry::paper_default();
    let jobs = tiny_jobs(&registry);
    let base = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("facade-telemetry");
    let journal_dir = base.join("journal");
    let tel_dir = base.join("telemetry");
    let _ = std::fs::remove_dir_all(&base);

    {
        let first = Runner::new(2)
            .with_journal(&journal_dir, false)
            .expect("journal")
            .with_telemetry(&tel_dir, 1_000)
            .expect("telemetry dir");
        assert_eq!(first.execute(&registry, &jobs).simulated, jobs.len());
    }

    // One telemetry file per simulated job, named by the job hash, and
    // each runs.jsonl line carries the path of the file its run wrote.
    let runs = std::fs::read_to_string(journal_dir.join("runs.jsonl")).expect("runs.jsonl");
    assert_eq!(runs.lines().count(), jobs.len());
    for job in &jobs {
        let path = tel_dir.join(format!("{:016x}.telemetry.jsonl", job.stable_hash()));
        assert!(path.is_file(), "missing telemetry file {}", path.display());
        let text = std::fs::read_to_string(&path).expect("telemetry file");
        let report =
            base_victim::telemetry::TelemetryReport::from_jsonl(&text).expect("valid telemetry");
        assert!(report.series.rows() > 0, "empty series for {}", job.key());
        assert!(runs.contains(&path.display().to_string()));
    }

    // Resume satisfies every job from the journal without re-simulating,
    // so a deleted telemetry file stays deleted: telemetry describes the
    // run that actually happened, never a checkpoint replay.
    let victim = tel_dir.join(format!("{:016x}.telemetry.jsonl", jobs[0].stable_hash()));
    std::fs::remove_file(&victim).expect("delete one telemetry file");
    let resumed = Runner::new(2)
        .with_journal(&journal_dir, true)
        .expect("journal")
        .with_telemetry(&tel_dir, 1_000)
        .expect("telemetry dir");
    let report = resumed.execute(&registry, &jobs);
    assert_eq!(report.simulated, 0);
    assert!(!victim.exists(), "resume must not re-write telemetry");

    let _ = std::fs::remove_dir_all(&base);
}
