//! Golden end-to-end snapshots: every counter the simulator emits, for the
//! paper-guarantee sample traces under every organization `--llc` can
//! name (the headline organizations, the VSC and DCC prior-work
//! baselines, and the two-tag and Base-Victim variants), pinned
//! byte-for-byte against committed JSON files.
//!
//! Any change to the kernels, the cache organizations, or the timing model
//! that shifts a single counter fails here — the size-cache memoization and
//! the word-wise kernel rewrites must be behaviorally invisible.
//!
//! Regenerate after an *intentional* behavior change with:
//!
//! ```text
//! BV_UPDATE_GOLDENS=1 cargo test --test golden_snapshot
//! ```

use base_victim::kvcache::{run_kv, KvConfig, KvOrgKind, KvRunResult};
use base_victim::runner::json::{parse, ObjWriter, Value};
use base_victim::sim::{DramStats, MulticoreResult};
use base_victim::trace::mix::paper_mixes;
use base_victim::trace::request::RequestProfile;
use base_victim::{
    LlcKind, LlcStats, MulticoreSystem, PolicyKind, RunResult, SimConfig, System, TraceRegistry,
};
use std::path::PathBuf;

const WARMUP: u64 = 150_000;
const INSTS: u64 = 150_000;

/// Same cross-section as `paper_guarantees.rs`.
const TRACES: [&str; 7] = [
    "specfp.cactusadm.00",
    "specfp.gemsfdtd.14",
    "specint.mcf.07",
    "specint.xalancbmk.16",
    "productivity.sysmark.00",
    "client.octane.00",
    "client.speech.13",
];

/// Every organization `--llc` can name, by the name its goldens are
/// filed under.
const LLCS: [&str; 8] = [
    "uncompressed",
    "base-victim",
    "two-tag",
    "vsc-2x",
    "dcc",
    "two-tag-ecm",
    "base-victim-ni",
    "base-victim-random-fit",
];

/// Replacement-policy dimension, pinned for base-victim only: the default
/// config already runs NRU, so these files pin NRU explicitly plus SRRIP
/// (the paper's Figure 10 sensitivity study).
const POLICIES: [PolicyKind; 2] = [PolicyKind::Nru, PolicyKind::Srrip];

/// Per-thread instruction budget of the multi-program goldens.
const MP_INSTS: u64 = 100_000;

/// Organizations pinned under multi-program contention.
const MP_LLCS: [&str; 3] = ["uncompressed", "base-victim", "dcc"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

/// Renders one parsed snapshot field for a diff line.
fn render(v: Option<&Value>) -> String {
    match v {
        None => "<missing>".to_string(),
        Some(Value::Num(s)) => s.clone(),
        Some(Value::Str(s)) => format!("\"{s}\""),
        Some(Value::Arr(items)) => {
            let body: Vec<String> = items.iter().map(|i| render(Some(i))).collect();
            format!("[{}]", body.join(", "))
        }
        Some(other) => format!("{other:?}"),
    }
}

/// Explains a snapshot mismatch counter-by-counter: every key whose value
/// differs between the committed golden and the current run, with both
/// sides shown, so a one-counter drift reads as one line instead of two
/// walls of JSON. Falls back to the raw blobs if either side fails to
/// parse as an object (a corrupt golden is itself the finding).
fn describe_mismatch(want: &str, got: &str) -> String {
    let (Ok(Value::Obj(want_map)), Ok(Value::Obj(got_map))) = (parse(want), parse(got)) else {
        return format!("  golden : {want}\n  current: {got}");
    };
    let mut lines = Vec::new();
    let keys: std::collections::BTreeSet<&String> = want_map.keys().chain(got_map.keys()).collect();
    for key in keys {
        let w = want_map.get(key.as_str());
        let g = got_map.get(key.as_str());
        if w != g {
            lines.push(format!(
                "  {key}: expected {}, actual {}",
                render(w),
                render(g)
            ));
        }
    }
    if lines.is_empty() {
        // Same parsed content, different bytes (whitespace, key order):
        // still a failure, and the blobs are the only way to see why.
        return format!("  formatting-only difference\n  golden : {want}\n  current: {got}");
    }
    lines.join("\n")
}

/// Appends every shared-uncore counter: the LLC's, then the DRAM's.
fn uncore_counters(w: &mut ObjWriter, llc: &LlcStats, dram: &DramStats) {
    w.u64("base_hits", llc.base_hits)
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
        .u64("victim_insert_failures", llc.victim_insert_failures)
        .u64("dram_reads", dram.reads)
        .u64("dram_writes", dram.writes)
        .u64("dram_row_hits", dram.row_hits)
        .u64("dram_row_misses", dram.row_misses);
}

/// Every integer counter in a [`RunResult`], as one stable JSON object.
/// Floats (IPC, ratios) are derived from these and deliberately excluded.
fn snapshot(run: &RunResult) -> String {
    let mut w = ObjWriter::new();
    w.str("llc_name", run.llc_name)
        .u64("instructions", run.instructions)
        .u64("cycles", run.cycles);
    uncore_counters(&mut w, &run.llc, &run.dram);
    w.u64_array("level_hits", &run.level_hits)
        .u64_array("compression_histogram", &run.compression.histogram());
    w.finish()
}

/// Compares `got` against the committed golden `<file_stem>.json`, or
/// rewrites the golden when `update` is set. Appends a diff description
/// to `failures` on mismatch.
fn compare(file_stem: &str, got: &str, update: bool, failures: &mut Vec<String>) {
    let dir = golden_dir();
    let path = dir.join(format!("{file_stem}.json"));
    if update {
        std::fs::create_dir_all(&dir).expect("create goldens dir");
        std::fs::write(&path, format!("{got}\n")).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with BV_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if want.trim_end() != got {
        failures.push(format!(
            "{file_stem}:\n{}",
            describe_mismatch(want.trim_end(), got)
        ));
    }
}

/// Runs one single-core configuration and compares it to its golden.
fn check_one(
    cfg: SimConfig,
    trace_name: &str,
    file_stem: &str,
    registry: &TraceRegistry,
    update: bool,
    failures: &mut Vec<String>,
) {
    let trace = registry.get(trace_name).expect("sample trace in registry");
    let run = System::new(cfg).run_with_warmup(&trace.workload, WARMUP, INSTS);
    compare(file_stem, &snapshot(&run), update, failures);
}

#[test]
fn end_to_end_counters_match_committed_goldens() {
    let update = std::env::var_os("BV_UPDATE_GOLDENS").is_some();
    let registry = TraceRegistry::paper_default();
    let mut failures = Vec::new();
    for trace_name in TRACES {
        for name in LLCS {
            let kind = LlcKind::from_name(name).expect("nameable organization");
            check_one(
                SimConfig::single_thread(kind),
                trace_name,
                &format!("{trace_name}.{name}"),
                &registry,
                update,
                &mut failures,
            );
        }
        for policy in POLICIES {
            check_one(
                SimConfig::single_thread(LlcKind::BaseVictim).with_policy(policy),
                trace_name,
                &format!("{}.base-victim.{}", trace_name, policy.name()),
                &registry,
                update,
                &mut failures,
            );
        }
    }
    assert!(
        failures.is_empty(),
        "{} snapshot(s) diverged from committed goldens \
         (BV_UPDATE_GOLDENS=1 to regenerate after an intentional change):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every shared-uncore counter of a multi-program run, plus each
/// thread's IPC as its exact `f64` bit pattern (IPC is the only place
/// per-core timing shows up in a [`MulticoreResult`]).
fn mp_snapshot(run: &MulticoreResult) -> String {
    let ipc_bits: Vec<u64> = run.thread_ipc.iter().map(|ipc| ipc.to_bits()).collect();
    let mut w = ObjWriter::new();
    uncore_counters(&mut w, &run.llc, &run.dram);
    w.u64_array("thread_ipc_bits", &ipc_bits);
    w.finish()
}

/// Pins the shared-LLC path the single-core goldens cannot reach: four
/// private hierarchies contending for one LLC, where an LLC displacement
/// can back-invalidate another core's dirty line. Two paper mixes under
/// the uncompressed baseline, Base-Victim and DCC.
#[test]
fn multiprogram_counters_match_committed_goldens() {
    let update = std::env::var_os("BV_UPDATE_GOLDENS").is_some();
    let registry = TraceRegistry::paper_default();
    let mixes = paper_mixes(&registry);
    let mut failures = Vec::new();
    for mix in &mixes[..2] {
        let workloads: Vec<_> = mix
            .resolve(&registry)
            .iter()
            .map(|t| t.workload.clone())
            .collect();
        for name in MP_LLCS {
            let kind = LlcKind::from_name(name).expect("nameable organization");
            let run =
                MulticoreSystem::new(SimConfig::multi_program(kind)).run(&workloads, MP_INSTS);
            compare(
                &format!("{}.{name}", mix.name),
                &mp_snapshot(&run),
                update,
                &mut failures,
            );
        }
    }
    assert!(
        failures.is_empty(),
        "{} multi-program snapshot(s) diverged from committed goldens \
         (BV_UPDATE_GOLDENS=1 to regenerate after an intentional change):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every integer counter the kv tier emits, as one stable JSON object.
/// Same exclusion rule as [`snapshot`]: floats are derived and left out.
fn kv_snapshot(run: &KvRunResult) -> String {
    let mut w = ObjWriter::new();
    w.str("org", run.org.name())
        .str("profile", &run.profile)
        .u64("budget", run.budget)
        .u64("requests", run.requests)
        .u64("warmup", run.warmup)
        .u64("seed", run.seed)
        .u64("gets", run.stats.gets)
        .u64("base_hits", run.stats.base_hits)
        .u64("victim_hits", run.stats.victim_hits)
        .u64("misses", run.stats.misses)
        .u64("puts", run.stats.puts)
        .u64("admitted", run.stats.admitted)
        .u64("bypassed", run.stats.bypassed)
        .u64("evictions", run.stats.evictions)
        .u64("victim_inserts", run.stats.victim_inserts)
        .u64("victim_insert_failures", run.stats.victim_insert_failures)
        .u64("victim_evictions", run.stats.victim_evictions)
        .u64("victim_overflow_drops", run.stats.victim_overflow_drops)
        .u64("admitted_bytes", run.stats.admitted_bytes)
        .u64(
            "admitted_compressed_bytes",
            run.stats.admitted_compressed_bytes,
        )
        .u64("resident_bytes", run.occupancy.resident_bytes)
        .u64("logical_bytes", run.occupancy.logical_bytes)
        .u64("entries", run.occupancy.entries)
        .u64("victim_bytes", run.occupancy.victim_bytes)
        .u64("victim_entries", run.occupancy.victim_entries);
    w.finish()
}

fn kv_config(org: KvOrgKind, dist: &str) -> KvConfig {
    let mut cfg = KvConfig::new(org, RequestProfile::by_name(dist).expect("preset profile"));
    cfg.budget = 256 * 1024;
    cfg.warmup = 5_000;
    cfg.requests = 15_000;
    cfg
}

/// Pins the kv tier the same way: 3 organizations x 3 request profiles,
/// every counter byte-for-byte. The kv tier shares the BDI kernel with
/// the LLC, so a kernel change that slips past the LLC goldens (e.g. one
/// that only shifts sizes for the kv chunk-synthesis pattern) still
/// trips here.
#[test]
fn kv_counters_match_committed_goldens() {
    let update = std::env::var_os("BV_UPDATE_GOLDENS").is_some();
    let mut failures = Vec::new();
    for dist in RequestProfile::NAMES {
        for org in KvOrgKind::ALL {
            let run = run_kv(&kv_config(org, dist));
            compare(
                &format!("kv.{dist}.{}", org.name()),
                &kv_snapshot(&run),
                update,
                &mut failures,
            );
        }
    }
    assert!(
        failures.is_empty(),
        "{} kv snapshot(s) diverged from committed goldens \
         (BV_UPDATE_GOLDENS=1 to regenerate after an intentional change):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A diverged snapshot must name each drifted counter with both values —
/// never dump two JSON blobs for the reader to eyeball.
#[test]
fn mismatch_reports_each_differing_counter() {
    let want = r#"{"a":1,"b":2,"s":"x","arr":[1,2]}"#;
    let got = r#"{"a":1,"b":3,"c":4,"arr":[1,5]}"#;
    let msg = describe_mismatch(want, got);
    assert!(msg.contains("b: expected 2, actual 3"), "{msg}");
    assert!(msg.contains("c: expected <missing>, actual 4"), "{msg}");
    assert!(msg.contains("s: expected \"x\", actual <missing>"), "{msg}");
    assert!(msg.contains("arr: expected [1, 2], actual [1, 5]"), "{msg}");
    assert!(!msg.contains("a:"), "unchanged counters stay silent: {msg}");
}

/// The snapshot function itself must be stable: identical runs serialize
/// to identical bytes (no map iteration order, no float formatting drift).
#[test]
fn snapshot_is_deterministic() {
    let registry = TraceRegistry::paper_default();
    let trace = registry.get("specint.mcf.07").expect("trace in registry");
    let run = || {
        System::new(SimConfig::single_thread(LlcKind::BaseVictim)).run_with_warmup(
            &trace.workload,
            50_000,
            50_000,
        )
    };
    assert_eq!(snapshot(&run()), snapshot(&run()));
}
