//! Runs the experiment suite, regenerating every table and figure in the
//! paper's evaluation section. Writes TSV data under `results/` and a
//! combined summary to `results/summary.txt`. `experiments fig8 fig13`
//! runs only the named entries.
//!
//! The whole suite's single-core jobs are planned up front and submitted
//! to the shared runner as one deduplicated batch, so they spread across
//! `BV_JOBS` worker threads (default: all cores); the figure functions
//! then assemble their tables from the result store. Set
//! `BV_JOURNAL=<dir>` to checkpoint each run and resume an interrupted
//! suite. Named entries skip the up-front plan and the summary, so each
//! simulates only the jobs it needs.

use std::io::Write as _;
use std::process::ExitCode;

type FigureFn = fn(&bv_bench::Ctx) -> String;

const FIGURES: &[(&str, FigureFn)] = &[
    ("table1", bv_bench::figures::table1),
    ("area", bv_bench::figures::area),
    ("compressibility", bv_bench::figures::compressibility),
    ("fig8", bv_bench::figures::fig8),
    ("fig6", bv_bench::figures::fig6),
    ("fig7", bv_bench::figures::fig7),
    ("fig9", bv_bench::figures::fig9),
    ("fig10", bv_bench::figures::fig10),
    ("fig11", bv_bench::figures::fig11),
    ("fig12", bv_bench::figures::fig12),
    ("sens_associativity", bv_bench::figures::sens_associativity),
    ("sens_victim_policy", bv_bench::figures::sens_victim_policy),
    (
        "ablation_compressor",
        bv_bench::figures::ablation_compressor,
    ),
    ("ablation_inclusion", bv_bench::figures::ablation_inclusion),
    ("ablation_prefetch", bv_bench::figures::ablation_prefetch),
    ("future_work_camp", bv_bench::figures::future_work_camp),
    ("fig13", bv_bench::figures::fig13),
    ("fig14", bv_bench::figures::fig14),
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let find = |name: &str| FIGURES.iter().find(|(n, _)| *n == name);
    if let Some(bad) = names.iter().find(|n| find(n).is_none()) {
        let valid: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "error: unknown experiment '{bad}' (valid: {})",
            valid.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let t0 = std::time::Instant::now();
    let ctx = bv_bench::Ctx::new();
    if !names.is_empty() {
        for (_, f) in names.iter().filter_map(|n| find(n)) {
            print!("{}", f(&ctx));
        }
        return ExitCode::SUCCESS;
    }
    let plan = bv_bench::figures::plan_suite(&ctx);
    println!(
        "planned {} jobs ({} unique, {} resumed from journal, {} simulated) in {:.0}s on {} worker(s)",
        plan.requested,
        plan.unique,
        plan.from_journal,
        plan.simulated,
        t0.elapsed().as_secs_f32(),
        ctx.runner.workers()
    );
    let mut summary = String::new();
    for (name, f) in FIGURES {
        let t = std::time::Instant::now();
        let s = f(&ctx);
        println!("{s}[{name} done in {:.0}s]\n", t.elapsed().as_secs_f32());
        summary.push_str(&s);
        summary.push('\n');
    }
    let path = ctx.results_dir().join("summary.txt");
    let mut f = std::fs::File::create(&path).expect("create summary");
    f.write_all(summary.as_bytes()).expect("write summary");
    println!(
        "full suite finished in {:.0}s; summary at {}",
        t0.elapsed().as_secs_f32(),
        path.display()
    );
    ExitCode::SUCCESS
}
