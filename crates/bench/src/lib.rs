//! Experiment harness shared by the per-figure runner binaries.
//!
//! Every table and figure in the paper's evaluation (Section VI) has a
//! binary under `src/bin/` that calls into this library; the `experiments`
//! binary runs the whole suite with a shared run cache so the uncompressed
//! baseline is simulated once, not once per figure. Results are written as
//! TSV files under `results/` and summarized on stdout.
//!
//! Run length is controlled by environment variables so the same binaries
//! serve quick smoke tests and full reproductions:
//!
//! * `BV_WARMUP` — warmup instructions per run (default 1,000,000)
//! * `BV_INSTS` — measured instructions per run (default 1,500,000)
//! * `BV_MP_WARMUP` / `BV_MP_INSTS` — per-thread budgets for the
//!   multi-program mixes (defaults 500,000 / 800,000)
//!
//! Execution is delegated to [`bv_runner`]: each figure plans its job
//! list up front and submits it to a shared [`Runner`], whose job engine
//! deduplicates, runs the remainder across `BV_JOBS` worker threads
//! (default: all cores), and keeps every result for later figures.
//! Setting `BV_JOURNAL=<dir>` additionally checkpoints each completed
//! run on disk and resumes an interrupted sweep from those checkpoints.

use bv_runner::{ExecutionReport, JobSpec, Runner};
use bv_sim::report::geomean;
use bv_sim::{LlcKind, MulticoreResult, MulticoreSystem, RunResult, SimConfig};
use bv_trace::{TraceRegistry, TraceSpec, WorkloadCategory};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Simulation budgets, read from the environment.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Warmup instructions per single-core run.
    pub warmup: u64,
    /// Measured instructions per single-core run.
    pub insts: u64,
    /// Per-thread warmup instructions for multi-program runs.
    pub mp_warmup: u64,
    /// Per-thread measured instructions for multi-program runs.
    pub mp_insts: u64,
}

impl Budget {
    /// Reads the budget from `BV_*` environment variables.
    #[must_use]
    pub fn from_env() -> Budget {
        let get = |k: &str, d: u64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Budget {
            warmup: get("BV_WARMUP", 1_000_000),
            insts: get("BV_INSTS", 1_500_000),
            mp_warmup: get("BV_MP_WARMUP", 500_000),
            mp_insts: get("BV_MP_INSTS", 800_000),
        }
    }
}

/// The experiment context: registry, budget, and the shared runner that
/// executes planned jobs in parallel and retains their results.
pub struct Ctx {
    /// The 100-trace registry.
    pub registry: TraceRegistry,
    /// Simulation budgets.
    pub budget: Budget,
    /// The job engine's in-process client: deduplicating planner,
    /// workers, results, and (when `BV_JOURNAL` is set) the journal.
    pub runner: Runner,
    results_dir: PathBuf,
}

impl Ctx {
    /// Creates a context with an explicit budget (used by smoke tests).
    #[must_use]
    pub fn with_budget(budget: Budget) -> Ctx {
        let mut ctx = Ctx::new();
        ctx.budget = budget;
        ctx
    }

    /// Creates a context; results are written under `<repo>/results/`.
    /// Worker count comes from `BV_JOBS` (default: all cores); setting
    /// `BV_JOURNAL=<dir>` enables checkpoint/resume under that directory.
    ///
    /// # Panics
    ///
    /// Panics if the results or journal directory cannot be created.
    #[must_use]
    pub fn new() -> Ctx {
        let runner = Runner::new(bv_runner::pool::default_workers());
        Ctx::with_runner(runner)
    }

    /// Creates a context around an explicitly configured runner (the
    /// `bvsim sweep` subcommand builds one from its CLI flags).
    ///
    /// # Panics
    ///
    /// Panics if the results directory cannot be created.
    #[must_use]
    pub fn with_runner(mut runner: Runner) -> Ctx {
        let results_dir =
            PathBuf::from(std::env::var("BV_RESULTS_DIR").unwrap_or_else(|_| "results".into()));
        std::fs::create_dir_all(&results_dir).expect("create results dir");
        if runner.journal().is_none() {
            if let Ok(dir) = std::env::var("BV_JOURNAL") {
                runner = runner
                    .with_journal(dir, true)
                    .expect("open BV_JOURNAL directory");
            }
        }
        Ctx {
            registry: TraceRegistry::paper_default(),
            budget: Budget::from_env(),
            runner,
            results_dir,
        }
    }

    /// The job for one trace under one configuration at this context's
    /// single-core budget.
    #[must_use]
    pub fn job(&self, trace: &str, cfg: SimConfig) -> JobSpec {
        JobSpec::new(trace, cfg, self.budget.warmup, self.budget.insts)
    }

    /// Plans and executes a batch of jobs on the runner (deduplicating,
    /// resuming from the journal where possible, simulating the rest in
    /// parallel). Afterwards every job's result is available via
    /// [`Ctx::run`] or [`Runner::get`] without further simulation.
    pub fn plan(&self, jobs: &[JobSpec]) -> ExecutionReport {
        self.runner.execute(&self.registry, jobs)
    }

    /// Runs (or fetches from the runner's engine) one trace under one
    /// configuration.
    #[must_use]
    pub fn run(&self, trace: &TraceSpec, cfg: SimConfig) -> RunResult {
        self.runner
            .run_one(&self.registry, &self.job(&trace.name, cfg))
    }

    /// Runs a 4-way mix under one configuration (not cached — each mix is
    /// used once per configuration).
    #[must_use]
    pub fn run_mix(&self, members: &[&TraceSpec; 4], cfg: SimConfig) -> MulticoreResult {
        let workloads: Vec<_> = members.iter().map(|t| t.workload.clone()).collect();
        // The multicore driver measures from cold caches; the warmup bias
        // is shared by every configuration and cancels in the weighted
        // speedup ratios.
        MulticoreSystem::new(cfg).run(&workloads, self.budget.mp_warmup + self.budget.mp_insts)
    }

    /// The directory result files are written to (`BV_RESULTS_DIR`,
    /// default `results`).
    #[must_use]
    pub fn results_dir(&self) -> &Path {
        &self.results_dir
    }

    /// Writes a TSV result file and returns its path.
    pub fn write_tsv(&self, name: &str, header: &str, rows: &[Vec<String>]) -> PathBuf {
        let path = self.results_dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create tsv");
        writeln!(f, "{header}").expect("write header");
        for row in rows {
            writeln!(f, "{}", row.join("\t")).expect("write row");
        }
        path
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::new()
    }
}

/// One trace's ratios against the uncompressed baseline.
#[derive(Clone, Debug)]
pub struct TraceRatios {
    /// Trace name.
    pub name: String,
    /// Category.
    pub category: WorkloadCategory,
    /// Compression-friendly classification.
    pub friendly: bool,
    /// IPC ratio vs baseline (>1 = speedup).
    pub ipc_ratio: f64,
    /// DRAM read ratio vs baseline (<1 = fewer reads).
    pub read_ratio: f64,
    /// Mean compressed size fraction observed at the LLC.
    pub comp_ratio: f64,
}

/// Sweeps the cache-sensitive traces under `cfg`, normalizing each to the
/// 2 MB uncompressed baseline.
pub fn sensitive_sweep(ctx: &Ctx, cfg: SimConfig) -> Vec<TraceRatios> {
    sweep(
        ctx,
        cfg,
        SimConfig::single_thread(LlcKind::Uncompressed),
        false,
    )
}

/// Sweeps with an explicit baseline configuration: the whole job list
/// (every trace under both configurations) is planned up front and
/// submitted to the runner as one batch, then the ratios are assembled
/// from the result store.
pub fn sweep(ctx: &Ctx, cfg: SimConfig, baseline: SimConfig, all_traces: bool) -> Vec<TraceRatios> {
    let traces: Vec<TraceSpec> = if all_traces {
        ctx.registry.all().cloned().collect()
    } else {
        ctx.registry.cache_sensitive().cloned().collect()
    };
    let mut jobs = Vec::with_capacity(traces.len() * 2);
    for t in &traces {
        jobs.push(ctx.job(&t.name, baseline));
        jobs.push(ctx.job(&t.name, cfg));
    }
    ctx.plan(&jobs);
    traces
        .iter()
        .map(|t| {
            let base = ctx.run(t, baseline);
            let run = ctx.run(t, cfg);
            TraceRatios {
                name: t.name.clone(),
                category: t.category,
                friendly: t.compression_friendly,
                ipc_ratio: run.ipc_ratio(&base),
                read_ratio: run.dram_read_ratio(&base),
                comp_ratio: run.compression.mean_ratio(),
            }
        })
        .collect()
}

/// Geometric-mean IPC gain (percent) over a set of ratios.
#[must_use = "the formatted gain should be reported"]
pub fn gain_pct<'a, I: IntoIterator<Item = &'a TraceRatios>>(rows: I) -> f64 {
    (geomean(rows.into_iter().map(|r| r.ipc_ratio)) - 1.0) * 100.0
}

/// Geometric-mean DRAM read ratio over a set of ratios.
#[must_use]
pub fn read_ratio<'a, I: IntoIterator<Item = &'a TraceRatios>>(rows: I) -> f64 {
    geomean(rows.into_iter().map(|r| r.read_ratio))
}

/// Formats the per-category table used by Figures 9-11: gains for
/// compression-friendly traces and for all sensitive traces, per category
/// and overall.
#[must_use]
pub fn category_table(rows: &[TraceRatios]) -> String {
    let mut s = String::new();
    s.push_str("category      friendly-gain%  overall-gain%\n");
    for cat in WorkloadCategory::ALL {
        let friendly = rows.iter().filter(|r| r.category == cat && r.friendly);
        let all = rows.iter().filter(|r| r.category == cat);
        s.push_str(&format!(
            "{:12}  {:>13.2}  {:>12.2}\n",
            cat.name(),
            gain_pct(friendly),
            gain_pct(all)
        ));
    }
    s.push_str(&format!(
        "{:12}  {:>13.2}  {:>12.2}\n",
        "Average",
        gain_pct(rows.iter().filter(|r| r.friendly)),
        gain_pct(rows.iter())
    ));
    s
}

/// Writes a line-graph TSV (trace, ipc ratio, read ratio), sorted the way
/// the paper draws its line plots (by IPC ratio, descending).
pub fn write_line_graph(ctx: &Ctx, file: &str, rows: &[TraceRatios]) -> PathBuf {
    let mut sorted: Vec<&TraceRatios> = rows.iter().collect();
    sorted.sort_by(|a, b| b.ipc_ratio.total_cmp(&a.ipc_ratio));
    let table: Vec<Vec<String>> = sorted
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.4}", r.ipc_ratio),
                format!("{:.4}", r.read_ratio),
                format!("{:.3}", r.comp_ratio),
            ]
        })
        .collect();
    ctx.write_tsv(
        file,
        "trace\tipc_ratio\tdram_read_ratio\tcomp_ratio",
        &table,
    )
}

/// Counts traces losing performance (IPC ratio < threshold).
#[must_use]
pub fn losers(rows: &[TraceRatios], threshold: f64) -> usize {
    rows.iter().filter(|r| r.ipc_ratio < threshold).count()
}

/// The standard experiment configurations.
pub mod configs {
    use super::*;

    /// 2 MB uncompressed baseline.
    #[must_use]
    pub fn base2mb() -> SimConfig {
        SimConfig::single_thread(LlcKind::Uncompressed)
    }

    /// 2 MB Base-Victim.
    #[must_use]
    pub fn bv2mb() -> SimConfig {
        SimConfig::single_thread(LlcKind::BaseVictim)
    }

    /// 3 MB (2 MB + 8 ways) uncompressed, +1 cycle.
    #[must_use]
    pub fn unc3mb() -> SimConfig {
        base2mb().with_llc_size(3 * 1024 * 1024, 24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_defaults() {
        let b = Budget::from_env();
        assert!(b.warmup > 0 && b.insts > 0);
    }

    #[test]
    fn job_keys_distinguish_sizes_and_kinds() {
        let budget = Budget {
            warmup: 1,
            insts: 2,
            mp_warmup: 1,
            mp_insts: 2,
        };
        let job = |cfg| JobSpec::new("t", cfg, budget.warmup, budget.insts);
        let a = job(configs::base2mb());
        let b = job(configs::unc3mb());
        let c = job(configs::bv2mb());
        assert_ne!(a.stable_hash(), b.stable_hash());
        assert_ne!(a.stable_hash(), c.stable_hash());
        assert_eq!(a.stable_hash(), job(configs::base2mb()).stable_hash());
    }

    #[test]
    fn gain_pct_of_unit_ratios_is_zero() {
        let rows = vec![TraceRatios {
            name: "t".into(),
            category: WorkloadCategory::SpecFp,
            friendly: true,
            ipc_ratio: 1.0,
            read_ratio: 1.0,
            comp_ratio: 0.5,
        }];
        assert!(gain_pct(&rows).abs() < 1e-12);
        assert_eq!(losers(&rows, 0.999), 0);
        assert!((read_ratio(&rows) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn category_table_lists_all_categories() {
        let rows = vec![TraceRatios {
            name: "t".into(),
            category: WorkloadCategory::Client,
            friendly: true,
            ipc_ratio: 1.1,
            read_ratio: 0.9,
            comp_ratio: 0.5,
        }];
        let table = category_table(&rows);
        for cat in WorkloadCategory::ALL {
            assert!(table.contains(cat.name()));
        }
        assert!(table.contains("Average"));
    }
}

pub mod figures;
pub mod perf;
