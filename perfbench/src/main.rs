//! The benchmark program: one closed-loop workload per run.
//!
//! ```text
//! perfbench --workload <llc-demand|kv-tier|serve-sweeps> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics with
//! tracing off, and rescales their host times to the reference host's
//! speed by a host probe run between timed intervals. With `--trace 1` it runs the layer ledger instead: every
//! layer replayed alone over the input recorded at its boundary. The
//! last line of stdout is the JSON result.

mod kv;
mod llc;
mod serve;
mod stats;

use std::process::ExitCode;

use stats::{HostProbe, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Workloads in the order a traced run visits them.
const WORKLOADS: [&str; 3] = ["llc-demand", "kv-tier", "serve-sweeps"];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {} (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut probe = HostProbe::new();
    let report = if args.trace {
        traced(&args, &mut probe)
    } else {
        untraced(&args, &mut probe)
    };
    match report {
        Ok(mut report) => {
            report.check_finite();
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn untraced(args: &Args, probe: &mut HostProbe) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "llc-demand" => llc::run(args.seed, args.seconds, probe),
        "kv-tier" => kv::run(args.seed, args.seconds, probe),
        _ => serve::run(args.seed, args.seconds, probe)?,
    };
    report.push(
        "peak_rss_mb",
        stats::peak_rss_mb() - probe.resident_mb(),
        "MB",
    );
    probe.finish(None);
    report.rescale(probe.slowdown());
    Ok(report)
}

/// A traced run replays the layers of every workload, starting with the
/// one named, so each traced run prints every per-layer metric.
fn traced(args: &Args, probe: &mut HostProbe) -> Result<Report, String> {
    let mut report = Report::default();
    let first = WORKLOADS
        .iter()
        .position(|w| *w == args.workload)
        .unwrap_or(0);
    for i in 0..WORKLOADS.len() {
        probe.calibrate();
        match WORKLOADS[(first + i) % WORKLOADS.len()] {
            "llc-demand" => llc::trace(&mut report, args.seed),
            "kv-tier" => kv::trace(&mut report, args.seed),
            _ => serve::trace(&mut report, args.seed)?,
        }
    }
    probe.calibrate();
    probe.finish(Some(&mut report));
    Ok(report)
}
