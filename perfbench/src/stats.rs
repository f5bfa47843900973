//! Summary statistics, the result line, and host diagnostics shared by
//! every workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: the outcome counts and its metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one checked operation; a failed check is printed so a
    /// reader can see which output was wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED: {}", what());
        }
    }

    /// Rescales every host-time metric to the reference host's speed:
    /// times are divided by the run's `slowdown` and rates multiplied by
    /// it. The values as measured are printed first.
    pub fn rescale(&mut self, slowdown: f64) {
        let measured: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{}={}", m.name, m.value))
            .collect();
        println!("measured: {}", measured.join(" "));
        println!("slowdown: {slowdown:.4}");
        for m in &mut self.metrics {
            match m.unit {
                "s" | "ms" => m.value /= slowdown,
                "1/s" => m.value *= slowdown,
                _ => {}
            }
        }
    }

    /// JSON has no NaN or infinity. An undefined metric, such as a ratio
    /// over no samples, fails the run instead of reading as a score.
    pub fn check_finite(&mut self) {
        let undefined: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} = {}", m.name, m.value))
            .collect();
        for what in undefined {
            self.check(false, || format!("metric {what} is undefined"));
        }
    }

    /// The result line: one JSON object, the last line of stdout.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; [`Report::check_finite`] has already
/// failed the run when a value is one, and it is written as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Harrell–Davis estimate of the median: a mean of every order statistic
/// weighted by a Beta((n+1)/2, (n+1)/2) density over its rank interval.
/// Latency samples come in clusters, one per kind of job; the plain
/// median jumps between neighbouring clusters from run to run, this
/// estimate moves smoothly.
pub fn hd_median(xs: &[f64]) -> f64 {
    const STEPS: usize = 16;
    let v = sorted(xs);
    let n = v.len();
    let a = (n + 1) as f64 / 2.0 - 1.0;
    // Log-density at the midpoints of STEPS sub-intervals of each rank
    // interval; shifted by its maximum, at the middle, before exp.
    let log_pdf = |x: f64| a * (x.ln() + (1.0 - x).ln());
    let peak = log_pdf(0.5);
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate() {
        let w: f64 = (0..STEPS)
            .map(|k| {
                let u = (i as f64 + (k as f64 + 0.5) / STEPS as f64) / n as f64;
                (log_pdf(u) - peak).exp()
            })
            .sum();
        sum += w * x;
        total += w;
    }
    if total > 0.0 {
        sum / total
    } else {
        0.0
    }
}

/// Interquartile range: the order statistics a quarter of the way in
/// from each end.
pub fn iqr(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    v[n - 1 - n / 4] - v[n / 4]
}

/// The highest order statistic with at least ten samples above it, and
/// the percentile it stands for. With fewer than eleven samples there is
/// no such statistic, and the maximum is returned at 100%.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Reports the latency pair of a workload and prints its sample count.
pub fn push_latency(report: &mut Report, unit_name: &str, samples_ms: &[f64]) {
    let (tail_ms, pct) = tail(samples_ms);
    println!(
        "latency: {} samples of one {unit_name}, plain median {:.3} ms, tail = p{pct:.1}",
        samples_ms.len(),
        median(samples_ms)
    );
    report.push("latency_p50_ms", hd_median(samples_ms), "ms");
    report.push("latency_tail_ms", tail_ms, "ms");
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `body` `reps` times in a single interval and returns the mean
/// seconds per repetition.
pub fn time_reps(reps: usize, mut body: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for r in 0..reps {
        body(r);
    }
    t.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Shortest interval any reported layer time comes from.
pub const MIN_INTERVAL_S: f64 = 0.15;

/// Repetitions of a pass that took `probe_s` needed to fill one
/// [`MIN_INTERVAL_S`] interval.
pub fn reps_for(probe_s: f64) -> usize {
    ((MIN_INTERVAL_S / probe_s.max(1e-6)).ceil() as usize).clamp(1, 10_000)
}

/// Host-speed probes that use no repository code: a fixed ALU loop, and
/// a small set-associative cache model ([`CacheProbe`]) whose speed
/// follows the host's slow and fast phases the way the simulators' does.
pub struct HostProbe {
    calib_ms: Vec<f64>,
    cache_ms: Vec<f64>,
    cache: CacheProbe,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        HostProbe {
            calib_ms: Vec::new(),
            cache_ms: Vec::new(),
            cache: CacheProbe::new(),
        }
    }

    /// One pass of each probe, about 12 ms on the reference host; call
    /// it between timed intervals, never inside one.
    pub fn calibrate(&mut self) {
        let t = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        self.calib_ms.push(ms(t.elapsed()));
        self.cache.evict();
        let t = Instant::now();
        black_box(self.cache.pass());
        self.cache_ms.push(ms(t.elapsed()));
    }

    /// Resident MB of the probes' own arrays, which `VmHWM` counts.
    pub fn resident_mb(&self) -> f64 {
        self.cache.bytes() as f64 / (1024.0 * 1024.0)
    }

    /// How much slower the host ran during this run than the reference
    /// host in a fast phase: the median cache-probe pass over
    /// [`CACHE_PROBE_REF_MS`].
    pub fn slowdown(&self) -> f64 {
        median(&self.cache_ms) / CACHE_PROBE_REF_MS
    }

    pub fn calib_ms(&self) -> f64 {
        median(&self.calib_ms)
    }

    /// Cost of one `Instant::now` call, over one long interval.
    pub fn clock_ns() -> f64 {
        const N: u32 = 2_000_000;
        let t = Instant::now();
        for _ in 0..N {
            black_box(Instant::now());
        }
        t.elapsed().as_secs_f64() * 1e9 / f64::from(N)
    }

    /// Prints the diagnostics line every run carries, and adds the two
    /// host metrics to a traced run's report.
    pub fn finish(&self, report: Option<&mut Report>) {
        let clock = HostProbe::clock_ns();
        let calib = self.calib_ms();
        println!(
            "host: clock_ns={clock:.2} calib_ms={calib:.4} cache_probe_ms={:.4} ({} probe passes)",
            median(&self.cache_ms),
            self.calib_ms.len()
        );
        if let Some(r) = report {
            r.push("host.clock_ns", clock, "ns");
            r.push("host.calib_ms", calib, "ms");
            r.push("host.cache_probe_ms", median(&self.cache_ms), "ms");
        }
    }
}

/// Median [`CacheProbe::pass`] time on the reference host (2 vCPU x86-64,
/// see NOTES.md), in a fast phase.
pub const CACHE_PROBE_REF_MS: f64 = 8.0;

const PROBE_WAYS: usize = 16;
/// 1 MiB of tags: half the reference host's per-core L2.
const PROBE_LINES: usize = 1 << 17;
const PROBE_ACCESSES: usize = 300_000;
/// Words of the eviction buffer: 4 MiB, twice the reference host's
/// per-core L2.
const PROBE_FLUSH_WORDS: usize = (4 << 20) / 8;

/// A 16-way LRU cache model over a random address stream, the kind of
/// work the simulators do (tag search, replacement, branches on hit and
/// miss), in code of its own. On the reference host its pass time tracks
/// the simulators' speed across host phases (correlation 0.94 over 2 s
/// windows) where the ALU loop does not. Each pass starts with the
/// model's arrays evicted from L2, so its time does not depend on how
/// much of the cache the work before it used.
struct CacheProbe {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    flush: Vec<u64>,
    clock: u32,
    z: u64,
}

impl CacheProbe {
    fn new() -> CacheProbe {
        CacheProbe {
            tags: vec![u64::MAX; PROBE_LINES],
            stamps: vec![0; PROBE_LINES],
            flush: vec![0; PROBE_FLUSH_WORDS],
            clock: 0,
            z: 0x9e37_79b9,
        }
    }

    fn bytes(&self) -> usize {
        self.tags.len() * 8 + self.stamps.len() * 4 + self.flush.len() * 8
    }

    /// Writes one word of every line of the eviction buffer.
    fn evict(&mut self) {
        for w in self.flush.iter_mut().step_by(8) {
            *w = w.wrapping_add(1);
        }
        black_box(&self.flush);
    }

    /// Runs a fixed number of accesses and returns the hits: four in five
    /// go to a hot eighth of the capacity, the rest anywhere in four
    /// times the capacity.
    fn pass(&mut self) -> u64 {
        let sets = PROBE_LINES / PROBE_WAYS;
        let mut hits = 0;
        for _ in 0..PROBE_ACCESSES {
            self.z ^= self.z << 13;
            self.z ^= self.z >> 7;
            self.z ^= self.z << 17;
            let r = self.z;
            let span = if r % 10 < 8 {
                PROBE_LINES / 8
            } else {
                PROBE_LINES * 4
            };
            let line = (r >> 8) % span as u64;
            let base = (line as usize % sets) * PROBE_WAYS;
            self.clock = self.clock.wrapping_add(1);
            let ways = &self.tags[base..base + PROBE_WAYS];
            let way = match ways.iter().position(|&t| t == line) {
                Some(w) => {
                    hits += 1;
                    w
                }
                None => {
                    let stamps = &self.stamps[base..base + PROBE_WAYS];
                    let v = (0..PROBE_WAYS).min_by_key(|&w| stamps[w]).unwrap_or(0);
                    self.tags[base + v] = line;
                    v
                }
            };
            self.stamps[base + way] = self.clock;
        }
        hits
    }
}

/// SplitMix64 finalizer: spreads a seed into independent-looking words.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (t, pct) = tail(&xs);
        assert_eq!(t, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t).count(), 10);
    }

    #[test]
    fn rescale_leaves_memory_alone() {
        let mut r = Report::default();
        r.push("throughput_per_s", 100.0, "1/s");
        r.push("latency_p50_ms", 10.0, "ms");
        r.push("peak_rss_mb", 24.0, "MB");
        r.rescale(2.0);
        let v: Vec<f64> = r.metrics.iter().map(|m| m.value).collect();
        assert_eq!(v, [200.0, 5.0, 24.0]);
    }

    #[test]
    fn hd_median_is_central_and_smooth() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!((hd_median(&xs) - 50.0).abs() < 1e-9);
        // Two equal clusters: when one sample crosses the gap the plain
        // median jumps from 110 to 120; the estimate moves by under 2.
        let mut two: Vec<f64> = [vec![100.0; 50], vec![120.0; 50]].concat();
        let before = hd_median(&two);
        two[49] = 121.0;
        let after = hd_median(&two);
        assert!((before - 110.0).abs() < 1e-9);
        assert!(after > before && after - before < 2.0);
        assert_eq!(hd_median(&[]), 0.0);
    }

    #[test]
    fn iqr_of_seven() {
        assert_eq!(iqr(&[7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]), 4.0);
    }

    #[test]
    fn undefined_metric_fails_the_run() {
        let mut r = Report::default();
        r.push("ok", 1.0, "ns");
        r.push("bad", f64::NAN, "ratio");
        r.check_finite();
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
