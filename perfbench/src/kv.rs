//! `kv-tier`: `RequestProfile::web` streams through the public
//! `KvCache::get/put` of all three organizations, with `compress_value`
//! as the fetch function (the pattern of `bv_kvcache::sim`).
//!
//! No decode, L1/L2, LLC-organization or DRAM code runs here, so changes
//! to those layers are predicted to leave this workload unchanged.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bv_kvcache::{compress_value, KvCache, KvOrgKind, KvStats, ValueMeta};
use bv_trace::request::{KvOp, KvRequest, RequestProfile, RequestStream};

use crate::stats::{iqr, median, mix, ms, push_latency, reps_for, time_reps, HostProbe, Report};

/// Tier byte budget: about 1/40 of the web profile's value bytes.
const BUDGET: u64 = 1 << 20;
const WARMUP: usize = 200_000;
/// Requests per latency sample, about 250 ms of host time: long enough
/// that a host hiccup of a few ms moves a sample by a few percent.
const BATCH: usize = 524_288;
const BATCHES: usize = 2;
/// Host seconds one round of three tiers takes on the reference host
/// (see NOTES.md); fixes how many rounds a run does.
const ROUND_NOMINAL_S: f64 = 1.9;

fn stream_seed(seed: u64, round: u64) -> u64 {
    mix(seed ^ mix(round))
}

fn apply(tier: &mut KvCache, profile: &RequestProfile, req: KvRequest) {
    let fetch = || compress_value(req.key, profile.value_spec(req.key));
    match req.op {
        KvOp::Get => {
            black_box(tier.get(req.key, fetch));
        }
        KvOp::Put => tier.put(req.key, fetch),
    }
}

/// The base-victim tier's guarantee on one stream: its Baseline hits
/// equal the uncompressed tier's hits.
fn check_guarantee(report: &mut Report, round: u64, unc: &KvStats, bv: &KvStats) {
    report.check(bv.base_hits == unc.hits(), || {
        format!(
            "round {round}: base-victim kv base hits {} != uncompressed hits {}",
            bv.base_hits,
            unc.hits()
        )
    });
}

fn print_counters(org: KvOrgKind, s: &KvStats) {
    println!(
        "counters: web {:<12} hit_rate={:.6} base_hits={} victim_hits={} misses={}",
        org.name(),
        s.hit_rate(),
        s.base_hits,
        s.victim_hits,
        s.misses
    );
}

/// The untraced run: end-to-end metrics only.
pub fn run(seed: u64, seconds: u64, probe: &mut HostProbe) -> Report {
    let mut report = Report::default();
    let profile = RequestProfile::web();
    let t_setup = Instant::now();
    for org in KvOrgKind::ALL {
        let mut tier = org.build(BUDGET);
        for req in RequestStream::new(profile.clone(), stream_seed(seed, u64::MAX)).take(WARMUP) {
            apply(&mut tier, &profile, req);
        }
    }
    let mut setup = t_setup.elapsed();

    let rounds = ((seconds as f64 / ROUND_NOMINAL_S).round() as u64).max(1);
    let mut measured = Duration::ZERO;
    let mut requests = 0u64;
    let mut batches_ms = Vec::new();
    for round in 0..rounds {
        let mut stats = Vec::with_capacity(KvOrgKind::ALL.len());
        for org in KvOrgKind::ALL {
            probe.calibrate();
            let t0 = Instant::now();
            let mut tier = org.build(BUDGET);
            let mut stream = RequestStream::new(profile.clone(), stream_seed(seed, round));
            for req in (&mut stream).take(WARMUP) {
                apply(&mut tier, &profile, req);
            }
            tier.reset_stats();
            setup += t0.elapsed();
            for _ in 0..BATCHES {
                let t = Instant::now();
                for req in (&mut stream).take(BATCH) {
                    apply(&mut tier, &profile, req);
                }
                let d = t.elapsed();
                measured += d;
                batches_ms.push(ms(d));
                requests += BATCH as u64;
                let resident = tier.occupancy().resident_bytes;
                report.check(resident <= BUDGET, || {
                    format!("{}: {resident} resident bytes over the budget", org.name())
                });
            }
            if round == 0 {
                print_counters(org, tier.stats());
            }
            stats.push(*tier.stats());
        }
        check_guarantee(&mut report, round, &stats[0], &stats[2]);
    }
    println!("kv-tier: {rounds} rounds, {requests} measured requests");
    report.push(
        "throughput_per_s",
        requests as f64 / measured.as_secs_f64(),
        "1/s",
    );
    push_latency(&mut report, "524288-request batch", &batches_ms);
    report.push("setup_s", setup.as_secs_f64(), "s");
    report
}

// ---------------------------------------------------------------------
// Traced run.

/// Requests of one traced stream: warmup, then this many measured.
const TRACE_MEASURED: usize = 800_000;
/// Interleaved pairs of timed full and gets-only replays per organization.
const PAIRS: usize = 15;

/// Replays recorded requests into a fresh tier with precomputed values;
/// counters are reset after the warmup, as in the untraced run.
fn replay(org: KvOrgKind, reqs: &[KvRequest], metas: &[ValueMeta]) -> KvStats {
    let mut tier = org.build(BUDGET);
    for (i, (req, &meta)) in reqs.iter().zip(metas).enumerate() {
        if i == WARMUP {
            tier.reset_stats();
        }
        match req.op {
            KvOp::Get => {
                black_box(tier.get(req.key, || meta));
            }
            KvOp::Put => tier.put(req.key, || meta),
        }
    }
    *tier.stats()
}

/// The traced run: per-layer metrics of one stream per organization.
pub fn trace(report: &mut Report, seed: u64) {
    let profile = RequestProfile::web();
    let sseed = stream_seed(seed, 0);
    let total = WARMUP + TRACE_MEASURED;

    // Request generation alone.
    let gen = || {
        RequestStream::new(profile.clone(), sseed)
            .take(total)
            .collect::<Vec<_>>()
    };
    let t = Instant::now();
    let reqs = gen();
    let probe = t.elapsed().as_secs_f64();
    let gen_s = time_reps(reps_for(probe), |_| {
        black_box(gen());
    });
    report.push(
        "trace.request_gen_ns_per_request",
        gen_s * 1e9 / total as f64,
        "ns",
    );

    // Values depend only on the key, so every request's value is
    // computed once, outside any timed pass.
    let metas: Vec<ValueMeta> = reqs
        .iter()
        .map(|r| compress_value(r.key, profile.value_spec(r.key)))
        .collect();
    let (get_reqs, get_metas): (Vec<KvRequest>, Vec<ValueMeta>) = reqs
        .iter()
        .zip(&metas)
        .filter(|(r, _)| r.op == KvOp::Get)
        .map(|(r, m)| (*r, *m))
        .unzip();
    let gets = get_reqs.len() as f64;
    let puts = (reqs.len() - get_reqs.len()) as f64;

    let (mut e2e_sum, mut layers_sum, mut record_sum) = (0.0, 0.0, 0.0);
    let (mut fetches_all, mut compress_s_all) = (0u64, 0.0);
    let mut stats_by_org = Vec::new();
    for org in KvOrgKind::ALL {
        // The untraced reference: median of three identical runs.
        let mut e2e = Vec::new();
        let mut reference = KvStats::default();
        for _ in 0..3 {
            let t = Instant::now();
            let mut tier = org.build(BUDGET);
            let mut stream = RequestStream::new(profile.clone(), sseed);
            for req in (&mut stream).take(WARMUP) {
                apply(&mut tier, &profile, req);
            }
            tier.reset_stats();
            for req in stream.take(TRACE_MEASURED) {
                apply(&mut tier, &profile, req);
            }
            e2e.push(t.elapsed().as_secs_f64());
            reference = *tier.stats();
        }
        let e2e_s = median(&e2e);

        // Record which requests fetched; every fetched value must equal
        // the precomputed one.
        let t = Instant::now();
        let mut tier = org.build(BUDGET);
        let mut fetched = Vec::new();
        let mut mismatched = 0u64;
        for (i, (req, &meta)) in reqs.iter().zip(&metas).enumerate() {
            if i == WARMUP {
                tier.reset_stats();
            }
            let mut value = None;
            let fetch = || {
                let v = compress_value(req.key, profile.value_spec(req.key));
                value = Some(v);
                v
            };
            match req.op {
                KvOp::Get => {
                    black_box(tier.get(req.key, fetch));
                }
                KvOp::Put => tier.put(req.key, fetch),
            }
            if let Some(v) = value {
                fetched.push(req.key);
                mismatched += u64::from(v != meta);
            }
        }
        let record_s = t.elapsed().as_secs_f64();
        report.check(*tier.stats() == reference, || {
            format!(
                "{}: recorded kv run differs from the untraced run",
                org.name()
            )
        });
        report.check(mismatched == 0, || {
            format!(
                "{}: {mismatched} fetched values differ from the precomputed ones",
                org.name()
            )
        });

        // The organization alone, values precomputed: the full stream,
        // and the same stream with its puts removed. The untimed first
        // pass of each is its reference; the full one must equal the
        // untraced run.
        let name = org.name();
        let t = Instant::now();
        let replayed = replay(org, &reqs, &metas);
        let full_probe = t.elapsed().as_secs_f64();
        report.check(replayed == reference, || {
            format!("{name}: kv replay differs from the untraced run")
        });
        let t = Instant::now();
        let get_reference = replay(org, &get_reqs, &get_metas);
        let gets_probe = t.elapsed().as_secs_f64();
        println!(
            "kv-tier {name}: gets-only replay hit rate {:.6} vs {:.6} with puts",
            get_reference.hit_rate(),
            reference.hit_rate()
        );
        let passes = [
            (&reqs[..], &metas[..], reference, reps_for(full_probe)),
            (
                &get_reqs[..],
                &get_metas[..],
                get_reference,
                reps_for(gets_probe),
            ),
        ];
        // Timed in interleaved pairs, alternating which goes first, so
        // both see the same host phases; every pass must reproduce its
        // reference.
        let mut pass_s = [Vec::new(), Vec::new()];
        let mut inexact = 0u64;
        for pair in 0..PAIRS {
            for k in [pair % 2, 1 - pair % 2] {
                let (r, m, want, reps) = passes[k];
                pass_s[k].push(time_reps(reps, |_| {
                    inexact += u64::from(replay(org, r, m) != want);
                }));
            }
        }
        report.check(inexact == 0, || {
            format!("{name}: {inexact} timed kv replays differ from their reference")
        });
        let org_s = median(&pass_s[0]);
        let get_ns = median(&pass_s[1]) * 1e9 / gets;
        // A put's cost is what the puts add to the full replay, per put,
        // taken pair by pair. Puts are a small share of the stream, so
        // the remainder can be within the noise of its median, estimated
        // as the pairs' IQR over the square root of their number.
        let remainders: Vec<f64> = pass_s[0]
            .iter()
            .zip(&pass_s[1])
            .map(|(full, gets_only)| (full - gets_only) * 1e9 / puts)
            .collect();
        let put_ns = median(&remainders);
        let noise = iqr(&remainders) / (PAIRS as f64).sqrt();
        println!(
            "kv-tier {name}: put remainder {put_ns:.1} ns/put, noise {noise:.1} over {PAIRS} pairs{}",
            if put_ns > noise {
                ""
            } else {
                ": unresolved"
            }
        );

        // Value compression alone over the keys that fetched.
        let compress_pass = || {
            for &key in &fetched {
                black_box(compress_value(key, profile.value_spec(key)));
            }
        };
        let t = Instant::now();
        compress_pass();
        let probe = t.elapsed().as_secs_f64();
        let compress_s = time_reps(reps_for(probe), |_| compress_pass());

        report.push(format!("kvcache.{name}.get_ns"), get_ns, "ns");
        report.push(format!("kvcache.{name}.put_ns"), put_ns, "ns");
        report.push(
            format!("kvcache.{name}.hit_rate"),
            reference.hit_rate(),
            "ratio",
        );
        fetches_all += fetched.len() as u64;
        compress_s_all += compress_s;
        e2e_sum += e2e_s;
        layers_sum += gen_s + org_s + compress_s;
        record_sum += gen_s + record_s;
        println!(
            "ledger kv-tier {name}: gen {:.1} ms + tier {:.1} ms + compress {:.1} ms vs untraced {:.1} ms",
            gen_s * 1e3,
            org_s * 1e3,
            compress_s * 1e3,
            e2e_s * 1e3
        );
        stats_by_org.push(reference);
    }
    check_guarantee(report, 0, &stats_by_org[0], &stats_by_org[2]);
    let requests = (total * KvOrgKind::ALL.len()) as f64;
    report.push(
        "compress.kv_value_ns_per_value",
        compress_s_all * 1e9 / fetches_all as f64,
        "ns",
    );
    report.push(
        "compress.kv_value_calls_per_request",
        fetches_all as f64 / requests,
        "ratio",
    );
    report.push("ledger.kv-tier.sum_over_e2e", layers_sum / e2e_sum, "ratio");
    report.push(
        "ledger.kv-tier.trace_overhead_pct",
        (record_sum / e2e_sum - 1.0) * 100.0,
        "%",
    );
}
