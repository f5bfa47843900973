//! Server-style key-value request traffic.
//!
//! The instruction traces in [`crate::registry`] model one CPU's memory
//! stream; this module models the *other* end of the hierarchy: millions
//! of clients hammering a software cache tier with `GET`/`PUT` requests
//! (the ZipCache scenario). A [`RequestStream`] is a deterministic
//! iterator of [`KvRequest`]s shaped by a [`RequestProfile`]:
//!
//! * **Zipfian key popularity** — [`ZipfSampler`] draws ranks with
//!   configurable skew via O(1) rejection-inversion, so key counts in
//!   the millions cost no setup.
//! * **Value sizes and compressibility** — every key deterministically
//!   owns a size (bucketed, skewed small) and a [`DataProfile`], so the
//!   same key always serves the same bytes and the tier's compression
//!   kernels see realistic value mixtures.
//! * **Diurnal load phases** — the popularity ranking rotates through
//!   the key space every `phase_requests`, modeling the hot set drifting
//!   over a day; a cold cache must re-learn it.
//! * **Multi-client interleaving** — `clients` independent SplitMix64
//!   streams are interleaved by a scheduler stream, so per-client
//!   locality survives while the aggregate order is shuffled.
//!
//! Everything is a pure function of `(profile, seed)`: two streams built
//! from equal inputs yield byte-identical request sequences.

use crate::data_profile::DataProfile;

/// SplitMix64, the workspace's standard seedable stream: the canonical
/// implementation lives in [`bv_testkit`], re-exported under this
/// module's historical name so fuzz seeds, trace streams, and test
/// seeds all derive from one stream family.
pub use bv_testkit::Rng as SplitMix64;

/// One-shot stateless mix of a `u64` (the same finalizer the stream
/// uses), for deriving per-key constants.
pub use bv_testkit::mix;

/// Zipfian rank sampler over `1..=n` with exponent `s`, using
/// Hörmann's rejection-inversion method: O(1) setup and O(1) expected
/// time per sample regardless of `n`, with no table to build — exactly
/// what a million-key popularity model needs.
///
/// Rank 1 is the most popular; the probability of rank `k` is
/// proportional to `k^-s`.
///
/// # Examples
///
/// ```
/// use bv_trace::request::{SplitMix64, ZipfSampler};
///
/// let zipf = ZipfSampler::new(1_000_000, 0.99);
/// let mut rng = SplitMix64::new(7);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=1_000_000).contains(&rank));
/// ```
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    cut: f64,
}

impl ZipfSampler {
    /// Creates a sampler over ranks `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or `s` is negative or non-finite.
    #[must_use]
    pub fn new(n: u64, s: f64) -> ZipfSampler {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be finite");
        let nf = n as f64;
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(nf + 0.5, s);
        let cut = 2.0 - h_integral_inv(h_integral(2.5, s) - 2.0f64.powf(-s), s);
        ZipfSampler {
            n: nf,
            s,
            h_x1,
            h_n,
            cut,
        }
    }

    /// Draws one rank in `1..=n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inv(u, self.s);
            let k = x.round().clamp(1.0, self.n);
            if (k - x).abs() <= self.cut || u >= h_integral(k + 0.5, self.s) - k.powf(-self.s) {
                return k as u64;
            }
        }
    }
}

/// `H(x) = ∫ t^-s dt` from 1 to `x` (the `s = 1` limit is `ln x`).
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    if (1.0 - s).abs() < 1e-9 {
        log_x
    } else {
        (((1.0 - s) * log_x).exp() - 1.0) / (1.0 - s)
    }
}

/// Inverse of [`h_integral`].
fn h_integral_inv(x: f64, s: f64) -> f64 {
    if (1.0 - s).abs() < 1e-9 {
        x.exp()
    } else {
        let t = (x * (1.0 - s) + 1.0).max(f64::MIN_POSITIVE);
        (t.ln() / (1.0 - s)).exp()
    }
}

/// What a request asks the tier to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read the value; a miss fetches from the backing store and admits.
    Get,
    /// Overwrite the value (write-allocate: admits on miss).
    Put,
}

/// One key-value request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvRequest {
    /// Which simulated client issued it.
    pub client: u32,
    /// The operation.
    pub op: KvOp,
    /// The key.
    pub key: u64,
}

/// The shape of a key's value: logical size and data-value profile.
///
/// Both are pure functions of the key (under a given [`RequestProfile`]),
/// so every tier in a comparison sees the same value for the same key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueSpec {
    /// Uncompressed size in bytes (a multiple of 64).
    pub bytes: u32,
    /// What the bytes look like, which decides BDI compressibility.
    pub profile: DataProfile,
}

/// A named request-traffic shape: key-space size, skew, value mixture,
/// operation mix, phase behavior, and client count.
///
/// The three presets model the canonical server-cache workloads:
///
/// | name | skew | values | flavor |
/// |------|------|--------|--------|
/// | [`web`](RequestProfile::web) | 0.99 | small, mixed | CDN / page-fragment cache |
/// | [`analytics`](RequestProfile::analytics) | 0.60 | large, float-heavy | scan-ish reporting tier |
/// | [`social`](RequestProfile::social) | 1.20 | tiny, pointer-heavy | feed cache with a drifting hot set |
#[derive(Clone, Debug, PartialEq)]
pub struct RequestProfile {
    /// Stable name (the CLI `--dist` value).
    pub name: &'static str,
    /// Number of distinct keys.
    pub keys: u64,
    /// Zipf exponent over key popularity.
    pub skew: f64,
    /// Probability a request is a [`KvOp::Get`] (the rest are puts).
    pub get_ratio: f64,
    /// Independent request clients interleaved into one stream.
    pub clients: u32,
    /// Popularity rotation period in requests (0 = no diurnal drift).
    pub phase_requests: u64,
    /// Value-size buckets in bytes, each a multiple of 64; a key's
    /// bucket is chosen by weight. Owned so fuzzers and sweeps can
    /// compose arbitrary mixtures, not just the presets.
    pub size_buckets: Vec<(u32, u32)>,
    /// Data-profile mixture as `(profile, weight)`; decides
    /// compressibility.
    pub value_mix: Vec<(DataProfile, u32)>,
}

impl RequestProfile {
    /// Every preset name, for CLI errors and sweeps.
    pub const NAMES: [&'static str; 3] = ["web", "analytics", "social"];

    /// CDN-style web object cache: strong skew, small mixed values.
    #[must_use]
    pub fn web() -> RequestProfile {
        RequestProfile {
            name: "web",
            keys: 60_000,
            skew: 0.99,
            get_ratio: 0.95,
            clients: 4,
            phase_requests: 0,
            size_buckets: vec![(128, 4), (256, 3), (512, 2), (1024, 1), (4096, 1)],
            value_mix: vec![
                (DataProfile::Zero, 1),
                (DataProfile::Repeated, 2),
                (DataProfile::SmallInt, 3),
                (DataProfile::PointerLike, 2),
                (DataProfile::WideInt, 2),
                (DataProfile::Random, 2),
            ],
        }
    }

    /// Reporting/analytics tier: weak skew, large float-heavy values.
    #[must_use]
    pub fn analytics() -> RequestProfile {
        RequestProfile {
            name: "analytics",
            keys: 12_000,
            skew: 0.60,
            get_ratio: 0.80,
            clients: 2,
            phase_requests: 0,
            size_buckets: vec![(2048, 2), (4096, 3), (8192, 2), (16384, 1)],
            value_mix: vec![
                (DataProfile::FloatLike, 4),
                (DataProfile::WideInt, 2),
                (DataProfile::Clustered, 2),
                (DataProfile::Random, 2),
            ],
        }
    }

    /// Social-feed cache: extreme skew, tiny pointer-rich values, and a
    /// hot set that drifts through the key space (diurnal phases).
    #[must_use]
    pub fn social() -> RequestProfile {
        RequestProfile {
            name: "social",
            keys: 100_000,
            skew: 1.20,
            get_ratio: 0.90,
            clients: 8,
            phase_requests: 20_000,
            size_buckets: vec![(64, 3), (128, 3), (256, 2), (512, 1)],
            value_mix: vec![
                (DataProfile::PointerLike, 4),
                (DataProfile::SmallInt, 3),
                (DataProfile::Repeated, 1),
                (DataProfile::Clustered, 1),
                (DataProfile::Random, 1),
            ],
        }
    }

    /// Looks a preset up by [`RequestProfile::NAMES`] entry.
    #[must_use]
    pub fn by_name(name: &str) -> Option<RequestProfile> {
        Some(match name {
            "web" => RequestProfile::web(),
            "analytics" => RequestProfile::analytics(),
            "social" => RequestProfile::social(),
            _ => return None,
        })
    }

    /// The value a key serves: size bucket and data profile, chosen by
    /// weighted hash of the key. Pure: the same key always maps to the
    /// same spec.
    #[must_use]
    pub fn value_spec(&self, key: u64) -> ValueSpec {
        let h = mix(key.wrapping_mul(0x9e37_79b9).wrapping_add(0x5bd1));
        let bytes = pick_weighted(&self.size_buckets, h & 0xffff_ffff);
        let profile = pick_weighted(&self.value_mix, h >> 32);
        ValueSpec { bytes, profile }
    }
}

/// Weighted pick from a `(value, weight)` table by a hash draw: the
/// first entry whose cumulative weight exceeds `draw % total`, or the
/// last entry when every weight is zero.
///
/// Counts the cumulative weights at or below the point and indexes by
/// that count, so the loop always runs the whole table and has no exit
/// branch for the draw to mispredict.
fn pick_weighted<T: Copy>(table: &[(T, u32)], draw: u64) -> T {
    let last = table.len().checked_sub(1).expect("non-empty weight table");
    let total: u64 = table.iter().map(|&(_, w)| u64::from(w)).sum();
    let point = draw % total.max(1);
    let mut cumulative = 0u64;
    let mut below = 0usize;
    for &(_, weight) in table {
        cumulative += u64::from(weight);
        below += usize::from(cumulative <= point);
    }
    table[below.min(last)].0
}

/// A deterministic iterator of [`KvRequest`]s.
///
/// Each client owns an independent SplitMix64 stream (so its popularity
/// draws and op mix are stable however the interleave lands); a
/// scheduler stream picks which client issues each request. Popularity
/// rank maps to a key through a per-phase rotation, so when
/// `phase_requests` elapses the hot set moves.
///
/// # Examples
///
/// ```
/// use bv_trace::request::{RequestProfile, RequestStream};
///
/// let mut stream = RequestStream::new(RequestProfile::web(), 42);
/// let first: Vec<_> = (&mut stream).take(100).collect();
/// let again: Vec<_> = RequestStream::new(RequestProfile::web(), 42)
///     .take(100)
///     .collect();
/// assert_eq!(first, again, "same profile + seed = same stream");
/// ```
#[derive(Clone, Debug)]
pub struct RequestStream {
    profile: RequestProfile,
    zipf: ZipfSampler,
    scheduler: SplitMix64,
    clients: Vec<SplitMix64>,
    issued: u64,
}

impl RequestStream {
    /// Creates the stream for a profile and a seed.
    #[must_use]
    pub fn new(profile: RequestProfile, seed: u64) -> RequestStream {
        let zipf = ZipfSampler::new(profile.keys, profile.skew);
        let clients = (0..profile.clients.max(1))
            .map(|c| SplitMix64::new(mix(seed ^ (u64::from(c) << 32 | 0x00c1_1e47))))
            .collect();
        RequestStream {
            profile,
            zipf,
            scheduler: SplitMix64::new(mix(seed ^ 0x5c4e_d01e)),
            clients,
            issued: 0,
        }
    }

    /// The profile this stream was built from.
    #[must_use]
    pub fn profile(&self) -> &RequestProfile {
        &self.profile
    }

    /// How many requests have been issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The diurnal phase index at the current position (0 when the
    /// profile has no drift).
    #[must_use]
    pub fn phase(&self) -> u64 {
        match self.profile.phase_requests {
            0 => 0,
            p => self.issued / p,
        }
    }

    /// Maps a popularity rank (1-based) to a key under the current
    /// phase rotation.
    fn rank_to_key(&self, rank: u64) -> u64 {
        let keys = self.profile.keys;
        // Each phase shifts the ranking by a fixed large stride, so the
        // hottest keys relocate to a previously-cold region.
        let shift = self.phase().wrapping_mul(keys / 7 + 1);
        (rank - 1 + shift) % keys
    }
}

impl Iterator for RequestStream {
    type Item = KvRequest;

    fn next(&mut self) -> Option<KvRequest> {
        let client = self.scheduler.below(self.clients.len() as u64) as u32;
        let mut rng = self.clients[client as usize].clone();
        let rank = self.zipf.sample(&mut rng);
        let key = self.rank_to_key(rank);
        let op = if rng.next_f64() < self.profile.get_ratio {
            KvOp::Get
        } else {
            KvOp::Put
        };
        self.clients[client as usize] = rng;
        self.issued += 1;
        Some(KvRequest { client, op, key })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_stay_in_range() {
        let zipf = ZipfSampler::new(1000, 0.99);
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let rank = zipf.sample(&mut rng);
            assert!((1..=1000).contains(&rank));
        }
    }

    /// The headline skew pin: for s = 0.99 over 10k keys, the top 1% of
    /// ranks must capture their analytic probability mass (~53%) within
    /// a 2-point tolerance.
    #[test]
    fn zipf_top_one_percent_share_matches_analytic_mass() {
        let n = 10_000u64;
        let s = 0.99;
        let samples = 200_000u64;
        let zipf = ZipfSampler::new(n, s);
        let mut rng = SplitMix64::new(1);
        let mut top = 0u64;
        for _ in 0..samples {
            if zipf.sample(&mut rng) <= n / 100 {
                top += 1;
            }
        }
        let harmonic: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let expect: f64 = (1..=n / 100).map(|k| (k as f64).powf(-s)).sum::<f64>() / harmonic;
        let got = top as f64 / samples as f64;
        assert!(
            (got - expect).abs() < 0.02,
            "top-1% share {got:.4} vs analytic {expect:.4}"
        );
    }

    /// Rank 1 must dominate rank 2 by roughly 2^s.
    #[test]
    fn zipf_rank_ratio_tracks_exponent() {
        let zipf = ZipfSampler::new(100, 1.0);
        let mut rng = SplitMix64::new(9);
        let (mut r1, mut r2) = (0u64, 0u64);
        for _ in 0..200_000 {
            match zipf.sample(&mut rng) {
                1 => r1 += 1,
                2 => r2 += 1,
                _ => {}
            }
        }
        let ratio = r1 as f64 / r2 as f64;
        assert!((1.8..=2.2).contains(&ratio), "p(1)/p(2) = {ratio:.3}");
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_differ_across_seeds() {
        for profile in [
            RequestProfile::web(),
            RequestProfile::analytics(),
            RequestProfile::social(),
        ] {
            let a: Vec<_> = RequestStream::new(profile.clone(), 11).take(500).collect();
            let b: Vec<_> = RequestStream::new(profile.clone(), 11).take(500).collect();
            let c: Vec<_> = RequestStream::new(profile.clone(), 12).take(500).collect();
            assert_eq!(a, b, "{}: same seed must replay", profile.name);
            assert_ne!(a, c, "{}: seeds must matter", profile.name);
        }
    }

    #[test]
    fn value_specs_are_stable_and_sized_in_line_multiples() {
        let profile = RequestProfile::web();
        for key in 0..2_000u64 {
            let spec = profile.value_spec(key);
            assert_eq!(spec, profile.value_spec(key), "spec must be pure");
            assert!(
                spec.bytes >= 64 && spec.bytes.is_multiple_of(64),
                "{}",
                spec.bytes
            );
        }
    }

    #[test]
    fn diurnal_rotation_moves_the_hot_set() {
        let profile = RequestProfile::social();
        let mut stream = RequestStream::new(profile.clone(), 5);
        let phase_len = profile.phase_requests;
        let first: Vec<u64> = (&mut stream)
            .take(phase_len as usize)
            .map(|r| r.key)
            .collect();
        let second: Vec<u64> = (&mut stream)
            .take(phase_len as usize)
            .map(|r| r.key)
            .collect();
        let hottest = |keys: &[u64]| {
            let mut counts = std::collections::HashMap::new();
            for &k in keys {
                *counts.entry(k).or_insert(0u64) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).expect("keys").0
        };
        assert_ne!(
            hottest(&first),
            hottest(&second),
            "phase rotation must relocate the hottest key"
        );
    }

    #[test]
    fn client_interleave_uses_every_client() {
        let profile = RequestProfile::web();
        let seen: std::collections::HashSet<u32> = RequestStream::new(profile.clone(), 1)
            .take(2_000)
            .map(|r| r.client)
            .collect();
        assert_eq!(seen.len() as u32, profile.clients);
    }

    /// A profile with one client must still produce a valid stream (the
    /// scheduler draws from a one-entry table) and attribute every
    /// request to client 0.
    #[test]
    fn single_client_stream_attributes_everything_to_client_zero() {
        let mut profile = RequestProfile::web();
        profile.clients = 1;
        let requests: Vec<_> = RequestStream::new(profile, 77).take(1_000).collect();
        assert_eq!(requests.len(), 1_000);
        assert!(requests.iter().all(|r| r.client == 0));
    }

    /// Taking zero requests is legal: nothing is issued, the phase stays
    /// at 0, and the stream is still usable afterwards.
    #[test]
    fn zero_request_stream_is_inert_but_alive() {
        let mut stream = RequestStream::new(RequestProfile::social(), 3);
        let none: Vec<_> = (&mut stream).take(0).collect();
        assert!(none.is_empty());
        assert_eq!(stream.issued(), 0);
        assert_eq!(stream.phase(), 0);
        assert!(stream.next().is_some(), "stream must survive an empty take");
        assert_eq!(stream.issued(), 1);
    }

    /// The diurnal phase must roll over exactly at the period boundary:
    /// request `phase_requests - 1` is still phase 0, request
    /// `phase_requests` is phase 1, and the key a fixed rank maps to
    /// moves at that instant and not before.
    #[test]
    fn phase_rolls_over_exactly_at_the_period_boundary() {
        let mut profile = RequestProfile::social();
        profile.phase_requests = 10;
        let mut stream = RequestStream::new(profile, 9);
        for i in 0..30u64 {
            assert_eq!(stream.phase(), i / 10, "before request {i}");
            stream.next();
        }
        assert_eq!(stream.issued(), 30);
        assert_eq!(stream.phase(), 3);
    }

    /// `s = 0` is the uniform degeneracy: every rank equally likely. The
    /// observed per-rank frequency over a small rank space must sit
    /// within a loose band of the uniform expectation.
    #[test]
    fn zipf_zero_exponent_degenerates_to_uniform() {
        let n = 16u64;
        let samples = 160_000u64;
        let zipf = ZipfSampler::new(n, 0.0);
        let mut rng = SplitMix64::new(4);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..samples {
            let rank = zipf.sample(&mut rng);
            assert!((1..=n).contains(&rank));
            counts[(rank - 1) as usize] += 1;
        }
        let expect = samples as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expect).abs() / expect;
            assert!(rel < 0.05, "rank {}: {c} vs uniform {expect:.0}", i + 1);
        }
    }

    /// Reference for `pick_weighted`: a sequential scan that subtracts
    /// weights until the point falls inside one.
    fn pick_by_scan<T: Copy>(table: &[(T, u32)], draw: u64) -> T {
        let total: u64 = table.iter().map(|&(_, w)| u64::from(w)).sum();
        let mut point = draw % total.max(1);
        for &(value, weight) in table {
            let weight = u64::from(weight);
            if point < weight {
                return value;
            }
            point -= weight;
        }
        table.last().expect("non-empty weight table").0
    }

    #[test]
    fn pick_weighted_matches_the_sequential_scan() {
        bv_testkit::cases(2_000, |rng| {
            let len = rng.range_u64(1, 9) as usize;
            let mut table: Vec<(usize, u32)> = (0..len).map(|i| (i, rng.below(6) as u32)).collect();
            // One case in eight zeroes the whole table.
            if rng.below(8) == 0 {
                table.iter_mut().for_each(|e| e.1 = 0);
            }
            let total: u64 = table.iter().map(|&(_, w)| u64::from(w)).sum();
            for draw in [
                0,
                total.wrapping_sub(1),
                total,
                u64::MAX,
                rng.next_u64(),
                rng.below(total.max(1)),
            ] {
                assert_eq!(
                    pick_weighted(&table, draw),
                    pick_by_scan(&table, draw),
                    "table {table:?}, draw {draw}"
                );
            }
        });
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in RequestProfile::NAMES {
            assert_eq!(RequestProfile::by_name(name).expect("preset").name, name);
        }
        assert!(RequestProfile::by_name("bogus").is_none());
    }
}
