//! Adversarial workload fuzzing for the Base-Victim guarantees.
//!
//! The paper's headline claim — the Baseline area bit-mirrors an
//! uncompressed cache, so compression can only ever *add* hits — is
//! checked elsewhere on curated traces and preset kv profiles. This
//! crate hunts for inputs that break it: deterministic random workloads
//! (Zipf skew, client interleavings, diurnal phases, value-size and
//! compressibility mixtures) sharpened by adversarial mutators
//! (hot-set flips, budget-boundary value sizes, incompressible bursts,
//! set-aliasing address patterns), each replayed through its domain's
//! lockstep oracle (`bv_testkit::mirror`) and then the organization
//! zoo's stats-identity, budget and determinism checks.
//!
//! The pipeline is **generator → auditor → shrinker**:
//!
//! * [`FuzzCase::generate`] materializes a workload as a pure function
//!   of one SplitMix64 seed (see [`case`]).
//! * [`check::verdict`] replays it against every property, honoring the
//!   `--inject` convention: injected cases pass when the fault is
//!   *detected* (see [`check`]).
//! * [`shrink::shrink`] delta-debugs a tripping case down to a minimal
//!   reproducer (see [`mod@shrink`]), which [`corpus`] serializes as a
//!   committable `.bvfuzz.json` file for `tests/corpus/`.
//! * [`runner::run_fuzz`] ties it together as the `bvsim fuzz`
//!   campaign, with progress counters for telemetry.
//!
//! Everything is seed-deterministic end to end: a failing case is fully
//! described by `(master seed, case index)` even before the reproducer
//! file is written.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod check;
pub mod corpus;
pub mod runner;
pub mod shrink;

pub use case::{CaseBody, Domain, FuzzCase, KvCase, LlcCase};
pub use check::{observe, verdict, FuzzFailure, LLC_KINDS};
pub use corpus::{from_json, load, save, to_json, EXTENSION, SCHEMA};
pub use runner::{
    run_fuzz, run_inject_selftest, CampaignFailure, FuzzConfig, FuzzReport, InjectReport,
};
pub use shrink::{shrink, ShrinkOutcome};
