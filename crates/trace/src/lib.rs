//! Deterministic synthetic workload and trace generation.
//!
//! The paper evaluates on 100 proprietary instruction traces (SPEC CPU2006
//! FP/INT, Sysmark productivity runs, Octane/Cinebench/3DMark client
//! workloads — Table I). Those traces are not available, so this crate
//! synthesizes deterministic replacements that preserve the two properties
//! the evaluation actually depends on:
//!
//! 1. **Cache sensitivity** — how the LLC miss rate responds to effective
//!    capacity, controlled by each workload's working-set size and access
//!    kernels (streaming, strided, hot/cold, pointer chasing).
//! 2. **BDI compressibility** — the distribution of compressed line sizes,
//!    controlled by per-region data-value profiles (zeros, small integers,
//!    pointers into a heap, floating-point-like noise, repeated values,
//!    random bytes).
//!
//! The [`registry`] module instantiates 100 named traces in the paper's
//! four categories with the paper's published aggregates: 60 of 100 traces
//! cache-sensitive, of which 50 compress to ≈50% of their uncompressed
//! size and 10 compress poorly (>75%).
//!
//! # Examples
//!
//! ```
//! use bv_trace::TraceRegistry;
//!
//! let registry = TraceRegistry::paper_default();
//! assert_eq!(registry.all().count(), 100);
//! assert_eq!(registry.cache_sensitive().count(), 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data_profile;
mod divisor;
pub mod kernel;
pub mod mix;
pub mod record;
pub mod registry;
pub mod request;
pub mod synth;

pub use data_profile::DataProfile;
pub use kernel::KernelKind;
pub use mix::MixSpec;
pub use record::{AccessKind, TraceEvent};
pub use registry::{TraceRegistry, TraceSpec, WorkloadCategory};
pub use request::{KvOp, KvRequest, RequestProfile, RequestStream, ValueSpec, ZipfSampler};
pub use synth::{TraceDecoder, TraceGenerator};
