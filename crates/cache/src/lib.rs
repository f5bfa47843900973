//! Generic set-associative cache substrate.
//!
//! This crate provides the building blocks shared by every cache level in
//! the Base-Victim reproduction: address/geometry arithmetic, pluggable
//! replacement policies (LRU, 1-bit NRU, SRRIP, a CHAR-style set-dueling
//! policy, and deterministic pseudo-random), the [`TagArray`] every
//! cache's tags live in, a concrete tag-only [`BasicCache`] used for the
//! L1/L2 levels, and the statistics counters every experiment reads.
//!
//! The last-level-cache *organizations* (uncompressed, two-tag,
//! Base-Victim, VSC) live in the `bv-core` crate and are built from these
//! parts.
//!
//! # Examples
//!
//! ```
//! use bv_cache::{BasicCache, CacheGeometry, LineAddr, PolicyKind};
//!
//! let geom = CacheGeometry::new(32 * 1024, 8, 64); // 32 KB, 8-way
//! let mut l1 = BasicCache::new(geom, PolicyKind::Lru);
//!
//! let addr = LineAddr::from_byte_addr(0x4000);
//! assert!(l1.probe(addr).is_none());
//! l1.fill(addr);
//! assert!(l1.probe(addr).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod basic;
pub mod engine;
mod geometry;
pub mod replacement;
mod stats;
mod tags;

pub use addr::LineAddr;
pub use basic::{BasicCache, Eviction};
pub use geometry::{CacheGeometry, MAX_WAYS};
pub use replacement::{Policy, PolicyKind, ReplacementPolicy};
pub use stats::{CacheStats, Effects, LlcStats};
pub use tags::TagArray;
