//! `mss-pipe` — the content-addressed stage pipeline.
//!
//! The paper's cross-layer flow (compact model → SPICE/PDK cell
//! characterisation → NVSim array estimation → VAET variation solve →
//! MAGPIE system simulation → McPAT accounting) is a dataflow of
//! artifacts, and the expensive upstream artifacts are *shared*: every
//! scenario of a node sweep re-uses the same `CellLibrary`, and every
//! iso-capacity cache configuration that appears twice re-uses the same
//! `ArrayMetrics`. This crate turns that observation into machinery:
//!
//! - [`hash`] — a structural [`hash::StableHash`] trait with a
//!   fully specified FNV-1a + SplitMix64 hasher, stable across processes
//!   and releases, producing the 16-hex-digit content address of a stage's
//!   inputs;
//! - [`codec`] — the NDJSON line codec for on-disk entries, with exact
//!   (`f64::to_bits`) float round-tripping;
//! - [`cache`] — the two-tier memoization cache: a bounded in-memory store
//!   plus an opt-in on-disk store under `target/mss-cache/` (`MSS_CACHE`,
//!   `MSS_CACHE_DIR`), validated on load so corruption degrades to a
//!   recompute, never an error;
//! - [`checkpoint`] — append-only, crash-tolerant sweep journals so a
//!   killed run resumes from its completed tasks instead of from scratch.
//!
//! Memoization here is semantically transparent by construction: every
//! stage computation in the workspace is a pure deterministic function of
//! its hashed inputs, so reports are bit-identical at any `MSS_THREADS`
//! and any cache temperature. Like the rest of the workspace this crate
//! has **zero external dependencies**.

#![deny(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod codec;
pub mod hash;

pub use cache::{
    global, init_global_with, parse_cache_dir, Artifact, PipeCache, Stage, StageStats,
    CACHE_DIR_ENV, CACHE_ENV, DEFAULT_CACHE_DIR,
};
pub use checkpoint::{SweepJournal, TaskState};
pub use hash::{digest_of, StableHash, StableHasher};
