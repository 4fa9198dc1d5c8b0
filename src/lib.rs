//! `great-mss` — umbrella crate for the Rust reproduction of *"Using
//! Multifunctional Standardized Stack as Universal Spintronic Technology for
//! IoT"* (Tahoori et al., DATE 2018).
//!
//! Re-exports every layer of the cross-layer flow under one roof:
//!
//! - [`exec`] — the deterministic scoped-thread parallel runtime,
//! - [`obs`] — zero-dependency observability (spans, counters, NDJSON reports),
//! - [`pipe`] — the content-addressed stage pipeline cache (memoized
//!   cross-layer artifacts, incremental sweeps),
//! - [`mtj`] — the MSS compact model (memory / sensor / oscillator modes),
//! - [`spice`] — netlist-level MNA circuit simulation with MDL measurements,
//! - [`pdk`] — CMOS + MTJ process design kit, standard cells, characterisation,
//! - [`nvsim`] — memory-array latency/energy/area estimation,
//! - [`vaet`] — variation-aware estimation (Monte Carlo, ECC, RER/WER),
//! - [`fault`] — deterministic seeded fault injection (write/read-disturb/
//!   transient/stuck-at) with ECC cross-validation campaigns,
//! - [`gemsim`] — manycore performance simulation with Parsec-like kernels,
//! - [`mcpat`] — architecture-level power/area estimation,
//! - [`core`] — the MAGPIE cross-layer hybrid design-exploration flow.
//!
//! See `README.md` for the architecture overview and `DESIGN.md` for the
//! experiment index.

#![forbid(unsafe_code)]

pub use mss_core as core;
pub use mss_exec as exec;
pub use mss_fault as fault;
pub use mss_gemsim as gemsim;
pub use mss_mcpat as mcpat;
pub use mss_mtj as mtj;
pub use mss_nvsim as nvsim;
pub use mss_obs as obs;
pub use mss_pdk as pdk;
pub use mss_pipe as pipe;
pub use mss_spice as spice;
pub use mss_units as units;
pub use mss_vaet as vaet;

/// Compiles and runs the Rust blocks of `README.md` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
