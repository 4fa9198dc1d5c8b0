//! Foundations shared by every crate in the GREAT MSS workspace.
//!
//! This crate deliberately contains no domain logic. It provides:
//!
//! - [`consts`] — CODATA physical constants and magnetics conversions,
//! - `vec3` — a small 3-vector used by the macrospin LLG solver,
//! - [`math`] — special functions (erf/erfc, Gaussian tail `Q`, its inverse),
//!   root finding and quadrature,
//! - [`stats`] — streaming statistics (Welford) and percentile helpers,
//! - [`rng`] — an in-tree PRNG stack (SplitMix64 seeding, xoshiro256++
//!   core, deterministic stream splitting) plus reproducible Gaussian /
//!   lognormal / truncated sampling on top of any [`rng::Rng`], and the
//!   table-driven geometric count [`rng::GeometricFloor`],
//! - [`fmt`] — engineering-notation formatting for report tables.
//!
//! # Examples
//!
//! ```
//! use mss_units::consts::{KB, ROOM_TEMPERATURE};
//! use mss_units::math::q_function;
//!
//! let thermal_energy = KB * ROOM_TEMPERATURE;
//! assert!(thermal_energy > 4.0e-21 && thermal_energy < 4.2e-21);
//! // One-sided 3-sigma tail.
//! assert!((q_function(3.0) - 1.3499e-3).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]

pub mod consts;
pub mod fmt;
pub mod math;
pub mod rng;
pub mod stats;
pub(crate) mod vec3;

pub use vec3::Vec3;
