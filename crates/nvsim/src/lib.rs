//! An NVSim-class estimator: circuit-level performance, energy and area
//! models for complete memory arrays.
//!
//! VAET-STT (the paper's Sec. III) "is built on the top of NVSim and extends
//! it to account for variability in both the bit-cell and peripheral
//! components". This crate is the NVSim layer: deterministic (nominal)
//! estimation of read/write latency, access energies, leakage and area for
//! an organised memory array, for both SRAM and STT-MRAM cells.
//!
//! - [`config`] — array organisation (capacity, word width, banks, subarray
//!   split, RAM vs cache),
//! - [`sram`] — the SRAM (6T) cell model derived from a CMOS card,
//! - [`model`] — the estimator proper (decoder chains via logical effort,
//!   Elmore word/bit-line RC, cell access, sense, drivers),
//! - [`explore`] — design-space exploration over subarray organisations
//!   under an optimisation target (the paper's "optimization settings ...
//!   to facilitate a variation-aware design space exploration").
//!
//! # Example
//!
//! ```
//! use mss_nvsim::config::MemoryConfig;
//! use mss_nvsim::model::{estimate, MemoryTechnology};
//! use mss_pdk::tech::{TechNode, TechParams};
//!
//! # fn main() -> Result<(), mss_nvsim::NvsimError> {
//! let tech = TechParams::node(TechNode::N45);
//! let cfg = MemoryConfig::ram(1024 * 1024 / 8, 64)?; // 1 Mb array, 64-bit word
//! let sram = estimate(&tech, &cfg, &MemoryTechnology::Sram)?;
//! assert!(sram.read_latency > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
mod error;
pub mod explore;
pub mod model;
pub mod sram;

pub use error::NvsimError;
