//! Process design kit (PDK) for the MSS technology.
//!
//! Section II of the paper describes a hybrid PDK: CMOS device cards plus
//! the MTJ compact model, feeding circuit simulation of "single bit cells
//! and flip-flops based on MRAM, sense amplifiers, and write circuits". This
//! crate provides:
//!
//! - [`tech`] — the 45 nm and 65 nm CMOS technology cards (supply, MOSFET
//!   model parameters, wire RC, leakage, cell-area factors),
//! - [`variation`] — process-variation cards for both the CMOS and magnetic
//!   processes, with Pelgrom-style node scaling (σ grows at smaller nodes),
//! - [`cells`] — standard-cell netlist templates: the 1T-1MTJ bit cell, the
//!   pre-charge sense amplifier (PCSA), the write driver, a non-volatile
//!   flip-flop and the MSS-based programmable current source mentioned for
//!   the sensor feedback loop,
//! - [`charlib`] — the characterisation harness (template → `mss-spice`
//!   transient → MDL → [`charlib::CellLibrary`]), i.e. the left half of the
//!   paper's Fig. 10 flow.
//!
//! # Example
//!
//! ```
//! use mss_pdk::tech::{TechNode, TechParams};
//! use mss_pdk::charlib::characterize_with;
//! use mss_mtj::MssStack;
//!
//! # fn main() -> Result<(), mss_pdk::PdkError> {
//! let stack = MssStack::builder().build().map_err(mss_pdk::PdkError::from)?;
//! let lib = characterize_with(&TechParams::node(TechNode::N45), &stack)?;
//! assert!(lib.write.latency > 0.0);
//! assert!(lib.read.latency < lib.write.latency);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cells;
pub mod charlib;
mod error;
pub mod tech;
pub mod variation;

pub use error::PdkError;
