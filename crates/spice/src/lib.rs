//! A compact SPICE-class circuit simulator for the GREAT MSS flow.
//!
//! The paper's circuit level (Sec. IV-A) runs template-generated netlists
//! through SPICE, measures delays/energies/currents with a Measurement
//! Descriptive Language (MDL) and hands the measured values to `mss-pdk`,
//! which writes the VAET-STT cell configuration. This crate is that engine:
//!
//! - [`netlist`] — programmatic netlist construction (R, C, V, I, level-1
//!   MOSFETs, MTJ devices from `mss-mtj`),
//! - [`parser`] — a SPICE-like text front end with engineering suffixes,
//! - [`template`] — `{param}` substitution for netlist/stimulus templates,
//! - [`analysis`] — DC operating point (Newton) and fixed-step transient
//!   (backward-Euler companion models),
//! - [`mdl`] — measurement specs (delay, energy, windowed average,
//!   crossing time) evaluated against transient results,
//! - [`solver`] — dense LU with partial pivoting over a reusable
//!   [`Workspace`] (circuits here are tiny),
//! - [`batch`] — symbolic-once/numeric-many batched DC solves for
//!   same-structure Monte Carlo workloads, dispatched across `mss-exec`
//!   workers deterministically.
//!
//! # Example: RC step response
//!
//! ```
//! use mss_spice::netlist::Netlist;
//! use mss_spice::waveform::Waveform;
//! use mss_spice::analysis::{Transient, TransientOptions};
//!
//! # fn main() -> Result<(), mss_spice::SpiceError> {
//! let mut nl = Netlist::new();
//! nl.add_vsource("vin", "in", "0", Waveform::dc(1.0))?;
//! nl.add_resistor("r1", "in", "out", 1e3)?;
//! nl.add_capacitor("c1", "out", "0", 1e-12)?;
//! let result = Transient::new(&nl).run(&TransientOptions::new(1e-11, 10e-9))?;
//! let v_out = result.node_voltage("out")?;
//! // After 10 tau the output has settled to the input.
//! assert!((v_out.last().copied().unwrap() - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod batch;
mod error;
pub mod mdl;
pub mod mosfet;
pub(crate) mod mtjelem;
pub mod netlist;
pub mod parser;
pub mod solver;
pub mod template;
pub mod waveform;

pub use error::{RetryAttempt, SpiceError};
pub use solver::Workspace;
