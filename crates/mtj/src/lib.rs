//! Compact model of the GREAT project's **Multifunctional Standardized
//! Stack** (MSS): a perpendicular STT-MTJ that one technology retargets into
//! three functions by adding patterned permanent magnets next to the pillar.
//!
//! The paper (Tahoori et al., DATE 2018) describes the MSS as:
//!
//! - **Memory mode** — a plain perpendicular STT-MTJ; retention is tuned by
//!   the pillar diameter, the switching current follows from the retention
//!   spec.
//! - **Spin-torque-oscillator (RF) mode** — an in-plane bias field of about
//!   half the effective perpendicular anisotropy field (~1 kOe) tilts the
//!   free layer to ≈30°; a DC current then sustains GHz precession.
//! - **Sensor mode** — a larger pillar and a bias field slightly *above* the
//!   anisotropy field pull the free layer in-plane; an out-of-plane field
//!   rotates it up or down, producing a resistance change proportional to
//!   the field.
//!
//! This crate implements that device abstraction at two fidelity levels,
//! mirroring the Verilog-A "compact modelling strategies" compared in the
//! project (Jabeur et al., Electronics Letters 2014):
//!
//! - an **analytic (behavioural) model** — closed-form switching time,
//!   write-error rate, retention and read-disturb expressions
//!   ([`switching`], [`reliability`]),
//! - a **physical model** — a macrospin Landau–Lifshitz–Gilbert–Slonczewski
//!   integrator with an optional stochastic thermal field ([`llg`]),
//! - **co-integration analytics** — the Stoner–Wohlfarth astroid and
//!   stray-field retention budget for memory pillars living next to biased
//!   sensor/oscillator pillars ([`astroid`]).
//!
//! # Quickstart
//!
//! ```
//! use mss_mtj::{MssStack, MssDevice};
//!
//! # fn main() -> Result<(), mss_mtj::MtjError> {
//! let stack = MssStack::builder().diameter(40e-9).build()?;
//! // Memory mode: check the stack holds data for > 10 years.
//! let mem = MssDevice::memory(stack.clone());
//! assert!(mem.retention_seconds() > 10.0 * 365.25 * 86400.0);
//! // Oscillator mode: free layer tilts to ~30 degrees.
//! let osc = MssDevice::oscillator(stack);
//! let tilt = osc.equilibrium_tilt_degrees();
//! assert!((tilt - 30.0).abs() < 2.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod astroid;
mod error;
pub mod llg;
pub mod mechanism;
pub(crate) mod modes;
pub mod reliability;
pub mod resistance;
pub(crate) mod stack;
pub mod switching;
pub mod validate;

pub use error::MtjError;
pub use mechanism::{MechanismConfig, MechanismKind, SotMechanism, SotParams};
pub use modes::{BiasMagnet, MssDevice, MssMode};
pub use stack::{MssStack, MssStackBuilder};
