//! VAET-STT: a Variation-Aware Estimator Tool for STT-MRAM memories.
//!
//! Reimplementation of the paper's Sec. III tool: *"built on the top of
//! NVSim and extends it to account for variability in both the bit-cell and
//! peripheral components. The impact of variability causes the latency and
//! energy of the bit-cell and peripherals to follow distributions instead of
//! being a single (nominal) value."*
//!
//! - [`context`] — bundles the nominal flow (tech card, stack, characterised
//!   cell library, array organisation, NVSim estimate) with the node's
//!   variation card,
//! - [`montecarlo`] — access-level Monte Carlo producing the μ/σ
//!   distributions of Table 1 (word-completion latency: an access finishes
//!   when its *slowest* bit does),
//! - [`margins`] — timing margins for target write/read error rates
//!   (Fig. 7),
//! - [`ecc`] — error-correcting-code trade-offs: write latency vs corrected
//!   bits at a fixed uncorrectable-error target (Fig. 8),
//! - [`read`] — read-disturb probability vs read period and the RER/disturb
//!   conflict (Fig. 9),
//! - [`optimize`] — variation-aware memory-configuration optimisation under
//!   reliability requirements (the tool's stated purpose in Sec. III),
//! - [`temperature`] — the reliability picture across the industrial IoT
//!   temperature range,
//! - [`report`] — the Table-1-shaped output record.
//!
//! # Example
//!
//! ```no_run
//! use mss_exec::ParallelConfig;
//! use mss_vaet::context::VaetContext;
//! use mss_vaet::montecarlo::{run_with, MonteCarloOptions};
//! use mss_pdk::tech::TechNode;
//!
//! # fn main() -> Result<(), mss_vaet::VaetError> {
//! let ctx = VaetContext::standard(TechNode::N45)?;
//! let opts = MonteCarloOptions { samples: 500, seed: 1, ..Default::default() };
//! let report = run_with(&ctx, &opts, &ParallelConfig::from_env())?;
//! // Variation-aware mean far exceeds the nominal value (paper Table 1).
//! assert!(report.write_latency.mean > ctx.nominal.write_latency);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod context;
pub mod ecc;
mod error;
pub mod margins;
pub mod montecarlo;
pub mod optimize;
pub mod read;
pub mod report;
pub mod temperature;

pub use error::VaetError;
