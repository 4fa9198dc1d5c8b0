//! MAGPIE — the cross-layer hybrid design-exploration flow on the MSS
//! technology (the paper's Sec. IV, Fig. 10).
//!
//! The flow chains every layer of this workspace exactly as the paper's
//! Fig. 10 describes:
//!
//! 1. **Circuit level** — `mss-pdk` characterises the 1T-1MTJ cell with
//!    `mss-spice` (template → transient → MDL → cell configuration file),
//! 2. **Memory level** — `mss-nvsim` turns the cell configuration plus an
//!    array organisation into latency/energy/area/leakage for each cache,
//! 3. **System level** — `mss-gemsim` executes Parsec-like kernels on a
//!    big.LITTLE platform whose L2s are SRAM or STT-MRAM per scenario, and
//!    `mss-mcpat` converts the activity into component energies.
//!
//! The four scenarios of Fig. 11/12 are [`scenario::Scenario`]; the
//! top-level driver is [`flow::MagpieFlow`].
//!
//! # Example
//!
//! ```no_run
//! use mss_core::flow::{MagpieFlow, MagpieInputs};
//! use mss_core::scenario::Scenario;
//! use mss_exec::ParallelConfig;
//! use mss_gemsim::workload::Kernel;
//! use mss_pdk::tech::TechNode;
//!
//! # fn main() -> Result<(), mss_core::MagpieError> {
//! let flow = MagpieFlow::new(MagpieInputs {
//!     node: TechNode::N45,
//!     kernels: vec![Kernel::bodytrack()],
//!     scenarios: Scenario::ALL.to_vec(),
//!     seed: 42,
//!     sample_cap: 50_000,
//!     // STT mechanism — the paper default.
//!     ..MagpieInputs::defaults()
//! })?;
//! let report = flow.run_with(&ParallelConfig::from_env())?;
//! println!("{}", report.fig12_table());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod flow;
pub mod scenario;

pub use error::MagpieError;
