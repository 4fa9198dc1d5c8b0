//! A gem5-class manycore performance simulator.
//!
//! MAGPIE (the paper's Sec. IV) uses gem5 to "simulate a single-core or a
//! multi-core architecture with its memory hierarchy" and to produce "a
//! detailed report of the system activity including the number of memory
//! transactions (e.g. number of reads/writes, number of hits/misses) and the
//! execution time". This crate is that layer, sized to what the evaluation
//! consumes: aggregate activity statistics, not cycle-by-cycle microarchitecture.
//!
//! - [`core`] — big/LITTLE core timing models (frequency, CPI, stall
//!   overlap),
//! - [`cache`] — set-associative LRU caches with full activity counters,
//! - [`workload`] — statistical Parsec-like kernels (instruction mix,
//!   working set, stack-distance locality),
//! - [`faultmem`] — an opt-in fault-aware memory array behind an ECC
//!   controller (seeded injection via `mss-fault`, bounded write retry,
//!   correct/detect/scrub, graceful degradation),
//! - [`system`] — the big.LITTLE platform: per-core L1s, per-cluster shared
//!   L2s, a flat-latency DRAM,
//! - [`stats`] — the activity report consumed by `mss-mcpat`,
//! - [`mod@reference`] — deliberately naive executable specification of the
//!   hot-loop semantics, used by the parity tests and the performance gate.
//!
//! # Example
//!
//! ```
//! use mss_gemsim::system::{System, SystemConfig};
//! use mss_gemsim::workload::Kernel;
//!
//! # fn main() -> Result<(), mss_gemsim::GemsimError> {
//! let config = SystemConfig::big_little_default();
//! let system = System::new(config)?;
//! let report = system.run(&Kernel::bodytrack(), 42)?;
//! assert!(report.runtime_seconds > 0.0);
//! assert!(report.total_instructions() > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod core;
mod error;
pub mod faultmem;
pub mod reference;
pub mod stats;
pub mod system;
pub mod workload;

pub use error::GemsimError;
