//! `mss-fault` — the deterministic fault-injection plane of the GREAT MSS
//! flow.
//!
//! The paper's memory layer is fundamentally about reliability under faults
//! (Sec. III: WER/RER targets, ECC trade-offs, read disturb), but the
//! analytical models in `mss-mtj` and `mss-vaet` only *predict* error rates —
//! they never exercise an actual failure path. This crate closes that loop:
//!
//! - `plan` — [`FaultPlan`]/[`FaultModel`]: per-site fault rates (stochastic
//!   write failure, read disturb, retention/transient flips, stuck-at cells),
//!   either given directly or derived from the `mss-mtj` analytical models
//!   via [`MtjOperatingPoint`],
//! - `inject` — [`FaultInjector`]: *stateless* seeded Bernoulli draws, made
//!   as geometric gaps between the faulty bits of a word. Every decision is
//!   a pure hash of `(seed, kind, site, epoch)` and a gap counter, so
//!   injection is bit-identical at any `MSS_THREADS`, any chunking, and any
//!   access interleaving,
//! - [`chaos`] — the runtime chaos harness: stateless seeded decisions to
//!   panic, fail, or stall supervised sweep tasks (attempt-bounded so
//!   bounded retry provably converges) plus deterministic on-disk cache
//!   poisoning, exercising `mss-exec`'s supervisor end to end,
//! - `campaign` — seeded Monte Carlo campaigns that inject bit errors into
//!   ECC blocks and compare the empirical word-error and block-uncorrectable
//!   rates against the analytical binomial model
//!   ([`mss_vaet::ecc::EccScheme::uncorrectable_probability`]) with 3σ
//!   binomial tolerances.
//!
//! Everything is **off by default**: a [`FaultPlan::disabled`] plan injects
//! nothing and costs nothing. The resilience mechanisms the plane exercises
//! live next to the subsystems they protect (`mss-gemsim`'s ECC
//! correct/detect/scrub memory path, `mss-spice`'s solver retry ladder).
//!
//! # Determinism contract
//!
//! [`FaultInjector`] draws depend only on `(seed, kind, site, epoch)` —
//! never on thread count, chunk size, or the order in which sites are
//! visited. Campaigns fan out over `mss-exec` with per-block stateless draws
//! and merge counters in block order, so a fixed seed reproduces every
//! injected fault exactly.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub(crate) mod campaign;
pub mod chaos;
pub(crate) mod inject;
pub(crate) mod plan;

mod error;

pub use campaign::{run_ecc_campaign, CampaignOptions, CampaignReport};
pub use error::FaultError;
pub use inject::{FaultInjector, WordDraw};
pub use plan::{FaultModel, FaultPlan, MtjOperatingPoint};
