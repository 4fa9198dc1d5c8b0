//! Seeded Monte Carlo fault campaigns cross-validating the injection plane
//! against the analytical ECC model.
//!
//! A campaign writes-then-reads a population of ECC blocks through the
//! [`FaultInjector`], tallies the raw bit errors each block accumulates, and
//! classifies every block with [`EccScheme::classify`]. Because every
//! per-bit fault is an independent Bernoulli draw, the block error count is
//! exactly binomial — so the empirical word-error, read-disturb, and
//! block-uncorrectable rates must agree with
//! [`EccScheme::uncorrectable_probability`] within standard binomial
//! tolerances. That agreement is the evidence that the stochastic plane and
//! the analytical plane describe the same physics.

use mss_exec::{par_chunks, ParallelConfig};
use mss_vaet::ecc::{EccOutcome, EccScheme};

use crate::inject::FaultInjector;
use crate::plan::FaultPlan;
use crate::FaultError;

/// Campaign shape: how many blocks to expose, under which code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignOptions {
    /// Number of ECC blocks written and read once each.
    pub(crate) blocks: u64,
    /// The code protecting each block.
    pub(crate) scheme: EccScheme,
    /// Fan-out policy (chunk boundaries do not affect results — draws are
    /// stateless — but a fixed policy keeps run stats comparable).
    pub(crate) parallel: ParallelConfig,
}

impl CampaignOptions {
    /// A campaign over `blocks` blocks with the environment's parallelism.
    pub fn new(blocks: u64, scheme: EccScheme) -> Self {
        Self {
            blocks,
            scheme,
            parallel: ParallelConfig::from_env(),
        }
    }

    /// Returns the options with an explicit parallel policy.
    pub const fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    fn validate(&self) -> Result<(), FaultError> {
        if self.blocks == 0 {
            return Err(FaultError::InvalidCampaign {
                reason: "campaign needs at least one block".into(),
            });
        }
        if usize::try_from(self.blocks).is_err() {
            return Err(FaultError::InvalidCampaign {
                reason: format!("{} blocks exceeds the address space", self.blocks),
            });
        }
        if self.scheme.block_bits() == 0 {
            return Err(FaultError::InvalidCampaign {
                reason: "ECC scheme has an empty block".into(),
            });
        }
        Ok(())
    }
}

/// Per-chunk fault tally, merged in chunk order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    write_errors: u64,
    read_disturbs: u64,
    transients: u64,
    stuck_cells: u64,
    stuck_errors: u64,
    bit_errors: u64,
    clean: u64,
    corrected: u64,
    detected: u64,
    uncorrectable: u64,
}

impl Tally {
    fn merge(mut self, other: &Tally) -> Tally {
        self.write_errors += other.write_errors;
        self.read_disturbs += other.read_disturbs;
        self.transients += other.transients;
        self.stuck_cells += other.stuck_cells;
        self.stuck_errors += other.stuck_errors;
        self.bit_errors += other.bit_errors;
        self.clean += other.clean;
        self.corrected += other.corrected;
        self.detected += other.detected;
        self.uncorrectable += other.uncorrectable;
        self
    }
}

/// Outcome of a fault campaign: raw tallies plus the analytical predictions
/// they are validated against.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The plan the campaign injected from.
    pub(crate) plan: FaultPlan,
    /// The code protecting each block.
    pub(crate) scheme: EccScheme,
    /// Blocks exposed.
    pub(crate) blocks: u64,
    /// Bits per block (`scheme.block_bits()`).
    pub bits_per_block: u32,
    /// Injected write failures (healthy cells only).
    pub write_errors: u64,
    /// Injected read-disturb flips (healthy cells only).
    pub read_disturbs: u64,
    /// Injected transient/retention flips (healthy cells only).
    pub transients: u64,
    /// Cells selected as fabrication stuck-at defects.
    pub stuck_cells: u64,
    /// Stuck cells whose frozen value mismatched the written data.
    pub stuck_errors: u64,
    /// Bits in error at read time (union of all fault mechanisms).
    pub bit_errors: u64,
    /// Blocks with zero raw errors.
    pub blocks_clean: u64,
    /// Blocks fully corrected by the code (`1..=t` errors).
    pub blocks_corrected: u64,
    /// Blocks with a detected-but-uncorrectable error pattern (`t+1`).
    pub blocks_detected: u64,
    /// Blocks with a potentially silent error pattern (`> t+1`).
    pub blocks_uncorrectable: u64,
    /// Analytical per-bit error probability (all mechanisms combined).
    pub(crate) analytical_bit_error_rate: f64,
    /// Analytical block failure probability
    /// ([`EccScheme::uncorrectable_probability`] at the combined rate).
    pub analytical_block_failure_rate: f64,
}

impl CampaignReport {
    /// Total bits exposed, `blocks × bits_per_block`.
    pub(crate) fn total_bits(&self) -> u64 {
        self.blocks * self.bits_per_block as u64
    }

    /// Bits not claimed by a stuck-at defect (the write/read/transient
    /// trial population).
    pub(crate) fn healthy_bits(&self) -> u64 {
        self.total_bits() - self.stuck_cells
    }

    /// Empirical block failure rate: detected + uncorrectable, i.e. every
    /// block with more than `t` raw errors (the event
    /// [`EccScheme::uncorrectable_probability`] models).
    pub fn empirical_block_failure_rate(&self) -> f64 {
        (self.blocks_detected + self.blocks_uncorrectable) as f64 / self.blocks as f64
    }

    /// z-score of the injected write-error count against the model's WER.
    pub fn z_write(&self) -> f64 {
        z_score(
            self.write_errors,
            self.healthy_bits(),
            self.plan.model.write_fail_rate,
        )
    }

    /// z-score of the injected read-disturb count against the model's RER.
    pub fn z_read(&self) -> f64 {
        z_score(
            self.read_disturbs,
            self.healthy_bits(),
            self.plan.model.read_disturb_rate,
        )
    }

    /// z-score of the injected transient-flip count against the model.
    pub fn z_transient(&self) -> f64 {
        z_score(
            self.transients,
            self.healthy_bits(),
            self.plan.model.transient_flip_rate,
        )
    }

    /// z-score of the observed block failures against the analytical
    /// binomial ECC model.
    pub fn z_block(&self) -> f64 {
        z_score(
            self.blocks_detected + self.blocks_uncorrectable,
            self.blocks,
            self.analytical_block_failure_rate,
        )
    }

    /// True when every empirical rate sits within `z_max` standard
    /// deviations of its analytical prediction.
    pub fn within_tolerance(&self, z_max: f64) -> bool {
        [
            self.z_write(),
            self.z_read(),
            self.z_transient(),
            self.z_block(),
        ]
        .iter()
        .all(|z| z.abs() <= z_max)
    }
}

/// Binomial z-score of `observed` successes in `trials` trials at rate `p`.
///
/// Degenerate rates (`p` of 0 or 1, or zero trials) return `0.0` when the
/// observation matches the only possible outcome and `f64::INFINITY`
/// otherwise, so impossible observations always fail a tolerance check.
fn z_score(observed: u64, trials: u64, p: f64) -> f64 {
    let n = trials as f64;
    let expected = n * p;
    let var = n * p * (1.0 - p);
    if var <= 0.0 {
        return if (observed as f64 - expected).abs() < 0.5 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    (observed as f64 - expected) / var.sqrt()
}

/// Runs a seeded fault campaign: every block is written once and read once
/// through the injector, classified by the scheme, and tallied.
///
/// Each block reads one hit list per fault kind, so its cost follows the
/// faults it holds, not its bits. Deterministic by construction — every
/// draw is a pure hash of `(plan.seed, kind, block)` and a gap counter, and
/// per-chunk tallies are merged in chunk order — so a fixed plan reproduces
/// the report bit-for-bit at any `MSS_THREADS`.
///
/// Observability: increments `fault.campaign.*` counters (blocks, injected,
/// corrected, detected, uncorrectable) on the global `mss-obs` registry.
///
/// # Errors
///
/// [`FaultError::InvalidModel`] / [`FaultError::InvalidCampaign`] on
/// malformed inputs; the run itself cannot fail.
pub fn run_ecc_campaign(
    plan: &FaultPlan,
    opts: &CampaignOptions,
) -> Result<CampaignReport, FaultError> {
    plan.model.validate()?;
    opts.validate()?;
    let injector = FaultInjector::new(*plan);
    let scheme = opts.scheme;
    let bits = scheme.block_bits();
    let total = opts.blocks as usize;

    let _span = mss_obs::span("fault.campaign");
    let tallies = par_chunks(&opts.parallel, total, |_chunk, range| {
        let mut t = Tally::default();
        // Reused per block: the stuck cells, then every wrong bit.
        let (mut stuck, mut errors) = (Vec::new(), Vec::new());
        for block in range {
            let site = block as u64;
            stuck.clear();
            stuck.extend(injector.stuck_word(site).stuck_hits(bits));
            // The stuck value is an independent fair hash bit, so it
            // doubles as the "written data mismatches the frozen cell"
            // coin: P(mismatch) = 1/2.
            errors.clear();
            errors.extend(
                stuck
                    .iter()
                    .filter(|&&(_, value)| value)
                    .map(|&(bit, _)| bit),
            );
            t.stuck_cells += stuck.len() as u64;
            t.stuck_errors += errors.len() as u64;
            let healthy = |bit: &u32| stuck.binary_search_by_key(bit, |&(b, _)| b).is_err();
            for (count, draw) in [
                (&mut t.write_errors, injector.write_word(site, 0)),
                (&mut t.read_disturbs, injector.read_disturb_word(site, 0)),
                (&mut t.transients, injector.transient_word(site, 0)),
            ] {
                let before = errors.len();
                errors.extend(draw.hits(bits).filter(healthy));
                *count += (errors.len() - before) as u64;
            }
            // A bit hit by several mechanisms is one wrong bit.
            errors.sort_unstable();
            errors.dedup();
            let raw_errors = errors.len() as u32;
            t.bit_errors += u64::from(raw_errors);
            match scheme.classify(raw_errors) {
                EccOutcome::Clean => t.clean += 1,
                EccOutcome::Corrected => t.corrected += 1,
                EccOutcome::Detected => t.detected += 1,
                EccOutcome::Uncorrectable => t.uncorrectable += 1,
            }
        }
        t
    });
    let tally = tallies.iter().fold(Tally::default(), Tally::merge);

    mss_obs::counter_add("fault.campaign.blocks", opts.blocks);
    mss_obs::counter_add("fault.campaign.injected", tally.bit_errors);
    mss_obs::counter_add("fault.campaign.corrected", tally.corrected);
    mss_obs::counter_add("fault.campaign.detected", tally.detected);
    mss_obs::counter_add("fault.campaign.uncorrectable", tally.uncorrectable);

    let m = &plan.model;
    // A bit errs if it is stuck and mismatches (s/2), or is healthy and any
    // independent mechanism fires.
    let p_healthy = 1.0
        - (1.0 - m.write_fail_rate) * (1.0 - m.read_disturb_rate) * (1.0 - m.transient_flip_rate);
    let p_bit = 0.5 * m.stuck_at_rate + (1.0 - m.stuck_at_rate) * p_healthy;
    Ok(CampaignReport {
        plan: *plan,
        scheme,
        blocks: opts.blocks,
        bits_per_block: bits,
        write_errors: tally.write_errors,
        read_disturbs: tally.read_disturbs,
        transients: tally.transients,
        stuck_cells: tally.stuck_cells,
        stuck_errors: tally.stuck_errors,
        bit_errors: tally.bit_errors,
        blocks_clean: tally.clean,
        blocks_corrected: tally.corrected,
        blocks_detected: tally.detected,
        blocks_uncorrectable: tally.uncorrectable,
        analytical_bit_error_rate: p_bit,
        analytical_block_failure_rate: scheme.uncorrectable_probability(p_bit),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultModel;

    fn plan(seed: u64, f: impl FnOnce(&mut FaultModel)) -> FaultPlan {
        let mut m = FaultModel::none();
        f(&mut m);
        FaultPlan::new(seed, m).expect("valid model")
    }

    #[test]
    fn zero_blocks_rejected() {
        let opts = CampaignOptions::new(0, EccScheme::bch(1, 64));
        let err = run_ecc_campaign(&FaultPlan::disabled(), &opts).expect_err("zero blocks");
        assert!(matches!(err, FaultError::InvalidCampaign { .. }));
    }

    #[test]
    fn disabled_plan_produces_a_clean_population() {
        let opts = CampaignOptions::new(500, EccScheme::bch(1, 64))
            .with_parallel(ParallelConfig::serial());
        let r = run_ecc_campaign(&FaultPlan::disabled(), &opts).expect("campaign");
        assert_eq!(r.blocks_clean, 500);
        assert_eq!(r.bit_errors, 0);
        assert_eq!(r.empirical_block_failure_rate(), 0.0);
        assert_eq!(r.analytical_block_failure_rate, 0.0);
        assert!(r.within_tolerance(3.0));
    }

    #[test]
    fn empirical_rates_match_analytical_within_3_sigma() {
        // Rates chosen so every mechanism actually fires: over 20k blocks of
        // 71 bits, expect ~14k write errors, ~7k disturbs, ~2.8k transients,
        // and an analytical block-failure probability of ~0.24.
        let p = plan(42, |m| {
            m.write_fail_rate = 0.01;
            m.read_disturb_rate = 0.005;
            m.transient_flip_rate = 0.002;
        });
        let opts = CampaignOptions::new(20_000, EccScheme::bch(1, 64))
            .with_parallel(ParallelConfig::serial().with_threads(4));
        let r = run_ecc_campaign(&p, &opts).expect("campaign");
        assert!(r.write_errors > 0 && r.read_disturbs > 0 && r.transients > 0);
        assert!(r.blocks_detected + r.blocks_uncorrectable > 0);
        assert!(
            r.within_tolerance(3.0),
            "z_write={:.2} z_read={:.2} z_transient={:.2} z_block={:.2}",
            r.z_write(),
            r.z_read(),
            r.z_transient(),
            r.z_block()
        );
        // The tallies are self-consistent.
        assert_eq!(
            r.blocks_clean + r.blocks_corrected + r.blocks_detected + r.blocks_uncorrectable,
            r.blocks
        );
        // Union bound: multi-mechanism bits count once in `bit_errors` but
        // once per mechanism in the per-kind tallies.
        let per_kind = r.write_errors + r.read_disturbs + r.transients + r.stuck_errors;
        assert!(r.bit_errors <= per_kind);
        assert!(per_kind < r.bit_errors + r.blocks); // overlap stays rare
    }

    #[test]
    fn stuck_cells_err_half_the_time() {
        let p = plan(7, |m| m.stuck_at_rate = 0.02);
        let opts = CampaignOptions::new(10_000, EccScheme::bch(1, 64))
            .with_parallel(ParallelConfig::serial());
        let r = run_ecc_campaign(&p, &opts).expect("campaign");
        assert!(r.stuck_cells > 0);
        let mismatch = r.stuck_errors as f64 / r.stuck_cells as f64;
        assert!((mismatch - 0.5).abs() < 0.02, "mismatch ratio {mismatch}");
        assert!(r.within_tolerance(3.0));
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let p = plan(99, |m| {
            m.write_fail_rate = 0.02;
            m.stuck_at_rate = 0.001;
        });
        let base = CampaignOptions::new(4_000, EccScheme::bch(2, 128));
        let runs: Vec<CampaignReport> = [1usize, 2, 8]
            .iter()
            .map(|&n| {
                let opts = base.with_parallel(ParallelConfig::serial().with_threads(n));
                run_ecc_campaign(&p, &opts).expect("campaign")
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn z_score_degenerate_cases() {
        assert_eq!(z_score(0, 100, 0.0), 0.0);
        assert_eq!(z_score(3, 100, 0.0), f64::INFINITY);
        assert_eq!(z_score(100, 100, 1.0), 0.0);
    }
}
