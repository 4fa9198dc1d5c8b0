//! Variation-aware memory-configuration optimisation.
//!
//! The paper: VAET-STT *"considers process variation, stochastic switching
//! and reliability requirements in its analysis and memory configuration
//! optimization"*. The nominal design-space exploration lives in
//! `mss-nvsim`; this module re-ranks the same organisation space by the
//! **margined** access latencies — the pulse widths and sense times that
//! actually meet the target error rates under variation — which can pick a
//! different design than the nominal optimum.

use mss_exec::{par_map, ParallelConfig};
use mss_nvsim::config::MemoryConfig;
use mss_nvsim::model::ArrayMetrics;

use crate::context::VaetContext;
use crate::margins::{ReadMarginSolver, WriteMarginSolver};
use crate::VaetError;

/// Word-level reliability requirements a candidate must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityRequirements {
    /// Target word-level write-error rate.
    pub(crate) wer: f64,
    /// Target word-level read-error rate.
    pub(crate) rer: f64,
}

impl Default for ReliabilityRequirements {
    fn default() -> Self {
        Self {
            wer: 1e-15,
            rer: 1e-15,
        }
    }
}

impl mss_pipe::StableHash for ReliabilityRequirements {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_f64(self.wer);
        h.write_f64(self.rer);
    }
}

/// What the variation-aware exploration minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariationAwareTarget {
    /// Margined write latency.
    WriteLatency,
    /// Margined read latency.
    ReadLatency,
    /// Margined write latency × nominal write energy (write EDP proxy).
    WriteEdp,
}

impl mss_pipe::StableHash for VariationAwareTarget {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_u8(match self {
            VariationAwareTarget::WriteLatency => 0,
            VariationAwareTarget::ReadLatency => 1,
            VariationAwareTarget::WriteEdp => 2,
        });
    }
}

/// One evaluated organisation.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationAwareCandidate {
    /// The organisation.
    pub config: MemoryConfig,
    /// Nominal (variation-unaware) metrics.
    pub nominal: ArrayMetrics,
    /// Write latency meeting the WER requirement under variation, seconds.
    pub margined_write_latency: f64,
    /// Read latency meeting the RER requirement under variation, seconds.
    pub margined_read_latency: f64,
    /// Target score (lower is better).
    pub(crate) score: f64,
}

/// Exploration outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationAwareExploration {
    /// Winning candidate.
    pub best: VariationAwareCandidate,
    /// All feasible candidates, ascending score.
    pub candidates: Vec<VariationAwareCandidate>,
}

/// Evaluates one organisation against the requirements.
///
/// # Errors
///
/// Propagates margin-solver failures ([`VaetError::UnreachableTarget`] when
/// the requirement cannot be met at any latency).
pub(crate) fn evaluate_candidate(
    ctx: &VaetContext,
    requirements: &ReliabilityRequirements,
    target: VariationAwareTarget,
) -> Result<VariationAwareCandidate, VaetError> {
    let write = WriteMarginSolver::new(ctx)?.latency_for_wer(requirements.wer)?;
    let read = ReadMarginSolver::new(ctx).latency_for_rer(requirements.rer)?;
    let score = match target {
        VariationAwareTarget::WriteLatency => write.latency,
        VariationAwareTarget::ReadLatency => read.latency,
        VariationAwareTarget::WriteEdp => write.latency * ctx.nominal.write_energy,
    };
    Ok(VariationAwareCandidate {
        config: ctx.config,
        nominal: ctx.nominal.clone(),
        margined_write_latency: write.latency,
        margined_read_latency: read.latency,
        score,
    })
}

/// [`evaluate_candidate`] through the stage pipeline: the margin solve is
/// memoized in `cache` under
/// [`Stage::VaetDistributions`](mss_pipe::Stage) keyed by the structural
/// hash of the full context, requirements and target, so re-ranking the
/// same organisation (across targets or repeated explorations) solves the
/// distributions once.
///
/// # Errors
///
/// See [`evaluate_candidate`]; cache problems are never errors.
pub(crate) fn evaluate_candidate_cached(
    ctx: &VaetContext,
    requirements: &ReliabilityRequirements,
    target: VariationAwareTarget,
    cache: &mss_pipe::PipeCache,
) -> Result<VariationAwareCandidate, VaetError> {
    let key = mss_pipe::digest_of(&(ctx, requirements, target));
    cache
        .get_or_compute(mss_pipe::Stage::VaetDistributions, &key, || {
            evaluate_candidate(ctx, requirements, target)
        })
        .map(|arc| (*arc).clone())
}

/// Sweeps subarray tilings and ranks them by the margined metric. The
/// margin solvers for each organisation run in parallel and results are
/// reduced in grid order, so the ranking is identical at any thread count.
///
/// Organisations whose requirements are unreachable are skipped (not
/// errors); if *no* organisation is feasible the last solver error is
/// returned.
///
/// # Errors
///
/// [`VaetError::UnreachableTarget`] when no organisation meets the
/// requirements; estimation failures propagate.
pub fn explore_variation_aware_with(
    base: &VaetContext,
    target: VariationAwareTarget,
    requirements: &ReliabilityRequirements,
    exec: &ParallelConfig,
) -> Result<VariationAwareExploration, VaetError> {
    let sizes = [128u32, 256, 512, 1024];
    let grid: Vec<MemoryConfig> = sizes
        .iter()
        .flat_map(|&rows| sizes.iter().map(move |&cols| (rows, cols)))
        .filter_map(|(rows, cols)| base.config.with_subarray(rows, cols).ok())
        .collect();
    let cache = mss_pipe::global();
    let evaluated = par_map(exec, &grid, |_, &cfg| {
        let ctx = base.with_config(cfg)?;
        evaluate_candidate_cached(&ctx, requirements, target, &cache)
    });
    let mut candidates = Vec::new();
    let mut last_err = None;
    for result in evaluated {
        match result {
            Ok(c) => candidates.push(c),
            Err(e @ VaetError::UnreachableTarget { .. }) => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    candidates.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"));
    match candidates.first().cloned() {
        Some(best) => Ok(VariationAwareExploration { best, candidates }),
        None => Err(last_err.unwrap_or(VaetError::InvalidOptions {
            reason: "no organisation could be evaluated".into(),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{sense_margin_batch_with, SenseBatchOptions};
    use mss_pdk::tech::TechNode;
    use std::sync::OnceLock;

    fn ctx() -> &'static VaetContext {
        static CTX: OnceLock<VaetContext> = OnceLock::new();
        CTX.get_or_init(|| VaetContext::standard(TechNode::N45).expect("ctx"))
    }

    #[test]
    fn margined_latency_exceeds_nominal() {
        let c = evaluate_candidate(
            ctx(),
            &ReliabilityRequirements::default(),
            VariationAwareTarget::WriteLatency,
        )
        .unwrap();
        assert!(c.margined_write_latency > c.nominal.write_latency);
        assert!(c.margined_read_latency >= c.nominal.read_latency * 0.5);
    }

    #[test]
    fn exploration_finds_feasible_best() {
        let exp = explore_variation_aware_with(
            ctx(),
            VariationAwareTarget::WriteLatency,
            &ReliabilityRequirements::default(),
            &ParallelConfig::serial(),
        )
        .unwrap();
        assert!(!exp.candidates.is_empty());
        for c in &exp.candidates {
            assert!(c.margined_write_latency + 1e-18 >= exp.best.margined_write_latency);
        }
    }

    #[test]
    fn exploration_is_thread_count_invariant() {
        let reqs = ReliabilityRequirements::default();
        let run = |threads| {
            explore_variation_aware_with(
                ctx(),
                VariationAwareTarget::WriteEdp,
                &reqs,
                &ParallelConfig::serial().with_threads(threads),
            )
            .unwrap()
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
    }

    #[test]
    fn tighter_requirements_cost_latency() {
        let loose = evaluate_candidate(
            ctx(),
            &ReliabilityRequirements {
                wer: 1e-6,
                rer: 1e-6,
            },
            VariationAwareTarget::WriteLatency,
        )
        .unwrap();
        let tight = evaluate_candidate(
            ctx(),
            &ReliabilityRequirements {
                wer: 1e-15,
                rer: 1e-15,
            },
            VariationAwareTarget::WriteLatency,
        )
        .unwrap();
        assert!(tight.margined_write_latency > loose.margined_write_latency);
        assert!(tight.margined_read_latency >= loose.margined_read_latency);
    }

    #[test]
    fn winner_passes_spice_verification() {
        let exp = explore_variation_aware_with(
            ctx(),
            VariationAwareTarget::WriteLatency,
            &ReliabilityRequirements::default(),
            &ParallelConfig::serial(),
        )
        .unwrap();
        let opts = SenseBatchOptions {
            samples: 200,
            seed: 9,
        };
        // The sense batch on the context re-targeted at the winner.
        let report = sense_margin_batch_with(
            &ctx().with_config(exp.best.config).unwrap(),
            &opts,
            &ParallelConfig::serial(),
        )
        .unwrap();
        assert_eq!(report.failed_solves, 0);
        assert!(report.min_margin > 0.0);
    }

    #[test]
    fn different_targets_rank_differently_or_equal() {
        let reqs = ReliabilityRequirements::default();
        let wl = explore_variation_aware_with(
            ctx(),
            VariationAwareTarget::WriteLatency,
            &reqs,
            &ParallelConfig::serial(),
        )
        .unwrap();
        let rl = explore_variation_aware_with(
            ctx(),
            VariationAwareTarget::ReadLatency,
            &reqs,
            &ParallelConfig::serial(),
        )
        .unwrap();
        // The read-latency optimum cannot beat the write-latency optimum at
        // its own game.
        assert!(rl.best.margined_write_latency + 1e-18 >= wl.best.margined_write_latency);
        assert!(wl.best.margined_read_latency + 1e-18 >= rl.best.margined_read_latency);
    }
}
