//! Design-space exploration over subarray organisations.
//!
//! The paper: VAET-STT "includes optimization settings (e.g. buffer design
//! optimization) and various design constraints to facilitate a
//! variation-aware design space exploration before the fabrication of the
//! actual memory chip". The nominal-level half of that lives here: sweep the
//! subarray tiling and pick the organisation minimising a target metric,
//! optionally under constraints.

use mss_exec::{par_map, ParallelConfig};
use mss_pdk::tech::TechParams;

use crate::config::MemoryConfig;
use crate::model::{estimate_cached, ArrayMetrics, MemoryTechnology};
use crate::NvsimError;

/// What the exploration minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizationTarget {
    /// Read latency.
    ReadLatency,
    /// Write latency.
    WriteLatency,
    /// Read energy per access.
    ReadEnergy,
    /// Write energy per access.
    WriteEnergy,
    /// Total area.
    Area,
    /// Leakage power.
    Leakage,
    /// Read-latency × read-energy product.
    ReadEdp,
}

impl OptimizationTarget {
    /// Extracts the scalar this target minimises.
    pub(crate) fn score(&self, m: &ArrayMetrics) -> f64 {
        match self {
            OptimizationTarget::ReadLatency => m.read_latency,
            OptimizationTarget::WriteLatency => m.write_latency,
            OptimizationTarget::ReadEnergy => m.read_energy,
            OptimizationTarget::WriteEnergy => m.write_energy,
            OptimizationTarget::Area => m.area,
            OptimizationTarget::Leakage => m.leakage_power,
            OptimizationTarget::ReadEdp => m.read_latency * m.read_energy,
        }
    }
}

/// Optional constraints a candidate must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DesignConstraints {
    /// Maximum read latency, seconds.
    pub max_read_latency: Option<f64>,
    /// Maximum write latency, seconds.
    pub max_write_latency: Option<f64>,
    /// Maximum area, m².
    pub max_area: Option<f64>,
    /// Maximum leakage power, watts.
    pub max_leakage: Option<f64>,
}

impl DesignConstraints {
    /// True when the metrics satisfy every set constraint.
    pub(crate) fn accepts(&self, m: &ArrayMetrics) -> bool {
        self.max_read_latency.is_none_or(|v| m.read_latency <= v)
            && self.max_write_latency.is_none_or(|v| m.write_latency <= v)
            && self.max_area.is_none_or(|v| m.area <= v)
            && self.max_leakage.is_none_or(|v| m.leakage_power <= v)
    }
}

/// One explored candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The organisation evaluated.
    pub config: MemoryConfig,
    /// Its estimated metrics.
    pub metrics: ArrayMetrics,
    /// The target score (lower is better).
    pub(crate) score: f64,
}

/// Result of a design-space exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// The winning candidate.
    pub best: Candidate,
    /// Every feasible candidate, sorted by ascending score.
    pub candidates: Vec<Candidate>,
}

/// Sweeps subarray tilings (powers of two, 64–2048 per side) and returns the
/// constrained optimum. Candidate tilings are estimated in parallel and
/// reduced in grid order, so the result is identical at any thread count.
///
/// # Errors
///
/// [`NvsimError::NoFeasibleDesign`] when no tiling satisfies the
/// constraints; estimation errors propagate.
pub fn explore_with(
    tech: &TechParams,
    base: &MemoryConfig,
    technology: &MemoryTechnology,
    target: OptimizationTarget,
    constraints: &DesignConstraints,
    exec: &ParallelConfig,
) -> Result<Exploration, NvsimError> {
    // Tilings larger than the bank are skipped up front.
    let sizes = [64u32, 128, 256, 512, 1024, 2048];
    let grid: Vec<MemoryConfig> = sizes
        .iter()
        .flat_map(|&rows| sizes.iter().map(move |&cols| (rows, cols)))
        .filter_map(|(rows, cols)| base.with_subarray(rows, cols).ok())
        .collect();
    let _span = mss_obs::span("nvsim.explore");
    // Estimation runs through the stage pipeline: re-exploring the same
    // technology (across targets, constraint sets or flow scenarios) hits
    // the cache instead of re-running the RC models.
    let cache = mss_pipe::global();
    let estimated = par_map(exec, &grid, |_, cfg| {
        estimate_cached(tech, cfg, technology, &cache).map(|m| (*m).clone())
    });
    mss_obs::counter_add("nvsim.explore.candidates", estimated.len() as u64);
    let metrics = estimated.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut candidates = Vec::new();
    for (config, metrics) in grid.into_iter().zip(metrics) {
        if !constraints.accepts(&metrics) {
            continue;
        }
        let score = target.score(&metrics);
        // A non-finite score (overflowed or NaN metric product) cannot be
        // ranked; treat it as infeasible rather than poisoning the sort.
        if !score.is_finite() {
            mss_obs::counter_add("nvsim.explore.nonfinite_scores", 1);
            continue;
        }
        candidates.push(Candidate {
            config,
            metrics,
            score,
        });
    }
    mss_obs::counter_add("nvsim.explore.feasible", candidates.len() as u64);
    candidates.sort_by(|a, b| a.score.total_cmp(&b.score));
    match candidates.first().cloned() {
        Some(best) => Ok(Exploration { best, candidates }),
        None => Err(NvsimError::NoFeasibleDesign),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_mtj::MssStack;
    use mss_pdk::charlib::characterize_with;
    use mss_pdk::tech::TechNode;

    fn setup() -> (TechParams, MemoryConfig, MemoryTechnology) {
        let tech = TechParams::node(TechNode::N45);
        let cfg = MemoryConfig::ram(1 << 20, 64).unwrap();
        let lib = characterize_with(
            &TechParams::node(TechNode::N45),
            &MssStack::builder().build().unwrap(),
        )
        .unwrap();
        (tech, cfg, MemoryTechnology::SttMram(lib))
    }

    #[test]
    fn exploration_finds_a_best() {
        let (tech, cfg, technology) = setup();
        let exp = explore_with(
            &tech,
            &cfg,
            &technology,
            OptimizationTarget::ReadLatency,
            &DesignConstraints::default(),
            &ParallelConfig::serial(),
        )
        .unwrap();
        assert!(!exp.candidates.is_empty());
        assert_eq!(exp.best.score, exp.candidates[0].score);
        // The best read latency really is the minimum.
        for c in &exp.candidates {
            assert!(c.metrics.read_latency + 1e-18 >= exp.best.metrics.read_latency);
        }
    }

    #[test]
    fn different_targets_can_pick_different_designs() {
        let (tech, cfg, technology) = setup();
        let lat = explore_with(
            &tech,
            &cfg,
            &technology,
            OptimizationTarget::ReadLatency,
            &DesignConstraints::default(),
            &ParallelConfig::serial(),
        )
        .unwrap();
        let area = explore_with(
            &tech,
            &cfg,
            &technology,
            OptimizationTarget::Area,
            &DesignConstraints::default(),
            &ParallelConfig::serial(),
        )
        .unwrap();
        // Area optimum cannot beat the latency optimum at latency.
        assert!(area.best.metrics.read_latency + 1e-18 >= lat.best.metrics.read_latency);
        assert!(lat.best.metrics.area + 1e-18 >= area.best.metrics.area);
    }

    #[test]
    fn constraints_filter_candidates() {
        let (tech, cfg, technology) = setup();
        let unconstrained = explore_with(
            &tech,
            &cfg,
            &technology,
            OptimizationTarget::ReadEnergy,
            &DesignConstraints::default(),
            &ParallelConfig::serial(),
        )
        .unwrap();
        let tight = DesignConstraints {
            max_read_latency: Some(unconstrained.best.metrics.read_latency * 1.01),
            ..Default::default()
        };
        let constrained = explore_with(
            &tech,
            &cfg,
            &technology,
            OptimizationTarget::ReadEnergy,
            &tight,
            &ParallelConfig::serial(),
        )
        .unwrap();
        assert!(constrained.candidates.len() <= unconstrained.candidates.len());
        for c in &constrained.candidates {
            assert!(c.metrics.read_latency <= tight.max_read_latency.unwrap());
        }
    }

    #[test]
    fn exploration_is_thread_count_invariant() {
        let (tech, cfg, technology) = setup();
        let run = |threads| {
            explore_with(
                &tech,
                &cfg,
                &technology,
                OptimizationTarget::ReadEdp,
                &DesignConstraints::default(),
                &ParallelConfig::serial().with_threads(threads),
            )
            .unwrap()
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
    }

    #[test]
    fn impossible_constraints_error() {
        let (tech, cfg, technology) = setup();
        let absurd = DesignConstraints {
            max_area: Some(1e-12),
            ..Default::default()
        };
        assert_eq!(
            explore_with(
                &tech,
                &cfg,
                &technology,
                OptimizationTarget::Area,
                &absurd,
                &ParallelConfig::serial()
            )
            .unwrap_err(),
            NvsimError::NoFeasibleDesign
        );
    }
}
