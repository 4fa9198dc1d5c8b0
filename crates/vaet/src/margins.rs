//! Timing margins for target error rates (the paper's Fig. 7).
//!
//! *"Due to the high value of σ for the latencies, a large timing margin is
//! required to keep the error rates within acceptable limits ... for lower
//! values of target error rates, high timing margins are required."*
//!
//! - **Write**: the pulse must be wide enough that the *word-level* failure
//!   probability — one minus the probability every bit switched — stays
//!   below the target WER. Process variation is folded in by averaging the
//!   per-bit analytic WER over a fixed set of Monte Carlo device corners
//!   (common random numbers keep the margin solve monotone).
//! - **Read**: the sense signal develops as `ΔV(t) = ΔV_max·(1−e^(−t/τ))`
//!   against a Gaussian offset+mismatch noise; the latency for a target RER
//!   inverts the Gaussian tail.

use mss_mtj::switching::SwitchingModel;
use mss_pdk::variation::StackReads;
use mss_units::rng::Xoshiro256PlusPlus;

use mss_units::math::{brent, inv_q};

use crate::context::{VaetContext, SENSE_OFFSET_SIGMA};
use crate::VaetError;

/// Number of device corners used for the variation-averaged WER.
const CORNERS: usize = 200;

/// A solved margin point: the overall access latency delivering a target
/// error rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginPoint {
    /// The target error rate (word-level).
    pub target: f64,
    /// Overall access latency, seconds (periphery + margined cell time).
    pub latency: f64,
    /// The cell-level share of the latency.
    pub(crate) cell_time: f64,
}

/// Variation corners reused across the margin solve (common random
/// numbers).
pub struct WriteMarginSolver {
    corners: Vec<(SwitchingModel, f64)>, // (model, write current)
    periphery: f64,
    word: f64,
}

impl WriteMarginSolver {
    /// Prepares the corner set for a context.
    ///
    /// # Errors
    ///
    /// Device sampling failures propagate.
    pub fn new(ctx: &VaetContext) -> Result<Self, VaetError> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xC0FFEE);
        let mut corners = Vec::with_capacity(CORNERS);
        for _ in 0..CORNERS {
            let stack = ctx
                .variation
                .sample_stack_reading(&mut rng, &ctx.stack, StackReads::SWITCHING)
                .map_err(VaetError::Device)?;
            let i = ctx.cell.write.current
                * mss_units::rng::normal(&mut rng, 1.0, 0.04).clamp(0.7, 1.3);
            corners.push((ctx.corner_switching_model(&stack)?, i));
        }
        Ok(Self {
            corners,
            periphery: ctx.write_periphery_latency(),
            word: ctx.config.word_bits as f64,
        })
    }

    /// Variation-averaged per-bit WER at pulse width `t`.
    pub fn mean_bit_wer(&self, t: f64) -> f64 {
        self.corners
            .iter()
            .map(|(sw, i)| sw.write_error_rate(t, *i))
            .sum::<f64>()
            / self.corners.len() as f64
    }

    /// The `p`-quantile of the per-corner bit WER at pulse width `t` — the
    /// corner spread behind [`mean_bit_wer`](Self::mean_bit_wer) (e.g.
    /// `p = 0.95` for a pessimistic-corner margin). Corners whose WER
    /// evaluates to NaN (degenerate sampled devices) are skipped and
    /// counted on the `vaet.margin.nan_corners` observability counter
    /// instead of aborting the solve.
    ///
    /// # Errors
    ///
    /// [`VaetError::InvalidOptions`] when `p` is outside `[0, 1]` or every
    /// corner evaluated to NaN.
    #[cfg(test)]
    pub(crate) fn bit_wer_quantile(&self, t: f64, p: f64) -> Result<f64, VaetError> {
        let mut wers: Vec<f64> = self
            .corners
            .iter()
            .map(|(sw, i)| sw.write_error_rate(t, *i))
            .collect();
        let q = mss_units::stats::try_quantile(&mut wers, p).map_err(|e| {
            VaetError::InvalidOptions {
                reason: format!("bit WER quantile: {e}"),
            }
        })?;
        if q.dropped_nan > 0 {
            mss_obs::counter_add("vaet.margin.nan_corners", q.dropped_nan as u64);
        }
        Ok(q.value)
    }

    /// Word-level failure probability at pulse width `t`
    /// (`1 − (1−p)^word ≈ word·p` for small `p`).
    pub(crate) fn word_wer(&self, t: f64) -> f64 {
        let p = self.mean_bit_wer(t).clamp(0.0, 1.0);
        if p >= 1.0 {
            return 1.0;
        }
        let ln_1mp = (-p).ln_1p(); // ln(1-p), accurate for small p
        (-(self.word * ln_1mp).exp_m1()).clamp(0.0, 1.0)
    }

    /// Solves the overall write latency for a target word-level WER.
    ///
    /// # Errors
    ///
    /// [`VaetError::UnreachableTarget`] when the target cannot be reached
    /// within a 10 µs pulse.
    pub(crate) fn latency_for_wer(&self, target: f64) -> Result<MarginPoint, VaetError> {
        mss_obs::counter_add("vaet.margin.wer_solves", 1);
        if !(target > 0.0 && target < 1.0) {
            return Err(VaetError::InvalidOptions {
                reason: format!("WER target {target} must be in (0, 1)"),
            });
        }
        let f = |t: f64| {
            let w = self.word_wer(t);
            if w <= 0.0 {
                -700.0 - target.ln()
            } else {
                w.ln() - target.ln()
            }
        };
        let (lo, hi) = (0.05e-9, 10e-6);
        if f(hi) > 0.0 {
            return Err(VaetError::UnreachableTarget {
                quantity: "WER",
                target,
                reason: "not reachable within a 10 us pulse".into(),
            });
        }
        let cell_time = if f(lo) <= 0.0 {
            lo
        } else {
            brent(f, lo, hi, 1e-13, 200).map_err(|e| VaetError::UnreachableTarget {
                quantity: "WER",
                target,
                reason: e.to_string(),
            })?
        };
        Ok(MarginPoint {
            target,
            latency: self.periphery + cell_time,
            cell_time,
        })
    }
}

/// Read-margin model: signal development vs Gaussian offset + mismatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReadMarginSolver {
    /// Full developed sense signal, volts.
    pub(crate) signal_max: f64,
    /// Signal development time constant, seconds.
    pub(crate) tau: f64,
    /// Total input-referred Gaussian sigma (offset + R-mismatch), volts.
    pub(crate) sigma: f64,
    /// Peripheral read latency added on top, seconds.
    pub(crate) periphery: f64,
    /// Word width (word-level RER = word · bit RER).
    pub(crate) word: f64,
}

impl ReadMarginSolver {
    /// Builds the solver from a context.
    pub(crate) fn new(ctx: &VaetContext) -> Self {
        let signal_max = ctx.sense_signal();
        // TMR mismatch contributes signal-proportional noise; the ratio
        // dS/S = dTMR/TMR · 2/(2+TMR) < 1 damps it below the raw TMR sigma.
        let sigma_r = signal_max * ctx.variation.mtj.tmr.sigma;
        let sigma = (SENSE_OFFSET_SIGMA.powi(2) + sigma_r * sigma_r).sqrt();
        // The sense signal develops through the bit-line RC before the
        // amplifier can regenerate: both contribute to the time constant.
        let tau = (ctx.nominal.read_breakdown.bitline + ctx.cell.read.latency).max(1e-12);
        Self {
            signal_max,
            tau,
            sigma,
            periphery: ctx.read_periphery_latency(),
            word: ctx.config.word_bits as f64,
        }
    }

    /// Per-bit read error rate at sense time `t`.
    pub(crate) fn bit_rer(&self, t: f64) -> f64 {
        let signal = self.signal_max * (1.0 - (-t / self.tau).exp());
        mss_units::math::q_function(signal / self.sigma)
    }

    /// Solves the overall read latency for a target word-level RER.
    ///
    /// # Errors
    ///
    /// [`VaetError::UnreachableTarget`] when even the fully developed signal
    /// cannot reach the target (offset too large).
    pub(crate) fn latency_for_rer(&self, target: f64) -> Result<MarginPoint, VaetError> {
        if !(target > 0.0 && target < 1.0) {
            return Err(VaetError::InvalidOptions {
                reason: format!("RER target {target} must be in (0, 1)"),
            });
        }
        let bit_target = (target / self.word).min(0.5);
        let needed_ratio = inv_q(bit_target); // required signal / sigma
        let needed_signal = needed_ratio * self.sigma;
        if needed_signal >= self.signal_max {
            return Err(VaetError::UnreachableTarget {
                quantity: "RER",
                target,
                reason: format!(
                    "needs {needed_signal:.3} V of sense signal but only {:.3} V develops",
                    self.signal_max
                ),
            });
        }
        let x = needed_signal / self.signal_max;
        let cell_time = -self.tau * (1.0 - x).ln();
        Ok(MarginPoint {
            target,
            latency: self.periphery + cell_time,
            cell_time,
        })
    }
}

/// Sweeps both margins over a list of target error rates — the data series
/// of Fig. 7.
///
/// # Errors
///
/// Propagates solver failures (unreachable targets).
pub fn figure7(
    ctx: &VaetContext,
    targets: &[f64],
) -> Result<(Vec<MarginPoint>, Vec<MarginPoint>), VaetError> {
    let write = WriteMarginSolver::new(ctx)?;
    let read = ReadMarginSolver::new(ctx);
    let mut w = Vec::with_capacity(targets.len());
    let mut r = Vec::with_capacity(targets.len());
    for &t in targets {
        w.push(write.latency_for_wer(t)?);
        r.push(read.latency_for_rer(t)?);
    }
    Ok((w, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_pdk::tech::TechNode;
    use std::sync::OnceLock;

    fn ctx() -> &'static VaetContext {
        static CTX: OnceLock<VaetContext> = OnceLock::new();
        CTX.get_or_init(|| VaetContext::standard(TechNode::N45).unwrap())
    }

    #[test]
    fn tighter_wer_needs_longer_latency() {
        let solver = WriteMarginSolver::new(ctx()).unwrap();
        let p5 = solver.latency_for_wer(1e-5).unwrap();
        let p10 = solver.latency_for_wer(1e-10).unwrap();
        let p15 = solver.latency_for_wer(1e-15).unwrap();
        assert!(p5.latency < p10.latency && p10.latency < p15.latency);
        // The margined latency exceeds the nominal write latency.
        assert!(p5.latency > ctx().nominal.write_latency);
    }

    #[test]
    fn margin_round_trips_word_wer() {
        let solver = WriteMarginSolver::new(ctx()).unwrap();
        let p = solver.latency_for_wer(1e-10).unwrap();
        let achieved = solver.word_wer(p.cell_time);
        assert!(
            (achieved.ln() - (1e-10f64).ln()).abs() < 0.1,
            "achieved {achieved}"
        );
    }

    #[test]
    fn tighter_rer_needs_longer_latency() {
        let solver = ReadMarginSolver::new(ctx());
        let p5 = solver.latency_for_rer(1e-5).unwrap();
        let p15 = solver.latency_for_rer(1e-15).unwrap();
        assert!(p5.latency < p15.latency);
        assert!(p5.latency > solver.periphery);
    }

    #[test]
    fn bit_wer_quantile_brackets_the_mean() {
        let solver = WriteMarginSolver::new(ctx()).unwrap();
        let t = 10e-9;
        let q05 = solver.bit_wer_quantile(t, 0.05).unwrap();
        let q50 = solver.bit_wer_quantile(t, 0.5).unwrap();
        let q95 = solver.bit_wer_quantile(t, 0.95).unwrap();
        assert!(q05 <= q50 && q50 <= q95, "{q05} {q50} {q95}");
        // The corner spread must straddle (or at least contain near) the
        // variation-averaged WER.
        let mean = solver.mean_bit_wer(t);
        assert!(q05 <= mean && mean <= q95 * solver.corners.len() as f64);
        // Degenerate probability is rejected, not panicked on.
        assert!(solver.bit_wer_quantile(t, 1.5).is_err());
    }

    #[test]
    fn sot_write_margin_collapses_vs_stt() {
        let stack = mss_mtj::MssStack::builder().build().unwrap();
        let config = ctx().config;
        let sot = VaetContext::build_sot(
            mss_pdk::tech::TechNode::N45,
            stack,
            config,
            mss_mtj::SotParams::default(),
        )
        .unwrap();
        let stt_solver = WriteMarginSolver::new(ctx()).unwrap();
        let sot_solver = WriteMarginSolver::new(&sot).unwrap();
        let stt_point = stt_solver.latency_for_wer(1e-10).unwrap();
        let sot_point = sot_solver.latency_for_wer(1e-10).unwrap();
        // The margined pulse shrinks by the damping factor's order.
        assert!(
            sot_point.cell_time < 0.1 * stt_point.cell_time,
            "sot {:.3e} vs stt {:.3e}",
            sot_point.cell_time,
            stt_point.cell_time
        );
        assert!(sot_point.latency < stt_point.latency);
    }

    #[test]
    fn read_margin_is_smaller_than_write_margin() {
        // Fig. 7 shape: write latencies dominate read latencies at every
        // target error rate.
        let (w, r) = figure7(ctx(), &[1e-5, 1e-10, 1e-15]).unwrap();
        for (wp, rp) in w.iter().zip(&r) {
            assert!(wp.latency > rp.latency);
        }
    }

    #[test]
    fn impossible_rer_is_reported() {
        let mut solver = ReadMarginSolver::new(ctx());
        solver.sigma = solver.signal_max; // hopeless noise
        let err = solver.latency_for_rer(1e-15).unwrap_err();
        assert!(matches!(err, VaetError::UnreachableTarget { .. }));
    }

    #[test]
    fn invalid_targets_rejected() {
        let solver = WriteMarginSolver::new(ctx()).unwrap();
        assert!(solver.latency_for_wer(0.0).is_err());
        assert!(solver.latency_for_wer(2.0).is_err());
        let rs = ReadMarginSolver::new(ctx());
        assert!(rs.latency_for_rer(-1.0).is_err());
    }

    #[test]
    fn bit_rer_decreases_with_time() {
        let solver = ReadMarginSolver::new(ctx());
        let mut last = 1.0;
        for k in 1..20 {
            let r = solver.bit_rer(k as f64 * 0.2e-9);
            assert!(r <= last);
            last = r;
        }
    }
}
