//! Analytic (behavioural) STT switching model: switching time and
//! write-error rate in both operating regimes.
//!
//! For overdrive `i = I/I_c0 > 1` (precessional regime) the polar angle grows
//! exponentially, `θ(t) = θ₀·exp((i−1)·t/τ_D)`, from a thermal initial angle
//! whose distribution is Rayleigh-like, `p(θ₀) = 2Δθ₀·exp(−Δθ₀²)`. A pulse of
//! width `t_p` fails to switch exactly when `θ₀ < θ_c = (π/2)·exp(−(i−1)t_p/τ_D)`,
//! giving the closed-form WER used throughout VAET-STT:
//!
//! ```text
//! WER(t_p, i) = 1 − exp(−Δ·(π/2)²·exp(−2(i−1)·t_p/τ_D))
//! ```
//!
//! For `i < 1` (thermal-activation regime) the Néel–Brown rate applies with
//! the current-lowered barrier `Δ·(1−i)²`.

use crate::stack::MssStack;
use crate::MtjError;

/// Analytic switching evaluator bound to one stack.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mss_mtj::MtjError> {
/// use mss_mtj::{MssStack, switching::SwitchingModel};
///
/// let stack = MssStack::builder().build()?;
/// let sw = SwitchingModel::new(&stack);
/// // Doubling the current more than halves the mean switching time.
/// let t2 = sw.mean_switching_time(2.0 * sw.critical_current())?;
/// let t4 = sw.mean_switching_time(4.0 * sw.critical_current())?;
/// assert!(t4 < t2 / 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingModel {
    delta: f64,
    ic0: f64,
    tau_d: f64,
    theta0: f64,
    attempt_time: f64,
}

impl SwitchingModel {
    /// Builds the evaluator from a stack's derived magnetics.
    pub fn new(stack: &MssStack) -> Self {
        Self {
            delta: stack.thermal_stability(),
            ic0: stack.critical_current(),
            tau_d: stack.tau_d(),
            theta0: stack.thermal_angle(),
            attempt_time: mss_units::consts::TAU0,
        }
    }

    /// Builds an evaluator directly from the dimensionless quantities, used
    /// by variation sampling to perturb Δ and I_c0 independently.
    pub(crate) fn from_parts(delta: f64, ic0: f64, tau_d: f64) -> Self {
        Self {
            delta,
            ic0,
            tau_d,
            theta0: (1.0 / (2.0 * delta)).sqrt(),
            attempt_time: mss_units::consts::TAU0,
        }
    }

    /// Thermal stability factor Δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Critical current I_c0 in amperes.
    pub fn critical_current(&self) -> f64 {
        self.ic0
    }

    /// Precession time constant τ_D in seconds.
    pub fn tau_d(&self) -> f64 {
        self.tau_d
    }

    /// Mean (deterministic) switching time for write current `i_write`
    /// (amperes), using the mean thermal initial angle.
    ///
    /// # Errors
    ///
    /// [`MtjError::NoOperatingPoint`] when `i_write ≤ I_c0` — subthreshold
    /// currents have no deterministic switching time; use
    /// `SwitchingModel::switch_probability` instead.
    pub fn mean_switching_time(&self, i_write: f64) -> Result<f64, MtjError> {
        let i = i_write / self.ic0;
        if i <= 1.0 {
            return Err(MtjError::NoOperatingPoint {
                reason: format!(
                    "write current {i_write:.3e} A is below Ic0 = {:.3e} A",
                    self.ic0
                ),
            });
        }
        Ok(self.tau_d / (i - 1.0) * (std::f64::consts::FRAC_PI_2 / self.theta0).ln())
    }

    /// Write-error rate for a pulse of width `t_pulse` at current `i_write`.
    ///
    /// Covers both regimes: precessional (`i > 1`) via the closed form above,
    /// thermal activation (`i ≤ 1`) via the Néel–Brown switching probability.
    /// The result is clamped to `[0, 1]`.
    pub fn write_error_rate(&self, t_pulse: f64, i_write: f64) -> f64 {
        if t_pulse <= 0.0 {
            return 1.0;
        }
        let i = i_write / self.ic0;
        if i > 1.0 {
            // 1 - exp(-x) with x = Δ(π/2)² exp(-2(i-1)t/τD); evaluate the
            // log-domain to keep 1e-18 resolvable.
            let ln_x = self.delta.ln() + 2.0 * std::f64::consts::FRAC_PI_2.ln()
                - 2.0 * (i - 1.0) * t_pulse / self.tau_d;
            if ln_x < -700.0 {
                // x underflows: WER ≈ x.
                ln_x.exp()
            } else {
                let x = ln_x.exp();
                -(-x).exp_m1()
            }
        } else {
            // P_switch = 1 - exp(-t/τ_th); WER = exp(-t/τ_th).
            let tau_th = self.thermal_switch_time(i);
            (-t_pulse / tau_th).exp()
        }
    }

    /// Néel–Brown time constant at relative current `i = I/I_c0 ≤ 1`:
    /// `τ₀·exp(Δ·(1−i)²)`.
    fn thermal_switch_time(&self, i: f64) -> f64 {
        let barrier = self.delta * (1.0 - i.clamp(0.0, 1.0)).powi(2);
        self.attempt_time * barrier.exp()
    }

    /// Minimum pulse width achieving the target `wer` at current `i_write`.
    ///
    /// Inverts the regime-appropriate WER expression analytically.
    ///
    /// # Errors
    ///
    /// [`MtjError::NoOperatingPoint`] when `wer` is out of `(0, 1)` or the
    /// current is subcritical and the needed pulse exceeds 1 s (unusable as
    /// a write).
    pub fn pulse_for_wer(&self, wer: f64, i_write: f64) -> Result<f64, MtjError> {
        if !(0.0..1.0).contains(&wer) || wer == 0.0 {
            return Err(MtjError::NoOperatingPoint {
                reason: format!("target WER {wer} must be in (0, 1)"),
            });
        }
        let i = i_write / self.ic0;
        let t = if i > 1.0 {
            // x = -ln(1-wer);  t = τD/(2(i-1)) · ln(Δ(π/2)²/x)
            let x = -(-wer).ln_1p(); // -ln(1-wer), accurate for small wer
            let ln_ratio = self.delta.ln() + 2.0 * std::f64::consts::FRAC_PI_2.ln() - x.ln();
            (self.tau_d / (2.0 * (i - 1.0))) * ln_ratio.max(0.0)
        } else {
            // WER = exp(-t/τ_th)  ->  t = -τ_th·ln(wer)
            -self.thermal_switch_time(i) * wer.ln()
        };
        if !(t.is_finite()) || t > 1.0 {
            return Err(MtjError::NoOperatingPoint {
                reason: format!(
                    "pulse of {t:.3e} s needed for WER {wer} at I/Ic0 = {i:.2} is impractical"
                ),
            });
        }
        Ok(t.max(0.0))
    }

    /// Write current needed to reach `wer` within pulse width `t_pulse`.
    ///
    /// Analytic inversion of the precessional WER for the current ratio.
    ///
    /// # Errors
    ///
    /// [`MtjError::NoOperatingPoint`] for out-of-range targets.
    #[cfg(test)]
    pub(crate) fn current_for_wer(&self, wer: f64, t_pulse: f64) -> Result<f64, MtjError> {
        if !(0.0..1.0).contains(&wer) || wer == 0.0 || t_pulse <= 0.0 {
            return Err(MtjError::NoOperatingPoint {
                reason: format!("invalid targets wer={wer}, t_pulse={t_pulse}"),
            });
        }
        let x = -(-wer).ln_1p();
        let ln_ratio = self.delta.ln() + 2.0 * std::f64::consts::FRAC_PI_2.ln() - x.ln();
        let i = 1.0 + self.tau_d * ln_ratio.max(0.0) / (2.0 * t_pulse);
        Ok(i * self.ic0)
    }

    /// Probability the device switches during `t_pulse` at `i_write`
    /// (complement of the WER).
    #[cfg(test)]
    pub(crate) fn switch_probability(&self, t_pulse: f64, i_write: f64) -> f64 {
        1.0 - self.write_error_rate(t_pulse, i_write)
    }

    /// Write energy for one switching event: `I²·R·t` plus nothing else —
    /// peripheral energies are added at the array level in `mss-nvsim`.
    #[cfg(test)]
    pub(crate) fn write_energy(&self, i_write: f64, t_pulse: f64, resistance: f64) -> f64 {
        i_write * i_write * resistance * t_pulse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MssStack;

    fn model() -> SwitchingModel {
        SwitchingModel::new(&MssStack::builder().build().unwrap())
    }

    #[test]
    fn wer_is_probability() {
        let m = model();
        for i_rel in [0.3, 0.8, 1.5, 2.0, 4.0] {
            for t in [0.1e-9, 1e-9, 10e-9, 100e-9] {
                let wer = m.write_error_rate(t, i_rel * m.critical_current());
                assert!((0.0..=1.0).contains(&wer), "wer={wer} at i={i_rel}, t={t}");
            }
        }
    }

    #[test]
    fn wer_monotone_decreasing_in_pulse_width() {
        let m = model();
        let i = 2.0 * m.critical_current();
        let mut last = 1.0;
        for k in 1..40 {
            let wer = m.write_error_rate(k as f64 * 1e-9, i);
            assert!(wer <= last + 1e-15, "wer must not increase with pulse");
            last = wer;
        }
    }

    #[test]
    fn wer_monotone_decreasing_in_current() {
        let m = model();
        let t = 10e-9;
        let mut last = 1.0;
        for k in 0..30 {
            let i = (1.2 + 0.2 * k as f64) * m.critical_current();
            let wer = m.write_error_rate(t, i);
            assert!(wer <= last + 1e-15);
            last = wer;
        }
    }

    #[test]
    fn pulse_for_wer_round_trips() {
        let m = model();
        let i = 2.5 * m.critical_current();
        for &wer in &[1e-3, 1e-6, 1e-9, 1e-15, 1e-18] {
            let t = m.pulse_for_wer(wer, i).unwrap();
            let back = m.write_error_rate(t, i);
            assert!(
                (back.ln() - wer.ln()).abs() < 1e-6,
                "wer {wer}: pulse {t}, back {back}"
            );
        }
    }

    #[test]
    fn current_for_wer_round_trips() {
        let m = model();
        let t = 10e-9;
        for &wer in &[1e-6, 1e-12, 1e-18] {
            let i = m.current_for_wer(wer, t).unwrap();
            assert!(i > m.critical_current());
            let back = m.write_error_rate(t, i);
            assert!((back.ln() - wer.ln()).abs() < 1e-6);
        }
    }

    #[test]
    fn tighter_wer_needs_longer_pulse() {
        let m = model();
        let i = 2.0 * m.critical_current();
        let t5 = m.pulse_for_wer(1e-5, i).unwrap();
        let t10 = m.pulse_for_wer(1e-10, i).unwrap();
        let t15 = m.pulse_for_wer(1e-15, i).unwrap();
        assert!(t5 < t10 && t10 < t15);
    }

    #[test]
    fn mean_switching_time_is_nanoseconds() {
        let m = model();
        let t = m.mean_switching_time(2.0 * m.critical_current()).unwrap();
        assert!(t > 0.5e-9 && t < 50e-9, "t = {t}");
    }

    #[test]
    fn subcritical_has_no_deterministic_time() {
        let m = model();
        assert!(m.mean_switching_time(0.5 * m.critical_current()).is_err());
    }

    #[test]
    fn subcritical_thermal_switching_is_slow() {
        let m = model();
        // At 30% of Ic0 a 10 ns pulse essentially never switches.
        let p = m.switch_probability(10e-9, 0.3 * m.critical_current());
        assert!(p < 1e-6, "p = {p}");
    }

    #[test]
    fn zero_pulse_never_switches() {
        let m = model();
        assert_eq!(m.write_error_rate(0.0, 2.0 * m.critical_current()), 1.0);
    }

    #[test]
    fn wer_reaches_deep_targets() {
        // The 1e-18 target of Fig. 8 must be representable.
        let m = model();
        let i = 3.0 * m.critical_current();
        let t = m.pulse_for_wer(1e-18, i).unwrap();
        assert!(t.is_finite() && t > 0.0 && t < 100e-9, "t = {t}");
    }

    #[test]
    fn invalid_targets_rejected() {
        let m = model();
        assert!(m.pulse_for_wer(0.0, 2.0 * m.critical_current()).is_err());
        assert!(m.pulse_for_wer(1.5, 2.0 * m.critical_current()).is_err());
        assert!(m.current_for_wer(1e-9, 0.0).is_err());
    }

    #[test]
    fn write_energy_scales_quadratically_with_current() {
        let m = model();
        let e1 = m.write_energy(10e-6, 10e-9, 4000.0);
        let e2 = m.write_energy(20e-6, 10e-9, 4000.0);
        assert!((e2 / e1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_matches_new() {
        let stack = MssStack::builder().build().unwrap();
        let a = SwitchingModel::new(&stack);
        let b = SwitchingModel::from_parts(
            stack.thermal_stability(),
            stack.critical_current(),
            stack.tau_d(),
        );
        let i = 2.0 * a.critical_current();
        assert!((a.write_error_rate(5e-9, i) - b.write_error_rate(5e-9, i)).abs() < 1e-18);
    }
}
