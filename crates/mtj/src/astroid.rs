//! Stoner–Wohlfarth switching astroid: field-driven switching limits and
//! stray-field tolerance.
//!
//! The MSS idea co-integrates memory pillars with sensor/oscillator pillars
//! whose patterned permanent magnets produce ~kOe in-plane bias fields. A
//! memory-mode neighbour must *not* switch or lose retention in the stray
//! tail of those magnets. The classic astroid condition bounds the
//! field-driven switching region,
//!
//! ```text
//! (H_x/H_k)^(2/3) + (H_z/H_k)^(2/3) ≥ 1  ⇒  switching possible
//! ```
//!
//! and an in-plane component below the boundary still *lowers the barrier*:
//! `Δ_eff = Δ·(1 − H_x/H_k)^2` (hard-axis field), degrading retention
//! exponentially. Both effects are exposed here for layout-level stray-field
//! budgeting.

use mss_units::consts::TAU0;

use crate::stack::MssStack;
use crate::MtjError;

/// Stray-field assessment of a memory-mode pillar.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StrayFieldAssessment {
    /// In-plane (hard-axis) stray field, A/m.
    pub(crate) h_inplane: f64,
    /// Out-of-plane (easy-axis) stray field, A/m.
    pub(crate) h_easy: f64,
    /// True when the field combination crosses the astroid (deterministic
    /// switching possible — data loss).
    pub(crate) switches: bool,
    /// Barrier-degraded thermal stability Δ_eff.
    pub(crate) effective_delta: f64,
    /// Retention under the stray field, seconds.
    pub(crate) retention_seconds: f64,
}

/// Astroid switching criterion for normalised field components
/// `h = H/H_k` (absolute values are taken internally).
pub fn crosses_astroid(h_inplane_rel: f64, h_easy_rel: f64) -> bool {
    let hx = h_inplane_rel.abs();
    let hz = h_easy_rel.abs();
    if hx >= 1.0 || hz >= 1.0 {
        return true;
    }
    hx.powf(2.0 / 3.0) + hz.powf(2.0 / 3.0) >= 1.0
}

/// The easy-axis switching field (normalised) that the astroid allows at a
/// given in-plane component `h_inplane_rel = H_x/H_k`.
///
/// Returns 0 when the in-plane component alone already switches the layer.
pub fn easy_axis_boundary(h_inplane_rel: f64) -> f64 {
    let hx = h_inplane_rel.abs();
    if hx >= 1.0 {
        return 0.0;
    }
    (1.0 - hx.powf(2.0 / 3.0)).powf(1.5)
}

/// Barrier-degraded stability under a hard-axis field:
/// `Δ_eff = Δ·(1 − |H_x|/H_k)²` (clamped at zero beyond the boundary).
#[cfg(test)]
pub(crate) fn effective_delta(stack: &MssStack, h_inplane: f64) -> f64 {
    let rel = (h_inplane / stack.hk_eff()).abs().min(1.0);
    stack.thermal_stability() * (1.0 - rel).powi(2)
}

/// Assesses a memory pillar under a stray field.
#[cfg(test)]
pub(crate) fn assess(stack: &MssStack, h_inplane: f64, h_easy: f64) -> StrayFieldAssessment {
    let hk = stack.hk_eff();
    let switches = crosses_astroid(h_inplane / hk, h_easy / hk);
    let delta_eff = effective_delta(stack, h_inplane);
    StrayFieldAssessment {
        h_inplane,
        h_easy,
        switches,
        effective_delta: delta_eff,
        retention_seconds: if switches {
            0.0
        } else {
            TAU0 * delta_eff.exp()
        },
    }
}

/// The largest in-plane stray field (A/m) a memory pillar tolerates while
/// keeping at least `retention_target` seconds of retention.
///
/// # Errors
///
/// [`MtjError::NoOperatingPoint`] when even a zero stray field cannot reach
/// the target (the pillar is too small for the spec).
pub fn max_tolerable_stray_field(stack: &MssStack, retention_target: f64) -> Result<f64, MtjError> {
    if retention_target <= 0.0 || !retention_target.is_finite() {
        return Err(MtjError::NoOperatingPoint {
            reason: format!("retention target {retention_target} s must be positive"),
        });
    }
    let needed_delta = (retention_target / TAU0).ln();
    let delta0 = stack.thermal_stability();
    if needed_delta > delta0 {
        return Err(MtjError::NoOperatingPoint {
            reason: format!(
                "target needs Δ = {needed_delta:.1} but the pillar only has Δ = {delta0:.1}"
            ),
        });
    }
    // Δ_eff = Δ (1-x)^2 = needed  =>  x = 1 - sqrt(needed/Δ).
    let x = 1.0 - (needed_delta / delta0).sqrt();
    Ok(x * stack.hk_eff())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> MssStack {
        MssStack::builder().build().unwrap()
    }

    #[test]
    fn astroid_corners() {
        // Pure easy-axis switching needs the full H_k; pure hard-axis too.
        assert!(crosses_astroid(0.0, 1.0));
        assert!(crosses_astroid(1.0, 0.0));
        assert!(!crosses_astroid(0.0, 0.99));
        // The astroid sags between the axes: at 45 degrees each component
        // only needs ~0.35 H_k.
        assert!(crosses_astroid(0.36, 0.36));
        assert!(!crosses_astroid(0.34, 0.34));
    }

    #[test]
    fn boundary_is_monotone() {
        let mut last = 1.0;
        for k in 1..=10 {
            let b = easy_axis_boundary(k as f64 * 0.1);
            assert!(b <= last);
            last = b;
        }
        assert_eq!(easy_axis_boundary(1.0), 0.0);
        assert!((easy_axis_boundary(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stray_field_degrades_retention_exponentially() {
        let s = stack();
        let clean = assess(&s, 0.0, 0.0);
        let stressed = assess(&s, 0.3 * s.hk_eff(), 0.0);
        assert!(!clean.switches && !stressed.switches);
        assert!(stressed.effective_delta < clean.effective_delta);
        assert!(stressed.retention_seconds < 1e-3 * clean.retention_seconds);
    }

    #[test]
    fn crossing_fields_mean_data_loss() {
        let s = stack();
        let a = assess(&s, 0.8 * s.hk_eff(), 0.3 * s.hk_eff());
        assert!(a.switches);
        assert_eq!(a.retention_seconds, 0.0);
    }

    #[test]
    fn tolerable_field_round_trips() {
        let s = stack();
        let ten_years = 10.0 * 365.25 * 86400.0;
        let h = max_tolerable_stray_field(&s, ten_years).unwrap();
        assert!(h > 0.0 && h < s.hk_eff());
        let at_limit = assess(&s, h, 0.0);
        assert!(
            (at_limit.retention_seconds.ln() - ten_years.ln()).abs() < 1e-6,
            "retention at limit: {} s",
            at_limit.retention_seconds
        );
    }

    #[test]
    fn impossible_targets_rejected() {
        let s = stack();
        assert!(max_tolerable_stray_field(&s, 1e300).is_err());
        assert!(max_tolerable_stray_field(&s, -1.0).is_err());
    }

    #[test]
    fn sensor_bias_magnet_needs_standoff() {
        // A sensor pillar's ~2.4 kOe bias field, if fully coupled into a
        // memory neighbour, is far above its tolerance — the layout needs
        // the stray tail to decay well below Hk (the paper's "one additional
        // lithography step" places the magnets only beside sensor pillars).
        let s = stack();
        let sensor_bias = 1.1 * s.hk_eff();
        let a = assess(&s, sensor_bias, 0.0);
        assert!(a.switches);
        let ten_years = 10.0 * 365.25 * 86400.0;
        let budget = max_tolerable_stray_field(&s, ten_years).unwrap();
        assert!(budget < 0.2 * sensor_bias);
    }
}
