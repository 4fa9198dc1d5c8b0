//! The stack's closed forms as scalar functions of its primary parameters.
//!
//! [`MssStack`](crate::MssStack)'s derived quantities,
//! [`SwitchingModel::new`](crate::switching::SwitchingModel::new),
//! [`SotMechanism::new`](crate::SotMechanism::new) and VAET's per-bit
//! Monte Carlo kernel (`mss_pdk::variation::BitKernel`) all evaluate these
//! functions, so each formula has one copy and every caller gets the same
//! bits. The switching constants are the macrospin precessional laws
//! (Locatelli, Cros & Grollier, "Spin torque building blocks"): STT's
//! critical current carries the damping factor α/η, SOT's does not, and
//! SOT's time constant is the bare precession time α·τ_D.

use mss_units::consts::{GAMMA, HBAR, KB, MU0, QE};

use crate::{MtjError, SotParams};

/// Junction area `π·d²/4` in m² for pillar diameter `d`.
pub fn junction_area(d: f64) -> f64 {
    std::f64::consts::PI * d * d / 4.0
}

/// Effective perpendicular anisotropy field H_k,eff in A/m:
/// `2·K_i/(μ₀·M_s·t_f) − M_s` (interfacial anisotropy minus thin-film
/// demagnetisation).
pub fn hk_eff(ki: f64, ms: f64, t_f: f64) -> f64 {
    2.0 * ki / (MU0 * ms * t_f) - ms
}

/// [`hk_eff`], or the builder's error when it is not positive: the film
/// would not be a perpendicular MTJ.
///
/// # Errors
///
/// [`MtjError::InvalidParameter`] on `interfacial_anisotropy` when
/// `H_k,eff ≤ 0`.
pub fn perpendicular_hk_eff(ki: f64, ms: f64, t_f: f64) -> Result<f64, MtjError> {
    let hk = hk_eff(ki, ms, t_f);
    if hk <= 0.0 {
        return Err(MtjError::InvalidParameter {
            name: "interfacial_anisotropy",
            value: ki,
            constraint: "net perpendicular anisotropy must be positive (Hk_eff > 0)",
        });
    }
    Ok(hk)
}

/// Energy barrier `E_b = μ₀·M_s·H_k,eff·V/2` in joules for free-layer
/// volume `V`.
pub fn energy_barrier(ms: f64, hk_eff: f64, volume: f64) -> f64 {
    0.5 * MU0 * ms * hk_eff * volume
}

/// Thermal stability factor `Δ = E_b/(k_B·T)`.
pub fn thermal_stability(energy_barrier: f64, temperature: f64) -> f64 {
    energy_barrier / (KB * temperature)
}

/// STT zero-temperature critical current `I_c0 = (2e/ħ)·(α/η)·2·E_b` in
/// amperes.
pub fn stt_critical_current(damping: f64, spin_polarization: f64, energy_barrier: f64) -> f64 {
    (2.0 * QE / HBAR) * (damping / spin_polarization) * 2.0 * energy_barrier
}

/// Precession time constant `τ_D = (1+α²)/(α·γ·μ₀·H_k,eff)` in seconds.
pub fn tau_d(damping: f64, hk_eff: f64) -> f64 {
    (1.0 + damping * damping) / (damping * GAMMA * MU0 * hk_eff)
}

/// SOT critical channel current `I_c0,SOT = J_c0,SOT·w_ch·t_ch` in amperes
/// for pillar diameter `d`, with the antidamping critical density
/// `J_c0,SOT = (2e/ħ)·μ₀·M_s·t_f·H_k,eff/(2·θ_SH)`.
pub fn sot_critical_current(ms: f64, t_f: f64, hk_eff: f64, params: &SotParams, d: f64) -> f64 {
    let jc0 = (2.0 * QE / HBAR) * MU0 * ms * t_f * hk_eff / (2.0 * params.spin_hall_angle);
    jc0 * params.channel_cross_section(d)
}

/// SOT time constant `τ_SOT = α·τ_D` in seconds: the damping bottleneck
/// cancels because the spin current is injected transverse to the easy
/// axis.
pub fn sot_tau(damping: f64, hk_eff: f64) -> f64 {
    damping * tau_d(damping, hk_eff)
}

/// Parallel-state resistance `R_P = RA/A` in ohms.
pub fn resistance_parallel(ra: f64, area: f64) -> f64 {
    ra / area
}

/// Zero-bias antiparallel resistance `R_AP = R_P·(1+TMR₀)` in ohms.
pub fn resistance_antiparallel(r_parallel: f64, tmr: f64) -> f64 {
    r_parallel * (1.0 + tmr)
}
