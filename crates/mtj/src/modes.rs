//! MSS operating modes: how the patterned permanent magnets re-target one
//! stack into memory, sensor or oscillator behaviour.
//!
//! The paper's recipe (Sec. I): patterned CoCr/NdFeB magnets beside the
//! pillar create an in-plane bias field H_b. The free-layer equilibrium
//! follows the Stoner–Wohlfarth energy
//!
//! ```text
//! E/(μ₀ M_s V) = −H_b·m_x − H_z·m_z − (H_k,eff/2)·m_z²
//! ```
//!
//! whose stationary points give:
//!
//! - `H_b = 0`            → m_z = ±1 (memory, bistable)
//! - `H_b ≈ H_k/2`        → sinθ = H_b/H_k → θ ≈ 30° (oscillator tilt)
//! - `H_b ≳ H_k`          → m in-plane; small H_z gives m_z ≈ H_z/(H_b−H_k)
//!   (linear sensor)

use mss_units::consts::am_to_oe;
use mss_units::math::brent;

use crate::reliability;
use crate::resistance::ResistanceModel;
use crate::stack::MssStack;
use crate::MtjError;

/// The patterned permanent-magnet bias structure surrounding an MSS pillar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasMagnet {
    /// In-plane bias field produced at the free layer, in A/m (along +x).
    pub(crate) field: f64,
}

impl BiasMagnet {
    /// No bias magnet at all (memory mode).
    pub(crate) const fn none() -> Self {
        Self { field: 0.0 }
    }

    /// A bias magnet specified in A/m.
    pub const fn with_field(field: f64) -> Self {
        Self { field }
    }

    /// A bias magnet specified in oersted (the paper quotes ~1 kOe).
    #[cfg(test)]
    pub(crate) fn with_field_oe(oe: f64) -> Self {
        Self {
            field: mss_units::consts::oe_to_am(oe),
        }
    }

    /// The bias field in oersted.
    pub fn field_oe(&self) -> f64 {
        am_to_oe(self.field)
    }
}

/// The three functions one MSS technology provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MssMode {
    /// Bistable storage element (STT-MRAM bit cell).
    Memory,
    /// Spin-torque oscillator for RF generation.
    Oscillator,
    /// Linear out-of-plane magnetic field sensor.
    Sensor,
}

impl std::fmt::Display for MssMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MssMode::Memory => write!(f, "memory"),
            MssMode::Oscillator => write!(f, "oscillator"),
            MssMode::Sensor => write!(f, "sensor"),
        }
    }
}

/// An MSS pillar plus its bias-magnet configuration: the complete device.
///
/// # Examples
///
/// ```
/// use mss_mtj::{MssStack, MssDevice};
///
/// # fn main() -> Result<(), mss_mtj::MtjError> {
/// let stack = MssStack::builder().build()?;
/// let sensor = MssDevice::sensor(stack)?;
/// // Negative: a +z field rotates the free layer toward the (parallel,
/// // low-resistance) reference direction.
/// let sens = sensor.sensor_sensitivity()?;
/// assert!(sens < 0.0); // ohms per (A/m)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MssDevice {
    stack: MssStack,
    bias: BiasMagnet,
    mode: MssMode,
}

impl MssDevice {
    /// Memory-mode device: no bias magnet.
    pub fn memory(stack: MssStack) -> Self {
        Self {
            stack,
            bias: BiasMagnet::none(),
            mode: MssMode::Memory,
        }
    }

    /// Oscillator-mode device: bias field of half the anisotropy field, the
    /// paper's recipe for a ~30° tilt.
    pub fn oscillator(stack: MssStack) -> Self {
        let field = 0.5 * stack.hk_eff();
        Self {
            stack,
            bias: BiasMagnet::with_field(field),
            mode: MssMode::Oscillator,
        }
    }

    /// Oscillator-mode device with an explicit bias field (A/m).
    ///
    /// # Errors
    ///
    /// The bias must stay below H_k,eff, otherwise the free layer saturates
    /// in-plane and cannot oscillate.
    pub fn oscillator_with_bias(stack: MssStack, bias: BiasMagnet) -> Result<Self, MtjError> {
        if bias.field <= 0.0 || bias.field >= stack.hk_eff() {
            return Err(MtjError::NoOperatingPoint {
                reason: format!(
                    "oscillator bias {:.0} A/m must be in (0, Hk_eff = {:.0} A/m)",
                    bias.field,
                    stack.hk_eff()
                ),
            });
        }
        Ok(Self {
            stack,
            bias,
            mode: MssMode::Oscillator,
        })
    }

    /// Sensor-mode device: the paper's recipe — pillar diameter increased by
    /// 1.5× relative to the memory variant and a bias field 10 % above the
    /// (new) anisotropy field, pulling the free layer in-plane.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors from the enlarged stack.
    pub fn sensor(stack: MssStack) -> Result<Self, MtjError> {
        let enlarged = stack.with_diameter(stack.diameter() * 1.5)?;
        let field = 1.10 * enlarged.hk_eff();
        Ok(Self {
            stack: enlarged,
            bias: BiasMagnet::with_field(field),
            mode: MssMode::Sensor,
        })
    }

    /// Sensor-mode device with explicit geometry and bias.
    ///
    /// # Errors
    ///
    /// The bias field must exceed H_k,eff for a linear sensor response.
    #[cfg(test)]
    pub(crate) fn sensor_with_bias(stack: MssStack, bias: BiasMagnet) -> Result<Self, MtjError> {
        if bias.field <= stack.hk_eff() {
            return Err(MtjError::NoOperatingPoint {
                reason: format!(
                    "sensor bias {:.0} A/m must exceed Hk_eff = {:.0} A/m",
                    bias.field,
                    stack.hk_eff()
                ),
            });
        }
        Ok(Self {
            stack,
            bias,
            mode: MssMode::Sensor,
        })
    }

    /// The underlying stack.
    pub fn stack(&self) -> &MssStack {
        &self.stack
    }

    /// The bias-magnet configuration.
    pub fn bias(&self) -> BiasMagnet {
        self.bias
    }

    /// A resistance model bound to this device's stack.
    pub(crate) fn resistance_model(&self) -> ResistanceModel {
        ResistanceModel::new(&self.stack)
    }

    /// Data retention time in seconds (memory mode figure of merit),
    /// `τ₀·exp(Δ)`.
    pub fn retention_seconds(&self) -> f64 {
        reliability::retention_seconds(&self.stack)
    }

    /// Equilibrium m_z under the bias field and an additional out-of-plane
    /// field `h_z` (A/m), from the Stoner–Wohlfarth energy.
    ///
    /// Solves `H_k·m_z − H_z + H_b·m_z/√(1−m_z²) ... = 0`; more precisely the
    /// stationarity condition `H_b·m_z/√(1−m_z²) − H_z − H_k·m_z = 0` for the
    /// in-plane-dominated branch, and returns ±1 when the solution saturates.
    ///
    /// # Errors
    ///
    /// [`MtjError::Convergence`] if the bracketing solve fails (does not
    /// happen for physical inputs).
    pub fn equilibrium_mz(&self, h_z: f64) -> Result<f64, MtjError> {
        let hk = self.stack.hk_eff();
        let hb = self.bias.field;
        if hb == 0.0 {
            // Bistable: pick the well selected by the field sign (default +z).
            return Ok(if h_z >= 0.0 { 1.0 } else { -1.0 });
        }
        // Stationarity of E(m_z) = −H_b·√(1−m_z²) − H_z·m_z − (H_k/2)·m_z²:
        // f(m_z) = H_b·m_z/√(1−m_z²) − H_z − H_k·m_z = 0.
        let f = |mz: f64| {
            let s = (1.0 - mz * mz).max(1e-16).sqrt();
            hb * mz / s - h_z - hk * mz
        };
        // Saturation checks: if f has no sign change in (−1, 1) the layer is
        // saturated out of plane.
        let eps = 1e-9;
        let (lo, hi) = (-1.0 + eps, 1.0 - eps);
        let (flo, fhi) = (f(lo), f(hi));
        if flo.signum() == fhi.signum() {
            return Ok(if h_z >= 0.0 { 1.0 } else { -1.0 });
        }
        brent(f, lo, hi, 1e-12, 200).map_err(|_| MtjError::Convergence {
            context: "equilibrium_mz",
        })
    }

    /// Equilibrium tilt angle from +z in degrees, at zero applied field.
    ///
    /// For oscillator bias (H_b < H_k) this is `asin(H_b/H_k)` — the paper's
    /// ≈30° for H_b = H_k/2. For sensor bias (H_b ≥ H_k) it is 90°.
    pub fn equilibrium_tilt_degrees(&self) -> f64 {
        let ratio = self.bias.field / self.stack.hk_eff();
        if ratio >= 1.0 {
            90.0
        } else {
            ratio.asin().to_degrees()
        }
    }

    /// Sensor transfer curve point: resistance at out-of-plane field `h_z`
    /// (A/m), read at bias voltage `v_read`.
    ///
    /// # Errors
    ///
    /// Returns an error when called on a non-sensor device or when the
    /// equilibrium solve fails.
    pub fn sensor_resistance(&self, h_z: f64, v_read: f64) -> Result<f64, MtjError> {
        if self.mode != MssMode::Sensor {
            return Err(MtjError::NoOperatingPoint {
                reason: format!("sensor_resistance called on a {} device", self.mode),
            });
        }
        let mz = self.equilibrium_mz(h_z)?;
        Ok(self.resistance_model().resistance(mz, v_read))
    }

    /// Small-signal sensor sensitivity dR/dH_z at zero field, in Ω/(A/m).
    ///
    /// Analytically `dm_z/dH_z = 1/(H_b − H_k)` and
    /// `dR/dm_z` follows from the conductance interpolation.
    ///
    /// # Errors
    ///
    /// Returns an error on non-sensor devices.
    pub fn sensor_sensitivity(&self) -> Result<f64, MtjError> {
        if self.mode != MssMode::Sensor {
            return Err(MtjError::NoOperatingPoint {
                reason: format!("sensor_sensitivity called on a {} device", self.mode),
            });
        }
        let dmz_dhz = 1.0 / (self.bias.field - self.stack.hk_eff());
        // dR/dmz at mz = 0: R = 1/G, G = g0 + g1*mz with
        // g0 = (Gp+Gap)/2, g1 = (Gp-Gap)/2 -> dR/dmz = -g1/g0^2.
        let m = self.resistance_model();
        let gp = 1.0 / m.r_parallel();
        let gap = 1.0 / m.r_antiparallel();
        let g0 = 0.5 * (gp + gap);
        let g1 = 0.5 * (gp - gap);
        let dr_dmz = -g1 / (g0 * g0);
        Ok(dr_dmz * dmz_dhz)
    }

    /// Linear range of the sensor in A/m: the out-of-plane field at which
    /// m_z saturates, `|H_z| ≈ H_b − H_k`.
    pub fn sensor_linear_range(&self) -> f64 {
        (self.bias.field - self.stack.hk_eff()).max(0.0)
    }

    /// Analytic small-angle estimate of the oscillator free-running
    /// frequency in hertz: precession about the effective field at the
    /// tilted equilibrium, `f ≈ (γμ₀/2π)·H_k·cosθ_eq`.
    pub fn oscillator_frequency_estimate(&self) -> f64 {
        use mss_units::consts::{GAMMA, MU0};
        let theta = self.equilibrium_tilt_degrees().to_radians();
        (GAMMA * MU0 / (2.0 * std::f64::consts::PI)) * self.stack.hk_eff() * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> MssStack {
        MssStack::builder().build().unwrap()
    }

    #[test]
    fn memory_mode_is_bistable() {
        let d = MssDevice::memory(stack());
        assert_eq!(d.equilibrium_mz(1.0).unwrap(), 1.0);
        assert_eq!(d.equilibrium_mz(-1.0).unwrap(), -1.0);
        assert_eq!(d.equilibrium_tilt_degrees(), 0.0);
    }

    #[test]
    fn oscillator_tilts_to_thirty_degrees() {
        let d = MssDevice::oscillator(stack());
        let tilt = d.equilibrium_tilt_degrees();
        assert!((tilt - 30.0).abs() < 1e-9, "tilt = {tilt}");
    }

    #[test]
    fn oscillator_frequency_is_gigahertz() {
        let d = MssDevice::oscillator(stack());
        let f = d.oscillator_frequency_estimate();
        assert!(f > 1e9 && f < 20e9, "f = {f}");
    }

    #[test]
    fn oscillator_rejects_saturating_bias() {
        let s = stack();
        let too_big = BiasMagnet::with_field(2.0 * s.hk_eff());
        assert!(MssDevice::oscillator_with_bias(s, too_big).is_err());
    }

    #[test]
    fn sensor_pulls_in_plane() {
        let d = MssDevice::sensor(stack()).unwrap();
        assert_eq!(d.equilibrium_tilt_degrees(), 90.0);
        let mz = d.equilibrium_mz(0.0).unwrap();
        assert!(mz.abs() < 1e-6, "mz at zero field = {mz}");
    }

    #[test]
    fn sensor_transfer_is_linear_and_odd() {
        let d = MssDevice::sensor(stack()).unwrap();
        let range = d.sensor_linear_range();
        let h = 0.02 * range;
        let r0 = d.sensor_resistance(0.0, 0.0).unwrap();
        let rp = d.sensor_resistance(h, 0.0).unwrap();
        let rm = d.sensor_resistance(-h, 0.0).unwrap();
        // Odd symmetry around zero field.
        assert!((rp - r0) * (rm - r0) < 0.0);
        assert!(((rp - r0) + (rm - r0)).abs() < 0.05 * (rp - r0).abs());
        // Slope matches the analytic sensitivity.
        let slope = (rp - rm) / (2.0 * h);
        let sens = d.sensor_sensitivity().unwrap();
        assert!(
            (slope - sens).abs() < 0.05 * sens.abs(),
            "slope {slope} vs sens {sens}"
        );
    }

    #[test]
    fn sensor_saturates_beyond_linear_range() {
        // Coherent rotation saturates only asymptotically: far beyond the
        // linear range the response must be strongly sub-linear and m_z high.
        let d = MssDevice::sensor(stack()).unwrap();
        let range = d.sensor_linear_range();
        let mz_big = d.equilibrium_mz(20.0 * range).unwrap();
        assert!(mz_big > 0.9, "mz = {mz_big}");
        // Sub-linearity: 20x the field gives far less than 20x the response.
        let mz_small = d.equilibrium_mz(0.05 * range).unwrap();
        assert!(mz_big < 10.0 * (mz_small * 20.0));
        assert!(mz_big < 0.9999);
    }

    #[test]
    fn sensor_rejects_weak_bias() {
        let s = stack();
        let weak = BiasMagnet::with_field(0.5 * s.hk_eff());
        assert!(MssDevice::sensor_with_bias(s, weak).is_err());
    }

    #[test]
    fn mode_mismatch_is_an_error() {
        let d = MssDevice::memory(stack());
        assert!(d.sensor_resistance(0.0, 0.0).is_err());
        assert!(d.sensor_sensitivity().is_err());
    }

    #[test]
    fn bias_magnet_oe_round_trip() {
        let b = BiasMagnet::with_field_oe(1000.0);
        assert!((b.field_oe() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn oscillator_bias_matches_paper_order_of_magnitude() {
        // Paper: bias "in the order of half of the effective perpendicular
        // anisotropy field (~1 kOe)".
        let d = MssDevice::oscillator(stack());
        let oe = d.bias().field_oe();
        assert!(oe > 300.0 && oe < 3000.0, "bias = {oe} Oe");
    }
}
