//! The MSS film stack: geometry, materials and derived magnetics.
//!
//! One [`MssStack`] describes a patterned perpendicular MTJ pillar. All
//! derived quantities (effective anisotropy field, thermal stability factor,
//! critical current, resistances) are computed on demand from the primary
//! parameters, so variation sampling in `mss-pdk` can perturb the primary
//! parameters and get self-consistent derived behaviour for free.

use mss_units::consts::{GAMMA, HBAR, KB, MU0, QE};

use crate::MtjError;

/// A perpendicular STT-MTJ pillar description (the "standardized stack").
///
/// Construct via [`MssStack::builder`]; defaults describe the 40 nm memory
/// variant calibrated in `DESIGN.md` (Δ ≈ 45 at 300 K, I_c0 ≈ 20 µA,
/// R_P ≈ 4 kΩ).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mss_mtj::MtjError> {
/// let stack = mss_mtj::MssStack::builder()
///     .diameter(40e-9)
///     .temperature(300.0)
///     .build()?;
/// assert!(stack.thermal_stability() > 40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MssStack {
    diameter: f64,
    free_layer_thickness: f64,
    saturation_magnetization: f64,
    interfacial_anisotropy: f64,
    damping: f64,
    spin_polarization: f64,
    resistance_area_product: f64,
    tmr_zero_bias: f64,
    bias_half_voltage: f64,
    temperature: f64,
}

impl mss_pipe::StableHash for MssStack {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_f64(self.diameter);
        h.write_f64(self.free_layer_thickness);
        h.write_f64(self.saturation_magnetization);
        h.write_f64(self.interfacial_anisotropy);
        h.write_f64(self.damping);
        h.write_f64(self.spin_polarization);
        h.write_f64(self.resistance_area_product);
        h.write_f64(self.tmr_zero_bias);
        h.write_f64(self.bias_half_voltage);
        h.write_f64(self.temperature);
    }
}

impl MssStack {
    /// Starts building a stack from the calibrated defaults.
    pub fn builder() -> MssStackBuilder {
        MssStackBuilder::default()
    }

    /// Pillar diameter in metres.
    pub fn diameter(&self) -> f64 {
        self.diameter
    }

    /// Free-layer thickness in metres.
    pub fn free_layer_thickness(&self) -> f64 {
        self.free_layer_thickness
    }

    /// Saturation magnetization M_s in A/m.
    pub(crate) fn saturation_magnetization(&self) -> f64 {
        self.saturation_magnetization
    }

    /// Interfacial perpendicular anisotropy K_i in J/m².
    pub fn interfacial_anisotropy(&self) -> f64 {
        self.interfacial_anisotropy
    }

    /// Gilbert damping constant α (dimensionless).
    pub(crate) fn damping(&self) -> f64 {
        self.damping
    }

    /// Effective spin polarisation / STT efficiency η (dimensionless).
    pub(crate) fn spin_polarization(&self) -> f64 {
        self.spin_polarization
    }

    /// Resistance–area product in Ω·m².
    pub fn resistance_area_product(&self) -> f64 {
        self.resistance_area_product
    }

    /// Zero-bias TMR ratio (1.5 = 150 %).
    pub fn tmr_zero_bias(&self) -> f64 {
        self.tmr_zero_bias
    }

    /// Bias voltage V_h at which TMR halves, in volts.
    pub(crate) fn bias_half_voltage(&self) -> f64 {
        self.bias_half_voltage
    }

    /// Operating temperature in kelvin.
    pub(crate) fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Junction area in m².
    pub(crate) fn area(&self) -> f64 {
        std::f64::consts::PI * self.diameter * self.diameter / 4.0
    }

    /// Free-layer volume in m³.
    pub(crate) fn volume(&self) -> f64 {
        self.area() * self.free_layer_thickness
    }

    /// Effective perpendicular anisotropy field H_k,eff in A/m:
    /// `2·K_i/(μ₀·M_s·t_f) − M_s` (interfacial anisotropy minus thin-film
    /// demagnetisation).
    pub fn hk_eff(&self) -> f64 {
        2.0 * self.interfacial_anisotropy
            / (MU0 * self.saturation_magnetization * self.free_layer_thickness)
            - self.saturation_magnetization
    }

    /// Energy barrier E_b = μ₀·M_s·H_k,eff·V/2 in joules.
    pub(crate) fn energy_barrier(&self) -> f64 {
        0.5 * MU0 * self.saturation_magnetization * self.hk_eff() * self.volume()
    }

    /// Thermal stability factor Δ = E_b/(k_B·T).
    pub fn thermal_stability(&self) -> f64 {
        self.energy_barrier() / (KB * self.temperature)
    }

    /// Zero-temperature critical switching current I_c0 in amperes:
    /// `(2e/ħ)·(α/η)·2·E_b`.
    pub fn critical_current(&self) -> f64 {
        (2.0 * QE / HBAR) * (self.damping / self.spin_polarization) * 2.0 * self.energy_barrier()
    }

    /// Characteristic precession time constant
    /// τ_D = (1+α²)/(α·γ·μ₀·H_k,eff) in seconds — sets the precessional
    /// switching speed.
    pub(crate) fn tau_d(&self) -> f64 {
        (1.0 + self.damping * self.damping) / (self.damping * GAMMA * MU0 * self.hk_eff())
    }

    /// Parallel-state resistance R_P = RA/A in ohms.
    pub fn resistance_parallel(&self) -> f64 {
        self.resistance_area_product / self.area()
    }

    /// Zero-bias antiparallel resistance R_AP = R_P·(1+TMR₀) in ohms.
    pub fn resistance_antiparallel(&self) -> f64 {
        self.resistance_parallel() * (1.0 + self.tmr_zero_bias)
    }

    /// Thermal equilibrium RMS polar fluctuation angle
    /// θ₀ = √(1/(2Δ)) in radians, used as the initial angle of the
    /// precessional switching model.
    pub fn thermal_angle(&self) -> f64 {
        (1.0 / (2.0 * self.thermal_stability())).sqrt()
    }

    /// Returns a copy with a different diameter (used by retention sizing
    /// and variation sampling).
    pub fn with_diameter(&self, diameter: f64) -> Result<Self, MtjError> {
        let mut b = MssStackBuilder::from(self.clone());
        b = b.diameter(diameter);
        b.build()
    }

    /// Returns a copy with a different temperature.
    pub fn with_temperature(&self, temperature: f64) -> Result<Self, MtjError> {
        let mut b = MssStackBuilder::from(self.clone());
        b = b.temperature(temperature);
        b.build()
    }
}

/// Builder for [`MssStack`].
///
/// All setters take SI units. [`MssStackBuilder::build`] validates ranges and
/// the perpendicular-anisotropy condition (H_k,eff > 0).
#[derive(Debug, Clone, PartialEq)]
pub struct MssStackBuilder {
    diameter: f64,
    free_layer_thickness: f64,
    saturation_magnetization: f64,
    interfacial_anisotropy: f64,
    damping: f64,
    spin_polarization: f64,
    resistance_area_product: f64,
    tmr_zero_bias: f64,
    bias_half_voltage: f64,
    temperature: f64,
}

impl Default for MssStackBuilder {
    fn default() -> Self {
        Self {
            diameter: 40e-9,
            free_layer_thickness: 1.3e-9,
            saturation_magnetization: 1.05e6,
            interfacial_anisotropy: 1.05e-3,
            damping: 0.010,
            spin_polarization: 0.60,
            resistance_area_product: 5.0e-12,
            tmr_zero_bias: 1.5,
            bias_half_voltage: 0.5,
            temperature: 300.0,
        }
    }
}

impl From<MssStack> for MssStackBuilder {
    fn from(s: MssStack) -> Self {
        Self {
            diameter: s.diameter,
            free_layer_thickness: s.free_layer_thickness,
            saturation_magnetization: s.saturation_magnetization,
            interfacial_anisotropy: s.interfacial_anisotropy,
            damping: s.damping,
            spin_polarization: s.spin_polarization,
            resistance_area_product: s.resistance_area_product,
            tmr_zero_bias: s.tmr_zero_bias,
            bias_half_voltage: s.bias_half_voltage,
            temperature: s.temperature,
        }
    }
}

impl MssStackBuilder {
    /// Sets the pillar diameter in metres (typ. 20–100 nm).
    pub fn diameter(mut self, d: f64) -> Self {
        self.diameter = d;
        self
    }

    /// Sets the free-layer thickness in metres (typ. 1–2 nm).
    pub fn free_layer_thickness(mut self, t: f64) -> Self {
        self.free_layer_thickness = t;
        self
    }

    /// Sets the interfacial anisotropy in J/m².
    pub fn interfacial_anisotropy(mut self, ki: f64) -> Self {
        self.interfacial_anisotropy = ki;
        self
    }

    /// Sets the Gilbert damping constant.
    #[cfg(test)]
    pub(crate) fn damping(mut self, alpha: f64) -> Self {
        self.damping = alpha;
        self
    }

    /// Sets the resistance–area product in Ω·m² (5 Ω·µm² = `5e-12`).
    pub fn resistance_area_product(mut self, ra: f64) -> Self {
        self.resistance_area_product = ra;
        self
    }

    /// Sets the zero-bias TMR ratio (1.5 = 150 %).
    pub fn tmr_zero_bias(mut self, tmr: f64) -> Self {
        self.tmr_zero_bias = tmr;
        self
    }

    /// Sets the operating temperature in kelvin.
    pub fn temperature(mut self, t: f64) -> Self {
        self.temperature = t;
        self
    }

    /// Validates the parameters and builds the stack.
    ///
    /// # Errors
    ///
    /// Returns [`MtjError::InvalidParameter`] when any primary parameter is
    /// out of range or the net perpendicular anisotropy is not positive
    /// (the film would not be a perpendicular MTJ).
    pub fn build(self) -> Result<MssStack, MtjError> {
        fn check(
            name: &'static str,
            value: f64,
            ok: bool,
            constraint: &'static str,
        ) -> Result<(), MtjError> {
            if ok && value.is_finite() {
                Ok(())
            } else {
                Err(MtjError::InvalidParameter {
                    name,
                    value,
                    constraint,
                })
            }
        }

        check(
            "diameter",
            self.diameter,
            self.diameter > 5e-9 && self.diameter < 1e-6,
            "must be in (5 nm, 1 um)",
        )?;
        check(
            "free_layer_thickness",
            self.free_layer_thickness,
            self.free_layer_thickness > 0.3e-9 && self.free_layer_thickness < 10e-9,
            "must be in (0.3 nm, 10 nm)",
        )?;
        check(
            "saturation_magnetization",
            self.saturation_magnetization,
            self.saturation_magnetization > 1e4 && self.saturation_magnetization < 3e6,
            "must be in (1e4, 3e6) A/m",
        )?;
        check(
            "interfacial_anisotropy",
            self.interfacial_anisotropy,
            self.interfacial_anisotropy > 0.0,
            "must be positive",
        )?;
        check(
            "damping",
            self.damping,
            self.damping > 1e-4 && self.damping < 0.5,
            "must be in (1e-4, 0.5)",
        )?;
        check(
            "spin_polarization",
            self.spin_polarization,
            self.spin_polarization > 0.0 && self.spin_polarization <= 1.0,
            "must be in (0, 1]",
        )?;
        check(
            "resistance_area_product",
            self.resistance_area_product,
            self.resistance_area_product > 0.0,
            "must be positive",
        )?;
        check(
            "tmr_zero_bias",
            self.tmr_zero_bias,
            self.tmr_zero_bias > 0.0 && self.tmr_zero_bias < 10.0,
            "must be in (0, 10)",
        )?;
        check(
            "bias_half_voltage",
            self.bias_half_voltage,
            self.bias_half_voltage > 0.0,
            "must be positive",
        )?;
        check(
            "temperature",
            self.temperature,
            self.temperature > 0.0 && self.temperature < 1000.0,
            "must be in (0, 1000) K",
        )?;

        let stack = MssStack {
            diameter: self.diameter,
            free_layer_thickness: self.free_layer_thickness,
            saturation_magnetization: self.saturation_magnetization,
            interfacial_anisotropy: self.interfacial_anisotropy,
            damping: self.damping,
            spin_polarization: self.spin_polarization,
            resistance_area_product: self.resistance_area_product,
            tmr_zero_bias: self.tmr_zero_bias,
            bias_half_voltage: self.bias_half_voltage,
            temperature: self.temperature,
        };
        if stack.hk_eff() <= 0.0 {
            return Err(MtjError::InvalidParameter {
                name: "interfacial_anisotropy",
                value: self.interfacial_anisotropy,
                constraint: "net perpendicular anisotropy must be positive (Hk_eff > 0)",
            });
        }
        Ok(stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_stack() -> MssStack {
        MssStack::builder().build().unwrap()
    }

    #[test]
    fn default_stack_is_calibrated() {
        let s = default_stack();
        // Thermal stability around 45 at 300 K.
        let delta = s.thermal_stability();
        assert!(delta > 35.0 && delta < 60.0, "delta = {delta}");
        // Critical current in the tens of microamps.
        let ic0 = s.critical_current();
        assert!(ic0 > 5e-6 && ic0 < 100e-6, "ic0 = {ic0}");
        // Parallel resistance in the kiloohm range.
        let rp = s.resistance_parallel();
        assert!(rp > 1e3 && rp < 20e3, "rp = {rp}");
        // Hk_eff of a couple of kOe.
        let hk_oe = mss_units::consts::am_to_oe(s.hk_eff());
        assert!(hk_oe > 500.0 && hk_oe < 5000.0, "hk = {hk_oe} Oe");
    }

    #[test]
    fn bigger_pillar_more_stable() {
        let small = MssStack::builder().diameter(30e-9).build().unwrap();
        let large = MssStack::builder().diameter(60e-9).build().unwrap();
        assert!(large.thermal_stability() > small.thermal_stability());
        assert!(large.critical_current() > small.critical_current());
        // Resistance scales inversely with area.
        assert!(large.resistance_parallel() < small.resistance_parallel());
    }

    #[test]
    fn delta_scales_with_area() {
        let s30 = MssStack::builder().diameter(30e-9).build().unwrap();
        let s60 = MssStack::builder().diameter(60e-9).build().unwrap();
        let ratio = s60.thermal_stability() / s30.thermal_stability();
        assert!((ratio - 4.0).abs() < 1e-9, "Δ ∝ area: ratio = {ratio}");
    }

    #[test]
    fn hotter_is_less_stable() {
        let cold = MssStack::builder().temperature(250.0).build().unwrap();
        let hot = MssStack::builder().temperature(400.0).build().unwrap();
        assert!(cold.thermal_stability() > hot.thermal_stability());
        // The energy barrier itself is temperature-independent in this model.
        assert!((cold.energy_barrier() - hot.energy_barrier()).abs() < 1e-30);
    }

    #[test]
    fn rejects_negative_diameter() {
        let err = MssStack::builder().diameter(-40e-9).build().unwrap_err();
        assert!(matches!(
            err,
            MtjError::InvalidParameter {
                name: "diameter",
                ..
            }
        ));
    }

    #[test]
    fn rejects_in_plane_film() {
        // Tiny Ki -> demag wins -> not a perpendicular MTJ.
        let err = MssStack::builder()
            .interfacial_anisotropy(1e-5)
            .build()
            .unwrap_err();
        assert!(matches!(err, MtjError::InvalidParameter { .. }));
    }

    #[test]
    fn rejects_nan() {
        assert!(MssStack::builder().damping(f64::NAN).build().is_err());
    }

    #[test]
    fn with_diameter_preserves_other_fields() {
        let s = default_stack();
        let s2 = s.with_diameter(55e-9).unwrap();
        assert_eq!(s2.diameter(), 55e-9);
        assert_eq!(s2.damping(), s.damping());
        assert_eq!(s2.temperature(), s.temperature());
    }

    #[test]
    fn ap_resistance_exceeds_p() {
        let s = default_stack();
        assert!(s.resistance_antiparallel() > s.resistance_parallel());
        let tmr = s.resistance_antiparallel() / s.resistance_parallel() - 1.0;
        assert!((tmr - s.tmr_zero_bias()).abs() < 1e-12);
    }

    #[test]
    fn thermal_angle_matches_delta() {
        let s = default_stack();
        let theta0 = s.thermal_angle();
        assert!((theta0 * theta0 * 2.0 * s.thermal_stability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_d_is_nanoseconds() {
        let s = default_stack();
        let tau = s.tau_d();
        assert!(tau > 0.1e-9 && tau < 100e-9, "tau_d = {tau}");
    }

    #[test]
    fn builder_round_trip() {
        let s = default_stack();
        let b = MssStackBuilder::from(s.clone());
        let s2 = b.build().unwrap();
        assert_eq!(s, s2);
    }
}
