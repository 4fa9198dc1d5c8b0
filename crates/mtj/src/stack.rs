//! The MSS film stack: geometry, materials and derived magnetics.
//!
//! One [`MssStack`] describes a patterned perpendicular MTJ pillar. All
//! derived quantities (effective anisotropy field, thermal stability factor,
//! critical current, resistances) are computed on demand from the primary
//! parameters, so variation sampling in `mss-pdk` can perturb the primary
//! parameters and get self-consistent derived behaviour for free.

use crate::closed_form;
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
    pub fn saturation_magnetization(&self) -> f64 {
        self.saturation_magnetization
    }

    /// Interfacial perpendicular anisotropy K_i in J/m².
    pub fn interfacial_anisotropy(&self) -> f64 {
        self.interfacial_anisotropy
    }

    /// Gilbert damping constant α (dimensionless).
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// Effective spin polarisation / STT efficiency η (dimensionless).
    pub fn spin_polarization(&self) -> f64 {
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
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Junction area in m².
    pub(crate) fn area(&self) -> f64 {
        closed_form::junction_area(self.diameter)
    }

    /// Free-layer volume in m³.
    pub(crate) fn volume(&self) -> f64 {
        self.area() * self.free_layer_thickness
    }

    /// Effective perpendicular anisotropy field H_k,eff in A/m:
    /// `2·K_i/(μ₀·M_s·t_f) − M_s` (interfacial anisotropy minus thin-film
    /// demagnetisation).
    pub fn hk_eff(&self) -> f64 {
        closed_form::hk_eff(
            self.interfacial_anisotropy,
            self.saturation_magnetization,
            self.free_layer_thickness,
        )
    }

    /// Energy barrier E_b = μ₀·M_s·H_k,eff·V/2 in joules.
    pub(crate) fn energy_barrier(&self) -> f64 {
        closed_form::energy_barrier(self.saturation_magnetization, self.hk_eff(), self.volume())
    }

    /// Thermal stability factor Δ = E_b/(k_B·T).
    pub fn thermal_stability(&self) -> f64 {
        closed_form::thermal_stability(self.energy_barrier(), self.temperature)
    }

    /// Zero-temperature critical switching current I_c0 in amperes:
    /// `(2e/ħ)·(α/η)·2·E_b`.
    pub fn critical_current(&self) -> f64 {
        closed_form::stt_critical_current(
            self.damping,
            self.spin_polarization,
            self.energy_barrier(),
        )
    }

    /// Characteristic precession time constant
    /// τ_D = (1+α²)/(α·γ·μ₀·H_k,eff) in seconds — sets the precessional
    /// switching speed.
    pub(crate) fn tau_d(&self) -> f64 {
        closed_form::tau_d(self.damping, self.hk_eff())
    }

    /// Parallel-state resistance R_P = RA/A in ohms.
    pub fn resistance_parallel(&self) -> f64 {
        closed_form::resistance_parallel(self.resistance_area_product, self.area())
    }

    /// Zero-bias antiparallel resistance R_AP = R_P·(1+TMR₀) in ohms.
    pub fn resistance_antiparallel(&self) -> f64 {
        closed_form::resistance_antiparallel(self.resistance_parallel(), self.tmr_zero_bias)
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
        use StackParam::*;
        for (param, value) in [
            (Diameter, self.diameter),
            (FreeLayerThickness, self.free_layer_thickness),
            (SaturationMagnetization, self.saturation_magnetization),
            (InterfacialAnisotropy, self.interfacial_anisotropy),
            (Damping, self.damping),
            (SpinPolarization, self.spin_polarization),
            (ResistanceAreaProduct, self.resistance_area_product),
            (TmrZeroBias, self.tmr_zero_bias),
            (BiasHalfVoltage, self.bias_half_voltage),
            (Temperature, self.temperature),
        ] {
            param.check(value)?;
        }
        closed_form::perpendicular_hk_eff(
            self.interfacial_anisotropy,
            self.saturation_magnetization,
            self.free_layer_thickness,
        )?;
        Ok(MssStack {
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
        })
    }
}

/// A primary stack parameter, with the range [`MssStackBuilder::build`]
/// checks it against. The builder checks them in declaration order, then
/// the perpendicular-anisotropy condition
/// ([`closed_form::perpendicular_hk_eff`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackParam {
    /// Pillar diameter, (5 nm, 1 µm).
    Diameter,
    /// Free-layer thickness, (0.3 nm, 10 nm).
    FreeLayerThickness,
    /// Saturation magnetization, (1e4, 3e6) A/m.
    SaturationMagnetization,
    /// Interfacial anisotropy K_i, positive.
    InterfacialAnisotropy,
    /// Gilbert damping, (1e-4, 0.5).
    Damping,
    /// Spin polarisation, (0, 1].
    SpinPolarization,
    /// RA product, positive.
    ResistanceAreaProduct,
    /// Zero-bias TMR, (0, 10).
    TmrZeroBias,
    /// TMR half-bias voltage, positive.
    BiasHalfVoltage,
    /// Temperature, (0, 1000) K.
    Temperature,
}

impl StackParam {
    /// `value` when it is finite and in range.
    ///
    /// # Errors
    ///
    /// [`MtjError::InvalidParameter`] naming the parameter otherwise.
    pub fn check(self, value: f64) -> Result<f64, MtjError> {
        use StackParam::*;
        let (name, ok, constraint) = match self {
            Diameter => (
                "diameter",
                value > 5e-9 && value < 1e-6,
                "must be in (5 nm, 1 um)",
            ),
            FreeLayerThickness => (
                "free_layer_thickness",
                value > 0.3e-9 && value < 10e-9,
                "must be in (0.3 nm, 10 nm)",
            ),
            SaturationMagnetization => (
                "saturation_magnetization",
                value > 1e4 && value < 3e6,
                "must be in (1e4, 3e6) A/m",
            ),
            InterfacialAnisotropy => ("interfacial_anisotropy", value > 0.0, "must be positive"),
            Damping => (
                "damping",
                value > 1e-4 && value < 0.5,
                "must be in (1e-4, 0.5)",
            ),
            SpinPolarization => (
                "spin_polarization",
                value > 0.0 && value <= 1.0,
                "must be in (0, 1]",
            ),
            ResistanceAreaProduct => ("resistance_area_product", value > 0.0, "must be positive"),
            TmrZeroBias => (
                "tmr_zero_bias",
                value > 0.0 && value < 10.0,
                "must be in (0, 10)",
            ),
            BiasHalfVoltage => ("bias_half_voltage", value > 0.0, "must be positive"),
            Temperature => (
                "temperature",
                value > 0.0 && value < 1000.0,
                "must be in (0, 1000) K",
            ),
        };
        if ok && value.is_finite() {
            Ok(value)
        } else {
            Err(MtjError::InvalidParameter {
                name,
                value,
                constraint,
            })
        }
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
