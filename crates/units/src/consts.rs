//! Physical constants (SI) and magnetics unit conversions.
//!
//! All values are CODATA-2018 rounded to the precision relevant for
//! compact-model work. Magnetic fields inside the workspace are expressed in
//! ampere per metre (A/m); the conversions to/from oersted and tesla are the
//! ones the spintronics literature uses (1 Oe = 1000/4π A/m).

/// Vacuum permeability μ₀ in H/m (T·m/A).
pub const MU0: f64 = 1.256_637_062_12e-6;

/// Boltzmann constant k_B in J/K.
pub const KB: f64 = 1.380_649e-23;

/// Elementary charge e in C.
pub const QE: f64 = 1.602_176_634e-19;

/// Reduced Planck constant ħ in J·s.
pub const HBAR: f64 = 1.054_571_817e-34;

/// Gyromagnetic ratio of the electron γ in rad/(s·T).
pub const GAMMA: f64 = 1.760_859_630e11;

/// Default ambient temperature used across the flow, in kelvin (27 °C).
pub const ROOM_TEMPERATURE: f64 = 300.0;

/// Attempt period τ₀ for thermally activated MTJ switching, in seconds.
///
/// The ubiquitous 1 ns attempt time of the Néel–Brown model.
pub const TAU0: f64 = 1.0e-9;

/// Converts a magnetic field from oersted to A/m.
///
/// # Examples
///
/// ```
/// let h = mss_units::consts::oe_to_am(1.0);
/// assert!((h - 79.577).abs() < 1e-2);
/// ```
#[inline]
pub fn oe_to_am(oe: f64) -> f64 {
    oe * (1000.0 / (4.0 * std::f64::consts::PI))
}

/// Converts a magnetic field from A/m to oersted.
#[inline]
pub fn am_to_oe(am: f64) -> f64 {
    am / (1000.0 / (4.0 * std::f64::consts::PI))
}

/// Converts a magnetic flux density in tesla to the equivalent H-field in A/m.
#[cfg(test)]
#[inline]
pub(crate) fn tesla_to_am(t: f64) -> f64 {
    t / MU0
}

/// Converts an H-field in A/m to the equivalent flux density in tesla.
#[cfg(test)]
#[inline]
pub(crate) fn am_to_tesla(am: f64) -> f64 {
    am * MU0
}

/// Converts degrees Celsius to kelvin.
#[inline]
pub fn celsius_to_kelvin(c: f64) -> f64 {
    c + 273.15
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oersted_round_trip() {
        let oe = 1000.0; // the ~1 kOe bias field of the MSS sensor mode
        let am = oe_to_am(oe);
        assert!((am_to_oe(am) - oe).abs() < 1e-9);
        // 1 kOe ≈ 79.577 kA/m ≈ 0.1 T
        assert!((am - 79_577.47).abs() < 1.0);
        assert!((am_to_tesla(am) - 0.1).abs() < 1e-3);
    }

    #[test]
    fn thermal_energy_at_room_temperature() {
        let kt = KB * ROOM_TEMPERATURE;
        assert!((kt - 4.141_947e-21).abs() < 1e-24);
    }

    #[test]
    fn tesla_round_trip() {
        for t in [1e-3, 0.1, 1.0] {
            assert!((am_to_tesla(tesla_to_am(t)) - t).abs() < 1e-12);
        }
    }

    #[test]
    fn celsius_conversion() {
        assert!((celsius_to_kelvin(26.85) - 300.0).abs() < 1e-9);
    }
}
