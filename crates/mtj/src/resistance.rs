//! Tunnel-junction resistance model: angular dependence and bias-voltage
//! dependence of the TMR.
//!
//! The conductance between free and reference layer follows the standard
//! cosine interpolation between the parallel and antiparallel states,
//! `G(θ) = (G_P+G_AP)/2 + (G_P−G_AP)/2·cosθ`, and the antiparallel
//! resistance decays with bias as `TMR(V) = TMR₀/(1+(V/V_h)²)`.

use crate::stack::MssStack;

/// The two stable memory states of an MTJ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MtjState {
    /// Free layer parallel to the reference layer (low resistance, logic 0).
    Parallel,
    /// Free layer antiparallel to the reference layer (high resistance, logic 1).
    Antiparallel,
}

impl MtjState {
    /// The opposite state.
    #[cfg(test)]
    pub(crate) fn flipped(self) -> Self {
        match self {
            MtjState::Parallel => MtjState::Antiparallel,
            MtjState::Antiparallel => MtjState::Parallel,
        }
    }

    /// cos(θ) of the state: +1 for parallel, −1 for antiparallel.
    pub fn cos_angle(self) -> f64 {
        match self {
            MtjState::Parallel => 1.0,
            MtjState::Antiparallel => -1.0,
        }
    }
}

/// Resistance evaluator bound to a stack.
#[derive(Debug, Clone, PartialEq)]
pub struct ResistanceModel {
    r_p: f64,
    tmr0: f64,
    v_h: f64,
}

impl ResistanceModel {
    /// Builds the evaluator from a stack's RA product, TMR and V_h.
    pub fn new(stack: &MssStack) -> Self {
        Self {
            r_p: stack.resistance_parallel(),
            tmr0: stack.tmr_zero_bias(),
            v_h: stack.bias_half_voltage(),
        }
    }

    /// TMR ratio at bias voltage `v` (volts): `TMR₀/(1+(v/V_h)²)`.
    pub(crate) fn tmr_at_bias(&self, v: f64) -> f64 {
        self.tmr0 / (1.0 + (v / self.v_h).powi(2))
    }

    /// Resistance for a given relative angle cosine `cos θ ∈ [−1, 1]` at
    /// bias voltage `v`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `cos_theta` is outside `[-1, 1]`.
    pub(crate) fn resistance(&self, cos_theta: f64, v: f64) -> f64 {
        debug_assert!(
            (-1.0..=1.0).contains(&cos_theta),
            "cos_theta out of range: {cos_theta}"
        );
        let g_p = 1.0 / self.r_p;
        let r_ap = self.r_p * (1.0 + self.tmr_at_bias(v));
        let g_ap = 1.0 / r_ap;
        let g = 0.5 * (g_p + g_ap) + 0.5 * (g_p - g_ap) * cos_theta;
        1.0 / g
    }

    /// Resistance of a discrete memory state at bias `v`.
    pub fn state_resistance(&self, state: MtjState, v: f64) -> f64 {
        self.resistance(state.cos_angle(), v)
    }

    /// Read signal: resistance difference between the two states at read
    /// bias `v_read`.
    #[cfg(test)]
    pub(crate) fn read_window(&self, v_read: f64) -> f64 {
        self.state_resistance(MtjState::Antiparallel, v_read)
            - self.state_resistance(MtjState::Parallel, v_read)
    }

    /// Zero-bias parallel resistance.
    pub(crate) fn r_parallel(&self) -> f64 {
        self.r_p
    }

    /// Zero-bias antiparallel resistance.
    pub(crate) fn r_antiparallel(&self) -> f64 {
        self.r_p * (1.0 + self.tmr0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MssStack;

    fn model() -> ResistanceModel {
        ResistanceModel::new(&MssStack::builder().build().unwrap())
    }

    #[test]
    fn endpoints_match_state_resistances() {
        let m = model();
        assert!((m.resistance(1.0, 0.0) - m.r_parallel()).abs() < 1e-9);
        assert!((m.resistance(-1.0, 0.0) - m.r_antiparallel()).abs() < 1e-6);
    }

    #[test]
    fn resistance_monotone_in_angle() {
        let m = model();
        let mut last = m.resistance(1.0, 0.0);
        let mut c = 0.9f64;
        while c >= -1.0 {
            let r = m.resistance(c, 0.0);
            assert!(r > last, "resistance must grow P->AP");
            last = r;
            c -= 0.1;
        }
    }

    #[test]
    fn tmr_decays_with_bias() {
        let m = model();
        let t0 = m.tmr_at_bias(0.0);
        let th = m.tmr_at_bias(0.5); // V_h default
        assert!((th - t0 / 2.0).abs() < 1e-12);
        assert!(m.tmr_at_bias(1.0) < th);
    }

    #[test]
    fn read_window_shrinks_with_bias() {
        let m = model();
        assert!(m.read_window(0.0) > m.read_window(0.3));
        assert!(m.read_window(0.3) > 0.0);
    }

    #[test]
    fn parallel_resistance_is_bias_independent() {
        let m = model();
        assert!(
            (m.state_resistance(MtjState::Parallel, 0.0)
                - m.state_resistance(MtjState::Parallel, 0.4))
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn flipped_inverts() {
        assert_eq!(MtjState::Parallel.flipped(), MtjState::Antiparallel);
        assert_eq!(MtjState::Antiparallel.flipped(), MtjState::Parallel);
    }
}
