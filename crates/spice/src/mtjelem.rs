//! The MTJ as a circuit element: a state-dependent nonlinear resistor whose
//! state evolves with the current history.
//!
//! During transient analysis the element behaves, within a time step, as a
//! voltage-dependent resistance `R(state, v)` (the TMR bias roll-off makes
//! the AP branch nonlinear). Between accepted time steps the internal state
//! integrates switching progress using the behavioural model from
//! `mss-mtj`: at overdrive `I > I_c0` the polar angle grows exponentially,
//! so progress accumulates as `dt / t_switch(I)` and the junction flips when
//! it reaches 1. Positive terminal current (from node `plus` into `minus`)
//! writes the **parallel** state, matching the LLG sign convention.

use mss_mtj::resistance::{MtjState, ResistanceModel};
use mss_mtj::switching::SwitchingModel;
use mss_mtj::MssStack;

/// MTJ circuit element state and models.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MtjElement {
    resistance: ResistanceModel,
    switching: SwitchingModel,
    state: MtjState,
    /// Switching progress in [0, 1): fraction of the incubation+precession
    /// completed toward the *opposite* state.
    progress: f64,
}

impl MtjElement {
    /// Creates the element from a stack description and an initial state.
    pub(crate) fn new(stack: &MssStack, initial: MtjState) -> Self {
        Self {
            resistance: ResistanceModel::new(stack),
            switching: SwitchingModel::new(stack),
            state: initial,
            progress: 0.0,
        }
    }

    /// Creates the element with an explicit switching evaluator in place of
    /// the stack's STT model — the hook the three-terminal SOT cell uses to
    /// drive the same progress integrator with `(Δ, I_c0,SOT, τ_SOT)`
    /// against the heavy-metal channel current while the junction
    /// resistance stays the stack's TMR model.
    pub(crate) fn with_switching(
        stack: &MssStack,
        initial: MtjState,
        switching: SwitchingModel,
    ) -> Self {
        Self {
            resistance: ResistanceModel::new(stack),
            switching,
            state: initial,
            progress: 0.0,
        }
    }

    /// Current memory state.
    pub(crate) fn state(&self) -> MtjState {
        self.state
    }

    /// Switching progress toward the opposite state, in `[0, 1)`.
    #[cfg(test)]
    pub(crate) fn progress(&self) -> f64 {
        self.progress
    }

    /// Resistance at terminal voltage `v` (volts, plus minus minus).
    pub fn resistance(&self, v: f64) -> f64 {
        self.resistance.state_resistance(self.state, v)
    }

    /// Small-signal conductance and equivalent current for Newton stamping:
    /// returns `(g, i_eq)` such that the element is modelled as
    /// `i = g·v + i_eq` around the last iterate `v0`.
    ///
    /// Linearising `i(v) = v / R(v)` by secant through the origin is exact
    /// here because `R` varies slowly with `v`; we use the chord conductance
    /// which keeps Newton stable.
    pub(crate) fn linearize(&self, v0: f64) -> (f64, f64) {
        let g = 1.0 / self.resistance(v0);
        (g, 0.0)
    }

    /// Advances the internal state by `dt` seconds with terminal current `i`
    /// (amperes, positive writing parallel). Returns `true` when the
    /// junction flipped during this step.
    pub(crate) fn advance(&mut self, i: f64, dt: f64) -> bool {
        let target = if i > 0.0 {
            MtjState::Parallel
        } else if i < 0.0 {
            MtjState::Antiparallel
        } else {
            self.decay_progress(dt);
            return false;
        };
        if target == self.state {
            // Current reinforces the present state: progress resets quickly.
            self.decay_progress(dt);
            return false;
        }
        let overdrive = i.abs() / self.switching.critical_current();
        if overdrive <= 1.0 {
            // Subcritical: deterministic transient ignores thermal switching.
            self.decay_progress(dt);
            return false;
        }
        match self.switching.mean_switching_time(i.abs()) {
            Ok(t_sw) if t_sw > 0.0 => {
                self.progress += dt / t_sw;
                if self.progress >= 1.0 {
                    self.state = target;
                    self.progress = 0.0;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    fn decay_progress(&mut self, dt: f64) {
        // Incubation decays on the precession time scale when unsupported.
        let tau = self.switching.tau_d();
        self.progress *= (-dt / tau).exp();
        if self.progress < 1e-12 {
            self.progress = 0.0;
        }
    }

    /// Critical current of the junction in amperes.
    #[cfg(test)]
    pub fn critical_current(&self) -> f64 {
        self.switching.critical_current()
    }

    /// Forces the state (test setup / initial conditions).
    pub(crate) fn set_state(&mut self, state: MtjState) {
        self.state = state;
        self.progress = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn element(state: MtjState) -> MtjElement {
        MtjElement::new(&MssStack::builder().build().unwrap(), state)
    }

    #[test]
    fn resistance_matches_state() {
        let e = element(MtjState::Parallel);
        let stack = MssStack::builder().build().unwrap();
        assert!((e.resistance(0.0) - stack.resistance_parallel()).abs() < 1.0);
        let e2 = element(MtjState::Antiparallel);
        assert!(e2.resistance(0.0) > e.resistance(0.0));
    }

    #[test]
    fn overdrive_current_switches_after_mean_time() {
        let mut e = element(MtjState::Antiparallel);
        let i = 2.5 * e.critical_current(); // positive -> parallel
        let t_sw = SwitchingModel::new(&MssStack::builder().build().unwrap())
            .mean_switching_time(i)
            .unwrap();
        let dt = t_sw / 100.0;
        let mut flipped_at = None;
        for k in 0..300 {
            if e.advance(i, dt) {
                flipped_at = Some(k as f64 * dt);
                break;
            }
        }
        let t = flipped_at.expect("never switched");
        assert!(
            (t / t_sw - 1.0).abs() < 0.05,
            "switched at {t}, expected {t_sw}"
        );
        assert_eq!(e.state(), MtjState::Parallel);
    }

    #[test]
    fn subcritical_current_never_switches() {
        let mut e = element(MtjState::Antiparallel);
        let i = 0.9 * e.critical_current();
        for _ in 0..10_000 {
            assert!(!e.advance(i, 1e-10));
        }
        assert_eq!(e.state(), MtjState::Antiparallel);
    }

    #[test]
    fn reinforcing_current_does_nothing() {
        let mut e = element(MtjState::Parallel);
        let i = 3.0 * e.critical_current(); // positive writes parallel: already there
        for _ in 0..1000 {
            assert!(!e.advance(i, 1e-10));
        }
        assert_eq!(e.state(), MtjState::Parallel);
    }

    #[test]
    fn negative_current_writes_antiparallel() {
        let mut e = element(MtjState::Parallel);
        let i = -2.5 * e.critical_current();
        let mut flipped = false;
        for _ in 0..100_000 {
            if e.advance(i, 1e-11) {
                flipped = true;
                break;
            }
        }
        assert!(flipped);
        assert_eq!(e.state(), MtjState::Antiparallel);
    }

    #[test]
    fn interrupted_pulse_decays_progress() {
        let mut e = element(MtjState::Antiparallel);
        let i = 2.5 * e.critical_current();
        // Half the switching time of drive...
        let t_sw = SwitchingModel::new(&MssStack::builder().build().unwrap())
            .mean_switching_time(i)
            .unwrap();
        for _ in 0..50 {
            e.advance(i, t_sw / 100.0);
        }
        let mid = e.progress();
        assert!(mid > 0.4 && mid < 0.6);
        // ...then a long idle gap: progress must decay away.
        e.advance(0.0, 100.0 * t_sw);
        assert!(e.progress() < 1e-3);
    }

    #[test]
    fn linearize_is_chord_conductance() {
        let e = element(MtjState::Antiparallel);
        let (g, ieq) = e.linearize(0.3);
        assert_eq!(ieq, 0.0);
        assert!((g - 1.0 / e.resistance(0.3)).abs() < 1e-15);
    }

    #[test]
    fn ap_resistance_drops_with_bias() {
        let e = element(MtjState::Antiparallel);
        assert!(e.resistance(0.5) < e.resistance(0.0));
    }
}
