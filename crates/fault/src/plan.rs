//! Fault plans: per-site fault models and where their rates come from.

use mss_mtj::reliability::{read_disturb_probability, retention_flip_probability};
use mss_mtj::switching::SwitchingModel;
use mss_mtj::MssStack;

use crate::FaultError;

/// Per-bit fault rates of one memory site (array, bank, test structure).
///
/// All rates are probabilities in `[0, 1]`:
///
/// - `write_fail_rate` — per bit, per write attempt (the device WER),
/// - `read_disturb_rate` — per bit, per read (accidental flip of the stored
///   state by the read current),
/// - `transient_flip_rate` — per bit, per access epoch (retention loss /
///   soft upsets between touches),
/// - `stuck_at_rate` — fraction of cells with a fabrication-time stuck-at
///   defect (the cell holds a fixed value; half of all writes mismatch it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Per-bit write failure probability per attempt.
    pub write_fail_rate: f64,
    /// Per-bit read-disturb flip probability per read.
    pub read_disturb_rate: f64,
    /// Per-bit transient flip probability per access epoch.
    pub transient_flip_rate: f64,
    /// Fraction of fabricated cells that are stuck at a fixed value.
    pub stuck_at_rate: f64,
}

impl mss_pipe::StableHash for FaultModel {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_f64(self.write_fail_rate);
        h.write_f64(self.read_disturb_rate);
        h.write_f64(self.transient_flip_rate);
        h.write_f64(self.stuck_at_rate);
    }
}

impl FaultModel {
    /// The all-zero model: nothing ever fails.
    pub const fn none() -> Self {
        Self {
            write_fail_rate: 0.0,
            read_disturb_rate: 0.0,
            transient_flip_rate: 0.0,
            stuck_at_rate: 0.0,
        }
    }

    /// True when at least one rate is non-zero.
    #[cfg(test)]
    pub(crate) fn is_active(&self) -> bool {
        self.write_fail_rate > 0.0
            || self.read_disturb_rate > 0.0
            || self.transient_flip_rate > 0.0
            || self.stuck_at_rate > 0.0
    }

    /// Validates that every rate is a probability.
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidModel`] naming the offending rate.
    pub fn validate(&self) -> Result<(), FaultError> {
        for (name, rate) in [
            ("write_fail_rate", self.write_fail_rate),
            ("read_disturb_rate", self.read_disturb_rate),
            ("transient_flip_rate", self.transient_flip_rate),
            ("stuck_at_rate", self.stuck_at_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(FaultError::InvalidModel {
                    reason: format!("{name} = {rate} is not a probability in [0, 1]"),
                });
            }
        }
        Ok(())
    }

    /// Derives the stochastic rates from the `mss-mtj` analytical models at
    /// an operating point: WER from the precessional/thermal switching model,
    /// RER from the Néel–Brown read-disturb model, transient flips from the
    /// retention escape rate over the idle window. The stuck-at rate is a
    /// fabrication quantity and is taken from the operating point directly.
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidModel`] when the operating point produces
    /// out-of-range rates (e.g. a negative pulse width).
    pub fn from_mtj(stack: &MssStack, op: &MtjOperatingPoint) -> Result<Self, FaultError> {
        let sw = SwitchingModel::new(stack);
        let model = Self {
            write_fail_rate: sw.write_error_rate(op.write_pulse, op.write_current),
            read_disturb_rate: read_disturb_probability(stack, op.read_pulse, op.read_current),
            transient_flip_rate: retention_flip_probability(stack, op.idle_window),
            stuck_at_rate: op.stuck_at_rate,
        };
        model.validate()?;
        Ok(model)
    }
}

/// The electrical conditions a [`FaultModel`] is derived at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtjOperatingPoint {
    /// Write pulse width, seconds.
    pub(crate) write_pulse: f64,
    /// Write current, amperes.
    pub write_current: f64,
    /// Read pulse width, seconds.
    pub(crate) read_pulse: f64,
    /// Read current, amperes.
    pub(crate) read_current: f64,
    /// Idle window between touches of a word, seconds (retention exposure).
    pub(crate) idle_window: f64,
    /// Fabrication stuck-at defect rate (not derivable from the stack).
    pub stuck_at_rate: f64,
}

impl MtjOperatingPoint {
    /// A representative memory-mode operating point for a stack: 2.5×
    /// overdrive writes, 10 ns pulses, 10%-of-critical 2 ns reads, a 1 ms
    /// idle window and no fabrication defects.
    pub fn memory_defaults(stack: &MssStack) -> Self {
        let ic0 = stack.critical_current();
        Self {
            write_pulse: 10e-9,
            write_current: 2.5 * ic0,
            read_pulse: 2e-9,
            read_current: 0.1 * ic0,
            idle_window: 1e-3,
            stuck_at_rate: 0.0,
        }
    }
}

/// A complete injection plan: a seed plus the fault model it drives.
///
/// The plan is the only thing a fault-aware subsystem needs; everything
/// downstream (which bit fails on which access) is a pure function of the
/// plan via [`crate::FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of every injection decision.
    pub(crate) seed: u64,
    /// The rates to inject at.
    pub model: FaultModel,
}

impl mss_pipe::StableHash for FaultPlan {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_u64(self.seed);
        self.model.stable_hash(h);
    }
}

impl FaultPlan {
    /// The default: no injection at all (the production configuration).
    pub const fn disabled() -> Self {
        Self {
            seed: 0,
            model: FaultModel::none(),
        }
    }

    /// A validated plan.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultModel::validate`].
    pub fn new(seed: u64, model: FaultModel) -> Result<Self, FaultError> {
        model.validate()?;
        Ok(Self { seed, model })
    }

    /// True when the plan can inject anything.
    #[cfg(test)]
    pub(crate) fn is_active(&self) -> bool {
        self.model.is_active()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_inactive() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_active());
        assert!(plan.model.validate().is_ok());
        assert_eq!(FaultPlan::default(), plan);
    }

    #[test]
    fn bad_rates_rejected_with_names() {
        let mut m = FaultModel::none();
        m.write_fail_rate = 1.5;
        let err = FaultPlan::new(1, m).expect_err("rate above 1");
        assert!(err.to_string().contains("write_fail_rate"));
        let mut m = FaultModel::none();
        m.read_disturb_rate = -0.1;
        assert!(FaultPlan::new(1, m).is_err());
        let mut m = FaultModel::none();
        m.transient_flip_rate = f64::NAN;
        assert!(FaultPlan::new(1, m).is_err());
    }

    #[test]
    fn mtj_derived_rates_match_the_analytical_models() {
        let stack = MssStack::builder().build().expect("reference stack");
        let op = MtjOperatingPoint::memory_defaults(&stack);
        let model = FaultModel::from_mtj(&stack, &op).expect("derived model");
        let sw = SwitchingModel::new(&stack);
        assert_eq!(
            model.write_fail_rate,
            sw.write_error_rate(op.write_pulse, op.write_current)
        );
        assert_eq!(
            model.read_disturb_rate,
            read_disturb_probability(&stack, op.read_pulse, op.read_current)
        );
        assert_eq!(
            model.transient_flip_rate,
            retention_flip_probability(&stack, op.idle_window)
        );
        // All rates are well-formed probabilities at the default operating
        // point, and the gentle read pulse disturbs far less than writes err.
        assert!(model.validate().is_ok());
        assert!(model.write_fail_rate > 0.0 && model.write_fail_rate < 1.0);
        assert!(model.read_disturb_rate < 1e-6);
        assert!(model.read_disturb_rate < model.write_fail_rate);
    }

    #[test]
    fn longer_pulses_lower_the_derived_wer() {
        let stack = MssStack::builder().build().expect("reference stack");
        let mut op = MtjOperatingPoint::memory_defaults(&stack);
        op.write_pulse = 5e-9;
        let short = FaultModel::from_mtj(&stack, &op).expect("short pulse");
        op.write_pulse = 20e-9;
        let long = FaultModel::from_mtj(&stack, &op).expect("long pulse");
        assert!(long.write_fail_rate < short.write_fail_rate);
    }
}
