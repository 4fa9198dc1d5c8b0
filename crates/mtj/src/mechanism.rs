//! Switching mechanisms: one closed-form model, per-mechanism constants
//! and write path.
//!
//! The paper treats the MSS as a *universal* spintronic stack, but the
//! original flow hard-coded the two-terminal STT write path. Every
//! mechanism here runs through the one compact model, [`SwitchingModel`];
//! a mechanism only supplies its constants `(Δ, I_c0, τ)` and its write
//! path, so downstream layers (mss-spice three-terminal cells, mss-nvsim
//! read/write path accounting, mss-vaet margins, the MAGPIE flow) run
//! either one:
//!
//! - **STT** — [`SwitchingModel::new`] derives the constants from the
//!   stack; the write current flows through the junction.
//! - **SOT/SHE** — a three-terminal cell ([`SotMechanism`]): the write
//!   current flows through a heavy-metal channel under the pillar and the
//!   spin Hall effect injects a transverse spin current into the free
//!   layer. The compact relations follow the macrospin antidamping-SOT
//!   treatment used by the NGSPICE-compatible STT/SHE compact model
//!   (arXiv:2208.14055):
//!
//! ```text
//! J_c0,SOT = (2e/ħ) · μ₀·M_s·t_f · H_k,eff / (2·θ_SH)      (channel density)
//! I_c0,SOT = J_c0,SOT · w_ch · t_ch                        (charge current)
//! τ_SOT    = α · τ_D = (1+α²)/(γ·μ₀·H_k,eff)               (no damping limit)
//! ```
//!
//! Two qualitative SOT advantages fall out: the critical current carries no
//! Gilbert-damping factor (STT's `I_c0 ∝ α`), and the characteristic time
//! constant is the bare precession time `τ_SOT = α·τ_D`, enabling sub-ns
//! writes. The WER/pulse/current closed forms are *shared* with STT — the
//! precessional escape statistics are torque-agnostic once `(Δ, I_c0, τ)`
//! are fixed — so [`SotMechanism`] reuses `SwitchingModel::from_parts`
//! with the SOT constants instead of duplicating the math.
//!
//! Reads are unchanged in both mechanisms: the TMR read path always goes
//! through the tunnel barrier. Only the write path differs — SOT writes
//! through the low-resistance channel (`R_ch = ρ·L/(w·t_ch)`, hundreds of
//! ohms against the ~4 kΩ junction), which is where the write-energy win
//! comes from.

use crate::closed_form;
use crate::stack::MssStack;
use crate::switching::SwitchingModel;
use crate::MtjError;

/// Which write mechanism a device/config uses.
///
/// Hashes stably (`Stt = 0`, `Sot = 1`) so pipe-cache keys distinguish the
/// mechanisms; the STT discriminant is pinned by `tests/stable_digests.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// Spin-transfer torque: two-terminal write through the junction.
    Stt,
    /// Spin-orbit torque (spin Hall effect): three-terminal write through a
    /// heavy-metal channel.
    Sot,
}

impl MechanismKind {
    /// Short lowercase token used in CLI arguments and CSV metadata.
    #[cfg(test)]
    pub(crate) fn token(&self) -> &'static str {
        match self {
            MechanismKind::Stt => "stt",
            MechanismKind::Sot => "sot",
        }
    }

    /// Parses the token produced by [`MechanismKind::token`]
    /// (case-insensitive).
    #[cfg(test)]
    pub(crate) fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("stt") {
            Some(MechanismKind::Stt)
        } else if s.eq_ignore_ascii_case("sot") || s.eq_ignore_ascii_case("she") {
            Some(MechanismKind::Sot)
        } else {
            None
        }
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismKind::Stt => write!(f, "STT"),
            MechanismKind::Sot => write!(f, "SOT"),
        }
    }
}

impl mss_pipe::StableHash for MechanismKind {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_u8(match self {
            MechanismKind::Stt => 0,
            MechanismKind::Sot => 1,
        });
    }
}

/// Heavy-metal channel parameters of the three-terminal SOT cell.
///
/// Geometry is tied to the pillar: the channel is `width_factor·d` wide and
/// `length_factor·d` long between the two write terminals, `thickness`
/// thick. Defaults describe a β-W channel (θ_SH ≈ 0.3, ρ ≈ 200 µΩ·cm).
#[derive(Debug, Clone, PartialEq)]
pub struct SotParams {
    /// Spin Hall angle θ_SH of the channel material (dimensionless).
    pub spin_hall_angle: f64,
    /// Channel (heavy-metal) thickness t_ch in metres.
    pub channel_thickness: f64,
    /// Channel resistivity ρ in Ω·m (200 µΩ·cm = `2e-6`).
    pub channel_resistivity: f64,
    /// Channel length between write terminals, as a multiple of the pillar
    /// diameter.
    pub channel_length_factor: f64,
    /// Channel width as a multiple of the pillar diameter.
    pub channel_width_factor: f64,
    /// Field-like torque amplitude relative to the damping-like term
    /// (0 = pure antidamping SOT). Only the LLG integrator uses this.
    pub field_like_ratio: f64,
}

impl Default for SotParams {
    fn default() -> Self {
        Self {
            spin_hall_angle: 0.30,
            channel_thickness: 3e-9,
            channel_resistivity: 2.0e-6,
            channel_length_factor: 1.5,
            channel_width_factor: 1.2,
            field_like_ratio: 0.0,
        }
    }
}

impl mss_pipe::StableHash for SotParams {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_f64(self.spin_hall_angle);
        h.write_f64(self.channel_thickness);
        h.write_f64(self.channel_resistivity);
        h.write_f64(self.channel_length_factor);
        h.write_f64(self.channel_width_factor);
        h.write_f64(self.field_like_ratio);
    }
}

impl SotParams {
    /// Validates the parameter ranges.
    ///
    /// # Errors
    ///
    /// [`MtjError::InvalidParameter`] when any parameter is out of range.
    pub fn validate(&self) -> Result<(), MtjError> {
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
            "spin_hall_angle",
            self.spin_hall_angle,
            self.spin_hall_angle > 0.0 && self.spin_hall_angle <= 1.0,
            "must be in (0, 1]",
        )?;
        check(
            "channel_thickness",
            self.channel_thickness,
            self.channel_thickness > 0.5e-9 && self.channel_thickness < 50e-9,
            "must be in (0.5 nm, 50 nm)",
        )?;
        check(
            "channel_resistivity",
            self.channel_resistivity,
            self.channel_resistivity > 0.0,
            "must be positive",
        )?;
        check(
            "channel_length_factor",
            self.channel_length_factor,
            self.channel_length_factor >= 1.0 && self.channel_length_factor < 100.0,
            "must be in [1, 100)",
        )?;
        check(
            "channel_width_factor",
            self.channel_width_factor,
            self.channel_width_factor >= 1.0 && self.channel_width_factor < 100.0,
            "must be in [1, 100)",
        )?;
        check(
            "field_like_ratio",
            self.field_like_ratio,
            (-5.0..=5.0).contains(&self.field_like_ratio),
            "must be in [-5, 5]",
        )?;
        Ok(())
    }

    /// Channel width in metres for pillar diameter `d`.
    pub(crate) fn channel_width(&self, d: f64) -> f64 {
        self.channel_width_factor * d
    }

    /// Channel length in metres for pillar diameter `d`.
    pub(crate) fn channel_length(&self, d: f64) -> f64 {
        self.channel_length_factor * d
    }

    /// Channel cross-section `w·t_ch` in m² for pillar diameter `d`.
    pub(crate) fn channel_cross_section(&self, d: f64) -> f64 {
        self.channel_width(d) * self.channel_thickness
    }

    /// Channel resistance `ρ·L/(w·t_ch)` in ohms for pillar diameter `d`.
    pub fn channel_resistance(&self, d: f64) -> f64 {
        self.channel_resistivity * self.channel_length(d) / self.channel_cross_section(d)
    }
}

/// The SOT/SHE constants: antidamping spin-Hall switching of the same
/// pillar through a heavy-metal channel.
///
/// [`SotMechanism::switching_model`] is `SwitchingModel::from_parts` with
/// the SOT constants `(Δ, I_c0,SOT, τ_SOT)` — the precessional/thermal
/// escape closed forms are torque-agnostic — and
/// [`SotMechanism::channel_resistance`] is the write path.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mss_mtj::MtjError> {
/// use mss_mtj::mechanism::{SotMechanism, SotParams};
/// let stack = mss_mtj::MssStack::builder().build()?;
/// let sot = SotMechanism::new(&stack, SotParams::default())?;
/// let model = sot.switching_model();
/// // No damping limit: SOT switches in well under a nanosecond at 2x Ic.
/// let t = model.mean_switching_time(2.0 * model.critical_current())?;
/// assert!(t < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SotMechanism {
    inner: SwitchingModel,
    params: SotParams,
    channel_resistance: f64,
    pillar_diameter: f64,
}

impl SotMechanism {
    /// Builds the SOT evaluator for a stack + channel description.
    ///
    /// # Errors
    ///
    /// [`MtjError::InvalidParameter`] when the channel parameters are out
    /// of range.
    pub fn new(stack: &MssStack, params: SotParams) -> Result<Self, MtjError> {
        params.validate()?;
        let d = stack.diameter();
        let hk = stack.hk_eff();
        // Note the absence of the Gilbert-damping factor that scales the
        // STT critical current, and the bare precession time α·τ_D.
        let ic0 = closed_form::sot_critical_current(
            stack.saturation_magnetization(),
            stack.free_layer_thickness(),
            hk,
            &params,
            d,
        );
        let tau_sot = closed_form::sot_tau(stack.damping(), hk);
        let inner = SwitchingModel::from_parts(stack.thermal_stability(), ic0, tau_sot);
        Ok(Self {
            inner,
            channel_resistance: params.channel_resistance(d),
            pillar_diameter: d,
            params,
        })
    }

    /// The underlying closed-form evaluator calibrated with the SOT
    /// constants `(Δ, I_c0,SOT, τ_SOT)` — circuit elements reuse it to
    /// integrate switching progress against the *channel* current.
    pub fn switching_model(&self) -> &SwitchingModel {
        &self.inner
    }

    /// Heavy-metal channel resistance between the write terminals, ohms.
    pub fn channel_resistance(&self) -> f64 {
        self.channel_resistance
    }
}

/// Serializable mechanism selection for configs that flow through the
/// pipe cache (nvsim configs, MAGPIE inputs, CLI arguments).
///
/// Hashing is framed: the discriminant byte first, then — for SOT — the
/// channel parameters, so an STT config hashes exactly as the bare
/// discriminant and SOT configs can never collide with it.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum MechanismConfig {
    /// Two-terminal STT write (the historic default).
    #[default]
    Stt,
    /// Three-terminal SOT/SHE write with the given channel.
    Sot(SotParams),
}

impl mss_pipe::StableHash for MechanismConfig {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        match self {
            MechanismConfig::Stt => h.write_u8(0),
            MechanismConfig::Sot(p) => {
                h.write_u8(1);
                p.stable_hash(h);
            }
        }
    }
}

impl MechanismConfig {
    /// The kind tag of this config.
    #[cfg(test)]
    pub(crate) fn kind(&self) -> MechanismKind {
        match self {
            MechanismConfig::Stt => MechanismKind::Stt,
            MechanismConfig::Sot(_) => MechanismKind::Sot,
        }
    }

    /// True for the historic STT default (used to keep cache digests and
    /// golden outputs byte-identical when nothing was asked for).
    pub fn is_default(&self) -> bool {
        matches!(self, MechanismConfig::Stt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MssStack;

    fn stack() -> MssStack {
        MssStack::builder().build().unwrap()
    }

    fn sot() -> SotMechanism {
        SotMechanism::new(&stack(), SotParams::default()).unwrap()
    }

    fn sot_model() -> SwitchingModel {
        sot().switching_model().clone()
    }

    #[test]
    fn sot_removes_the_damping_limit() {
        // τ_SOT = α·τ_D: three orders of magnitude faster than STT's
        // precession bottleneck at α = 0.01.
        let s = stack();
        let stt = SwitchingModel::new(&s);
        let sot = sot_model();
        let t_stt = stt
            .mean_switching_time(2.0 * stt.critical_current())
            .unwrap();
        let t_sot = sot
            .mean_switching_time(2.0 * sot.critical_current())
            .unwrap();
        assert!(t_sot < 1e-9, "SOT write should be sub-ns: {t_sot:.3e}");
        assert!(t_sot < t_stt / 10.0, "stt {t_stt:.3e} vs sot {t_sot:.3e}");
    }

    #[test]
    fn sot_critical_current_has_no_damping_factor() {
        // Doubling α doubles the STT Ic0 but leaves the SOT Ic0 unchanged.
        let base = stack();
        let damped = MssStack::builder().damping(0.020).build().unwrap();
        let stt_ratio = damped.critical_current() / base.critical_current();
        assert!((stt_ratio - 2.0).abs() < 1e-9);
        let sot_a = SotMechanism::new(&base, SotParams::default()).unwrap();
        let sot_b = SotMechanism::new(&damped, SotParams::default()).unwrap();
        let sot_ratio =
            sot_b.switching_model().critical_current() / sot_a.switching_model().critical_current();
        assert!((sot_ratio - 1.0).abs() < 1e-9, "ratio = {sot_ratio}");
    }

    #[test]
    fn sot_channel_is_low_resistance() {
        let s = stack();
        let sot = sot();
        let r_ch = sot.channel_resistance();
        assert!(r_ch > 10.0 && r_ch < 2.0e3, "r_ch = {r_ch}");
        assert!(r_ch < s.resistance_parallel() / 2.0);
    }

    #[test]
    fn sot_wer_is_probability_and_monotone() {
        let sot = sot_model();
        let mut last = 1.0;
        for k in 1..30 {
            let wer = sot.write_error_rate(k as f64 * 0.05e-9, 2.0 * sot.critical_current());
            assert!((0.0..=1.0).contains(&wer));
            assert!(wer <= last + 1e-15);
            last = wer;
        }
    }

    #[test]
    fn sot_pulse_for_wer_round_trips() {
        let sot = sot_model();
        let i = 2.5 * sot.critical_current();
        for &wer in &[1e-3, 1e-9, 1e-18] {
            let t = sot.pulse_for_wer(wer, i).unwrap();
            assert!(t > 0.0 && t < 5e-9, "SOT pulses stay short: {t:.3e}");
            let back = sot.write_error_rate(t, i);
            assert!((back.ln() - wer.ln()).abs() < 1e-6);
        }
    }

    #[test]
    fn retention_is_mechanism_independent() {
        let s = stack();
        let stt = SwitchingModel::new(&s);
        let sot = SotMechanism::new(&s, SotParams::default()).unwrap();
        assert_eq!(
            stt.delta().to_bits(),
            sot.switching_model().delta().to_bits()
        );
    }

    #[test]
    fn params_validation_rejects_out_of_range() {
        let bad = SotParams {
            spin_hall_angle: 0.0,
            ..SotParams::default()
        };
        assert!(bad.validate().is_err());
        assert!(SotMechanism::new(&stack(), bad).is_err());
        let nan = SotParams {
            channel_resistivity: f64::NAN,
            ..SotParams::default()
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn config_default_is_stt() {
        let cfg = MechanismConfig::default();
        assert!(cfg.is_default());
        assert_eq!(cfg.kind(), MechanismKind::Stt);
    }

    #[test]
    fn config_digests_are_framed() {
        use mss_pipe::digest_of;
        let stt = digest_of(&MechanismConfig::Stt);
        let sot = digest_of(&MechanismConfig::Sot(SotParams::default()));
        assert_ne!(stt, sot);
        // Two different channels hash differently too.
        let other = digest_of(&MechanismConfig::Sot(SotParams {
            spin_hall_angle: 0.25,
            ..SotParams::default()
        }));
        assert_ne!(sot, other);
    }

    #[test]
    fn kind_tokens_round_trip() {
        for kind in [MechanismKind::Stt, MechanismKind::Sot] {
            assert_eq!(MechanismKind::parse(kind.token()), Some(kind));
        }
        assert_eq!(MechanismKind::parse("SHE"), Some(MechanismKind::Sot));
        assert_eq!(MechanismKind::parse("quantum"), None);
    }
}
