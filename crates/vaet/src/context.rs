//! The analysis context: everything the variation-aware passes need,
//! assembled once from the nominal flow.

use mss_mtj::switching::SwitchingModel;
use mss_mtj::{MechanismConfig, MssStack, SotMechanism, SotParams};
use mss_nvsim::config::MemoryConfig;
use mss_nvsim::model::{estimate_cached, ArrayMetrics, MemoryTechnology};
use mss_pdk::charlib::{characterize_cached, characterize_sot_cached, CellLibrary, SotCellLibrary};
use mss_pdk::tech::{TechNode, TechParams};
use mss_pdk::variation::{StackReads, VariationCard};

use crate::VaetError;

/// Sense-amplifier input-referred offset (1σ), volts. A standard PCSA
/// figure; read-margin analyses divide the sense signal by this.
pub(crate) const SENSE_OFFSET_SIGMA: f64 = 0.02;

/// Bundled nominal flow + variation card.
#[derive(Debug, Clone, PartialEq)]
pub struct VaetContext {
    /// CMOS technology card.
    pub tech: TechParams,
    /// Nominal MTJ stack.
    pub stack: MssStack,
    /// Characterised cell library (the cell configuration file).
    pub cell: CellLibrary,
    /// Array organisation under analysis.
    pub config: MemoryConfig,
    /// Nominal (variation-unaware) NVSim estimate.
    pub nominal: ArrayMetrics,
    /// Process-variation card for the node.
    pub variation: VariationCard,
    /// The switching mechanism the cell library was characterised for.
    pub mechanism: MechanismConfig,
}

impl mss_pipe::StableHash for VaetContext {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.tech.stable_hash(h);
        self.stack.stable_hash(h);
        self.cell.stable_hash(h);
        self.config.stable_hash(h);
        self.nominal.stable_hash(h);
        self.variation.stable_hash(h);
        // Only fold the mechanism in when it deviates from the default so
        // every pre-existing STT digest (and pipe-cache key) is preserved.
        if !self.mechanism.is_default() {
            self.mechanism.stable_hash(h);
        }
    }
}

impl VaetContext {
    /// The paper's standard configuration: a 1024×1024 array accessed as
    /// full 1024-bit words ("memory array of 1024x1024"), default stack.
    ///
    /// # Errors
    ///
    /// Propagates characterisation and estimation failures.
    pub fn standard(node: TechNode) -> Result<Self, VaetError> {
        let stack = MssStack::builder().build().map_err(VaetError::Device)?;
        let config = MemoryConfig::new(
            1024 * 1024 / 8,
            1024,
            1,
            1024,
            1024,
            mss_nvsim::config::MemoryKind::Ram,
        )?;
        Self::build(node, stack, config)
    }

    /// Builds a context for an arbitrary stack and array organisation.
    ///
    /// # Errors
    ///
    /// Propagates characterisation and estimation failures.
    pub(crate) fn build(
        node: TechNode,
        stack: MssStack,
        config: MemoryConfig,
    ) -> Result<Self, VaetError> {
        // Both upstream artifacts come through the stage pipeline, so
        // building many contexts over the same node/stack (exploration,
        // scenario sweeps) characterises and estimates each input once.
        let cache = mss_pipe::global();
        let tech = TechParams::node(node);
        let cell = (*characterize_cached(node, &stack, &cache)?).clone();
        let nominal = (*estimate_cached(
            &tech,
            &config,
            &MemoryTechnology::SttMram(cell.clone()),
            &cache,
        )?)
        .clone();
        let variation = VariationCard::node(node);
        Ok(Self {
            tech,
            stack,
            cell,
            config,
            nominal,
            variation,
            mechanism: MechanismConfig::Stt,
        })
    }

    /// Builds a context around the three-terminal SOT cell: the library
    /// comes from the SOT characterisation flow and the nominal estimate
    /// from the SOT-MRAM array model, so every downstream margin/MC pass
    /// sees the channel-write numbers.
    ///
    /// # Errors
    ///
    /// Propagates characterisation and estimation failures.
    pub fn build_sot(
        node: TechNode,
        stack: MssStack,
        config: MemoryConfig,
        params: SotParams,
    ) -> Result<Self, VaetError> {
        let cache = mss_pipe::global();
        let tech = TechParams::node(node);
        let sot = characterize_sot_cached(node, &stack, &params, &cache)?;
        let nominal = (*estimate_cached(
            &tech,
            &config,
            &MemoryTechnology::SotMram((*sot).clone()),
            &cache,
        )?)
        .clone();
        let variation = VariationCard::node(node);
        Ok(Self {
            tech,
            stack,
            cell: sot.base.clone(),
            config,
            nominal,
            variation,
            mechanism: MechanismConfig::Sot(params),
        })
    }

    /// The array cell technology matching this context's mechanism.
    fn technology(&self) -> MemoryTechnology {
        match &self.mechanism {
            MechanismConfig::Stt => MemoryTechnology::SttMram(self.cell.clone()),
            MechanismConfig::Sot(p) => MemoryTechnology::SotMram(SotCellLibrary {
                base: self.cell.clone(),
                params: p.clone(),
                channel_resistance: p.channel_resistance(self.stack.diameter()),
            }),
        }
    }

    /// Re-targets the context at a different array organisation, reusing
    /// the (expensive) characterised cell library.
    ///
    /// # Errors
    ///
    /// Propagates array-estimation failures.
    pub(crate) fn with_config(&self, config: MemoryConfig) -> Result<Self, VaetError> {
        let nominal =
            (*estimate_cached(&self.tech, &config, &self.technology(), &mss_pipe::global())?)
                .clone();
        Ok(Self {
            config,
            nominal,
            ..self.clone()
        })
    }

    /// The per-corner switching model for a (possibly variation-sampled)
    /// stack under this context's mechanism: the plain STT closed forms, or
    /// the SHE-current model with the damping-free critical current.
    ///
    /// # Errors
    ///
    /// Propagates invalid sampled-device parameters.
    pub fn corner_switching_model(&self, stack: &MssStack) -> Result<SwitchingModel, VaetError> {
        match &self.mechanism {
            MechanismConfig::Stt => Ok(SwitchingModel::new(stack)),
            MechanismConfig::Sot(p) => Ok(SotMechanism::new(stack, p.clone())
                .map_err(VaetError::Device)?
                .switching_model()
                .clone()),
        }
    }

    /// The stack parameters a write reads under this context's mechanism:
    /// the switching set ([`corner_switching_model`](Self::corner_switching_model))
    /// plus, for STT, the RA product behind the junction's write-path
    /// resistance ([`write_resistance_ratio`](Self::write_resistance_ratio)).
    /// The SOT write path is the channel, which depends on the diameter only.
    pub(crate) fn write_stack_reads(&self) -> StackReads {
        match &self.mechanism {
            MechanismConfig::Stt => StackReads::SWITCHING.union(StackReads::RA),
            MechanismConfig::Sot(_) => StackReads::SWITCHING,
        }
    }

    /// Relative write-path resistance of a sampled device against the
    /// nominal cell: junction R_P for STT, the heavy-metal channel for SOT
    /// (the SOT write current never crosses the barrier).
    pub(crate) fn write_resistance_ratio(&self, stack: &MssStack) -> f64 {
        match &self.mechanism {
            MechanismConfig::Stt => stack.resistance_parallel() / self.cell.r_parallel,
            MechanismConfig::Sot(p) => {
                p.channel_resistance(stack.diameter()) / p.channel_resistance(self.stack.diameter())
            }
        }
    }

    /// The peripheral (non-cell) share of the nominal write latency.
    pub(crate) fn write_periphery_latency(&self) -> f64 {
        self.nominal.write_latency - self.nominal.write_breakdown.cell
    }

    /// The peripheral (non-cell) share of the nominal read latency.
    pub(crate) fn read_periphery_latency(&self) -> f64 {
        self.nominal.read_latency - self.nominal.read_breakdown.cell
    }

    /// Nominal sense signal at the amplifier input, volts.
    ///
    /// For a PCSA the discriminating quantity is the discharge-rate
    /// imbalance between the cell and reference branches, input-referred as
    /// `V_dd·ΔR/(R_P+R_AP)` and clamped to half the supply.
    pub(crate) fn sense_signal(&self) -> f64 {
        let window = self.cell.r_antiparallel - self.cell.r_parallel;
        let mut denom = self.cell.r_antiparallel + self.cell.r_parallel;
        // The SOT read returns through the heavy-metal channel, which sits
        // in series on both branches and dilutes the window slightly.
        if let MechanismConfig::Sot(p) = &self.mechanism {
            denom += 2.0 * p.channel_resistance(self.stack.diameter());
        }
        (self.tech.vdd * window / denom).min(self.tech.vdd / 2.0)
    }

    /// Sustained read-bias current used for read-disturb analysis, amperes.
    ///
    /// The PCSA's charge-averaged current underestimates disturb exposure
    /// (current stops after the latch resolves); disturb analyses follow the
    /// usual design point of a sustained bias at 30 % of I_c0.
    pub(crate) fn read_disturb_current(&self) -> f64 {
        match &self.mechanism {
            MechanismConfig::Stt => 0.3 * self.cell.critical_current,
            // The SOT library's `critical_current` is the channel (SHE)
            // threshold, but read disturb comes from the *barrier* current
            // exerting ordinary STT torque — measure against that.
            MechanismConfig::Sot(_) => 0.3 * self.stack.critical_current(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_context_is_consistent() {
        let ctx = VaetContext::standard(TechNode::N45).unwrap();
        assert_eq!(ctx.config.word_bits, 1024);
        assert_eq!(ctx.config.total_bits(), 1024 * 1024);
        assert!(ctx.write_periphery_latency() > 0.0);
        assert!(ctx.read_periphery_latency() > 0.0);
        assert!(ctx.write_periphery_latency() < ctx.nominal.write_latency);
        let sig = ctx.sense_signal();
        assert!(sig > 0.0 && sig <= ctx.tech.vdd / 2.0);
        // The sense signal must beat the offset by a usable factor.
        assert!(sig > 3.0 * SENSE_OFFSET_SIGMA, "signal = {sig}");
    }

    #[test]
    fn sot_context_builds_with_channel_write_numbers() {
        let stack = MssStack::builder().build().unwrap();
        let config = MemoryConfig::new(
            1024 * 1024 / 8,
            1024,
            1,
            1024,
            1024,
            mss_nvsim::config::MemoryKind::Ram,
        )
        .unwrap();
        let stt = VaetContext::standard(TechNode::N45).unwrap();
        let sot =
            VaetContext::build_sot(TechNode::N45, stack, config, SotParams::default()).unwrap();
        assert!(!sot.mechanism.is_default());
        // Channel write: faster nominal array write than the STT context.
        assert!(sot.nominal.write_latency < stt.nominal.write_latency);
        // The series channel dilutes (but must not destroy) the window.
        assert!(sot.sense_signal() < stt.sense_signal());
        assert!(sot.sense_signal() > 3.0 * SENSE_OFFSET_SIGMA);
        // Disturb threshold is the junction's STT one, not the channel's.
        assert!(sot.read_disturb_current() < 0.3 * sot.cell.critical_current);
        // The mechanism is folded into the digest only when non-default.
        assert_ne!(mss_pipe::digest_of(&stt), mss_pipe::digest_of(&sot));
    }

    #[test]
    fn sot_corner_model_removes_the_damping_limit() {
        let stack = MssStack::builder().build().unwrap();
        let config = MemoryConfig::new(
            1024 * 1024 / 8,
            1024,
            1,
            1024,
            1024,
            mss_nvsim::config::MemoryKind::Ram,
        )
        .unwrap();
        let stt = VaetContext::standard(TechNode::N45).unwrap();
        let sot =
            VaetContext::build_sot(TechNode::N45, stack.clone(), config, SotParams::default())
                .unwrap();
        let stt_model = stt.corner_switching_model(&stack).unwrap();
        let sot_model = sot.corner_switching_model(&stack).unwrap();
        // Same thermal stability, but the SOT time constant drops by ~alpha.
        assert!((stt_model.delta() - sot_model.delta()).abs() < 1e-9);
        let t_stt = stt_model
            .mean_switching_time(2.0 * stt_model.critical_current())
            .unwrap();
        let t_sot = sot_model
            .mean_switching_time(2.0 * sot_model.critical_current())
            .unwrap();
        assert!(t_sot < 0.1 * t_stt, "sot {t_sot:.3e} vs stt {t_stt:.3e}");
        // STT write-path resistance ratio is the junction ratio, unchanged.
        assert!((stt.write_resistance_ratio(&stack) - 1.0).abs() < 1e-12);
        assert!((sot.write_resistance_ratio(&stack) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn both_nodes_build() {
        for node in TechNode::ALL {
            let ctx = VaetContext::standard(node).unwrap();
            assert!(ctx.nominal.write_latency > ctx.nominal.read_latency);
        }
    }
}
