//! Process-variation cards for the CMOS and magnetic processes.
//!
//! Section III: *"STT-MRAM is also affected by manufacturing variations as
//! the technology scales down in the magnetic fabrication process as well as
//! the CMOS process"*, and Table 1 shows larger σ at the 45 nm node. The
//! cards here model exactly that: Gaussian parameter dispersion whose
//! magnitude grows as the node shrinks (Pelgrom mismatch scaling, σ ∝
//! 1/√(W·L) ∝ 1/F for fixed relative geometry).

use mss_mtj::{MssStack, MssStackBuilder, MtjError};
use mss_units::rng::{Rng, Variation, VariationKind};

use crate::tech::{TechNode, TechParams};

/// Absorbs a [`Variation`] into a stable hasher (a free helper because
/// `Variation` lives in `mss-units`, which sits below `mss-pipe`).
pub(crate) fn hash_variation(v: &Variation, h: &mut mss_pipe::StableHasher) {
    h.write_f64(v.sigma);
    h.write_u8(match v.kind {
        VariationKind::Relative => 0,
        VariationKind::Absolute => 1,
    });
}

impl mss_pipe::StableHash for CmosVariation {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        hash_variation(&self.vth, h);
        hash_variation(&self.kp, h);
        hash_variation(&self.length, h);
        hash_variation(&self.width, h);
    }
}

impl mss_pipe::StableHash for MtjVariation {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        hash_variation(&self.diameter, h);
        hash_variation(&self.thickness, h);
        hash_variation(&self.ra, h);
        hash_variation(&self.tmr, h);
        hash_variation(&self.anisotropy, h);
    }
}

impl mss_pipe::StableHash for VariationCard {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.cmos.stable_hash(h);
        self.mtj.stable_hash(h);
    }
}

/// Dispersion of the CMOS process parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CmosVariation {
    /// Threshold-voltage mismatch (absolute, volts).
    pub(crate) vth: Variation,
    /// Transconductance-factor dispersion (relative).
    pub(crate) kp: Variation,
    /// Effective-length dispersion (relative).
    pub(crate) length: Variation,
    /// Effective-width dispersion (relative).
    pub(crate) width: Variation,
}

/// Dispersion of the magnetic (MTJ) process parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtjVariation {
    /// Pillar-diameter dispersion (relative).
    pub(crate) diameter: Variation,
    /// Free-layer thickness dispersion (relative).
    pub(crate) thickness: Variation,
    /// RA-product dispersion (relative).
    pub(crate) ra: Variation,
    /// TMR dispersion (relative).
    pub tmr: Variation,
    /// Interfacial-anisotropy dispersion (relative).
    pub(crate) anisotropy: Variation,
}

/// Classic five process corners for corner-based (non-statistical) signoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessCorner {
    /// Typical-typical.
    Tt,
    /// Slow NMOS, slow PMOS.
    Ss,
    /// Fast NMOS, fast PMOS.
    Ff,
    /// Slow NMOS, fast PMOS.
    Sf,
    /// Fast NMOS, slow PMOS.
    Fs,
}

impl ProcessCorner {
    /// All five corners, TT first.
    pub(crate) const ALL: [ProcessCorner; 5] = [
        ProcessCorner::Tt,
        ProcessCorner::Ss,
        ProcessCorner::Ff,
        ProcessCorner::Sf,
        ProcessCorner::Fs,
    ];

    /// (nmos, pmos) speed signs: +1 fast, 0 typical, −1 slow.
    fn signs(self) -> (f64, f64) {
        match self {
            ProcessCorner::Tt => (0.0, 0.0),
            ProcessCorner::Ss => (-1.0, -1.0),
            ProcessCorner::Ff => (1.0, 1.0),
            ProcessCorner::Sf => (-1.0, 1.0),
            ProcessCorner::Fs => (1.0, -1.0),
        }
    }
}

impl std::fmt::Display for ProcessCorner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessCorner::Tt => write!(f, "TT"),
            ProcessCorner::Ss => write!(f, "SS"),
            ProcessCorner::Ff => write!(f, "FF"),
            ProcessCorner::Sf => write!(f, "SF"),
            ProcessCorner::Fs => write!(f, "FS"),
        }
    }
}

/// The complete variation card for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationCard {
    /// CMOS-side dispersion.
    pub(crate) cmos: CmosVariation,
    /// Magnetic-side dispersion.
    pub mtj: MtjVariation,
}

impl VariationCard {
    /// The calibrated card for a node. The 45 nm card has visibly larger
    /// dispersion than the 65 nm card, reproducing the paper's observation
    /// that "the effect of variations ... is more pronounced in the smaller
    /// technology node".
    pub fn node(node: TechNode) -> Self {
        match node {
            TechNode::N45 => Self {
                cmos: CmosVariation {
                    vth: Variation::absolute(0.035),
                    kp: Variation::relative(0.05),
                    length: Variation::relative(0.04),
                    width: Variation::relative(0.04),
                },
                mtj: MtjVariation {
                    diameter: Variation::relative(0.035),
                    thickness: Variation::relative(0.010),
                    ra: Variation::relative(0.05),
                    tmr: Variation::relative(0.05),
                    // Hk_eff is a difference of two large terms, so even a
                    // small Ki dispersion is strongly levered; calibrated to
                    // keep the Table-1 sigma in the paper's range.
                    anisotropy: Variation::relative(0.006),
                },
            },
            TechNode::N65 => Self {
                cmos: CmosVariation {
                    vth: Variation::absolute(0.025),
                    kp: Variation::relative(0.035),
                    length: Variation::relative(0.03),
                    width: Variation::relative(0.03),
                },
                mtj: MtjVariation {
                    diameter: Variation::relative(0.025),
                    thickness: Variation::relative(0.008),
                    ra: Variation::relative(0.04),
                    tmr: Variation::relative(0.04),
                    anisotropy: Variation::relative(0.004),
                },
            },
        }
    }

    /// Shifts a CMOS card to a ±3σ process corner (fast = lower V_th,
    /// higher k').
    pub(crate) fn corner_tech(&self, nominal: &TechParams, corner: ProcessCorner) -> TechParams {
        let (sn, sp) = corner.signs();
        let mut t = nominal.clone();
        t.nmos.vth = nominal.nmos.vth - sn * 3.0 * self.cmos.vth.std_dev_at(nominal.nmos.vth);
        t.pmos.vth = nominal.pmos.vth - sp * 3.0 * self.cmos.vth.std_dev_at(nominal.pmos.vth);
        t.nmos.kp = nominal.nmos.kp * (1.0 + sn * 3.0 * self.cmos.kp.sigma);
        t.pmos.kp = nominal.pmos.kp * (1.0 + sp * 3.0 * self.cmos.kp.sigma);
        t
    }

    /// Samples a perturbed CMOS card.
    pub fn sample_tech<R: Rng + ?Sized>(&self, rng: &mut R, nominal: &TechParams) -> TechParams {
        let mut t = nominal.clone();
        t.nmos.vth = self.cmos.vth.sample(rng, nominal.nmos.vth);
        t.pmos.vth = self.cmos.vth.sample(rng, nominal.pmos.vth);
        t.nmos.kp = self.cmos.kp.sample(rng, nominal.nmos.kp);
        t.pmos.kp = self.cmos.kp.sample(rng, nominal.pmos.kp);
        t
    }

    /// Samples a perturbed MTJ stack, every parameter drawn.
    ///
    /// # Errors
    ///
    /// Propagates geometry-validation failures from `mss-mtj` (only possible
    /// for pathological σ values, since sampling truncates at ±4σ).
    pub fn sample_stack<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        nominal: &MssStack,
    ) -> Result<MssStack, MtjError> {
        self.sample_stack_reading(rng, nominal, StackReads::ALL)
    }

    /// Samples a perturbed MTJ stack of which the caller reads only the
    /// `reads` parameters.
    ///
    /// Every parameter consumes its draws in the fixed order d, t, RA,
    /// TMR, K_i, so the stream after the call, and each read parameter's
    /// value, are bit-identical to [`sample_stack`](Self::sample_stack)'s.
    /// An unread parameter skips the transform
    /// ([`Variation::skip`]) and keeps its nominal value.
    ///
    /// # Errors
    ///
    /// As [`sample_stack`](Self::sample_stack). Validation sees the
    /// nominal value of every unread parameter, so only a pathological
    /// card can fail here where `sample_stack` would not, or the reverse.
    pub fn sample_stack_reading<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        nominal: &MssStack,
        reads: StackReads,
    ) -> Result<MssStack, MtjError> {
        let mut draw = |v: &Variation, field: StackReads, nom: f64| {
            if reads.contains(field) {
                v.sample(rng, nom)
            } else {
                v.skip(rng, nom);
                nom
            }
        };
        let m = &self.mtj;
        MssStackBuilder::from(nominal.clone())
            .diameter(draw(&m.diameter, StackReads::DIAMETER, nominal.diameter()))
            .free_layer_thickness(draw(
                &m.thickness,
                StackReads::THICKNESS,
                nominal.free_layer_thickness(),
            ))
            .resistance_area_product(draw(
                &m.ra,
                StackReads::RA,
                nominal.resistance_area_product(),
            ))
            .tmr_zero_bias(draw(&m.tmr, StackReads::TMR, nominal.tmr_zero_bias()))
            .interfacial_anisotropy(draw(
                &m.anisotropy,
                StackReads::ANISOTROPY,
                nominal.interfacial_anisotropy(),
            ))
            .build()
    }
}

/// The set of MTJ stack parameters a [`VariationCard::sample_stack_reading`]
/// caller reads; the rest stay nominal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StackReads(u8);

impl StackReads {
    /// Pillar diameter.
    pub(crate) const DIAMETER: Self = Self(1);
    /// Free-layer thickness.
    pub(crate) const THICKNESS: Self = Self(1 << 1);
    /// RA product.
    pub const RA: Self = Self(1 << 2);
    /// Zero-bias TMR.
    pub(crate) const TMR: Self = Self(1 << 3);
    /// Interfacial anisotropy K_i.
    pub(crate) const ANISOTROPY: Self = Self(1 << 4);
    /// Every parameter.
    pub(crate) const ALL: Self = Self(0b1_1111);
    /// What the switching closed forms read (Δ, I_c0, τ_D): d, t, K_i.
    pub const SWITCHING: Self = Self::DIAMETER
        .union(Self::THICKNESS)
        .union(Self::ANISOTROPY);
    /// What R_P and R_AP read: d, RA, TMR.
    pub const RESISTANCE: Self = Self::DIAMETER.union(Self::RA).union(Self::TMR);

    /// Both sets.
    pub const fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// True when every parameter of `other` is in `self`.
    pub(crate) const fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_units::rng::Xoshiro256PlusPlus;
    use mss_units::stats::OnlineStats;

    #[test]
    fn smaller_node_has_more_dispersion() {
        let v45 = VariationCard::node(TechNode::N45);
        let v65 = VariationCard::node(TechNode::N65);
        assert!(v45.cmos.vth.sigma > v65.cmos.vth.sigma);
        assert!(v45.mtj.diameter.sigma > v65.mtj.diameter.sigma);
        assert!(v45.mtj.anisotropy.sigma > v65.mtj.anisotropy.sigma);
    }

    #[test]
    fn sampled_stack_statistics_match_card() {
        let card = VariationCard::node(TechNode::N45);
        let nominal = MssStack::builder().build().unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let stats: OnlineStats = (0..3000)
            .map(|_| card.sample_stack(&mut rng, &nominal).unwrap().diameter())
            .collect();
        let rel_sigma = stats.sample_std_dev() / stats.mean();
        assert!(
            (rel_sigma - card.mtj.diameter.sigma).abs() < 0.005,
            "rel sigma = {rel_sigma}"
        );
        assert!((stats.mean() / nominal.diameter() - 1.0).abs() < 0.01);
    }

    #[test]
    fn sampled_stack_varies_derived_quantities() {
        let card = VariationCard::node(TechNode::N45);
        let nominal = MssStack::builder().build().unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let deltas: OnlineStats = (0..500)
            .map(|_| {
                card.sample_stack(&mut rng, &nominal)
                    .unwrap()
                    .thermal_stability()
            })
            .collect();
        // Δ inherits diameter and anisotropy dispersion.
        assert!(deltas.sample_std_dev() > 0.02 * deltas.mean());
    }

    #[test]
    fn sampled_tech_keeps_structure() {
        let card = VariationCard::node(TechNode::N65);
        let nominal = TechParams::node(TechNode::N65);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let t = card.sample_tech(&mut rng, &nominal);
        assert_eq!(t.node, nominal.node);
        assert_eq!(t.feature, nominal.feature);
        assert!(t.nmos.vth != nominal.nmos.vth);
    }

    #[test]
    fn corners_order_drive_strength() {
        let card = VariationCard::node(TechNode::N45);
        let nominal = TechParams::node(TechNode::N45);
        let drive = |t: &TechParams| t.nmos_sat_current(1e-6);
        let ss = drive(&card.corner_tech(&nominal, ProcessCorner::Ss));
        let tt = drive(&card.corner_tech(&nominal, ProcessCorner::Tt));
        let ff = drive(&card.corner_tech(&nominal, ProcessCorner::Ff));
        assert!(ss < tt && tt < ff, "ss {ss} tt {tt} ff {ff}");
        // TT is the nominal card.
        assert_eq!(card.corner_tech(&nominal, ProcessCorner::Tt), nominal);
        // Skew corners move the devices in opposite directions.
        let sf = card.corner_tech(&nominal, ProcessCorner::Sf);
        assert!(sf.nmos.vth > nominal.nmos.vth);
        assert!(sf.pmos.vth < nominal.pmos.vth);
    }

    #[test]
    fn corner_display_names() {
        assert_eq!(ProcessCorner::Tt.to_string(), "TT");
        assert_eq!(ProcessCorner::ALL.len(), 5);
    }

    #[test]
    fn reading_a_subset_keeps_the_stream_and_the_read_values() {
        let card = VariationCard::node(TechNode::N45);
        let nominal = MssStack::builder().build().unwrap();
        type Getter = fn(&MssStack) -> f64;
        let fields: [(StackReads, Getter); 5] = [
            (StackReads::DIAMETER, MssStack::diameter),
            (StackReads::THICKNESS, MssStack::free_layer_thickness),
            (StackReads::RA, MssStack::resistance_area_product),
            (StackReads::TMR, MssStack::tmr_zero_bias),
            (StackReads::ANISOTROPY, MssStack::interfacial_anisotropy),
        ];
        for mask in 0..32u8 {
            let reads = StackReads(mask);
            let mut full = Xoshiro256PlusPlus::seed_from_u64(u64::from(mask));
            let mut part = full.clone();
            for _ in 0..2000 {
                let a = card.sample_stack(&mut full, &nominal).unwrap();
                let b = card
                    .sample_stack_reading(&mut part, &nominal, reads)
                    .unwrap();
                for (field, get) in fields {
                    let want = if reads.contains(field) {
                        get(&a)
                    } else {
                        get(&nominal)
                    };
                    assert_eq!(get(&b).to_bits(), want.to_bits(), "mask {mask:#07b}");
                }
                assert_eq!(full, part, "mask {mask:#07b}");
            }
        }
        assert_eq!(StackReads::ALL, StackReads(0b1_1111));
        assert_eq!(StackReads::SWITCHING, StackReads(0b1_0011));
        assert_eq!(StackReads::RESISTANCE, StackReads(0b0_1101));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let card = VariationCard::node(TechNode::N45);
        let nominal = MssStack::builder().build().unwrap();
        let a = card
            .sample_stack(&mut Xoshiro256PlusPlus::seed_from_u64(9), &nominal)
            .unwrap();
        let b = card
            .sample_stack(&mut Xoshiro256PlusPlus::seed_from_u64(9), &nominal)
            .unwrap();
        assert_eq!(a, b);
    }
}
