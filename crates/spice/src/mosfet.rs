//! Level-1 (Shichman–Hodges) MOSFET model.
//!
//! Quadratic long-channel equations with channel-length modulation — the
//! right fidelity for relative delay/energy extraction of small MRAM
//! peripheral cells. Model cards come from `mss-pdk` technology nodes.

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// A level-1 MOSFET model card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosModel {
    /// Polarity.
    pub polarity: MosPolarity,
    /// Threshold voltage magnitude in volts (positive for both polarities).
    pub vth: f64,
    /// Transconductance parameter k' = µ·C_ox in A/V².
    pub kp: f64,
    /// Channel-length modulation λ in 1/V.
    pub lambda: f64,
}

impl mss_pipe::StableHash for MosPolarity {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_u8(match self {
            MosPolarity::Nmos => 0,
            MosPolarity::Pmos => 1,
        });
    }
}

impl mss_pipe::StableHash for MosModel {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.polarity.stable_hash(h);
        h.write_f64(self.vth);
        h.write_f64(self.kp);
        h.write_f64(self.lambda);
    }
}

impl MosModel {
    /// A generic NMOS card (used by tests; real cards come from the PDK).
    pub fn generic_nmos() -> Self {
        Self {
            polarity: MosPolarity::Nmos,
            vth: 0.4,
            kp: 200e-6,
            lambda: 0.05,
        }
    }

    /// A generic PMOS card.
    pub(crate) fn generic_pmos() -> Self {
        Self {
            polarity: MosPolarity::Pmos,
            vth: 0.4,
            kp: 100e-6,
            lambda: 0.05,
        }
    }
}

/// Geometry of one transistor instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosGeometry {
    /// Gate width in metres.
    pub width: f64,
    /// Gate length in metres.
    pub length: f64,
}

/// Operating-point evaluation: drain current and small-signal conductances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosOperatingPoint {
    /// Drain current (positive into the drain for NMOS conduction).
    pub(crate) id: f64,
    /// Transconductance ∂I_D/∂V_GS.
    pub(crate) gm: f64,
    /// Output conductance ∂I_D/∂V_DS.
    pub(crate) gds: f64,
}

/// Evaluates the level-1 equations at terminal voltages `vgs`, `vds`
/// (already polarity-normalised to NMOS convention by the caller for PMOS).
fn eval_nmos(beta: f64, vth: f64, lambda: f64, vgs: f64, vds: f64) -> MosOperatingPoint {
    let vov = vgs - vth;
    if vov <= 0.0 {
        // Cutoff: tiny leakage conductance keeps Newton well-posed.
        return MosOperatingPoint {
            id: 0.0,
            gm: 0.0,
            gds: 1e-12,
        };
    }
    if vds < vov {
        // Triode.
        let id = beta * (vov * vds - 0.5 * vds * vds) * (1.0 + lambda * vds);
        let gm = beta * vds * (1.0 + lambda * vds);
        let gds =
            beta * ((vov - vds) * (1.0 + lambda * vds) + lambda * (vov * vds - 0.5 * vds * vds));
        MosOperatingPoint {
            id,
            gm,
            gds: gds.max(1e-12),
        }
    } else {
        // Saturation.
        let id = 0.5 * beta * vov * vov * (1.0 + lambda * vds);
        let gm = beta * vov * (1.0 + lambda * vds);
        let gds = 0.5 * beta * vov * vov * lambda;
        MosOperatingPoint {
            id,
            gm,
            gds: gds.max(1e-12),
        }
    }
}

impl MosModel {
    /// Evaluates the drain current and derivatives at gate-source and
    /// drain-source voltages given in circuit polarity (PMOS voltages are
    /// negative in normal operation).
    ///
    /// The returned `id` is the current flowing **drain → source** through
    /// the channel in circuit polarity: positive for a conducting NMOS with
    /// `vds > 0`, negative for a conducting PMOS with `vds < 0`.
    pub(crate) fn evaluate(&self, geom: &MosGeometry, vgs: f64, vds: f64) -> MosOperatingPoint {
        let beta = self.kp * geom.width / geom.length;
        match self.polarity {
            MosPolarity::Nmos => {
                if vds >= 0.0 {
                    eval_nmos(beta, self.vth, self.lambda, vgs, vds)
                } else {
                    // Source and drain swap roles.
                    let op = eval_nmos(beta, self.vth, self.lambda, vgs - vds, -vds);
                    MosOperatingPoint {
                        id: -op.id,
                        gm: op.gm,
                        gds: op.gds + op.gm,
                    }
                }
            }
            MosPolarity::Pmos => {
                // Mirror into NMOS space: vgs' = -vgs, vds' = -vds.
                let inner = MosModel {
                    polarity: MosPolarity::Nmos,
                    ..*self
                };
                let op = inner.evaluate(geom, -vgs, -vds);
                MosOperatingPoint {
                    id: -op.id,
                    gm: op.gm,
                    gds: op.gds,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> MosGeometry {
        MosGeometry {
            width: 1e-6,
            length: 100e-9,
        }
    }

    #[test]
    fn cutoff_has_no_current() {
        let m = MosModel::generic_nmos();
        let op = m.evaluate(&geom(), 0.2, 1.0);
        assert_eq!(op.id, 0.0);
        assert!(op.gds > 0.0); // leakage conductance for Newton
    }

    #[test]
    fn saturation_current_is_quadratic_in_vov() {
        let m = MosModel {
            lambda: 0.0,
            ..MosModel::generic_nmos()
        };
        let i1 = m.evaluate(&geom(), 0.9, 1.2).id; // vov = 0.5
        let i2 = m.evaluate(&geom(), 1.4, 1.2).id; // vov = 1.0
        assert!((i2 / i1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn triode_to_saturation_is_continuous() {
        let m = MosModel::generic_nmos();
        let vov = 0.5;
        let below = m.evaluate(&geom(), m.vth + vov, vov - 1e-9).id;
        let above = m.evaluate(&geom(), m.vth + vov, vov + 1e-9).id;
        assert!((below - above).abs() < 1e-6 * above.abs().max(1e-12));
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = MosModel::generic_nmos();
        let p = MosModel {
            polarity: MosPolarity::Pmos,
            ..n
        };
        let opn = n.evaluate(&geom(), 1.0, 0.8);
        let opp = p.evaluate(&geom(), -1.0, -0.8);
        assert!((opn.id + opp.id).abs() < 1e-15);
        assert!((opn.gm - opp.gm).abs() < 1e-15);
    }

    #[test]
    fn reverse_vds_flips_current_sign() {
        let m = MosModel::generic_nmos();
        // Symmetric device: with gate well above both, forward/reverse match.
        let fwd = m.evaluate(&geom(), 1.2, 0.3).id;
        let rev = m.evaluate(&geom(), 1.2 - 0.3, -0.3).id; // same channel, swapped
        assert!(fwd > 0.0);
        assert!(rev < 0.0);
        assert!((fwd + rev).abs() < 1e-9 * fwd);
    }

    #[test]
    fn wider_device_conducts_more() {
        let m = MosModel::generic_nmos();
        let narrow = m.evaluate(&geom(), 1.0, 1.0).id;
        let wide = m
            .evaluate(
                &MosGeometry {
                    width: 2e-6,
                    length: 100e-9,
                },
                1.0,
                1.0,
            )
            .id;
        assert!((wide / narrow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gm_matches_finite_difference() {
        let m = MosModel::generic_nmos();
        let g = geom();
        let dv = 1e-6;
        for (vgs, vds) in [(0.8, 1.0), (1.2, 0.2), (0.9, 0.5)] {
            let op = m.evaluate(&g, vgs, vds);
            let fd =
                (m.evaluate(&g, vgs + dv, vds).id - m.evaluate(&g, vgs - dv, vds).id) / (2.0 * dv);
            assert!(
                (op.gm - fd).abs() < 1e-4 * fd.abs().max(1e-9),
                "gm {} vs fd {} at ({vgs},{vds})",
                op.gm,
                fd
            );
        }
    }

    #[test]
    fn gds_matches_finite_difference() {
        let m = MosModel::generic_nmos();
        let g = geom();
        let dv = 1e-6;
        for (vgs, vds) in [(0.8, 1.0), (1.2, 0.2)] {
            let op = m.evaluate(&g, vgs, vds);
            let fd =
                (m.evaluate(&g, vgs, vds + dv).id - m.evaluate(&g, vgs, vds - dv).id) / (2.0 * dv);
            assert!(
                (op.gds - fd).abs() < 1e-3 * fd.abs().max(1e-9),
                "gds {} vs fd {}",
                op.gds,
                fd
            );
        }
    }
}
