//! CMOS technology cards for the two nodes evaluated in the paper.
//!
//! Table 1 of the paper compares a 45 nm and a 65 nm node; these cards carry
//! every CMOS-side number the flow needs: supply, level-1 MOSFET model
//! parameters, parasitic capacitances, wire RC, leakage and cell-area
//! factors. Values are representative bulk-CMOS figures calibrated so the
//! memory-level results land in the paper's range (see `EXPERIMENTS.md`).

use mss_spice::mosfet::{MosModel, MosPolarity};

/// The two technology nodes of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechNode {
    /// 45 nm bulk CMOS.
    N45,
    /// 65 nm bulk CMOS.
    N65,
}

impl std::fmt::Display for TechNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TechNode::N45 => write!(f, "45 nm"),
            TechNode::N65 => write!(f, "65 nm"),
        }
    }
}

impl TechNode {
    /// Every supported node, in scaling order.
    pub const ALL: [TechNode; 2] = [TechNode::N45, TechNode::N65];
}

impl mss_pipe::StableHash for TechNode {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_u8(match self {
            TechNode::N45 => 0,
            TechNode::N65 => 1,
        });
    }
}

impl mss_pipe::StableHash for TechParams {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.node.stable_hash(h);
        h.write_f64(self.feature);
        h.write_f64(self.vdd);
        self.nmos.stable_hash(h);
        self.pmos.stable_hash(h);
        h.write_f64(self.min_width);
        h.write_f64(self.c_gate_per_width);
        h.write_f64(self.c_junction_per_width);
        h.write_f64(self.wire_res_per_len);
        h.write_f64(self.wire_cap_per_len);
        h.write_f64(self.leak_per_width);
        h.write_f64(self.fo4_delay);
        h.write_f64(self.inv_energy);
        h.write_f64(self.sram_cell_f2);
        h.write_f64(self.stt_cell_f2);
    }
}

/// A complete CMOS technology card.
#[derive(Debug, Clone, PartialEq)]
pub struct TechParams {
    /// Node identity.
    pub node: TechNode,
    /// Feature size F in metres.
    pub feature: f64,
    /// Nominal supply in volts.
    pub vdd: f64,
    /// NMOS model card.
    pub nmos: MosModel,
    /// PMOS model card.
    pub(crate) pmos: MosModel,
    /// Minimum transistor width in metres.
    pub min_width: f64,
    /// Gate capacitance per metre of width, F/m.
    pub(crate) c_gate_per_width: f64,
    /// Source/drain junction capacitance per metre of width, F/m.
    pub(crate) c_junction_per_width: f64,
    /// Wire resistance per metre, Ω/m.
    pub wire_res_per_len: f64,
    /// Wire capacitance per metre, F/m.
    pub wire_cap_per_len: f64,
    /// Subthreshold leakage per metre of transistor width, A/m.
    pub(crate) leak_per_width: f64,
    /// Fanout-4 inverter delay, seconds (logical-effort time unit).
    pub fo4_delay: f64,
    /// Dynamic energy of a minimum inverter switching, joules.
    pub inv_energy: f64,
    /// SRAM cell area in F² (6T reference).
    pub(crate) sram_cell_f2: f64,
    /// STT-MRAM 1T-1MTJ cell area in F².
    pub(crate) stt_cell_f2: f64,
}

impl TechParams {
    /// The card for a node.
    pub fn node(node: TechNode) -> Self {
        match node {
            TechNode::N45 => Self {
                node,
                feature: 45e-9,
                vdd: 1.0,
                nmos: MosModel {
                    polarity: MosPolarity::Nmos,
                    vth: 0.40,
                    kp: 280e-6,
                    lambda: 0.08,
                },
                pmos: MosModel {
                    polarity: MosPolarity::Pmos,
                    vth: 0.42,
                    kp: 140e-6,
                    lambda: 0.10,
                },
                min_width: 90e-9,
                c_gate_per_width: 1.0e-9,
                c_junction_per_width: 0.3e-9,
                wire_res_per_len: 3.0e6,
                wire_cap_per_len: 0.20e-9,
                leak_per_width: 0.10,
                fo4_delay: 15e-12,
                inv_energy: 0.10e-15,
                sram_cell_f2: 146.0,
                stt_cell_f2: 40.0,
            },
            TechNode::N65 => Self {
                node,
                feature: 65e-9,
                vdd: 1.1,
                nmos: MosModel {
                    polarity: MosPolarity::Nmos,
                    vth: 0.43,
                    kp: 230e-6,
                    lambda: 0.06,
                },
                pmos: MosModel {
                    polarity: MosPolarity::Pmos,
                    vth: 0.45,
                    kp: 115e-6,
                    lambda: 0.08,
                },
                min_width: 130e-9,
                c_gate_per_width: 1.1e-9,
                c_junction_per_width: 0.35e-9,
                wire_res_per_len: 2.0e6,
                wire_cap_per_len: 0.22e-9,
                leak_per_width: 0.05,
                fo4_delay: 22e-12,
                inv_energy: 0.18e-15,
                sram_cell_f2: 146.0,
                stt_cell_f2: 40.0,
            },
        }
    }

    /// Saturation drive current of an NMOS of width `w` at full gate drive,
    /// amperes (quick sizing estimate, channel-length modulation ignored).
    pub fn nmos_sat_current(&self, w: f64) -> f64 {
        let vov = self.vdd - self.nmos.vth;
        0.5 * self.nmos.kp * (w / self.gate_length()) * vov * vov
    }

    /// Drawn gate length used for logic/access devices (≈ F).
    pub(crate) fn gate_length(&self) -> f64 {
        self.feature
    }

    /// Gate capacitance of a device of width `w`, farads.
    pub fn gate_cap(&self, w: f64) -> f64 {
        self.c_gate_per_width * w
    }

    /// Junction (drain) capacitance of a device of width `w`, farads.
    pub fn junction_cap(&self, w: f64) -> f64 {
        self.c_junction_per_width * w
    }

    /// Leakage current of a device of width `w`, amperes.
    pub fn leakage(&self, w: f64) -> f64 {
        self.leak_per_width * w
    }

    /// STT-MRAM bit-cell area in m² for an access transistor of width `w`.
    ///
    /// The MTJ pillar sits above the access device, so the base
    /// `stt_cell_f2` footprint absorbs drives up to 8 F of width (folded
    /// fingers); wider access devices stretch the cell linearly.
    pub(crate) fn stt_cell_area(&self, w: f64) -> f64 {
        let f = self.feature;
        let width_f = (w / f).max(1.0);
        let area_f2 = if width_f <= 8.0 {
            self.stt_cell_f2
        } else {
            self.stt_cell_f2 * (width_f / 8.0)
        };
        area_f2 * f * f
    }

    /// SRAM (6T) bit-cell area in m².
    pub fn sram_cell_area(&self) -> f64 {
        self.sram_cell_f2 * self.feature * self.feature
    }

    /// SOT-MRAM three-terminal bit-cell area in m² for a write-access
    /// transistor of width `w`.
    ///
    /// The heavy-metal channel needs contacts at both ends and the read
    /// terminal its own via stack, so the base footprint carries a fixed
    /// ~1.5× routing overhead over the 1T-1MTJ cell before the access
    /// device starts to dominate.
    pub(crate) fn sot_cell_area(&self, w: f64) -> f64 {
        1.5 * self.stt_cell_area(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_scale_sensibly() {
        let n45 = TechParams::node(TechNode::N45);
        let n65 = TechParams::node(TechNode::N65);
        assert!(n45.feature < n65.feature);
        assert!(n45.vdd < n65.vdd);
        assert!(n45.fo4_delay < n65.fo4_delay);
        assert!(n45.leak_per_width > n65.leak_per_width); // scaling leaks more
        assert!(n45.sram_cell_area() < n65.sram_cell_area());
    }

    #[test]
    fn drive_current_is_realistic() {
        // A 1 um NMOS at 45 nm should drive a few hundred microamps.
        let t = TechParams::node(TechNode::N45);
        let i = t.nmos_sat_current(1e-6);
        assert!(i > 100e-6 && i < 3e-3, "i = {i}");
    }

    #[test]
    fn stt_cell_grows_with_access_width() {
        let t = TechParams::node(TechNode::N45);
        let narrow = t.stt_cell_area(2.0 * t.feature);
        let wide = t.stt_cell_area(16.0 * t.feature);
        assert!(wide > narrow);
        assert!((wide / narrow - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stt_cell_denser_than_sram() {
        for node in TechNode::ALL {
            let t = TechParams::node(node);
            assert!(t.stt_cell_area(4.0 * t.feature) < t.sram_cell_area());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(TechNode::N45.to_string(), "45 nm");
        assert_eq!(TechNode::N65.to_string(), "65 nm");
    }
}
