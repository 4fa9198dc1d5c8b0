//! SRAM (6T) cell model derived from a CMOS technology card.
//!
//! The MAGPIE comparison needs SRAM arrays as the reference technology
//! (the paper's Full-SRAM scenario), so the estimator models 6T cells from
//! the same CMOS card the STT-MRAM periphery uses.

use mss_pdk::tech::TechParams;

/// Cell-level parameters of a 6T SRAM bit cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramCell {
    /// Cell area in m².
    pub(crate) area: f64,
    /// Cell read current (bit-line discharge), amperes.
    pub(crate) read_current: f64,
    /// Time for the cell to develop a sense-able bit-line differential,
    /// seconds (excluding bit-line RC, which the array model adds).
    pub(crate) access_time: f64,
    /// Time to overpower the cell feedback during a write, seconds.
    pub(crate) write_time: f64,
    /// Energy dissipated inside the cell per access, joules.
    pub(crate) access_energy: f64,
    /// Static leakage per cell, amperes.
    pub leakage: f64,
}

impl SramCell {
    /// Derives the 6T cell from a technology card.
    pub fn from_tech(tech: &TechParams) -> Self {
        let w_access = 1.5 * tech.min_width;
        // Discharge current of the access+driver stack at full swing.
        let read_current = 0.7 * tech.nmos_sat_current(w_access);
        // ~100 mV of differential on the local bit-line capacitance.
        let c_bl_local = 4.0 * tech.junction_cap(w_access);
        let access_time = (c_bl_local * 0.1) / read_current + tech.fo4_delay;
        let write_time = 2.0 * tech.fo4_delay;
        let access_energy = c_bl_local * tech.vdd * tech.vdd + 2.0 * tech.inv_energy;
        // Two effective leakage paths per 6T cell at off-state
        // (leak_per_width is the off-state figure of the technology card).
        let leakage = 2.0 * tech.leakage(tech.min_width);
        Self {
            area: tech.sram_cell_area(),
            read_current,
            access_time,
            write_time,
            access_energy,
            leakage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_pdk::tech::TechNode;

    #[test]
    fn sram_cell_is_fast_and_leaky() {
        let t = TechParams::node(TechNode::N45);
        let c = SramCell::from_tech(&t);
        // Sub-nanosecond intrinsic access.
        assert!(c.access_time < 0.5e-9, "access = {}", c.access_time);
        assert!(c.write_time < 0.5e-9);
        // Non-zero static leakage (the STT cell's is ~0).
        assert!(c.leakage > 0.0);
        assert!(c.access_energy > 0.0);
    }

    #[test]
    fn leakage_is_worse_at_smaller_node() {
        let c45 = SramCell::from_tech(&TechParams::node(TechNode::N45));
        let c65 = SramCell::from_tech(&TechParams::node(TechNode::N65));
        assert!(c45.leakage > c65.leakage * 0.9);
    }

    #[test]
    fn area_tracks_feature_size() {
        let c45 = SramCell::from_tech(&TechParams::node(TechNode::N45));
        let c65 = SramCell::from_tech(&TechParams::node(TechNode::N65));
        assert!(c45.area < c65.area);
    }
}
