//! The four evaluation scenarios of the paper's Fig. 11/12.
//!
//! *"big.LITTLE architecture where all cache memories are in SRAM (our
//! reference scenario, referred to as Full-SRAM); similar architecture but
//! the L2 cache of the LITTLE cluster is now in STT-MRAM
//! (LITTLE-L2-STT-MRAM), similar architecture but the L2 of the big cluster
//! is in STT-MRAM (big-L2-STT-MRAM), and similar architecture where L2
//! caches of both clusters are in STT-MRAM (Full-L2-STT-MRAM)."*
//!
//! Replacement sizing: the LITTLE cluster is area-constrained, so its
//! STT-MRAM L2 is sized **iso-area** (the ~4× density of the 1T-1MTJ cell
//! over 6T SRAM buys a 4× larger L2 — this is what lets the paper report up
//! to 50 % faster execution on the LITTLE cluster). The big cluster's 2 MiB
//! L2 is already capacity-generous, so its replacement is **iso-capacity**
//! (the area/energy saving is taken instead), which exposes the STT write
//! latency — the paper's observed slowdown.
//!
//! On top of the paper's grid, each STT replacement has a **SOT twin**
//! ([`Scenario::SOT`]) backed by the three-terminal SOT/SHE cell: same
//! replacement shape, but the write goes through the heavy-metal channel
//! (no damping limit, so far lower write latency/energy) at the cost of a
//! cell that lands back at roughly the 6T SRAM footprint — the iso-area
//! LITTLE replacement is capacity-neutral instead of 4×. The SOT variants
//! never appear in [`Scenario::ALL`], so every historic digest and golden
//! stays stable.

/// The memory technology backing one L2 macro in a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheTech {
    /// 6T SRAM.
    Sram,
    /// Two-terminal 1T-1MTJ STT-MRAM.
    Stt,
    /// Three-terminal SOT/SHE-MRAM (separate read and write paths).
    Sot,
}

/// Which caches are replaced with MRAM, and with which switching mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Reference: every cache is SRAM.
    FullSram,
    /// Only the LITTLE cluster's L2 is STT-MRAM (iso-area, 4× capacity).
    LittleL2Stt,
    /// Only the big cluster's L2 is STT-MRAM (iso-capacity).
    BigL2Stt,
    /// Both L2s are STT-MRAM.
    FullL2Stt,
    /// Only the LITTLE cluster's L2 is SOT-MRAM (iso-area; the
    /// three-terminal cell sits at ~the SRAM footprint, so the replacement
    /// is capacity-neutral — the win is write speed, not capacity).
    LittleL2Sot,
    /// Only the big cluster's L2 is SOT-MRAM (iso-capacity).
    BigL2Sot,
    /// Both L2s are SOT-MRAM.
    FullL2Sot,
}

impl Scenario {
    /// The paper's four scenarios, reference first. Deliberately does NOT
    /// include the SOT variants, so every historic grid, figure and cache
    /// digest built from `ALL` is untouched by the mechanism refactor.
    pub const ALL: [Scenario; 4] = [
        Scenario::FullSram,
        Scenario::LittleL2Stt,
        Scenario::BigL2Stt,
        Scenario::FullL2Stt,
    ];

    /// The three SOT replacement scenarios, mirroring the STT triple.
    pub const SOT: [Scenario; 3] = [
        Scenario::LittleL2Sot,
        Scenario::BigL2Sot,
        Scenario::FullL2Sot,
    ];

    /// The full STT-vs-SOT comparison grid: the paper's four scenarios
    /// followed by the three SOT twins.
    pub const ALL_WITH_SOT: [Scenario; 7] = [
        Scenario::FullSram,
        Scenario::LittleL2Stt,
        Scenario::BigL2Stt,
        Scenario::FullL2Stt,
        Scenario::LittleL2Sot,
        Scenario::BigL2Sot,
        Scenario::FullL2Sot,
    ];

    /// True when the big cluster's L2 is STT-MRAM.
    #[cfg(test)]
    fn big_l2_is_stt(self) -> bool {
        matches!(self, Scenario::BigL2Stt | Scenario::FullL2Stt)
    }

    /// True when the LITTLE cluster's L2 is STT-MRAM.
    #[cfg(test)]
    fn little_l2_is_stt(self) -> bool {
        matches!(self, Scenario::LittleL2Stt | Scenario::FullL2Stt)
    }

    /// The technology backing the big cluster's L2.
    pub fn big_l2_tech(self) -> CacheTech {
        match self {
            Scenario::BigL2Stt | Scenario::FullL2Stt => CacheTech::Stt,
            Scenario::BigL2Sot | Scenario::FullL2Sot => CacheTech::Sot,
            _ => CacheTech::Sram,
        }
    }

    /// The technology backing the LITTLE cluster's L2.
    pub fn little_l2_tech(self) -> CacheTech {
        match self {
            Scenario::LittleL2Stt | Scenario::FullL2Stt => CacheTech::Stt,
            Scenario::LittleL2Sot | Scenario::FullL2Sot => CacheTech::Sot,
            _ => CacheTech::Sram,
        }
    }

    /// True when any cache in this scenario is SOT-MRAM (the flow only
    /// characterises the three-terminal cell when this is set somewhere in
    /// its grid).
    pub fn uses_sot(self) -> bool {
        self.big_l2_tech() == CacheTech::Sot || self.little_l2_tech() == CacheTech::Sot
    }

    /// The SOT twin of an STT scenario (`None` for the reference and for
    /// scenarios that are already SOT) — the pairing the STT-vs-SOT
    /// comparison figures walk.
    pub fn sot_counterpart(self) -> Option<Scenario> {
        match self {
            Scenario::LittleL2Stt => Some(Scenario::LittleL2Sot),
            Scenario::BigL2Stt => Some(Scenario::BigL2Sot),
            Scenario::FullL2Stt => Some(Scenario::FullL2Sot),
            _ => None,
        }
    }
}

impl mss_pipe::StableHash for Scenario {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_u8(match self {
            Scenario::FullSram => 0,
            Scenario::LittleL2Stt => 1,
            Scenario::BigL2Stt => 2,
            Scenario::FullL2Stt => 3,
            Scenario::LittleL2Sot => 4,
            Scenario::BigL2Sot => 5,
            Scenario::FullL2Sot => 6,
        });
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scenario::FullSram => write!(f, "Full-SRAM"),
            Scenario::LittleL2Stt => write!(f, "LITTLE-L2-STT-MRAM"),
            Scenario::BigL2Stt => write!(f, "big-L2-STT-MRAM"),
            Scenario::FullL2Stt => write!(f, "Full-L2-STT-MRAM"),
            Scenario::LittleL2Sot => write!(f, "LITTLE-L2-SOT-MRAM"),
            Scenario::BigL2Sot => write!(f, "big-L2-SOT-MRAM"),
            Scenario::FullL2Sot => write!(f, "Full-L2-SOT-MRAM"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_match_scenarios() {
        assert!(!Scenario::FullSram.big_l2_is_stt());
        assert!(!Scenario::FullSram.little_l2_is_stt());
        assert!(Scenario::LittleL2Stt.little_l2_is_stt());
        assert!(!Scenario::LittleL2Stt.big_l2_is_stt());
        assert!(Scenario::BigL2Stt.big_l2_is_stt());
        assert!(Scenario::FullL2Stt.big_l2_is_stt() && Scenario::FullL2Stt.little_l2_is_stt());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(Scenario::FullSram.to_string(), "Full-SRAM");
        assert_eq!(Scenario::LittleL2Stt.to_string(), "LITTLE-L2-STT-MRAM");
        assert_eq!(Scenario::BigL2Sot.to_string(), "big-L2-SOT-MRAM");
    }

    #[test]
    fn sot_scenarios_mirror_the_stt_triple() {
        // The historic grid is untouched by the SOT extension.
        assert_eq!(Scenario::ALL.len(), 4);
        assert!(Scenario::ALL.iter().all(|s| !s.uses_sot()));
        assert_eq!(Scenario::ALL_WITH_SOT[..4], Scenario::ALL);
        assert_eq!(Scenario::ALL_WITH_SOT[4..], Scenario::SOT);
        for s in Scenario::SOT {
            assert!(s.uses_sot());
            assert!(!s.big_l2_is_stt() && !s.little_l2_is_stt());
        }
        // Each STT replacement has exactly one SOT twin with the same
        // replacement shape.
        for stt in [
            Scenario::LittleL2Stt,
            Scenario::BigL2Stt,
            Scenario::FullL2Stt,
        ] {
            let sot = stt.sot_counterpart().unwrap();
            assert_eq!(
                stt.big_l2_tech() == CacheTech::Stt,
                sot.big_l2_tech() == CacheTech::Sot
            );
            assert_eq!(
                stt.little_l2_tech() == CacheTech::Stt,
                sot.little_l2_tech() == CacheTech::Sot
            );
        }
        assert_eq!(Scenario::FullSram.sot_counterpart(), None);
        assert_eq!(Scenario::FullL2Sot.sot_counterpart(), None);
    }
}
