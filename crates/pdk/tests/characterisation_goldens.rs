//! Golden outputs of the circuit-level characterisation flow.
//!
//! The STT and SOT cells run through one characterisation body keyed on
//! the switching mechanism. These pins fix what that body produces, bit
//! for bit: the full `Artifact::encode` text of the reference cell at
//! 45 nm for both mechanisms (readable on failure), and one digest over a
//! grid of design points — both nodes × the MTJ diameter sweep × STT, SOT
//! and the five process corners — plus the NVFF metrics at both nodes.
//!
//! The literals were captured before the STT and SOT bodies were merged.
//! A failure here means a characterised cell changed: every downstream
//! array estimate, Monte Carlo table and figure moves with it.

use mss_mtj::{MssStack, SotParams};
use mss_pdk::charlib::{
    characterize_corners, characterize_nvff, characterize_sot_with, characterize_with,
};
use mss_pdk::tech::{TechNode, TechParams};
use mss_pipe::{digest_of, Artifact};

/// The pillar diameters (nm) of the cell-sweep design grid.
const DIAMETERS_NM: [f64; 9] = [30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0];

fn reference_stack() -> MssStack {
    MssStack::builder().build().expect("reference stack")
}

#[test]
fn stt_reference_cell_encoding_is_pinned() {
    let lib = characterize_with(&TechParams::node(TechNode::N45), &reference_stack()).unwrap();
    assert_eq!(lib.encode(), STT_N45);
}

#[test]
fn sot_reference_cell_encoding_is_pinned() {
    let lib = characterize_sot_with(
        &TechParams::node(TechNode::N45),
        &reference_stack(),
        &SotParams::default(),
    )
    .unwrap();
    assert_eq!(lib.encode(), SOT_N45);
}

/// Every characterised output of the grid, one per line, in a fixed order.
fn grid_text() -> String {
    let params = SotParams::default();
    let mut out = String::new();
    for node in TechNode::ALL {
        let tech = TechParams::node(node);
        for d in DIAMETERS_NM {
            let stack = MssStack::builder().diameter(d * 1e-9).build().unwrap();
            out.push_str(&characterize_with(&tech, &stack).unwrap().encode());
            out.push('\n');
            out.push_str(
                &characterize_sot_with(&tech, &stack, &params)
                    .unwrap()
                    .encode(),
            );
            out.push('\n');
            for (corner, lib) in characterize_corners(node, &stack).unwrap() {
                out.push_str(&format!("{corner:?} {}\n", lib.encode()));
            }
        }
        let nvff = characterize_nvff(&tech, &reference_stack()).unwrap();
        out.push_str(&format!("{nvff:?}\n"));
    }
    out
}

#[test]
fn characterisation_grid_digest_is_pinned() {
    assert_eq!(digest_of(&grid_text()), GRID_DIGEST);
}

const STT_N45: &str = "{\"node\":45,\"write_latency\":\"3e340938c42fdae4\",\"write_energy\":\"3d4fca97f0575594\",\"write_current\":\"3f097891ee1b66a7\",\"read_latency\":\"3dc4712e1936d4e0\",\"read_energy\":\"3cc281b013c560f8\",\"read_current\":\"3ea65c4e794cb34d\",\"access_width\":\"3e92ccb44e25d2ce\",\"cell_area\":\"3d36ccaa451cc8f3\",\"leakage\":\"3d88a41b98f975f5\",\"critical_current\":\"3ef3f28494b35cc2\",\"delta\":\"4046ac448b000a25\",\"r_parallel\":\"40af15bf45860594\",\"r_antiparallel\":\"40c36d978b73c37c\"}";

const SOT_N45: &str = "{\"node\":45,\"write_latency\":\"3de2e5d9e5c45270\",\"write_energy\":\"3d2a351f952ed4ab\",\"write_current\":\"3f36c2d0fd590814\",\"read_latency\":\"3dc63fe486f44c20\",\"read_energy\":\"3cc3443a9cee0d27\",\"read_current\":\"3ea65c4c72c105d1\",\"access_width\":\"3eaf13aa00efea0a\",\"cell_area\":\"3d55feee0fe682e5\",\"leakage\":\"3da45dd2f24736d5\",\"critical_current\":\"3f2c928c4f30a52e\",\"delta\":\"4046ac448b000a25\",\"r_parallel\":\"40af15bf45860594\",\"r_antiparallel\":\"40c36d978b73c37c\"}\n\
     {\"spin_hall_angle\":\"3fd3333333333333\",\"channel_thickness\":\"3e29c511dc3a41df\",\"channel_resistivity\":\"3ec0c6f7a0b5ed8d\",\"channel_length_factor\":\"3ff8000000000000\",\"channel_width_factor\":\"3ff3333333333333\",\"field_like_ratio\":\"0000000000000000\",\"channel_resistance\":\"408a0aaaaaaaaaac\"}";

const GRID_DIGEST: &str = "dff8fd6ec27351bc";
