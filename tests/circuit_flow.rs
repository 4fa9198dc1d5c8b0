//! Integration: the circuit-level template → simulate → measure → cell
//! configuration loop across crates (`mss-pdk` templates through
//! `mss-spice`).

use great_mss::mtj::{MssStack, SotParams};
use great_mss::pdk::cells::{
    bitcell_write_deck, nvff_backup_deck, pcsa_read_deck, write_driver_deck, WriteDirection,
};
use great_mss::pdk::charlib::{characterize_sot_with, characterize_with};
use great_mss::pdk::tech::{TechNode, TechParams};
use great_mss::pipe::Artifact;
use great_mss::spice::analysis::{Transient, TransientOptions};
use mss_mtj::resistance::MtjState;

fn run(deck: &great_mss::spice::parser::Deck) -> great_mss::spice::analysis::TransientResult {
    let (dt, stop) = deck.tran.expect(".tran present");
    Transient::new(&deck.netlist)
        .run(&TransientOptions::new(dt, stop))
        .expect("transient run")
}

#[test]
fn bitcell_write_switches_in_both_directions() {
    let tech = TechParams::node(TechNode::N45);
    let stack = MssStack::builder().build().expect("stack");
    for dir in [WriteDirection::ToParallel, WriteDirection::ToAntiparallel] {
        let deck =
            bitcell_write_deck(&tech, &stack, dir, 8.0 * tech.feature, 12e-9, 5e-15).expect("deck");
        let res = run(&deck);
        assert_eq!(res.events().len(), 1, "{dir:?} must flip exactly once");
    }
}

#[test]
fn pcsa_senses_both_states_at_both_nodes() {
    let stack = MssStack::builder().build().expect("stack");
    let r_ref = (stack.resistance_parallel() * stack.resistance_antiparallel()).sqrt();
    for node in TechNode::ALL {
        let tech = TechParams::node(node);
        for state in [MtjState::Parallel, MtjState::Antiparallel] {
            let deck = pcsa_read_deck(&tech, &stack, state, r_ref, 2e-9).expect("deck");
            let res = run(&deck);
            let out = *res.node_voltage("out").expect("out").last().unwrap();
            let outb = *res.node_voltage("outb").expect("outb").last().unwrap();
            assert!(
                (out - outb).abs() > 0.7 * tech.vdd,
                "{node}/{state:?}: latch unresolved (out {out:.2}, outb {outb:.2})"
            );
        }
    }
}

#[test]
fn nvff_two_phase_backup_flips_both_junctions() {
    let tech = TechParams::node(TechNode::N45);
    let stack = MssStack::builder().build().expect("stack");
    for q in [true, false] {
        let deck = nvff_backup_deck(&tech, &stack, q, 24.0 * tech.feature, 15e-9).expect("deck");
        let res = run(&deck);
        assert_eq!(res.events().len(), 2, "q={q}: both junctions must flip");
    }
}

#[test]
fn write_driver_drives_realistic_bitline() {
    let tech = TechParams::node(TechNode::N45);
    let deck = write_driver_deck(&tech, 100e-15, 5e-9).expect("deck");
    let res = run(&deck);
    let bl = res.node_voltage("bl").expect("bl");
    let max = bl.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(max > 0.9 * tech.vdd);
}

/// Decodes `lib`'s cell-configuration file and checks every field bit for
/// bit: the encoding holds each field's exact bits, so equal re-encodings
/// mean equal bits.
fn assert_round_trips<T: Artifact>(lib: &T) {
    let text = lib.encode();
    let back = T::decode(&text).unwrap_or_else(|| panic!("decode failed:\n{text}"));
    assert_eq!(back.encode(), text);
}

#[test]
fn characterisation_round_trips_through_the_cell_config_file() {
    let stack = MssStack::builder().build().expect("stack");
    let tech = TechParams::node(TechNode::N45);
    let stt = characterize_with(&tech, &stack).expect("characterise STT");
    assert_round_trips(&stt);
    let sot =
        characterize_sot_with(&tech, &stack, &SotParams::default()).expect("characterise SOT");
    assert_round_trips(&sot);
}

#[test]
fn characterised_write_latency_matches_analytic_model() {
    // The SPICE-level flip time and the behavioural compact model must agree
    // on the cell switching time scale (compact-model consistency).
    let stack = MssStack::builder().build().expect("stack");
    let lib = characterize_with(&TechParams::node(TechNode::N45), &stack).expect("characterise");
    let sw = great_mss::mtj::switching::SwitchingModel::new(&stack);
    let analytic = sw
        .mean_switching_time(lib.write.current)
        .expect("supercritical write");
    let ratio = lib.write.latency / analytic;
    assert!(
        (0.5..2.0).contains(&ratio),
        "SPICE {} vs analytic {} (ratio {ratio:.2})",
        lib.write.latency,
        analytic
    );
}
