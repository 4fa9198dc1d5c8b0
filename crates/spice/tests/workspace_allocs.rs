//! Proof that a transient run performs O(1) workspace (matrix)
//! allocations, regardless of step count or retry-ladder activity.
//!
//! Own integration-test binary: the obs registry is process-global, so the
//! `spice.solver.workspace_allocs` counter is only meaningful when a single
//! test owns every solve in the process. Keep this file to ONE `#[test]`.

use mss_spice::analysis::{Transient, TransientOptions};
use mss_spice::netlist::Netlist;
use mss_spice::waveform::Waveform;

fn rc_deck() -> Netlist {
    let mut nl = Netlist::new();
    nl.add_vsource(
        "vin",
        "in",
        "0",
        Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 0.0),
    )
    .unwrap();
    nl.add_resistor("r1", "in", "out", 1e3).unwrap();
    nl.add_capacitor("c1", "out", "0", 1e-12).unwrap();
    nl
}

#[test]
fn transient_allocates_o1_workspaces() {
    assert!(
        mss_obs::init_with_mode(mss_obs::Mode::Metrics),
        "this binary must own the obs registry"
    );
    let nl = rc_deck();
    let solves = |steps: usize| {
        let before = mss_obs::counter("spice.solver.workspace_allocs");
        Transient::new(&nl)
            .run(&TransientOptions::new(1e-12, steps as f64 * 1e-12))
            .unwrap();
        mss_obs::counter("spice.solver.workspace_allocs") - before
    };
    let short = solves(10);
    let long = solves(1000);
    // One workspace per run — the DC init and every step share it.
    assert_eq!(
        short, 1,
        "short transient must allocate exactly one workspace"
    );
    assert_eq!(
        long, short,
        "allocations must not scale with step count (O(1) per transient)"
    );
}
