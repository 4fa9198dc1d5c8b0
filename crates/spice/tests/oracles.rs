//! Analytic oracles for the DC and transient solvers.
//!
//! Linear circuits with closed-form answers: a resistive divider's DC node
//! voltage, and an RC step whose backward-Euler transient follows an exact
//! recursion and stays within the method's truncation error of the
//! continuous exponential. The solver's `GMIN = 1e-12 S` node shunt shifts
//! kΩ-scale answers by ~1e-9 relative, well inside the 1e-8 tolerance.

use mss_spice::analysis::{dc_operating_point, Transient, TransientOptions};
use mss_spice::netlist::Netlist;
use mss_spice::waveform::Waveform;
use mss_units::rng::{Rng, Xoshiro256PlusPlus};

/// Relative tolerance of every oracle.
const REL_TOL: f64 = 1e-8;

#[test]
fn divider_dc_matches_the_resistor_ratio() {
    for case in 0..32 {
        let mut rng = Xoshiro256PlusPlus::stream(0x0A1C_D1D0, case);
        let r1 = rng.gen_range_f64(100.0, 5e3);
        let r2 = rng.gen_range_f64(100.0, 5e3);
        let v = rng.gen_range_f64(0.1, 3.3);
        let mut nl = Netlist::new();
        nl.add_vsource("vin", "in", "0", Waveform::dc(v)).unwrap();
        nl.add_resistor("r1", "in", "out", r1).unwrap();
        nl.add_resistor("r2", "out", "0", r2).unwrap();
        let got = dc_operating_point(&nl)
            .unwrap()
            .node_voltage("out")
            .unwrap();
        let want = r2 / (r1 + r2) * v;
        assert!(
            ((got - want) / want).abs() < REL_TOL,
            "r1 = {r1}, r2 = {r2}, v = {v}: got {got}, want {want}"
        );
    }
}

#[test]
fn rc_step_follows_backward_euler_and_the_exponential() {
    // (R, C, dt): τ from 0.1 ns to 10 ns, dt/τ from 1e-3 to 0.1.
    for (r, c, dt) in [
        (1e3, 1e-12, 1e-12),
        (1e3, 1e-12, 10e-12),
        (2.2e3, 4.7e-13, 5e-12),
        (10e3, 1e-12, 1e-9),
    ] {
        let v = 1.2;
        let tau = r * c;
        // 0 at t = 0 (the DC init starts the capacitor discharged), V from
        // t = dt on: every backward-Euler step sees the full step.
        let mut nl = Netlist::new();
        nl.add_vsource("vin", "in", "0", Waveform::pwl(vec![(0.0, 0.0), (dt, v)]))
            .unwrap();
        nl.add_resistor("r1", "in", "out", r).unwrap();
        nl.add_capacitor("c1", "out", "0", c).unwrap();
        let res = Transient::new(&nl)
            .run(&TransientOptions::new(dt, 5.0 * tau))
            .unwrap();
        let out = res.node_voltage("out").unwrap();
        let times = res.times();
        assert_eq!(out[0], 0.0);
        let h = dt / tau;
        for (k, (&t, &got)) in times.iter().zip(out).enumerate().skip(1) {
            let euler = v * (1.0 - (1.0 + h).powi(-(k as i32)));
            assert!(
                (got - euler).abs() < REL_TOL * v,
                "τ = {tau:e}, dt = {dt:e}, step {k}: got {got}, backward Euler {euler}"
            );
            let exact = v * (1.0 - (-t / tau).exp());
            assert!(
                (got - exact).abs() <= v * h / 2.0,
                "τ = {tau:e}, dt = {dt:e}, t = {t:e}: got {got}, exact {exact}"
            );
        }
    }
}
