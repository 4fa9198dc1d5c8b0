//! Sensor-mode MSS with its readout chain: sweeps an out-of-plane field,
//! verifies the linear transfer against the LLG physical model, exercises
//! the MSS-based programmable current source the paper proposes for the
//! sensor feedback loop, and prints the front-end bandwidth of the sensor
//! MTJ into its parasitic capacitance, 1 / (2π R C).
//!
//! ```sh
//! cargo run --release --example sensor_readout
//! ```

use great_mss::mtj::llg::{LlgOptions, LlgSimulator};
use great_mss::mtj::{MssDevice, MssStack};
use great_mss::pdk::cells::current_source_deck;
use great_mss::pdk::tech::{TechNode, TechParams};
use great_mss::spice::analysis::{Transient, TransientOptions};
use great_mss::units::consts::{am_to_oe, oe_to_am};
use great_mss::units::Vec3;
use mss_mtj::resistance::MtjState;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stack = MssStack::builder().build()?;
    let sensor = MssDevice::sensor(stack.clone())?;
    println!(
        "sensor-mode MSS: {:.0} nm pillar, bias {:.0} Oe (Hk_eff = {:.0} Oe)",
        sensor.stack().diameter() * 1e9,
        sensor.bias().field_oe(),
        am_to_oe(sensor.stack().hk_eff())
    );

    // Transfer curve: Stoner–Wohlfarth analytic vs LLG relaxation.
    println!(
        "\n{:>10} | {:>10} | {:>10} | {:>12}",
        "H_z (Oe)", "m_z (SW)", "m_z (LLG)", "R (ohm)"
    );
    for oe in [-150.0, -75.0, 0.0, 75.0, 150.0] {
        let h = oe_to_am(oe);
        let mz_sw = sensor.equilibrium_mz(h)?;
        let sim = LlgSimulator::new(&sensor).with_applied_field(Vec3::new(0.0, 0.0, h));
        let traj = sim.run(Vec3::unit_x(), 15e-9, &LlgOptions::default());
        let mz_llg = traj.tail_mean_mz(0.2);
        let r = sensor.sensor_resistance(h, 0.05)?;
        println!("{oe:>10.1} | {mz_sw:>10.4} | {mz_llg:>10.4} | {r:>12.1}");
    }

    // The readout feedback: an MSS-based programmable current source whose
    // level is set by a memory-mode junction.
    let tech = TechParams::node(TechNode::N45);
    println!("\nprogrammable current source (feedback DAC):");
    for state in [MtjState::Parallel, MtjState::Antiparallel] {
        let deck = current_source_deck(&tech, &stack, state)?;
        let (dt, stop) = deck.tran.expect("deck has .tran");
        let res = Transient::new(&deck.netlist).run(&TransientOptions::new(dt, stop))?;
        let i_out = res.source_current("VOUT")?.last().copied().unwrap_or(0.0);
        println!(
            "  programmed {state:?}: output current {:.2} uA",
            i_out.abs() * 1e6
        );
    }

    // Readout bandwidth: the sensor MTJ driving the pad and amplifier
    // input is one R–C pole, whose -3 dB corner is 1 / (2π R C).
    let r_sensor = sensor.sensor_resistance(0.0, 0.05)?;
    let c_par = 50e-15; // pad + amplifier input
    let corner = 1.0 / (2.0 * std::f64::consts::PI * r_sensor * c_par);
    println!(
        "
readout front-end bandwidth: {:.1} MHz (-3 dB, R_mtj = {:.0} ohm, C = {:.0} fF)",
        corner / 1e6,
        r_sensor,
        c_par * 1e15
    );
    Ok(())
}
