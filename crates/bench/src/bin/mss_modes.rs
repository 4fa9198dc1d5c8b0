//! E-M1..E-M3 — characterises the three MSS operating modes described in
//! the paper's Sec. I/II prose: memory retention vs diameter, the sensor's
//! linear transfer curve and the oscillator's tilt/frequency behaviour.

use mss_mtj::llg::{LlgOptions, LlgSimulator};
use mss_mtj::reliability;
use mss_mtj::switching::SwitchingModel;
use mss_mtj::{MssDevice, MssStack};
use mss_units::consts::am_to_oe;
use mss_units::fmt::Eng;
use mss_units::Vec3;

fn main() {
    let base = MssStack::builder().build().expect("default stack");

    // --- E-M1: memory mode — retention vs diameter, switching current ---
    println!("E-M1: memory mode — adjustable retention by pillar diameter");
    println!(
        "{:<12} | {:>10} | {:>16} | {:>14}",
        "diameter", "delta", "retention", "Ic0"
    );
    for d_nm in [25.0, 30.0, 35.0, 40.0, 50.0] {
        let stack = base.with_diameter(d_nm * 1e-9).expect("geometry");
        let years = reliability::retention_years(&stack);
        println!(
            "{:<12} | {:>10.1} | {:>13.2e} y | {:>14}",
            format!("{d_nm} nm"),
            stack.thermal_stability(),
            years,
            Eng(stack.critical_current(), "A").to_string()
        );
    }
    let sw = SwitchingModel::new(&base);
    println!(
        "mean switching time at 2.5x Ic0: {}\n",
        Eng(
            sw.mean_switching_time(2.5 * sw.critical_current())
                .expect("supercritical"),
            "s"
        )
    );

    // --- E-M2: sensor mode — linear transfer curve ---
    let sensor = MssDevice::sensor(base.clone()).expect("sensor bias");
    println!(
        "E-M2: sensor mode — bias {:.0} Oe pulls the free layer in-plane",
        sensor.bias().field_oe()
    );
    println!("{:<14} | {:>12} | {:>12}", "H_z (Oe)", "m_z", "R (ohm)");
    let range = sensor.sensor_linear_range();
    for k in -4i32..=4 {
        let h = k as f64 / 4.0 * 0.8 * range;
        let mz = sensor.equilibrium_mz(h).expect("equilibrium");
        let r = sensor.sensor_resistance(h, 0.05).expect("transfer");
        println!("{:<14.1} | {:>12.4} | {:>12.1}", am_to_oe(h), mz, r);
    }
    println!(
        "sensitivity dR/dH: {:.4} ohm/Oe, linear range ±{:.0} Oe\n",
        sensor.sensor_sensitivity().expect("sensitivity") * mss_units::consts::oe_to_am(1.0),
        am_to_oe(range)
    );

    // --- E-M3: oscillator mode — tilt and frequency ---
    let osc = MssDevice::oscillator(base);
    println!(
        "E-M3: oscillator mode — bias {:.0} Oe (Hk/2) tilts the free layer to {:.1} deg",
        osc.bias().field_oe(),
        osc.equilibrium_tilt_degrees()
    );
    println!(
        "analytic free-running frequency estimate: {}",
        Eng(osc.oscillator_frequency_estimate(), "Hz")
    );
    // Ring-down LLG run to confirm the precession frequency physically.
    let theta = osc.equilibrium_tilt_degrees().to_radians();
    let sim = LlgSimulator::new(&osc);
    let traj = sim.run(
        Vec3::from_spherical(theta + 0.15, 0.1),
        4e-9,
        &LlgOptions {
            record_every: 1,
            ..LlgOptions::default()
        },
    );
    match traj.estimate_frequency() {
        Some(f) => println!("LLG ring-down frequency: {}", Eng(f, "Hz")),
        None => println!("LLG ring-down frequency: (no oscillation detected)"),
    }
    mss_bench::write_obs_artifacts("mss_modes");
}
