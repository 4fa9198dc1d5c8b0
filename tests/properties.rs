//! Property-style tests on cross-crate invariants.
//!
//! Each property is exercised over a deterministic cloud of random inputs
//! drawn from the in-tree PRNG ([`great_mss::units::rng`]) — same spirit as
//! proptest, but with zero external dependencies and perfectly reproducible
//! cases (fixed seed, no shrinking needed: the failing case prints its
//! inputs).

use great_mss::mtj::llg::{LlgOptions, LlgSimulator};
use great_mss::mtj::switching::SwitchingModel;
use great_mss::mtj::{MssDevice, MssStack};
use great_mss::spice::analysis::dc_operating_point;
use great_mss::spice::netlist::Netlist;
use great_mss::spice::waveform::Waveform;
use great_mss::units::rng::{Rng, Xoshiro256PlusPlus};
use great_mss::units::Vec3;
use great_mss::vaet::ecc::EccScheme;

/// Cases per property (proptest used 48; cheap enough to keep).
const CASES: usize = 48;

/// Runs `body` over `CASES` deterministic cases, seeding each property with
/// its own stream so adding a property never reshuffles the others.
fn for_cases(stream: u64, mut body: impl FnMut(&mut Xoshiro256PlusPlus)) {
    for case in 0..CASES {
        let mut rng = Xoshiro256PlusPlus::stream(0x0009_E77C_A5E5 + stream, case as u64);
        body(&mut rng);
    }
}

/// WER is a probability, monotone non-increasing in pulse width and
/// current, for any physical stack geometry.
#[test]
fn wer_is_monotone_probability() {
    for_cases(1, |rng| {
        let diameter_nm = rng.gen_range_f64(25.0, 70.0);
        let i_rel = rng.gen_range_f64(1.2, 4.0);
        let t_ns = rng.gen_range_f64(0.5, 40.0);
        let stack = MssStack::builder()
            .diameter(diameter_nm * 1e-9)
            .build()
            .unwrap();
        let sw = SwitchingModel::new(&stack);
        let i = i_rel * sw.critical_current();
        let t = t_ns * 1e-9;
        let wer = sw.write_error_rate(t, i);
        assert!(
            (0.0..=1.0).contains(&wer),
            "wer {wer} for d={diameter_nm}nm"
        );
        assert!(sw.write_error_rate(1.5 * t, i) <= wer + 1e-15);
        assert!(sw.write_error_rate(t, 1.2 * i) <= wer + 1e-15);
    });
}

/// Inverting the WER for a pulse width round-trips.
#[test]
fn pulse_for_wer_round_trips() {
    for_cases(2, |rng| {
        let diameter_nm = rng.gen_range_f64(30.0, 60.0);
        let i_rel = rng.gen_range_f64(1.5, 3.5);
        let log_wer = rng.gen_range_f64(-18.0, -3.0);
        let stack = MssStack::builder()
            .diameter(diameter_nm * 1e-9)
            .build()
            .unwrap();
        let sw = SwitchingModel::new(&stack);
        let i = i_rel * sw.critical_current();
        let wer = 10f64.powf(log_wer);
        let t = sw.pulse_for_wer(wer, i).unwrap();
        let back = sw.write_error_rate(t, i);
        assert!(
            (back.ln() - wer.ln()).abs() < 1e-6 * wer.ln().abs(),
            "wer {wer:e} -> t {t:e} -> {back:e}"
        );
    });
}

/// The LLG integrator preserves |m| = 1 from any starting orientation,
/// with or without spin torque.
#[test]
fn llg_preserves_unit_norm() {
    // The LLG runs are ~ms each; a smaller cloud keeps the test quick.
    let stack = MssStack::builder().build().unwrap();
    let device = MssDevice::memory(stack.clone());
    for case in 0..12 {
        let mut rng = Xoshiro256PlusPlus::stream(0x0009_E77C_A5E5 + 3, case);
        let theta = rng.gen_range_f64(0.05, 3.0);
        let phi = rng.gen_range_f64(-3.1, 3.1);
        let i_rel = rng.gen_range_f64(-3.0, 3.0);
        let sim = LlgSimulator::new(&device).with_current(i_rel * stack.critical_current());
        let traj = sim.run(
            Vec3::from_spherical(theta, phi),
            2e-9,
            &LlgOptions {
                record_every: 20,
                ..LlgOptions::default()
            },
        );
        for m in traj.magnetization() {
            assert!(
                (m.norm() - 1.0).abs() < 1e-9,
                "|m| drifted at i_rel={i_rel}"
            );
            assert!(m.is_finite());
        }
    }
}

/// ECC uncorrectable probability is a probability, monotone in p and
/// anti-monotone in correction strength.
#[test]
fn ecc_uncorrectable_is_monotone() {
    for_cases(4, |rng| {
        let log_p = rng.gen_range_f64(-15.0, -2.0);
        let data_bits = rng.gen_range_u64(64, 2048) as u32;
        let t = rng.gen_range_u64(1, 5) as u32;
        let p = 10f64.powf(log_p);
        let weak = EccScheme::bch(t, data_bits);
        let strong = EccScheme::bch(t + 1, data_bits);
        let up = weak.uncorrectable_probability(p);
        assert!((0.0..=1.0).contains(&up), "up {up} for p={p:e} t={t}");
        assert!(strong.uncorrectable_probability(p) <= up + 1e-300);
        assert!(weak.uncorrectable_probability(2.0 * p) >= up);
    });
}

/// DC solutions of random resistor ladders satisfy KCL: the source
/// current equals the current into the ladder, and every node voltage
/// lies between the rails.
#[test]
fn dc_ladder_satisfies_kcl() {
    for_cases(5, |rng| {
        let stages = rng.gen_range_u64(2, 10) as usize;
        let r_base = rng.gen_range_f64(100.0, 10_000.0);
        let vdd = rng.gen_range_f64(0.5, 3.0);
        let mut nl = Netlist::new();
        nl.add_vsource("v1", "n0", "0", Waveform::dc(vdd)).unwrap();
        for k in 0..stages {
            nl.add_resistor(
                &format!("rs{k}"),
                &format!("n{k}"),
                &format!("n{}", k + 1),
                r_base * (1.0 + k as f64 * 0.3),
            )
            .unwrap();
            nl.add_resistor(&format!("rg{k}"), &format!("n{}", k + 1), "0", 2.0 * r_base)
                .unwrap();
        }
        let dc = dc_operating_point(&nl).unwrap();
        let mut last = vdd;
        for k in 1..=stages {
            let v = dc.node_voltage(&format!("n{k}")).unwrap();
            assert!(v >= -1e-9 && v <= last + 1e-9, "node n{k} = {v}");
            last = v;
        }
        // Source current equals the ladder input current.
        let i_src = -dc.source_current("v1").unwrap();
        let v1 = dc.node_voltage("n1").unwrap();
        let i_ladder = (vdd - v1) / r_base;
        assert!((i_src - i_ladder).abs() < 1e-9 + 1e-6 * i_src.abs());
    });
}

/// Every point strictly inside the Stoner–Wohlfarth astroid is stable;
/// scaling it past the boundary switches.
#[test]
fn astroid_boundary_separates_regions() {
    use great_mss::mtj::astroid::{crosses_astroid, easy_axis_boundary};
    for_cases(8, |rng| {
        let hx = rng.gen_range_f64(0.01, 0.95);
        let frac = rng.gen_range_f64(0.05, 0.9);
        let hz_boundary = easy_axis_boundary(hx);
        if hz_boundary > 1e-6 {
            assert!(!crosses_astroid(hx, frac * hz_boundary * 0.999));
            assert!(crosses_astroid(hx, hz_boundary * 1.001 + 1e-9));
        }
    });
}

/// Retention sizing hits its target for any target within range.
#[test]
fn retention_sizing_round_trips() {
    let base = MssStack::builder().build().unwrap();
    for_cases(9, |rng| {
        let log_years = rng.gen_range_f64(-1.0, 2.5);
        let target = 10f64.powf(log_years) * 365.25 * 86400.0;
        let sized = great_mss::mtj::reliability::diameter_for_retention(&base, target).unwrap();
        let achieved = great_mss::mtj::reliability::retention_seconds(&sized);
        assert!(
            (achieved.ln() - target.ln()).abs() < 1e-6,
            "target {target:e}s achieved {achieved:e}s"
        );
    });
}

/// NVSim's array model never improves when the array grows or the node
/// gets older. For SRAM and STT-MRAM, as a RAM of 64-bit words and as an
/// 8-way cache of 64-byte lines, at 45 and 65 nm: every metric is
/// non-decreasing in capacity from 32 KiB to 8 MiB, and going from 45 to
/// 65 nm never lowers area, latency or energy and never raises leakage
/// (the older CMOS leaks less).
#[test]
fn nvsim_is_monotone_in_capacity_and_node() {
    use great_mss::nvsim::config::MemoryConfig;
    use great_mss::nvsim::model::{estimate, ArrayMetrics, MemoryTechnology};
    use great_mss::pdk::charlib::characterize_with;
    use great_mss::pdk::tech::{TechNode, TechParams};

    let scalars = |m: &ArrayMetrics| {
        [
            ("read_latency", m.read_latency),
            ("write_latency", m.write_latency),
            ("read_energy", m.read_energy),
            ("write_energy", m.write_energy),
            ("leakage_power", m.leakage_power),
            ("area", m.area),
        ]
    };
    let capacities: Vec<u64> = (15..=23).map(|log2| 1u64 << log2).collect();
    let stack = MssStack::builder().build().unwrap();
    // metrics[node][technology][organisation][capacity]
    let metrics: Vec<Vec<Vec<Vec<ArrayMetrics>>>> = [TechNode::N45, TechNode::N65]
        .into_iter()
        .map(|node| {
            let tech = TechParams::node(node);
            let stt = MemoryTechnology::SttMram(characterize_with(&tech, &stack).unwrap());
            [MemoryTechnology::Sram, stt]
                .iter()
                .map(|technology| {
                    let organisations: [fn(u64) -> MemoryConfig; 2] = [
                        |c| MemoryConfig::ram(c, 64).unwrap(),
                        |c| MemoryConfig::cache(c, 8, 64).unwrap(),
                    ];
                    organisations
                        .iter()
                        .map(|config| {
                            capacities
                                .iter()
                                .map(|&c| estimate(&tech, &config(c), technology).unwrap())
                                .collect()
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let case = |n: usize, t: usize, o: usize, c: usize| {
        format!(
            "{} nm {} {} {} KiB",
            [45, 65][n],
            ["SRAM", "STT"][t],
            ["ram", "cache"][o],
            capacities[c] >> 10
        )
    };
    for (n, by_tech) in metrics.iter().enumerate() {
        for (t, by_org) in by_tech.iter().enumerate() {
            for (o, series) in by_org.iter().enumerate() {
                for c in 1..series.len() {
                    for ((name, small), (_, large)) in
                        scalars(&series[c - 1]).into_iter().zip(scalars(&series[c]))
                    {
                        assert!(
                            large >= small,
                            "{name} falls from {small:e} to {large:e} growing to {}",
                            case(n, t, o, c)
                        );
                    }
                }
            }
        }
    }
    for (t, by_org) in metrics[0].iter().enumerate() {
        for (o, series) in by_org.iter().enumerate() {
            for (c, m45) in series.iter().enumerate() {
                let m65 = &metrics[1][t][o][c];
                for ((name, v45), (_, v65)) in scalars(m45).into_iter().zip(scalars(m65)) {
                    let ok = if name == "leakage_power" {
                        v65 <= v45
                    } else {
                        v65 >= v45
                    };
                    assert!(
                        ok,
                        "{name} {v45:e} at {} becomes {v65:e} at 65 nm",
                        case(0, t, o, c)
                    );
                }
            }
        }
    }
}
