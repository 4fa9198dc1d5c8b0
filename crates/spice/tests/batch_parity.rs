//! Property-style parity suite: the batched same-structure path and a
//! reused workspace must be *bit-identical* to the one-shot single-solve
//! path — solutions and `SpiceError` classification alike — across random
//! well- and ill-conditioned systems and at any thread count.

use mss_exec::ParallelConfig;
use mss_spice::analysis::{dc_operating_point_with, SolverOptions};
use mss_spice::batch::DcBatch;
use mss_spice::mosfet::{MosGeometry, MosModel};
use mss_spice::netlist::Netlist;
use mss_spice::solver::Matrix;
use mss_spice::waveform::Waveform;
use mss_spice::{SpiceError, Workspace};
use mss_units::rng::{Rng, Xoshiro256PlusPlus};

/// Random stamp classes: well-conditioned, badly scaled near-singular, and
/// exactly rank-deficient.
#[allow(clippy::needless_range_loop)]
fn random_system(rng: &mut Xoshiro256PlusPlus, class: usize, n: usize) -> (Matrix, Vec<f64>) {
    let mut a = Matrix::zeros(n, n);
    let mut b = vec![0.0; n];
    match class {
        // Diagonally dominant: always solvable.
        0 => {
            for r in 0..n {
                for c in 0..n {
                    a.set(r, c, rng.gen_range_f64(-1.0, 1.0));
                }
                a.add(r, r, n as f64);
                b[r] = rng.gen_range_f64(-2.0, 2.0);
            }
        }
        // Badly scaled: entries spanning ~200 decades around a random
        // exponent; pivots flirt with the relative tolerance.
        1 => {
            let scale = 10f64.powi(rng.gen_range_f64(-140.0, 140.0) as i32);
            for r in 0..n {
                for c in 0..n {
                    a.set(r, c, scale * rng.gen_range_f64(-1.0, 1.0));
                }
                if rng.gen_range_f64(0.0, 1.0) < 0.5 {
                    a.add(r, r, scale * n as f64);
                }
                b[r] = scale * rng.gen_range_f64(-1.0, 1.0);
            }
        }
        // Rank-deficient: one row is a multiple of another.
        _ => {
            for r in 0..n {
                for c in 0..n {
                    a.set(r, c, rng.gen_range_f64(-1.0, 1.0));
                }
                b[r] = rng.gen_range_f64(-1.0, 1.0);
            }
            if n >= 2 {
                let k = rng.gen_range_f64(-3.0, 3.0);
                for c in 0..n {
                    a.set(n - 1, c, k * a.get(0, c));
                }
            }
        }
    }
    (a, b)
}

/// Copies `(a, b)` into `ws` and solves it there.
fn solve_in(ws: &mut Workspace, a: &Matrix, b: &[f64]) -> Result<(), SpiceError> {
    let n = b.len();
    ws.prepare(n);
    let (m, rhs) = ws.assembly_mut();
    for r in 0..n {
        for c in 0..n {
            m.set(r, c, a.get(r, c));
        }
    }
    rhs.copy_from_slice(b);
    ws.solve()
}

/// The one-shot path (a fresh workspace per solve) against one workspace
/// reused across every trial and dimension: stale storage must never leak
/// into a solution or an error classification.
#[test]
fn backend_matches_legacy_solve_bitwise_over_random_stamps() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5EED);
    let mut reused = Workspace::new(); // deliberately reused across ALL trials
    let (mut oks, mut errs) = (0usize, 0usize);
    for trial in 0..300 {
        let class = trial % 3;
        let n = 2 + (trial % 9);
        let (a, b) = random_system(&mut rng, class, n);
        let mut fresh = Workspace::new();
        match (solve_in(&mut fresh, &a, &b), solve_in(&mut reused, &a, &b)) {
            (Ok(()), Ok(())) => {
                let bits = |ws: &Workspace| -> Vec<u64> {
                    ws.solution().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&fresh), bits(&reused), "trial {trial}: bits differ");
                oks += 1;
            }
            (Err(ef), Err(er)) => {
                assert_eq!(ef, er, "trial {trial}: error classification differs");
                errs += 1;
            }
            (f, r) => panic!("trial {trial}: outcomes diverge: {f:?} vs {r:?}"),
        }
    }
    // The sweep must actually exercise both outcomes.
    assert!(oks > 50, "only {oks} successful trials");
    assert!(errs > 50, "only {errs} singular trials");
}

fn ladder_network() -> Netlist {
    let mut nl = Netlist::new();
    nl.add_vsource("vs", "n1", "0", Waveform::dc(1.2)).unwrap();
    for i in 1..4 {
        nl.add_resistor(
            &format!("r{i}"),
            &format!("n{i}"),
            &format!("n{}", i + 1),
            1e3,
        )
        .unwrap();
    }
    nl.add_resistor("rload", "n4", "0", 1e3).unwrap();
    nl
}

#[test]
fn batched_bit_identical_to_single_at_1_2_8_threads() {
    let nl = ladder_network();
    let idx: Vec<usize> = (1..4)
        .map(|i| nl.element_index(&format!("r{i}")).unwrap())
        .chain([nl.element_index("rload").unwrap()])
        .collect();
    // Per-sample values from a split RNG stream: log-uniform over 11
    // decades, the same for every thread count.
    let ohms = |sample: usize, k: usize| {
        let mut rng = Xoshiro256PlusPlus::stream(42, sample as u64);
        let mut v = 0.0;
        for _ in 0..=k {
            v = 10f64.powf(rng.gen_range_f64(-2.0, 9.0));
        }
        v
    };
    let edit = |sample: usize, nl: &mut Netlist| {
        for (k, &ei) in idx.iter().enumerate() {
            nl.set_resistance(ei, ohms(sample, k))?;
        }
        Ok(())
    };
    let batch = DcBatch::new(&nl);
    let n = 200;
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            batch.run(
                n,
                &ParallelConfig::serial().with_threads(t).with_chunk(13),
                edit,
            )
        })
        .collect();
    for i in 0..n {
        // Single-solve reference: a fresh netlist mutated the same way.
        let mut single = ladder_network();
        edit(i, &mut single).unwrap();
        let dc = dc_operating_point_with(&single, &SolverOptions::default()).unwrap();
        for node in ["n1", "n2", "n3", "n4"] {
            let want = dc.node_voltage(node).unwrap();
            for run in &runs {
                assert_eq!(
                    run.node_voltage(i, node).unwrap(),
                    want,
                    "sample {i} node {node}"
                );
            }
        }
    }
}

#[test]
fn singular_classification_matches_single_path() {
    // Two voltage sources forcing different values on the same node pair:
    // structurally singular for every sample.
    let mut nl = Netlist::new();
    nl.add_vsource("v1", "a", "0", Waveform::dc(1.0)).unwrap();
    nl.add_vsource("v2", "a", "0", Waveform::dc(2.0)).unwrap();
    nl.add_resistor("r1", "a", "0", 1e3).unwrap();
    let single = dc_operating_point_with(&nl, &SolverOptions::default()).unwrap_err();
    assert_eq!(single, SpiceError::SingularMatrix);

    let v2 = nl.element_index("v2").unwrap();
    let batch = DcBatch::new(&nl);
    for threads in [1usize, 2, 8] {
        let cfg = ParallelConfig::serial().with_threads(threads).with_chunk(3);
        let result = batch.run(8, &cfg, |i, nl| {
            nl.set_source_wave(v2, Waveform::dc(2.0 + i as f64))
        });
        assert_eq!(result.failure_count(), 8);
        for i in 0..8 {
            assert_eq!(result.outcome(i).unwrap_err(), &single, "sample {i}");
        }
    }
}

#[test]
fn nonconvergence_classification_matches_single_path() {
    // A stiff NMOS inverter under a 1-iteration budget with the ladder off:
    // plain Newton cannot converge, and the batched path must report the
    // *numerically identical* NoConvergence (same iterations, same max_dv).
    let mut nl = Netlist::new();
    nl.add_vsource("vdd", "vdd", "0", Waveform::dc(1.0))
        .unwrap();
    nl.add_vsource("vin", "in", "0", Waveform::dc(0.0)).unwrap();
    nl.add_resistor("rl", "vdd", "out", 10e3).unwrap();
    nl.add_mosfet(
        "m1",
        "out",
        "in",
        "0",
        MosModel::generic_nmos(),
        MosGeometry {
            width: 1e-6,
            length: 100e-9,
        },
    )
    .unwrap();
    let starved = SolverOptions::without_ladder().with_max_newton(1);
    let vin = nl.element_index("vin").unwrap();
    let vin_of = |i: usize| 0.1 * i as f64;

    let batch = DcBatch::new(&nl).with_solver(starved);
    for threads in [1usize, 2, 8] {
        let cfg = ParallelConfig::serial().with_threads(threads).with_chunk(2);
        let result = batch.run(6, &cfg, |i, nl| {
            nl.set_source_wave(vin, Waveform::dc(vin_of(i)))
        });
        assert_eq!(result.failure_count(), 6);
        for i in 0..6 {
            let mut single = nl.clone();
            single
                .set_source_wave(vin, Waveform::dc(vin_of(i)))
                .unwrap();
            let want = dc_operating_point_with(&single, &starved).unwrap_err();
            let got = result.outcome(i).unwrap_err();
            // The `analysis` label legitimately differs ("batched dc" vs
            // "dc operating point"); the classification and the *numbers*
            // must be bit-identical.
            match (&want, got) {
                (
                    SpiceError::NoConvergence {
                        time: wt,
                        iterations: wi,
                        max_dv: wd,
                        ..
                    },
                    SpiceError::NoConvergence {
                        time: gt,
                        iterations: gi,
                        max_dv: gd,
                        ..
                    },
                ) => {
                    assert_eq!(wt, gt, "sample {i}");
                    assert_eq!(wi, gi, "sample {i}");
                    assert_eq!(wd, gd, "sample {i}: max_dv bits differ");
                }
                other => panic!("sample {i}: expected NoConvergence pair, got {other:?}"),
            }
        }
    }
}
