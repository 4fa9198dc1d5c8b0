//! CI perf gate for the batched same-structure SPICE backend: solves the
//! sense-margin divider for thousands of Monte Carlo parameter vectors two
//! ways — the historic per-sample workflow (build the sampled deck, run a
//! full [`dc_operating_point_with`]) and the symbolic-once/numeric-many
//! [`DcBatch`] path at 1/2/8 threads — asserting
//! **bit-identical** tap voltages everywhere, identical `SpiceError`
//! classification on a structurally singular deck, the same parity for a
//! batched three-terminal SOT read divider, and a ≥ 3× batched throughput
//! win (solves/sec). The win is per-solve overhead elimination
//! (one symbolic analysis, one workspace, no per-sample report packaging),
//! so it must hold even on a single-core runner.
//!
//! ```text
//! cargo run --release -p mss-bench --bin spice_batch_smoke
//! MSS_METRICS=1 cargo run --release -p mss-bench --bin spice_batch_smoke -- 8192
//! ```
//!
//! The optional argument overrides the Monte Carlo sample count (default
//! 4096). Thread counts and chunk sizes are pinned — never taken from the
//! environment — so the emitted `spice.batch.*` counters and span structure
//! are machine-independent and gate exactly against
//! `results/BENCH_spice_batch_smoke.json` via `mss_report check`. Exits non-zero
//! on any parity violation or a sub-3× speedup.

use std::time::Instant;

use mss_exec::ParallelConfig;
use mss_mtj::resistance::MtjState;
use mss_mtj::{MssStack, SotParams};
use mss_pdk::tech::TechNode;
use mss_spice::analysis::{dc_operating_point_with, SolverOptions};
use mss_spice::batch::DcBatch;
use mss_spice::netlist::Netlist;
use mss_spice::waveform::Waveform;
use mss_spice::SpiceError;
use mss_units::rng::{Rng, Xoshiro256PlusPlus};
use mss_vaet::montecarlo::{sense_margin_batch_with, SenseBatchOptions};

/// Fixed timing repetitions per leg (best-of); fixed so the span counts in
/// the committed baseline are reproducible.
const REPS: usize = 3;

/// Required batched-vs-single throughput ratio.
const MIN_SPEEDUP: f64 = 3.0;

/// RNG seed for the per-sample cell resistances.
const SEED: u64 = 0xB47C_5EED;

/// The read-path divider: a bitline bias into matched series resistors
/// feeding a parallel-state leg and an antiparallel-state leg (same shape
/// as `mss_vaet::montecarlo::sense_margin_batch`).
fn divider_with(r_p: f64, r_ap: f64) -> Netlist {
    let mut nl = Netlist::new();
    nl.add_vsource("vr", "bl", "0", Waveform::dc(0.1)).unwrap();
    nl.add_resistor("rsp", "bl", "sp", 3.0e3).unwrap();
    nl.add_resistor("rsap", "bl", "sap", 3.0e3).unwrap();
    nl.add_resistor("rp", "sp", "0", r_p).unwrap();
    nl.add_resistor("rap", "sap", "0", r_ap).unwrap();
    nl
}

/// The nominal divider (the batch's base topology).
fn divider() -> Netlist {
    divider_with(2.0e3, 5.0e3)
}

/// Per-sample cell resistances from a *sample-indexed* RNG stream:
/// log-uniform ±0.3 decades around the nominal P/AP values, identical for
/// every leg, thread count and chunking.
fn cell(sample: usize) -> (f64, f64) {
    let mut rng = Xoshiro256PlusPlus::stream(SEED, sample as u64);
    let r_p = 2.0e3 * 10f64.powf(rng.gen_range_f64(-0.3, 0.3));
    let r_ap = 5.0e3 * 10f64.powf(rng.gen_range_f64(-0.3, 0.3));
    (r_p, r_ap)
}

/// Historic path — the pre-batch Monte Carlo workflow this backend
/// replaces: construct the sampled deck and run a full
/// `dc_operating_point` (netlist build, symbolic analysis, workspace and
/// report packaging) per sample. Returns the `(v_sp, v_sap)` pairs and the
/// best-of-[`REPS`] wall time.
fn single_leg(samples: usize) -> (Vec<f64>, f64) {
    let opts = SolverOptions::default();
    let mut best = f64::INFINITY;
    let mut taps = Vec::new();
    for _ in 0..REPS {
        let _span = mss_obs::span("spice_batch_smoke.single");
        let t0 = Instant::now();
        let mut out = Vec::with_capacity(2 * samples);
        for i in 0..samples {
            let (r_p, r_ap) = cell(i);
            let nl = divider_with(r_p, r_ap);
            let dc = dc_operating_point_with(&nl, &opts).expect("divider solves");
            out.push(dc.node_voltage("sp").unwrap());
            out.push(dc.node_voltage("sap").unwrap());
        }
        best = best.min(t0.elapsed().as_secs_f64());
        taps = out;
    }
    (taps, best)
}

/// Batched path at a pinned thread count: symbolic analysis once, numeric
/// solves for every sample. Returns the same `(v_sp, v_sap)` pairs and the
/// best-of-[`REPS`] wall time.
fn batched_leg(samples: usize, threads: usize) -> (Vec<f64>, f64) {
    let nl = divider();
    let rp = nl.element_index("rp").unwrap();
    let rap = nl.element_index("rap").unwrap();
    let batch = DcBatch::new(&nl);
    let cfg = ParallelConfig::serial()
        .with_threads(threads)
        .with_chunk(256);
    let mut best = f64::INFINITY;
    let mut taps = Vec::new();
    for _ in 0..REPS {
        let _span = mss_obs::span("spice_batch_smoke.batched");
        let t0 = Instant::now();
        let run = batch.run(samples, &cfg, |i, nl| {
            let (r_p, r_ap) = cell(i);
            nl.set_resistance(rp, r_p)?;
            nl.set_resistance(rap, r_ap)
        });
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(run.failure_count(), 0, "divider must solve every sample");
        let mut out = Vec::with_capacity(2 * samples);
        for i in 0..samples {
            out.push(run.node_voltage(i, "sp").unwrap());
            out.push(run.node_voltage(i, "sap").unwrap());
        }
        taps = out;
    }
    (taps, best)
}

/// A structurally singular deck (two sources forcing the same node pair):
/// the batch must classify every sample exactly as the single path does —
/// [`SpiceError::SingularMatrix`] — and keep going.
fn singular_leg() {
    let _span = mss_obs::span("spice_batch_smoke.singular");
    let mut nl = Netlist::new();
    nl.add_vsource("v1", "a", "0", Waveform::dc(1.0)).unwrap();
    nl.add_vsource("v2", "a", "0", Waveform::dc(2.0)).unwrap();
    nl.add_resistor("r1", "a", "0", 1e3).unwrap();
    let single = dc_operating_point_with(&nl, &SolverOptions::default()).unwrap_err();
    assert_eq!(single, SpiceError::SingularMatrix);

    let v2 = nl.element_index("v2").unwrap();
    let batch = DcBatch::new(&nl);
    let cfg = ParallelConfig::serial().with_threads(2).with_chunk(3);
    let run = batch.run(8, &cfg, |i, nl| {
        nl.set_source_wave(v2, Waveform::dc(2.0 + i as f64))
    });
    assert_eq!(run.failure_count(), 8, "every sample is singular");
    for i in 0..8 {
        assert_eq!(run.outcome(i).unwrap_err(), &single, "sample {i}");
    }
    println!("singular : 8/8 samples classified SingularMatrix; batch survives");
}

/// The three-terminal SOT cell through the batched solver: a read-path
/// divider around an `MTJSOT` element (series resistor into the read
/// terminal, heavy-metal channel grounded at the write terminal), batching
/// over junction state *and* series resistance at the pinned thread counts.
/// Every sample must match the one-shot `dc_operating_point_with` solve
/// bitwise, and the AP junction must divide higher than the P one at the
/// read tap.
fn sot_leg() {
    let _span = mss_obs::span("spice_batch_smoke.sot");
    const SOT_SAMPLES: usize = 64;
    let stack = MssStack::builder().build().expect("reference stack");
    let params = SotParams::default();
    let build = || {
        let mut nl = Netlist::new();
        nl.add_vsource("vr", "bl", "0", Waveform::dc(0.1)).unwrap();
        nl.add_resistor("rs", "bl", "rd", 3.0e3).unwrap();
        nl.add_mtj_sot("x1", "rd", "sh", "0", &stack, &params, MtjState::Parallel)
            .unwrap();
        nl
    };
    let nl = build();
    let rs = nl.element_index("rs").unwrap();
    let x1 = nl.element_index("x1").unwrap();
    let state = |i: usize| {
        if i.is_multiple_of(2) {
            MtjState::Parallel
        } else {
            MtjState::Antiparallel
        }
    };
    let ohms = |i: usize| {
        let mut rng = Xoshiro256PlusPlus::stream(SEED ^ 0x507, i as u64);
        3.0e3 * 10f64.powf(rng.gen_range_f64(-0.2, 0.2))
    };

    // Reference: the historic one-shot solve per sample.
    let mut single_taps = Vec::with_capacity(SOT_SAMPLES);
    for i in 0..SOT_SAMPLES {
        let mut single = build();
        single.set_mtj_state(x1, state(i)).unwrap();
        single.set_resistance(rs, ohms(i)).unwrap();
        let dc = dc_operating_point_with(&single, &SolverOptions::default())
            .expect("SOT read divider solves");
        single_taps.push(dc.node_voltage("rd").unwrap());
    }

    let batch = DcBatch::new(&nl);
    for threads in [1usize, 2, 8] {
        let cfg = ParallelConfig::serial()
            .with_threads(threads)
            .with_chunk(16);
        let run = batch.run(SOT_SAMPLES, &cfg, |i, nl| {
            nl.set_mtj_state(x1, state(i))?;
            nl.set_resistance(rs, ohms(i))
        });
        assert_eq!(run.failure_count(), 0, "SOT divider must solve everywhere");
        for (i, &tap) in single_taps.iter().enumerate() {
            assert_eq!(
                run.node_voltage(i, "rd").unwrap(),
                tap,
                "SOT sample {i} at {threads} threads diverged from the single solve"
            );
        }
        // AP junction divides higher than P at the read tap.
        assert!(
            run.node_voltage(1, "rd").unwrap() > run.node_voltage(0, "rd").unwrap(),
            "AP read tap must sit above the P one"
        );
    }
    println!(
        "sot      : {SOT_SAMPLES} three-terminal solves | bits == single at 1/2/8 threads | AP > P at read tap"
    );
}

/// The paper-level consumer: the VAET sense-margin Monte Carlo through the
/// batched solver, bit-identical across thread counts.
fn vaet_leg() {
    let _span = mss_obs::span("spice_batch_smoke.vaet");
    let ctx = mss_bench::standard_context(TechNode::N45);
    let opts = SenseBatchOptions::default();
    let serial = sense_margin_batch_with(&ctx, &opts, &ParallelConfig::serial().with_chunk(256))
        .expect("sense batch");
    let threaded = sense_margin_batch_with(
        &ctx,
        &opts,
        &ParallelConfig::serial().with_threads(4).with_chunk(256),
    )
    .expect("sense batch");
    assert_eq!(
        serial, threaded,
        "sense batch diverged across thread counts"
    );
    assert_eq!(serial.failed_solves, 0, "sense divider must always solve");
    assert!(serial.min_margin > 0.0, "AP leg must sense above the P leg");
    println!(
        "vaet     : {} samples | margin mu {:.4} V sigma {:.4} V | min {:.4} V | {} below offset",
        serial.samples,
        serial.margin.mean,
        serial.margin.std_dev,
        serial.min_margin,
        serial.below_offset
    );
}

fn main() {
    let samples: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096);
    assert!(samples >= 1000, "the gate is specified for >= 1000 samples");
    println!("== spice_batch_smoke: batched same-structure solver parity + throughput ==");

    let (single_taps, single_t) = single_leg(samples);
    let mut batched_t = f64::INFINITY;
    for threads in [1usize, 2, 8] {
        let (taps, t) = batched_leg(samples, threads);
        assert_eq!(
            taps, single_taps,
            "batched taps at {threads} threads are not bit-identical to the single path"
        );
        println!(
            "batched  : {threads} thread(s) | {samples} solves in {t:.3} s | {:.0} solves/s | bits == single",
            samples as f64 / t
        );
        batched_t = batched_t.min(t);
    }
    println!(
        "single   : {samples} solves in {single_t:.3} s | {:.0} solves/s",
        samples as f64 / single_t
    );

    let speedup = single_t / batched_t;
    println!("speedup  : {speedup:.2}x batched over single (gate: >= {MIN_SPEEDUP:.1}x)");
    mss_obs::counter_add("spice_batch_smoke.gate.samples", samples as u64);
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: batched throughput only {speedup:.2}x the single-solve path (need >= {MIN_SPEEDUP:.1}x)"
        );
        std::process::exit(1);
    }

    singular_leg();
    sot_leg();
    vaet_leg();

    mss_bench::write_obs_artifacts("spice_batch_smoke");
}
