//! CI smoke benchmark: small workloads through every instrumented layer of
//! the flow (vaet Monte Carlo, mtj LLG, spice transient, gemsim kernel),
//! printing sample throughput and — when `MSS_METRICS=1` — writing the
//! observability registry as an NDJSON run report CI archives.
//!
//! ```text
//! cargo run --release -p mss-bench --bin mc_smoke
//! MSS_METRICS=1 MSS_THREADS=8 cargo run --release -p mss-bench --bin mc_smoke -- 20000
//! ```
//!
//! The optional argument overrides the Monte Carlo sample count (default
//! 4000). `MSS_OBS_OUT` overrides the report path (default
//! `target/mc_smoke.ndjson`).

use std::time::Instant;

use mss_bench::standard_context;
use mss_exec::ParallelConfig;
use mss_gemsim::system::{System, SystemConfig};
use mss_gemsim::workload::Kernel;
use mss_mtj::llg::{LlgOptions, LlgSimulator};
use mss_mtj::resistance::MtjState;
use mss_mtj::switching::SwitchingModel;
use mss_mtj::{MssDevice, MssStack, SotMechanism, SotParams};
use mss_pdk::tech::TechNode;
use mss_spice::analysis::{Transient, TransientOptions};
use mss_spice::netlist::Netlist;
use mss_spice::waveform::Waveform;
use mss_units::Vec3;
use mss_vaet::context::VaetContext;
use mss_vaet::montecarlo::{run_with, MonteCarloOptions};
use mss_vaet::report::VaetReport;

/// Times one Monte Carlo run under `cfg` and prints its throughput line;
/// returns the report and the samples per second.
fn timed_run(
    label: &str,
    ctx: &VaetContext,
    opts: &MonteCarloOptions,
    cfg: &ParallelConfig,
) -> (VaetReport, f64) {
    let t0 = Instant::now();
    let report = run_with(ctx, opts, cfg).expect("Monte Carlo");
    let wall = t0.elapsed().as_secs_f64();
    let rate = opts.samples as f64 / wall.max(1e-9);
    println!(
        "{label}: samples {} | threads {} | wall {:.3} ms | {rate:.0} samples/s",
        opts.samples,
        cfg.threads,
        wall * 1e3
    );
    (report, rate)
}

/// The vaet Monte Carlo leg: serial vs parallel, asserting bit-identity.
fn vaet_smoke(samples: usize) {
    let _span = mss_obs::span("mc_smoke.vaet");
    let ctx = standard_context(TechNode::N45);
    let opts = MonteCarloOptions {
        samples,
        seed: 0x5EED_C0DE,
        word_bits: Some(64),
    };

    let (serial_report, serial_rate) =
        timed_run("serial   ", &ctx, &opts, &ParallelConfig::serial());
    let par_cfg = ParallelConfig::from_env();
    let (par_report, par_rate) = timed_run("parallel ", &ctx, &opts, &par_cfg);

    assert_eq!(
        serial_report, par_report,
        "determinism violation: parallel report diverged from serial"
    );
    println!(
        "speedup {:.2}x at {} threads | reports bit-identical: yes",
        par_rate / serial_rate.max(1e-9),
        par_cfg.threads
    );
}

/// A tiny LLG current sweep (device layer).
fn llg_smoke() {
    let _span = mss_obs::span("mc_smoke.llg");
    let device = MssDevice::memory(MssStack::builder().build().expect("reference stack"));
    let ic = SwitchingModel::new(device.stack()).critical_current();
    let sim = LlgSimulator::new(&device);
    let theta0 = std::f64::consts::PI - device.stack().thermal_angle();
    let m0 = Vec3::from_spherical(theta0, 0.0);
    let points = sim.current_sweep(
        &[2.0 * ic, 3.0 * ic],
        m0,
        40e-9,
        0.0,
        &LlgOptions::default(),
        &ParallelConfig::from_env(),
    );
    let switched = points.iter().filter(|p| p.switching_time.is_some()).count();
    println!(
        "llg      : {switched}/{} sweep points switched",
        points.len()
    );
}

/// An MTJ write pulse through the MNA transient engine (circuit layer).
fn spice_smoke() {
    let _span = mss_obs::span("mc_smoke.spice");
    let stack = MssStack::builder().build().expect("reference stack");
    let v_write = 2.5 * stack.critical_current() * stack.resistance_antiparallel();
    let mut nl = Netlist::new();
    nl.add_vsource(
        "vw",
        "top",
        "0",
        Waveform::pulse(0.0, v_write, 1e-9, 0.05e-9, 0.05e-9, 40e-9, 0.0),
    )
    .expect("vsource");
    nl.add_mtj("x1", "top", "0", &stack, MtjState::Antiparallel)
        .expect("mtj element");
    let res = Transient::new(&nl)
        .run(&TransientOptions::new(0.05e-9, 45e-9))
        .expect("transient run");
    println!(
        "spice    : {} time points, {} switch event(s)",
        res.times().len(),
        res.events().len()
    );
}

/// The SOT mechanism leg: the three-terminal cell written through the
/// heavy-metal channel, solved by the same MNA transient engine — asserts
/// the channel write actually switches the junction and that the SHE write
/// is far faster than the STT damping-limited one.
fn sot_smoke() {
    let _span = mss_obs::span("mc_smoke.sot");
    let stack = MssStack::builder().build().expect("reference stack");
    let params = SotParams::default();
    let sot = SotMechanism::new(&stack, params.clone()).expect("SOT mechanism");
    let stt = SwitchingModel::new(&stack);

    // Device layer: the channel write constant is the damping-scaled
    // precession time — orders of magnitude under the STT one.
    let sot_model = sot.switching_model();
    let t_sot = sot_model
        .mean_switching_time(1.5 * sot_model.critical_current())
        .expect("overdriven");
    let t_stt = stt
        .mean_switching_time(1.5 * stt.critical_current())
        .expect("overdriven");
    assert!(
        t_sot < 0.05 * t_stt,
        "SOT write {t_sot:.3e} s not clearly under STT write {t_stt:.3e} s"
    );

    // Circuit layer: a channel current pulse through the three-terminal
    // element must flip the free layer to Parallel.
    let i_write = 1.5 * sot_model.critical_current();
    let v_write = i_write * sot.channel_resistance();
    let mut nl = Netlist::new();
    nl.add_vsource(
        "vw",
        "wr",
        "0",
        Waveform::pulse(0.0, v_write, 0.2e-9, 0.02e-9, 0.02e-9, 2e-9, 0.0),
    )
    .expect("vsource");
    nl.add_mtj_sot(
        "x1",
        "rd",
        "wr",
        "0",
        &stack,
        &params,
        MtjState::Antiparallel,
    )
    .expect("sot element");
    let res = Transient::new(&nl)
        .run(&TransientOptions::new(0.01e-9, 3e-9))
        .expect("transient run");
    assert!(
        !res.events().is_empty(),
        "SOT channel pulse never switched the junction"
    );
    println!(
        "sot      : channel write {:.0} ps vs STT {:.1} ns at 1.5x overdrive | {} switch event(s)",
        t_sot * 1e12,
        t_stt * 1e9,
        res.events().len()
    );
}

/// One Parsec-like kernel on the big.LITTLE platform (system layer).
fn gemsim_smoke() {
    let _span = mss_obs::span("mc_smoke.gemsim");
    let mut cfg = SystemConfig::big_little_default();
    cfg.sample_accesses_per_thread = 8_000;
    let sys = System::new(cfg).expect("system");
    let report = sys.run(&Kernel::bodytrack(), 1).expect("kernel run");
    println!(
        "gemsim   : {} in {:.3} ms simulated, {} DRAM reads",
        report.kernel,
        report.runtime_seconds * 1e3,
        report.dram_reads
    );
}

fn main() {
    let samples: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000);
    println!("== mc_smoke: {samples} samples x 64-bit words, N45 ==");
    vaet_smoke(samples);
    llg_smoke();
    spice_smoke();
    sot_smoke();
    gemsim_smoke();

    mss_bench::write_obs_artifacts("mc_smoke");
}
