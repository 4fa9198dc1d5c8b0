//! CI smoke benchmark for the fault-injection plane: a seeded ECC campaign
//! cross-validated against the analytical binomial model, a solver retry
//! ladder exercise, and a fault-aware gemsim run — printing a summary and,
//! when `MSS_METRICS=1`, writing the observability registry as an NDJSON
//! run report CI archives.
//!
//! ```text
//! cargo run --release -p mss-bench --bin fault_smoke
//! MSS_METRICS=1 MSS_THREADS=8 cargo run --release -p mss-bench --bin fault_smoke -- 20000
//! ```
//!
//! The optional argument overrides the campaign block count (default 8000).
//! `MSS_OBS_OUT` overrides the report path (default
//! `target/fault_smoke.ndjson`). The line after the banner names the
//! kernel the host selected (`avx512`, `avx2` or `portable`) for gemsim's
//! lane generator.
//! Exits non-zero if the empirical rates land outside 4σ of the analytical
//! model or determinism is violated.

use mss_exec::ParallelConfig;
use mss_fault::{run_ecc_campaign, CampaignOptions, FaultModel, FaultPlan, MtjOperatingPoint};
use mss_gemsim::faultmem::FaultMemConfig;
use mss_gemsim::system::{System, SystemConfig};
use mss_gemsim::workload::Kernel;
use mss_mtj::MssStack;
use mss_spice::analysis::{dc_operating_point_with, SolverOptions};
use mss_spice::mosfet::{MosGeometry, MosModel};
use mss_spice::netlist::Netlist;
use mss_spice::waveform::Waveform;
use mss_vaet::ecc::EccScheme;

/// The campaign leg: MTJ-derived rates, serial vs parallel bit-identity,
/// and 4σ agreement with the analytical binomial ECC model.
fn campaign_smoke(blocks: u64) {
    let _span = mss_obs::span("fault_smoke.campaign");
    let stack = MssStack::builder().build().expect("reference stack");
    // Derive WER/RER from the analytical device models at a deliberately
    // stressed operating point so the campaign actually sees failures.
    let mut op = MtjOperatingPoint::memory_defaults(&stack);
    op.write_current *= 0.9; // starved write driver
    op.stuck_at_rate = 2e-4;
    let model = FaultModel::from_mtj(&stack, &op).expect("derived model");
    let plan = FaultPlan::new(0xFA_017, model).expect("valid plan");
    let scheme = EccScheme::bch(2, 256);

    let serial = run_ecc_campaign(
        &plan,
        &CampaignOptions::new(blocks, scheme).with_parallel(ParallelConfig::serial()),
    )
    .expect("serial campaign");
    let parallel = run_ecc_campaign(
        &plan,
        &CampaignOptions::new(blocks, scheme).with_parallel(ParallelConfig::from_env()),
    )
    .expect("parallel campaign");
    assert_eq!(
        serial, parallel,
        "determinism violation: parallel campaign diverged from serial"
    );
    println!(
        "campaign : {blocks} blocks of {} bits | WER {:.2e} | bit errors {} | clean/corr/det/unc = {}/{}/{}/{}",
        serial.bits_per_block,
        model.write_fail_rate,
        serial.bit_errors,
        serial.blocks_clean,
        serial.blocks_corrected,
        serial.blocks_detected,
        serial.blocks_uncorrectable,
    );
    println!(
        "model    : empirical block failure {:.4} vs analytical {:.4} (z = {:+.2}) | bit-identical: yes",
        serial.empirical_block_failure_rate(),
        serial.analytical_block_failure_rate,
        serial.z_block(),
    );
    assert!(
        serial.within_tolerance(4.0),
        "empirical rates left the 4-sigma band: z_write={:.2} z_read={:.2} z_transient={:.2} z_block={:.2}",
        serial.z_write(),
        serial.z_read(),
        serial.z_transient(),
        serial.z_block()
    );
}

/// The solver leg: a starved Newton budget fails alone but is rescued by
/// the gmin/source-stepping retry ladder.
fn ladder_smoke() {
    let _span = mss_obs::span("fault_smoke.ladder");
    let mut nl = Netlist::new();
    nl.add_vsource("vdd", "vdd", "0", Waveform::dc(1.1))
        .expect("vdd");
    nl.add_vsource("vin", "in", "0", Waveform::dc(1.1))
        .expect("vin");
    nl.add_resistor("rl", "vdd", "out", 20e3).expect("rl");
    nl.add_mosfet(
        "mn",
        "out",
        "in",
        "0",
        MosModel::generic_nmos(),
        MosGeometry {
            width: 4e-6,
            length: 90e-9,
        },
    )
    .expect("mn");
    let starved = SolverOptions::default().with_max_newton(1);
    let plain = dc_operating_point_with(&nl, &SolverOptions::without_ladder().with_max_newton(1));
    let laddered = dc_operating_point_with(&nl, &starved).expect("ladder rescue");
    let out = laddered.node_voltage("out").expect("node out");
    println!(
        "ladder   : 1-iteration newton {} | with ladder out = {:.3} V",
        if plain.is_err() {
            "fails (as forced)"
        } else {
            "unexpectedly converged"
        },
        out
    );
    assert!(plain.is_err(), "starved newton should not converge alone");
}

/// The system leg: a fault-aware big.LITTLE run degrades gracefully.
fn gemsim_smoke() {
    let _span = mss_obs::span("fault_smoke.gemsim");
    let mut cfg = SystemConfig::big_little_default();
    cfg.sample_accesses_per_thread = 8_000;
    let mut model = FaultModel::none();
    model.write_fail_rate = 0.001;
    model.read_disturb_rate = 0.0002;
    cfg.fault = Some(FaultMemConfig::new(
        FaultPlan::new(0xA11E, model).expect("valid plan"),
        EccScheme::bch(2, 512),
    ));
    let sys = System::new(cfg).expect("system");
    let report = sys.run(&Kernel::bodytrack(), 1).expect("kernel run");
    let f = report.fault.expect("fault stats");
    println!(
        "gemsim   : {} array reads, {} writes | {} bits injected, {} retries | survival {:.4}, failures {:.4}",
        f.reads,
        f.writes,
        f.injected_bits,
        f.write_retries,
        f.read_survival_rate(),
        f.read_failure_rate(),
    );
}

fn main() {
    let blocks: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(8_000);
    println!("== fault_smoke: seeded fault plane, ECC cross-validation, retry ladder ==");
    campaign_smoke(blocks);
    ladder_smoke();
    gemsim_smoke();

    mss_bench::write_obs_artifacts("fault_smoke");
}
