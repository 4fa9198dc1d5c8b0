//! E-F12 — regenerates the paper's **Fig. 12**: per-kernel execution time,
//! energy and EDP of the three STT-MRAM L2 scenarios relative to Full-SRAM,
//! for the nine Parsec-like kernels at 45 nm — then reruns the grid with
//! the three SOT-MRAM twins added and emits the STT-vs-SOT comparison.
//!
//! Outputs: `results/fig12.csv` (the paper grid, byte-identical to the
//! historic export), `results/fig12_sot.csv` (the per-replacement
//! STT-vs-SOT merit pairs) and `results/fig12.meta.csv` (figure metadata,
//! including the `extrapolated_accesses` fidelity marker). With
//! `MSS_METRICS=1` it also writes its run report to `target/fig12.ndjson`,
//! which `mss_report check` gates against `results/BENCH_fig12.json`.

use mss_bench::write_result;
use mss_core::flow::{MagpieFlow, MagpieInputs};
use mss_core::scenario::Scenario;
use mss_exec::ParallelConfig;
use mss_gemsim::workload::Kernel;
use mss_pdk::tech::TechNode;

fn main() {
    let inputs = MagpieInputs {
        node: TechNode::N45,
        kernels: Kernel::parsec_extended(),
        scenarios: Scenario::ALL.to_vec(),
        seed: 0x000F_1612,
        sample_cap: 250_000,
        ..MagpieInputs::defaults()
    };
    let flow = MagpieFlow::new(inputs.clone()).expect("flow setup");
    let report = flow
        .run_with(&ParallelConfig::from_env())
        .expect("flow run");
    println!("{}", report.fig12_table());
    write_result("results/fig12.csv", &report.fig12_csv());
    println!("(series written to results/fig12.csv)");

    // Headline shapes the paper calls out.
    let mut best_little_speedup: f64 = 1.0;
    let mut worst_energy: f64 = 0.0;
    for kernel in report.kernels() {
        if let Some((t, _, _)) = report.normalized(&kernel, Scenario::LittleL2Stt) {
            best_little_speedup = best_little_speedup.min(t);
        }
        for s in [
            Scenario::LittleL2Stt,
            Scenario::BigL2Stt,
            Scenario::FullL2Stt,
        ] {
            if let Some((_, e, _)) = report.normalized(&kernel, s) {
                worst_energy = worst_energy.max(e);
            }
        }
    }
    println!(
        "best LITTLE-L2-STT execution-time ratio: {best_little_speedup:.3} (paper: down to ~0.5)"
    );
    println!(
        "worst-case STT energy ratio across kernels/scenarios: {worst_energy:.3} (paper: <= ~0.83)"
    );

    // The STT-vs-SOT rerun: the SOT twins join the grid; the shared stage
    // cache replays the paper scenarios, so only SOT pairs simulate.
    let sot_flow = MagpieFlow::new(MagpieInputs {
        scenarios: Scenario::ALL_WITH_SOT.to_vec(),
        ..inputs
    })
    .expect("SOT flow setup");
    let sot_report = sot_flow
        .run_with(&ParallelConfig::from_env())
        .expect("SOT flow run");
    println!("{}", sot_report.mechanism_comparison_table());
    write_result(
        "results/fig12_sot.csv",
        &sot_report.mechanism_comparison_csv(),
    );
    println!("(mechanism comparison written to results/fig12_sot.csv)");
    write_result("results/fig12.meta.csv", &sot_report.metadata_csv("fig12"));
    println!("(figure metadata written to results/fig12.meta.csv)");

    // Headline of the comparison: the big-L2 replacement flips from STT's
    // write-latency slowdown to a near-SRAM runtime under SOT.
    let mut best_gain: f64 = 0.0;
    for row in sot_report.mechanism_comparison() {
        best_gain = best_gain.max(row.edp_gain());
    }
    println!("best SOT-over-STT EDP gain across kernels/replacements: {best_gain:.3}");
    mss_bench::write_obs_artifacts("fig12");
}
