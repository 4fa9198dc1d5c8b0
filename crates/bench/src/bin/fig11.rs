//! E-F11 — regenerates the paper's **Fig. 11**: energy breakdown by
//! component when executing the bodytrack kernel on the big.LITTLE
//! architecture, across the four SRAM/STT-MRAM L2 scenarios — then reruns
//! the grid with the three SOT-MRAM twins added, printing the breakdown
//! side by side as an STT-vs-SOT mechanism comparison.
//!
//! Outputs: `results/fig11.csv` (the paper grid, byte-identical to the
//! historic export), `results/fig11_sot.csv` (the extended grid) and
//! `results/fig11.meta.csv` (figure metadata, including the
//! `extrapolated_accesses` fidelity marker — 0 here, the flow is exact).
//! With `MSS_METRICS=1` it also writes its run report to
//! `target/fig11.ndjson`, which `mss_report check` gates against
//! `results/BENCH_fig11.json`.

use mss_bench::write_result;
use mss_core::flow::{MagpieFlow, MagpieInputs};
use mss_core::scenario::Scenario;
use mss_exec::ParallelConfig;
use mss_gemsim::workload::Kernel;
use mss_pdk::tech::TechNode;

fn main() {
    let inputs = MagpieInputs {
        node: TechNode::N45,
        kernels: vec![Kernel::bodytrack()],
        scenarios: Scenario::ALL.to_vec(),
        seed: 0x000F_1611,
        sample_cap: 250_000,
        ..MagpieInputs::defaults()
    };
    let flow = MagpieFlow::new(inputs.clone()).expect("flow setup");
    let report = flow
        .run_with(&ParallelConfig::from_env())
        .expect("flow run");
    println!("{}", report.fig11_table("bodytrack"));
    println!("{}", report.fig10_summary("bodytrack"));
    std::fs::create_dir_all("results").ok();
    write_result("results/fig11.csv", &report.fig11_csv("bodytrack"));
    println!("(breakdown written to results/fig11.csv)");
    // Overall savings vs the reference.
    for s in [
        Scenario::LittleL2Stt,
        Scenario::BigL2Stt,
        Scenario::FullL2Stt,
    ] {
        if let Some((_, e, _)) = report.normalized("bodytrack", s) {
            println!("{s}: total energy {:.1}% vs Full-SRAM", (e - 1.0) * 100.0);
        }
    }

    // The STT-vs-SOT rerun: same kernels/seed/cap with the SOT twins added
    // to the grid. The process-global stage cache makes the four paper
    // scenarios pure hits — only the SOT pairs actually simulate.
    let sot_flow = MagpieFlow::new(MagpieInputs {
        scenarios: Scenario::ALL_WITH_SOT.to_vec(),
        ..inputs
    })
    .expect("SOT flow setup");
    let sot_report = sot_flow
        .run_with(&ParallelConfig::from_env())
        .expect("SOT flow run");
    println!("{}", sot_report.fig11_table("bodytrack"));
    println!("{}", sot_report.mechanism_comparison_table());
    write_result("results/fig11_sot.csv", &sot_report.fig11_csv("bodytrack"));
    println!("(extended breakdown written to results/fig11_sot.csv)");
    write_result("results/fig11.meta.csv", &sot_report.metadata_csv("fig11"));
    println!("(figure metadata written to results/fig11.meta.csv)");
    mss_bench::write_obs_artifacts("fig11");
}
