//! E-T1 — regenerates the paper's **Table 1**: nominal vs variation-aware
//! (μ, σ) write/read latency and energy for a 1024×1024 STT-MRAM array at
//! 45 nm and 65 nm — then reruns each node on the three-terminal SOT/SHE
//! cell, so the table doubles as the device-level STT-vs-SOT comparison
//! (the channel write removes the damping limit from the write tail).
//!
//! Output: the tables on stdout, and every value in `results/table1.csv`
//! (one row per mechanism, node and metric; SI units, shortest
//! round-trip `{:e}` form), identical at any `MSS_THREADS`. With
//! `MSS_METRICS=1` it also writes its run report to `target/table1.ndjson`,
//! which `mss_report check` gates against `results/BENCH_table1.json`.

use mss_bench::{standard_context, standard_sot_context, write_result};
use mss_exec::ParallelConfig;
use mss_pdk::tech::{TechNode, TechParams};
use mss_vaet::context::VaetContext;
use mss_vaet::montecarlo::{run_with, MonteCarloOptions};
use mss_vaet::report::VaetReport;

/// The `results/table1.csv` rows of one report.
fn csv_rows(mechanism: &str, report: &VaetReport) -> String {
    let node_nm = (TechParams::node(report.node).feature * 1e9).round();
    let metrics = [
        (
            "write_latency_s",
            report.nominal_write_latency,
            &report.write_latency,
        ),
        (
            "write_energy_J",
            report.nominal_write_energy,
            &report.write_energy,
        ),
        (
            "read_latency_s",
            report.nominal_read_latency,
            &report.read_latency,
        ),
        (
            "read_energy_J",
            report.nominal_read_energy,
            &report.read_energy,
        ),
    ];
    metrics
        .iter()
        .map(|(metric, nominal, d)| {
            format!(
                "{mechanism},{node_nm},{metric},{nominal:e},{:e},{:e}\n",
                d.mean, d.std_dev
            )
        })
        .collect()
}

fn main() {
    println!("Table 1: overall latency and energy values for 45 nm and 65 nm");
    println!("technology nodes for a memory array of 1024x1024\n");
    let opts = MonteCarloOptions {
        samples: 2000,
        seed: 0x007A_B1E1,
        word_bits: None,
    };
    let exec = ParallelConfig::from_env();
    let mut csv = String::from("mechanism,node_nm,metric,nominal,mu,sigma\n");
    let mut run = |mechanism: &str, ctx: &VaetContext| {
        let report = run_with(ctx, &opts, &exec).expect("monte carlo");
        println!("{}", report.to_table());
        csv.push_str(&csv_rows(mechanism, &report));
    };
    for node in TechNode::ALL {
        run("STT", &standard_context(node));
    }

    println!("Table 1 (SOT): the same arrays on the three-terminal SOT cell");
    println!("(channel write — no damping limit in the write tail)\n");
    for node in TechNode::ALL {
        run("SOT", &standard_sot_context(node));
    }
    write_result("results/table1.csv", &csv);
    mss_bench::write_obs_artifacts("table1");
}
