//! E-T1 — regenerates the paper's **Table 1**: nominal vs variation-aware
//! (μ, σ) write/read latency and energy for a 1024×1024 STT-MRAM array at
//! 45 nm and 65 nm — then reruns each node on the three-terminal SOT/SHE
//! cell, so the table doubles as the device-level STT-vs-SOT comparison
//! (the channel write removes the damping limit from the write tail).

use mss_bench::{standard_context, standard_sot_context};
use mss_exec::ParallelConfig;
use mss_pdk::tech::TechNode;
use mss_vaet::montecarlo::{run_with, MonteCarloOptions};

fn main() {
    println!("Table 1: overall latency and energy values for 45 nm and 65 nm");
    println!("technology nodes for a memory array of 1024x1024\n");
    let opts = MonteCarloOptions {
        samples: 2000,
        seed: 0x007A_B1E1,
        word_bits: None,
    };
    let exec = ParallelConfig::from_env();
    for node in TechNode::ALL {
        let ctx = standard_context(node);
        let report = run_with(&ctx, &opts, &exec).expect("monte carlo");
        println!("{}", report.to_table());
    }

    println!("Table 1 (SOT): the same arrays on the three-terminal SOT cell");
    println!("(channel write — no damping limit in the write tail)\n");
    for node in TechNode::ALL {
        let sot_ctx = standard_sot_context(node);
        let sot_report = run_with(&sot_ctx, &opts, &exec).expect("SOT monte carlo");
        println!("{}", sot_report.to_table());
    }
}
