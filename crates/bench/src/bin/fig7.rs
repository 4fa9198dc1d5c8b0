//! E-F7 — regenerates the paper's **Fig. 7**: overall read and write
//! latencies for various target error rates (RER/WER ∈ {1e-5, 1e-10,
//! 1e-15}). Lower target rates require higher timing margins.

use mss_bench::{standard_context, FIG7_TARGETS};
use mss_pdk::tech::TechNode;
use mss_units::fmt::Eng;
use mss_vaet::margins::figure7;

fn main() {
    let ctx = standard_context(TechNode::N45);
    let (write, read) = figure7(&ctx, &FIG7_TARGETS).expect("margin solve");
    println!("Fig. 7: overall read and write latencies for various error rates (45 nm)\n");
    println!(
        "{:<12} | {:>16} | {:>16}",
        "target rate", "write latency", "read latency"
    );
    for (w, r) in write.iter().zip(&read) {
        println!(
            "{:<12.0e} | {:>16} | {:>16}",
            w.target,
            Eng(w.latency, "s").to_string(),
            Eng(r.latency, "s").to_string()
        );
    }
    println!(
        "\nnominal write latency: {}   nominal read latency: {}",
        Eng(ctx.nominal.write_latency, "s"),
        Eng(ctx.nominal.read_latency, "s")
    );
    mss_bench::write_obs_artifacts("fig7");
}
