//! E-F8 — regenerates the paper's **Fig. 8**: effect of ECCs on write
//! latency for an uncorrectable-WER target of 1×10⁻¹⁸. One corrected bit
//! buys a drastic latency drop; further bits give diminishing returns.

use mss_bench::{standard_context, FIG8_TARGET};
use mss_pdk::tech::TechNode;
use mss_units::fmt::Eng;
use mss_vaet::ecc::figure8;

fn main() {
    let ctx = standard_context(TechNode::N45);
    let points = figure8(&ctx, FIG8_TARGET, 4).expect("ecc sweep");
    println!("Fig. 8: effect of ECCs on write latency for WER of 1e-18 (45 nm)\n");
    println!(
        "{:<16} | {:>16} | {:>14} | {:>10}",
        "corrected bits", "write latency", "allowed bit WER", "overhead"
    );
    for p in &points {
        println!(
            "{:<16} | {:>16} | {:>14.2e} | {:>9.1}%",
            p.scheme.correctable,
            Eng(p.write_latency, "s").to_string(),
            p.allowed_bit_wer,
            p.overhead * 100.0
        );
    }
    let drop0to1 = points[0].write_latency - points[1].write_latency;
    let drop1to2 = points[1].write_latency - points[2].write_latency;
    println!(
        "\nlatency gain 0->1 bit: {}   1->2 bits: {}",
        Eng(drop0to1, "s"),
        Eng(drop1to2.max(0.0), "s")
    );
    mss_bench::write_obs_artifacts("fig8");
}
