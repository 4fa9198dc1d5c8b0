//! E-F9 — regenerates the paper's **Fig. 9**: read-disturb probabilities
//! for different read periods, plus the conflicting RER curve and the
//! combined-optimum read period.

use mss_bench::{fig9_periods, standard_context};
use mss_pdk::tech::TechNode;
use mss_units::fmt::Eng;
use mss_vaet::read::{figure9, optimal_read_period};

fn main() {
    let ctx = standard_context(TechNode::N45);
    let points = figure9(&ctx, &fig9_periods());
    println!("Fig. 9: read disturb probabilities for different read periods (45 nm)\n");
    println!(
        "{:<14} | {:>18} | {:>14}",
        "read period", "disturb prob", "RER"
    );
    for p in &points {
        println!(
            "{:<14} | {:>18.3e} | {:>14.3e}",
            Eng(p.period, "s").to_string(),
            p.disturb_probability,
            p.read_error_rate
        );
    }
    let best = optimal_read_period(&ctx, 0.2e-9, 50e-9).expect("optimum");
    println!(
        "\noptimal read period balancing RER vs disturb: {} (RER {:.2e}, disturb {:.2e})",
        Eng(best.period, "s"),
        best.read_error_rate,
        best.disturb_probability
    );
    mss_bench::write_obs_artifacts("fig9");
}
