//! IoT reliability study (extension experiments beyond the paper's
//! figures): the flow's behaviour across the industrial temperature range,
//! the stray-field co-integration budget, and the variation-aware
//! memory-configuration optimum.

use mss_bench::standard_context;
use mss_exec::ParallelConfig;
use mss_mtj::astroid;
use mss_pdk::tech::TechNode;
use mss_units::consts::am_to_oe;
use mss_units::fmt::Eng;
use mss_vaet::optimize::{
    explore_variation_aware_with, ReliabilityRequirements, VariationAwareTarget,
};
use mss_vaet::temperature::{iot_corners, temperature_sweep};

fn main() {
    let ctx = standard_context(TechNode::N45);

    // --- Temperature corners ---
    println!("IoT temperature corners (1024x1024 array, 45 nm, WER target 1e-9)\n");
    println!(
        "{:>8} | {:>8} | {:>14} | {:>16} | {:>14}",
        "T (degC)", "delta", "retention", "margined write", "disturb @5ns"
    );
    let pts = temperature_sweep(&ctx, &iot_corners(), 1e-9).expect("temperature sweep");
    for p in &pts {
        println!(
            "{:>8.0} | {:>8.1} | {:>11.2e} s | {:>16} | {:>14.2e}",
            p.temperature - 273.15,
            p.delta,
            p.retention_seconds,
            Eng(p.margined_write_latency, "s").to_string(),
            p.read_disturb_5ns
        );
    }

    // --- Co-integration stray-field budget ---
    let stack = &ctx.stack;
    let ten_years = 10.0 * 365.25 * 86400.0;
    let budget = astroid::max_tolerable_stray_field(stack, ten_years).expect("stray budget");
    println!(
        "\nco-integration: a memory pillar keeps 10-year retention below {:.0} Oe of\n\
         in-plane stray field (sensor bias magnets produce {:.0} Oe locally — the\n\
         patterned-magnet layout must decay their tail by {:.0}x at the nearest bit).",
        am_to_oe(budget),
        am_to_oe(1.1 * stack.hk_eff()),
        1.1 * stack.hk_eff() / budget
    );

    // --- Variation-aware configuration optimisation ---
    println!("\nvariation-aware organisation search (WER/RER targets 1e-15):");
    let exp = explore_variation_aware_with(
        &ctx,
        VariationAwareTarget::WriteLatency,
        &ReliabilityRequirements::default(),
        &ParallelConfig::from_env(),
    )
    .expect("exploration");
    let b = &exp.best;
    println!(
        "  best subarray {}x{}: margined write {} (nominal {}), margined read {}",
        b.config.subarray_rows,
        b.config.subarray_cols,
        Eng(b.margined_write_latency, "s"),
        Eng(b.nominal.write_latency, "s"),
        Eng(b.margined_read_latency, "s")
    );
    println!(
        "  ({} feasible organisations evaluated)",
        exp.candidates.len()
    );
    mss_bench::write_obs_artifacts("iot_reliability");
}
