//! VAET-STT design-space exploration: sweep array organisations under
//! different optimisation targets and constraints, then show the
//! variation-aware distributions of the chosen design.
//!
//! ```sh
//! cargo run --release --example memory_design_space
//! ```

use great_mss::exec::ParallelConfig;
use great_mss::mtj::MssStack;
use great_mss::nvsim::config::MemoryConfig;
use great_mss::nvsim::explore::{explore_with, DesignConstraints, OptimizationTarget};
use great_mss::nvsim::model::MemoryTechnology;
use great_mss::pdk::charlib::characterize_with;
use great_mss::pdk::tech::{TechNode, TechParams};
use great_mss::units::fmt::Eng;
use great_mss::vaet::context::VaetContext;
use great_mss::vaet::montecarlo::{run_with, MonteCarloOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let node = TechNode::N45;
    let tech = TechParams::node(node);
    let stack = MssStack::builder().build()?;
    let lib = characterize_with(&tech, &stack)?;
    let exec = ParallelConfig::from_env();
    let technology = MemoryTechnology::SttMram(lib);
    let base = MemoryConfig::ram(1 << 20, 128)?; // 1 MiB macro, 128-bit word

    println!("design-space exploration of a 1 MiB STT-MRAM macro at {node}\n");
    for target in [
        OptimizationTarget::ReadLatency,
        OptimizationTarget::WriteEnergy,
        OptimizationTarget::Area,
        OptimizationTarget::ReadEdp,
    ] {
        let exp = explore_with(
            &tech,
            &base,
            &technology,
            target,
            &DesignConstraints::default(),
            &exec,
        )?;
        let b = &exp.best;
        println!(
            "{target:?}: subarray {}x{} -> read {} | write {} | area {:.3} mm2 ({} candidates)",
            b.config.subarray_rows,
            b.config.subarray_cols,
            Eng(b.metrics.read_latency, "s"),
            Eng(b.metrics.write_latency, "s"),
            b.metrics.area * 1e6,
            exp.candidates.len()
        );
    }

    // Constrained run: cap the read latency, minimise energy.
    let tight = DesignConstraints {
        max_read_latency: Some(1.2e-9),
        ..Default::default()
    };
    let exp = explore_with(
        &tech,
        &base,
        &technology,
        OptimizationTarget::ReadEnergy,
        &tight,
        &exec,
    )?;
    println!(
        "\nread-latency-capped (<= 1.2 ns) energy optimum: subarray {}x{}, read {}",
        exp.best.config.subarray_rows,
        exp.best.config.subarray_cols,
        Eng(exp.best.metrics.read_latency, "s")
    );

    // Variation-aware view of the standard Table-1 array.
    println!("\nvariation-aware distributions (1024x1024 array):");
    let ctx = VaetContext::standard(node)?;
    let report = run_with(
        &ctx,
        &MonteCarloOptions {
            samples: 500,
            seed: 99,
            word_bits: None,
        },
        &exec,
    )?;
    println!("{}", report.to_table());
    Ok(())
}
