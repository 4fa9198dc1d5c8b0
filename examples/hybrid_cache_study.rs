//! The MAGPIE cross-layer flow (paper Sec. IV): evaluate SRAM vs STT-MRAM
//! L2 scenarios on a big.LITTLE platform for a pair of kernels, printing the
//! Fig. 11-style breakdown and Fig. 12-style normalised merits.
//!
//! ```sh
//! cargo run --release --example hybrid_cache_study
//! ```

use great_mss::core::flow::{MagpieFlow, MagpieInputs};
use great_mss::core::scenario::Scenario;
use great_mss::exec::ParallelConfig;
use great_mss::gemsim::workload::Kernel;
use great_mss::pdk::tech::TechNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("MAGPIE hybrid cache study: bodytrack + streamcluster, 4 scenarios, 45 nm\n");
    let flow = MagpieFlow::new(MagpieInputs {
        node: TechNode::N45,
        kernels: vec![Kernel::bodytrack(), Kernel::streamcluster()],
        scenarios: Scenario::ALL.to_vec(),
        seed: 0xCAFE,
        sample_cap: 150_000,
        ..MagpieInputs::defaults()
    })?;
    println!(
        "cell library: write {:.2} ns / read {:.2} ns per cell\n",
        flow.cell_library().write.latency * 1e9,
        flow.cell_library().read.latency * 1e9
    );
    let report = flow.run_with(&ParallelConfig::from_env())?;
    println!("{}", report.fig11_table("bodytrack"));
    println!("{}", report.fig12_table());
    Ok(())
}
