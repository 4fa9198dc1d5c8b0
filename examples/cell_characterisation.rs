//! The Sec. IV-A circuit-level flow, end to end: netlist template →
//! `mss-spice` transient → MDL measurements → cell configuration file →
//! parse-back. This is the exact loop of the paper's Fig. 10 left column.
//!
//! ```sh
//! cargo run --release --example cell_characterisation
//! ```

use great_mss::mtj::MssStack;
use great_mss::pdk::charlib::{characterize_with, CellLibrary};
use great_mss::pdk::tech::{TechNode, TechParams};
use great_mss::spice::mdl::Report;
use great_mss::units::fmt::Eng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stack = MssStack::builder().build()?;
    for node in TechNode::ALL {
        println!("characterising the 1T-1MTJ cell at {node} ...");
        let lib = characterize_with(&TechParams::node(node), &stack)?;
        println!(
            "  access device width: {:.0} nm ({:.1} F)",
            lib.access_width * 1e9,
            lib.access_width
                / match node {
                    TechNode::N45 => 45e-9,
                    TechNode::N65 => 65e-9,
                }
        );
        println!(
            "  write: {} / {} @ {}",
            Eng(lib.write.latency, "s"),
            Eng(lib.write.energy, "J"),
            Eng(lib.write.current, "A")
        );
        println!(
            "  read : {} / {} @ {}",
            Eng(lib.read.latency, "s"),
            Eng(lib.read.energy, "J"),
            Eng(lib.read.current, "A")
        );
        println!("  cell area: {:.4} um^2", lib.cell_area * 1e12);

        // The "output measurement file ... parsed to extract the required
        // cell level parameters" round trip.
        let text = lib.to_report().to_text();
        println!("\n  cell configuration file:\n{}", indent(&text, "    "));
        let parsed = CellLibrary::from_report(&Report::parse(&text)?)?;
        assert_eq!(parsed.node, lib.node);
        println!("  parse-back check: OK\n");
    }
    Ok(())
}

fn indent(text: &str, pad: &str) -> String {
    text.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
