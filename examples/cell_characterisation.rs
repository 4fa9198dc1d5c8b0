//! The Sec. IV-A circuit-level flow, end to end: netlist template →
//! `mss-spice` transient → MDL measurements → cell configuration file →
//! reload. This is the exact loop of the paper's Fig. 10 left column, for
//! the 1T-1MTJ STT cell and the three-terminal SOT cell at both nodes.
//!
//! The cell configuration file is the `CharacterizeCells` entry the flow
//! writes to its on-disk cache (under `target/cell_characterisation/`);
//! each one is reloaded from a fresh cache and checked bit for bit.
//!
//! ```sh
//! cargo run --release --example cell_characterisation
//! ```

use std::path::Path;
use std::sync::Arc;

use great_mss::mtj::{MssStack, SotParams};
use great_mss::pdk::charlib::{characterize_cached, characterize_sot_cached, CellLibrary};
use great_mss::pdk::tech::TechNode;
use great_mss::pdk::PdkError;
use great_mss::pipe::{Artifact, PipeCache, Stage};
use great_mss::units::fmt::Eng;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

fn main() -> Result<()> {
    let stack = MssStack::builder().build()?;
    let sot = SotParams::default();
    let root = Path::new("target/cell_characterisation");
    // Start cold, so every first call characterises instead of loading.
    let _ = std::fs::remove_dir_all(root);
    for node in TechNode::ALL {
        println!("characterising the 1T-1MTJ cell at {node} ...");
        let dir = root.join(format!("stt-{node:?}"));
        let lib = characterize_cached(node, &stack, &PipeCache::with_disk(&dir))?;
        print_metrics(&lib, node);
        reload(&dir, &*lib, |cache| {
            characterize_cached(node, &stack, cache)
        })?;

        println!("characterising the three-terminal SOT cell at {node} ...");
        let dir = root.join(format!("sot-{node:?}"));
        let lib = characterize_sot_cached(node, &stack, &sot, &PipeCache::with_disk(&dir))?;
        print_metrics(&lib.base, node);
        println!(
            "  channel resistance: {}",
            Eng(lib.channel_resistance, "ohm")
        );
        reload(&dir, &*lib, |cache| {
            characterize_sot_cached(node, &stack, &sot, cache)
        })?;
    }
    Ok(())
}

fn print_metrics(lib: &CellLibrary, node: TechNode) {
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
}

/// Prints the one cell configuration file in `dir`, reloads it through a
/// fresh cache and checks that the reload is a disk hit, bit-equal to `lib`.
fn reload<T: Artifact>(
    dir: &Path,
    lib: &T,
    characterise: impl FnOnce(&PipeCache) -> std::result::Result<Arc<T>, PdkError>,
) -> Result<()> {
    let mut entries = std::fs::read_dir(dir)?.collect::<std::io::Result<Vec<_>>>()?;
    assert_eq!(entries.len(), 1, "one entry in {}", dir.display());
    let path = entries.remove(0).path();
    let text = std::fs::read_to_string(&path)?;
    println!(
        "\n  cell configuration file {}:\n{}",
        path.display(),
        indent(&text, "    ")
    );
    let cache = PipeCache::with_disk(dir);
    let back = characterise(&cache)?;
    let s = cache.stats(Stage::CharacterizeCells);
    assert_eq!((s.disk_hits, s.misses), (1, 0), "{s:?}");
    // The encoding holds every field's exact bits.
    assert_eq!(back.encode(), lib.encode());
    println!("  reload check: disk hit, bit-equal\n");
    Ok(())
}

fn indent(text: &str, pad: &str) -> String {
    text.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
