//! Corner-based signoff sweep: characterises the 1T-1MTJ cell at the five
//! classic process corners next to the statistical (VAET) flow.

use mss_mtj::MssStack;
use mss_pdk::charlib::characterize_corners;
use mss_pdk::tech::TechNode;
use mss_units::fmt::Eng;

fn main() {
    let stack = MssStack::builder().build().expect("default stack");
    for node in TechNode::ALL {
        println!("process-corner characterisation at {node}:");
        println!(
            "{:>6} | {:>12} | {:>14} | {:>14} | {:>12}",
            "corner", "access W", "write latency", "write energy", "read latency"
        );
        let libs = characterize_corners(node, &stack).expect("corner sweep");
        for (corner, lib) in &libs {
            println!(
                "{:>6} | {:>12} | {:>14} | {:>14} | {:>12}",
                corner.to_string(),
                Eng(lib.access_width, "m").to_string(),
                Eng(lib.write.latency, "s").to_string(),
                Eng(lib.write.energy, "J").to_string(),
                Eng(lib.read.latency, "s").to_string()
            );
        }
        println!();
    }
    mss_bench::write_obs_artifacts("corners");
}
