//! Experiment binaries for every data-bearing table and figure of the
//! paper, plus shared helpers for them and the smoke gates.
//!
//! Each experiment has a binary (`cargo run -p mss-bench --release --bin
//! <id>`) that prints the paper-style rows; the cost of regenerating them
//! is timed by the separate `perfbench/` benchmark. The mapping to the
//! paper lives in `DESIGN.md` §4; measured-vs-paper numbers are recorded
//! in `EXPERIMENTS.md`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use mss_mtj::{MssStack, SotParams};
use mss_nvsim::config::MemoryConfig;
use mss_pdk::tech::TechNode;
use mss_vaet::context::VaetContext;

/// Builds the Table-1 standard context (1024×1024 array) for a node.
///
/// # Panics
///
/// Panics when the nominal flow fails — experiment binaries treat that as a
/// fatal setup error.
pub fn standard_context(node: TechNode) -> VaetContext {
    VaetContext::standard(node).expect("standard VAET context must build")
}

/// The SOT twin of [`standard_context`]: the same 1024×1024 array on the
/// three-terminal SOT/SHE cell with the default β-W channel — the
/// mechanism comparison rows of the Table-1 experiment.
///
/// # Panics
///
/// Panics when the nominal flow fails — experiment binaries treat that as a
/// fatal setup error.
pub fn standard_sot_context(node: TechNode) -> VaetContext {
    let stack = MssStack::builder().build().expect("reference stack");
    let config = MemoryConfig::new(
        1024 * 1024 / 8,
        1024,
        1,
        1024,
        1024,
        mss_nvsim::config::MemoryKind::Ram,
    )
    .expect("standard array organisation");
    VaetContext::build_sot(node, stack, config, SotParams::default())
        .expect("standard SOT VAET context must build")
}

/// The error-rate targets swept in Fig. 7.
pub const FIG7_TARGETS: [f64; 3] = [1e-5, 1e-10, 1e-15];

/// The uncorrectable-error target of Fig. 8 ("WER of 1 × 10⁻¹⁸").
pub const FIG8_TARGET: f64 = 1e-18;

/// Read periods swept in Fig. 9 (seconds): sub-ns points show the RER
/// falling, the ns points show the disturb growing.
pub fn fig9_periods() -> Vec<f64> {
    vec![
        0.1e-9, 0.2e-9, 0.3e-9, 0.5e-9, 1e-9, 2e-9, 3e-9, 5e-9, 7e-9, 10e-9,
    ]
}

/// Writes one regenerated result file, creating its parent directory, and
/// exits non-zero with the path and the error when either step fails: a
/// silently failed write would leave a stale committed file looking freshly
/// regenerated.
pub fn write_result(path: &str, content: &str) {
    let dir = std::path::Path::new(path).parent();
    let written = dir.map_or(Ok(()), std::fs::create_dir_all);
    if let Err(e) = written.and_then(|()| std::fs::write(path, content)) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Writes the enabled observability registry as this binary's NDJSON run
/// report (`MSS_OBS_OUT`, default `target/<name>.ndjson`), round-tripped
/// through the `mss-prof` schema validator before it is trusted — an
/// emitter regression fails the run, not a later consumer — and
/// prints one status line.
///
/// Baselines are cut from and checked against this file after the run:
/// `mss_report baseline target/<name>.ndjson --name <name> --out
/// results/BENCH_<name>.json` and `mss_report check`. Span timelines are
/// not written here: run with `MSS_EVENTS_PATH=<file>` as well and export
/// that stream with `mss_report chrome-trace`.
///
/// No-op (with a hint) when observability is disabled.
///
/// # Panics
///
/// When the emitted report fails schema validation or cannot be written —
/// both are fatal infrastructure bugs for a figure or smoke binary.
pub fn write_obs_artifacts(name: &str) {
    if !mss_obs::enabled() {
        println!("obs      : disabled (set MSS_METRICS=1 for an NDJSON run report)");
        return;
    }
    let text = mss_obs::report_ndjson();
    let report = mss_prof::Report::parse_ndjson(&text)
        .unwrap_or_else(|e| panic!("emitted NDJSON failed schema validation: {e}"));
    let path = std::env::var("MSS_OBS_OUT").unwrap_or_else(|_| format!("target/{name}.ndjson"));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write run report {path}: {e}"));
    println!(
        "obs      : {} NDJSON lines (schema v{}, validated) -> {path}",
        text.lines().count(),
        report.meta.schema
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_consistent() {
        assert_eq!(FIG7_TARGETS.len(), 3);
        assert_eq!(fig9_periods().len(), 10);
    }
}
