//! The committed baselines (`results/BENCH_<bin>.json`) match the
//! binaries that cut them: each parses, is named after its file, and
//! belongs to a binary that still writes that run report. Every figure and
//! table binary of the paper has one.

use std::path::{Path, PathBuf};

use mss_prof::Baseline;

/// The binaries that regenerate the paper's figures, its table and its
/// three operating modes; each gates its run report against a baseline.
const FIGURE_BINARIES: [&str; 9] = [
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "fig12",
    "table1",
    "corners",
    "mss_modes",
    "iot_reliability",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The stems `<bin>` of every committed `results/BENCH_<bin>.json`.
fn baseline_stems() -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(repo_root().join("results"))
        .expect("results directory")
        .filter_map(|entry| {
            let name = entry.expect("results entry").file_name();
            let stem = name
                .to_str()?
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?;
            Some(stem.to_string())
        })
        .collect();
    stems.sort();
    stems
}

#[test]
fn every_baseline_belongs_to_a_binary_that_writes_its_report() {
    let stems = baseline_stems();
    assert!(!stems.is_empty(), "no committed baselines found");
    for stem in &stems {
        let path = repo_root().join(format!("results/BENCH_{stem}.json"));
        let text = std::fs::read_to_string(&path).expect("read baseline");
        let baseline = Baseline::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(&baseline.name, stem, "{}: name field", path.display());

        let bin = repo_root().join(format!("crates/bench/src/bin/{stem}.rs"));
        let source = std::fs::read_to_string(&bin)
            .unwrap_or_else(|e| panic!("BENCH_{stem}.json has no binary {}: {e}", bin.display()));
        let call = format!("write_obs_artifacts(\"{stem}\")");
        assert!(
            source.contains(&call),
            "{} does not call {call}",
            bin.display()
        );
    }
}

#[test]
fn every_figure_binary_has_a_baseline() {
    let stems = baseline_stems();
    for bin in FIGURE_BINARIES {
        assert!(
            stems.iter().any(|s| s == bin),
            "results/BENCH_{bin}.json is missing"
        );
    }
}
