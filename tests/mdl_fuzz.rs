//! Deterministic fuzzing of the cell-configuration file parser.
//!
//! The corpus is the characterisation flow's own cell-configuration files:
//! the 45 and 65 nm STT and SOT libraries written by
//! `CellLibrary::to_report().to_text()`. The seeded mutation schedule of
//! `tests/fuzz/mod.rs` (shared with the SPICE parser target) mutates them
//! with byte flips, truncations, line splices and duplications, and swaps of
//! keys and value tokens. Each result goes through `Report::parse` and, when
//! it parses, `CellLibrary::from_report`.
//!
//! Neither may panic, and every parse error must be a `SpiceError::Parse`
//! naming a line of the input. The run is the same on every machine: the
//! seed, the corpus and the mutation schedule are fixed.

mod fuzz;

use std::panic::{catch_unwind, AssertUnwindSafe};

use fuzz::{below, mutate, Grammar};
use great_mss::mtj::mechanism::SotParams;
use great_mss::mtj::MssStack;
use great_mss::pdk::charlib::{characterize_sot_with, characterize_with, CellLibrary};
use great_mss::pdk::tech::{TechNode, TechParams};
use great_mss::spice::mdl::Report;
use great_mss::spice::SpiceError;
use great_mss::units::rng::SplitMix64;

const CASES: usize = 20_000;

/// The keys of a cell-configuration file, and the comment markers.
const KEYS: &[&str] = &[
    "node_nm",
    "write_latency",
    "write_energy",
    "write_current",
    "read_latency",
    "read_energy",
    "read_current",
    "access_width",
    "cell_area",
    "leakage",
    "critical_current",
    "delta",
    "r_parallel",
    "r_antiparallel",
    "#",
    "*",
];

/// Value tokens: separators, node values, and numbers at the edges of the
/// `f64` grammar.
const VALUES: &[&str] = &[
    "=", "==", "45", "65", "0", "-0", "1e-9", "nan", "NaN", "inf", "-inf", "infinity", "1e400",
    "1e-400", "5e-324", "0x1p3", "1_000", "2.5.3", "1e", "+", ".", "",
];

/// Bytes that move the line splitter and number parser between states.
const BYTES: &[u8] = b"=#*.+-eE \t\n0123456789_ainf";

const MDL: Grammar = Grammar {
    statements: KEYS,
    arguments: VALUES,
    bytes: BYTES,
};

fn corpus() -> Vec<String> {
    let stack = MssStack::builder().build().unwrap();
    let mut docs = Vec::new();
    for node in [TechNode::N45, TechNode::N65] {
        let tech = TechParams::node(node);
        let stt = characterize_with(&tech, &stack).unwrap();
        let sot = characterize_sot_with(&tech, &stack, &SotParams::default()).unwrap();
        docs.push(stt.to_report().to_text());
        docs.push(sot.base.to_report().to_text());
    }
    docs
}

#[test]
fn mutated_cell_files_never_panic_and_errors_name_a_line() {
    let docs = corpus();
    for (i, doc) in docs.iter().enumerate() {
        let report = Report::parse(doc).unwrap_or_else(|e| panic!("corpus file {i}: {e}"));
        CellLibrary::from_report(&report).unwrap_or_else(|e| panic!("corpus file {i}: {e}"));
    }
    let mut rng = SplitMix64::new(0x6d64_6c66_757a_7a31);
    let (mut rejected, mut decoded, mut refused) = (0usize, 0usize, 0usize);
    for case in 0..CASES {
        let doc = &docs[case % docs.len()];
        let other = &docs[below(&mut rng, docs.len())];
        let text = mutate(&mut rng, &MDL, doc, other);
        let parsed = catch_unwind(AssertUnwindSafe(|| Report::parse(&text)))
            .unwrap_or_else(|_| panic!("case {case}: Report::parse panicked on:\n{text}"));
        match parsed {
            Ok(report) => {
                let lib = catch_unwind(AssertUnwindSafe(|| CellLibrary::from_report(&report)))
                    .unwrap_or_else(|_| panic!("case {case}: from_report panicked on:\n{text}"));
                match lib {
                    Ok(_) => decoded += 1,
                    Err(_) => refused += 1,
                }
            }
            Err(SpiceError::Parse { line, message }) => {
                let lines = text.lines().count().max(1);
                assert!(
                    (1..=lines).contains(&line),
                    "case {case}: line {line} of {lines} ({message}) in:\n{text}"
                );
                rejected += 1;
            }
            Err(other) => panic!("case {case}: not a parse error: {other:?}\n{text}"),
        }
    }
    // The schedule really reached every outcome (most mutations of a short
    // file break a line or repeat a key; ~2.5 % still decode).
    assert!(rejected > CASES / 2, "only {rejected} files rejected");
    assert!(decoded > CASES / 100, "only {decoded} files decoded");
    assert!(
        refused > CASES / 20,
        "only {refused} files refused by from_report"
    );
}
