//! Deterministic fuzzing of the SPICE deck parser.
//!
//! The corpus is the characterisation flow's own decks, expanded from the
//! `mss_pdk::cells` templates at 45 nm (`tests/fixtures/spice_45nm`: the
//! STT and SOT write and read decks and the NVFF backup deck), plus one
//! small deck that reaches the grammar those leave out (current sources,
//! bare-value DC, `LEVEL=`, `;` comments, `.end`). A seeded SplitMix64 schedule mutates them
//! with byte flips, truncations, line splices and duplications, and swaps of
//! element and command tokens drawn from the common SPICE grammar (the
//! element letters and dot-commands of the spicier parser's table). The
//! schedule lives in `tests/fuzz/mod.rs`, shared with the MDL target.
//!
//! `Deck::parse` must never panic, every error must be a
//! `SpiceError::Parse` naming a line of the input, and every `.tran` it
//! accepts must be a window `TransientOptions::new` accepts. The run is the same on
//! every machine: the seed, the corpus and the mutation schedule are fixed.

mod fuzz;

use std::panic::{catch_unwind, AssertUnwindSafe};

use fuzz::{below, mutate, Grammar};
use great_mss::spice::analysis::TransientOptions;
use great_mss::spice::parser::Deck;
use great_mss::spice::SpiceError;
use great_mss::units::rng::SplitMix64;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/spice_45nm");
const DECKS: [&str; 5] = [
    "stt_write.sp",
    "stt_read.sp",
    "sot_write.sp",
    "sot_read.sp",
    "nvff_backup.sp",
];
const CASES: usize = 20_000;

/// Statements the characterisation decks never use.
const GRAMMAR_DECK: &str = "* grammar coverage
.model NMOS LEVEL=1 VTH=0.4 KP=200u LAMBDA=0.05 ; trailing comment
VIN in 0 1
IB 0 p DC 1u
IP p 0 PULSE(0 1u 1n 10p 10p 1n 0)
R1 in out 1k
C1 out GND 10f
M1 out in 0 0 nmos w=200n l=45n
X2 p 0 MTJ STATE=P DIAMETER=40n
.tran 1p 2n
.end
Q1 statements after .end are never read
";

/// Element names and dot-commands a SPICE deck is built from.
const STATEMENT_TOKENS: &[&str] = &[
    "R1", "C1", "L1", "V1", "I1", "D1", "M1", "E1", "G1", "F1", "H1", "B1", "X1", ".op", ".dc",
    ".ac", ".tran", ".print", ".ic", ".model", ".subckt", ".ends", ".end", ".meas", ".measure",
];

/// Argument tokens the parser dispatches on.
const ARGUMENT_TOKENS: &[&str] = &[
    "NMOS", "PMOS", "MTJ", "MTJSOT", "DC", "PULSE(", "SIN(", "PWL(", ")", "(", "STATE=AP",
    "STATE=", "W=", "L=", "=", "VAL=", "v(", "i()", "TRIG", "TARG", "0", "gnd", "1meg", "-1e400",
    "1e-400", "nan", "inf", "2.5.3", "1kk", "1e",
];

/// Bytes that move the tokenizer and value parser between states.
const BYTES: &[u8] = b"()=*;.,+-e \t\n0123456789kmunpfgtxX";

const SPICE: Grammar = Grammar {
    statements: STATEMENT_TOKENS,
    arguments: ARGUMENT_TOKENS,
    bytes: BYTES,
};

fn corpus() -> Vec<String> {
    let mut docs: Vec<String> = DECKS
        .iter()
        .map(|f| std::fs::read_to_string(format!("{FIXTURES}/{f}")).unwrap())
        .collect();
    docs.push(GRAMMAR_DECK.to_string());
    docs
}

#[test]
fn mutated_decks_never_panic_and_errors_name_a_line() {
    let docs = corpus();
    for (i, doc) in docs.iter().enumerate() {
        Deck::parse(doc).unwrap_or_else(|e| panic!("corpus deck {i} must parse: {e}"));
    }
    let mut rng = SplitMix64::new(0x7370_6963_6566_757a);
    let (mut rejected, mut accepted) = (0usize, 0usize);
    for case in 0..CASES {
        let doc = &docs[case % docs.len()];
        let other = &docs[below(&mut rng, docs.len())];
        let text = mutate(&mut rng, &SPICE, doc, other);
        let parsed = catch_unwind(AssertUnwindSafe(|| Deck::parse(&text)))
            .unwrap_or_else(|_| panic!("case {case}: Deck::parse panicked on:\n{text}"));
        match parsed {
            Ok(deck) => {
                // A `.tran` that parses is a window the transient accepts.
                if let Some((dt, stop)) = deck.tran {
                    catch_unwind(|| TransientOptions::new(dt, stop)).unwrap_or_else(|_| {
                        panic!("case {case}: `.tran {dt:e} {stop:e}` parsed:\n{text}")
                    });
                }
                accepted += 1;
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
    // The schedule really reached both outcomes.
    assert!(rejected > CASES / 4, "only {rejected} decks rejected");
    assert!(accepted > CASES / 20, "only {accepted} decks accepted");
}
