//! The seeded mutation schedule the text-input fuzz targets share: byte
//! flips, truncations, line splices and duplications, and swaps of
//! whitespace-separated tokens drawn from a grammar's own token tables.
//! Everything is driven by one SplitMix64 stream, so a target's cases are
//! the same on every machine.

use great_mss::units::rng::{Rng, SplitMix64};

/// The token tables a grammar is mutated with.
pub struct Grammar {
    /// Tokens that start a statement (element names, keys, dot-commands).
    pub statements: &'static [&'static str],
    /// Tokens anywhere after the first.
    pub arguments: &'static [&'static str],
    /// Bytes that move the tokenizer and value parser between states.
    pub bytes: &'static [u8],
}

/// A uniform index below `n` (0 when `n` is 0).
pub fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// Replaces one whitespace-separated token of a random line.
fn swap_token(rng: &mut SplitMix64, grammar: &Grammar, lines: &mut [String]) {
    if lines.is_empty() {
        return;
    }
    let li = below(rng, lines.len());
    let mut tokens: Vec<String> = lines[li].split_whitespace().map(str::to_string).collect();
    let at = below(rng, tokens.len() + 1);
    let token = if at == 0 || below(rng, 3) == 0 {
        grammar.statements[below(rng, grammar.statements.len())]
    } else {
        grammar.arguments[below(rng, grammar.arguments.len())]
    };
    if at < tokens.len() {
        tokens[at] = token.to_string();
    } else {
        tokens.push(token.to_string());
    }
    lines[li] = tokens.join(" ");
}

/// One to four mutations of `text`, splicing lines from `other`.
pub fn mutate(rng: &mut SplitMix64, grammar: &Grammar, text: &str, other: &str) -> String {
    let mut text = text.to_string();
    for _ in 0..=below(rng, 3) {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        match below(rng, 7) {
            0 | 1 => {
                let mut bytes = text.into_bytes();
                if !bytes.is_empty() {
                    let at = below(rng, bytes.len());
                    bytes[at] = match below(rng, 3) {
                        0 => bytes[at] ^ (1 << below(rng, 8)),
                        1 => grammar.bytes[below(rng, grammar.bytes.len())],
                        _ => rng.next_u64() as u8,
                    };
                }
                text = String::from_utf8_lossy(&bytes).into_owned();
                continue;
            }
            2 => {
                let mut bytes = text.into_bytes();
                bytes.truncate(below(rng, bytes.len() + 1));
                text = String::from_utf8_lossy(&bytes).into_owned();
                continue;
            }
            3 => {
                // Line splice: a run of lines from the other document.
                let donor: Vec<&str> = other.lines().collect();
                let from = below(rng, donor.len());
                let n = 1 + below(rng, 4);
                let run = donor.iter().skip(from).take(n).map(|l| l.to_string());
                let at = below(rng, lines.len() + 1);
                lines.splice(at..at, run);
            }
            4 => {
                // Line duplication.
                if !lines.is_empty() {
                    let at = below(rng, lines.len());
                    let n = (1 + below(rng, 3)).min(lines.len() - at);
                    let dup: Vec<String> = lines[at..at + n].to_vec();
                    lines.splice(at..at, dup);
                }
            }
            _ => swap_token(rng, grammar, &mut lines),
        }
        text = lines.join("\n");
    }
    text
}
