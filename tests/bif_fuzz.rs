//! BIF parser robustness (seeded sweep — the build environment has no
//! fuzzing or proptest crates): random byte-level mutations of real BIF
//! text must make `bif::parse_str` return `Ok` or a typed `Err`, never
//! panic. Every mutant that still parses must also compile and answer
//! a query without panicking.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fastbn::bayesnet::{bif, datasets};
use fastbn::{Evidence, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutants generated per source network.
const MUTANTS: usize = 4000;

/// Characters spliced into the text: the grammar's punctuation, digits,
/// number syntax, quotes, whitespace and a few identifier letters.
const ALPHABET: &[u8] = b"{}[]();,|0123456789.-+eE\" \n/*aXy";

/// Whole number-like words swapped in for a digit run.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "-1",
    "2",
    "1e309",
    "NaN",
    "inf",
    "0.5",
    "99999999999999999999",
    "",
];

/// Applies one random edit to `text`.
fn mutate(text: &mut Vec<u8>, rng: &mut StdRng) {
    if text.is_empty() {
        text.push(ALPHABET[rng.gen_range(0..ALPHABET.len())]);
        return;
    }
    let at = rng.gen_range(0..text.len());
    let len = rng.gen_range(1..=8).min(text.len() - at);
    match rng.gen_range(0..6usize) {
        // Delete a short span.
        0 => {
            text.drain(at..at + len);
        }
        // Duplicate a short span in place.
        1 => {
            let span: Vec<u8> = text[at..at + len].to_vec();
            text.splice(at..at, span);
        }
        // Overwrite one byte.
        2 => text[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())],
        // Insert one byte.
        3 => text.insert(at, ALPHABET[rng.gen_range(0..ALPHABET.len())]),
        // Replace the digit run (if any) starting at or after `at`.
        4 => {
            let Some(start) = text[at..].iter().position(u8::is_ascii_digit) else {
                return;
            };
            let start = at + start;
            let end = text[start..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .map_or(text.len(), |n| start + n);
            let number = NUMBERS[rng.gen_range(0..NUMBERS.len())];
            text.splice(start..end, number.bytes());
        }
        // Delete the whole line containing `at`.
        _ => {
            let start = text[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |n| n + 1);
            let end = text[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |n| at + n);
            text.drain(start..end);
        }
    }
}

/// Parses `text`; on success compiles it and runs one all-marginals
/// query. Returns whether it parsed. Panics propagate to the caller.
fn parse_compile_query(text: &str) -> bool {
    let Ok(net) = bif::parse_str(text) else {
        return false;
    };
    let solver = Solver::new(&net);
    let _ = solver.posteriors(&Evidence::empty());
    true
}

#[test]
fn mutated_bif_text_never_panics() {
    let sources = [
        ("asia", datasets::asia()),
        ("sprinkler", datasets::sprinkler()),
        ("student", datasets::student()),
    ];
    for (seed, (name, net)) in sources.iter().enumerate() {
        let original = bif::to_bif_string(net).into_bytes();
        let mut rng = StdRng::seed_from_u64(0xB1F + seed as u64);
        let mut parsed = 0usize;
        for case in 0..MUTANTS {
            let mut text = original.clone();
            for _ in 0..rng.gen_range(1..=3) {
                mutate(&mut text, &mut rng);
            }
            let text = String::from_utf8(text).expect("mutations keep ASCII text ASCII");
            match catch_unwind(AssertUnwindSafe(|| parse_compile_query(&text))) {
                Ok(ok) => parsed += usize::from(ok),
                Err(_) => panic!("{name} mutant {case} panicked; input:\n{text}"),
            }
        }
        // The sweep must exercise both outcomes, or it tests nothing.
        assert!(parsed > 0, "{name}: no mutant parsed");
        assert!(parsed < MUTANTS, "{name}: every mutant parsed");
    }
}
