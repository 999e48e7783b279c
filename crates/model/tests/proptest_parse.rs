//! Parse-level robustness of the text format: `io::from_str` never panics
//! on a mutated instance text, and every instance it accepts round-trips
//! through `io::to_string` to the same digest.

use eblow_model::io::{from_str, to_string};
use eblow_model::{Character, Instance, Stencil};
use proptest::prelude::*;

/// Tokens a mutation writes in place of another: the smallest counts, and
/// values at and past the sums' overflow line.
const EXTREMES: [&str; 4] = ["0", "1", "9223372036854775808", "18446744073709551615"];

/// A small legal instance: row-structured or free-form, P = 1 or P = 10,
/// up to seven candidates (none included).
fn instance() -> impl Strategy<Value = Instance> {
    (
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(
            (
                10u64..80,
                10u64..80,
                0u64..12,
                0u64..12,
                0u64..12,
                1u64..200,
            ),
            0..8,
        ),
        prop::collection::vec(0u64..20, 70),
    )
        .prop_map(|(rows, mcc, chars, reps)| {
            let regions = if mcc { 10 } else { 1 };
            let stencil = if rows {
                Stencil::with_rows(1000, 400, 80).unwrap()
            } else {
                Stencil::new(1000, 400).unwrap()
            };
            let chars: Vec<Character> = chars
                .into_iter()
                .map(|(w, h, bl, br, bv, shots)| {
                    let (bl, br, bv) = (bl.min(w / 2), br.min(w / 2), bv.min(h / 2));
                    Character::new(w, h, [bl, br, bv, bv], shots).unwrap()
                })
                .collect();
            let flat = reps[..chars.len() * regions].to_vec();
            Instance::from_flat(stencil, chars, flat, regions).unwrap()
        })
}

/// Applies one edit to the text's lines, at line `a mod len`: `kind` 0
/// writes an extreme value over one of its tokens, 1 gives the region or
/// character count a value beyond the lines present, 2 drops the line and
/// 3 duplicates it.
fn mutate(lines: &mut Vec<String>, kind: u8, a: u64, b: u64) {
    if lines.is_empty() {
        return;
    }
    let at = (a % lines.len() as u64) as usize;
    match kind {
        0 => {
            let mut toks: Vec<&str> = lines[at].split_whitespace().collect();
            let k = (b % toks.len() as u64) as usize;
            toks[k] = EXTREMES[(b >> 32) as usize % EXTREMES.len()];
            lines[at] = toks.join(" ");
        }
        1 => {
            let key = if b & 1 == 0 { "regions " } else { "chars " };
            let beyond = lines.len() as u64 + 1 + (b >> 1) % 4;
            if let Some(line) = lines.iter_mut().find(|l| l.starts_with(key)) {
                *line = format!("{key}{beyond}");
            }
        }
        2 => {
            lines.remove(at);
        }
        _ => {
            let copy = lines[at].clone();
            lines.insert(at, copy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Up to three edits of a written instance either fail to parse or
    /// parse to an instance that writes and re-reads to the same digest.
    /// The unedited text, and the text with one repeat set to 1, always
    /// parse to the instance they describe.
    #[test]
    fn mutated_texts_are_errors_or_round_trip(
        inst in instance(),
        edits in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..4),
        pick in any::<u64>(),
    ) {
        let text = to_string(&inst);
        prop_assert_eq!(&from_str(&text).unwrap(), &inst);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();

        if inst.num_chars() > 0 {
            // The character table starts on the fifth line.
            let (i, c) = (pick as usize % inst.num_chars(), (pick >> 32) as usize % inst.num_regions());
            let mut edited = lines.clone();
            let mut toks: Vec<&str> = edited[4 + i].split_whitespace().collect();
            toks[7 + c] = "1";
            edited[4 + i] = toks.join(" ");
            let parsed = from_str(&edited.join("\n")).unwrap();
            prop_assert_eq!(parsed.repeats(i, c), 1);
            prop_assert_eq!(from_str(&to_string(&parsed)).unwrap().digest(), parsed.digest());
        }

        for &(kind, a, b) in &edits {
            mutate(&mut lines, kind, a, b);
        }
        if let Ok(parsed) = from_str(&lines.join("\n")) {
            let back = from_str(&to_string(&parsed));
            prop_assert!(back.is_ok(), "{:?}", back);
            let back = back.unwrap();
            prop_assert_eq!(back.digest(), parsed.digest());
            prop_assert_eq!(back, parsed);
        }
    }
}
