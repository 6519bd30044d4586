//! Borrowed content path vs owning reference (`simllm::reference`).
//!
//! The simulator's attention model, section parser, token counter and
//! reflection-filter overlap hand out borrowed lines and tokenise ASCII
//! in place. They must agree bit for bit with the owning path they
//! replaced — same lines, same sections, same counts, same `f64`, same
//! RNG draws — on any input, not only the ASCII prompts the pipeline
//! builds. The alphabet below mixes ASCII with characters whose Unicode
//! case mapping is irregular: U+212A KELVIN SIGN lower-cases to ASCII
//! `k`, U+0130 `İ` lower-cases to two characters, `ſ` upper-cases to
//! ASCII `S`, final `Σ` lower-cases by context, and U+0085 / U+00A0 /
//! `\x0B` are whitespace to `split_whitespace`. Short tokens (≤ 2 bytes),
//! empty sections and CRLF line ends are all in range.

use proptest::collection;
use proptest::prelude::*;
use simllm::rng::{noise, rng_for};
use simllm::{context, reference, tasks, ModelProfile};

/// ASCII token material: letters and digits of both cases, short runs,
/// and every ASCII character `split_whitespace` treats as a separator.
const ASCII_LINE: &str = "[a-dA-DkKsS0-9 \t\u{b}\u{c}\r_.:#-]{0,24}";

/// The same with the irregular characters named above mixed in; such a
/// line sends the whole overlap down the reference path.
const UNICODE_LINE: &str =
    "[a-dA-DkKsS0-9 \t\u{b}_.:#\u{212A}\u{130}\u{17F}\u{3A3}\u{E9}\u{DF}\u{85}\u{A0}-]{0,24}";

/// Runs on both sides of the 16-byte limit of the packed token form
/// (longer tokens send the overlap down the reference path).
const LONG_TOKEN: &str = "[a-cA-C0-9]{12,24}";

/// Lines that open sections the filter and the parser look for,
/// including a non-ASCII spelling that only Unicode upper-casing matches.
const HEADERS: [&str; 7] = [
    "## FRAGMENT",
    "## SOURCE",
    "  ## source notes  ",
    "## \u{17F}ource",
    "## SUMMARY 1 I/O",
    "##  ",
    "### TASK: filter",
];

/// A prompt of `lines`, where a line index drawn below seven becomes the
/// matching header, joined with LF or CRLF.
fn prompt(lines: &[String], headers: &[usize], crlf: bool) -> String {
    let sep = if crlf { "\r\n" } else { "\n" };
    lines
        .iter()
        .zip(headers.iter().cycle())
        .map(|(l, &h)| HEADERS.get(h).copied().unwrap_or(l))
        .collect::<Vec<_>>()
        .join(sep)
}

fn profile(context_tokens: usize) -> ModelProfile {
    ModelProfile {
        context_tokens,
        ..simllm::profile_or_panic("gpt-4o-mini").clone()
    }
}

proptest! {
    /// Token counts agree with `split_whitespace` on any text.
    #[test]
    fn count_tokens_matches_reference(
        ascii in collection::vec(ASCII_LINE, 0..6),
        unicode in collection::vec(UNICODE_LINE, 0..2),
    ) {
        let ascii = ascii.join("\r\n");
        prop_assert_eq!(context::count_tokens(&ascii), reference::count_tokens(&ascii));
        let mixed = format!("{ascii}\n{}", unicode.join("\n"));
        prop_assert_eq!(context::count_tokens(&mixed), reference::count_tokens(&mixed));
    }

    /// Attention keeps the same lines with the same draws, in all three
    /// load regimes (small budgets make heavy and truncated loads common).
    #[test]
    fn attend_matches_reference(
        ascii in collection::vec(ASCII_LINE, 0..40),
        unicode in collection::vec(UNICODE_LINE, 0..3),
        headers in collection::vec(0usize..14, 1..8),
        crlf in 0u8..2,
        budget in 2usize..120,
        salt in 0u64..1_000,
    ) {
        let p = profile(budget);
        let lines: Vec<String> = ascii.into_iter().chain(unicode).collect();
        let text = prompt(&lines, &headers, crlf == 1);
        let mut rng_new = rng_for(p.name, &text, salt);
        let mut rng_ref = rng_for(p.name, &text, salt);
        let new = context::attend(&p, &text, &mut rng_new);
        let old = reference::attend(&p, &text, &mut rng_ref);
        prop_assert_eq!(&new.lines, &old.lines);
        prop_assert_eq!(new.input_tokens, old.input_tokens);
        prop_assert_eq!(new.truncated, old.truncated);
        prop_assert_eq!(new.retention.to_bits(), old.retention.to_bits());
        let next = |rng: &mut _| noise(rng, 1.0).to_bits();
        prop_assert_eq!(next(&mut rng_new), next(&mut rng_ref), "draw count differs");

        // Sections parsed from the attended lines agree too.
        let sections = tasks::parse_sections(&new.lines);
        let spec = reference::parse_sections(&old.lines);
        prop_assert_eq!(sections.len(), spec.len());
        for (s, r) in sections.iter().zip(&spec) {
            prop_assert_eq!(s.header, r.header.as_str());
            prop_assert_eq!(&s.body, &r.body);
        }
    }

    /// The filter's in-place overlap equals the reference's over the
    /// bodies joined with spaces, bit for bit, on ASCII bodies.
    #[test]
    fn ascii_overlap_matches_reference(
        a in collection::vec(ASCII_LINE, 0..8),
        b in collection::vec(ASCII_LINE, 0..8),
        shared in collection::vec(ASCII_LINE, 0..4),
        long in collection::vec(LONG_TOKEN, 0..3),
    ) {
        // Shared lines make non-trivial intersections likely. Long runs
        // appear twice on one side and upper-cased on the other, so
        // deduplication and case folding of the packed form both count.
        let upper: Vec<String> = long.iter().map(|l| l.to_uppercase()).collect();
        let a: Vec<&str> = a.iter().chain(&long).chain(&shared).chain(&long).map(String::as_str).collect();
        let b: Vec<&str> = upper.iter().chain(&shared).chain(&b).map(String::as_str).collect();
        let new = tasks::overlap(&a, &b);
        let old = reference::overlap(&a.join(" "), &b.join(" "));
        prop_assert_eq!(new.to_bits(), old.to_bits(), "a={:?} b={:?}", a, b);
    }

    /// Non-ASCII bodies take the reference path and agree with it.
    #[test]
    fn unicode_overlap_matches_reference(
        a in collection::vec(UNICODE_LINE, 0..8),
        b in collection::vec(UNICODE_LINE, 0..8),
    ) {
        let a: Vec<&str> = a.iter().map(String::as_str).collect();
        let b: Vec<&str> = b.iter().map(String::as_str).collect();
        let new = tasks::overlap(&a, &b);
        let old = reference::overlap(&a.join(" "), &b.join(" "));
        prop_assert_eq!(new.to_bits(), old.to_bits(), "a={:?} b={:?}", a, b);
    }
}

#[test]
fn kelvin_sign_and_long_tokens_take_the_reference_semantics() {
    // U+212A lower-cases to ASCII `k`: "\u{212A}elvin" and "kelvin" are one
    // token to the reference, so both token sets are {kelvin, scale}.
    let a = ["\u{212A}elvin scale"];
    let b = ["KELVIN SCALE"];
    let spec = reference::overlap(a[0], b[0]);
    assert!(spec > 0.99, "{spec}");
    assert_eq!(tasks::overlap(&a, &b).to_bits(), spec.to_bits());
    // Tokens longer than 16 bytes (reference path) compare
    // case-insensitively too.
    let a = ["Supercalifragilistic expialidocious"];
    let b = ["SUPERCALIFRAGILISTIC other"];
    assert_eq!(
        tasks::overlap(&a, &b).to_bits(),
        reference::overlap(a[0], b[0]).to_bits()
    );
    assert!(tasks::overlap(&a, &b) > 0.0);
    // Seventeen-byte tokens that differ only in their first byte are
    // distinct: the packed form must not drop a byte.
    let a = ["xabcdefghijklmnop"];
    let b = ["yabcdefghijklmnop"];
    assert_eq!(tasks::overlap(&a, &b), 0.0);
}
