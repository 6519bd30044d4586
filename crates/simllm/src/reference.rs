//! The owning content path, kept as an executable specification.
//!
//! This is, line for line, what the simulator's attention model, section
//! parser and reflection-filter similarity did before the content path
//! went borrow-only: [`attend`] copies every attended line into a
//! `String`, [`parse_sections`] copies headers and bodies, [`overlap`]
//! lower-cases both texts and builds two `BTreeSet<String>`s, and
//! [`count_tokens`] walks Unicode whitespace.
//!
//! The live path ([`crate::context::attend`],
//! [`crate::tasks::parse_sections`], [`crate::tasks::overlap`] and
//! [`crate::context::count_tokens`]) must match it bit for bit — same
//! lines, same sections, same `f64`, same counts — which
//! `tests/content_equivalence.rs` pins over arbitrary Unicode, and
//! `tests/content_pin.rs` pins end to end against a fingerprint of the
//! whole TraceBench run. The live path still calls [`overlap`] and
//! [`count_tokens`] itself for non-ASCII input, where Unicode
//! lower-casing can turn a non-ASCII character into an ASCII token
//! character (U+212A KELVIN SIGN lower-cases to `k`), and [`overlap`]
//! for tokens longer than 16 bytes, which no pipeline prompt has.

use crate::profile::ModelProfile;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Approximate token count: whitespace-separated words.
pub fn count_tokens(text: &str) -> usize {
    text.split_whitespace().count()
}

/// Outcome of pushing a prompt through the attention model (owning form).
#[derive(Debug, Clone)]
pub struct Attended {
    /// Lines the model actually "sees", in original order.
    pub lines: Vec<String>,
    /// Total input tokens before attention.
    pub input_tokens: usize,
    /// Whether any content was lost.
    pub truncated: bool,
    /// Fraction of input lines retained.
    pub retention: f64,
}

/// Apply the attention model of `profile` to `text`, copying every kept
/// line. Draws from `rng` exactly as [`crate::context::attend`] does.
pub fn attend(profile: &ModelProfile, text: &str, rng: &mut ChaCha8Rng) -> Attended {
    let lines: Vec<&str> = text.lines().collect();
    let token_counts: Vec<usize> = lines.iter().map(|l| count_tokens(l).max(1)).collect();
    let input_tokens: usize = token_counts.iter().sum();
    let budget = profile.context_tokens;

    if input_tokens <= budget / 2 {
        // Comfortable load: everything attended.
        return Attended {
            lines: lines.iter().map(|s| s.to_string()).collect(),
            input_tokens,
            truncated: false,
            retention: 1.0,
        };
    }

    let n = lines.len();
    let mut keep = vec![true; n];

    if input_tokens > budget {
        // Hard truncation: keep ~40% of budget from the head, ~40% from the
        // tail, and sample the middle with the remaining ~20%.
        let head_budget = budget * 2 / 5;
        let tail_budget = budget * 2 / 5;
        let mid_budget = budget - head_budget - tail_budget;

        let mut acc = 0usize;
        let mut head_end = 0usize;
        while head_end < n && acc + token_counts[head_end] <= head_budget {
            acc += token_counts[head_end];
            head_end += 1;
        }
        let mut acc = 0usize;
        let mut tail_start = n;
        while tail_start > head_end && acc + token_counts[tail_start - 1] <= tail_budget {
            acc += token_counts[tail_start - 1];
            tail_start -= 1;
        }
        let middle_tokens: usize = token_counts[head_end..tail_start].iter().sum();
        let sample_p = if middle_tokens == 0 {
            1.0
        } else {
            (mid_budget as f64 / middle_tokens as f64).min(1.0)
        };
        for (i, k) in keep.iter_mut().enumerate() {
            if i >= head_end && i < tail_start {
                *k = rng.gen_bool(sample_p);
            }
        }
    } else {
        // Fits, but heavy: lose middle lines with probability growing with
        // load and centrality.
        let load = input_tokens as f64 / budget as f64; // in (0.5, 1.0]
        let base_drop = (load - 0.5) * 0.9; // up to 0.45 at full budget
        for (i, k) in keep.iter_mut().enumerate() {
            let pos = i as f64 / (n.max(2) - 1) as f64; // 0..1
            let centrality = 1.0 - (2.0 * pos - 1.0).abs(); // 1 at middle
            let p_drop = base_drop * centrality;
            if rng.gen_bool(p_drop.clamp(0.0, 0.95)) {
                *k = false;
            }
        }
    }

    let attended: Vec<String> = lines
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(l, _)| l.to_string())
        .collect();
    let retention = attended.len() as f64 / n.max(1) as f64;
    Attended {
        lines: attended,
        input_tokens,
        truncated: retention < 1.0,
        retention,
    }
}

/// A parsed prompt section (owning form).
#[derive(Debug, Clone)]
pub struct Section {
    /// Header text after `## ` (e.g. `SUMMARY 1 I/O Size`).
    pub header: String,
    /// Body lines until the next section.
    pub body: Vec<String>,
}

/// Split attended lines into sections, copying headers and bodies.
pub fn parse_sections(lines: &[String]) -> Vec<Section> {
    let mut out: Vec<Section> = Vec::new();
    for line in lines {
        let t = line.trim_end();
        if let Some(h) = t.trim_start().strip_prefix("## ") {
            out.push(Section {
                header: h.trim().to_string(),
                body: Vec::new(),
            });
        } else if let Some(cur) = out.last_mut() {
            cur.body.push(t.to_string());
        }
    }
    out
}

/// Token-set cosine similarity between two texts: Unicode-lower-case,
/// split on every non-ASCII-alphanumeric character, keep tokens longer
/// than two bytes, and divide the set intersection by the geometric mean
/// of the set sizes.
pub fn overlap(a: &str, b: &str) -> f64 {
    use std::collections::BTreeSet;
    let ta: BTreeSet<String> = a
        .to_lowercase()
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| t.len() > 2)
        .map(String::from)
        .collect();
    let tb: BTreeSet<String> = b
        .to_lowercase()
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| t.len() > 2)
        .map(String::from)
        .collect();
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    inter / ((ta.len() as f64).sqrt() * (tb.len() as f64).sqrt())
}
