//! Source-level corruption: realistic *syntax* errors.
//!
//! The simulated LLM injects these to model the fraction of generations
//! that fail Eval0 (truncated output, missing semicolons, unbalanced
//! `begin`/`end`, mangled identifiers — the classic failure modes the
//! paper's Eval0 row measures).

use rand::Rng;

/// The corruption strategies, selectable for tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CorruptionKind {
    /// Remove one semicolon.
    DropSemicolon,
    /// Remove one `end` keyword.
    DropEnd,
    /// Remove one closing parenthesis.
    DropParen,
    /// Truncate the tail of the file (model output cut off).
    Truncate,
    /// Damage one identifier so it no longer resolves/lexes cleanly.
    MangleIdent,
}

const ALL: [CorruptionKind; 5] = [
    CorruptionKind::DropSemicolon,
    CorruptionKind::DropEnd,
    CorruptionKind::DropParen,
    CorruptionKind::Truncate,
    CorruptionKind::MangleIdent,
];

/// Applies one random corruption to `src`. The result usually (not always)
/// fails to parse — exactly like real LLM syntax slips, some corruptions
/// happen to stay legal; callers must judge by parsing, not by assumption.
pub fn corrupt_source(src: &str, rng: &mut impl Rng) -> String {
    let kind = ALL[rng.gen_range(0..ALL.len())];
    corrupt_source_with(src, kind, rng)
}

/// Applies a specific corruption strategy.
pub fn corrupt_source_with(src: &str, kind: CorruptionKind, rng: &mut impl Rng) -> String {
    match kind {
        CorruptionKind::DropSemicolon => drop_nth_match(src, ";", rng),
        CorruptionKind::DropEnd => drop_nth_word(src, "end", rng),
        CorruptionKind::DropParen => drop_nth_match(src, ")", rng),
        CorruptionKind::Truncate => {
            let min = src.len() / 2;
            if min >= src.len() {
                return String::new();
            }
            let cut = rng.gen_range(min..src.len());
            let mut cut_at = cut;
            while cut_at < src.len() && !src.is_char_boundary(cut_at) {
                cut_at += 1;
            }
            src[..cut_at].to_string()
        }
        CorruptionKind::MangleIdent => mangle_ident(src, rng),
    }
}

fn drop_nth_match(src: &str, needle: &str, rng: &mut impl Rng) -> String {
    let positions: Vec<usize> = src.match_indices(needle).map(|(i, _)| i).collect();
    if positions.is_empty() {
        return src.to_string();
    }
    let at = positions[rng.gen_range(0..positions.len())];
    let mut out = String::with_capacity(src.len());
    out.push_str(&src[..at]);
    out.push_str(&src[at + needle.len()..]);
    out
}

fn drop_nth_word(src: &str, word: &str, rng: &mut impl Rng) -> String {
    let bytes = src.as_bytes();
    let positions: Vec<usize> = src
        .match_indices(word)
        .map(|(i, _)| i)
        .filter(|&i| {
            let before_ok = i == 0 || !bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'_';
            let after = i + word.len();
            let after_ok = after >= bytes.len()
                || !bytes[after].is_ascii_alphanumeric() && bytes[after] != b'_';
            before_ok && after_ok
        })
        .collect();
    if positions.is_empty() {
        return src.to_string();
    }
    let at = positions[rng.gen_range(0..positions.len())];
    let mut out = String::with_capacity(src.len());
    out.push_str(&src[..at]);
    out.push_str(&src[at + word.len()..]);
    out
}

fn mangle_ident(src: &str, rng: &mut impl Rng) -> String {
    // Find identifier-looking runs of length >= 3 that are not keywords we
    // depend on structurally, and splice a '?' into one.
    let keywords = [
        "module",
        "endmodule",
        "input",
        "output",
        "wire",
        "reg",
        "assign",
        "always",
        "initial",
        "begin",
        "end",
        "posedge",
        "case",
        "endcase",
        "default",
        "integer",
    ];
    let mut spans = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let w = &src[start..i];
            if w.len() >= 3 && !keywords.contains(&w) {
                spans.push(start);
            }
        } else {
            i += 1;
        }
    }
    if spans.is_empty() {
        return src.to_string();
    }
    let at = spans[rng.gen_range(0..spans.len())];
    let mut out = String::with_capacity(src.len() + 1);
    out.push_str(&src[..at + 1]);
    out.push('?');
    out.push_str(&src[at + 1..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SRC: &str = "module m(input [3:0] a, output reg [3:0] y);\nalways @(*) begin\nif (a[0]) y = a + 4'd1;\nelse y = a;\nend\nendmodule\n";

    #[test]
    fn corruption_usually_breaks_parsing() {
        let mut broken = 0;
        let total = 40;
        for seed in 0..total {
            let mut rng = StdRng::seed_from_u64(seed);
            let bad = corrupt_source(SRC, &mut rng);
            if parse(&bad).is_err() {
                broken += 1;
            }
        }
        assert!(
            broken * 10 >= total * 7,
            "only {broken}/{total} corruptions broke the parser"
        );
    }

    #[test]
    fn each_kind_changes_source() {
        for kind in [
            CorruptionKind::DropSemicolon,
            CorruptionKind::DropEnd,
            CorruptionKind::DropParen,
            CorruptionKind::Truncate,
            CorruptionKind::MangleIdent,
        ] {
            let mut rng = StdRng::seed_from_u64(1);
            let bad = corrupt_source_with(SRC, kind, &mut rng);
            assert_ne!(bad, SRC, "{kind:?} did not change the source");
        }
    }

    #[test]
    fn drop_end_respects_word_boundaries() {
        // `endmodule` must not be treated as `end` + `module`.
        let src = "module m; endmodule";
        let mut rng = StdRng::seed_from_u64(2);
        let out = drop_nth_word(src, "end", &mut rng);
        assert_eq!(out, src);
    }
}
