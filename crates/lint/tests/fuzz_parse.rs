//! Fuzz-style robustness tests: the lexer and item parser must accept
//! arbitrary byte soup without panicking and terminate on every input.
//! The analyzer runs over whatever the workspace contains — including
//! half-edited files — so total functions are a hard requirement.

use proptest::prelude::*;

proptest! {
    /// Arbitrary bytes (lossily decoded) never panic the lexer, and every
    /// token's line number stays within the line count of the input.
    #[test]
    fn lexer_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let source = String::from_utf8_lossy(&bytes);
        let tokens = clip_lint::lexer::lex(&source);
        let lines = source.lines().count().max(1) as u32;
        prop_assert!(tokens.iter().all(|t| t.line >= 1 && t.line <= lines));
    }

    /// The item parser is total on arbitrary bytes: no panics, and every
    /// recorded function body span is a valid token range.
    #[test]
    fn parser_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let source = String::from_utf8_lossy(&bytes);
        let unit = clip_lint::ast::parse_unit(&source);
        for f in &unit.index.fns {
            if let Some((lo, hi)) = f.body {
                prop_assert!(lo <= hi && hi <= unit.tokens.len(), "span {lo}..{hi}");
            }
        }
    }

    /// Rust-ish fragments assembled from structural keywords stress the
    /// nesting paths (impl/fn/brace matching, `static [mut]` items)
    /// without ever panicking.
    #[test]
    fn parser_total_on_keyword_soup(words in proptest::collection::vec(
        prop_oneof![
            Just("fn"), Just("impl"), Just("struct"), Just("enum"), Just("for"),
            Just("{"), Just("}"), Just("("), Just(")"), Just("<"), Just(">"),
            Just("#[cfg(test)]"), Just("mod"), Just("pub"), Just("x"), Just(";"),
            Just("static"), Just("mut"), Just(":"),
        ],
        0..64))
    {
        let source = words.join(" ");
        let unit = clip_lint::ast::parse_unit(&source);
        // Excluded (cfg(test)) spans must be well-formed ranges too.
        for (lo, hi) in &unit.excluded {
            prop_assert!(lo <= hi && *hi <= unit.tokens.len());
        }
        // A recorded static always has a name.
        prop_assert!(unit.index.statics.iter().all(|s| !s.name.is_empty()));
    }

    /// Match-and-chain soup runs the full pipeline — lexing, item
    /// parsing, the per-file rules and the workspace passes — over an
    /// `EpochEngine::execute` wrapper next to a domain enum: match arms
    /// with `_` and lone-binding patterns, turbofish `.collect::<Vec<_>>()`,
    /// macro forms and epoch loop headers must stay total on every
    /// assembly, including unbalanced ones that truncate the body or
    /// swallow the impl close, and the report must stay consistent.
    #[test]
    fn pipeline_total_on_match_and_chain_soup(words in proptest::collection::vec(
        prop_oneof![
            Just("."), Just("collect"), Just("to_string"), Just("clone"), Just(":"),
            Just("<"), Just(">"), Just("Vec"), Just("_"), Just("vec"), Just("format"),
            Just("!"), Just("["), Just("]"), Just("("), Just(")"), Just("{"), Just("}"),
            Just("if"), Just("for"), Just("epoch"), Just("in"), Just("loop"), Just(";"),
            Just("x"), Just(","), Just("="), Just("match"), Just("=>"), Just("other"),
            Just("Kind"), Just("::"), Just("A"), Just("true"),
        ],
        0..96))
    {
        let soup = words.join(" ");
        let source = format!(
            "#[derive(Clone, Serialize)]\npub enum Kind {{ A, B }}\n\
             pub struct EpochEngine;\nimpl EpochEngine {{ pub fn execute(&mut self) {{ {soup} }} }}\n"
        );
        let sources = vec![clip_lint::SourceFile {
            path: "crates/core/src/soup.rs".to_string(),
            source,
        }];
        let report = clip_lint::analyze(sources, &[]).report;
        prop_assert_eq!(report.summary.total, report.violations.len());
        for v in &report.violations {
            // Every finding sits in the soup, which is all on line 4.
            prop_assert_eq!(v.file.as_str(), "crates/core/src/soup.rs");
            prop_assert_eq!(v.line, 4);
        }
    }
}
