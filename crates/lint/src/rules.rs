//! The per-file lint rules, operating on the token stream of one file.
//!
//! - **unit-safety**: `fn` parameters and `struct` fields whose names say
//!   they carry power/energy/time (`*watts*`, `*power*`, `*budget*`,
//!   `*joules*`, `*secs*`) must not be bare `f64` — use the `simkit`
//!   quantity types. Enforced only in the domain crates; `simkit` itself is
//!   the boundary where quantities wrap raw numbers.
//! - **panic-freedom**: non-test library code must not call `.unwrap()`,
//!   `.expect(…)`, invoke `panic!`, or index slices with `[…]`.
//! - **exhaustiveness**: a `match` that names a domain enum must not use a
//!   catch-all arm, a bare `_` or a lone binding such as `other` — new
//!   variants must fail to compile, not silently fall through. The enum
//!   list is auto-discovered by
//!   [`crate::symbols::SymbolTable`]; [`DOMAIN_ENUMS`] remains as the
//!   fallback for standalone per-file scans.
//!
//! The workspace-wide rules (unit-taint, ledger-coverage) live in
//! [`crate::dataflow`] and [`crate::ledger`], and lock-discipline in
//! [`crate::concurrency`]; their [`Rule`] variants are declared here so
//! every finding shares one [`Violation`] shape and one allowlist keying
//! scheme.

use crate::ast::matching_close;
use crate::lexer::Token;
use serde::Serialize;

/// Name fragments that mark a parameter/field as a physical quantity.
pub const UNIT_NAME_FRAGMENTS: [&str; 5] = ["watts", "power", "budget", "joules", "secs"];

/// Fallback list of domain enums whose matches must stay exhaustive, used
/// only when no symbol table is available (standalone `check_tokens`).
/// The workspace pipeline auto-discovers the live list from `pub enum`
/// declarations deriving `Serialize` + `Clone` in the domain crates.
pub const DOMAIN_ENUMS: [&str; 5] = [
    "ScalabilityClass",
    "HwEvent",
    "AffinityPolicy",
    "EffectiveSpeed",
    "FaultKind",
];

/// Keywords that may directly precede `[` without forming an index
/// expression (`for x in [..]`, `return [..]`, `let [a, b] = …`, …).
const NON_INDEX_KEYWORDS: [&str; 13] = [
    "in", "return", "if", "else", "match", "break", "continue", "as", "mut", "ref", "move", "box",
    "let",
];

/// Which rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Bare `f64` carrying a physical quantity.
    UnitSafety,
    /// `unwrap`/`expect`/`panic!`/indexing in library code.
    PanicFreedom,
    /// Catch-all arm in a domain-enum match.
    Exhaustiveness,
    /// Bare-f64 value flowing into a power/energy-named sink across a
    /// binding, return, or call boundary.
    UnitTaint,
    /// A `PowerScheduler` impl whose `plan`/`plan_subset` never reaches
    /// `BudgetLedger`.
    LedgerCoverage,
    /// Lock pair acquired in inconsistent order across the call graph.
    LockDiscipline,
}

// Serialized as the stable kebab-case name, matching the allowlist key.
impl Serialize for Rule {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::String(self.name().to_string())
    }
}

impl Rule {
    /// Stable kebab-case name (the JSON encoding and allowlist key).
    pub fn name(&self) -> &'static str {
        match self {
            Rule::UnitSafety => "unit-safety",
            Rule::PanicFreedom => "panic-freedom",
            Rule::Exhaustiveness => "exhaustiveness",
            Rule::UnitTaint => "unit-taint",
            Rule::LedgerCoverage => "ledger-coverage",
            Rule::LockDiscipline => "lock-discipline",
        }
    }
}

/// One finding.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The offending name: a parameter/field name, `unwrap`/`expect`/
    /// `panic`/`index`, or the matched enum. Allowlist entries key on this.
    pub name: String,
    /// Human-readable diagnostic.
    pub message: String,
}

/// Per-file scan configuration.
#[derive(Debug, Clone, Copy)]
pub struct FileRules {
    /// Apply the unit-safety rule (domain crates only).
    pub unit_safety: bool,
    /// Apply panic-freedom and exhaustiveness (all library code).
    pub library_rules: bool,
}

/// Scan one file's tokens with the fallback [`DOMAIN_ENUMS`] list. `file`
/// is the workspace-relative path used in diagnostics.
pub fn check_tokens(file: &str, tokens: &[Token], rules: FileRules) -> Vec<Violation> {
    let enums: Vec<String> = DOMAIN_ENUMS.iter().map(|e| e.to_string()).collect();
    check_tokens_with_enums(file, tokens, rules, &enums)
}

/// Scan one file's tokens against an explicit domain-enum list (the
/// auto-discovered one in the workspace pipeline).
pub fn check_tokens_with_enums(
    file: &str,
    tokens: &[Token],
    rules: FileRules,
    enums: &[String],
) -> Vec<Violation> {
    let excluded = excluded_spans(tokens);
    let in_excluded = |idx: usize| excluded.iter().any(|&(s, e)| idx >= s && idx < e);

    let mut out = Vec::new();
    if rules.unit_safety {
        check_unit_safety(file, tokens, &in_excluded, &mut out);
    }
    if rules.library_rules {
        check_panic_freedom(file, tokens, &in_excluded, &mut out);
        check_exhaustiveness(file, tokens, &in_excluded, enums, &mut out);
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.name.cmp(&b.name)));
    out
}

/// Token index ranges covered by `#[cfg(test)]` items (test modules or
/// test-gated functions): the rules and the item parser skip them.
pub fn excluded_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip past the attribute's closing `]`.
            let mut j = i + 2; // at `cfg`
            let mut depth = 0i32;
            while let Some(t) = tokens.get(j) {
                if t.is("[") {
                    depth += 1;
                } else if t.is("]") {
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                    depth -= 1;
                }
                j += 1;
            }
            // Skip any further attributes/doc between cfg(test) and the item.
            while tokens.get(j).is_some_and(|t| t.is("#")) {
                j += 1;
                let mut d = 0i32;
                while let Some(t) = tokens.get(j) {
                    j += 1;
                    if t.is("[") {
                        d += 1;
                    } else if t.is("]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                }
            }
            // The gated item: skip to its balanced `{ … }` (mod or fn).
            if let Some(end) = balanced_block_end(tokens, j) {
                spans.push((i, end));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// True when tokens at `i` start `#[cfg(test)]` or `#[cfg(any(test, …))]`.
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if !(tokens.get(i).is_some_and(|t| t.is("#"))
        && tokens.get(i + 1).is_some_and(|t| t.is("["))
        && tokens
            .get(i + 2)
            .is_some_and(|t| t.is_ident && t.text == "cfg"))
    {
        return false;
    }
    // Look for a bare `test` word before the attribute closes.
    let mut j = i + 3;
    let mut depth = 0i32;
    while let Some(t) = tokens.get(j) {
        if t.is("[") {
            depth += 1;
        } else if t.is("]") {
            if depth == 0 {
                return false;
            }
            depth -= 1;
        } else if t.is_ident && t.text == "test" {
            return true;
        }
        j += 1;
    }
    false
}

/// Index one past the `}` that closes the first `{` found scanning from
/// `start`, or `None` if no block opens before `;` at depth 0 (e.g. a
/// gated `use` item).
fn balanced_block_end(tokens: &[Token], start: usize) -> Option<usize> {
    let mut j = start;
    while let Some(t) = tokens.get(j) {
        if t.is("{") {
            break;
        }
        if t.is(";") {
            return Some(j + 1);
        }
        j += 1;
    }
    let mut depth = 0i32;
    while let Some(t) = tokens.get(j) {
        if t.is("{") {
            depth += 1;
        } else if t.is("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

fn is_unit_name(name: &str) -> bool {
    let lower = name.to_lowercase();
    UNIT_NAME_FRAGMENTS.iter().any(|f| lower.contains(f))
}

/// Scan `fn` parameter lists and `struct` bodies for `name: f64` where
/// `name` carries a unit fragment.
fn check_unit_safety(
    file: &str,
    tokens: &[Token],
    in_excluded: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    let mut i = 0usize;
    while let Some(t) = tokens.get(i) {
        if !t.is_ident || in_excluded(i) {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                // fn name <generics?> ( params )
                let mut j = i + 2; // past `fn name`
                let mut angle = 0i32;
                while let Some(t) = tokens.get(j) {
                    if t.is("<") {
                        angle += 1;
                    } else if t.is(">") {
                        angle -= 1;
                    } else if t.is("(") && angle <= 0 {
                        break;
                    } else if t.is("{") || t.is(";") {
                        break; // malformed / not a normal fn — bail
                    }
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is("(")) {
                    let close = matching_close(tokens, j, "(", ")");
                    scan_typed_names(file, tokens, j + 1, close, "parameter", out);
                    i = close;
                    continue;
                }
            }
            "struct" => {
                // struct Name <generics?> { fields } | ( … ); | ;
                let mut j = i + 2;
                let mut angle = 0i32;
                while let Some(t) = tokens.get(j) {
                    if t.is("<") {
                        angle += 1;
                    } else if t.is(">") {
                        angle -= 1;
                    } else if angle <= 0 && (t.is("{") || t.is("(") || t.is(";")) {
                        break;
                    }
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is("{")) {
                    let close = matching_close(tokens, j, "{", "}");
                    scan_typed_names(file, tokens, j + 1, close, "field", out);
                    i = close;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Within `[start, end)`, find depth-0 `name : f64` sequences whose name
/// carries a unit fragment.
fn scan_typed_names(
    file: &str,
    tokens: &[Token],
    start: usize,
    end: usize,
    what: &str,
    out: &mut Vec<Violation>,
) {
    let mut depth = 0i32;
    let mut j = start;
    while j < end {
        let Some(t) = tokens.get(j) else { break };
        if t.is("(") || t.is("[") || t.is("{") || t.is("<") {
            depth += 1;
        } else if t.is(")") || t.is("]") || t.is("}") || t.is(">") {
            depth -= 1;
        } else if depth == 0
            && t.is_ident
            && is_unit_name(&t.text)
            && tokens.get(j + 1).is_some_and(|c| c.is(":"))
            && tokens
                .get(j + 2)
                .is_some_and(|ty| ty.is_ident && ty.text == "f64")
            && tokens
                .get(j + 3)
                .is_none_or(|nx| nx.is(",") || nx.is(")") || nx.is("}"))
        {
            out.push(Violation {
                rule: Rule::UnitSafety,
                file: file.to_string(),
                line: t.line,
                name: t.text.clone(),
                message: format!(
                    "{what} `{}` is a bare f64; use a simkit quantity (Power/Energy/TimeSpan) \
                     or allowlist with a reason",
                    t.text
                ),
            });
            j += 3;
            continue;
        }
        j += 1;
    }
}

/// Flag `.unwrap()`, `.expect(`, `panic!` and index expressions.
fn check_panic_freedom(
    file: &str,
    tokens: &[Token],
    in_excluded: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    let mut push = |line: u32, name: &str, message: String| {
        out.push(Violation {
            rule: Rule::PanicFreedom,
            file: file.to_string(),
            line,
            name: name.to_string(),
            message,
        });
    };
    for (i, t) in tokens.iter().enumerate() {
        if in_excluded(i) {
            continue;
        }
        if t.is_ident && (t.text == "unwrap" || t.text == "expect") {
            let dotted = tokens.get(i.wrapping_sub(1)).is_some_and(|p| p.is("."));
            let called = tokens.get(i + 1).is_some_and(|n| n.is("("));
            if dotted && called {
                push(
                    t.line,
                    &t.text,
                    format!("`.{}()` can panic; handle the None/Err case", t.text),
                );
            }
        } else if t.is_ident && t.text == "panic" {
            if tokens.get(i + 1).is_some_and(|n| n.is("!")) {
                push(t.line, "panic", "`panic!` in library code".to_string());
            }
        } else if t.is("[") {
            let Some(prev) = (i > 0).then(|| tokens.get(i - 1)).flatten() else {
                continue;
            };
            let indexes = (prev.is_ident
                && !NON_INDEX_KEYWORDS.contains(&prev.text.as_str())
                && !prev.text.chars().next().is_some_and(|c| c.is_ascii_digit()))
                || prev.is(")")
                || prev.is("]");
            if indexes {
                push(
                    t.line,
                    "index",
                    format!(
                        "`{}[…]` indexing can panic; use .get()/iterators or allowlist with a \
                         bounds argument",
                        prev.text
                    ),
                );
            }
        }
    }
}

/// Flag bare `_` arms inside `match` expressions that mention a domain enum.
fn check_exhaustiveness(
    file: &str,
    tokens: &[Token],
    in_excluded: &dyn Fn(usize) -> bool,
    enums: &[String],
    out: &mut Vec<Violation>,
) {
    let mut i = 0usize;
    while let Some(t) = tokens.get(i) {
        if !(t.is_ident && t.text == "match") || in_excluded(i) {
            i += 1;
            continue;
        }
        // Scrutinee: up to the first `{` at bracket depth 0.
        let mut j = i + 1;
        let mut depth = 0i32;
        while let Some(t) = tokens.get(j) {
            if t.is("(") || t.is("[") {
                depth += 1;
            } else if t.is(")") || t.is("]") {
                depth -= 1;
            } else if t.is("{") && depth == 0 {
                break;
            } else if t.is(";") && depth == 0 {
                break; // not a match expression after all
            }
            j += 1;
        }
        if !tokens.get(j).is_some_and(|t| t.is("{")) {
            i += 1;
            continue;
        }
        let body_open = j;
        let body_close = matching_close(tokens, body_open, "{", "}");
        let mentions: Vec<&str> = enums
            .iter()
            .map(String::as_str)
            .filter(|e| {
                tokens
                    .get(i..body_close)
                    .unwrap_or_default()
                    .iter()
                    .any(|t| t.is_ident && t.text == *e)
            })
            .collect();
        if let Some(&enum_name) = mentions.first() {
            for (line, pattern) in arm_patterns(tokens, body_open, body_close) {
                if let [arm] = pattern.as_slice() {
                    if is_catch_all(arm) {
                        out.push(Violation {
                            rule: Rule::Exhaustiveness,
                            file: file.to_string(),
                            line,
                            name: enum_name.to_string(),
                            message: format!(
                                "wildcard `{arm}` arm in a match over `{enum_name}`; list every \
                                 variant so new ones fail to compile"
                            ),
                        });
                    }
                }
            }
        }
        i = body_close.max(i + 1);
    }
}

/// True for a one-token arm pattern that matches anything: `_`, or a
/// lone binding such as `other` (a lowercase identifier other than the
/// `true`/`false` literals).
fn is_catch_all(pattern: &str) -> bool {
    pattern != "true"
        && pattern != "false"
        && pattern.starts_with(|c: char| c == '_' || c.is_ascii_lowercase())
}

/// The `(line, pattern-token-texts)` of each arm in a match body.
fn arm_patterns(tokens: &[Token], body_open: usize, body_close: usize) -> Vec<(u32, Vec<String>)> {
    let mut arms = Vec::new();
    let mut j = body_open + 1;
    while j < body_close {
        // Collect the pattern up to `=>` at depth 0.
        let mut pattern = Vec::new();
        let mut line = 0u32;
        let mut depth = 0i32;
        let mut found_arrow = false;
        while j < body_close {
            let Some(t) = tokens.get(j) else { break };
            if t.is("(") || t.is("[") || t.is("{") {
                depth += 1;
            } else if t.is(")") || t.is("]") || t.is("}") {
                depth -= 1;
            } else if t.is("=>") && depth == 0 {
                found_arrow = true;
                j += 1;
                break;
            }
            if line == 0 {
                line = t.line;
            }
            pattern.push(t.text.clone());
            j += 1;
        }
        if !found_arrow {
            break;
        }
        arms.push((line, pattern));
        // Skip the arm body: a balanced block, or an expression up to `,`
        // at depth 0.
        if tokens.get(j).is_some_and(|t| t.is("{")) {
            j = matching_close(tokens, j, "{", "}") + 1;
            if tokens.get(j).is_some_and(|t| t.is(",")) {
                j += 1;
            }
        } else {
            let mut depth = 0i32;
            while j < body_close {
                let Some(t) = tokens.get(j) else { break };
                if t.is("(") || t.is("[") || t.is("{") {
                    depth += 1;
                } else if t.is(")") || t.is("]") || t.is("}") {
                    depth -= 1;
                } else if t.is(",") && depth == 0 {
                    j += 1;
                    break;
                }
                j += 1;
            }
        }
    }
    arms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const ALL: FileRules = FileRules {
        unit_safety: true,
        library_rules: true,
    };

    fn check(src: &str) -> Vec<Violation> {
        check_tokens("test.rs", &lex(src), ALL)
    }

    #[test]
    fn bare_f64_power_param_is_flagged() {
        let v = check("pub fn set(budget_watts: f64) {}");
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().map(|v| v.rule), Some(Rule::UnitSafety));
        assert_eq!(v.first().map(|v| v.name.as_str()), Some("budget_watts"));
    }

    #[test]
    fn quantity_typed_param_is_clean() {
        assert!(check("pub fn set(budget: Power) {}").is_empty());
    }

    #[test]
    fn bare_f64_struct_field_is_flagged() {
        let v = check("pub struct S { pub idle_power: f64, pub name: String }");
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().map(|v| v.name.as_str()), Some("idle_power"));
    }

    #[test]
    fn neutral_f64_names_are_clean() {
        assert!(check("fn f(ratio: f64, threshold: f64) -> f64 { ratio }").is_empty());
        assert!(check("struct S { slope: f64 }").is_empty());
    }

    #[test]
    fn unwrap_expect_panic_flagged() {
        let v = check("fn f() { x.unwrap(); y.expect(\"msg\"); panic!(\"no\"); }");
        let names: Vec<&str> = v.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["expect", "panic", "unwrap"]);
    }

    #[test]
    fn unwrap_or_is_clean() {
        assert!(check("fn f() { x.unwrap_or(1); y.unwrap_or_else(|| 2); }").is_empty());
    }

    #[test]
    fn indexing_flagged_but_not_array_literals() {
        let v = check("fn f() { let a = xs[0]; }");
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().map(|v| v.name.as_str()), Some("index"));
        assert!(check("fn f() { let a = [1, 2, 3]; for x in [4, 5] {} }").is_empty());
        assert!(check("fn f(x: [f64; 3]) {}").is_empty());
    }

    #[test]
    fn attributes_and_macros_are_not_indexing() {
        assert!(check("#[derive(Debug)]\nfn f() { let v = vec![1]; }").is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn wildcard_arm_on_domain_enum_flagged() {
        let src = "fn f(c: ScalabilityClass) -> u32 {\n match c {\n ScalabilityClass::Linear \
                   => 1,\n _ => 2,\n }\n}";
        let v = check(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().map(|v| v.rule), Some(Rule::Exhaustiveness));
        assert_eq!(v.first().map(|v| v.line), Some(4));
    }

    #[test]
    fn binding_catch_all_on_domain_enum_flagged() {
        let src = "fn f(c: ScalabilityClass) -> u32 {\n match c {\n ScalabilityClass::Linear \
                   => 1,\n other => rank(other),\n }\n}";
        let v = check(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().map(|v| v.rule), Some(Rule::Exhaustiveness));
        assert_eq!(v.first().map(|v| v.line), Some(4));
        let bools = "fn f(c: ScalabilityClass) -> u32 { match c == ScalabilityClass::Linear { \
                     true => 1, false => 2 } }";
        assert!(check(bools).is_empty());
    }

    #[test]
    fn wildcard_on_other_types_is_fine() {
        let src = "fn f(n: u32) -> u32 { match n { 0 => 1, _ => 2 } }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn exhaustive_domain_match_is_clean() {
        let src = "fn f(c: ScalabilityClass) -> u32 { match c { \
                   ScalabilityClass::Linear => 1, ScalabilityClass::Logarithmic => 2, \
                   ScalabilityClass::Parabolic => 3 } }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn wildcard_in_block_arm_match() {
        let src = "fn f(e: HwEvent) { match e { HwEvent::Instructions => { go(); }\n _ => {} } }";
        let v = check(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().map(|v| v.name.as_str()), Some("HwEvent"));
    }
}
