//! The unit-taint rule: bare `f64` quantities flowing into power/energy
//! contexts across function boundaries.
//!
//! The per-file unit-safety rule catches `budget_watts: f64` at the
//! definition site. This pass closes the laundering loopholes around it:
//!
//! - **returns** — a function whose *name* marks a quantity
//!   (`peak_power`, `energy_joules`, …) must not return a bare `f64`;
//! - **let bindings** — a unit-named local must not bind a bare numeric
//!   literal or an explicit `f64`;
//! - **call arguments** — a numeric literal, or a local tainted by one,
//!   must not flow into a unit-named `f64` parameter of another workspace
//!   function (resolved through the symbol table, so the sink can live in
//!   a different crate than the source).
//!
//! Names are unit-carriers when they contain a fragment from
//! [`crate::rules::UNIT_NAME_FRAGMENTS`] — unless the fragment is
//! preposition-guarded: `freq_for_budget` *consumes* a budget to produce a
//! frequency, it does not carry one, so `for_`/`per_`/`from_`/`by_`/
//! `at_`/`with_` before the fragment exempts the name.
//!
//! Enforced in [`crate::UNIT_SAFETY_CRATES`] only; `simkit` is the
//! boundary where quantities legitimately wrap raw numbers, so it is
//! neither a source nor a sink.

use crate::ast::{matching_close, ParsedSource};
use crate::callgraph::resolve_call;
use crate::lexer::Token;
use crate::rules::{Rule, Violation, UNIT_NAME_FRAGMENTS};
use crate::symbols::{crate_of, SymbolTable};
use std::collections::BTreeSet;

/// Prefixes that turn a unit fragment into a *relation to* a quantity
/// rather than the quantity itself.
const GUARD_PREFIXES: [&str; 6] = ["for_", "per_", "from_", "by_", "at_", "with_"];

/// True when `name` names a physical quantity (contains an unguarded unit
/// fragment).
pub fn is_unit_carrier(name: &str) -> bool {
    let lower = name.to_lowercase();
    for frag in UNIT_NAME_FRAGMENTS {
        let mut start = 0usize;
        while let Some(pos) = lower.get(start..).and_then(|s| s.find(frag)) {
            let abs = start + pos;
            let prefix = lower.get(..abs).unwrap_or("");
            if !GUARD_PREFIXES.iter().any(|g| prefix.ends_with(g)) {
                return true;
            }
            start = abs + frag.len();
        }
    }
    false
}

/// True when every token of `expr` belongs to a numeric-literal
/// expression. The lexer splits floats (`1200.0` → `1200`, `.`, `0`), so
/// digits-leading idents, the dot, arithmetic operators and parentheses
/// all count; any other ident (a call, a variable) disqualifies.
fn is_numeric_expr(expr: &[Token]) -> bool {
    !expr.is_empty()
        && expr.iter().all(|t| {
            if t.is_ident {
                t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
            } else {
                t.is(".")
                    || t.is("-")
                    || t.is("+")
                    || t.is("*")
                    || t.is("/")
                    || t.is("(")
                    || t.is(")")
            }
        })
}

/// True when `crate_name` is in scope for unit rules.
fn in_scope(path: &str) -> bool {
    crate_of(path).is_some_and(|c| crate::UNIT_SAFETY_CRATES.contains(&c))
}

/// Run the unit-taint pass over the parsed workspace.
pub fn check(files: &[ParsedSource], table: &SymbolTable) -> Vec<Violation> {
    let mut out = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        if !in_scope(&file.path) {
            continue;
        }
        for (item_idx, f) in file.unit.index.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            // Returns: a unit-named fn yielding bare f64.
            if is_unit_carrier(&f.name) && f.ret_primary.as_deref() == Some("f64") {
                out.push(Violation {
                    rule: Rule::UnitTaint,
                    file: file.path.clone(),
                    line: f.line,
                    name: f.name.clone(),
                    message: format!(
                        "fn `{}` returns a bare f64 but its name marks a physical quantity; \
                         return a simkit quantity (Power/Energy/TimeSpan)",
                        f.name
                    ),
                });
            }
            if f.body.is_some() {
                check_body(files, file_idx, file, item_idx, table, &mut out);
            }
        }
    }
    out.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then_with(|| a.name.cmp(&b.name))
    });
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.name == b.name);
    out
}

/// Scan one function body for tainted let bindings and tainted call
/// arguments. Tokens belonging to a nested fn are left to that fn's own
/// scan.
fn check_body(
    files: &[ParsedSource],
    file_idx: usize,
    file: &ParsedSource,
    item_idx: usize,
    table: &SymbolTable,
    out: &mut Vec<Violation>,
) {
    let tokens = &file.unit.tokens;
    let index = &file.unit.index;
    let Some(f) = index.fns.get(item_idx) else {
        return;
    };
    let Some((open, close)) = f.body else {
        return;
    };
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut i = open + 1;
    while i < close {
        if index.enclosing_fn(i) != Some(item_idx) {
            i += 1;
            continue; // inside a nested fn; it scans itself
        }
        let Some(t) = tokens.get(i) else { break };

        // `let [mut] name [: Ty] = rhs ;`
        if t.is_ident && t.text == "let" {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|m| m.is_ident && m.text == "mut") {
                j += 1;
            }
            let Some(name_tok) = tokens.get(j).filter(|n| n.is_ident) else {
                i += 1;
                continue; // tuple/struct pattern — out of scope
            };
            let name = name_tok.text.clone();
            let line = name_tok.line;
            let mut k = j + 1;
            let mut bare_f64_annot = false;
            if tokens.get(k).is_some_and(|c| c.is(":"))
                && !tokens.get(k + 1).is_some_and(|c| c.is(":"))
            {
                bare_f64_annot = tokens
                    .get(k + 1)
                    .is_some_and(|ty| ty.is_ident && ty.text == "f64")
                    && !tokens.get(k + 2).is_some_and(|c| c.is(":"));
                // Advance past the annotation to `=` or `;` at depth 0.
                let mut depth = 0i32;
                while k < close {
                    let Some(a) = tokens.get(k) else { break };
                    if a.is("<") || a.is("(") || a.is("[") {
                        depth += 1;
                    } else if a.is(">") || a.is(")") || a.is("]") {
                        depth -= 1;
                    } else if depth == 0 && (a.is("=") || a.is(";")) {
                        break;
                    }
                    k += 1;
                }
            }
            // RHS span: `=` .. depth-0 `;`.
            let mut rhs: &[Token] = &[];
            if tokens.get(k).is_some_and(|e| e.is("=")) {
                let rhs_start = k + 1;
                let mut depth = 0i32;
                let mut m = rhs_start;
                while m < close {
                    let Some(a) = tokens.get(m) else { break };
                    if a.is("(") || a.is("[") || a.is("{") {
                        depth += 1;
                    } else if a.is(")") || a.is("]") || a.is("}") {
                        depth -= 1;
                    } else if depth == 0 && a.is(";") {
                        break;
                    }
                    m += 1;
                }
                rhs = tokens.get(rhs_start..m).unwrap_or_default();
            }
            let rhs_numeric = is_numeric_expr(rhs);
            let rhs_tainted_local = rhs.len() == 1
                && rhs
                    .first()
                    .is_some_and(|r| r.is_ident && tainted.contains(&r.text));
            if rhs_numeric || rhs_tainted_local || bare_f64_annot {
                tainted.insert(name.clone());
                if is_unit_carrier(&name) {
                    out.push(Violation {
                        rule: Rule::UnitTaint,
                        file: file.path.clone(),
                        line,
                        name,
                        message: "unit-named local binds a bare numeric; construct a simkit \
                                  quantity at the boundary"
                            .to_string(),
                    });
                }
            }
            i = k.max(j + 1);
            continue;
        }

        // Call site: ident followed by `(` — check each argument against
        // the resolved callee's parameter names and types.
        if t.is_ident && tokens.get(i + 1).is_some_and(|p| p.is("(")) {
            let is_decl = i > 0
                && tokens
                    .get(i - 1)
                    .is_some_and(|p| p.is_ident && p.text == "fn");
            if !is_decl {
                let args_close = matching_close(tokens, i + 1, "(", ")");
                let args = split_args(tokens, i + 2, args_close);
                let callees = resolve_call(tokens, i, index, item_idx, files, table);
                for callee in callees {
                    let Some(path) = table.path(files, callee) else {
                        continue;
                    };
                    if !in_scope(path) {
                        continue;
                    }
                    let Some(cf) = table.item(files, callee) else {
                        continue;
                    };
                    for (pos, (arg_start, arg_end)) in args.iter().enumerate() {
                        let Some(param) = cf.params.get(pos) else {
                            break;
                        };
                        if !is_unit_carrier(&param.name) || param.ty_primary != "f64" {
                            continue;
                        }
                        let arg = tokens.get(*arg_start..*arg_end).unwrap_or_default();
                        let arg_tainted_local = arg.len() == 1
                            && arg
                                .first()
                                .is_some_and(|a| a.is_ident && tainted.contains(&a.text));
                        if is_numeric_expr(arg) || arg_tainted_local {
                            out.push(Violation {
                                rule: Rule::UnitTaint,
                                file: file.path.clone(),
                                line: t.line,
                                name: param.name.clone(),
                                message: format!(
                                    "bare numeric flows into unit-named parameter `{}` of \
                                     `{}`; pass a simkit quantity",
                                    param.name,
                                    table.label(files, callee)
                                ),
                            });
                        }
                    }
                }
                let _ = file_idx; // file identity is implicit in `file`
            }
        }
        i += 1;
    }
}

/// Token ranges of each depth-0 comma-separated argument in `(start..end)`.
fn split_args(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut arg_start = start;
    let mut j = start;
    while j < end {
        let Some(t) = tokens.get(j) else { break };
        if t.is("(") || t.is("[") || t.is("{") || t.is("<") {
            depth += 1;
        } else if t.is(")") || t.is("]") || t.is("}") || t.is(">") {
            depth -= 1;
        } else if depth == 0 && t.is(",") {
            args.push((arg_start, j));
            arg_start = j + 1;
        }
        j += 1;
    }
    if arg_start < end {
        args.push((arg_start, end));
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_unit;

    fn run(sources: &[(&str, &str)]) -> Vec<Violation> {
        let parsed: Vec<ParsedSource> = sources
            .iter()
            .map(|(path, src)| ParsedSource {
                path: path.to_string(),
                unit: parse_unit(src),
            })
            .collect();
        let table = SymbolTable::build(&parsed);
        check(&parsed, &table)
    }

    #[test]
    fn unit_named_fn_returning_f64_is_flagged() {
        let v = run(&[(
            "crates/core/src/p.rs",
            "pub fn peak_power(n: u32) -> f64 { 0.0 }",
        )]);
        assert_eq!(v.len(), 1);
        let first = v.first().expect("one");
        assert_eq!(first.rule, Rule::UnitTaint);
        assert_eq!(first.name, "peak_power");
    }

    #[test]
    fn prepositional_names_are_not_carriers() {
        assert!(!is_unit_carrier("freq_for_budget"));
        assert!(!is_unit_carrier("effective_freq_for_budget"));
        assert!(!is_unit_carrier("scale_by_power"));
        assert!(is_unit_carrier("budget_watts"));
        assert!(is_unit_carrier("peak_power"));
        assert!(is_unit_carrier("PowerBudget"));
        let v = run(&[(
            "crates/core/src/p.rs",
            "pub fn freq_for_budget(b: Power) -> f64 { 1.0 }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn quantity_returns_are_clean() {
        let v = run(&[(
            "crates/core/src/p.rs",
            "pub fn peak_power(n: u32) -> Power { Power::watts(0.0) }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unit_named_local_bound_to_literal_is_flagged() {
        let v = run(&[(
            "crates/core/src/p.rs",
            "fn f() { let budget_watts = 1200.0; }",
        )]);
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().map(|v| v.name.as_str()), Some("budget_watts"));
    }

    #[test]
    fn quantity_constructed_local_is_clean() {
        let v = run(&[(
            "crates/core/src/p.rs",
            "fn f() { let budget = Power::watts(1200.0); let ratio = 0.5; }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn literal_into_unit_param_across_files_is_flagged() {
        let v = run(&[
            (
                "crates/cluster/src/sink.rs",
                "pub fn apply(node: u32, cap_watts: f64) {}",
            ),
            ("crates/core/src/src.rs", "fn f() { apply(3, 1200.0); }"),
        ]);
        // The sink's own def-site finding comes from the per-file rule,
        // not this pass; here only the call-site taint must fire.
        let taint: Vec<&Violation> = v.iter().filter(|v| v.file.contains("src.rs")).collect();
        assert_eq!(taint.len(), 1);
        let first = taint.first().copied().expect("one");
        assert_eq!(first.name, "cap_watts");
        assert!(first.message.contains("apply"));
    }

    #[test]
    fn tainted_local_into_unit_param_is_flagged() {
        let v = run(&[(
            "crates/core/src/p.rs",
            "pub fn set_cap(cap_watts: f64) {}\nfn f() { let x = 900.0; set_cap(x); }",
        )]);
        let names: Vec<&str> = v.iter().map(|v| v.name.as_str()).collect();
        assert!(names.contains(&"cap_watts"), "{v:?}");
    }

    #[test]
    fn quantity_arg_is_clean() {
        let v = run(&[(
            "crates/core/src/p.rs",
            "pub fn set_cap(cap: Power) {}\nfn f() { set_cap(Power::watts(900.0)); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn simkit_sinks_are_exempt() {
        let v = run(&[
            (
                "crates/simkit/src/units.rs",
                "impl Power { pub fn watts(raw_watts: f64) -> Power { Power(raw_watts) } }",
            ),
            (
                "crates/core/src/p.rs",
                "fn f() { let p = Power::watts(1200.0); }",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }
}
