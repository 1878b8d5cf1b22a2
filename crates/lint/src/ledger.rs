//! The ledger-coverage rule: every `PowerScheduler` impl audits its plans.
//!
//! `BudgetLedger` (PR 1) is the runtime invariant checker — it verifies
//! that every emitted `SchedulePlan` respects the cluster budget per
//! shift. That guarantee only holds if every scheduler actually routes its
//! plans through a ledger. This pass proves it statically: for each
//! non-test `impl PowerScheduler for X`, the `plan` and `plan_subset`
//! bodies must *transitively* (over the call graph) reach a function whose
//! body mentions `BudgetLedger`. A scheduler that builds the ledger in a
//! shared helper passes; one that silently skips the audit is flagged at
//! the method definition.

use crate::ast::ParsedSource;
use crate::callgraph::CallGraph;
use crate::rules::{Rule, Violation};
use crate::symbols::{FnId, SymbolTable, ENTRY_METHODS, SCHEDULER_TRAIT};

/// The runtime auditor type every plan must reach.
pub const LEDGER_TYPE: &str = "BudgetLedger";

/// True when the body of `id` mentions [`LEDGER_TYPE`].
fn mentions_ledger(files: &[ParsedSource], table: &SymbolTable, id: FnId) -> bool {
    let Some(sym) = table.fns.get(id) else {
        return false;
    };
    let Some(file) = files.get(sym.file) else {
        return false;
    };
    let Some(f) = file.unit.index.fns.get(sym.item) else {
        return false;
    };
    let Some((open, close)) = f.body else {
        return false;
    };
    file.unit
        .tokens
        .get(open..=close)
        .unwrap_or_default()
        .iter()
        .any(|t| t.is_ident && t.text == LEDGER_TYPE)
}

/// Run the ledger-coverage pass.
pub fn check(files: &[ParsedSource], table: &SymbolTable, graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    for id in 0..table.fns.len() {
        let Some(f) = table.item(files, id) else {
            continue;
        };
        if f.in_test
            || f.body.is_none()
            || f.owner.trait_ty.as_deref() != Some(SCHEDULER_TRAIT)
            || !ENTRY_METHODS.contains(&f.name.as_str())
        {
            continue;
        }
        let reach = graph.reachable_from(&[id]);
        let audited = reach.iter().any(|&r| mentions_ledger(files, table, r));
        if !audited {
            let label = table.label(files, id);
            let Some(path) = table.path(files, id) else {
                continue;
            };
            out.push(Violation {
                rule: Rule::LedgerCoverage,
                file: path.to_string(),
                line: f.line,
                name: label.clone(),
                message: format!(
                    "`{label}` never reaches `{LEDGER_TYPE}`: every scheduler plan must be \
                     audited against the cluster budget before it is returned"
                ),
            });
        }
    }
    out
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
        let graph = CallGraph::build(&parsed, &table);
        check(&parsed, &table, &graph)
    }

    #[test]
    fn direct_ledger_use_passes() {
        let v = run(&[(
            "crates/baselines/src/a.rs",
            "impl PowerScheduler for AllIn { fn plan_subset(&mut self) { \
             BudgetLedger::new().audit_plan(); } }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn transitive_ledger_use_passes() {
        let v = run(&[(
            "crates/core/src/s.rs",
            "impl PowerScheduler for Clip { fn plan(&mut self) { self.constrained(); } }\n\
             impl Clip { fn constrained(&self) { audit(); } }\n\
             fn audit() { let l = BudgetLedger::new(); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unaudited_scheduler_is_flagged() {
        let v = run(&[(
            "crates/baselines/src/b.rs",
            "impl PowerScheduler for Sneaky { fn plan_subset(&mut self) { emit(); } }\n\
             fn emit() {}",
        )]);
        assert_eq!(v.len(), 1);
        let first = v.first().expect("one");
        assert_eq!(first.rule, Rule::LedgerCoverage);
        assert_eq!(first.name, "Sneaky::plan_subset");
    }

    #[test]
    fn test_impls_are_exempt() {
        let v = run(&[(
            "crates/core/src/s.rs",
            "#[cfg(test)]\nmod tests { impl PowerScheduler for Fake { \
             fn plan(&mut self) {} } }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn non_scheduler_impls_are_ignored() {
        let v = run(&[(
            "crates/core/src/s.rs",
            "impl Planner for Other { fn plan(&mut self) {} }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
