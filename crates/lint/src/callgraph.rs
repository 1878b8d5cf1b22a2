//! The workspace call graph and the reachability queries built on it.
//!
//! Edges are extracted from token patterns, resolved against the
//! [`crate::symbols::SymbolTable`]:
//!
//! - `self . m (` — resolved to `(enclosing self type, m)`; if the exact
//!   method is unknown, falls back to every workspace method named `m`;
//! - `recv . m (` — dynamic dispatch / unknown receiver: every workspace
//!   method named `m` (a deliberate over-approximation — it is what links
//!   `scheduler.plan_subset(…)` on a `&mut dyn PowerScheduler` to every
//!   scheduler impl);
//! - `Ty :: m (` — resolved via the qualified map only (`Self` maps to the
//!   enclosing impl type); paths into foreign crates (`mem::take`) produce
//!   no edge;
//! - bare `m (` — free workspace functions named `m` only.
//!
//! Function pointers and closures passed by name are not tracked; closures
//! written inline attribute their calls to the enclosing `fn` via
//! [`crate::ast::FileIndex::enclosing_fn`], which is what the passes want.
//! The graph over-approximates in the safe direction for panic blast
//! radius and replay-critical scoping: a spurious edge can only widen the
//! audited set, never hide a reachable panic.

use crate::ast::{FileIndex, ParsedSource};
use crate::lexer::Token;
use crate::symbols::{FnId, SymbolTable};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Keywords that look like `ident (` in the token stream but are never
/// call sites.
const CALL_KEYWORDS: [&str; 16] = [
    "if", "for", "while", "match", "return", "loop", "fn", "in", "as", "let", "else", "move",
    "unsafe", "where", "mut", "ref",
];

/// True when `name` is a keyword that can precede `(` without being a
/// call site (shared with the concurrency lock-event scanner).
pub(crate) fn is_call_keyword(name: &str) -> bool {
    CALL_KEYWORDS.contains(&name)
}

/// The workspace call graph: adjacency sets per [`FnId`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Functions each function calls.
    pub callees: Vec<BTreeSet<FnId>>,
    /// Functions calling each function (transpose of `callees`).
    pub callers: Vec<BTreeSet<FnId>>,
}

impl CallGraph {
    /// Extract every resolvable call edge from the parsed workspace.
    pub fn build(files: &[ParsedSource], table: &SymbolTable) -> Self {
        let n = table.fns.len();
        let mut callees: Vec<BTreeSet<FnId>> = vec![BTreeSet::new(); n];
        let mut callers: Vec<BTreeSet<FnId>> = vec![BTreeSet::new(); n];
        for (file_idx, file) in files.iter().enumerate() {
            let tokens = &file.unit.tokens;
            let index = &file.unit.index;
            for (idx, t) in tokens.iter().enumerate() {
                if !t.is_ident || CALL_KEYWORDS.contains(&t.text.as_str()) {
                    continue;
                }
                if !tokens.get(idx + 1).is_some_and(|p| p.is("(")) {
                    continue;
                }
                // `fn name(` is a declaration, not a call.
                if idx > 0
                    && tokens
                        .get(idx - 1)
                        .is_some_and(|p| p.is_ident && p.text == "fn")
                {
                    continue;
                }
                let Some(item_idx) = index.enclosing_fn(idx) else {
                    continue;
                };
                let Some(&caller) = table.by_item.get(&(file_idx, item_idx)) else {
                    continue;
                };
                for target in resolve_call(tokens, idx, index, item_idx, files, table) {
                    if target == caller {
                        continue; // direct self-recursion adds nothing
                    }
                    if let Some(set) = callees.get_mut(caller) {
                        set.insert(target);
                    }
                    if let Some(set) = callers.get_mut(target) {
                        set.insert(caller);
                    }
                }
            }
        }
        CallGraph { callees, callers }
    }

    /// Every function reachable from `roots` (roots included). BFS with a
    /// visited set, so cycles — mutual recursion included — terminate.
    pub fn reachable_from(&self, roots: &[FnId]) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = roots.iter().copied().collect();
        let mut queue: VecDeque<FnId> = roots.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if let Some(next) = self.callees.get(id) {
                for &c in next {
                    if seen.insert(c) {
                        queue.push_back(c);
                    }
                }
            }
        }
        seen
    }

    /// BFS tree from `root`: each reached function mapped to the function
    /// it was first reached from. `root` itself has no entry.
    pub fn parents_from(&self, root: FnId) -> BTreeMap<FnId, FnId> {
        let mut parents: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        seen.insert(root);
        let mut queue: VecDeque<FnId> = VecDeque::new();
        queue.push_back(root);
        while let Some(id) = queue.pop_front() {
            if let Some(next) = self.callees.get(id) {
                for &c in next {
                    if seen.insert(c) {
                        parents.insert(c, id);
                        queue.push_back(c);
                    }
                }
            }
        }
        parents
    }
}

/// Reconstruct the shortest call path `root → … → target` from a
/// [`CallGraph::parents_from`] tree. `None` when unreachable.
pub fn route(root: FnId, target: FnId, parents: &BTreeMap<FnId, FnId>) -> Option<Vec<FnId>> {
    if target == root {
        return Some(vec![root]);
    }
    if !parents.contains_key(&target) {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != root {
        let &p = parents.get(&cur)?;
        path.push(p);
        cur = p;
        if path.len() > parents.len() + 2 {
            return None; // defensive: a corrupt parent map must not loop
        }
    }
    path.reverse();
    Some(path)
}

/// The innermost function item in `file` whose span (signature line through
/// closing brace) contains `line`. Used to map a per-file violation line to
/// the function owning it.
pub fn fn_in_file_at_line(file: &ParsedSource, line: u32) -> Option<usize> {
    let tokens = &file.unit.tokens;
    let mut best: Option<(u32, usize)> = None; // (span height, fn index)
    for (i, f) in file.unit.index.fns.iter().enumerate() {
        let Some((open, close)) = f.body else {
            continue;
        };
        let Some(hi) = tokens.get(close).map(|t| t.line) else {
            continue;
        };
        let lo = tokens
            .get(open)
            .map(|t| t.line)
            .unwrap_or(f.line)
            .min(f.line);
        if line >= lo && line <= hi {
            let height = hi - lo;
            if best.is_none_or(|(h, _)| height < h) {
                best = Some((height, i));
            }
        }
    }
    best.map(|(_, i)| i)
}

/// The type name `self.method(…)` resolves against inside `item_idx`: the
/// impl self type, or the trait name for trait-default bodies.
fn self_key(index: &FileIndex, item_idx: usize) -> Option<String> {
    let f = index.fns.get(item_idx)?;
    f.owner
        .self_ty
        .clone()
        .or_else(|| f.owner.in_trait_decl.clone())
}

/// Resolve the call site at token `idx` (an ident followed by `(`) to the
/// set of possible workspace targets. Shared with the unit-taint pass,
/// which needs callee parameter lists at call sites.
pub(crate) fn resolve_call(
    tokens: &[Token],
    idx: usize,
    index: &FileIndex,
    caller_item: usize,
    files: &[ParsedSource],
    table: &SymbolTable,
) -> BTreeSet<FnId> {
    let Some(name) = tokens.get(idx).map(|t| t.text.as_str()) else {
        return BTreeSet::new();
    };
    let prev = idx.checked_sub(1).and_then(|i| tokens.get(i));

    // `recv . m (` — a method call.
    if prev.is_some_and(|p| p.is(".")) {
        let recv_is_self = idx
            .checked_sub(2)
            .and_then(|i| tokens.get(i))
            .is_some_and(|r| r.is_ident && r.text == "self");
        if recv_is_self {
            if let Some(key) = self_key(index, caller_item) {
                if let Some(ids) = table.by_qual.get(&(key, name.to_string())) {
                    return ids.iter().copied().collect();
                }
            }
        }
        // Unknown receiver (or unknown exact method): every workspace
        // method with this name. This is the dynamic-dispatch edge.
        return methods_named(name, files, table);
    }

    // `Ty :: m (` — a qualified call.
    let qualified = prev.is_some_and(|p| p.is(":"))
        && idx
            .checked_sub(2)
            .and_then(|i| tokens.get(i))
            .is_some_and(|p| p.is(":"));
    if qualified {
        let ty_tok = idx
            .checked_sub(3)
            .and_then(|i| tokens.get(i))
            .filter(|t| t.is_ident);
        if let Some(ty) = ty_tok {
            let ty_name = if ty.text == "Self" {
                self_key(index, caller_item)
            } else {
                Some(ty.text.clone())
            };
            if let Some(ty_name) = ty_name {
                if let Some(ids) = table.by_qual.get(&(ty_name, name.to_string())) {
                    return ids.iter().copied().collect();
                }
            }
        }
        return BTreeSet::new();
    }

    // Bare `m (` — free functions only (struct/variant constructors and
    // foreign calls resolve to nothing).
    table
        .by_name
        .get(name)
        .map(|ids| {
            ids.iter()
                .copied()
                .filter(|&id| {
                    table.item(files, id).is_some_and(|f| {
                        f.owner.self_ty.is_none() && f.owner.in_trait_decl.is_none()
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Every workspace method (fn with a `self` receiver) named `name`.
fn methods_named(name: &str, files: &[ParsedSource], table: &SymbolTable) -> BTreeSet<FnId> {
    table
        .by_name
        .get(name)
        .map(|ids| {
            ids.iter()
                .copied()
                .filter(|&id| table.item(files, id).is_some_and(|f| f.has_self))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_unit;

    fn workspace(sources: &[(&str, &str)]) -> (Vec<ParsedSource>, SymbolTable, CallGraph) {
        let parsed: Vec<ParsedSource> = sources
            .iter()
            .map(|(path, src)| ParsedSource {
                path: path.to_string(),
                unit: parse_unit(src),
            })
            .collect();
        let table = SymbolTable::build(&parsed);
        let graph = CallGraph::build(&parsed, &table);
        (parsed, table, graph)
    }

    fn id_of(parsed: &[ParsedSource], table: &SymbolTable, label: &str) -> FnId {
        (0..table.fns.len())
            .find(|&id| table.label(parsed, id) == label)
            .unwrap_or_else(|| panic!("no fn labelled {label}"))
    }

    #[test]
    fn free_and_self_calls_resolve() {
        let (parsed, table, graph) = workspace(&[(
            "crates/core/src/a.rs",
            "fn helper() {}\n\
             impl Clip { fn plan(&mut self) { self.audit(); helper(); } fn audit(&self) {} }",
        )]);
        let plan = id_of(&parsed, &table, "Clip::plan");
        let audit = id_of(&parsed, &table, "Clip::audit");
        let helper = id_of(&parsed, &table, "helper");
        let callees = graph.callees.get(plan).cloned().unwrap_or_default();
        assert!(callees.contains(&audit));
        assert!(callees.contains(&helper));
        assert!(graph.callers.get(audit).is_some_and(|c| c.contains(&plan)));
    }

    #[test]
    fn qualified_calls_resolve_and_foreign_paths_do_not() {
        let (parsed, table, graph) = workspace(&[(
            "crates/core/src/a.rs",
            "impl Ledger { fn new() -> Self { Self::init() } fn init() -> Self { Ledger } }\n\
             fn go() { Ledger::new(); mem::take(); }",
        )]);
        let go = id_of(&parsed, &table, "go");
        let new = id_of(&parsed, &table, "Ledger::new");
        let init = id_of(&parsed, &table, "Ledger::init");
        let callees = graph.callees.get(go).cloned().unwrap_or_default();
        assert_eq!(callees.iter().copied().collect::<Vec<_>>(), vec![new]);
        assert!(graph.callees.get(new).is_some_and(|c| c.contains(&init)));
    }

    #[test]
    fn dyn_dispatch_links_all_impls() {
        let (parsed, table, graph) = workspace(&[(
            "crates/core/src/a.rs",
            "impl PowerScheduler for A { fn plan(&mut self) {} }\n\
             impl PowerScheduler for B { fn plan(&mut self) {} }\n\
             fn run(s: &mut dyn PowerScheduler) { s.plan(); }",
        )]);
        let run = id_of(&parsed, &table, "run");
        let a = id_of(&parsed, &table, "A::plan");
        let b = id_of(&parsed, &table, "B::plan");
        let callees = graph.callees.get(run).cloned().unwrap_or_default();
        assert!(callees.contains(&a) && callees.contains(&b));
    }

    #[test]
    fn mutual_recursion_terminates() {
        let (parsed, table, graph) = workspace(&[(
            "crates/core/src/a.rs",
            "fn even(n: u64) -> bool { odd(n) }\nfn odd(n: u64) -> bool { even(n) }\nfn lone() {}",
        )]);
        let even = id_of(&parsed, &table, "even");
        let odd = id_of(&parsed, &table, "odd");
        let lone = id_of(&parsed, &table, "lone");
        let reach = graph.reachable_from(&[even]);
        assert!(reach.contains(&even) && reach.contains(&odd));
        assert!(!reach.contains(&lone));
        // The BFS tree over the cycle still reconstructs a finite route.
        let parents = graph.parents_from(even);
        assert_eq!(route(even, odd, &parents), Some(vec![even, odd]));
        assert_eq!(route(even, lone, &parents), None);
    }

    #[test]
    fn self_recursion_terminates() {
        let (parsed, table, graph) =
            workspace(&[("crates/core/src/a.rs", "fn f(n: u64) -> u64 { f(n) }")]);
        let f = id_of(&parsed, &table, "f");
        let reach = graph.reachable_from(&[f]);
        assert_eq!(reach.iter().copied().collect::<Vec<_>>(), vec![f]);
    }

    #[test]
    fn route_spans_multiple_hops() {
        let (parsed, table, graph) = workspace(&[(
            "crates/core/src/a.rs",
            "fn a() { b() }\nfn b() { c() }\nfn c() {}",
        )]);
        let a = id_of(&parsed, &table, "a");
        let b = id_of(&parsed, &table, "b");
        let c = id_of(&parsed, &table, "c");
        let parents = graph.parents_from(a);
        assert_eq!(route(a, c, &parents), Some(vec![a, b, c]));
    }

    #[test]
    fn enclosing_fn_maps_violation_lines() {
        let src = "fn top() {\n    work();\n}\n\nfn other() {\n    more();\n}\n";
        let parsed = ParsedSource {
            path: "crates/core/src/a.rs".to_string(),
            unit: parse_unit(src),
        };
        let top = fn_in_file_at_line(&parsed, 2);
        let other = fn_in_file_at_line(&parsed, 6);
        let top_idx = top.expect("line 2 inside top");
        let other_idx = other.expect("line 6 inside other");
        assert_eq!(
            parsed.unit.index.fns.get(top_idx).map(|f| f.name.as_str()),
            Some("top")
        );
        assert_eq!(
            parsed
                .unit
                .index
                .fns
                .get(other_idx)
                .map(|f| f.name.as_str()),
            Some("other")
        );
        assert_eq!(fn_in_file_at_line(&parsed, 4), None);
    }

    #[test]
    fn closure_calls_attribute_to_enclosing_fn() {
        let (parsed, table, graph) = workspace(&[(
            "crates/core/src/a.rs",
            "fn target() {}\nfn outer() { let f = |x: u32| target(); f(1); }",
        )]);
        let outer = id_of(&parsed, &table, "outer");
        let target = id_of(&parsed, &table, "target");
        assert!(graph
            .callees
            .get(outer)
            .is_some_and(|c| c.contains(&target)));
    }
}
