//! The lock-discipline rule: the lock-acquisition order derived from
//! body text plus the call graph. Any pair of locks acquired in both
//! orders is reported as a cycle (deadlock risk once regions run in
//! parallel).
//!
//! Shared mutable state itself is the compiler's to check, not this
//! module's: `crates/clippy.toml` bans the interior-mutable std types and
//! the workspace forbids `unsafe_code`, so every lock in the tree sits at
//! a reviewed `#[expect(clippy::disallowed_types, reason = "…")]` site
//! (`parallel_map`'s worker takes three). Clippy cannot see the order
//! those locks are taken in; this rule can.

use crate::ast::ParsedSource;
use crate::callgraph::{self, CallGraph};
use crate::lexer::Token;
use crate::rules::{Rule, Violation};
use crate::symbols::{FnId, SymbolTable};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Lock-acquisition method names.
const LOCK_METHODS: [&str; 2] = ["lock", "borrow_mut"];

/// True when token `idx` of `file` lies in a `#[cfg(test)]` span.
fn in_test_span(file: &ParsedSource, idx: usize) -> bool {
    file.unit.excluded.iter().any(|&(s, e)| idx >= s && idx < e)
}

/// One lock-acquisition or call event in a function body, in token order.
enum LockEvent {
    Acquire(String, u32),
    Call(BTreeSet<FnId>),
}

/// Run the lock-discipline rule over the parsed workspace: derive an
/// acquisition-order graph from body text plus the call graph, and report
/// every lock pair acquired in both orders.
pub fn check(files: &[ParsedSource], table: &SymbolTable, graph: &CallGraph) -> Vec<Violation> {
    // Module-scope statics, by name: a lock on one is the same lock in
    // every function that takes it.
    let statics: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| &f.unit.index.statics)
        .filter(|s| !s.in_test)
        .map(|s| s.name.as_str())
        .collect();
    // Per-function event streams and own acquisition sets.
    let mut events: BTreeMap<FnId, Vec<LockEvent>> = BTreeMap::new();
    let mut own: BTreeMap<FnId, BTreeSet<String>> = BTreeMap::new();
    for (file_idx, file) in files.iter().enumerate() {
        if crate::rules_for_path(&file.path).is_none() {
            continue;
        }
        let tokens = &file.unit.tokens;
        let index = &file.unit.index;
        for (idx, t) in tokens.iter().enumerate() {
            if !t.is_ident || in_test_span(file, idx) {
                continue;
            }
            let Some(item) = index.enclosing_fn(idx) else {
                continue;
            };
            let Some(&id) = table.by_item.get(&(file_idx, item)) else {
                continue;
            };
            if LOCK_METHODS.contains(&t.text.as_str())
                && tokens.get(idx.wrapping_sub(1)).is_some_and(|p| p.is("."))
                && tokens.get(idx + 1).is_some_and(|n| n.is("("))
            {
                if let Some(identity) = lock_identity(&statics, tokens, idx, file, item) {
                    own.entry(id).or_default().insert(identity.clone());
                    events
                        .entry(id)
                        .or_default()
                        .push(LockEvent::Acquire(identity, t.line));
                }
            } else if tokens.get(idx + 1).is_some_and(|n| n.is("("))
                && !crate::callgraph::is_call_keyword(&t.text)
            {
                let targets = callgraph::resolve_call(tokens, idx, index, item, files, table);
                if !targets.is_empty() {
                    events.entry(id).or_default().push(LockEvent::Call(targets));
                }
            }
        }
    }

    // Locks transitively acquired by each function (own + descendants).
    let mut trans: BTreeMap<FnId, BTreeSet<String>> = BTreeMap::new();
    for &id in events.keys() {
        let mut acc: BTreeSet<String> = BTreeSet::new();
        let mut visited: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        visited.insert(id);
        queue.push_back(id);
        while let Some(cur) = queue.pop_front() {
            if let Some(o) = own.get(&cur) {
                acc.extend(o.iter().cloned());
            }
            if let Some(next) = graph.callees.get(cur) {
                for &c in next {
                    if visited.insert(c) {
                        queue.push_back(c);
                    }
                }
            }
        }
        trans.insert(id, acc);
    }

    // Order edges: lock A held (textually earlier) when B is acquired —
    // in the same body, or transitively inside a later call.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for (&id, evs) in &events {
        let Some(sym) = table.fns.get(id) else {
            continue;
        };
        let Some(path) = files.get(sym.file).map(|f| f.path.clone()) else {
            continue;
        };
        for (i, ev) in evs.iter().enumerate() {
            let LockEvent::Acquire(a, _) = ev else {
                continue;
            };
            for later in evs.iter().skip(i + 1) {
                match later {
                    LockEvent::Acquire(b, line) => {
                        if a != b {
                            edges
                                .entry((a.clone(), b.clone()))
                                .or_insert((path.clone(), *line));
                        }
                    }
                    LockEvent::Call(targets) => {
                        for t in targets {
                            for b in trans.get(t).into_iter().flatten() {
                                if a != b {
                                    edges
                                        .entry((a.clone(), b.clone()))
                                        .or_insert((path.clone(), 0));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Cycle report: every unordered pair acquired in both orders.
    let adjacency: BTreeMap<&String, BTreeSet<&String>> = {
        let mut adj: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            adj.entry(a).or_default().insert(b);
        }
        adj
    };
    let reaches = |from: &String, to: &String| -> bool {
        let mut visited: BTreeSet<&String> = BTreeSet::new();
        let mut queue: VecDeque<&String> = VecDeque::new();
        visited.insert(from);
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                return true;
            }
            for &next in adjacency.get(cur).into_iter().flatten() {
                if visited.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        false
    };
    let mut out = Vec::new();
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), (path, line)) in &edges {
        if a >= b || !reaches(b, a) {
            continue;
        }
        if !reported.insert((a.clone(), b.clone())) {
            continue;
        }
        let (file, line) = edges
            .get(&(a.clone(), b.clone()))
            .map(|(f, l)| (f.clone(), *l))
            .unwrap_or((path.clone(), *line));
        out.push(Violation {
            rule: Rule::LockDiscipline,
            file,
            line,
            name: a.clone(),
            message: format!(
                "lock-order cycle: `{a}` and `{b}` are acquired in inconsistent order \
                 (deadlock risk once regions run in parallel); impose one acquisition order"
            ),
        });
    }
    out
}

/// The global identity of the lock acquired at `idx` (a `lock`/
/// `borrow_mut` ident preceded by `.`): `Type.field` for `self.field`,
/// the bare name for a module-scope static, `fn_label.chain` for locals
/// and parameters.
fn lock_identity(
    statics: &BTreeSet<&str>,
    tokens: &[Token],
    idx: usize,
    file: &ParsedSource,
    item: usize,
) -> Option<String> {
    // Collect the receiver chain `base.f1.f2` backwards.
    let mut chain: Vec<String> = Vec::new();
    let mut j = idx;
    loop {
        let dot = j.checked_sub(1)?;
        if !tokens.get(dot)?.is(".") {
            break;
        }
        let recv = dot.checked_sub(1)?;
        let r = tokens.get(recv)?;
        if !r.is_ident {
            return None; // `call().lock()` — identity unknown; skip
        }
        chain.push(r.text.clone());
        j = recv;
    }
    chain.reverse();
    let base = chain.first()?;
    let f = file.unit.index.fns.get(item)?;
    if base == "self" {
        let ty = f
            .owner
            .self_ty
            .clone()
            .or_else(|| f.owner.in_trait_decl.clone())?;
        let rest = chain.get(1..).unwrap_or_default().join(".");
        return Some(if rest.is_empty() {
            ty
        } else {
            format!("{ty}.{rest}")
        });
    }
    if chain.len() == 1 && statics.contains(base.as_str()) {
        return Some(base.clone());
    }
    Some(format!("{}.{}", f.name, chain.join(".")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_unit;

    /// The lock-discipline findings on `sources`.
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

    fn names(out: &[Violation]) -> Vec<&str> {
        out.iter().map(|v| v.name.as_str()).collect()
    }

    #[test]
    fn lock_order_cycle_is_reported() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl Pair {\n\
             pub fn forward(&self) { self.a.lock(); self.b.lock(); }\n\
             pub fn backward(&self) { self.b.lock(); self.a.lock(); }\n\
             }",
        )]);
        assert_eq!(out.len(), 1, "{:?}", out);
        let first = out.first().expect("one finding");
        assert_eq!(first.rule, Rule::LockDiscipline);
        assert_eq!(first.name, "Pair.a");
        assert!(first.message.contains("Pair.b"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl Pair {\n\
             pub fn one(&self) { self.a.lock(); self.b.lock(); }\n\
             pub fn two(&self) { self.a.lock(); self.b.lock(); }\n\
             }",
        )]);
        assert!(out.is_empty(), "{:?}", out);
    }

    #[test]
    fn interprocedural_lock_cycle() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl Pair {\n\
             pub fn forward(&self) { self.a.lock(); self.take_b(); }\n\
             fn take_b(&self) { self.b.lock(); }\n\
             pub fn backward(&self) { self.b.lock(); self.a.lock(); }\n\
             }",
        )]);
        assert!(names(&out).contains(&"Pair.a"), "{:?}", out);
    }

    #[test]
    fn static_lock_cycle_is_named_by_the_static() {
        // Two functions take the same two statics in opposite orders: one
        // lock each, whichever function takes it.
        let out = run(&[(
            "crates/core/src/a.rs",
            "static FIRST: Mutex<u32> = Mutex::new(0);\n\
             static SECOND: Mutex<u32> = Mutex::new(0);\n\
             pub fn forward() { FIRST.lock(); SECOND.lock(); }\n\
             pub fn backward() { SECOND.lock(); FIRST.lock(); }",
        )]);
        assert_eq!(names(&out), vec!["FIRST"], "{:?}", out);
        let first = out.first().expect("one finding");
        assert!(first.message.contains("`SECOND`"), "{}", first.message);
    }

    #[test]
    fn test_code_carries_no_obligation() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "#[cfg(test)]\nmod t {\n\
             pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl Pair {\n\
             pub fn forward(&self) { self.a.lock(); self.b.lock(); }\n\
             pub fn backward(&self) { self.b.lock(); self.a.lock(); }\n\
             }\n}",
        )]);
        assert!(out.is_empty(), "{:?}", out);
    }
}
