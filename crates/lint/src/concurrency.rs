//! The concurrency-safety rules: parallelism as a proof obligation.
//!
//! The sharded fleet runs per-rack `EpochEngine`s in parallel inside the
//! replay-critical subgraph. The analysis permits parallel constructs
//! **iff** it can show the work is order-independent. Three rules carry
//! the obligation:
//!
//! - **shared-state** — mutable state reachable from a closure passed
//!   across a parallel boundary (`parallel_map`, `spawn`, `par_iter` and
//!   every auto-discovered fork-join helper): interior-mutable types
//!   (`RefCell`/`Cell`/`Mutex`/`RwLock`/atomics), `static mut` and
//!   interior-mutable statics, and lock/borrow accessor calls — found
//!   directly in the closure body or transitively through the call graph.
//!   Each finding gets the same entry-point blast-radius report panic
//!   propagation has ([`crate::Report::race_reachability`]).
//! - **commutativity** — order-sensitive folds inside parallel closures:
//!   compound accumulation (`acc += x`), last-write-wins assignment, and
//!   `.push()`/`.insert()`/`.entry()` into captured sinks. The blessed
//!   escape is indexed write-back (`out[i] = v`), which never matches the
//!   patterns; anything else needs a reasoned `clip-lint.allow` entry.
//! - **lock-discipline** — the lock-acquisition order derived from body
//!   text plus the call graph; any pair of locks acquired in both orders
//!   is reported as a cycle (deadlock risk once regions run in parallel).
//!
//! Parallel **boundaries** are discovered two ways: a hardcoded list of
//! thread/rayon entry names, plus every workspace function with a generic
//! parameter bound by both a closure trait (`Fn`/`FnMut`/`FnOnce`) and a
//! thread-crossing marker (`Sync`/`Send`) —
//! [`crate::ast::FnItem::sync_closure_params`] — which is how
//! `cluster_sim::sweep::parallel_map` qualifies without being named here.
//!
//! All detection is deliberately over-approximate in the safe direction:
//! a spurious finding costs one reasoned allowlist line; a missed race
//! costs a nondeterministic replay.

use crate::ast::{matching_close, ParsedSource};
use crate::callgraph::{self, CallGraph};
use crate::lexer::Token;
use crate::rules::{Rule, Violation};
use crate::symbols::{FnId, SymbolTable};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Interior-mutable container types (plus any `Atomic*`, matched by
/// prefix in [`is_shared_type`]).
const SHARED_TYPES: [&str; 8] = [
    "RefCell",
    "Cell",
    "Mutex",
    "RwLock",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
];

/// Method names that access interior-mutable state (`recv.lock()`,
/// `counter.fetch_add(1)`, …). `read`/`write` are deliberately absent —
/// they collide with io traits far more often than they catch `RwLock`s.
const SHARED_ACCESS_METHODS: [&str; 8] = [
    "lock",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "compare_exchange",
    "store",
];

/// Hardcoded parallel-boundary call names (thread and rayon entry
/// points). Workspace fork-join helpers are auto-discovered instead.
const PARALLEL_BOUNDARIES: [&str; 4] = ["spawn", "par_iter", "into_par_iter", "par_bridge"];

/// Lock-acquisition method names for the lock-discipline rule.
const LOCK_METHODS: [&str; 2] = ["lock", "borrow_mut"];

/// True for an interior-mutable type name.
pub fn is_shared_type(name: &str) -> bool {
    SHARED_TYPES.contains(&name) || name.starts_with("Atomic")
}

/// Workspace-level context shared by the three rules.
struct Ctx<'a> {
    files: &'a [ParsedSource],
    table: &'a SymbolTable,
    graph: &'a CallGraph,
    /// Call names that hand closures to concurrent executors.
    boundaries: BTreeSet<String>,
    /// Interior-mutable (or `mut`) module-scope statics, by name.
    statics: BTreeSet<String>,
    /// Type name → fields with interior-mutable types.
    shared_fields: BTreeMap<String, Vec<String>>,
}

/// Run all three concurrency rules over the parsed workspace.
pub fn check(files: &[ParsedSource], table: &SymbolTable, graph: &CallGraph) -> Vec<Violation> {
    let mut boundaries: BTreeSet<String> =
        PARALLEL_BOUNDARIES.iter().map(|s| s.to_string()).collect();
    for file in files {
        for f in &file.unit.index.fns {
            if !f.in_test && !f.sync_closure_params().is_empty() {
                boundaries.insert(f.name.clone());
            }
        }
    }
    let mut statics = BTreeSet::new();
    let mut shared_fields: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in files {
        for s in &file.unit.index.statics {
            if !s.in_test && (s.is_mut || is_shared_type(&s.ty_primary)) {
                statics.insert(s.name.clone());
            }
        }
        for st in &file.unit.index.structs {
            if st.in_test {
                continue;
            }
            let shared: Vec<String> = st
                .fields
                .iter()
                .filter(|f| is_shared_type(&f.ty_primary))
                .map(|f| f.name.clone())
                .collect();
            if !shared.is_empty() {
                shared_fields.insert(st.name.clone(), shared);
            }
        }
    }
    let ctx = Ctx {
        files,
        table,
        graph,
        boundaries,
        statics,
        shared_fields,
    };

    let mut out = Vec::new();
    let mut touch_cache: BTreeMap<FnId, Option<(String, String)>> = BTreeMap::new();
    for (file_idx, file) in files.iter().enumerate() {
        scan_parallel_regions(&ctx, file_idx, file, &mut touch_cache, &mut out);
    }
    check_lock_discipline(&ctx, &mut out);
    out
}

/// True when token `idx` of `file` lies in a `#[cfg(test)]` span.
fn in_test_span(file: &ParsedSource, idx: usize) -> bool {
    file.unit.excluded.iter().any(|&(s, e)| idx >= s && idx < e)
}

/// Find every parallel-boundary call in `file` and run the shared-state
/// and commutativity rules over the closures in its argument list.
fn scan_parallel_regions(
    ctx: &Ctx<'_>,
    file_idx: usize,
    file: &ParsedSource,
    touch_cache: &mut BTreeMap<FnId, Option<(String, String)>>,
    out: &mut Vec<Violation>,
) {
    let tokens = &file.unit.tokens;
    let index = &file.unit.index;
    // closure index → boundary name of the innermost region (a closure
    // inside nested boundary calls is scanned once).
    let mut regions: BTreeMap<usize, (String, usize)> = BTreeMap::new();
    for (idx, t) in tokens.iter().enumerate() {
        if !t.is_ident || !ctx.boundaries.contains(&t.text) {
            continue;
        }
        if !tokens.get(idx + 1).is_some_and(|p| p.is("(")) {
            continue;
        }
        if idx > 0
            && tokens
                .get(idx - 1)
                .is_some_and(|p| p.is_ident && p.text == "fn")
        {
            continue; // the boundary's own declaration
        }
        if in_test_span(file, idx) || crate::rules_for_path(&file.path).is_none() {
            continue; // test code and non-library files carry no obligation
        }
        let args_close = matching_close(tokens, idx + 1, "(", ")");
        for c in index.closures_in(idx + 1, args_close) {
            regions.entry(c).or_insert((t.text.clone(), idx));
        }
    }

    for (closure_idx, (boundary, call_idx)) in &regions {
        let Some(closure) = index.closures.get(*closure_idx) else {
            continue;
        };
        let caller_item = index.enclosing_fn(*call_idx);
        check_shared_state(
            ctx,
            file_idx,
            file,
            closure,
            boundary,
            caller_item,
            touch_cache,
            out,
        );
        check_commutativity(file, closure, boundary, out);
    }
}

/// The shared-state rule for one parallel closure: direct mentions in the
/// body, then a call-graph walk from the closure's callees.
#[allow(clippy::too_many_arguments)]
fn check_shared_state(
    ctx: &Ctx<'_>,
    file_idx: usize,
    file: &ParsedSource,
    closure: &crate::ast::ClosureItem,
    boundary: &str,
    caller_item: Option<usize>,
    touch_cache: &mut BTreeMap<FnId, Option<(String, String)>>,
    out: &mut Vec<Violation>,
) {
    let tokens = &file.unit.tokens;
    let (lo, hi) = closure.body;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut push = |name: &str, line: u32, message: String, out: &mut Vec<Violation>| {
        if seen.insert(name.to_string()) {
            out.push(Violation {
                rule: Rule::SharedState,
                file: file.path.clone(),
                line,
                name: name.to_string(),
                message,
            });
        }
    };

    let self_ty = caller_item
        .and_then(|i| file.unit.index.fns.get(i))
        .and_then(|f| f.owner.self_ty.as_deref());
    for idx in lo..=hi.min(tokens.len().saturating_sub(1)) {
        let Some(t) = tokens.get(idx) else { break };
        if !t.is_ident {
            continue;
        }
        if is_shared_type(&t.text) {
            push(
                &t.text,
                t.line,
                format!(
                    "`{}` inside a closure passed to `{boundary}`: interior-mutable state \
                     shared across a parallel boundary breaks replay determinism",
                    t.text
                ),
                out,
            );
        } else if ctx.statics.contains(&t.text) {
            push(
                &t.text,
                t.line,
                format!(
                    "static `{}` touched inside a closure passed to `{boundary}`: \
                     process-global mutable state shared across a parallel boundary",
                    t.text
                ),
                out,
            );
        } else if SHARED_ACCESS_METHODS.contains(&t.text.as_str())
            && tokens.get(idx.wrapping_sub(1)).is_some_and(|p| p.is("."))
            && tokens.get(idx + 1).is_some_and(|n| n.is("("))
        {
            push(
                &t.text,
                t.line,
                format!(
                    "`.{}()` inside a closure passed to `{boundary}`: captured \
                     interior-mutable state accessed across a parallel boundary",
                    t.text
                ),
                out,
            );
        } else if let Some(ty) = self_ty {
            // `self.field` where `field` is interior-mutable on the
            // enclosing impl type.
            let field_of_self = tokens.get(idx.wrapping_sub(1)).is_some_and(|p| p.is("."))
                && tokens
                    .get(idx.wrapping_sub(2))
                    .is_some_and(|s| s.is_ident && s.text == "self");
            if field_of_self
                && ctx
                    .shared_fields
                    .get(ty)
                    .is_some_and(|fs| fs.contains(&t.text))
            {
                push(
                    &t.text,
                    t.line,
                    format!(
                        "interior-mutable field `self.{}` touched inside a closure passed \
                         to `{boundary}`: shared state across a parallel boundary",
                        t.text
                    ),
                    out,
                );
            }
        }
    }

    // Transitive: walk the call graph from every call the closure makes;
    // flag the first state-touching function on each BFS path.
    let Some(caller_item) = caller_item else {
        return;
    };
    let mut roots: BTreeSet<FnId> = BTreeSet::new();
    for idx in lo..=hi.min(tokens.len().saturating_sub(1)) {
        let Some(t) = tokens.get(idx) else { break };
        if !t.is_ident || !tokens.get(idx + 1).is_some_and(|p| p.is("(")) {
            continue;
        }
        roots.extend(callgraph::resolve_call(
            tokens,
            idx,
            &file.unit.index,
            caller_item,
            ctx.files,
            ctx.table,
        ));
    }
    let mut parents: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut visited: BTreeSet<FnId> = roots.clone();
    let mut queue: VecDeque<FnId> = roots.iter().copied().collect();
    while let Some(id) = queue.pop_front() {
        let touch = touch_cache
            .entry(id)
            .or_insert_with(|| fn_touches_shared(ctx, id))
            .clone();
        if let Some((what, kind)) = touch {
            let path = via_path(ctx, id, &roots, &parents);
            push(
                &what,
                closure.line,
                format!(
                    "closure passed to `{boundary}` reaches {kind} `{what}` via `{path}`: \
                     shared mutable state across a parallel boundary"
                ),
                out,
            );
            continue; // deeper state behind this fn shares its obligation
        }
        if let Some(next) = ctx.graph.callees.get(id) {
            for &c in next {
                if visited.insert(c) {
                    parents.insert(c, id);
                    queue.push_back(c);
                }
            }
        }
    }
    let _ = file_idx;
}

/// The `a -> b -> c` label chain from a BFS root to `id`.
fn via_path(
    ctx: &Ctx<'_>,
    id: FnId,
    roots: &BTreeSet<FnId>,
    parents: &BTreeMap<FnId, FnId>,
) -> String {
    let mut chain = vec![id];
    let mut cur = id;
    while !roots.contains(&cur) {
        let Some(&p) = parents.get(&cur) else { break };
        chain.push(p);
        cur = p;
        if chain.len() > parents.len() + 2 {
            break;
        }
    }
    chain.reverse();
    chain
        .iter()
        .map(|&f| ctx.table.label(ctx.files, f))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Does `id`'s own body (or its owning type) touch shared mutable state?
/// Returns `(state name, kind description)` for the first hit.
fn fn_touches_shared(ctx: &Ctx<'_>, id: FnId) -> Option<(String, String)> {
    let sym = ctx.table.fns.get(id)?;
    let file = ctx.files.get(sym.file)?;
    let f = file.unit.index.fns.get(sym.item)?;
    if f.in_test {
        return None;
    }
    if let Some(ty) = &f.owner.self_ty {
        if let Some(fields) = ctx.shared_fields.get(ty) {
            if let Some(first) = fields.first() {
                return Some((
                    format!("{ty}.{first}"),
                    "interior-mutable field".to_string(),
                ));
            }
        }
    }
    let (open, close) = f.body?;
    let tokens = &file.unit.tokens;
    for idx in open..=close.min(tokens.len().saturating_sub(1)) {
        let t = tokens.get(idx)?;
        if !t.is_ident {
            continue;
        }
        if is_shared_type(&t.text) {
            return Some((t.text.clone(), "interior-mutable type".to_string()));
        }
        if ctx.statics.contains(&t.text) {
            return Some((t.text.clone(), "interior-mutable static".to_string()));
        }
        if SHARED_ACCESS_METHODS.contains(&t.text.as_str())
            && tokens.get(idx.wrapping_sub(1)).is_some_and(|p| p.is("."))
            && tokens.get(idx + 1).is_some_and(|n| n.is("("))
        {
            return Some((t.text.clone(), "shared-state accessor".to_string()));
        }
    }
    None
}

/// The commutativity rule for one parallel closure: order-sensitive
/// writes to captured variables. Indexed write-back (`out[i] = v`) never
/// matches — the operator must immediately follow the variable.
fn check_commutativity(
    file: &ParsedSource,
    closure: &crate::ast::ClosureItem,
    boundary: &str,
    out: &mut Vec<Violation>,
) {
    let tokens = &file.unit.tokens;
    let (lo, hi) = closure.body;
    let mut locals: BTreeSet<String> = closure.params.iter().cloned().collect();
    let mut seen: BTreeSet<(String, &'static str)> = BTreeSet::new();
    let mut push = |name: &str, kind: &'static str, line: u32, message: String| {
        if seen.insert((name.to_string(), kind)) {
            out.push(Violation {
                rule: Rule::Commutativity,
                file: file.path.clone(),
                line,
                name: name.to_string(),
                message,
            });
        }
    };

    let mut idx = lo;
    let hi = hi.min(tokens.len().saturating_sub(1));
    while idx <= hi {
        let Some(t) = tokens.get(idx) else { break };
        if t.is_ident && t.text == "let" {
            // Bind the pattern idents, then skip past the `=` so the
            // binding itself is not mistaken for an assignment.
            let mut j = idx + 1;
            while let Some(p) = tokens.get(j) {
                if p.is("=") || p.is(";") || j > hi {
                    break;
                }
                if p.is_ident && p.text != "mut" && p.text != "ref" {
                    locals.insert(p.text.clone());
                }
                j += 1;
            }
            idx = j + 1;
            continue;
        }
        if t.is_ident && t.text == "for" {
            // `for x in …` binds x.
            if let Some(p) = tokens.get(idx + 1).filter(|p| p.is_ident) {
                locals.insert(p.text.clone());
            }
        }
        if t.is_ident && !t.text.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            let next = tokens.get(idx + 1);
            let compound =
                next.is_some_and(|n| ["+=", "-=", "*=", "/=", "%="].iter().any(|op| n.is(op)));
            let plain_assign =
                next.is_some_and(|n| n.is("=")) && !tokens.get(idx + 2).is_some_and(|n| n.is("="));
            let prev_dot = tokens.get(idx.wrapping_sub(1)).is_some_and(|p| p.is("."));
            if compound || plain_assign {
                // Resolve the base variable of a field chain (`a.b.c op`).
                let base = if prev_dot {
                    receiver_base(tokens, idx)
                } else {
                    Some(t.text.clone())
                };
                if let Some(base) = base {
                    let captured = base == "self" || !locals.contains(&base);
                    if captured {
                        if compound {
                            push(
                                &base,
                                "acc",
                                t.line,
                                format!(
                                    "order-sensitive accumulation into captured `{base}` inside \
                                     a closure passed to `{boundary}`; use indexed write-back or \
                                     allowlist with a reason"
                                ),
                            );
                        } else {
                            push(
                                &base,
                                "assign",
                                t.line,
                                format!(
                                    "last-write-wins assignment to captured `{base}` inside a \
                                     closure passed to `{boundary}`; use indexed write-back or \
                                     allowlist with a reason"
                                ),
                            );
                        }
                    }
                }
            } else if ["push", "insert", "extend", "entry"].contains(&t.text.as_str())
                && prev_dot
                && tokens.get(idx + 1).is_some_and(|n| n.is("("))
            {
                if let Some(base) = receiver_base(tokens, idx) {
                    if base == "self" || !locals.contains(&base) {
                        push(
                            &base,
                            "sink",
                            t.line,
                            format!(
                                "order-sensitive `.{}()` into captured sink `{base}` inside a \
                                 closure passed to `{boundary}`; use indexed write-back or \
                                 allowlist with a reason",
                                t.text
                            ),
                        );
                    }
                }
            }
        }
        idx += 1;
    }
}

/// Walk a `base.f1.f2.method` chain backwards from the token at `idx`
/// (whose predecessor is `.`) to the base identifier. `None` when the
/// receiver is not a plain ident chain (e.g. `call().push(…)`).
fn receiver_base(tokens: &[Token], idx: usize) -> Option<String> {
    let mut j = idx;
    loop {
        let dot = j.checked_sub(1)?;
        if !tokens.get(dot)?.is(".") {
            return tokens.get(j).filter(|t| t.is_ident).map(|t| t.text.clone());
        }
        let recv = dot.checked_sub(1)?;
        let r = tokens.get(recv)?;
        if !r.is_ident {
            return None; // `(…).push`, `]{…}.push` — receiver unknown
        }
        j = recv;
    }
}

/// One lock-acquisition or call event in a function body, in token order.
enum LockEvent {
    Acquire(String, u32),
    Call(BTreeSet<FnId>),
}

/// The lock-discipline rule: derive an acquisition-order graph from body
/// text plus the call graph, and report every lock pair acquired in both
/// orders.
fn check_lock_discipline(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    // Per-function event streams and own acquisition sets.
    let mut events: BTreeMap<FnId, Vec<LockEvent>> = BTreeMap::new();
    let mut own: BTreeMap<FnId, BTreeSet<String>> = BTreeMap::new();
    for (file_idx, file) in ctx.files.iter().enumerate() {
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
            let Some(&id) = ctx.table.by_item.get(&(file_idx, item)) else {
                continue;
            };
            if LOCK_METHODS.contains(&t.text.as_str())
                && tokens.get(idx.wrapping_sub(1)).is_some_and(|p| p.is("."))
                && tokens.get(idx + 1).is_some_and(|n| n.is("("))
            {
                if let Some(identity) = lock_identity(ctx, tokens, idx, file, item) {
                    own.entry(id).or_default().insert(identity.clone());
                    events
                        .entry(id)
                        .or_default()
                        .push(LockEvent::Acquire(identity, t.line));
                }
            } else if tokens.get(idx + 1).is_some_and(|n| n.is("("))
                && !crate::callgraph::is_call_keyword(&t.text)
            {
                let targets =
                    callgraph::resolve_call(tokens, idx, index, item, ctx.files, ctx.table);
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
            if let Some(next) = ctx.graph.callees.get(cur) {
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
        let Some(sym) = ctx.table.fns.get(id) else {
            continue;
        };
        let Some(path) = ctx.files.get(sym.file).map(|f| f.path.clone()) else {
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
}

/// The global identity of the lock acquired at `idx` (a `lock`/
/// `borrow_mut` ident preceded by `.`): `Type.field` for `self.field`,
/// the bare name for interior-mutable statics, `fn_label.chain` for
/// locals and parameters.
fn lock_identity(
    ctx: &Ctx<'_>,
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
    if chain.len() == 1 && ctx.statics.contains(base) {
        return Some(base.clone());
    }
    Some(format!("{}.{}", f.name, chain.join(".")))
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

    fn names(out: &[Violation], rule: Rule) -> Vec<&str> {
        out.iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.name.as_str())
            .collect()
    }

    #[test]
    fn refcell_in_spawn_closure_is_flagged() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "fn f(shared: &RefCell<f64>) { spawn(move || { shared.borrow_mut(); }); }",
        )]);
        let n = names(&out, Rule::SharedState);
        assert!(n.contains(&"borrow_mut"), "{:?}", out);
    }

    #[test]
    fn pure_closure_is_clean() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "fn step(x: u32) -> u32 { x + 1 }\n\
             fn f(xs: Vec<u32>) { spawn(move || { let v: Vec<u32> = step(3); v; }); }",
        )]);
        assert!(out.is_empty(), "{:?}", out);
    }

    #[test]
    fn auto_discovered_boundary_from_generic_bounds() {
        let out = run(&[(
            "crates/cluster/src/sweep.rs",
            "pub fn my_fork_join<T: Send, R: Send, F>(items: Vec<T>, f: F) -> Vec<R> \
             where F: Fn(T) -> R + Sync { loop {} }\n\
             static COUNT: AtomicU64 = AtomicU64::new(0);\n\
             pub fn caller(xs: Vec<u32>) { my_fork_join(xs, |x| { COUNT.fetch_add(1); x }); }",
        )]);
        let n = names(&out, Rule::SharedState);
        assert!(n.contains(&"COUNT"), "{:?}", out);
    }

    #[test]
    fn transitive_shared_state_via_call_graph() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "static HITS: AtomicU64 = AtomicU64::new(0);\n\
             fn record() { HITS.fetch_add(1); }\n\
             fn outer(xs: Vec<u32>) { spawn(move || { record(); }); }",
        )]);
        let v: Vec<_> = out.iter().filter(|v| v.rule == Rule::SharedState).collect();
        assert_eq!(v.len(), 1, "{:?}", out);
        let first = v.first().expect("one finding");
        assert_eq!(first.name, "HITS");
        assert!(first.message.contains("via `record`"), "{}", first.message);
    }

    #[test]
    fn commutativity_flags_captured_accumulation_and_sinks() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "fn f(xs: Vec<f64>) { let mut acc = 0.0; let mut sink = vec![]; \
             spawn(move || { acc += 1.0; sink.push(1); let local = 0.0; local; }); }",
        )]);
        let n = names(&out, Rule::Commutativity);
        assert!(n.contains(&"acc"), "{:?}", out);
        assert!(n.contains(&"sink"), "{:?}", out);
    }

    #[test]
    fn indexed_write_back_and_locals_are_clean() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "fn f(out: &mut Vec<f64>) { spawn(move || { out[0] = 1.0; \
             let mut local = 0.0; local += 2.0; for i in 0..3 { i; } }); }",
        )]);
        assert!(names(&out, Rule::Commutativity).is_empty(), "{:?}", out);
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
        let v: Vec<_> = out
            .iter()
            .filter(|v| v.rule == Rule::LockDiscipline)
            .collect();
        assert_eq!(v.len(), 1, "{:?}", out);
        let first = v.first().expect("one finding");
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
        assert!(names(&out, Rule::LockDiscipline).is_empty(), "{:?}", out);
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
        let n = names(&out, Rule::LockDiscipline);
        assert!(n.contains(&"Pair.a"), "{:?}", out);
    }

    #[test]
    fn test_code_carries_no_obligation() {
        let out = run(&[(
            "crates/core/src/a.rs",
            "#[cfg(test)]\nmod t { fn f(c: &RefCell<u8>) { spawn(move || { c.borrow_mut(); }); } }",
        )]);
        assert!(out.is_empty(), "{:?}", out);
    }
}
