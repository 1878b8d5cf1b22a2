#![warn(missing_docs)]

//! # clip-lint — workspace-specific static analysis
//!
//! `cargo clippy` enforces general Rust hygiene; this crate enforces the
//! invariants that are specific to a power-coordination codebase and that
//! no general-purpose linter knows about. Checks the tree makes more
//! exactly elsewhere live there: per-epoch allocations are counted by
//! `scripts/check.sh`'s allocation ceilings, and `HashMap`/`HashSet`/
//! wall clocks are banned by clippy's `disallowed_types`
//! (`crates/clippy.toml`), which resolves the type where a token match
//! would miss an alias.
//!
//! Per-file rules ([`rules`]):
//!
//! 1. **unit-safety** — power, energy and time values cross function and
//!    struct boundaries as `simkit` quantities, never as bare `f64`.
//! 2. **panic-freedom** — library code must not contain
//!    `unwrap`/`expect`/`panic!`/indexing panics, `map[&key]` included.
//! 3. **exhaustiveness** — matches over the domain enums list every
//!    variant: no `_` or lone-binding catch-all arm, whether the
//!    scrutinee is the enum, a tuple or an `Option` holding it. The enum
//!    list is auto-discovered from `pub enum` declarations deriving
//!    `Serialize` + `Clone` in the domain crates.
//!
//! Workspace-wide passes, built on an item-level parser ([`ast`]), a
//! symbol table ([`symbols`]) and a call graph ([`callgraph`]):
//!
//! 4. **unit-taint** ([`dataflow`]) — bare `f64` quantities must not flow
//!    through bindings, returns or call arguments into unit-named sinks,
//!    across function and crate boundaries.
//! 5. **ledger-coverage** ([`ledger`]) — every `PowerScheduler` impl's
//!    `plan`/`plan_subset` transitively reaches `BudgetLedger`.
//! 6. **lock-discipline** ([`concurrency`]) — lock pairs acquired in
//!    inconsistent order across the call graph (deadlock cycles).
//!
//! Shared mutable state is not the analyzer's business: clippy bans the
//! interior-mutable std types (`crates/clippy.toml`) and the workspace
//! forbids `unsafe_code`, so `static mut` cannot be written either. A
//! reviewed site carries `#[expect(clippy::disallowed_types, reason =
//! "…")]`. The locks those sites hold are still this crate's to order.
//!
//! The analyzer additionally annotates every *allowlisted* panic site
//! with its blast radius: which scheduler entry points can reach it, via
//! which call path. Allow entries whose panic sites are unreachable from
//! every entry point are reported as `stale-unreachable` so the allowlist
//! shrinks as code is refactored.
//!
//! Files parse in parallel via the workspace's order-preserving
//! `parallel_map`. The report comes out as JSON (schema
//! [`REPORT_VERSION`], golden-pinned).
//!
//! Intentional escapes go in the allowlist, one per line:
//!
//! ```text
//! panic-freedom crates/simkit/src/linalg.rs index  # dimensions asserted at entry
//! ```
//!
//! (rule, file suffix, violation name, and a `#` reason — the reason is
//! required.)

pub mod ast;
pub mod callgraph;
pub mod concurrency;
pub mod dataflow;
pub mod ledger;
pub mod lexer;
pub mod rules;
pub mod symbols;

use ast::{parse_unit, ParsedSource};
use callgraph::CallGraph;
use rules::{FileRules, Rule, Violation};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use symbols::SymbolTable;

/// Crates whose API surfaces must use quantity types (the unit-safety and
/// unit-taint rules). `simkit` is excluded by design: it is the boundary
/// where quantities wrap raw numbers.
pub const UNIT_SAFETY_CRATES: [&str; 4] = ["core", "cluster", "simnode", "baselines"];

/// Format version of the JSON report.
pub const REPORT_VERSION: u32 = 6;

/// One allowlist entry: `rule file-suffix name  # reason`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule name the entry silences.
    pub rule: String,
    /// Workspace-relative file path suffix.
    pub file: String,
    /// Violation name (`unwrap`, `index`, a parameter name, an enum name).
    pub name: String,
    /// Why the escape is intentional.
    pub reason: String,
}

/// Parse the allowlist format. Lines that are blank or pure comments are
/// skipped; entries missing a `#` reason are rejected (returned in the
/// error list) so escapes stay justified.
pub fn parse_allowlist(text: &str) -> (Vec<AllowEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (spec, reason) = match line.split_once('#') {
            Some((s, r)) => (s.trim(), r.trim().to_string()),
            None => {
                errors.push(format!(
                    "allowlist line {}: missing `# reason` — every escape needs a justification",
                    idx + 1
                ));
                continue;
            }
        };
        let mut fields = spec.split_whitespace();
        match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some(rule), Some(file), Some(name), None) => entries.push(AllowEntry {
                rule: rule.to_string(),
                file: file.to_string(),
                name: name.to_string(),
                reason,
            }),
            _ => errors.push(format!(
                "allowlist line {}: expected `rule file name  # reason`, got `{line}`",
                idx + 1
            )),
        }
    }
    (entries, errors)
}

/// Rule counts for the report summary.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Summary {
    /// Files scanned by the per-file rules.
    pub files_scanned: usize,
    /// Functions indexed across the workspace.
    pub functions: usize,
    /// Scheduler entry points rooting the transitive passes.
    pub entry_points: usize,
    /// Violations after allowlisting.
    pub total: usize,
    /// unit-safety violations.
    pub unit_safety: usize,
    /// panic-freedom violations.
    pub panic_freedom: usize,
    /// exhaustiveness violations.
    pub exhaustiveness: usize,
    /// unit-taint violations.
    pub unit_taint: usize,
    /// ledger-coverage violations.
    pub ledger_coverage: usize,
    /// lock-discipline violations.
    pub lock_discipline: usize,
    /// Findings silenced by the allowlist.
    pub allowlisted: usize,
}

/// One entry-point → site call path.
#[derive(Debug, Clone, Serialize)]
pub struct CallRoute {
    /// Label of the entry point (`Clip::plan`, `run_with_faults`, …).
    pub entry: String,
    /// Function labels along the shortest path, entry first, the function
    /// containing the site last.
    pub path: Vec<String>,
}

/// Blast radius of one allowlisted panic site.
#[derive(Debug, Clone, Serialize)]
pub struct SiteReachability {
    /// Workspace-relative file of the site.
    pub file: String,
    /// 1-based line of the site.
    pub line: u32,
    /// Violation name (`unwrap`, `expect`, `index`, …).
    pub name: String,
    /// Label of the function containing the site (empty at module scope).
    pub function: String,
    /// Entry points that can reach the site, with one shortest path each.
    /// Empty means no scheduler entry point reaches this site.
    pub routes: Vec<CallRoute>,
}

/// An allowlist entry whose every matched panic site is unreachable from
/// all scheduler entry points — a candidate for pruning.
#[derive(Debug, Clone, Serialize)]
pub struct StaleUnreachable {
    /// Rule name of the entry.
    pub rule: String,
    /// File suffix of the entry.
    pub file: String,
    /// Violation name of the entry.
    pub name: String,
}

/// The machine-readable report (`clip-lint --json`).
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Format version ([`REPORT_VERSION`]).
    pub version: u32,
    /// Surviving violations, ordered by file then line.
    pub violations: Vec<Violation>,
    /// Blast radius of every allowlisted panic site.
    pub panic_reachability: Vec<SiteReachability>,
    /// Allow entries whose panic sites no entry point reaches.
    pub stale_unreachable: Vec<StaleUnreachable>,
    /// Aggregate counts.
    pub summary: Summary,
}

/// Output of [`build_report`].
#[derive(Debug)]
pub struct BuildOutput {
    /// The report (transitive sections empty until [`analyze`] fills them).
    pub report: Report,
    /// Indices of allowlist entries that silenced nothing.
    pub stale_allow: Vec<usize>,
    /// Silenced findings, each with the allowlist entry index that matched.
    pub allowlisted: Vec<(usize, Violation)>,
}

/// Apply the allowlist to raw findings and aggregate the summary.
pub fn build_report(
    mut findings: Vec<Violation>,
    files_scanned: usize,
    allow: &[AllowEntry],
) -> BuildOutput {
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then_with(|| a.name.cmp(&b.name))
    });
    let mut used = vec![false; allow.len()];
    let mut allowlisted = Vec::new();
    let mut violations = Vec::new();
    for v in findings {
        let hit = allow.iter().enumerate().find(|(_, e)| {
            e.rule == v.rule.name() && v.file.ends_with(&e.file) && e.name == v.name
        });
        match hit {
            Some((idx, _)) => {
                if let Some(flag) = used.get_mut(idx) {
                    *flag = true;
                }
                allowlisted.push((idx, v));
            }
            None => violations.push(v),
        }
    }
    let mut summary = Summary {
        files_scanned,
        total: violations.len(),
        allowlisted: allowlisted.len(),
        ..Summary::default()
    };
    for v in &violations {
        match v.rule {
            Rule::UnitSafety => summary.unit_safety += 1,
            Rule::PanicFreedom => summary.panic_freedom += 1,
            Rule::Exhaustiveness => summary.exhaustiveness += 1,
            Rule::UnitTaint => summary.unit_taint += 1,
            Rule::LedgerCoverage => summary.ledger_coverage += 1,
            Rule::LockDiscipline => summary.lock_discipline += 1,
        }
    }
    let stale_allow = used
        .iter()
        .enumerate()
        .filter(|(_, &u)| !u)
        .map(|(i, _)| i)
        .collect();
    BuildOutput {
        report: Report {
            version: REPORT_VERSION,
            violations,
            panic_reachability: Vec::new(),
            stale_unreachable: Vec::new(),
            summary,
        },
        stale_allow,
        allowlisted,
    }
}

/// One workspace source file handed to [`analyze`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/<crate>/src/<file>.rs`).
    pub path: String,
    /// File contents.
    pub source: String,
}

/// Result of a full workspace analysis.
#[derive(Debug)]
pub struct Analysis {
    /// The report.
    pub report: Report,
    /// Indices of allowlist entries that silenced nothing at all.
    pub stale_allow: Vec<usize>,
}

/// Run the full pipeline over in-memory sources: parse (parallel)
/// → symbol table → per-file rules (parallel, with discovered enums) →
/// call graph → transitive passes → allowlisted report with panic
/// blast-radius annotations.
///
/// Sources are sorted by path first so `FnId` numbering — and therefore
/// every route and report byte — is independent of input order; together
/// with the order-preserving `parallel_map` this makes the report the
/// same bytes whatever order the files arrive or parse in.
pub fn analyze(mut sources: Vec<SourceFile>, allow: &[AllowEntry]) -> Analysis {
    sources.sort_by(|a, b| a.path.cmp(&b.path));
    let parsed: Vec<ParsedSource> = cluster_sim::sweep::parallel_map(sources, |s| ParsedSource {
        path: s.path,
        unit: parse_unit(&s.source),
    });
    let table = SymbolTable::build(&parsed);
    let enums = table.domain_enums.clone();

    // Per-file rules, file-parallel. Scope decided by path; lexing was
    // already done during parsing.
    let scanned: Vec<Option<Vec<Violation>>> = cluster_sim::sweep::parallel_map(
        (0..parsed.len()).collect(),
        |i: usize| -> Option<Vec<Violation>> {
            let file = parsed.get(i)?;
            let file_rules = rules_for_path(&file.path)?;
            Some(rules::check_tokens_with_enums(
                &file.path,
                &file.unit.tokens,
                file_rules,
                &enums,
            ))
        },
    );
    let files_scanned = scanned.iter().flatten().count();
    let mut findings: Vec<Violation> = scanned.into_iter().flatten().flatten().collect();

    let graph = CallGraph::build(&parsed, &table);
    let entries = table.entry_points(&parsed);
    findings.extend(concurrency::check(&parsed, &table, &graph));
    findings.extend(dataflow::check(&parsed, &table));
    findings.extend(ledger::check(&parsed, &table, &graph));

    let BuildOutput {
        mut report,
        stale_allow,
        allowlisted,
    } = build_report(findings, files_scanned, allow);
    report.summary.functions = table.fns.len();
    report.summary.entry_points = entries.len();

    // Blast radius of every allowlisted panic site: which entry points
    // reach it, via which shortest path.
    let path_index: BTreeMap<&str, usize> = parsed
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    let entry_trees: Vec<(
        symbols::FnId,
        BTreeMap<symbols::FnId, symbols::FnId>,
        String,
    )> = entries
        .iter()
        .map(|&e| (e, graph.parents_from(e), table.label(&parsed, e)))
        .collect();
    let site_reach = |v: &Violation| -> SiteReachability {
        let mut function = String::new();
        let mut routes = Vec::new();
        let site_fn = path_index.get(v.file.as_str()).and_then(|&fi| {
            let file = parsed.get(fi)?;
            let item = callgraph::fn_in_file_at_line(file, v.line)?;
            table.by_item.get(&(fi, item)).copied()
        });
        if let Some(id) = site_fn {
            function = table.label(&parsed, id);
            for (entry, parents, entry_label) in &entry_trees {
                if let Some(path) = callgraph::route(*entry, id, parents) {
                    routes.push(CallRoute {
                        entry: entry_label.clone(),
                        path: path.iter().map(|&f| table.label(&parsed, f)).collect(),
                    });
                }
            }
        }
        SiteReachability {
            file: v.file.clone(),
            line: v.line,
            name: v.name.clone(),
            function,
            routes,
        }
    };
    let mut reach: Vec<SiteReachability> = Vec::new();
    // allow-entry index → true while every matched site is unreachable.
    let mut all_unreachable: BTreeMap<usize, bool> = BTreeMap::new();
    for (allow_idx, v) in &allowlisted {
        if v.rule != Rule::PanicFreedom {
            continue;
        }
        let site = site_reach(v);
        let reachable = !site.routes.is_empty();
        all_unreachable
            .entry(*allow_idx)
            .and_modify(|u| *u &= !reachable)
            .or_insert(!reachable);
        reach.push(site);
    }
    reach.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then_with(|| a.name.cmp(&b.name))
    });
    reach.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.name == b.name);
    report.panic_reachability = reach;
    report.stale_unreachable = all_unreachable
        .iter()
        .filter(|(_, &unreachable)| unreachable)
        .filter_map(|(&idx, _)| allow.get(idx))
        .map(|e| StaleUnreachable {
            rule: e.rule.clone(),
            file: e.file.clone(),
            name: e.name.clone(),
        })
        .collect();

    Analysis {
        report,
        stale_allow,
    }
}

/// Read every workspace source under `root` and [`analyze`] it.
pub fn analyze_workspace(root: &Path, allow: &[AllowEntry]) -> std::io::Result<Analysis> {
    let mut sources = Vec::new();
    for rel in workspace_sources(root)? {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(root.join(&rel))?;
        sources.push(SourceFile {
            path: rel_str,
            source,
        });
    }
    Ok(analyze(sources, allow))
}

/// Scan one source string as if it were the file `rel_path` (the per-file
/// subset of the pipeline, with the fallback enum list).
pub fn scan_source(rel_path: &str, source: &str, rules: FileRules) -> Vec<Violation> {
    rules::check_tokens(rel_path, &lexer::lex(source), rules)
}

/// Which rules apply to a workspace-relative path. `None` means the file
/// is out of scope (tests, benches, examples, shims, generated output).
pub fn rules_for_path(rel: &str) -> Option<FileRules> {
    let unix = rel.replace('\\', "/");
    if !unix.starts_with("crates/") {
        return None;
    }
    let mut parts = unix.split('/');
    let (_, crate_name, tree) = (parts.next(), parts.next()?, parts.next()?);
    if tree != "src" {
        return None; // tests/, benches/, examples/ are not library code
    }
    let rest = parts.next();
    if rest == Some("bin") || rest == Some("main.rs") {
        return None; // binary entry points may parse args and panic
    }
    Some(FileRules {
        unit_safety: UNIT_SAFETY_CRATES.contains(&crate_name),
        library_rules: true,
    })
}

/// All `.rs` files under `root/crates/*/src`, workspace-relative, sorted.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut stack: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            stack.push(src);
        }
    }
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_path_buf());
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_roundtrip() {
        let text = "\n# comment\npanic-freedom crates/x/src/a.rs unwrap  # checked above\n";
        let (entries, errors) = parse_allowlist(text);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(entries.len(), 1);
        let e = entries.first().expect("one entry");
        assert_eq!(e.rule, "panic-freedom");
        assert_eq!(e.name, "unwrap");
        assert_eq!(e.reason, "checked above");
    }

    #[test]
    fn allowlist_requires_reason() {
        let (entries, errors) = parse_allowlist("panic-freedom a.rs unwrap\n");
        assert!(entries.is_empty());
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn report_applies_allowlist_and_reports_stale() {
        let findings = scan_source(
            "crates/core/src/x.rs",
            "fn f() { a.unwrap(); b.unwrap(); }",
            FileRules {
                unit_safety: false,
                library_rules: true,
            },
        );
        assert_eq!(findings.len(), 2);
        let allow = vec![
            AllowEntry {
                rule: "panic-freedom".into(),
                file: "crates/core/src/x.rs".into(),
                name: "unwrap".into(),
                reason: "test".into(),
            },
            AllowEntry {
                rule: "panic-freedom".into(),
                file: "crates/core/src/gone.rs".into(),
                name: "expect".into(),
                reason: "stale".into(),
            },
        ];
        let out = build_report(findings, 1, &allow);
        assert_eq!(out.report.summary.total, 0);
        assert_eq!(out.report.summary.allowlisted, 2);
        assert_eq!(out.allowlisted.len(), 2);
        assert_eq!(out.stale_allow, vec![1]);
    }

    #[test]
    fn path_scoping() {
        assert!(rules_for_path("crates/core/src/scheduler.rs")
            .is_some_and(|r| r.unit_safety && r.library_rules));
        assert!(rules_for_path("crates/simkit/src/units.rs").is_some_and(|r| !r.unit_safety));
        assert!(rules_for_path("crates/core/tests/props.rs").is_none());
        assert!(rules_for_path("shims/serde/src/lib.rs").is_none());
        assert!(rules_for_path("crates/bench/benches/sweep.rs").is_none());
        assert!(rules_for_path("crates/bench/src/bin/clip_sched.rs").is_none());
        assert!(rules_for_path("crates/lint/src/main.rs").is_none());
    }

    fn fixture_sources() -> Vec<SourceFile> {
        vec![
            SourceFile {
                path: "crates/core/src/sched.rs".to_string(),
                source: "impl PowerScheduler for Clip { fn plan(&mut self) { helper(); } }\n\
                         fn helper() { let l = BudgetLedger::new(); let xs = vec![1]; \
                         let v = xs[0]; }\n"
                    .to_string(),
            },
            SourceFile {
                path: "crates/core/src/offline.rs".to_string(),
                source: "fn report() { let ys = vec![1]; let v = ys[0]; }\n".to_string(),
            },
        ]
    }

    #[test]
    fn analyze_reports_panic_blast_radius() {
        let allow = vec![
            AllowEntry {
                rule: "panic-freedom".into(),
                file: "crates/core/src/sched.rs".into(),
                name: "index".into(),
                reason: "bounds asserted".into(),
            },
            AllowEntry {
                rule: "panic-freedom".into(),
                file: "crates/core/src/offline.rs".into(),
                name: "index".into(),
                reason: "bounds asserted".into(),
            },
        ];
        let analysis = analyze(fixture_sources(), &allow);
        let report = &analysis.report;
        assert_eq!(report.summary.total, 0, "{:?}", report.violations);
        assert_eq!(report.summary.entry_points, 1);
        assert_eq!(report.panic_reachability.len(), 2);

        let reached = report
            .panic_reachability
            .iter()
            .find(|p| p.file.ends_with("sched.rs"))
            .expect("sched.rs site present");
        assert_eq!(reached.function, "helper");
        assert_eq!(reached.routes.len(), 1);
        let route = reached.routes.first().expect("one route");
        assert_eq!(route.entry, "Clip::plan");
        assert_eq!(
            route.path,
            vec!["Clip::plan".to_string(), "helper".to_string()]
        );

        let unreached = report
            .panic_reachability
            .iter()
            .find(|p| p.file.ends_with("offline.rs"))
            .expect("offline.rs site present");
        assert!(unreached.routes.is_empty());

        // Only the unreachable entry is stale-unreachable.
        assert_eq!(report.stale_unreachable.len(), 1);
        let stale = report.stale_unreachable.first().expect("one");
        assert_eq!(stale.file, "crates/core/src/offline.rs");
    }

    #[test]
    fn analyze_uses_discovered_enums_for_exhaustiveness() {
        let sources = vec![
            SourceFile {
                path: "crates/cluster/src/kinds.rs".to_string(),
                source: "#[derive(Debug, Clone, Serialize)]\npub enum NewKind { A, B }\n"
                    .to_string(),
            },
            SourceFile {
                path: "crates/core/src/use_site.rs".to_string(),
                source: "fn f(k: NewKind) -> u32 { match k { NewKind::A => 1, _ => 2 } }\n"
                    .to_string(),
            },
        ];
        let analysis = analyze(sources, &[]);
        let v = &analysis.report.violations;
        assert!(
            v.iter()
                .any(|v| v.rule == Rule::Exhaustiveness && v.name == "NewKind"),
            "{v:?}"
        );
    }
}
