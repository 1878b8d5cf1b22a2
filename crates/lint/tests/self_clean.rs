//! The analyzer's own workspace is its first customer: the tree must pass
//! every rule, clip-lint's own sources included, and the allowlist must
//! carry no dead weight: zero stale-unreachable entries and zero entries
//! that match nothing. (The exemptions from clippy's ban on
//! interior-mutable types are `#[expect]` attributes, which clippy itself
//! fails when they silence nothing.)

use clip_lint::parse_allowlist;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn seed_tree_is_clean_with_no_stale_allow_entries() {
    let root = workspace_root();
    let allow_text =
        std::fs::read_to_string(root.join("clip-lint.allow")).expect("allowlist readable");
    let (allow, errors) = parse_allowlist(&allow_text);
    assert!(errors.is_empty(), "allowlist parses: {errors:?}");

    let analysis = clip_lint::analyze_workspace(&root, &allow).expect("workspace analyzes");
    let report = &analysis.report;

    assert_eq!(
        report.summary.total, 0,
        "the tree must be violation-free: {:#?}",
        report.violations
    );
    // The stale-unreachable detector (panic sites no scheduler entry
    // point reaches) must report zero entries: every allowlisted panic
    // still exists and is still reachable, so nothing needs pruning.
    assert!(
        report.stale_unreachable.is_empty(),
        "stale-unreachable allow entries to prune: {:?}",
        report.stale_unreachable
    );
    // And no entry may silence nothing at all.
    let stale: Vec<_> = analysis
        .stale_allow
        .iter()
        .filter_map(|&i| allow.get(i))
        .map(|e| format!("{} {} {}", e.rule, e.file, e.name))
        .collect();
    assert!(
        stale.is_empty(),
        "allow entries matching nothing: {stale:?}"
    );
}
