//! The analyzer's own workspace is its first customer: the seed tree must
//! pass every rule — including the v3 concurrency rules clip-lint's own
//! file-parallel pipeline is subject to and the v4 hot-path cost rules —
//! and the allowlist must carry no dead weight. PR 5's engine unification
//! obsoleted several panic sites; this test pins that the pruned
//! allowlist stays pruned: zero stale-unreachable entries and zero
//! entries that match nothing.
//!
//! The v4 budget ratchet also lives here: the per-entry-point allocation
//! site counts below are the post-fix numbers recorded when the hot-alloc
//! rule landed. A new allocation on an engine hot path raises a count and
//! fails this test — either hoist the allocation (preferred) or add a
//! reasoned allow entry AND consciously raise the pinned budget in the
//! same change.

use clip_lint::cache::ParseCache;
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

    let cache = ParseCache::new();
    let analysis = clip_lint::analyze_workspace(&root, &allow, &cache).expect("workspace analyzes");
    let report = &analysis.report;

    assert_eq!(
        report.summary.total, 0,
        "seed tree must be violation-free: {:#?}",
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

/// The per-entry-point allocation budget ratchet (see module doc). The
/// numbers are the workspace's post-fix hot-path allocation site counts;
/// `run_sharded` subsumes the engine entries because the sharded driver
/// reaches every engine phase plus the arbiter.
#[test]
fn hot_path_budgets_hold_the_ratchet() {
    let root = workspace_root();
    let allow_text =
        std::fs::read_to_string(root.join("clip-lint.allow")).expect("allowlist readable");
    let (allow, errors) = parse_allowlist(&allow_text);
    assert!(errors.is_empty(), "allowlist parses: {errors:?}");

    let cache = ParseCache::new();
    let analysis = clip_lint::analyze_workspace(&root, &allow, &cache).expect("workspace analyzes");

    let budgets: Vec<(String, usize, usize)> = analysis
        .report
        .cost
        .iter()
        .map(|e| (e.entry.clone(), e.alloc_sites, e.serde_sites))
        .collect();
    // prepare_epoch/run grew because the service boundary's zero-sum
    // `audit_shift` makes the ledger's violation-branch `format!` sites
    // reachable (all allowlisted: they format evidence only when an
    // audit fails — the happy path allocates nothing); `run_sharded` is
    // now a loop-less wrapper over `run_sharded_service`, which owns the
    // epoch loop. The rack pool starts its threads once per campaign, so
    // no fan-out site is per-epoch; the sharded pins must still count the
    // execute path, which they reach through the calling thread's direct
    // `execute_part` call. A job runs its ranks against a borrowed
    // per-rank view of the app, so no `strong_scale` copy is on the
    // execute path: what it still allocates is the job report's per-node
    // buffer. The report shares its app's name, the engine's job memo
    // refills its buffers in place, and a replayed rank is a copy. A
    // placement keeps its per-socket counts inline, and a ledger borrows
    // the scheduler's name, copying it only into a violation, so neither
    // allocates on the happy path.
    let pinned: Vec<(String, usize, usize)> = [
        ("EpochEngine::execute", 1, 0),
        ("EpochEngine::prepare_epoch", 7, 0),
        ("EpochEngine::run", 10, 0),
        ("EpochEngine::settle_epoch", 3, 0),
        ("run_sharded", 10, 0),
        ("run_sharded_service", 10, 0),
    ]
    .into_iter()
    .map(|(e, a, s)| (e.to_string(), a, s))
    .collect();
    assert_eq!(
        budgets, pinned,
        "hot-path budget moved; hoist the new allocation or raise the pin deliberately"
    );
}
