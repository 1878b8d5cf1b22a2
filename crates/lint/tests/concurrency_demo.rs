//! The seeded sharding demo: `parallel_map` over per-rack engine shards
//! passes every rule clean, while the same code with an injected
//! shared-`RefCell` mutation is flagged by the shared-state rule with a
//! full entry-point blast-radius path.
//!
//! This is the workflow fleet sharding needs: racks run in parallel
//! inside the replay-critical subgraph, and the lint proves (rather than
//! assumes) that the parallelism is replay-deterministic.

use clip_lint::rules::Rule;
use clip_lint::{analyze, Analysis, SourceFile};

/// Per-rack shards fanned out through the order-preserving fork-join
/// helper; the closure is pure and results rejoin by index.
const CLEAN: &str = r#"
pub fn parallel_map<T: Send, R: Send, F>(items: Vec<T>, f: F) -> Vec<R>
where
    F: Fn(T) -> R + Sync,
{
    loop {}
}

pub struct EpochEngine {
    pub racks: Vec<u64>,
}

impl EpochEngine {
    pub fn coordinate(&mut self) -> Vec<u64> {
        let shards = self.racks.clone();
        parallel_map(shards, |rack| step(rack))
    }
}

fn step(rack: u64) -> u64 {
    rack
}
"#;

/// The same shard fan-out with an injected shared-`RefCell` mutation:
/// every worker pokes one captured cell, so replay order leaks into
/// state.
const RACED: &str = r#"
pub fn parallel_map<T: Send, R: Send, F>(items: Vec<T>, f: F) -> Vec<R>
where
    F: Fn(T) -> R + Sync,
{
    loop {}
}

pub struct EpochEngine {
    pub racks: Vec<u64>,
}

impl EpochEngine {
    pub fn coordinate(&mut self) -> Vec<u64> {
        let seen = RefCell::new(0u64);
        let shards = self.racks.clone();
        parallel_map(shards, |rack| {
            seen.borrow_mut();
            step(rack)
        })
    }
}

fn step(rack: u64) -> u64 {
    rack
}
"#;

fn run(source: &str) -> Analysis {
    analyze(
        vec![SourceFile {
            path: "crates/cluster/src/shard_demo.rs".to_string(),
            source: source.to_string(),
        }],
        &[],
    )
}

#[test]
fn clean_shard_fanout_passes_every_rule() {
    let analysis = run(CLEAN);
    let report = &analysis.report;
    assert_eq!(
        report.summary.total, 0,
        "clean per-rack fan-out must pass every rule: {:?}",
        report.violations
    );
    assert_eq!(report.summary.entry_points, 1);
    assert!(report.race_reachability.is_empty());
}

#[test]
fn injected_refcell_mutation_is_flagged_with_blast_radius() {
    let analysis = run(RACED);
    let report = &analysis.report;

    // The race itself: the closure touches the captured RefCell.
    let race = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::SharedState)
        .expect("shared-state finding for the RefCell mutation");
    assert_eq!(race.name, "borrow_mut");
    assert!(race.message.contains("parallel_map"), "{}", race.message);

    // Full entry-point blast radius for the race site.
    let site = report
        .race_reachability
        .first()
        .expect("race site annotated");
    assert_eq!(site.function, "EpochEngine::coordinate");
    let route = site.routes.first().expect("entry point reaches the race");
    assert_eq!(route.entry, "EpochEngine::coordinate");
    assert_eq!(route.path, vec!["EpochEngine::coordinate".to_string()]);
}
