//! Property: the full analysis is order-independent. The pipeline parses
//! file-parallel via `parallel_map`; the order the files arrive in may
//! not change a single byte of the JSON report. (`analyze`
//! sorts sources by path before numbering functions, which is what makes
//! route selection canonical.)

use clip_lint::{analyze, SourceFile};
use proptest::prelude::*;

/// A fixture with findings from every pass: per-file (unit-safety,
/// exhaustiveness), transitive (panic blast radius) and lock-discipline,
/// so the report has non-trivial content in every section that could
/// depend on traversal order.
fn fixture() -> Vec<SourceFile> {
    let mk = |path: &str, source: &str| SourceFile {
        path: path.to_string(),
        source: source.to_string(),
    };
    vec![
        mk(
            "crates/core/src/sched.rs",
            "impl PowerScheduler for Clip { fn plan(&mut self, budget_watts: f64) { helper(); } }\n\
             fn helper() { let l = BudgetLedger::new(); let xs = vec![1]; let v = xs[0]; }\n",
        ),
        mk(
            "crates/core/src/offline.rs",
            "pub fn cold(states: &[f64]) -> f64 { states[1] }\n",
        ),
        mk(
            "crates/cluster/src/locks.rs",
            "pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\nimpl Pair {\n\
             pub fn forward(&self) { self.a.lock(); self.b.lock(); }\n\
             pub fn backward(&self) { self.b.lock(); self.a.lock(); }\n}\n",
        ),
        mk(
            "crates/obs/src/event.rs",
            "#[derive(Debug, Clone, Serialize)]\npub enum Tag { A, B }\n\
             pub fn f(t: Tag) -> bool { match t { Tag::A => true, _ => false } }\n",
        ),
    ]
}

fn report_json(sources: Vec<SourceFile>) -> String {
    let analysis = analyze(sources, &[]);
    serde_json::to_string_pretty(&analysis.report).expect("report serializes")
}

proptest! {
    /// Any permutation of the file list yields the byte-identical report.
    #[test]
    fn shuffled_files_are_invisible(
        keys in proptest::collection::vec(any::<u64>(), 4)
    ) {
        let baseline = report_json(fixture());

        let files = fixture();
        let mut order: Vec<usize> = (0..files.len()).collect();
        order.sort_by_key(|&i| (keys.get(i).copied().unwrap_or(0), i));
        let shuffled: Vec<SourceFile> =
            order.iter().filter_map(|&i| files.get(i).cloned()).collect();
        prop_assert_eq!(shuffled.len(), files.len());
        prop_assert_eq!(report_json(shuffled), baseline);
    }
}
