//! Golden test pinning the `clip-lint --json` report shape (schema v6).
//!
//! Downstream tooling parses this document; any field rename, reorder or
//! type change must show up here as a deliberate diff (and a bump of
//! `REPORT_VERSION`). The fixture runs the full `analyze()` pipeline so
//! the transitive sections — `panic_reachability` blast radius and
//! `stale_unreachable` allowlist pruning — are pinned too, and the
//! lock-discipline rule emits a finding on it.

use clip_lint::{analyze, parse_allowlist, SourceFile};

/// A scheduler whose `plan` reaches an allowlisted index through `helper`,
/// plus one live unit-safety violation (`budget_watts`).
const SCHED: &str = r#"
pub struct Clip;
impl PowerScheduler for Clip {
    fn plan(&mut self, budget_watts: f64) {
        helper();
    }
}
fn helper() {
    let ledger = BudgetLedger::new();
    let xs = vec![1];
    let v = xs[0];
}
"#;

/// Dead code: its allowlisted index is unreachable from any entry point.
const OFFLINE: &str = r#"
pub fn cold(states: &[f64]) -> f64 {
    let Some(&first) = states.first() else { return 0.0; };
    first + states[1]
}
"#;

/// The epoch engine: its cycle methods are entry points in their own
/// right, so `helper`'s allowlisted index gains a second blast-radius
/// route that does not pass through any `PowerScheduler` impl.
const ENGINE: &str = r#"
pub struct EpochEngine;
impl EpochEngine {
    pub fn run(&mut self) {
        for epoch in 0..10 {
            helper();
        }
    }
}
"#;

/// A telemetry-crate file: `ImpactTag` is auto-discovered as a domain enum
/// (pub + Serialize + Clone in a `DOMAIN_ENUM_CRATES` member), so the
/// wildcard arm below is a live exhaustiveness violation. Before `obs`
/// joined the crate list this match was invisible to the linter.
const OBS: &str = r#"
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ImpactTag { PoolChanged, ActuationOnly, Ignored }
pub fn pool_changed(tag: ImpactTag) -> bool {
    match tag {
        ImpactTag::PoolChanged => true,
        _ => false,
    }
}
"#;

/// The concurrency fixture: a lock pair acquired in both orders
/// (lock-discipline).
const CONC: &str = r#"
pub struct Racy {
    pub hits: Mutex<u64>,
    pub slots: Mutex<u64>,
}

impl Racy {
    pub fn forward(&self) {
        self.hits.lock();
        self.slots.lock();
    }
    pub fn backward(&self) {
        self.slots.lock();
        self.hits.lock();
    }
}
"#;

const ALLOW: &str = "\
panic-freedom crates/core/src/sched.rs index  # helper index, reachable from Clip::plan
panic-freedom crates/core/src/offline.rs index  # nothing calls cold()
";

const GOLDEN: &str = r#"{
  "version": 6,
  "violations": [
    {
      "rule": "lock-discipline",
      "file": "crates/cluster/src/shard.rs",
      "line": 10,
      "name": "Racy.hits",
      "message": "lock-order cycle: `Racy.hits` and `Racy.slots` are acquired in inconsistent order (deadlock risk once regions run in parallel); impose one acquisition order"
    },
    {
      "rule": "unit-safety",
      "file": "crates/core/src/sched.rs",
      "line": 4,
      "name": "budget_watts",
      "message": "parameter `budget_watts` is a bare f64; use a simkit quantity (Power/Energy/TimeSpan) or allowlist with a reason"
    },
    {
      "rule": "exhaustiveness",
      "file": "crates/obs/src/event.rs",
      "line": 7,
      "name": "ImpactTag",
      "message": "wildcard `_` arm in a match over `ImpactTag`; list every variant so new ones fail to compile"
    }
  ],
  "panic_reachability": [
    {
      "file": "crates/core/src/offline.rs",
      "line": 4,
      "name": "index",
      "function": "cold",
      "routes": []
    },
    {
      "file": "crates/core/src/sched.rs",
      "line": 11,
      "name": "index",
      "function": "helper",
      "routes": [
        {
          "entry": "EpochEngine::run",
          "path": [
            "EpochEngine::run",
            "helper"
          ]
        },
        {
          "entry": "Clip::plan",
          "path": [
            "Clip::plan",
            "helper"
          ]
        }
      ]
    }
  ],
  "stale_unreachable": [
    {
      "rule": "panic-freedom",
      "file": "crates/core/src/offline.rs",
      "name": "index"
    }
  ],
  "summary": {
    "files_scanned": 5,
    "functions": 7,
    "entry_points": 2,
    "total": 3,
    "unit_safety": 1,
    "panic_freedom": 0,
    "exhaustiveness": 1,
    "unit_taint": 0,
    "ledger_coverage": 0,
    "lock_discipline": 1,
    "allowlisted": 2
  }
}"#;

#[test]
fn json_report_shape_is_stable() {
    let (allow, errors) = parse_allowlist(ALLOW);
    assert!(errors.is_empty(), "{errors:?}");
    let sources = vec![
        SourceFile {
            path: "crates/core/src/sched.rs".to_string(),
            source: SCHED.to_string(),
        },
        SourceFile {
            path: "crates/core/src/offline.rs".to_string(),
            source: OFFLINE.to_string(),
        },
        SourceFile {
            path: "crates/core/src/engine.rs".to_string(),
            source: ENGINE.to_string(),
        },
        SourceFile {
            path: "crates/obs/src/event.rs".to_string(),
            source: OBS.to_string(),
        },
        SourceFile {
            path: "crates/cluster/src/shard.rs".to_string(),
            source: CONC.to_string(),
        },
    ];
    let analysis = analyze(sources, &allow);
    assert!(
        analysis.stale_allow.is_empty(),
        "both allowlist entries should match a finding"
    );
    let json = serde_json::to_string_pretty(&analysis.report).expect("report serializes");
    assert_eq!(json, GOLDEN);
}
