//! Property-based tests for the baseline schedulers: whatever the budget
//! and application, every method must produce a legal, budget-compliant,
//! executable plan — the preconditions the comparison harness relies on.

use baselines::{AllIn, Coordinated, LowerLimit};
use clip_core::{execute_plan, PowerScheduler};
use cluster_sim::Cluster;
use proptest::prelude::*;
use simkit::{Power, SimRng};
use workload::corpus;

fn corpus_app(seed: u64, class_pick: u8) -> workload::AppModel {
    let mut rng = SimRng::seed_from_u64(seed);
    match class_pick % 3 {
        0 => corpus::gen_linear(&mut rng, 0),
        1 => corpus::gen_logarithmic(&mut rng, 0),
        _ => corpus::gen_parabolic(&mut rng, 0),
    }
}

fn check_plan_legal(
    scheduler: &mut dyn PowerScheduler,
    app: &workload::AppModel,
    budget_w: f64,
) -> Result<(), TestCaseError> {
    let mut cluster = Cluster::homogeneous(8);
    let budget = Power::watts(budget_w);
    let plan = scheduler.plan(&mut cluster, app, budget);
    prop_assert!(
        plan.within_budget(budget),
        "{}: caps {}",
        scheduler.name(),
        plan.total_caps()
    );
    prop_assert!(plan.nodes() >= 1 && plan.nodes() <= 8);
    prop_assert!(plan.threads_per_node >= 1 && plan.threads_per_node <= 24);
    prop_assert_eq!(plan.caps.len(), plan.nodes());
    let unique: std::collections::BTreeSet<_> = plan.node_ids.iter().collect();
    prop_assert_eq!(unique.len(), plan.nodes(), "duplicate node ids");
    let report = execute_plan(&mut cluster, app, &plan, 1, 0, &mut clip_obs::NoopRecorder);
    prop_assert!(report.performance() > 0.0 && report.performance().is_finite());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allin_plans_always_legal(seed in any::<u64>(), class in 0u8..3,
                                budget_w in 250.0f64..3000.0) {
        let app = corpus_app(seed, class);
        check_plan_legal(&mut AllIn, &app, budget_w)?;
    }

    #[test]
    fn lowerlimit_plans_always_legal(seed in any::<u64>(), class in 0u8..3,
                                     budget_w in 250.0f64..3000.0) {
        let app = corpus_app(seed, class);
        check_plan_legal(&mut LowerLimit::default(), &app, budget_w)?;
    }

    #[test]
    fn coordinated_plans_always_legal(seed in any::<u64>(), class in 0u8..3,
                                      budget_w in 250.0f64..3000.0) {
        let app = corpus_app(seed, class);
        check_plan_legal(&mut Coordinated::new(), &app, budget_w)?;
    }

    /// Lower-Limit never activates a node below its preset.
    #[test]
    fn lowerlimit_floor_invariant(seed in any::<u64>(), budget_w in 250.0f64..3000.0) {
        let app = corpus_app(seed, 0);
        let mut cluster = Cluster::homogeneous(8);
        let mut s = LowerLimit::default();
        let plan = s.plan(&mut cluster, &app, Power::watts(budget_w));
        if plan.nodes() > 1 {
            for caps in &plan.caps {
                prop_assert!(
                    caps.total() >= Power::watts(180.0) - Power::watts(1e-6),
                    "node below the 180 W floor: {}", caps.total()
                );
            }
        }
    }

    /// All-In's plan never depends on the application.
    #[test]
    fn allin_is_application_blind(seed1 in any::<u64>(), seed2 in any::<u64>(),
                                  budget_w in 300.0f64..2500.0) {
        let a = corpus_app(seed1, 0);
        let b = corpus_app(seed2, 2);
        let mut cluster = Cluster::homogeneous(8);
        let budget = Power::watts(budget_w);
        let pa = AllIn.plan(&mut cluster, &a, budget);
        let pb = AllIn.plan(&mut cluster, &b, budget);
        prop_assert_eq!(pa.caps, pb.caps);
        prop_assert_eq!(pa.threads_per_node, pb.threads_per_node);
        prop_assert_eq!(pa.node_ids, pb.node_ids);
    }
}
