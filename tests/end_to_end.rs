//! Cross-crate integration tests: the full pipeline from workload model to
//! executed schedule, exercised the way the figure harnesses drive it.

use baselines::{AllIn, Coordinated, LowerLimit, Oracle};
use clip_core::{execute_plan, ClipScheduler, InflectionPredictor, PowerScheduler};
use cluster_sim::Cluster;
use simkit::Power;
use workload::suite;

fn clip() -> ClipScheduler {
    ClipScheduler::new(InflectionPredictor::train_default(5))
}

fn performance(
    scheduler: &mut dyn PowerScheduler,
    cluster: &Cluster,
    app: &workload::AppModel,
    budget: Power,
) -> f64 {
    let mut planning = cluster.clone();
    let plan = scheduler.plan(&mut planning, app, budget);
    assert!(
        plan.within_budget(budget),
        "{} broke the budget",
        scheduler.name()
    );
    let mut exec = cluster.clone();
    execute_plan(&mut exec, app, &plan, 2, 0, &mut clip_obs::NoopRecorder).performance()
}

#[test]
fn every_method_runs_every_benchmark() {
    let cluster = Cluster::paper_testbed(5);
    let budget = Power::watts(1400.0);
    let mut methods: Vec<Box<dyn PowerScheduler>> = vec![
        Box::new(AllIn),
        Box::new(LowerLimit::default()),
        Box::new(Coordinated::new()),
        Box::new(clip()),
    ];
    for entry in suite::table2_suite() {
        for m in methods.iter_mut() {
            let p = performance(m.as_mut(), &cluster, &entry.app, budget);
            assert!(
                p > 0.0 && p.is_finite(),
                "{} on {} produced perf {p}",
                m.name(),
                entry.app.name()
            );
        }
    }
}

#[test]
fn clip_beats_or_matches_every_baseline_on_parabolic_apps() {
    let cluster = Cluster::paper_testbed(5);
    for budget_w in [1000.0, 1600.0, 2000.0] {
        let budget = Power::watts(budget_w);
        for app in [suite::sp_mz(), suite::mini_aero(), suite::tea_leaf()] {
            let c = performance(&mut clip(), &cluster, &app, budget);
            for mut baseline in [
                Box::new(AllIn) as Box<dyn PowerScheduler>,
                Box::new(LowerLimit::default()),
                Box::new(Coordinated::new()),
            ] {
                let b = performance(baseline.as_mut(), &cluster, &app, budget);
                assert!(
                    c >= b * 1.05,
                    "{} at {budget_w} W: CLIP {c:.4} vs {} {b:.4}",
                    app.name(),
                    baseline.name()
                );
            }
        }
    }
}

#[test]
fn clip_within_striking_distance_of_oracle() {
    let cluster = Cluster::paper_testbed(5);
    let mut oracle = Oracle::default();
    for budget_w in [1000.0, 1800.0] {
        let budget = Power::watts(budget_w);
        for app in [suite::comd(), suite::lu_mz(), suite::tea_leaf()] {
            let c = performance(&mut clip(), &cluster, &app, budget);
            let o = performance(&mut oracle, &cluster, &app, budget);
            assert!(
                c >= o * 0.85,
                "{} at {budget_w} W: CLIP {c:.4} vs Oracle {o:.4}",
                app.name()
            );
        }
    }
}

#[test]
fn low_budget_average_improvement_over_20_percent() {
    // The abstract's headline: ">20% on average for various power budgets".
    let cluster = Cluster::paper_testbed(5);
    let mut wins = Vec::new();
    for budget_w in [900.0, 1200.0] {
        let budget = Power::watts(budget_w);
        for entry in suite::table2_suite() {
            let c = performance(&mut clip(), &cluster, &entry.app, budget);
            let best_baseline = [
                performance(&mut AllIn, &cluster, &entry.app, budget),
                performance(&mut LowerLimit::default(), &cluster, &entry.app, budget),
                performance(&mut Coordinated::new(), &cluster, &entry.app, budget),
            ]
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
            wins.push(c / best_baseline);
        }
    }
    let avg = simkit::stats::geomean(&wins);
    assert!(
        avg > 1.20,
        "average low-budget improvement only {:+.1}%",
        (avg - 1.0) * 100.0
    );
}

#[test]
fn node_count_decisions_track_budget() {
    let cluster = Cluster::homogeneous(8);
    let mut s = clip();
    let app = suite::comd();
    let mut last_nodes = usize::MAX;
    for budget_w in [2400.0, 1600.0, 1000.0, 600.0] {
        let mut planning = cluster.clone();
        let plan = s.plan(&mut planning, &app, Power::watts(budget_w));
        assert!(
            plan.nodes() <= last_nodes,
            "node count must not grow as the budget shrinks"
        );
        last_nodes = plan.nodes();
    }
    assert!(last_nodes <= 4, "600 W cannot feed 8 nodes well");
}

#[test]
fn schedulers_are_independent_of_planning_order() {
    // Planning one app must not contaminate decisions for another.
    let cluster = Cluster::paper_testbed(5);
    let budget = Power::watts(1400.0);
    let apps = [suite::sp_mz(), suite::comd()];

    let mut fresh = clip();
    let mut planning = cluster.clone();
    let plan_direct = fresh.plan(&mut planning, &apps[0], budget);

    let mut warmed = clip();
    let mut planning = cluster.clone();
    let _ = warmed.plan(&mut planning, &apps[1], budget);
    let mut planning = cluster.clone();
    let plan_after = warmed.plan(&mut planning, &apps[0], budget);

    assert_eq!(plan_direct.threads_per_node, plan_after.threads_per_node);
    assert_eq!(plan_direct.nodes(), plan_after.nodes());
}

#[test]
fn variability_coordination_helps_on_heterogeneous_fleets() {
    let cluster =
        Cluster::with_variability(8, &cluster_sim::VariabilityModel::with_sigma(0.08), 11);
    let app = suite::comd();
    let budget = Power::watts(1400.0);

    let run = |coordinate: bool| {
        let mut s = clip();
        s.coordinate_variability = coordinate;
        let mut planning = cluster.clone();
        let plan = s.plan(&mut planning, &app, budget);
        let mut exec = cluster.clone();
        execute_plan(&mut exec, &app, &plan, 2, 0, &mut clip_obs::NoopRecorder).performance()
    };
    let on = run(true);
    let off = run(false);
    assert!(
        on >= off,
        "coordination must not hurt: on {on:.4} off {off:.4}"
    );
}

#[test]
fn every_scheduler_plans_around_a_crashed_node() {
    let budget = Power::watts(1200.0);
    let app = suite::comd();
    for crashed in [0, 4] {
        let mut cluster = Cluster::paper_testbed(2017);
        cluster.fail_node(crashed);
        let mut methods: Vec<Box<dyn PowerScheduler>> = vec![
            Box::new(AllIn),
            Box::new(LowerLimit::default()),
            Box::new(Coordinated::new()),
            Box::new(Oracle::default()),
            Box::new(clip()),
        ];
        for m in methods.iter_mut() {
            let plan = m.plan(&mut cluster.clone(), &app, budget);
            assert!(
                !plan.node_ids.contains(&crashed),
                "{} planned on crashed node {crashed}: {:?}",
                m.name(),
                plan.node_ids
            );
            assert!(plan.within_budget(budget), "{} broke the budget", m.name());
            let report = execute_plan(
                &mut cluster.clone(),
                &app,
                &plan,
                1,
                0,
                &mut clip_obs::NoopRecorder,
            );
            assert!(report.performance() > 0.0, "{}", m.name());
        }
    }
}
