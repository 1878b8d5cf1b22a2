//! Property-based tests for the CLIP framework: scheduler-level invariants
//! that must hold for any application drawn from the corpus and any budget.

use clip_core::mlr::actual_inflection;
use clip_core::{
    execute_plan, recommend_node_config, ClipScheduler, FittedPowerModel, InflectionPredictor,
    NodePerfModel, PowerScheduler, SmartProfiler,
};
use cluster_sim::Cluster;
use proptest::prelude::*;
use simkit::{Power, SimRng};
use simnode::Node;
use workload::{corpus, AppModel, ScalabilityClass};

/// One shared predictor for all cases (training is the expensive part).
fn predictor() -> &'static InflectionPredictor {
    #[expect(
        clippy::disallowed_types,
        reason = "a test-only cache of a deterministic computation; every reader sees the same value"
    )]
    static PRED: std::sync::OnceLock<InflectionPredictor> = std::sync::OnceLock::new();
    PRED.get_or_init(|| InflectionPredictor::train_default(5))
}

fn corpus_app(seed: u64, class_pick: u8) -> AppModel {
    let mut rng = SimRng::seed_from_u64(seed);
    match class_pick % 3 {
        0 => corpus::gen_linear(&mut rng, 0),
        1 => corpus::gen_logarithmic(&mut rng, 0),
        _ => corpus::gen_parabolic(&mut rng, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A plan's programmed caps never exceed the budget, for any app/budget.
    #[test]
    fn plans_always_within_budget(seed in any::<u64>(), class_pick in 0u8..3,
                                  budget_w in 300.0f64..2400.0)
    {
        let app = corpus_app(seed, class_pick);
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = ClipScheduler::new(predictor().clone());
        clip.coordinate_variability = false;
        let plan = clip.plan(&mut cluster, &app, Power::watts(budget_w));
        prop_assert!(plan.within_budget(Power::watts(budget_w)),
            "caps {} vs budget {budget_w}", plan.total_caps());
        prop_assert!(plan.nodes() >= 1 && plan.nodes() <= 8);
        prop_assert!(plan.threads_per_node >= 1 && plan.threads_per_node <= 24);
        // Executing the plan also keeps measured power within budget.
        let report = execute_plan(&mut cluster, &app, &plan, 1, 0, &mut clip_obs::NoopRecorder);
        prop_assert!(
            report.cluster_power <= Power::watts(budget_w) + Power::watts(1.0),
            "measured {} vs budget {budget_w}", report.cluster_power
        );
    }

    /// More budget never makes CLIP slower (end to end, homogeneous fleet).
    #[test]
    fn clip_monotone_in_budget(seed in any::<u64>(), class_pick in 0u8..3,
                               lo_w in 500.0f64..1200.0, extra_w in 50.0f64..1200.0)
    {
        let app = corpus_app(seed, class_pick);
        let cluster = Cluster::homogeneous(8);
        let mut clip = ClipScheduler::new(predictor().clone());
        clip.coordinate_variability = false;
        let run = |clip: &mut ClipScheduler, w: f64| {
            let mut planning = cluster.clone();
            let plan = clip.plan(&mut planning, &app, Power::watts(w));
            let mut exec = cluster.clone();
            execute_plan(&mut exec, &app, &plan, 1, 0, &mut clip_obs::NoopRecorder).performance()
        };
        let slow = run(&mut clip, lo_w);
        let fast = run(&mut clip, lo_w + extra_w);
        // The model-driven choice is not a true optimum; allow 10% slack.
        prop_assert!(fast >= slow * 0.90,
            "budget {lo_w}→{} dropped perf {slow:.4}→{fast:.4}", lo_w + extra_w);
    }

    /// The recommendation's caps always sum exactly to the node budget and
    /// the predicted frequency is within the physical range (or below
    /// f_min when duty-cycling is the only option).
    #[test]
    fn recommendation_caps_exact(seed in any::<u64>(), class_pick in 0u8..3,
                                 budget_w in 50.0f64..300.0)
    {
        let app = corpus_app(seed, class_pick);
        let mut node = Node::haswell();
        let profiler = SmartProfiler::default();
        let profile = profiler.profile(&mut node, &app);
        let np = predictor().predict(&profile);
        let perf_model = NodePerfModel::from_profile(&profile, np);
        let power_model = FittedPowerModel::fit(&profile);
        let cfg = recommend_node_config(
            &profile, &perf_model, &power_model, Power::watts(budget_w), 24,
        );
        prop_assert!((cfg.caps.total().as_watts() - budget_w).abs() < 1e-6);
        prop_assert!(cfg.predicted_freq > 0.0 && cfg.predicted_freq <= power_model.f_max);
        prop_assert!(cfg.predicted_time.is_finite() && cfg.predicted_time > 0.0);
        prop_assert!(cfg.threads >= 1 && cfg.threads <= 24);
    }

    /// The parabolic recommendation never exceeds the predicted optimum.
    #[test]
    fn parabolic_never_over_np(seed in any::<u64>(), budget_w in 80.0f64..300.0) {
        let app = corpus_app(seed, 2);
        let mut node = Node::haswell();
        let profile = SmartProfiler::default().profile(&mut node, &app);
        prop_assume!(profile.class == ScalabilityClass::Parabolic);
        let np = predictor().predict(&profile);
        let perf_model = NodePerfModel::from_profile(&profile, np);
        let power_model = FittedPowerModel::fit(&profile);
        let cfg = recommend_node_config(
            &profile, &perf_model, &power_model, Power::watts(budget_w), 24,
        );
        prop_assert!(cfg.threads <= np.max(2), "threads {} np {np}", cfg.threads);
    }

    /// Inflection predictions stay in the valid even range for any profile.
    #[test]
    fn predictions_valid(seed in any::<u64>(), class_pick in 0u8..3) {
        let app = corpus_app(seed, class_pick);
        let mut node = Node::haswell();
        let profile = SmartProfiler::default().profile(&mut node, &app);
        let np = predictor().predict(&profile);
        prop_assert!((2..=24).contains(&np));
        if profile.class != ScalabilityClass::Linear {
            prop_assert_eq!(np % 2, 0);
        }
    }

    /// Ground-truth inflection extraction is stable: same app, same answer.
    #[test]
    fn actual_inflection_deterministic(seed in any::<u64>()) {
        let app = corpus_app(seed, 1);
        let mut node = Node::haswell();
        let profile = SmartProfiler::default().profile(&mut node, &app);
        let a = actual_inflection(&mut node, &app, profile.policy, profile.class);
        let b = actual_inflection(&mut node, &app, profile.policy, profile.class);
        prop_assert_eq!(a, b);
    }
}
