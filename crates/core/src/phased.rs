//! Phase-aware concurrency recommendation (paper §V-B).
//!
//! For multi-phase applications whose phases have different scalability
//! (BT-MZ: a well-scaling solve plus a contended `exch_qbc` exchange), a
//! single thread count is a compromise. The paper handles BT-MZ by changing
//! the concurrency "phase-by-phase"; this module generalizes that: each
//! phase is smart-profiled as a standalone kernel, classified, and given
//! its own class-rule concurrency, producing a
//! [`workload::PhasePlan`] for the phased executor.
//!
//! Profiling cost stays in the smart-profiling regime: ≤3 short sample
//! runs *per phase* (real codes expose phases through region
//! instrumentation, e.g. Caliper annotations, so per-phase measurement is
//! realistic).

use crate::mlr::{actual_inflection, InflectionPredictor};
use crate::profile::SmartProfiler;
use simnode::Node;
use workload::{AppModel, PhasePlan, ScalabilityClass};

/// Recommend per-phase thread counts for `app` on an (uncapped or capped)
/// node. Phases classified linear get all cores; logarithmic and parabolic
/// phases get their predicted inflection point.
pub fn recommend_phase_plan(
    node: &mut Node,
    app: &AppModel,
    profiler: &SmartProfiler,
    predictor: &InflectionPredictor,
) -> PhasePlan {
    let total = node.topology().total_cores();
    // The affinity is shared across phases: profile the whole application
    // once to pick it (the memory-heaviest phase dominates the decision).
    let app_profile = profiler.profile(node, app);
    let policy = app_profile.policy;

    let threads = app
        .phases()
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            let single = AppModel::new(format!("{}#p{}", app.name(), i), vec![*phase])
                .with_odd_penalty(app.odd_penalty());
            let mut profile = profiler.profile(node, &single);
            if profile.class == ScalabilityClass::Linear {
                return total;
            }
            // Validate the MLR output with the third sample (standalone
            // phases can sit outside the training distribution): keep
            // whichever *measured* configuration — prediction, half, or
            // all cores — actually performed best.
            let np = predictor.predict(&profile);
            profiler.sample_at(node, &single, &mut profile, np);
            let half_perf = profile.half_core.report.performance();
            let all_perf = profile.all_core.report.performance();
            let mut best = (profile.half_core.threads, half_perf);
            if all_perf.total_cmp(&best.1).is_ge() {
                best = (total, all_perf);
            }
            // `sample_at` attaches the sample; if it ever did not, the
            // half/all measurements above still decide.
            if let Some(sample) = profile.np_sample.as_ref() {
                let np_perf = sample.report.performance();
                if np_perf.total_cmp(&best.1).is_gt() {
                    best = (np, np_perf);
                }
            }
            best.0
        })
        .collect();

    PhasePlan { threads, policy }
}

/// Ground-truth best phase plan by exhaustive per-phase search (used to
/// validate the recommendation; O(phases × cores) node executions).
pub fn exhaustive_phase_plan(node: &mut Node, app: &AppModel) -> PhasePlan {
    let app_profile = SmartProfiler::default().profile(node, app);
    let policy = app_profile.policy;
    let threads = app
        .phases()
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            let single = AppModel::new(format!("{}#p{}", app.name(), i), vec![*phase])
                .with_odd_penalty(app.odd_penalty());
            let mut best = (1usize, node.execute(&single, 1, policy, 1).performance());
            for n in 2..=node.topology().total_cores() {
                let perf = node.execute(&single, n, policy, 1).performance();
                if perf.total_cmp(&best.1).is_gt() {
                    best = (n, perf);
                }
            }
            best.0
        })
        .collect();
    PhasePlan { threads, policy }
}

/// Convenience: the inflection point of a single phase, via sweep.
/// Returns 1 when `phase_idx` is out of range.
pub fn phase_inflection(node: &mut Node, app: &AppModel, phase_idx: usize) -> usize {
    let Some(phase) = app.phases().get(phase_idx) else {
        return 1;
    };
    let single = AppModel::new("phase-probe", vec![*phase]).with_odd_penalty(app.odd_penalty());
    let profile = SmartProfiler::default().profile(node, &single);
    actual_inflection(node, &single, profile.policy, profile.class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{execute_phased, suite, PhasePlan as WPhasePlan};

    fn predictor() -> InflectionPredictor {
        InflectionPredictor::train_default(5)
    }

    #[test]
    fn bt_mz_gets_heterogeneous_counts() {
        let mut node = Node::haswell();
        let plan = recommend_phase_plan(
            &mut node,
            &suite::bt_mz(),
            &SmartProfiler::default(),
            &predictor(),
        );
        assert_eq!(plan.threads.len(), 2);
        assert_eq!(plan.threads[0], 24, "solve phase scales — all cores");
        assert!(
            plan.threads[1] < 24,
            "exchange phase must be throttled, got {}",
            plan.threads[1]
        );
    }

    #[test]
    fn phased_plan_beats_uniform_for_bt_mz() {
        let mut node = Node::haswell();
        let app = suite::bt_mz();
        let plan = recommend_phase_plan(&mut node, &app, &SmartProfiler::default(), &predictor());
        let tuned = execute_phased(&mut node, &app, &plan, 1).performance();
        let uniform = execute_phased(&mut node, &app, &WPhasePlan::uniform(2, 24, plan.policy), 1)
            .performance();
        assert!(
            tuned > uniform * 1.03,
            "phase-aware {tuned:.4} vs uniform {uniform:.4}"
        );
    }

    #[test]
    fn recommendation_close_to_exhaustive() {
        let mut node = Node::haswell();
        let app = suite::bt_mz();
        let rec = recommend_phase_plan(&mut node, &app, &SmartProfiler::default(), &predictor());
        let best = exhaustive_phase_plan(&mut node, &app);
        let rec_perf = execute_phased(&mut node, &app, &rec, 1).performance();
        let best_perf = execute_phased(&mut node, &app, &best, 1).performance();
        assert!(
            rec_perf >= best_perf * 0.92,
            "recommended {rec_perf:.4} vs exhaustive {best_perf:.4}"
        );
    }

    #[test]
    fn single_phase_apps_reduce_to_class_rule() {
        let mut node = Node::haswell();
        let plan = recommend_phase_plan(
            &mut node,
            &suite::comd(),
            &SmartProfiler::default(),
            &predictor(),
        );
        assert_eq!(plan.threads, vec![24]);
    }

    #[test]
    fn phase_inflection_of_exchange_is_interior() {
        let mut node = Node::haswell();
        let np = phase_inflection(&mut node, &suite::bt_mz(), 1);
        assert!((6..=16).contains(&np), "exchange-phase NP {np}");
    }
}
