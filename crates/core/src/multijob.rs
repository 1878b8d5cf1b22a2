//! Multi-job power sharing — running several applications concurrently
//! under one cluster budget.
//!
//! The paper's related work (POWshed, Ellsworth et al. SC'15) shifts power
//! between co-running jobs to raise throughput but "without exploring
//! concurrency throttling" (§VI). This extension composes CLIP's per-job
//! models into a cluster-wide allocator: jobs get disjoint node sets, the
//! node split is chosen by proportional-fairness hill climbing on the
//! *predicted* per-job throughput (log-utility, the standard fairness
//! objective), and each job's nodes are then configured by the ordinary
//! CLIP recommendation at the resulting per-node budget.
//!
//! Everything is model-driven: the search never executes the applications,
//! in keeping with CLIP's no-exhaustive-search design.

use crate::engine::EpochEngine;
use crate::knowledge::{KnowledgeDb, KnowledgeRecord};
use crate::mlr::InflectionPredictor;
use crate::perfmodel::NodePerfModel;
use crate::powerfit::FittedPowerModel;
use crate::profile::SmartProfiler;
use crate::recommend::recommend_node_config;
use crate::scheduler::SchedulePlan;
use cluster_sim::{Cluster, JobReport};
use simkit::Power;
use workload::{AppModel, ScalabilityClass};

/// Per-job state the allocator works with.
struct JobModels {
    record: KnowledgeRecord,
    perf: NodePerfModel,
    power: FittedPowerModel,
}

/// The multi-job coordinator.
#[derive(Debug, Clone)]
pub struct MultiJobScheduler {
    profiler: SmartProfiler,
    predictor: InflectionPredictor,
    db: KnowledgeDb,
}

impl MultiJobScheduler {
    /// Build with a trained inflection predictor.
    pub fn new(predictor: InflectionPredictor) -> Self {
        Self {
            profiler: SmartProfiler::default(),
            predictor,
            db: KnowledgeDb::new(),
        }
    }

    fn models_for(&mut self, cluster: &mut Cluster, app: &AppModel) -> JobModels {
        let record = match self.db.get(app.name()) {
            Some(r) => r.clone(),
            None => {
                let mut profile = self.profiler.profile(cluster.node_mut(0), app);
                let np = self.predictor.predict(&profile);
                if profile.class != ScalabilityClass::Linear {
                    self.profiler
                        .sample_at(cluster.node_mut(0), app, &mut profile, np);
                }
                let r = KnowledgeRecord { profile, np };
                self.db.insert(r.clone());
                r
            }
        };
        let perf = NodePerfModel::from_profile(&record.profile, record.np);
        let power = FittedPowerModel::fit(&record.profile);
        JobModels {
            record,
            perf,
            power,
        }
    }

    /// Predicted relative throughput of one job given `nodes` at `per_node`
    /// budget (strong scaling: n / t_node).
    fn predicted_score(
        &self,
        models: &JobModels,
        nodes: usize,
        per_node: Power,
        total_cores: usize,
    ) -> f64 {
        let cfg = recommend_node_config(
            &models.record.profile,
            &models.perf,
            &models.power,
            per_node,
            total_cores,
        );
        nodes as f64 / cfg.predicted_time
    }

    /// Plan `jobs` concurrently on the cluster under a shared budget.
    /// Returns one plan per job, over pairwise-disjoint node sets whose
    /// caps sum to at most `budget`. Panics if there are more jobs than
    /// nodes or no jobs at all.
    pub fn plan_concurrent(
        &mut self,
        cluster: &mut Cluster,
        jobs: &[AppModel],
        budget: Power,
    ) -> Vec<SchedulePlan> {
        assert!(!jobs.is_empty(), "need at least one job");
        let n_total = cluster.len();
        assert!(jobs.len() <= n_total, "more jobs than nodes");
        let total_cores = cluster.node(0).topology().total_cores();

        let models: Vec<JobModels> = jobs
            .iter()
            .map(|app| self.models_for(cluster, app))
            .collect();

        // Proportional-fairness hill climbing over node assignments:
        // maximize Σ log(score_j) with Σ n_j ≤ N, n_j ≥ 1. The per-node
        // budget is uniform: p = budget / Σ n_j.
        let mut assign = vec![1usize; jobs.len()];
        let utility = |assign: &[usize], this: &Self| -> f64 {
            let used: usize = assign.iter().sum();
            let per_node = budget / used as f64;
            assign
                .iter()
                .zip(&models)
                .map(|(&n, m)| this.predicted_score(m, n, per_node, total_cores).ln())
                .sum()
        };
        let mut best_u = utility(&assign, self);
        loop {
            let mut improved = false;
            // Move 1: grow a job if free nodes remain.
            let used: usize = assign.iter().sum();
            if used < n_total {
                for j in 0..jobs.len() {
                    let mut cand = assign.clone();
                    if let Some(n) = cand.get_mut(j) {
                        *n += 1;
                    }
                    let u = utility(&cand, self);
                    if u > best_u + 1e-9 {
                        assign = cand;
                        best_u = u;
                        improved = true;
                        break;
                    }
                }
            }
            // Move 2: transfer a node between jobs.
            if !improved {
                'transfer: for from in 0..jobs.len() {
                    if assign.get(from).is_none_or(|&n| n <= 1) {
                        continue;
                    }
                    for to in 0..jobs.len() {
                        if to == from {
                            continue;
                        }
                        let mut cand = assign.clone();
                        if let Some(n) = cand.get_mut(from) {
                            *n -= 1;
                        }
                        if let Some(n) = cand.get_mut(to) {
                            *n += 1;
                        }
                        let u = utility(&cand, self);
                        if u > best_u + 1e-9 {
                            assign = cand;
                            best_u = u;
                            improved = true;
                            break 'transfer;
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }

        // Materialize plans over disjoint node ranges.
        let used: usize = assign.iter().sum();
        let per_node = budget / used as f64;
        let mut next_node = 0usize;
        assign
            .iter()
            .zip(&models)
            .map(|(&n, m)| {
                let cfg = recommend_node_config(
                    &m.record.profile,
                    &m.perf,
                    &m.power,
                    per_node,
                    total_cores,
                );
                let node_ids: Vec<usize> = (next_node..next_node + n).collect();
                next_node += n;
                SchedulePlan {
                    scheduler: "CLIP-multijob".to_string(),
                    node_ids,
                    threads_per_node: cfg.threads,
                    policy: cfg.policy,
                    caps: vec![cfg.caps; n],
                }
            })
            .collect()
    }
}

/// Execute concurrent plans (disjoint node sets run independently in the
/// simulator) and return the per-job reports.
///
/// Actuation goes through the [`EpochEngine`]'s single execute path, one
/// engine epoch per job (the job's index in `jobs`), under a budget equal
/// to the sum of the granted caps; a tracing recorder therefore sees each
/// job's plan, RAPL programming and power samples stamped with its index.
pub fn execute_concurrent<R: clip_obs::Recorder>(
    cluster: &mut Cluster,
    jobs: &[AppModel],
    plans: &[SchedulePlan],
    iterations: usize,
    rec: &mut R,
) -> Vec<JobReport> {
    assert_eq!(jobs.len(), plans.len());
    // Verify disjointness — overlapping sets would share hardware, which
    // the simulator does not model.
    let mut seen = std::collections::BTreeSet::new();
    for plan in plans {
        for &id in &plan.node_ids {
            assert!(seen.insert(id), "node {id} assigned to two jobs");
        }
    }
    let budget: Power = plans.iter().map(|p| p.total_caps()).sum();
    let mut engine = EpochEngine::new(budget, rec);
    jobs.iter()
        .zip(plans)
        .enumerate()
        .map(|(i, (app, plan))| {
            engine.set_epoch(i as u64);
            engine.execute(cluster, app, plan, iterations)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats::geomean;
    use workload::suite;

    fn scheduler() -> MultiJobScheduler {
        MultiJobScheduler::new(InflectionPredictor::train_default(5))
    }

    /// Untraced shorthand — these tests exercise allocation semantics,
    /// not telemetry.
    fn execute_concurrent(
        cluster: &mut Cluster,
        jobs: &[AppModel],
        plans: &[SchedulePlan],
        iterations: usize,
    ) -> Vec<JobReport> {
        super::execute_concurrent(
            cluster,
            jobs,
            plans,
            iterations,
            &mut clip_obs::NoopRecorder,
        )
    }

    #[test]
    fn plans_are_disjoint_and_within_budget() {
        let mut cluster = Cluster::homogeneous(8);
        let jobs = vec![suite::comd(), suite::lu_mz(), suite::sp_mz()];
        let budget = Power::watts(1600.0);
        let plans = scheduler().plan_concurrent(&mut cluster, &jobs, budget);
        assert_eq!(plans.len(), 3);
        let total: Power = plans.iter().map(|p| p.total_caps()).sum();
        assert!(total <= budget + Power::watts(1e-6), "caps {total}");
        let mut all_ids = Vec::new();
        for p in &plans {
            assert!(p.nodes() >= 1);
            all_ids.extend(p.node_ids.clone());
        }
        let unique: std::collections::BTreeSet<_> = all_ids.iter().collect();
        assert_eq!(unique.len(), all_ids.len(), "node sets must be disjoint");
    }

    #[test]
    fn scalable_jobs_get_more_nodes() {
        let mut cluster = Cluster::homogeneous(8);
        // CoMD scales linearly; SP-MZ is parabolic with a per-node optimum.
        let jobs = vec![suite::comd(), suite::sp_mz()];
        let plans = scheduler().plan_concurrent(&mut cluster, &jobs, Power::watts(1800.0));
        assert!(
            plans[0].nodes() >= plans[1].nodes(),
            "CoMD {} vs SP-MZ {}",
            plans[0].nodes(),
            plans[1].nodes()
        );
    }

    #[test]
    fn concurrent_execution_respects_budget() {
        let mut cluster = Cluster::homogeneous(8);
        let jobs = vec![suite::amg(), suite::tea_leaf()];
        let budget = Power::watts(1200.0);
        let plans = scheduler().plan_concurrent(&mut cluster, &jobs, budget);
        let reports = execute_concurrent(&mut cluster, &jobs, &plans, 2);
        let total: Power = reports.iter().map(|r| r.cluster_power).sum();
        assert!(total <= budget + Power::watts(2.0), "measured {total}");
        assert!(reports.iter().all(|r| r.performance() > 0.0));
    }

    #[test]
    fn beats_equal_share_on_mixed_workloads() {
        // Equal-share: nodes split evenly, all cores, naive 30 W DRAM pin.
        let cluster = Cluster::homogeneous(8);
        let jobs = vec![suite::comd(), suite::sp_mz()];
        let budget = Power::watts(1400.0);

        let mut planning = cluster.clone();
        let plans = scheduler().plan_concurrent(&mut planning, &jobs, budget);
        let mut exec = cluster.clone();
        let smart = execute_concurrent(&mut exec, &jobs, &plans, 2);

        let equal_plans: Vec<SchedulePlan> = (0..2)
            .map(|j| {
                let per_node = budget / 8.0;
                let dram = 30.0f64.min(per_node.as_watts() * 0.5);
                SchedulePlan {
                    scheduler: "equal-share".into(),
                    node_ids: (j * 4..(j + 1) * 4).collect(),
                    threads_per_node: 24,
                    policy: simnode::AffinityPolicy::Compact,
                    caps: vec![
                        simnode::PowerCaps::new(
                            Power::watts(per_node.as_watts() - dram),
                            Power::watts(dram),
                        );
                        4
                    ],
                }
            })
            .collect();
        let mut exec = cluster.clone();
        let naive = execute_concurrent(&mut exec, &jobs, &equal_plans, 2);

        let smart_score = geomean(
            &smart
                .iter()
                .zip(&naive)
                .map(|(s, n)| s.performance() / n.performance())
                .collect::<Vec<_>>(),
        );
        assert!(
            smart_score > 1.0,
            "multi-job CLIP should beat equal share (geomean ratio {smart_score:.3})"
        );
    }

    #[test]
    #[should_panic(expected = "more jobs than nodes")]
    fn too_many_jobs_rejected() {
        let mut cluster = Cluster::homogeneous(2);
        let jobs = vec![suite::comd(), suite::amg(), suite::lu_mz()];
        scheduler().plan_concurrent(&mut cluster, &jobs, Power::watts(600.0));
    }

    #[test]
    #[should_panic(expected = "assigned to two jobs")]
    fn overlapping_plans_rejected() {
        let mut cluster = Cluster::homogeneous(4);
        let jobs = vec![suite::comd(), suite::amg()];
        let mut plans = scheduler().plan_concurrent(&mut cluster, &jobs, Power::watts(900.0));
        plans[1].node_ids = plans[0].node_ids.clone();
        execute_concurrent(&mut cluster, &jobs, &plans, 1);
    }
}
