//! Runtime power coordination for fixed launch configurations.
//!
//! The paper's stated limitation (§VII): "CLIP doesn't directly support
//! jobs launched with predefined node and core counts. We plan to develop a
//! runtime system to address this issue." This module is that runtime: when
//! the user's `mpirun -np N` / `OMP_NUM_THREADS=t` is non-negotiable, the
//! only remaining degrees of freedom are the per-node budgets, the CPU/DRAM
//! split, the affinity, and inter-node variability shifting — and those are
//! still worth coordinating.
//!
//! The runtime reuses CLIP's profile → fitted-models machinery but pins the
//! node and thread counts to the launch specification.

use crate::audit::BudgetLedger;
use crate::coordinate::CalibrationTable;
use crate::knowledge::{KnowledgeDb, KnowledgeRecord};
use crate::powerfit::FittedPowerModel;
use crate::profile::SmartProfiler;
use crate::recommend::{bandwidth_estimate, is_bandwidth_saturated, split_node_budget};
use crate::scheduler::SchedulePlan;
use cluster_sim::Cluster;
use serde::{Deserialize, Serialize};
use simkit::Power;
use simnode::AffinityPolicy;
use std::borrow::Cow;
use workload::AppModel;

/// A user-pinned launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedLaunch {
    /// MPI ranks = nodes (non-negotiable).
    pub nodes: usize,
    /// OpenMP threads per node (non-negotiable).
    pub threads_per_node: usize,
    /// Affinity; `None` lets the runtime pick from the profile.
    pub policy: Option<AffinityPolicy>,
}

/// The runtime coordinator: power-only decisions under fixed launches.
#[derive(Debug, Clone)]
pub struct RuntimeCoordinator {
    profiler: SmartProfiler,
    db: KnowledgeDb,
    calibration: CalibrationTable,
    /// Inter-node variability shifting (as in the full scheduler).
    pub coordinate_variability: bool,
    /// Spread threshold for engaging coordination.
    pub variability_threshold: f64,
}

impl Default for RuntimeCoordinator {
    fn default() -> Self {
        Self {
            profiler: SmartProfiler::default(),
            db: KnowledgeDb::new(),
            calibration: CalibrationTable::default(),
            coordinate_variability: true,
            variability_threshold: 0.02,
        }
    }
}

impl RuntimeCoordinator {
    /// Fresh coordinator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the knowledge cache.
    pub fn knowledge(&self) -> &KnowledgeDb {
        &self.db
    }

    /// Coordinate power for a fixed launch under a cluster budget. The
    /// plan honors `launch` exactly; only budgets/split/affinity are chosen.
    pub fn plan_fixed(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        launch: FixedLaunch,
    ) -> SchedulePlan {
        let alive = cluster.alive_nodes();
        assert!(
            launch.nodes >= 1 && launch.nodes <= alive.len(),
            "invalid node count"
        );
        let probe = alive.first().copied().unwrap_or(0);
        let total_cores = cluster.node(probe).topology().total_cores();
        assert!(
            launch.threads_per_node >= 1 && launch.threads_per_node <= total_cores,
            "invalid thread count"
        );

        let record = match self.db.get(app.name()) {
            Some(r) => Cow::Borrowed(r),
            None => {
                let profile = self.profiler.profile(cluster.node_mut(probe), app);
                let r = KnowledgeRecord {
                    profile,
                    np: launch.threads_per_node,
                };
                self.db.insert(r.clone());
                Cow::Owned(r)
            }
        };
        let power_model = FittedPowerModel::fit(&record.profile);
        let policy = launch.policy.unwrap_or(record.profile.policy);

        // Per-node budget and CPU/DRAM split at the pinned concurrency.
        let per_node = budget / launch.nodes as f64;
        let bw = bandwidth_estimate(&record.profile, launch.threads_per_node);
        let saturated = is_bandwidth_saturated(&record.profile);
        let split = split_node_budget(
            &power_model,
            bw,
            saturated,
            launch.threads_per_node,
            per_node,
        );

        // Node selection + variability shifting, same policy as the full
        // scheduler.
        let ledger = BudgetLedger::new("CLIP-runtime", budget);
        let (node_ids, caps) = if self.coordinate_variability {
            let (node_ids, caps, _) = self.calibration.select_and_shift(
                cluster,
                &alive,
                launch.nodes,
                split.caps,
                self.variability_threshold,
                &ledger,
            );
            (node_ids, caps)
        } else {
            let mut node_ids = alive;
            node_ids.truncate(launch.nodes);
            (node_ids, vec![split.caps; launch.nodes])
        };

        let plan = SchedulePlan {
            scheduler: "CLIP-runtime".to_string(),
            node_ids,
            threads_per_node: launch.threads_per_node,
            policy,
            caps,
        };
        ledger.audit_plan(&plan);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::execute_plan;
    use workload::suite;

    #[test]
    fn launch_configuration_is_honored() {
        let mut cluster = Cluster::homogeneous(8);
        let mut rt = RuntimeCoordinator::new();
        let launch = FixedLaunch {
            nodes: 6,
            threads_per_node: 18,
            policy: None,
        };
        let plan = rt.plan_fixed(&mut cluster, &suite::sp_mz(), Power::watts(1300.0), launch);
        assert_eq!(plan.nodes(), 6);
        assert_eq!(plan.threads_per_node, 18);
    }

    #[test]
    fn budget_respected() {
        let mut cluster = Cluster::homogeneous(8);
        let mut rt = RuntimeCoordinator::new();
        let launch = FixedLaunch {
            nodes: 8,
            threads_per_node: 24,
            policy: None,
        };
        let budget = Power::watts(1100.0);
        let plan = rt.plan_fixed(&mut cluster, &suite::lu_mz(), budget, launch);
        assert!(plan.within_budget(budget));
        let report = execute_plan(
            &mut cluster,
            &suite::lu_mz(),
            &plan,
            2,
            0,
            &mut clip_obs::NoopRecorder,
        );
        assert!(report.cluster_power <= budget + Power::watts(1.0));
    }

    #[test]
    fn runtime_split_beats_naive_split_for_memory_apps() {
        // Even with everything pinned, coordinating the CPU/DRAM split
        // matters: compare against a naive 30 W DRAM pin.
        let cluster = Cluster::homogeneous(4);
        let app = suite::lu_mz();
        let budget = Power::watts(500.0);
        let launch = FixedLaunch {
            nodes: 4,
            threads_per_node: 24,
            policy: None,
        };

        let mut rt = RuntimeCoordinator::new();
        rt.coordinate_variability = false;
        let mut planning = cluster.clone();
        let plan = rt.plan_fixed(&mut planning, &app, budget, launch);
        let mut exec = cluster.clone();
        let coordinated =
            execute_plan(&mut exec, &app, &plan, 2, 0, &mut clip_obs::NoopRecorder).performance();

        let naive_caps = simnode::PowerCaps::new(
            Power::watts(budget.as_watts() / 4.0 - 30.0),
            Power::watts(30.0),
        );
        let naive_plan = SchedulePlan {
            scheduler: "naive".into(),
            node_ids: (0..4).collect(),
            threads_per_node: 24,
            policy: plan.policy,
            caps: vec![naive_caps; 4],
        };
        let mut exec = cluster.clone();
        let naive = execute_plan(
            &mut exec,
            &app,
            &naive_plan,
            2,
            0,
            &mut clip_obs::NoopRecorder,
        )
        .performance();
        assert!(
            coordinated >= naive * 0.98,
            "coordinated {coordinated:.4} vs naive {naive:.4}"
        );
    }

    #[test]
    fn explicit_policy_override() {
        let mut cluster = Cluster::homogeneous(8);
        let mut rt = RuntimeCoordinator::new();
        let launch = FixedLaunch {
            nodes: 2,
            threads_per_node: 8,
            policy: Some(AffinityPolicy::Compact),
        };
        let plan = rt.plan_fixed(&mut cluster, &suite::lu_mz(), Power::watts(500.0), launch);
        assert_eq!(plan.policy, AffinityPolicy::Compact);
    }

    #[test]
    fn knowledge_cache_shared_across_launches() {
        let mut cluster = Cluster::homogeneous(8);
        let mut rt = RuntimeCoordinator::new();
        let app = suite::amg();
        let l1 = FixedLaunch {
            nodes: 4,
            threads_per_node: 24,
            policy: None,
        };
        let l2 = FixedLaunch {
            nodes: 8,
            threads_per_node: 12,
            policy: None,
        };
        let _ = rt.plan_fixed(&mut cluster, &app, Power::watts(900.0), l1);
        assert_eq!(rt.knowledge().len(), 1);
        let _ = rt.plan_fixed(&mut cluster, &app, Power::watts(1400.0), l2);
        assert_eq!(rt.knowledge().len(), 1, "second launch reuses the profile");
    }

    #[test]
    fn fixed_launch_plans_around_a_crashed_node() {
        let mut cluster =
            Cluster::with_variability(8, &cluster_sim::VariabilityModel::with_sigma(0.08), 21);
        cluster.fail_node(4);
        let app = suite::comd();
        let launch = FixedLaunch {
            nodes: 4,
            threads_per_node: 24,
            policy: None,
        };
        for coordinate in [true, false] {
            let mut rt = RuntimeCoordinator::new();
            rt.coordinate_variability = coordinate;
            let plan = rt.plan_fixed(&mut cluster.clone(), &app, Power::watts(1200.0), launch);
            assert_eq!(plan.nodes(), 4);
            assert!(
                !plan.node_ids.contains(&4),
                "planned on {:?}",
                plan.node_ids
            );
            let report = execute_plan(
                &mut cluster.clone(),
                &app,
                &plan,
                1,
                0,
                &mut clip_obs::NoopRecorder,
            );
            assert!(report.performance() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid node count")]
    fn launch_wider_than_the_live_nodes_rejected() {
        let mut cluster = Cluster::homogeneous(8);
        cluster.fail_node(4);
        let launch = FixedLaunch {
            nodes: 8,
            threads_per_node: 24,
            policy: None,
        };
        let _ = RuntimeCoordinator::new().plan_fixed(
            &mut cluster,
            &suite::comd(),
            Power::watts(1200.0),
            launch,
        );
    }

    #[test]
    fn profiling_skips_a_crashed_node_zero() {
        let mut cluster = Cluster::homogeneous(4);
        cluster.fail_node(0);
        let before = cluster.node(0).rapl_elapsed();
        let launch = FixedLaunch {
            nodes: 2,
            threads_per_node: 12,
            policy: None,
        };
        let plan = RuntimeCoordinator::new().plan_fixed(
            &mut cluster,
            &suite::amg(),
            Power::watts(600.0),
            launch,
        );
        assert!(
            !plan.node_ids.contains(&0),
            "planned on {:?}",
            plan.node_ids
        );
        assert_eq!(cluster.node(0).rapl_elapsed(), before, "node 0 was probed");
    }

    #[test]
    #[should_panic(expected = "invalid node count")]
    fn oversubscription_rejected() {
        let mut cluster = Cluster::homogeneous(4);
        let mut rt = RuntimeCoordinator::new();
        let launch = FixedLaunch {
            nodes: 5,
            threads_per_node: 24,
            policy: None,
        };
        let _ = rt.plan_fixed(&mut cluster, &suite::comd(), Power::watts(900.0), launch);
    }
}
