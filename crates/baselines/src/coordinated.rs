//! The Coordinated baseline — Ge et al., ICPP'16 (§V-C, reference 15).
//!
//! "Ensures that the nodes participating in computation are allocated a
//! budget no less than a preset value specific to the application. It
//! coordinates power between CPU and memory according to the power model.
//! The Coordinated method executes applications at the highest possible
//! concurrency."
//!
//! In other words: everything CLIP does *except* concurrency throttling and
//! inflection awareness — it profiles, fits the power model, sizes the node
//! count by the application's power floor, and splits CPU/DRAM budgets
//! intelligently, but always runs all cores. The gap between Coordinated
//! and CLIP is therefore exactly the paper's contribution (class-aware
//! concurrency), which Figures 8–9 quantify.

use clip_core::audit::BudgetLedger;
use clip_core::knowledge::KnowledgeRecord;
use clip_core::profile::SmartProfiler;
use clip_core::recommend::{bandwidth_estimate, is_bandwidth_saturated, split_node_budget};
use clip_core::{FittedPowerModel, KnowledgeDb, PowerScheduler, SchedulePlan};
use cluster_sim::Cluster;
use simkit::Power;
use std::borrow::Cow;
use workload::AppModel;

/// The power-coordinating, concurrency-blind scheduler.
#[derive(Debug, Clone)]
pub struct Coordinated {
    profiler: SmartProfiler,
    db: KnowledgeDb,
}

impl Default for Coordinated {
    fn default() -> Self {
        Self {
            profiler: SmartProfiler::default(),
            db: KnowledgeDb::new(),
        }
    }
}

impl Coordinated {
    /// Fresh scheduler with an empty knowledge cache.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PowerScheduler for Coordinated {
    fn name(&self) -> &str {
        "Coordinated"
    }

    fn plan(&mut self, cluster: &mut Cluster, app: &AppModel, budget: Power) -> SchedulePlan {
        let alive = cluster.alive_nodes();
        self.plan_subset(cluster, app, budget, &alive)
    }

    fn plan_subset(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        allowed: &[usize],
    ) -> SchedulePlan {
        assert!(!allowed.is_empty(), "no nodes available");
        let probe = allowed.first().copied().unwrap_or(0);
        let total_cores = cluster.node(probe).topology().total_cores();
        let record = match self.db.get(app.name()) {
            Some(r) => Cow::Borrowed(r),
            None => {
                let profile = self.profiler.profile(cluster.node_mut(probe), app);
                let r = KnowledgeRecord {
                    profile,
                    np: total_cores,
                };
                self.db.insert(r.clone());
                Cow::Owned(r)
            }
        };
        let power_model = FittedPowerModel::fit(&record.profile);

        // Application-specific floor: the all-core configuration at the
        // lowest frequency (the acceptable range's lower bound).
        let bw_all = bandwidth_estimate(&record.profile, total_cores);
        let floor = power_model.cpu_power(total_cores, power_model.f_min)
            + power_model.mem_power(bw_all * power_model.f_min / power_model.f_max);

        let affordable = (budget.as_watts() / floor.as_watts()).floor() as usize;
        let n = affordable.clamp(1, allowed.len());
        let per_node = budget / n as f64;

        // CPU/memory coordination from the fitted model: the fixed-point
        // split sizes DRAM for the bandwidth the CPU budget can actually
        // drive (the method's namesake contribution in [15]).
        let saturated = is_bandwidth_saturated(&record.profile);
        let caps = split_node_budget(&power_model, bw_all, saturated, total_cores, per_node).caps;

        let plan = SchedulePlan {
            scheduler: self.name().to_string(),
            node_ids: allowed.iter().copied().take(n).collect(),
            threads_per_node: total_cores,
            policy: record.profile.policy,
            caps: vec![caps; n],
        };
        BudgetLedger::new(self.name(), budget).audit_plan(&plan);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_core::execute_plan;
    use workload::suite;

    #[test]
    fn always_max_concurrency() {
        let mut cluster = Cluster::homogeneous(8);
        let mut s = Coordinated::new();
        for app in [suite::comd(), suite::sp_mz(), suite::lu_mz()] {
            let plan = s.plan(&mut cluster, &app, Power::watts(1400.0));
            assert_eq!(plan.threads_per_node, 24, "{}", app.name());
        }
    }

    #[test]
    fn memory_apps_get_bigger_dram_share_than_naive() {
        let mut cluster = Cluster::homogeneous(8);
        let mut s = Coordinated::new();
        let plan = s.plan(&mut cluster, &suite::lu_mz(), Power::watts(1600.0));
        // LU-MZ saturates both sockets: its DRAM demand is well over the
        // naive 30 W pin.
        assert!(
            plan.caps[0].dram > Power::watts(30.0),
            "dram cap {}",
            plan.caps[0].dram
        );
    }

    #[test]
    fn app_specific_floor_shrinks_nodes() {
        let mut cluster = Cluster::homogeneous(8);
        let mut s = Coordinated::new();
        let generous = s.plan(&mut cluster, &suite::comd(), Power::watts(2400.0));
        let tight = s.plan(&mut cluster, &suite::comd(), Power::watts(500.0));
        assert!(tight.nodes() < generous.nodes());
    }

    #[test]
    fn budget_respected_in_plan_and_execution() {
        let mut cluster = Cluster::homogeneous(8);
        let mut s = Coordinated::new();
        let app = suite::tea_leaf();
        let budget = Power::watts(1100.0);
        let plan = s.plan(&mut cluster, &app, budget);
        assert!(plan.within_budget(budget));
        let report = execute_plan(&mut cluster, &app, &plan, 1, 0, &mut clip_obs::NoopRecorder);
        assert!(report.cluster_power <= budget + Power::watts(1.0));
    }

    #[test]
    fn subset_profiles_on_a_surviving_node() {
        let mut cluster = Cluster::homogeneous(8);
        cluster.fail_node(0);
        let mut s = Coordinated::new();
        let allowed = cluster.alive_nodes();
        let plan = s.plan_subset(&mut cluster, &suite::comd(), Power::watts(1400.0), &allowed);
        assert!(!plan.node_ids.contains(&0));
        assert!(plan.node_ids.iter().all(|id| allowed.contains(id)));
        assert!(plan.within_budget(Power::watts(1400.0)));
    }

    #[test]
    fn second_plan_hits_the_cache() {
        let mut cluster = Cluster::homogeneous(8);
        let mut s = Coordinated::new();
        let app = suite::amg();
        let _ = s.plan(&mut cluster, &app, Power::watts(1000.0));
        let before = s.db.len();
        let _ = s.plan(&mut cluster, &app, Power::watts(1500.0));
        assert_eq!(s.db.len(), before);
    }
}
