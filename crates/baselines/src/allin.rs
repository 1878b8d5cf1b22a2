//! The All-In baseline (§V-C).
//!
//! "Utilizes all supplied nodes. It allocates 30 watts to memory and the
//! remaining power to CPU on each node … All of the cores participate in
//! application execution." The method is completely application-blind: node
//! count, concurrency and the power split never change. Its uncapped run is
//! also the normalization reference of Figures 8–9.

use crate::naive_split;
use clip_core::audit::BudgetLedger;
use clip_core::{PowerScheduler, SchedulePlan};
use cluster_sim::Cluster;
use simkit::Power;
use simnode::AffinityPolicy;
use workload::AppModel;

/// The application-blind all-nodes/all-cores scheduler.
#[derive(Debug, Clone, Default)]
pub struct AllIn;

impl PowerScheduler for AllIn {
    fn name(&self) -> &str {
        "All-In"
    }

    fn plan(&mut self, cluster: &mut Cluster, app: &AppModel, budget: Power) -> SchedulePlan {
        let alive = cluster.alive_nodes();
        self.plan_subset(cluster, app, budget, &alive)
    }

    fn plan_subset(
        &mut self,
        cluster: &mut Cluster,
        _app: &AppModel,
        budget: Power,
        allowed: &[usize],
    ) -> SchedulePlan {
        assert!(!allowed.is_empty(), "no nodes available");
        // "All in" means all *usable* nodes: the full budget spreads over
        // whatever the pool still holds.
        let n = allowed.len();
        let per_node = budget / n as f64;
        let caps = naive_split(per_node);
        let probe = allowed.first().copied().unwrap_or(0);
        let plan = SchedulePlan {
            scheduler: self.name().to_string(),
            node_ids: allowed.to_vec(),
            threads_per_node: cluster.node(probe).topology().total_cores(),
            policy: AffinityPolicy::Compact,
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
    fn always_uses_every_node_and_core() {
        let mut cluster = Cluster::homogeneous(8);
        let mut s = AllIn;
        for budget in [600.0, 1200.0, 2400.0] {
            let plan = s.plan(&mut cluster, &suite::comd(), Power::watts(budget));
            assert_eq!(plan.nodes(), 8);
            assert_eq!(plan.threads_per_node, 24);
            assert!(plan.within_budget(Power::watts(budget)));
        }
    }

    #[test]
    fn memory_pinned_at_30w() {
        let mut cluster = Cluster::homogeneous(8);
        let plan = AllIn.plan(&mut cluster, &suite::lu_mz(), Power::watts(1600.0));
        for caps in &plan.caps {
            assert_eq!(caps.dram, Power::watts(30.0));
        }
    }

    #[test]
    fn identical_plan_for_different_apps() {
        let mut cluster = Cluster::homogeneous(8);
        let budget = Power::watts(1400.0);
        let a = AllIn.plan(&mut cluster, &suite::comd(), budget);
        let b = AllIn.plan(&mut cluster, &suite::tea_leaf(), budget);
        assert_eq!(a.caps, b.caps);
        assert_eq!(a.threads_per_node, b.threads_per_node);
    }

    #[test]
    fn subset_spreads_full_budget_over_survivors() {
        let mut cluster = Cluster::homogeneous(8);
        cluster.fail_node(2);
        cluster.fail_node(5);
        let budget = Power::watts(1600.0);
        let allowed = cluster.alive_nodes();
        let plan = AllIn.plan_subset(&mut cluster, &suite::comd(), budget, &allowed);
        assert_eq!(plan.nodes(), 6);
        assert_eq!(plan.node_ids, allowed);
        // The whole budget lands on the survivors, exactly.
        assert!((plan.total_caps().as_watts() - budget.as_watts()).abs() < 1e-9);
    }

    #[test]
    fn execution_respects_budget() {
        let mut cluster = Cluster::homogeneous(8);
        let app = suite::amg();
        let budget = Power::watts(1200.0);
        let plan = AllIn.plan(&mut cluster, &app, budget);
        let report = execute_plan(&mut cluster, &app, &plan, 1, 0, &mut clip_obs::NoopRecorder);
        assert!(report.cluster_power <= budget + Power::watts(1.0));
    }
}
