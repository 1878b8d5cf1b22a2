//! The Lower-Limit baseline (§V-C).
//!
//! "Ensures that no nodes participating in the computation are allocated a
//! budget less than a preset value, i.e., 180 Watts. If the total power
//! budget cannot allocate every node more than 180 watts, the scheduler
//! decreases the number of active nodes. Additionally, this method utilizes
//! all cores on each active node and allocates 30 watts to memory."

use crate::naive_split;
use clip_core::audit::BudgetLedger;
use clip_core::{PowerScheduler, SchedulePlan};
use cluster_sim::Cluster;
use simkit::Power;
use simnode::AffinityPolicy;
use workload::AppModel;

/// The fixed-floor node-count scheduler.
#[derive(Debug, Clone)]
pub struct LowerLimit {
    /// Minimum per-node budget; the paper uses 180 W.
    pub preset: Power,
}

impl Default for LowerLimit {
    fn default() -> Self {
        Self {
            preset: Power::watts(180.0),
        }
    }
}

impl PowerScheduler for LowerLimit {
    fn name(&self) -> &str {
        "Lower-Limit"
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
        let affordable = (budget.as_watts() / self.preset.as_watts()).floor() as usize;
        let n = affordable.clamp(1, allowed.len());
        let per_node = budget / n as f64;
        let caps = naive_split(per_node);
        let probe = allowed.first().copied().unwrap_or(0);
        let plan = SchedulePlan {
            scheduler: self.name().to_string(),
            node_ids: allowed.iter().copied().take(n).collect(),
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
    use workload::suite;

    #[test]
    fn generous_budget_all_nodes() {
        let mut cluster = Cluster::homogeneous(8);
        let plan = LowerLimit::default().plan(&mut cluster, &suite::comd(), Power::watts(2000.0));
        assert_eq!(plan.nodes(), 8);
    }

    #[test]
    fn tight_budget_shrinks_nodes_to_hold_the_floor() {
        let mut cluster = Cluster::homogeneous(8);
        // 900 W / 180 W = 5 nodes.
        let plan = LowerLimit::default().plan(&mut cluster, &suite::comd(), Power::watts(900.0));
        assert_eq!(plan.nodes(), 5);
        for caps in &plan.caps {
            assert!(caps.total() >= Power::watts(180.0) - Power::watts(1e-9));
        }
    }

    #[test]
    fn starved_budget_keeps_one_node() {
        let mut cluster = Cluster::homogeneous(8);
        let plan = LowerLimit::default().plan(&mut cluster, &suite::comd(), Power::watts(100.0));
        assert_eq!(plan.nodes(), 1);
    }

    #[test]
    fn budget_never_exceeded() {
        let mut cluster = Cluster::homogeneous(8);
        for budget in [400.0, 750.0, 1100.0, 1900.0] {
            let plan =
                LowerLimit::default().plan(&mut cluster, &suite::amg(), Power::watts(budget));
            assert!(plan.within_budget(Power::watts(budget)), "budget {budget}");
        }
    }

    #[test]
    fn subset_clamps_to_pool_and_holds_the_floor() {
        let mut cluster = Cluster::homogeneous(8);
        for dead in [0, 1, 2, 3, 4, 5] {
            cluster.fail_node(dead);
        }
        // 900 W affords 5 nodes at the 180 W floor, but only 2 survive.
        let allowed = cluster.alive_nodes();
        let plan = LowerLimit::default().plan_subset(
            &mut cluster,
            &suite::comd(),
            Power::watts(900.0),
            &allowed,
        );
        assert_eq!(plan.nodes(), 2);
        assert_eq!(plan.node_ids, vec![6, 7]);
        assert!(plan.within_budget(Power::watts(900.0)));
    }

    #[test]
    fn custom_preset_respected() {
        let mut cluster = Cluster::homogeneous(8);
        let mut s = LowerLimit {
            preset: Power::watts(250.0),
        };
        let plan = s.plan(&mut cluster, &suite::comd(), Power::watts(1000.0));
        assert_eq!(plan.nodes(), 4);
    }
}
