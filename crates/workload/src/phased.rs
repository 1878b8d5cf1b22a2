//! Phase-by-phase execution with per-phase concurrency.
//!
//! §V-B of the paper notes that BT-MZ's scalability stalls because of its
//! `exch_qbc` exchange function and that "we change the concurrency setting
//! phase-by-phase for the BT benchmark to increase performance". This
//! module provides the execution substrate for that: run each phase of a
//! multi-phase application at its own thread count (an OpenMP
//! `num_threads` clause per region), under the node's current caps.
//!
//! Times add across phases; power is time-weighted; PMU counters
//! accumulate. The recommendation side (choosing the per-phase counts)
//! lives in `clip-core::phased`.

use crate::app::AppModel;
use serde::{Deserialize, Serialize};
use simkit::{Power, TimeSpan};
use simnode::{AffinityPolicy, ExecutionReport, Node};

/// Per-phase concurrency settings for one application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhasePlan {
    /// Thread count per phase, parallel to `AppModel::phases()`.
    pub threads: Vec<usize>,
    /// Affinity shared by all phases (re-pinning between regions is too
    /// expensive on real runtimes).
    pub policy: AffinityPolicy,
}

impl PhasePlan {
    /// A uniform plan: every phase at the same count.
    pub fn uniform(phases: usize, threads: usize, policy: AffinityPolicy) -> Self {
        Self {
            threads: vec![threads; phases],
            policy,
        }
    }
}

/// Outcome of a phased execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhasedReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Total wall time across all phases.
    pub total_time: TimeSpan,
    /// Time-weighted average package power.
    pub avg_pkg_power: Power,
    /// Time-weighted average DRAM power.
    pub avg_dram_power: Power,
    /// The per-phase execution reports.
    pub per_phase: Vec<ExecutionReport>,
}

impl PhasedReport {
    /// Performance as iterations per second.
    pub fn performance(&self) -> f64 {
        self.iterations as f64 / self.total_time.as_secs()
    }

    /// Average total managed power.
    pub fn avg_total_power(&self) -> Power {
        self.avg_pkg_power + self.avg_dram_power
    }
}

/// Execute `iterations` of `app` with per-phase concurrency. Panics if the
/// plan's length does not match the phase count.
pub fn execute_phased(
    node: &mut Node,
    app: &AppModel,
    plan: &PhasePlan,
    iterations: usize,
) -> PhasedReport {
    assert_eq!(
        plan.threads.len(),
        app.phases().len(),
        "phase plan must cover every phase"
    );
    assert!(iterations > 0);

    let mut per_phase = Vec::with_capacity(app.phases().len());
    let mut total_time = TimeSpan::ZERO;
    let mut pkg_energy = 0.0;
    let mut dram_energy = 0.0;

    for (phase, &threads) in app.phases().iter().zip(&plan.threads) {
        // Each phase runs as a single-phase application, inheriting the
        // parent's odd-concurrency penalty.
        let single = AppModel::new(format!("{}#phase", app.name()), vec![*phase])
            .with_odd_penalty(app.odd_penalty());
        let report = node.execute(&single, threads, plan.policy, iterations);
        total_time += report.total_time;
        pkg_energy += report.avg_pkg_power.as_watts() * report.total_time.as_secs();
        dram_energy += report.avg_dram_power.as_watts() * report.total_time.as_secs();
        per_phase.push(report);
    }

    let secs = total_time.as_secs();
    PhasedReport {
        iterations,
        total_time,
        avg_pkg_power: Power::watts(pkg_energy / secs),
        avg_dram_power: Power::watts(dram_energy / secs),
        per_phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use simnode::{NodeWorkload, PowerCaps};

    #[test]
    fn uniform_phased_matches_monolithic_time() {
        let mut node = Node::haswell();
        let app = suite::bt_mz();
        let plan = PhasePlan::uniform(app.phases().len(), 24, AffinityPolicy::Scatter);
        let phased = execute_phased(&mut node, &app, &plan, 1);
        let op = node.resolve(&app, 24, AffinityPolicy::Scatter);
        let mono = app.iteration_time(&op).as_secs();
        // Phase-level execution uses each phase's own NUMA spread and
        // activity, so the times agree closely but not bit-exactly.
        assert!(
            (phased.total_time.as_secs() - mono).abs() / mono < 0.05,
            "phased {} vs monolithic {}",
            phased.total_time.as_secs(),
            mono
        );
    }

    #[test]
    fn per_phase_counts_can_beat_uniform() {
        // BT-MZ: the compute phase wants all cores, the exchange phase is
        // bandwidth-saturated and prefers fewer — exactly the paper's
        // phase-by-phase observation.
        let mut node = Node::haswell();
        let app = suite::bt_mz();
        let uniform = execute_phased(
            &mut node,
            &app,
            &PhasePlan::uniform(2, 24, AffinityPolicy::Scatter),
            1,
        );
        let tuned = execute_phased(
            &mut node,
            &app,
            &PhasePlan {
                threads: vec![24, 10],
                policy: AffinityPolicy::Scatter,
            },
            1,
        );
        assert!(
            tuned.performance() >= uniform.performance() * 1.05,
            "tuned {} vs uniform {}",
            tuned.performance(),
            uniform.performance()
        );
    }

    #[test]
    fn power_is_time_weighted_blend() {
        let mut node = Node::haswell();
        let app = suite::bt_mz();
        let plan = PhasePlan {
            threads: vec![24, 8],
            policy: AffinityPolicy::Scatter,
        };
        let r = execute_phased(&mut node, &app, &plan, 1);
        let lo = r
            .per_phase
            .iter()
            .map(|p| p.avg_pkg_power)
            .fold(Power::watts(f64::INFINITY), Power::min);
        let hi = r
            .per_phase
            .iter()
            .map(|p| p.avg_pkg_power)
            .fold(Power::ZERO, Power::max);
        assert!(r.avg_pkg_power >= lo && r.avg_pkg_power <= hi);
    }

    #[test]
    fn caps_respected_per_phase() {
        let mut node = Node::haswell();
        node.set_caps(PowerCaps::new(Power::watts(150.0), Power::watts(25.0)));
        let app = suite::bt_mz();
        let plan = PhasePlan {
            threads: vec![24, 12],
            policy: AffinityPolicy::Scatter,
        };
        let r = execute_phased(&mut node, &app, &plan, 1);
        for p in &r.per_phase {
            assert!(p.avg_pkg_power <= Power::watts(150.0) + Power::watts(1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "cover every phase")]
    fn plan_length_checked() {
        let mut node = Node::haswell();
        let app = suite::bt_mz();
        let plan = PhasePlan::uniform(1, 24, AffinityPolicy::Scatter);
        execute_phased(&mut node, &app, &plan, 1);
    }

    #[test]
    fn performance_definition() {
        let mut node = Node::haswell();
        let app = suite::bt_mz();
        let plan = PhasePlan::uniform(2, 24, AffinityPolicy::Scatter);
        let r = execute_phased(&mut node, &app, &plan, 4);
        assert!((r.performance() - 4.0 / r.total_time.as_secs()).abs() < 1e-12);
    }
}
