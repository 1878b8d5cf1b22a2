//! Multi-phase application models and their cluster-level behaviour.
//!
//! An [`AppModel`] is a weighted sequence of [`Phase`]s (most Table II
//! benchmarks are single-phase; BT-MZ carries a separate `exch_qbc`-like
//! exchange phase, which §V-B of the paper singles out). The model
//! implements [`simnode::NodeWorkload`], so any simulated node can execute
//! it, and adds what the cluster level needs:
//!
//! - **strong scaling**: [`AppModel::strong_scale`] divides the
//!   parallel compute, memory volume and contention work of every phase
//!   across MPI ranks, leaving the serial term per-node.
//!   [`AppModel::per_rank`] is the same per-rank workload as a borrowed
//!   view, which the job executor runs without building a derived model.
//!   The view reads the app through [`RankInputs`] alone (its name aside),
//!   so those inputs are everything a rank's execution depends on.
//! - **communication**: a [`CommModel`] adds `alpha + beta·(N−1)^gamma`
//!   seconds per iteration when N > 1 nodes cooperate.
//! - **odd-concurrency penalty**: the paper observes that odd thread counts
//!   underperform nearby even ones (resource imbalance on two sockets);
//!   a small multiplicative penalty reproduces that texture and is what
//!   makes CLIP's floor-to-even rule measurable.

use crate::phase::Phase;
use serde::{Deserialize, Serialize};
use simkit::TimeSpan;
use simnode::{NodeWorkload, OperatingPoint};
use std::sync::Arc;

/// Per-iteration communication cost across `N` nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommModel {
    /// Fixed per-iteration latency component, seconds.
    pub alpha: f64,
    /// Scaling component coefficient, seconds.
    pub beta: f64,
    /// Growth exponent in the node count.
    pub gamma: f64,
}

impl Default for CommModel {
    fn default() -> Self {
        // Halo-exchange-like: mild growth with node count.
        Self {
            alpha: 0.002,
            beta: 0.004,
            gamma: 0.5,
        }
    }
}

impl CommModel {
    /// Communication time per iteration for `nodes` cooperating ranks.
    pub fn time_secs(&self, nodes: usize) -> f64 {
        assert!(nodes >= 1, "at least one node");
        if nodes == 1 {
            0.0
        } else {
            self.alpha + self.beta * ((nodes - 1) as f64).powf(self.gamma)
        }
    }
}

/// An analytic application: phases + cluster behaviour + metadata.
///
/// ```
/// use workload::{AppModel, Phase};
///
/// // A compute-bound kernel with a touch of memory traffic.
/// let app = AppModel::new(
///     "my-kernel",
///     vec![Phase { parallel_gcycles: 120.0, mem_gbytes: 2.0, ..Phase::default() }],
/// );
/// // Strong-scale it over 4 MPI ranks: parallel work divides.
/// let per_rank = app.strong_scale(4);
/// assert_eq!(per_rank.phases()[0].parallel_gcycles, 30.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppModel {
    /// Shared, so a job report or a clone of the model takes a reference
    /// instead of copying the text.
    name: Arc<str>,
    phases: Vec<Phase>,
    comm: CommModel,
    /// Multiplicative slowdown applied at odd thread counts > 1.
    odd_penalty: f64,
    /// MPI process counts the input decomposition supports (paper
    /// Algorithm 1's `N_def` set); empty = any count works.
    preferred_node_counts: Vec<usize>,
}

impl AppModel {
    /// Build and validate an application model.
    pub fn new(name: impl Into<Arc<str>>, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "application needs at least one phase");
        for p in &phases {
            p.validate();
        }
        Self {
            name: name.into(),
            phases,
            comm: CommModel::default(),
            odd_penalty: 0.02,
            preferred_node_counts: Vec::new(),
        }
    }

    /// Replace the communication model.
    pub fn with_comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Set the odd-concurrency penalty (0 disables it).
    pub fn with_odd_penalty(mut self, penalty: f64) -> Self {
        assert!((0.0..1.0).contains(&penalty));
        self.odd_penalty = penalty;
        self
    }

    /// Restrict the usable MPI process counts (data-decomposition limits).
    pub fn with_preferred_node_counts(mut self, counts: Vec<usize>) -> Self {
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "counts must ascend");
        self.preferred_node_counts = counts;
        self
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The application name as a shared handle: cloning it copies no text.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// The phases (read-only).
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The communication model.
    pub fn comm(&self) -> &CommModel {
        &self.comm
    }

    /// Supported MPI process counts; empty means unconstrained.
    pub fn preferred_node_counts(&self) -> &[usize] {
        &self.preferred_node_counts
    }

    /// The odd-concurrency penalty factor.
    pub fn odd_penalty(&self) -> f64 {
        self.odd_penalty
    }

    /// The per-rank model when this application strong-scales over `nodes`
    /// ranks: parallel compute, memory volume and contention work divide;
    /// the serial term stays per-node. An owned copy of
    /// [`AppModel::per_rank`]'s view, named `"<app>@<nodes>n"`.
    pub fn strong_scale(&self, nodes: usize) -> AppModel {
        AppModel {
            name: format!("{}@{}n", self.name, nodes).into(),
            phases: self.per_rank(nodes).phases().collect(),
            comm: self.comm.clone(),
            odd_penalty: self.odd_penalty,
            preferred_node_counts: self.preferred_node_counts.clone(),
        }
    }

    /// A borrowed view of one rank's share when this application
    /// strong-scales over `nodes` ranks. As a [`NodeWorkload`] it gives
    /// the same bits as [`AppModel::strong_scale`] without allocating;
    /// only its name is the whole application's.
    pub fn per_rank(&self, nodes: usize) -> RankView<'_> {
        assert!(nodes >= 1, "strong scaling needs at least one node");
        RankView {
            name: &self.name,
            inputs: self.rank_inputs(),
            ranks: nodes as f64,
        }
    }

    /// What a rank's execution reads from this application.
    pub fn rank_inputs(&self) -> RankInputs<'_> {
        RankInputs {
            phases: &self.phases,
            odd_penalty: self.odd_penalty,
        }
    }

    /// Aggregate memory-bandwidth demand at `threads`/`f_ghz`, summed over
    /// phases weighted by nothing (peak demand across phases is what
    /// determines whether both memory controllers are worth waking).
    pub fn peak_bandwidth_demand_gbps(&self, threads: usize, f_ghz: f64) -> f64 {
        self.rank_inputs()
            .peak_bandwidth_demand_gbps(threads, f_ghz)
    }

    /// True if any phase carries a contention term (parabolic ingredient).
    pub fn has_contention(&self) -> bool {
        self.phases.iter().any(|p| p.contention_gcycles > 0.0)
    }
}

/// What a rank's execution reads from its application: the phases and the
/// odd-concurrency penalty ([`AppModel::rank_inputs`]). [`RankView`]'s
/// workload formulas read the app through these and its name alone, so two
/// apps with equal inputs execute bit-identically on every rank, whatever
/// their names and communication models. A memo keyed on these inputs
/// cannot drift from the formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankInputs<'a> {
    phases: &'a [Phase],
    odd_penalty: f64,
}

impl<'a> RankInputs<'a> {
    /// The application's phases, before strong scaling. Never empty.
    pub fn phases(&self) -> &'a [Phase] {
        self.phases
    }

    /// The odd-concurrency penalty factor.
    pub fn odd_penalty(&self) -> f64 {
        self.odd_penalty
    }

    /// [`AppModel::peak_bandwidth_demand_gbps`] over these phases.
    fn peak_bandwidth_demand_gbps(&self, threads: usize, f_ghz: f64) -> f64 {
        self.phases
            .iter()
            .map(|p| p.bandwidth_demand_gbps(threads, f_ghz))
            .fold(0.0, f64::max)
    }
}

/// One rank's share of an [`AppModel`] strong-scaled over `ranks` ranks
/// (see [`AppModel::per_rank`]). The whole application is the view at one
/// rank, where every division by 1.0 is exact, so the two share one set
/// of workload formulas.
#[derive(Debug, Clone, Copy)]
pub struct RankView<'a> {
    name: &'a str,
    inputs: RankInputs<'a>,
    ranks: f64,
}

impl RankView<'_> {
    /// The application's phases as this rank executes them.
    fn phases(&self) -> impl Iterator<Item = Phase> + '_ {
        self.inputs.phases.iter().map(|p| Phase {
            parallel_gcycles: p.parallel_gcycles / self.ranks,
            mem_gbytes: p.mem_gbytes / self.ranks,
            contention_gcycles: p.contention_gcycles / self.ranks,
            ..*p
        })
    }
}

impl NodeWorkload for RankView<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn iteration_time(&self, op: &OperatingPoint) -> TimeSpan {
        let mut t: f64 = self.phases().map(|p| p.time_secs(op)).sum();
        let n = op.threads();
        if n > 1 && n % 2 == 1 {
            t *= 1.0 + self.inputs.odd_penalty;
        }
        TimeSpan::secs(t)
    }

    fn traffic_per_iteration(&self, _op: &OperatingPoint) -> (f64, f64) {
        let mut read = 0.0;
        let mut write = 0.0;
        for p in self.phases() {
            let (r, w) = p.traffic_bytes();
            read += r;
            write += w;
        }
        (read, write)
    }

    fn instructions_per_iteration(&self, threads: usize) -> f64 {
        // A small per-thread bookkeeping overhead keeps instruction counts
        // weakly increasing in concurrency, as real runtimes show.
        let base: f64 = self.phases().map(|p| p.instructions()).sum();
        base * (1.0 + 0.002 * (threads.saturating_sub(1)) as f64)
    }

    fn cpu_activity(&self) -> f64 {
        // Cycle-weighted blend across phases.
        let total: f64 = self.phases().map(|p| p.total_gcycles()).sum();
        if total <= 0.0 {
            return 0.5;
        }
        self.phases()
            .map(|p| p.cpu_activity * p.total_gcycles())
            .sum::<f64>()
            / total
    }

    fn shared_data_fraction(&self) -> f64 {
        let total: f64 = self.phases().map(|p| p.mem_gbytes).sum();
        if total <= 0.0 {
            return self.inputs.phases[0].shared_frac;
        }
        self.phases()
            .map(|p| p.shared_frac * p.mem_gbytes)
            .sum::<f64>()
            / total
    }

    fn icache_mpki(&self) -> f64 {
        let total: f64 = self.phases().map(|p| p.instructions()).sum();
        if total <= 0.0 {
            return 0.5;
        }
        self.phases()
            .map(|p| p.icache_mpki * p.instructions())
            .sum::<f64>()
            / total
    }

    fn burst_bandwidth_demand(&self, op: &OperatingPoint) -> simkit::Bandwidth {
        // Per-thread demand is a rate, which strong scaling leaves alone.
        let f = op.frequency().as_ghz();
        simkit::Bandwidth::gbps(self.inputs.peak_bandwidth_demand_gbps(op.threads(), f))
    }
}

impl NodeWorkload for AppModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn iteration_time(&self, op: &OperatingPoint) -> TimeSpan {
        self.per_rank(1).iteration_time(op)
    }

    fn traffic_per_iteration(&self, op: &OperatingPoint) -> (f64, f64) {
        self.per_rank(1).traffic_per_iteration(op)
    }

    fn instructions_per_iteration(&self, threads: usize) -> f64 {
        self.per_rank(1).instructions_per_iteration(threads)
    }

    fn cpu_activity(&self) -> f64 {
        self.per_rank(1).cpu_activity()
    }

    fn shared_data_fraction(&self) -> f64 {
        self.per_rank(1).shared_data_fraction()
    }

    fn icache_mpki(&self) -> f64 {
        self.per_rank(1).icache_mpki()
    }

    fn burst_bandwidth_demand(&self, op: &OperatingPoint) -> simkit::Bandwidth {
        self.per_rank(1).burst_bandwidth_demand(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnode::{AffinityPolicy, Node};

    fn compute_app() -> AppModel {
        AppModel::new(
            "test-compute",
            vec![Phase {
                parallel_gcycles: 230.0,
                mem_gbytes: 0.5,
                ..Phase::default()
            }],
        )
    }

    #[test]
    fn single_phase_executes_on_node() {
        let mut node = Node::haswell();
        let app = compute_app();
        let r = node.execute(&app, 24, AffinityPolicy::Compact, 2);
        assert!(r.performance() > 0.0);
        assert_eq!(r.iterations, 2);
    }

    #[test]
    fn odd_penalty_applies() {
        let node = Node::haswell();
        let app = compute_app().with_odd_penalty(0.05);
        let op11 = node.resolve(&app, 11, AffinityPolicy::Compact);
        let op12 = node.resolve(&app, 12, AffinityPolicy::Compact);
        let t11 = app.iteration_time(&op11).as_secs();
        let t12 = app.iteration_time(&op12).as_secs();
        // 11 threads would be faster than 12 pro-rata; the penalty plus the
        // extra core make 12 strictly better.
        assert!(t12 < t11);
    }

    #[test]
    fn odd_penalty_skips_single_thread() {
        let node = Node::haswell();
        let with = compute_app().with_odd_penalty(0.5);
        let without = compute_app().with_odd_penalty(0.0);
        let op = node.resolve(&with, 1, AffinityPolicy::Compact);
        assert_eq!(
            with.iteration_time(&op).as_secs(),
            without.iteration_time(&op).as_secs()
        );
    }

    #[test]
    fn strong_scaling_divides_parallel_work() {
        let app = compute_app();
        let scaled = app.strong_scale(4);
        assert!((scaled.phases()[0].parallel_gcycles - 230.0 / 4.0).abs() < 1e-12);
        assert!((scaled.phases()[0].mem_gbytes - 0.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn strong_scaling_keeps_serial_but_divides_contention() {
        let app = AppModel::new(
            "sync-heavy",
            vec![Phase {
                serial_gcycles: 5.0,
                parallel_gcycles: 100.0,
                contention_gcycles: 0.032,
                contention_exp: 2.0,
                ..Phase::default()
            }],
        );
        let scaled = app.strong_scale(8);
        assert_eq!(scaled.phases()[0].serial_gcycles, 5.0);
        assert!((scaled.phases()[0].contention_gcycles - 0.004).abs() < 1e-12);
    }

    #[test]
    fn comm_model_zero_on_one_node() {
        let c = CommModel::default();
        assert_eq!(c.time_secs(1), 0.0);
        assert!(c.time_secs(2) > 0.0);
        assert!(c.time_secs(8) > c.time_secs(2));
    }

    #[test]
    fn multi_phase_times_add() {
        let node = Node::haswell();
        let p1 = Phase {
            parallel_gcycles: 100.0,
            mem_gbytes: 0.0,
            ..Phase::default()
        };
        let p2 = Phase {
            parallel_gcycles: 50.0,
            mem_gbytes: 0.0,
            ..Phase::default()
        };
        let a1 = AppModel::new("a1", vec![p1]).with_odd_penalty(0.0);
        let a2 = AppModel::new("a2", vec![p2]).with_odd_penalty(0.0);
        let both = AppModel::new("both", vec![p1, p2]).with_odd_penalty(0.0);
        let op = node.resolve(&both, 12, AffinityPolicy::Compact);
        let sum = a1.iteration_time(&op).as_secs() + a2.iteration_time(&op).as_secs();
        assert!((both.iteration_time(&op).as_secs() - sum).abs() < 1e-12);
    }

    #[test]
    fn aggregate_traffic_sums_phases() {
        let p1 = Phase {
            mem_gbytes: 4.0,
            write_fraction: 0.5,
            ..Phase::default()
        };
        let p2 = Phase {
            mem_gbytes: 6.0,
            write_fraction: 0.0,
            ..Phase::default()
        };
        let app = AppModel::new("t", vec![p1, p2]);
        let node = Node::haswell();
        let op = node.resolve(&app, 4, AffinityPolicy::Compact);
        let (r, w) = app.traffic_per_iteration(&op);
        assert!((r - (2.0e9 + 6.0e9)).abs() < 1.0);
        assert!((w - 2.0e9).abs() < 1.0);
    }

    #[test]
    fn activity_blend_weighted_by_cycles() {
        let hot = Phase {
            parallel_gcycles: 90.0,
            cpu_activity: 1.0,
            ..Phase::default()
        };
        let cold = Phase {
            parallel_gcycles: 10.0,
            cpu_activity: 0.5,
            ..Phase::default()
        };
        let app = AppModel::new("blend", vec![hot, cold]);
        assert!((app.cpu_activity() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn preferred_counts_validated() {
        let app = compute_app().with_preferred_node_counts(vec![1, 2, 4, 8]);
        assert_eq!(app.preferred_node_counts(), &[1, 2, 4, 8]);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn unsorted_preferred_counts_rejected() {
        compute_app().with_preferred_node_counts(vec![4, 2]);
    }

    #[test]
    fn instructions_weakly_increase_with_threads() {
        let app = compute_app();
        assert!(app.instructions_per_iteration(24) > app.instructions_per_iteration(1));
    }
}
