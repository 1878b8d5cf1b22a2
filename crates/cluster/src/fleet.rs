//! The node fleet.
//!
//! A [`Cluster`] is an ordered set of simulated nodes, each with its own
//! manufacturing-variability factor and individually programmable RAPL
//! caps — the machine the schedulers in `clip-core` and `baselines` operate
//! on. The paper's testbed shape (8 × dual-socket Haswell) is the default.

use crate::variability::VariabilityModel;
use simnode::{Node, PowerCaps};

/// An ordered fleet of simulated compute nodes.
///
/// ```
/// use cluster_sim::{run_job, Cluster, JobSpec};
/// use simnode::AffinityPolicy;
///
/// let mut cluster = Cluster::paper_testbed(42); // 8 Haswell nodes, σ = 3%
/// let app = workload::suite::amg();
/// let spec = JobSpec::on_first_nodes(&app, 4, 24, AffinityPolicy::Scatter, 2);
/// let report = run_job(&mut cluster, &spec, 0, &mut clip_obs::NoopRecorder);
/// assert_eq!(report.nodes_used, 4);
/// assert!(report.performance() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    efficiencies: Vec<f64>,
    /// Liveness flags; a crashed node stays in the fleet (indices are
    /// stable) but must not be scheduled onto.
    alive: Vec<bool>,
    /// How many of `alive` are set; [`Cluster::fail_node`], the one
    /// writer of `alive`, keeps it.
    alive_count: usize,
}

impl Cluster {
    /// A fleet of `n` identical nominal nodes.
    pub fn homogeneous(n: usize) -> Self {
        Self::with_variability(n, &VariabilityModel::homogeneous(), 0)
    }

    /// A fleet of `n` nodes with sampled manufacturing variability.
    pub fn with_variability(n: usize, var: &VariabilityModel, seed: u64) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        let efficiencies = var.sample(n, seed);
        // Every node is a clone of one nominal node, so all of them share
        // its P-state ladder.
        let nominal = Node::haswell();
        let nodes = efficiencies
            .iter()
            .map(|&e| {
                let mut node = nominal.clone();
                node.set_efficiency(e);
                node
            })
            .collect();
        Self {
            nodes,
            efficiencies,
            alive: vec![true; n],
            alive_count: n,
        }
    }

    /// The paper's testbed: 8 nodes, near-homogeneous (σ = 3%).
    pub fn paper_testbed(seed: u64) -> Self {
        Self::with_variability(8, &VariabilityModel::default(), seed)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the fleet is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to node `i`.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Mutable access to node `i` (to program caps or execute).
    pub fn node_mut(&mut self, i: usize) -> &mut Node {
        &mut self.nodes[i]
    }

    /// The sampled per-node efficiency factors.
    pub fn efficiencies(&self) -> &[f64] {
        &self.efficiencies
    }

    /// Program the same caps on every node.
    pub fn set_uniform_caps(&mut self, caps: PowerCaps) {
        for n in &mut self.nodes {
            n.set_caps(caps);
        }
    }

    /// Program per-node caps; `caps.len()` must equal the fleet size.
    pub fn set_caps(&mut self, caps: &[PowerCaps]) {
        assert_eq!(caps.len(), self.nodes.len(), "one cap set per node");
        for (n, c) in self.nodes.iter_mut().zip(caps) {
            n.set_caps(*c);
        }
    }

    /// Node indices sorted most-efficient-first (lowest factor first) —
    /// the order a variability-aware scheduler prefers to activate them in.
    pub fn nodes_by_efficiency(&self) -> Vec<usize> {
        let mut ranked: Vec<(usize, f64)> = self.efficiencies.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked.into_iter().map(|(i, _)| i).collect()
    }

    /// Is node `i` still alive?
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// Mark node `i` as crashed. Its index stays valid (the fleet does not
    /// renumber) but [`crate::run_job`] refuses to schedule onto it. At
    /// least one node must remain alive.
    pub fn fail_node(&mut self, i: usize) {
        assert!(i < self.alive.len(), "node {i} out of range");
        let was_alive = usize::from(self.alive[i]);
        assert!(
            self.alive_count > was_alive,
            "cannot crash the last alive node"
        );
        self.alive[i] = false;
        self.alive_count -= was_alive;
    }

    /// Indices of the nodes still alive, in fleet order. Collecting the
    /// whole index range sizes the buffer once; a filtered collect would
    /// grow it from an unknown length, one reallocation per doubling.
    pub fn alive_nodes(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.alive.len()).collect();
        ids.retain(|&i| self.alive[i]);
        ids
    }

    /// Count of alive nodes.
    pub fn alive_len(&self) -> usize {
        self.alive_count
    }

    /// Overwrite node `i`'s variability factor (both the scheduler-visible
    /// entry and the node's own power model) — the knob slow-node and
    /// drift faults turn. Factors > 1 burn more power for the same work.
    pub fn set_node_efficiency(&mut self, i: usize, factor: f64) {
        assert!(i < self.nodes.len(), "node {i} out of range");
        self.nodes[i].set_efficiency(factor);
        self.efficiencies[i] = factor;
    }

    /// Multiply node `i`'s variability factor — how straggle and drift
    /// faults compound on whatever the node already was.
    pub fn scale_node_efficiency(&mut self, i: usize, factor: f64) {
        assert!(i < self.nodes.len(), "node {i} out of range");
        let scaled = self.efficiencies[i] * factor;
        self.set_node_efficiency(i, scaled);
    }

    /// Inject a RAPL actuation error on node `i` (see
    /// [`simnode::Node::set_cap_jitter`]); 0 restores exact actuation.
    pub fn set_cap_jitter(&mut self, i: usize, jitter: f64) {
        assert!(i < self.nodes.len(), "node {i} out of range");
        self.nodes[i].set_cap_jitter(jitter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Power;

    #[test]
    fn paper_testbed_shape() {
        let c = Cluster::paper_testbed(42);
        assert_eq!(c.len(), 8);
        assert!(!c.is_empty());
    }

    #[test]
    fn homogeneous_fleet_all_nominal() {
        let c = Cluster::homogeneous(4);
        assert!(c.efficiencies().iter().all(|&e| e == 1.0));
    }

    #[test]
    fn variability_is_seed_deterministic() {
        let a = Cluster::paper_testbed(1);
        let b = Cluster::paper_testbed(1);
        assert_eq!(a.efficiencies(), b.efficiencies());
        let c = Cluster::paper_testbed(2);
        assert_ne!(a.efficiencies(), c.efficiencies());
    }

    #[test]
    fn uniform_caps_programmed_everywhere() {
        let mut c = Cluster::homogeneous(3);
        let caps = PowerCaps::new(Power::watts(150.0), Power::watts(40.0));
        c.set_uniform_caps(caps);
        for i in 0..3 {
            assert_eq!(c.node(i).caps(), caps);
        }
    }

    #[test]
    fn per_node_caps() {
        let mut c = Cluster::homogeneous(2);
        let caps = vec![
            PowerCaps::new(Power::watts(100.0), Power::watts(30.0)),
            PowerCaps::new(Power::watts(200.0), Power::watts(40.0)),
        ];
        c.set_caps(&caps);
        assert_eq!(c.node(0).caps(), caps[0]);
        assert_eq!(c.node(1).caps(), caps[1]);
    }

    #[test]
    #[should_panic(expected = "one cap set per node")]
    fn cap_count_mismatch_rejected() {
        let mut c = Cluster::homogeneous(2);
        c.set_caps(&[PowerCaps::unlimited()]);
    }

    #[test]
    fn fresh_fleet_is_fully_alive() {
        let c = Cluster::paper_testbed(42);
        assert_eq!(c.alive_len(), 8);
        assert_eq!(c.alive_nodes(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn failed_node_leaves_the_pool_but_keeps_its_index() {
        let mut c = Cluster::homogeneous(4);
        c.fail_node(1);
        assert!(!c.is_alive(1));
        assert_eq!(c.alive_nodes(), vec![0, 2, 3]);
        assert_eq!(c.alive_len(), 3);
        assert_eq!(c.len(), 4, "the fleet does not renumber");
    }

    #[test]
    #[should_panic(expected = "last alive node")]
    fn last_alive_node_cannot_crash() {
        let mut c = Cluster::homogeneous(2);
        c.fail_node(0);
        c.fail_node(1);
    }

    #[test]
    fn node_efficiency_override_reaches_both_views() {
        let mut c = Cluster::homogeneous(3);
        c.set_node_efficiency(2, 1.2);
        assert_eq!(c.efficiencies()[2], 1.2);
        assert_eq!(c.node(2).power_model().efficiency, 1.2);
    }

    #[test]
    fn cap_jitter_is_per_node() {
        let mut c = Cluster::homogeneous(2);
        c.set_cap_jitter(1, 0.05);
        assert_eq!(c.node(0).cap_jitter(), 0.0);
        assert_eq!(c.node(1).cap_jitter(), 0.05);
    }

    #[test]
    fn efficiency_ordering() {
        let c = Cluster::paper_testbed(9);
        let order = c.nodes_by_efficiency();
        for w in order.windows(2) {
            assert!(c.efficiencies()[w[0]] <= c.efficiencies()[w[1]]);
        }
    }
}
