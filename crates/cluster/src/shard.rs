//! Rack-level fleet sharding: partition one logical cluster into racks.
//!
//! ROADMAP item 1 scales the flat bulk-synchronous [`Cluster`] to 10k+
//! nodes by two-level coordination: rack-level epoch engines under a
//! cluster-level budget arbiter (`clip_core::hierarchy`). This module owns
//! the *topology* half of that split:
//!
//! - [`RackTopology`]: the racks × nodes-per-rack shape (the last rack may
//!   be short) and the bijection between global node indices and
//!   (rack, local) pairs — the index translation `Cluster::set_caps` and
//!   `plan_subset` rely on at shard boundaries;
//! - [`ShardedFleet`]: one [`Cluster`] per rack, with per-rack variability
//!   seeds derived from the campaign seed so rack 0 of a 1-rack fleet is
//!   *bit-identical* to the flat cluster the shard wraps (the
//!   shard/flat equivalence proptest pins this);
//! - [`split_faults`]: route a global-indexed [`FaultPlan`] through rack
//!   boundaries, translating each event to its rack's local index space.
//!
//! Everything here is plain index arithmetic over `Vec`s — no interior
//! mutability, no ambient state — so per-rack work stays shardable; clippy
//! bans the interior-mutable std types here as everywhere under `crates/`.

use crate::faults::{FaultEvent, FaultPlan};
use crate::fleet::Cluster;
use crate::variability::VariabilityModel;

/// Knuth's multiplicative-hash constant (2^64 / φ); spreads rack indices
/// into well-separated per-rack seed streams.
const RACK_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The racks × nodes-per-rack shape of a sharded fleet.
///
/// Global node indices `0..total_nodes()` are laid out rack-major: rack
/// `r` owns the contiguous range starting at `r * nodes_per_rack`. Every
/// rack holds exactly `nodes_per_rack` nodes except possibly the last,
/// which may be short when the node count does not divide evenly
/// ([`RackTopology::with_total`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RackTopology {
    racks: usize,
    nodes_per_rack: usize,
    total: usize,
}

impl RackTopology {
    /// An even topology: `racks` racks of exactly `nodes_per_rack` nodes.
    pub fn new(racks: usize, nodes_per_rack: usize) -> Self {
        assert!(racks > 0, "need at least one rack");
        assert!(nodes_per_rack > 0, "need at least one node per rack");
        Self {
            racks,
            nodes_per_rack,
            total: racks * nodes_per_rack,
        }
    }

    /// A topology covering exactly `total` nodes in racks of
    /// `nodes_per_rack`: `ceil(total / nodes_per_rack)` racks, the last
    /// one short when the division is uneven.
    pub fn with_total(total: usize, nodes_per_rack: usize) -> Self {
        assert!(total > 0, "need at least one node");
        assert!(nodes_per_rack > 0, "need at least one node per rack");
        Self {
            racks: total.div_ceil(nodes_per_rack),
            nodes_per_rack,
            total,
        }
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Total nodes across all racks.
    pub fn total_nodes(&self) -> usize {
        self.total
    }

    /// Nodes in rack `r` (only the last rack can differ from the rest).
    pub fn rack_len(&self, r: usize) -> usize {
        assert!(r < self.racks, "rack index out of range");
        if r + 1 == self.racks {
            self.total - (self.racks - 1) * self.nodes_per_rack
        } else {
            self.nodes_per_rack
        }
    }

    /// The rack owning global node index `g`.
    pub fn rack_of(&self, g: usize) -> usize {
        assert!(g < self.total, "global node index out of range");
        g / self.nodes_per_rack
    }

    /// The rack-local index of global node index `g`.
    pub fn local_of(&self, g: usize) -> usize {
        assert!(g < self.total, "global node index out of range");
        g % self.nodes_per_rack
    }

    /// The global index of local node `l` in rack `r`.
    pub fn global_of(&self, r: usize, l: usize) -> usize {
        assert!(l < self.rack_len(r), "local node index out of range");
        r * self.nodes_per_rack + l
    }

    /// Translate a rack-local id slice (e.g. a rack plan's `node_ids`)
    /// into global indices, preserving order.
    pub fn globalize(&self, r: usize, locals: &[usize]) -> Vec<usize> {
        locals.iter().map(|&l| self.global_of(r, l)).collect()
    }

    /// The deterministic variability seed for rack `r`, derived from the
    /// campaign seed. Rack 0 keeps the campaign seed itself, so a 1-rack
    /// fleet samples the *same* efficiency vector as the flat cluster —
    /// the anchor of the shard/flat equivalence suite.
    pub fn rack_seed(&self, seed: u64, r: usize) -> u64 {
        assert!(r < self.racks, "rack index out of range");
        seed ^ (r as u64).wrapping_mul(RACK_SEED_STRIDE)
    }
}

/// One [`Cluster`] per rack, laid out by a [`RackTopology`].
#[derive(Debug, Clone)]
pub struct ShardedFleet {
    topo: RackTopology,
    racks: Vec<Cluster>,
}

impl ShardedFleet {
    /// A fleet of identical paper-testbed Haswell nodes, no variability.
    pub fn homogeneous(topo: RackTopology) -> Self {
        let racks = (0..topo.racks())
            .map(|r| Cluster::homogeneous(topo.rack_len(r)))
            .collect();
        Self { topo, racks }
    }

    /// A fleet with manufacturing variability: rack `r` samples `var`
    /// under `topo.rack_seed(seed, r)`, so the fleet is a pure function
    /// of (topology, model, seed) and rack 0 matches the flat
    /// `Cluster::with_variability(n, var, seed)` draw.
    pub fn with_variability(topo: RackTopology, var: &VariabilityModel, seed: u64) -> Self {
        let racks = (0..topo.racks())
            .map(|r| Cluster::with_variability(topo.rack_len(r), var, topo.rack_seed(seed, r)))
            .collect();
        Self { topo, racks }
    }

    /// The fleet's shape.
    pub fn topology(&self) -> RackTopology {
        self.topo
    }

    /// Rack `r`'s cluster, `None` past the last rack.
    pub fn rack(&self, r: usize) -> Option<&Cluster> {
        self.racks.get(r)
    }

    /// Tear the fleet apart into its per-rack clusters, in rack order —
    /// the hierarchy coordinator moves each cluster into its rack runner.
    pub fn into_racks(self) -> Vec<Cluster> {
        self.racks
    }

    /// Alive nodes summed over every rack.
    pub fn alive_total(&self) -> usize {
        self.racks.iter().map(Cluster::alive_len).sum()
    }
}

/// Split a global-indexed fault plan into per-rack plans in rack-local
/// index space. Every event lands in exactly the rack that owns its
/// target node; per-rack event order (by epoch, then local node) is
/// inherited from [`FaultPlan::new`]'s canonical sort.
pub fn split_faults(topo: &RackTopology, plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut per_rack: Vec<Vec<FaultEvent>> = (0..topo.racks()).map(|_| Vec::new()).collect();
    for event in plan.events() {
        let r = topo.rack_of(event.node);
        if let Some(bucket) = per_rack.get_mut(r) {
            bucket.push(FaultEvent {
                at_epoch: event.at_epoch,
                node: topo.local_of(event.node),
                kind: event.kind,
            });
        }
    }
    per_rack.into_iter().map(FaultPlan::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;

    #[test]
    fn even_topology_shape() {
        let topo = RackTopology::new(4, 8);
        assert_eq!(topo.racks(), 4);
        assert_eq!(topo.total_nodes(), 32);
        assert!((0..4).all(|r| topo.rack_len(r) == 8));
    }

    #[test]
    fn uneven_last_rack_shape() {
        let topo = RackTopology::with_total(21, 8);
        assert_eq!(topo.racks(), 3);
        assert_eq!(topo.total_nodes(), 21);
        assert_eq!(topo.rack_len(0), 8);
        assert_eq!(topo.rack_len(1), 8);
        assert_eq!(topo.rack_len(2), 5);
    }

    #[test]
    fn single_rack_covers_everything() {
        let topo = RackTopology::with_total(8, 8);
        assert_eq!(topo.racks(), 1);
        assert_eq!(topo.rack_len(0), 8);
        assert_eq!(topo.rack_seed(41, 0), 41, "rack 0 keeps the campaign seed");
    }

    #[test]
    fn global_local_round_trip_for_every_shape() {
        let shapes = [
            RackTopology::new(1, 8),
            RackTopology::new(5, 1),
            RackTopology::new(3, 7),
            RackTopology::with_total(10, 4),
            RackTopology::with_total(13, 5),
            RackTopology::with_total(1, 9),
        ];
        for topo in shapes {
            for g in 0..topo.total_nodes() {
                let (r, l) = (topo.rack_of(g), topo.local_of(g));
                assert!(l < topo.rack_len(r), "{topo:?} g={g}");
                assert_eq!(topo.global_of(r, l), g, "{topo:?} g={g}");
            }
            let counted: usize = (0..topo.racks()).map(|r| topo.rack_len(r)).sum();
            assert_eq!(counted, topo.total_nodes(), "{topo:?}");
        }
    }

    #[test]
    fn rack_seeds_are_distinct() {
        let topo = RackTopology::new(16, 4);
        let mut seeds: Vec<u64> = (0..16).map(|r| topo.rack_seed(7, r)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn one_rack_fleet_matches_flat_cluster() {
        let topo = RackTopology::with_total(8, 8);
        let var = VariabilityModel::default();
        let fleet = ShardedFleet::with_variability(topo, &var, 41);
        let flat = Cluster::with_variability(8, &var, 41);
        let rack0 = fleet.rack(0).expect("rack 0 exists");
        assert_eq!(rack0.efficiencies(), flat.efficiencies());
    }

    #[test]
    fn split_faults_translates_and_partitions() {
        let topo = RackTopology::with_total(10, 4);
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at_epoch: 1,
                node: 0,
                kind: FaultKind::NodeCrash,
            },
            FaultEvent {
                at_epoch: 2,
                node: 5,
                kind: FaultKind::SlowNode { factor: 2.0 },
            },
            FaultEvent {
                at_epoch: 3,
                node: 9,
                kind: FaultKind::NodeCrash,
            },
        ]);
        let per_rack = split_faults(&topo, &plan);
        assert_eq!(per_rack.len(), 3);
        let lens: Vec<usize> = per_rack.iter().map(FaultPlan::len).collect();
        assert_eq!(lens, vec![1, 1, 1]);
        let rack1: Vec<usize> = per_rack
            .get(1)
            .map(|p| p.events().iter().map(|e| e.node).collect())
            .unwrap_or_default();
        assert_eq!(rack1, vec![1], "global 5 is local 1 in rack 1");
        let rack2: Vec<usize> = per_rack
            .get(2)
            .map(|p| p.events().iter().map(|e| e.node).collect())
            .unwrap_or_default();
        assert_eq!(rack2, vec![1], "global 9 is local 1 in rack 2");
    }

    #[test]
    fn fleet_total_alive_counts_every_rack() {
        let fleet = ShardedFleet::homogeneous(RackTopology::with_total(11, 4));
        assert_eq!(fleet.alive_total(), 11);
    }
}
