//! Memory subsystem: bandwidth ceilings, NUMA penalties, and the QPI link.
//!
//! Three effects bound the bandwidth an application actually achieves:
//!
//! 1. **Topology** — only the memory controllers of sockets that host
//!    threads serve first-touch allocations, so a compact placement on one
//!    socket sees half the node's peak bandwidth.
//! 2. **Power** — a DRAM power cap converts to a bandwidth ceiling through
//!    the inverse load-power line ([`crate::power::PowerModel::bw_ceiling`]).
//! 3. **NUMA** — remote accesses pay a throughput penalty and must cross the
//!    inter-socket (QPI-like) link, which has its own capacity.
//!
//! [`MemorySubsystem::achieved_bandwidth`] combines all three with the
//! application's demand.

use crate::affinity::Placement;
use serde::{Deserialize, Serialize};
use simkit::Bandwidth;

/// Static memory-system parameters of a node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySubsystem {
    /// Peak DRAM bandwidth per socket (all channels).
    pub peak_per_socket: Bandwidth,
    /// Capacity of the inter-socket link (per direction).
    pub qpi_bandwidth: Bandwidth,
    /// Relative throughput loss on the remote fraction of traffic
    /// (0 = remote is free, 1 = remote contributes nothing).
    pub remote_penalty: f64,
}

impl Default for MemorySubsystem {
    fn default() -> Self {
        Self::haswell()
    }
}

impl MemorySubsystem {
    /// DDR4-2133, 4 channels per socket (~56 GB/s achievable), QPI 9.6 GT/s
    /// (~25 GB/s usable per direction), ~35% remote-access throughput loss.
    pub fn haswell() -> Self {
        Self {
            peak_per_socket: Bandwidth::gbps(56.0),
            qpi_bandwidth: Bandwidth::gbps(25.0),
            remote_penalty: 0.35,
        }
    }

    /// Peak bandwidth the placement's sockets can deliver, before power or
    /// NUMA effects.
    pub fn topology_ceiling(&self, placement: &Placement) -> Bandwidth {
        self.peak_per_socket * placement.sockets_used() as f64
    }

    /// The bandwidth ceiling after combining topology, the power-derived
    /// ceiling, and the NUMA penalty for this placement.
    ///
    /// `power_ceiling` is the node-wide limit implied by the DRAM power cap;
    /// `remote_frac` is the placement/application remote-access fraction.
    /// Never decreases as `power_ceiling` grows: a min, a scale by a factor
    /// in `[0, 1]` and a max all keep the order under rounding.
    pub fn effective_ceiling(
        &self,
        placement: &Placement,
        power_ceiling: Bandwidth,
        remote_frac: f64,
    ) -> Bandwidth {
        debug_assert!((0.0..=1.0).contains(&remote_frac));
        let topo = self.topology_ceiling(placement);
        let mut ceiling = topo.min(power_ceiling);
        // Remote traffic runs at reduced throughput.
        ceiling = ceiling * (1.0 - self.remote_penalty * remote_frac);
        // Remote traffic must also fit through the inter-socket link.
        if remote_frac > 0.0 {
            let qpi_limit = self.qpi_bandwidth * (1.0 / remote_frac);
            ceiling = ceiling.min(qpi_limit);
        }
        ceiling.max(Bandwidth::gbps(0.1)) // the machine never fully stalls
    }

    /// Bandwidth actually achieved for a given demand under the effective
    /// ceiling: `min(demand, ceiling)`.
    pub fn achieved_bandwidth(
        &self,
        placement: &Placement,
        power_ceiling: Bandwidth,
        remote_frac: f64,
        demand: Bandwidth,
    ) -> Bandwidth {
        demand.min(self.effective_ceiling(placement, power_ceiling, remote_frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::AffinityPolicy;
    use crate::topology::NodeTopology;

    fn mem() -> MemorySubsystem {
        MemorySubsystem::haswell()
    }

    fn place(threads: usize, policy: AffinityPolicy) -> Placement {
        Placement::resolve(&NodeTopology::haswell_2x12(), threads, policy)
    }

    #[test]
    fn compact_sees_one_socket_of_bandwidth() {
        let p = place(8, AffinityPolicy::Compact);
        assert_eq!(mem().topology_ceiling(&p), Bandwidth::gbps(56.0));
    }

    #[test]
    fn scatter_sees_both_sockets() {
        let p = place(8, AffinityPolicy::Scatter);
        assert_eq!(mem().topology_ceiling(&p), Bandwidth::gbps(112.0));
    }

    #[test]
    fn power_ceiling_binds_when_lower() {
        let p = place(8, AffinityPolicy::Scatter);
        let c = mem().effective_ceiling(&p, Bandwidth::gbps(40.0), 0.0);
        assert_eq!(c, Bandwidth::gbps(40.0));
    }

    #[test]
    fn remote_fraction_erodes_ceiling() {
        let p = place(8, AffinityPolicy::Scatter);
        let clean = mem().effective_ceiling(&p, Bandwidth::gbps(1000.0), 0.0);
        let dirty = mem().effective_ceiling(&p, Bandwidth::gbps(1000.0), 0.5);
        assert!(dirty < clean);
        // 35% penalty on half the traffic → 17.5% loss before the QPI check.
        let expected: f64 = 112.0 * (1.0 - 0.35 * 0.5);
        let qpi_limit = 25.0 / 0.5;
        assert!((dirty.as_gbps() - expected.min(qpi_limit)).abs() < 1e-9);
    }

    #[test]
    fn qpi_binds_at_high_remote_fractions() {
        let p = place(8, AffinityPolicy::Scatter);
        let c = mem().effective_ceiling(&p, Bandwidth::gbps(1000.0), 1.0);
        // With all traffic remote, the link is the bottleneck: 25 GB/s.
        assert!((c.as_gbps() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn achieved_is_min_of_demand_and_ceiling() {
        let m = mem();
        let p = place(8, AffinityPolicy::Compact);
        let small = m.achieved_bandwidth(&p, Bandwidth::gbps(1000.0), 0.0, Bandwidth::gbps(10.0));
        assert_eq!(small, Bandwidth::gbps(10.0));
        let big = m.achieved_bandwidth(&p, Bandwidth::gbps(1000.0), 0.0, Bandwidth::gbps(500.0));
        assert_eq!(big, Bandwidth::gbps(56.0));
    }

    #[test]
    fn ceiling_never_zero() {
        let p = place(2, AffinityPolicy::Compact);
        let c = mem().effective_ceiling(&p, Bandwidth::ZERO, 0.0);
        assert!(c > Bandwidth::ZERO);
    }
}
