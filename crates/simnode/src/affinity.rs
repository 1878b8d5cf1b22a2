//! Core-thread affinity policies and their NUMA consequences.
//!
//! CLIP's node-level step 3 chooses "core and memory affinity based on
//! application memory access intensity" (§I). The two canonical OpenMP
//! mappings are modeled:
//!
//! - **Compact**: fill socket 0 before touching socket 1. Keeps all traffic
//!   on local memory (no remote accesses while one socket suffices) but only
//!   one memory controller serves the threads.
//! - **Scatter**: round-robin threads across sockets. Both memory
//!   controllers serve the application (double bandwidth) at the price of a
//!   remote-access fraction on shared data.
//!
//! [`Placement`] resolves a policy + thread count into per-socket occupancy
//! and exposes the two quantities the performance model needs: how many
//! memory controllers feed the app, and what fraction of misses go remote.

use crate::topology::{NodeTopology, MAX_SOCKETS};
use serde::{Deserialize, Error, Serialize, Value};

/// Thread-to-core mapping policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AffinityPolicy {
    /// Fill sockets one at a time (OMP_PROC_BIND=close).
    Compact,
    /// Round-robin across sockets (OMP_PROC_BIND=spread).
    Scatter,
}

impl AffinityPolicy {
    /// All policies, for exhaustive sweeps.
    pub const ALL: [AffinityPolicy; 2] = [AffinityPolicy::Compact, AffinityPolicy::Scatter];
}

impl std::fmt::Display for AffinityPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AffinityPolicy::Compact => write!(f, "compact"),
            AffinityPolicy::Scatter => write!(f, "scatter"),
        }
    }
}

/// A resolved thread placement on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    policy: AffinityPolicy,
    /// Busy cores on each socket; sums to the thread count.
    active_per_socket: SocketCounts,
}

/// Per-socket counts held inline for up to [`MAX_SOCKETS`] sockets, so a
/// placement never allocates. Entries past `sockets` stay zero. Prints and
/// serializes as the list of the first `sockets` entries, as a `Vec` did.
#[derive(Clone, Copy, PartialEq, Eq)]
struct SocketCounts {
    sockets: usize,
    counts: [usize; MAX_SOCKETS],
}

impl SocketCounts {
    fn as_slice(&self) -> &[usize] {
        self.counts.get(..self.sockets).unwrap_or_default()
    }
}

impl std::fmt::Debug for SocketCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Serialize for SocketCounts {
    fn serialize_value(&self) -> Value {
        self.as_slice().serialize_value()
    }
}

impl Deserialize for SocketCounts {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<usize>::deserialize_value(v)?;
        let mut counts = [0; MAX_SOCKETS];
        counts
            .get_mut(..items.len())
            .ok_or_else(|| {
                Error::custom(format!(
                    "{} sockets exceed the supported {MAX_SOCKETS}",
                    items.len()
                ))
            })?
            .copy_from_slice(&items);
        Ok(Self {
            sockets: items.len(),
            counts,
        })
    }
}

impl Placement {
    /// Place `threads` threads on `topo` under `policy`. Panics if the node
    /// has fewer cores than threads or if `threads` is zero.
    pub fn resolve(topo: &NodeTopology, threads: usize, policy: AffinityPolicy) -> Self {
        assert!(threads >= 1, "placement needs at least one thread");
        assert!(
            threads <= topo.total_cores(),
            "{} threads exceed {} cores",
            threads,
            topo.total_cores()
        );
        let ns = topo.sockets();
        assert!(
            ns <= MAX_SOCKETS,
            "{ns} sockets exceed the supported {MAX_SOCKETS}"
        );
        let cps = topo.cores_per_socket();
        let mut counts = [0usize; MAX_SOCKETS];
        let used = counts.iter_mut().take(ns);
        match policy {
            AffinityPolicy::Compact => {
                let mut left = threads;
                for slot in used {
                    let take = left.min(cps);
                    *slot = take;
                    left -= take;
                    if left == 0 {
                        break;
                    }
                }
            }
            AffinityPolicy::Scatter => {
                // Dealing thread t to socket t % ns gives every socket the
                // even share, and the first threads % ns sockets one more.
                for (s, slot) in used.enumerate() {
                    *slot = threads / ns + usize::from(s < threads % ns);
                }
            }
        }
        Self {
            policy,
            active_per_socket: SocketCounts {
                sockets: ns,
                counts,
            },
        }
    }

    /// The policy this placement was resolved from.
    pub fn policy(&self) -> AffinityPolicy {
        self.policy
    }

    /// Busy-core count per socket.
    pub fn active_per_socket(&self) -> &[usize] {
        self.active_per_socket.as_slice()
    }

    /// Total threads placed.
    pub fn threads(&self) -> usize {
        self.active_per_socket().iter().sum()
    }

    /// Number of sockets with at least one busy core — these are the memory
    /// controllers that serve the application's local allocations.
    pub fn sockets_used(&self) -> usize {
        self.active_per_socket().iter().filter(|&&n| n > 0).count()
    }

    /// Fraction of last-level-cache misses served by a *remote* NUMA domain.
    ///
    /// `shared_frac` is the application's fraction of accesses that touch
    /// data shared across all threads (workload property). With first-touch
    /// allocation, private data is always local; shared data is spread over
    /// the used sockets, so a thread finds `1 − 1/sockets_used` of it remote.
    pub fn remote_fraction(&self, shared_frac: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&shared_frac));
        let s = self.sockets_used();
        if s <= 1 {
            0.0
        } else {
            shared_frac * (1.0 - 1.0 / s as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> NodeTopology {
        NodeTopology::haswell_2x12()
    }

    #[test]
    fn compact_fills_first_socket() {
        let p = Placement::resolve(&topo(), 8, AffinityPolicy::Compact);
        assert_eq!(p.active_per_socket(), &[8, 0]);
        assert_eq!(p.sockets_used(), 1);
    }

    #[test]
    fn compact_spills_to_second_socket() {
        let p = Placement::resolve(&topo(), 16, AffinityPolicy::Compact);
        assert_eq!(p.active_per_socket(), &[12, 4]);
        assert_eq!(p.sockets_used(), 2);
    }

    #[test]
    fn scatter_round_robins() {
        let p = Placement::resolve(&topo(), 8, AffinityPolicy::Scatter);
        assert_eq!(p.active_per_socket(), &[4, 4]);
        assert_eq!(p.sockets_used(), 2);
        let odd = Placement::resolve(&topo(), 7, AffinityPolicy::Scatter);
        assert_eq!(odd.active_per_socket(), &[4, 3]);
    }

    #[test]
    fn scatter_deals_threads_round_robin() {
        for (sockets, cores) in [(1, 4), (2, 12), (3, 5), (MAX_SOCKETS, 2)] {
            let topo = NodeTopology::new(sockets, cores);
            for threads in 1..=topo.total_cores() {
                let mut dealt = vec![0; sockets];
                for t in 0..threads {
                    dealt[t % sockets] += 1;
                }
                let p = Placement::resolve(&topo, threads, AffinityPolicy::Scatter);
                assert_eq!(
                    p.active_per_socket(),
                    &dealt[..],
                    "{sockets}x{cores}, {threads}"
                );
            }
        }
    }

    #[test]
    fn all_cores_identical_under_both_policies() {
        let c = Placement::resolve(&topo(), 24, AffinityPolicy::Compact);
        let s = Placement::resolve(&topo(), 24, AffinityPolicy::Scatter);
        assert_eq!(c.active_per_socket(), s.active_per_socket());
    }

    #[test]
    fn debug_prints_the_used_sockets() {
        let p = Placement::resolve(&topo(), 16, AffinityPolicy::Compact);
        assert_eq!(
            format!("{p:?}"),
            "Placement { policy: Compact, active_per_socket: [12, 4] }"
        );
    }

    #[test]
    fn threads_roundtrip() {
        for t in 1..=24 {
            for pol in AffinityPolicy::ALL {
                assert_eq!(Placement::resolve(&topo(), t, pol).threads(), t);
            }
        }
    }

    #[test]
    fn remote_fraction_zero_on_single_socket() {
        let p = Placement::resolve(&topo(), 6, AffinityPolicy::Compact);
        assert_eq!(p.remote_fraction(0.8), 0.0);
    }

    #[test]
    fn remote_fraction_grows_with_sharing() {
        let p = Placement::resolve(&topo(), 6, AffinityPolicy::Scatter);
        assert!((p.remote_fraction(1.0) - 0.5).abs() < 1e-12);
        assert!((p.remote_fraction(0.4) - 0.2).abs() < 1e-12);
        assert_eq!(p.remote_fraction(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_threads_rejected() {
        Placement::resolve(&topo(), 25, AffinityPolicy::Compact);
    }

    #[test]
    fn display_names() {
        assert_eq!(AffinityPolicy::Compact.to_string(), "compact");
        assert_eq!(AffinityPolicy::Scatter.to_string(), "scatter");
    }
}
