//! Inter-node power coordination for manufacturing variability (§III-B2).
//!
//! Nominally identical nodes draw different power at the same frequency
//! (process variation), so a uniform per-node cap lands them on different
//! P-states and the bulk-synchronous job pays the slowest one. Following
//! Inadomi et al., CLIP measures each node's relative power appetite with a
//! short fixed probe and — when the spread exceeds a threshold, since the
//! paper's own testbed is "quite homogeneous" — shifts CPU budget from
//! thrifty to leaky nodes so everyone sustains the same frequency. The
//! total budget is preserved exactly.
//!
//! Like Inadomi et al.'s one-time power-variation table, the probe runs
//! once per node power state: a [`CalibrationTable`] keeps each node's
//! probe power with the [`PowerState`] (efficiency factor and cap jitter)
//! it was measured at, and re-probes a node only when it has changed.

use crate::audit::BudgetLedger;
use cluster_sim::{Cluster, VariabilityModel};
use simkit::Power;
use simnode::{AffinityPolicy, Node, PowerCaps, PowerState};
use workload::{suite, AppModel};

/// Measure each listed node's relative power appetite: run a short,
/// identical compute-bound probe uncapped and compare package powers.
/// Returns mean-normalized factors (1.0 = average node).
pub fn measure_efficiencies(cluster: &mut Cluster, node_ids: &[usize]) -> Vec<f64> {
    let mut fresh = CalibrationTable::default();
    fresh.measure(cluster, node_ids);
    fresh.ranked.into_iter().map(|(_, f)| f).collect()
}

/// Per-node probe powers, each measured once per node power state.
///
/// Every lookup compares the node's current efficiency factor and cap
/// jitter with the ones its entry was measured at, so an entry cannot go
/// stale however the node was changed (a fault, a test, a caller holding
/// `&mut Cluster`) and nothing has to tell the table about it. A skipped
/// probe executes nothing, so it advances no RAPL counter and draws no
/// simulated energy. Entries are keyed by node index and depend only on
/// the node's state, so one table serves every clone of a cluster.
#[derive(Debug, Clone, Default)]
pub struct CalibrationTable {
    entries: Vec<Option<(PowerState, Power)>>,
    /// Scratch: `(pool position, factor)` of the pool being measured.
    ranked: Vec<(usize, f64)>,
}

impl CalibrationTable {
    /// Fill `ranked` with the positions and mean-normalized factors of
    /// `node_ids`, in order, with [`measure_efficiencies`]'s float
    /// operations.
    fn measure(&mut self, cluster: &mut Cluster, node_ids: &[usize]) {
        self.ranked.clear();
        let Some(&first_id) = node_ids.first() else {
            return;
        };
        let threads = cluster.node(first_id).topology().total_cores();
        if self.entries.len() < cluster.len() {
            self.entries.resize(cluster.len(), None);
        }
        self.ranked.reserve(node_ids.len());
        let mut probe = None;
        for (position, &id) in node_ids.iter().enumerate() {
            let power = self.probe_power(cluster.node_mut(id), id, threads, &mut probe);
            self.ranked.push((position, power.as_watts()));
        }
        let mean = self.ranked.iter().map(|&(_, p)| p).sum::<f64>() / self.ranked.len() as f64;
        for (_, p) in &mut self.ranked {
            *p /= mean;
        }
    }

    /// Node `id`'s probe package power: the stored one while the node is
    /// in the state it was measured at, else a fresh uncapped probe run
    /// (the `ep_like` model is built on the first such miss).
    fn probe_power(
        &mut self,
        node: &mut Node,
        id: usize,
        threads: usize,
        probe: &mut Option<AppModel>,
    ) -> Power {
        let state = node.power_state();
        if let Some(&Some((measured_at, power))) = self.entries.get(id) {
            if measured_at == state {
                return power;
            }
        }
        let probe = probe.get_or_insert_with(suite::ep_like);
        let saved = node.caps();
        node.set_caps(PowerCaps::unlimited());
        let report = node.execute(probe, threads, AffinityPolicy::Compact, 1);
        node.set_caps(saved);
        if let Some(entry) = self.entries.get_mut(id) {
            *entry = Some((state, report.avg_pkg_power));
        }
        report.avg_pkg_power
    }

    /// Measure `pool`, keep its `n` thriftiest nodes (ties keep pool
    /// order), and shift CPU budget among them from `uniform` when their
    /// spread exceeds `threshold`, audited as zero-sum on `ledger`.
    /// Returns the kept nodes (lowest factor first), their caps, and the
    /// spread of their factors.
    pub fn select_and_shift(
        &mut self,
        cluster: &mut Cluster,
        pool: &[usize],
        n: usize,
        uniform: PowerCaps,
        threshold: f64,
        ledger: &BudgetLedger,
    ) -> (Vec<usize>, Vec<PowerCaps>, f64) {
        self.measure(cluster, pool);
        keep_thriftiest(&mut self.ranked, n);
        let factors = self.ranked.iter().map(|&(_, f)| f);
        let spread = VariabilityModel::spread(factors.clone());
        let caps = shift_caps(uniform, factors, spread, threshold);
        ledger.audit_uniform_shift(uniform, &caps);
        let ids = self
            .ranked
            .iter()
            .map(|&(position, _)| pool.get(position).copied().unwrap_or_default())
            .collect();
        (ids, caps, spread)
    }
}

/// Keep the `n` entries of `ranked`, `(pool position, factor)` pairs in
/// pool order, with the lowest factors, lowest first. Ties keep pool
/// order, so this is exactly the first `n` of a stable sort by factor. A
/// pool that drops nodes selects by (factor, position), an order without
/// ties, so the unstable selection and sort are exact and a 100-node pool
/// that keeps 8 sorts only those 8. A pool that keeps every node is
/// sorted stably by factor alone: one key is cheaper on a short pool.
fn keep_thriftiest(ranked: &mut Vec<(usize, f64)>, n: usize) {
    if n >= ranked.len() {
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        return;
    }
    let by_factor = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    ranked.select_nth_unstable_by(n, by_factor);
    ranked.truncate(n);
    ranked.sort_unstable_by(by_factor);
}

/// Redistribute per-node CPU caps proportionally to the measured power
/// factors when the spread exceeds `threshold`; otherwise return the
/// uniform caps unchanged. DRAM caps are not shifted (DRAM power does not
/// vary with core process variation). The sum of CPU caps is preserved.
pub fn coordinate_caps(uniform: PowerCaps, factors: &[f64], threshold: f64) -> Vec<PowerCaps> {
    let factors = factors.iter().copied();
    shift_caps(
        uniform,
        factors.clone(),
        VariabilityModel::spread(factors),
        threshold,
    )
}

/// [`coordinate_caps`] on factors whose `spread` is known, read from any
/// iterator with the same float operations.
fn shift_caps(
    uniform: PowerCaps,
    factors: impl ExactSizeIterator<Item = f64> + Clone,
    spread: f64,
    threshold: f64,
) -> Vec<PowerCaps> {
    assert!(threshold >= 0.0);
    if spread <= threshold {
        return vec![uniform; factors.len()];
    }
    let mean = factors.clone().sum::<f64>() / factors.len() as f64;
    factors
        .map(|f| {
            let cpu = uniform.cpu * (f / mean);
            PowerCaps::new(cpu.max(Power::watts(1.0)), uniform.dram)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Selecting the thriftiest keeps exactly what a stable sort by
        /// factor and a truncation keep, in the same order, for random,
        /// repeated and all-equal factors over a pool in arbitrary order.
        #[test]
        fn keeping_the_thriftiest_is_the_first_n_of_a_stable_sort(
            draws in proptest::collection::vec((any::<f64>(), 0usize..4, any::<u64>()), 0..=128),
            kind in 0u8..3,
            pick in any::<u64>(),
        ) {
            let factor = |&(random, level, _): &(f64, usize, u64)| match kind {
                0 => random,
                1 => [-0.0, 0.0, 0.97, 1.03][level],
                _ => 1.0,
            };
            // Node ids in an order unrelated to their values or positions.
            let mut order: Vec<usize> = (0..draws.len()).collect();
            order.sort_by_key(|&i| draws[i].2);
            let pool: Vec<usize> = order.iter().map(|&i| 3 * i + 7).collect();
            let n = (pick % (draws.len() as u64 + 2)) as usize;

            let mut want: Vec<(usize, f64)> =
                pool.iter().copied().zip(draws.iter().map(factor)).collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1));
            want.truncate(n);
            let mut ranked: Vec<(usize, f64)> = draws.iter().map(factor).enumerate().collect();
            keep_thriftiest(&mut ranked, n);
            let got: Vec<(usize, u64)> =
                ranked.iter().map(|&(position, f)| (pool[position], f.to_bits())).collect();
            let want: Vec<(usize, u64)> = want.iter().map(|&(id, f)| (id, f.to_bits())).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn homogeneous_fleet_measures_flat() {
        let mut cluster = Cluster::homogeneous(4);
        let f = measure_efficiencies(&mut cluster, &[0, 1, 2, 3]);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }

    #[test]
    fn measurement_recovers_true_ordering() {
        let mut cluster = Cluster::with_variability(6, &VariabilityModel::with_sigma(0.08), 17);
        let ids: Vec<usize> = (0..6).collect();
        let measured = measure_efficiencies(&mut cluster, &ids);
        let truth = cluster.efficiencies().to_vec();
        // Rank order of measured factors matches the ground-truth factors.
        let mut m_rank: Vec<usize> = (0..6).collect();
        m_rank.sort_by(|&a, &b| measured[a].partial_cmp(&measured[b]).unwrap());
        let mut t_rank: Vec<usize> = (0..6).collect();
        t_rank.sort_by(|&a, &b| truth[a].partial_cmp(&truth[b]).unwrap());
        assert_eq!(m_rank, t_rank);
    }

    #[test]
    fn below_threshold_stays_uniform() {
        let uniform = PowerCaps::new(Power::watts(150.0), Power::watts(40.0));
        let caps = coordinate_caps(uniform, &[1.0, 1.005, 0.995], 0.02);
        assert!(caps.iter().all(|&c| c == uniform));
    }

    #[test]
    fn above_threshold_shifts_toward_leaky_nodes() {
        let uniform = PowerCaps::new(Power::watts(150.0), Power::watts(40.0));
        let factors = [0.95, 1.05];
        let caps = coordinate_caps(uniform, &factors, 0.02);
        assert!(caps[1].cpu > caps[0].cpu, "leaky node gets more budget");
        assert_eq!(caps[0].dram, uniform.dram);
        assert_eq!(caps[1].dram, uniform.dram);
    }

    #[test]
    fn total_cpu_budget_preserved() {
        let uniform = PowerCaps::new(Power::watts(160.0), Power::watts(30.0));
        let factors = [0.9, 1.0, 1.1, 1.0];
        let caps = coordinate_caps(uniform, &factors, 0.01);
        let total: f64 = caps.iter().map(|c| c.cpu.as_watts()).sum();
        assert!((total - 4.0 * 160.0).abs() < 1e-9);
    }

    #[test]
    fn coordination_equalizes_frequencies() {
        // The point of the exercise: after coordination, a leaky and a
        // thrifty node land on (nearly) the same P-state.
        let mut cluster = Cluster::with_variability(2, &VariabilityModel::with_sigma(0.10), 23);
        let uniform = PowerCaps::new(Power::watts(150.0), Power::watts(40.0));
        let probe = suite::ep_like();

        cluster.set_uniform_caps(uniform);
        let f_uniform: Vec<f64> = (0..2)
            .map(|i| {
                cluster
                    .node_mut(i)
                    .execute(&probe, 24, AffinityPolicy::Compact, 1)
                    .op
                    .frequency()
                    .as_ghz()
            })
            .collect();

        let factors = measure_efficiencies(&mut cluster, &[0, 1]);
        let coordinated = coordinate_caps(uniform, &factors, 0.01);
        cluster.set_caps(&coordinated);
        let f_coord: Vec<f64> = (0..2)
            .map(|i| {
                cluster
                    .node_mut(i)
                    .execute(&probe, 24, AffinityPolicy::Compact, 1)
                    .op
                    .frequency()
                    .as_ghz()
            })
            .collect();

        let gap_uniform = (f_uniform[0] - f_uniform[1]).abs();
        let gap_coord = (f_coord[0] - f_coord[1]).abs();
        assert!(
            gap_coord <= gap_uniform,
            "coordination must not widen the gap ({gap_uniform:.2} → {gap_coord:.2})"
        );
    }
}
