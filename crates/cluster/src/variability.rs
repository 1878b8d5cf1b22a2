//! Manufacturing variability across nodes.
//!
//! Inadomi et al. (SC'15) showed that process variation makes nominally
//! identical processors draw measurably different power at the same
//! frequency, so a uniform per-node power cap translates into heterogeneous
//! frequencies and barrier-wait waste. The paper adopts their mitigation and
//! only activates it when the variability spread exceeds a threshold
//! (§III-B2).
//!
//! We model a node's efficiency as a lognormal factor around 1.0 multiplying
//! its drawn power ([`simnode::PowerModel::efficiency`]). The paper's
//! testbed is "quite homogeneous"; the default σ of 3% matches that regime,
//! and the Figure-harness ablations crank it up to show the coordinator
//! working.

use serde::{Deserialize, Serialize};
use simkit::SimRng;

/// Sampler for per-node efficiency factors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariabilityModel {
    /// Lognormal sigma of the efficiency factor (0 = perfectly homogeneous).
    pub sigma: f64,
}

impl Default for VariabilityModel {
    fn default() -> Self {
        Self { sigma: 0.03 }
    }
}

impl VariabilityModel {
    /// A perfectly homogeneous fleet.
    pub fn homogeneous() -> Self {
        Self { sigma: 0.0 }
    }

    /// Construct with an explicit sigma.
    pub fn with_sigma(sigma: f64) -> Self {
        assert!((0.0..1.0).contains(&sigma), "sigma must be in [0, 1)");
        Self { sigma }
    }

    /// Sample `n` efficiency factors, mean-normalized so the fleet average
    /// is exactly 1.0 (variability redistributes power cost, it does not
    /// change the fleet total).
    pub fn sample(&self, n: usize, seed: u64) -> Vec<f64> {
        assert!(n > 0, "need at least one node");
        if self.sigma == 0.0 {
            return vec![1.0; n];
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let mut factors: Vec<f64> = (0..n).map(|_| rng.lognormal(0.0, self.sigma)).collect();
        let mean = factors.iter().sum::<f64>() / n as f64;
        for f in &mut factors {
            *f /= mean;
        }
        factors
    }

    /// The relative spread `(max − min) / min` of a factor set — the
    /// quantity CLIP compares against its coordination threshold. Takes
    /// the factors by value, so a caller can read them off the pairs it
    /// holds without collecting them. Panics on an empty set.
    pub fn spread(factors: impl IntoIterator<Item = f64>) -> f64 {
        let (min, max, count) = factors.into_iter().fold(
            (f64::INFINITY, f64::NEG_INFINITY, 0usize),
            |(min, max, count), f| (min.min(f), max.max(f), count + 1),
        );
        assert!(count > 0, "spread of no factors");
        (max - min) / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_is_all_ones() {
        let f = VariabilityModel::homogeneous().sample(8, 42);
        assert!(f.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn sample_is_mean_normalized() {
        let f = VariabilityModel::with_sigma(0.05).sample(16, 7);
        let mean = f.iter().sum::<f64>() / f.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_is_deterministic() {
        let a = VariabilityModel::default().sample(8, 3);
        let b = VariabilityModel::default().sample(8, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn higher_sigma_more_spread() {
        let tight = VariabilityModel::with_sigma(0.01).sample(32, 5);
        let loose = VariabilityModel::with_sigma(0.10).sample(32, 5);
        assert!(VariabilityModel::spread(loose) > VariabilityModel::spread(tight));
    }

    #[test]
    fn spread_of_uniform_is_zero() {
        assert_eq!(VariabilityModel::spread([1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn factors_positive() {
        let f = VariabilityModel::with_sigma(0.2).sample(64, 9);
        assert!(f.iter().all(|&x| x > 0.0));
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn invalid_sigma_rejected() {
        VariabilityModel::with_sigma(1.5);
    }
}
