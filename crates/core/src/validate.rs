//! Model validation: k-fold cross-validation of the inflection-point MLR.
//!
//! §III-A2 argues for plain multivariate linear regression over fancier
//! learners because "the amount of data collected is insufficient" and more
//! sophisticated models "may generate overfit". This module quantifies that
//! argument for the reproduction: k-fold cross-validation of the per-class
//! regressions over the training corpus, reporting MAE/RMSE/R² per class,
//! plus a baseline comparison against the trivial "predict the class mean"
//! model (a regression that cannot beat the mean has learned nothing).

use crate::mlr::{actual_inflection, InflectionPredictor};
use crate::profile::SmartProfiler;
use serde::{Deserialize, Serialize};
use simnode::Node;
use workload::{AppModel, ScalabilityClass};

/// Cross-validation metrics for one scalability class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassValidation {
    /// The class these metrics belong to.
    pub class: ScalabilityClass,
    /// Number of samples of this class in the corpus.
    pub samples: usize,
    /// Mean absolute error of the held-out predictions, in cores.
    pub mae: f64,
    /// Root-mean-square error, in cores.
    pub rmse: f64,
    /// Out-of-fold R² against the per-fold training mean.
    pub r2: f64,
    /// MAE of the trivial predict-the-training-mean baseline.
    pub mean_baseline_mae: f64,
}

impl ClassValidation {
    /// True when the regression beats the trivial baseline.
    pub fn beats_mean_baseline(&self) -> bool {
        self.mae < self.mean_baseline_mae
    }
}

/// One labelled corpus sample: profile features + ground-truth NP.
struct Sample {
    class: ScalabilityClass,
    profile: crate::profile::ProfileData,
    np: f64,
}

fn collect_samples(
    corpus: &[(AppModel, ScalabilityClass)],
    profiler: &SmartProfiler,
) -> Vec<Sample> {
    corpus
        .iter()
        .filter_map(|(app, _)| {
            let mut node = Node::haswell();
            let profile = profiler.profile(&mut node, app);
            if profile.class == ScalabilityClass::Linear {
                return None;
            }
            let np = actual_inflection(&mut node, app, profile.policy, profile.class);
            Some(Sample {
                class: profile.class,
                profile,
                np: np as f64,
            })
        })
        .collect()
}

/// K-fold cross-validation of the MLR over a corpus. Folds are assigned
/// round-robin (the corpus order is already randomized by its generator).
/// Panics if a class has fewer samples than folds.
pub fn cross_validate(
    corpus: &[(AppModel, ScalabilityClass)],
    profiler: &SmartProfiler,
    folds: usize,
) -> Vec<ClassValidation> {
    assert!(folds >= 2, "need at least two folds");
    let samples = collect_samples(corpus, profiler);

    [ScalabilityClass::Logarithmic, ScalabilityClass::Parabolic]
        .into_iter()
        .map(|class| {
            let of_class: Vec<&Sample> = samples.iter().filter(|s| s.class == class).collect();
            assert!(
                of_class.len() >= folds,
                "{class}: {} samples for {folds} folds",
                of_class.len()
            );
            let mut abs_errs = Vec::new();
            let mut sq_errs = Vec::new();
            let mut mean_abs_errs = Vec::new();
            let mut ss_tot = 0.0;
            for fold in 0..folds {
                // Train on everything outside this class's fold members.
                // The predictor needs both classes, so the other class
                // always trains on all its data.
                let holdout: std::collections::BTreeSet<&str> = of_class
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| j % folds == fold)
                    .map(|(_, s)| s.profile.app_name.as_str())
                    .collect();
                let train: Vec<(AppModel, ScalabilityClass)> = corpus
                    .iter()
                    .filter(|(app, _)| !holdout.contains(app.name()))
                    .cloned()
                    .collect();
                let predictor = InflectionPredictor::train(&train, profiler);

                let train_mean = {
                    let vals: Vec<f64> = of_class
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| j % folds != fold)
                        .map(|(_, s)| s.np)
                        .collect();
                    simkit::stats::mean(&vals)
                };

                for (j, s) in of_class.iter().enumerate() {
                    if j % folds != fold {
                        continue;
                    }
                    let pred = predictor.predict_raw(&s.profile);
                    abs_errs.push((pred - s.np).abs());
                    sq_errs.push((pred - s.np) * (pred - s.np));
                    mean_abs_errs.push((train_mean - s.np).abs());
                    ss_tot += (s.np - train_mean) * (s.np - train_mean);
                }
            }
            let mae = simkit::stats::mean(&abs_errs);
            let rmse = simkit::stats::mean(&sq_errs).sqrt();
            let ss_res: f64 = sq_errs.iter().sum();
            let r2 = if ss_tot > 0.0 {
                1.0 - ss_res / ss_tot
            } else {
                0.0
            };
            ClassValidation {
                class,
                samples: of_class.len(),
                mae,
                rmse,
                r2,
                mean_baseline_mae: simkit::stats::mean(&mean_abs_errs),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::corpus::training_corpus;

    fn validation() -> Vec<ClassValidation> {
        let corpus = training_corpus(5, 12);
        cross_validate(&corpus, &SmartProfiler::default(), 4)
    }

    #[test]
    fn reports_both_nonlinear_classes() {
        let v = validation();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].class, ScalabilityClass::Logarithmic);
        assert_eq!(v[1].class, ScalabilityClass::Parabolic);
        for c in &v {
            assert!(c.samples >= 8, "{}: {}", c.class, c.samples);
        }
    }

    #[test]
    fn errors_are_finite_and_bounded() {
        for c in validation() {
            assert!(c.mae.is_finite() && c.mae >= 0.0);
            assert!(c.rmse >= c.mae - 1e-9, "RMSE ≥ MAE always");
            assert!(
                c.mae < 6.0,
                "{}: held-out MAE {:.2} too large",
                c.class,
                c.mae
            );
        }
    }

    #[test]
    fn parabolic_regression_beats_the_mean() {
        // Parabolic inflection points are identifiable from the event rates
        // (the contention shows up in the full/half ratio); the regression
        // must add value over predicting the class mean.
        let v = validation();
        let par = &v[1];
        assert!(
            par.beats_mean_baseline(),
            "parabolic MAE {:.2} vs mean-baseline {:.2}",
            par.mae,
            par.mean_baseline_mae
        );
        assert!(par.r2 > 0.2, "parabolic out-of-fold R² {:.2}", par.r2);
    }

    #[test]
    fn validation_is_deterministic() {
        let a = validation();
        let b = validation();
        assert_eq!(a, b);
    }
}
