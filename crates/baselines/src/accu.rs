//! ACCU — the Bayesian data-fusion model of Dong, Berti-Equille and Srivastava (VLDB 2009),
//! without the source-copying component, as used in the paper's evaluation.
//!
//! ACCU alternates between (i) computing the posterior of each object's value from weighted
//! votes `ln(n · A_s / (1 − A_s))` under a conditional-independence assumption and
//! (ii) re-estimating each source's accuracy as the average posterior probability of the
//! values it claimed. Ground truth, when available, initializes the accuracy estimates (as
//! prescribed in the paper's "Different Methods and Ground Truth" paragraph) and those
//! labelled objects stay clamped during the iterations.
//!
//! Under the fit→predict split, fitting runs the alternating refinement to convergence
//! and keeps the final accuracies; prediction is a single weighted-vote inference pass
//! with those accuracies (labelled objects stay clamped), so it can serve datasets that
//! grew by a delta of new claims.

use slimfast_data::{
    Dataset, FeatureMatrix, FittedFusion, FusionEstimator, FusionInput, GroundTruth, ObjectId,
    SourceAccuracies, SourceId, TruthAssignment,
};

/// The ACCU baseline.
#[derive(Debug, Clone, Copy)]
pub struct Accu {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the maximum accuracy change between iterations.
    pub tolerance: f64,
    /// Initial accuracy for sources not covered by ground truth (0.8 in the original paper).
    pub initial_accuracy: f64,
}

impl Default for Accu {
    fn default() -> Self {
        Self {
            max_iterations: 30,
            tolerance: 1e-4,
            initial_accuracy: 0.8,
        }
    }
}

/// A fitted ACCU model: converged source accuracies plus the training labels (which stay
/// clamped at prediction time). Sources that appeared after fitting vote with the
/// configured initial accuracy.
#[derive(Debug, Clone)]
pub struct FittedAccu {
    accuracies: SourceAccuracies,
    initial_accuracy: f64,
    clamps: GroundTruth,
}

impl FittedAccu {
    fn accuracy_of(&self, s: SourceId) -> f64 {
        let a = if s.index() < self.accuracies.len() {
            self.accuracies.get(s)
        } else {
            self.initial_accuracy
        };
        a.clamp(0.05, 0.95)
    }

    /// One weighted-vote inference pass over the domain of `o`; labelled objects are
    /// clamped to a one-hot distribution.
    fn vote_posterior(&self, dataset: &Dataset, o: ObjectId) -> Vec<f64> {
        let domain = dataset.domain(o);
        if domain.is_empty() {
            return Vec::new();
        }
        if let Some(label) = self.clamps.get(o) {
            if let Some(idx) = domain.iter().position(|&d| d == label) {
                let mut dist = vec![0.0; domain.len()];
                dist[idx] = 1.0;
                return dist;
            }
        }
        let n = (domain.len() as f64 - 1.0).max(1.0);
        let mut scores = vec![0.0f64; domain.len()];
        for &(s, v) in dataset.observations_for_object(o) {
            let a = self.accuracy_of(s);
            if let Some(idx) = domain.iter().position(|&d| d == v) {
                scores[idx] += (n * a / (1.0 - a)).ln();
            }
        }
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut probs: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
        let z: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= z;
        }
        probs
    }
}

impl FittedFusion for FittedAccu {
    fn name(&self) -> &str {
        "ACCU"
    }

    fn predict(&self, dataset: &Dataset, _features: &FeatureMatrix) -> TruthAssignment {
        let mut assignment = TruthAssignment::empty(dataset.num_objects());
        for o in dataset.object_ids() {
            let domain = dataset.domain(o);
            let probs = self.vote_posterior(dataset, o);
            if domain.is_empty() || probs.is_empty() {
                continue;
            }
            let best = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            assignment.assign(o, domain[best], probs[best]);
        }
        assignment
    }

    fn source_accuracies(&self) -> Option<&SourceAccuracies> {
        Some(&self.accuracies)
    }

    fn posterior(&self, dataset: &Dataset, _features: &FeatureMatrix, o: ObjectId) -> Vec<f64> {
        self.vote_posterior(dataset, o)
    }
}

impl FusionEstimator for Accu {
    fn name(&self) -> &str {
        "ACCU"
    }

    fn fit(&self, input: &FusionInput<'_>) -> Box<dyn FittedFusion> {
        let dataset = input.dataset;
        let truth = input.train_truth;

        // Initial accuracies: empirical fraction correct on labelled objects when a source
        // has any, otherwise the configured prior. One pass per contiguous CSR source row.
        let accuracies: Vec<f64> = dataset
            .source_ids()
            .map(|s| {
                let mut correct = 0.0f64;
                let mut labelled = 0.0f64;
                for &(o, v) in dataset.observations_by_source(s).iter() {
                    if let Some(label) = truth.get(o) {
                        labelled += 1.0;
                        if v == label {
                            correct += 1.0;
                        }
                    }
                }
                if labelled > 0.0 {
                    (correct / labelled).clamp(0.05, 0.95)
                } else {
                    self.initial_accuracy
                }
            })
            .collect();

        // The artifact under construction doubles as the per-iteration scorer, so the
        // label clamps are cloned exactly once.
        let mut fitted = FittedAccu {
            accuracies: SourceAccuracies::new(accuracies),
            initial_accuracy: self.initial_accuracy,
            clamps: truth.clone(),
        };
        for _ in 0..self.max_iterations {
            // --- Truth inference given accuracies. ---------------------------------
            let posteriors: Vec<Vec<f64>> = dataset
                .object_ids()
                .map(|o| fitted.vote_posterior(dataset, o))
                .collect();

            // --- Accuracy re-estimation given posteriors. --------------------------
            let mut new_accuracies = vec![self.initial_accuracy; dataset.num_sources()];
            for s in dataset.source_ids() {
                let observations = dataset.observations_by_source(s);
                if observations.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &(o, v) in observations.iter() {
                    let domain = dataset.domain(o);
                    if let Some(idx) = domain.iter().position(|&d| d == v) {
                        sum += posteriors[o.index()].get(idx).copied().unwrap_or(0.0);
                    }
                }
                new_accuracies[s.index()] = (sum / observations.len() as f64).clamp(0.05, 0.95);
            }

            let delta = fitted
                .accuracies
                .as_slice()
                .iter()
                .zip(&new_accuracies)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            fitted.accuracies = SourceAccuracies::new(new_accuracies);
            if delta < self.tolerance {
                break;
            }
        }

        Box::new(fitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::{FusionMethod, SplitPlan};
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};

    fn instance(seed: u64) -> slimfast_datagen::SyntheticInstance {
        SyntheticConfig {
            name: "accu".into(),
            num_sources: 50,
            num_objects: 300,
            domain_size: 3,
            pattern: ObservationPattern::PerObjectExact(10),
            accuracy: AccuracyModel {
                mean: 0.7,
                spread: 0.15,
            },
            features: FeatureModel::default(),
            copying: None,
            seed,
        }
        .generate()
    }

    #[test]
    fn accu_recovers_truth_on_independent_sources() {
        let inst = instance(1);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let out = Accu::default().fuse(&FusionInput::new(&inst.dataset, &f, &empty));
        let all: Vec<_> = inst.dataset.object_ids().collect();
        let accuracy = out.assignment.accuracy_against(&inst.truth, &all);
        assert!(accuracy > 0.85, "ACCU accuracy {accuracy:.3}");
    }

    #[test]
    fn accuracy_estimates_correlate_with_planted_accuracies() {
        let inst = instance(2);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let out = Accu::default().fuse(&FusionInput::new(&inst.dataset, &f, &empty));
        let accs = out.source_accuracies.unwrap();
        let mut err = 0.0;
        for s in 0..inst.dataset.num_sources() {
            err += (accs.get(SourceId::new(s)) - inst.true_accuracies[s]).abs();
        }
        let mean_err = err / inst.dataset.num_sources() as f64;
        assert!(mean_err < 0.15, "mean accuracy error {mean_err:.3}");
    }

    #[test]
    fn ground_truth_clamps_labelled_objects() {
        let inst = instance(3);
        let split = SplitPlan::new(0.2, 1).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let out = Accu::default().fuse(&FusionInput::new(&inst.dataset, &f, &train));
        for &o in &split.train {
            assert_eq!(
                out.assignment.get(o),
                inst.truth.get(o),
                "labelled object re-decided"
            );
        }
    }

    #[test]
    fn fitted_model_serves_deltas_with_converged_accuracies() {
        let inst = instance(4);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let fitted = Accu::default().fit(&FusionInput::new(&inst.dataset, &f, &empty));

        let mut delta = inst.dataset.to_builder();
        delta.observe("latecomer", "fresh-object", "a").unwrap();
        delta.observe("latecomer-2", "fresh-object", "b").unwrap();
        let grown = delta.build();
        let fresh = grown.object_id("fresh-object").unwrap();
        let posterior = fitted.posterior(&grown, &f, fresh);
        // Two unseen sources with equal prior accuracy split the posterior evenly.
        assert_eq!(posterior.len(), 2);
        assert!((posterior[0] - 0.5).abs() < 1e-9);
        assert!(fitted.predict(&grown, &f).get(fresh).is_some());
    }
}
