//! Counts — Naive Bayes fusion with supervised accuracy estimates (Section 5.1).
//!
//! "Source accuracies are estimated as the fraction of times a source provides the correct
//! value for an object in ground truth"; objects are then resolved by Naive Bayes, i.e.
//! assuming source observations are conditionally independent given the true value.

use slimfast_data::{
    Dataset, FeatureMatrix, FittedFusion, FusionEstimator, FusionInput, ObjectId, SourceAccuracies,
    SourceId, TruthAssignment,
};

/// Naive Bayes data fusion with accuracies estimated from the labelled objects.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Laplace smoothing added to the correct/total counts so sources with little or no
    /// ground-truth coverage fall back toward the prior.
    pub smoothing: f64,
    /// Prior accuracy used by the smoothing (and for sources never seen in ground truth).
    pub prior_accuracy: f64,
}

impl Default for Counts {
    fn default() -> Self {
        Self {
            smoothing: 1.0,
            prior_accuracy: 0.7,
        }
    }
}

/// A fitted Counts model: the supervised per-source accuracy estimates. Inference is a
/// Naive Bayes pass over whatever dataset is queried; sources that appeared after
/// fitting fall back to the prior accuracy.
#[derive(Debug, Clone)]
pub struct FittedCounts {
    accuracies: SourceAccuracies,
    prior_accuracy: f64,
}

impl FittedCounts {
    fn accuracy_of(&self, s: SourceId) -> f64 {
        if s.index() < self.accuracies.len() {
            self.accuracies.get(s)
        } else {
            self.prior_accuracy.clamp(0.01, 0.99)
        }
    }

    /// Naive Bayes posterior over the domain of `o`.
    fn naive_bayes(&self, dataset: &Dataset, o: ObjectId) -> Vec<f64> {
        let domain = dataset.domain(o);
        if domain.is_empty() {
            return Vec::new();
        }
        let wrong_values = (domain.len() as f64 - 1.0).max(1.0);
        let mut log_scores = vec![0.0f64; domain.len()];
        for &(s, v) in dataset.observations_for_object(o) {
            let a = self.accuracy_of(s);
            for (idx, &d) in domain.iter().enumerate() {
                let p = if v == d { a } else { (1.0 - a) / wrong_values };
                log_scores[idx] += p.max(1e-12).ln();
            }
        }
        let max = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut probs: Vec<f64> = log_scores.iter().map(|l| (l - max).exp()).collect();
        let z: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= z;
        }
        probs
    }
}

impl FittedFusion for FittedCounts {
    fn name(&self) -> &str {
        "Counts"
    }

    fn predict(&self, dataset: &Dataset, _features: &FeatureMatrix) -> TruthAssignment {
        let mut assignment = TruthAssignment::empty(dataset.num_objects());
        for o in dataset.object_ids() {
            let domain = dataset.domain(o);
            if domain.is_empty() {
                continue;
            }
            let probs = self.naive_bayes(dataset, o);
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
        self.naive_bayes(dataset, o)
    }
}

impl FusionEstimator for Counts {
    fn name(&self) -> &str {
        "Counts"
    }

    fn fit(&self, input: &FusionInput<'_>) -> Box<dyn FittedFusion> {
        let dataset = input.dataset;
        let truth = input.train_truth;

        // Supervised accuracy estimates with Laplace smoothing toward the prior. The
        // counting pass walks each source's contiguous CSR row once instead of scattering
        // over the insertion-order log.
        let accuracies: Vec<f64> = dataset
            .source_ids()
            .map(|s| {
                let mut correct = 0.0f64;
                let mut total = 0.0f64;
                for &(o, v) in dataset.observations_by_source(s).iter() {
                    if let Some(label) = truth.get(o) {
                        total += 1.0;
                        if v == label {
                            correct += 1.0;
                        }
                    }
                }
                (correct + self.smoothing * self.prior_accuracy) / (total + self.smoothing)
            })
            .map(|a| a.clamp(0.01, 0.99))
            .collect();
        Box::new(FittedCounts {
            accuracies: SourceAccuracies::new(accuracies),
            prior_accuracy: self.prior_accuracy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::{DatasetBuilder, FusionMethod, GroundTruth};

    fn fixture() -> (slimfast_data::Dataset, FeatureMatrix, GroundTruth) {
        let mut b = DatasetBuilder::new();
        // "reliable" is right on o0 and o1; "sloppy" is wrong on both.
        b.observe("reliable", "o0", "x").unwrap();
        b.observe("sloppy", "o0", "y").unwrap();
        b.observe("reliable", "o1", "x").unwrap();
        b.observe("sloppy", "o1", "y").unwrap();
        // The contested object.
        b.observe("reliable", "o2", "x").unwrap();
        b.observe("sloppy", "o2", "y").unwrap();
        let d = b.build();
        let f = FeatureMatrix::empty(d.num_sources());
        let mut truth = GroundTruth::empty(d.num_objects());
        truth.set(d.object_id("o0").unwrap(), d.value_id("x").unwrap());
        truth.set(d.object_id("o1").unwrap(), d.value_id("x").unwrap());
        (d, f, truth)
    }

    #[test]
    fn supervised_accuracies_drive_the_decision() {
        let (d, f, truth) = fixture();
        let out = Counts::default().fuse(&FusionInput::new(&d, &f, &truth));
        // The contested object goes to the source that was right on the labelled ones.
        assert_eq!(
            out.assignment.get(d.object_id("o2").unwrap()),
            d.value_id("x")
        );
        let accs = out.source_accuracies.unwrap();
        assert!(
            accs.get(d.source_id("reliable").unwrap()) > accs.get(d.source_id("sloppy").unwrap())
        );
    }

    #[test]
    fn smoothing_keeps_unlabelled_sources_at_the_prior() {
        let (d, f, _) = fixture();
        let empty = GroundTruth::empty(d.num_objects());
        let counts = Counts::default();
        let out = counts.fuse(&FusionInput::new(&d, &f, &empty));
        let accs = out.source_accuracies.unwrap();
        for s in 0..d.num_sources() {
            assert!((accs.get(SourceId::new(s)) - counts.prior_accuracy).abs() < 1e-9);
        }
        // With uniform accuracies the method degenerates to majority voting; all objects
        // still receive a prediction.
        assert_eq!(out.assignment.num_assigned(), d.num_objects());
    }

    #[test]
    fn accuracies_stay_within_bounds() {
        let (d, f, truth) = fixture();
        let out = Counts {
            smoothing: 0.0,
            prior_accuracy: 0.5,
        }
        .fuse(&FusionInput::new(&d, &f, &truth));
        let accs = out.source_accuracies.unwrap();
        for s in 0..d.num_sources() {
            let a = accs.get(SourceId::new(s));
            assert!((0.01..=0.99).contains(&a));
        }
    }

    #[test]
    fn unseen_sources_vote_with_the_prior_accuracy() {
        let (d, f, truth) = fixture();
        let fitted = Counts::default().fit(&FusionInput::new(&d, &f, &truth));
        // A new source outvotes "sloppy" on a fresh object because both carry the same
        // (prior vs learned-low) accuracy asymmetry.
        let mut delta = d.to_builder();
        delta.observe("newcomer", "o3", "x").unwrap();
        delta.observe("sloppy", "o3", "y").unwrap();
        let grown = delta.build();
        let o3 = grown.object_id("o3").unwrap();
        assert_eq!(fitted.predict(&grown, &f).get(o3), grown.value_id("x"));
        let posterior = fitted.posterior(&grown, &f, o3);
        assert!(posterior[0] > 0.5);
    }
}
