//! CATD — confidence-aware truth discovery for long-tail data (Li et al., PVLDB 2014).
//!
//! CATD weights each source by the upper confidence limit of its error rate: sources with
//! few observations get wide chi-squared confidence intervals and therefore conservative
//! weights, which is exactly what long-tail fusion instances need. Truth estimation is a
//! weighted vote; source weights and truths are refined alternately. CATD does not follow
//! probabilistic semantics, so (matching the paper's "Omitted Comparison" note) it reports
//! no source accuracies.
//!
//! Under the fit→predict split, fitting runs the alternating refinement and keeps the
//! final source weights; prediction is one weighted vote with those weights (labelled
//! objects stay clamped). Sources that appear after fitting carry weight zero — the
//! most conservative choice CATD's confidence-interval rationale admits.

use slimfast_data::{
    Dataset, FeatureMatrix, FittedFusion, FusionEstimator, FusionInput, GroundTruth, ObjectId,
    SourceAccuracies, SourceId, TruthAssignment,
};

use crate::stat::chi_squared_quantile;

/// The CATD baseline.
#[derive(Debug, Clone, Copy)]
pub struct Catd {
    /// Significance level of the confidence interval (`α = 0.05` in the original paper).
    pub alpha: f64,
    /// Maximum number of weight/truth refinement iterations.
    pub max_iterations: usize,
}

impl Default for Catd {
    fn default() -> Self {
        Self {
            alpha: 0.05,
            max_iterations: 20,
        }
    }
}

/// A fitted CATD model: normalized per-source vote weights plus the training labels.
#[derive(Debug, Clone)]
pub struct FittedCatd {
    weights: Vec<f64>,
    clamps: GroundTruth,
}

impl FittedCatd {
    fn weight_of(&self, s: SourceId) -> f64 {
        self.weights.get(s.index()).copied().unwrap_or(0.0)
    }

    /// Weighted vote scores over the domain of `o`.
    fn scores(&self, dataset: &Dataset, o: ObjectId) -> Vec<f64> {
        let domain = dataset.domain(o);
        let mut scores = vec![0.0f64; domain.len()];
        for &(s, v) in dataset.observations_for_object(o) {
            if let Some(idx) = domain.iter().position(|&d| d == v) {
                scores[idx] += self.weight_of(s);
            }
        }
        scores
    }

    /// Index of the winning domain value for `o` given its precomputed vote scores:
    /// the clamped label when present, otherwise the weighted-vote argmax. `None` for
    /// unobserved objects.
    fn decide_from(&self, dataset: &Dataset, o: ObjectId, scores: &[f64]) -> Option<usize> {
        let domain = dataset.domain(o);
        if domain.is_empty() {
            return None;
        }
        if let Some(label) = self.clamps.get(o) {
            if let Some(idx) = domain.iter().position(|&d| d == label) {
                return Some(idx);
            }
        }
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// [`FittedCatd::decide_from`] with the scores computed on the spot.
    fn decide(&self, dataset: &Dataset, o: ObjectId) -> Option<usize> {
        self.decide_from(dataset, o, &self.scores(dataset, o))
    }
}

impl FittedFusion for FittedCatd {
    fn name(&self) -> &str {
        "CATD"
    }

    fn predict(&self, dataset: &Dataset, _features: &FeatureMatrix) -> TruthAssignment {
        let mut assignment = TruthAssignment::empty(dataset.num_objects());
        for o in dataset.object_ids() {
            let domain = dataset.domain(o);
            let scores = self.scores(dataset, o);
            let Some(best) = self.decide_from(dataset, o, &scores) else {
                continue;
            };
            let total: f64 = scores.iter().sum();
            let confidence = if total > 0.0 {
                scores[best] / total
            } else {
                0.0
            };
            assignment.assign(o, domain[best], confidence);
        }
        assignment
    }

    fn source_accuracies(&self) -> Option<&SourceAccuracies> {
        // CATD's weights are not probabilistic accuracies (the paper's "Omitted
        // Comparison" note), so the fitted model reports none.
        None
    }

    fn posterior(&self, dataset: &Dataset, _features: &FeatureMatrix, o: ObjectId) -> Vec<f64> {
        // Normalized vote scores: a score profile, not a calibrated posterior.
        let scores = self.scores(dataset, o);
        let total: f64 = scores.iter().sum();
        if total <= 0.0 {
            return scores;
        }
        scores.iter().map(|s| s / total).collect()
    }
}

impl FusionEstimator for Catd {
    fn name(&self) -> &str {
        "CATD"
    }

    fn fit(&self, input: &FusionInput<'_>) -> Box<dyn FittedFusion> {
        let dataset = input.dataset;
        let truth = input.train_truth;

        // Current truth estimate: ground truth where available, majority vote elsewhere.
        let mut estimates: Vec<Option<usize>> = dataset
            .object_ids()
            .map(|o| {
                let domain = dataset.domain(o);
                if domain.is_empty() {
                    return None;
                }
                if let Some(label) = truth.get(o) {
                    if let Some(idx) = domain.iter().position(|&d| d == label) {
                        return Some(idx);
                    }
                }
                let mut counts = vec![0usize; domain.len()];
                for &(_, v) in dataset.observations_for_object(o) {
                    if let Some(idx) = domain.iter().position(|&d| d == v) {
                        counts[idx] += 1;
                    }
                }
                counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(i, _)| i)
            })
            .collect();

        // The artifact under construction doubles as the per-iteration voter, so the
        // label clamps are cloned exactly once and weights are refined in place.
        let mut voter = FittedCatd {
            weights: vec![1.0f64; dataset.num_sources()],
            clamps: truth.clone(),
        };
        for _ in 0..self.max_iterations {
            // --- Source weights from the chi-squared upper confidence limit. ----------
            for s in dataset.source_ids() {
                let observations = dataset.observations_by_source(s);
                if observations.is_empty() {
                    voter.weights[s.index()] = 0.0;
                    continue;
                }
                let mut errors = 0.0f64;
                for &(o, v) in observations.iter() {
                    let domain = dataset.domain(o);
                    if let (Some(estimate), Some(idx)) =
                        (estimates[o.index()], domain.iter().position(|&d| d == v))
                    {
                        if idx != estimate {
                            errors += 1.0;
                        }
                    }
                }
                let df = 2.0 * observations.len() as f64;
                let quantile = chi_squared_quantile(self.alpha / 2.0, df);
                voter.weights[s.index()] = quantile / (errors + 1e-6);
            }
            // Normalize weights to keep the vote scores in a stable range.
            let max_weight = voter
                .weights
                .iter()
                .copied()
                .fold(0.0f64, f64::max)
                .max(1e-12);
            for w in voter.weights.iter_mut() {
                *w /= max_weight;
            }

            // --- Truth re-estimation by weighted vote (labelled objects stay clamped). --
            let mut changed = false;
            for o in dataset.object_ids() {
                let domain = dataset.domain(o);
                if domain.is_empty() || truth.get(o).is_some() {
                    continue;
                }
                let best = voter.decide(dataset, o);
                if best != estimates[o.index()] {
                    estimates[o.index()] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        Box::new(voter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::FusionMethod;
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};

    #[test]
    fn catd_handles_long_tail_instances() {
        // Long-tail: most sources observe very few objects.
        let inst = SyntheticConfig {
            name: "catd".into(),
            num_sources: 400,
            num_objects: 300,
            domain_size: 2,
            pattern: ObservationPattern::PerObjectRange { min: 3, max: 8 },
            accuracy: AccuracyModel {
                mean: 0.72,
                spread: 0.15,
            },
            features: FeatureModel::default(),
            copying: None,
            seed: 1,
        }
        .generate();
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let out = Catd::default().fuse(&FusionInput::new(&inst.dataset, &f, &empty));
        let all: Vec<_> = inst.dataset.object_ids().collect();
        let accuracy = out.assignment.accuracy_against(&inst.truth, &all);
        assert!(accuracy > 0.75, "CATD accuracy {accuracy:.3}");
        // CATD does not report probabilistic source accuracies.
        assert!(out.source_accuracies.is_none());
    }

    #[test]
    fn labelled_objects_keep_their_labels() {
        let inst = SyntheticConfig {
            name: "catd-clamp".into(),
            num_sources: 60,
            num_objects: 100,
            domain_size: 2,
            pattern: ObservationPattern::PerObjectExact(6),
            accuracy: AccuracyModel {
                mean: 0.6,
                spread: 0.1,
            },
            features: FeatureModel::default(),
            copying: None,
            seed: 2,
        }
        .generate();
        let split = slimfast_data::SplitPlan::new(0.3, 1)
            .draw(&inst.truth, 0)
            .unwrap();
        let train = split.train_truth(&inst.truth);
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let out = Catd::default().fuse(&FusionInput::new(&inst.dataset, &f, &train));
        for &o in &split.train {
            assert_eq!(out.assignment.get(o), inst.truth.get(o));
        }
    }

    #[test]
    fn unseen_sources_carry_zero_weight() {
        let inst = SyntheticConfig {
            name: "catd-delta".into(),
            num_sources: 50,
            num_objects: 80,
            domain_size: 2,
            pattern: ObservationPattern::PerObjectExact(5),
            accuracy: AccuracyModel {
                mean: 0.7,
                spread: 0.1,
            },
            features: FeatureModel::default(),
            copying: None,
            seed: 3,
        }
        .generate();
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let fitted = Catd::default().fit(&FusionInput::new(&inst.dataset, &f, &empty));
        let before = fitted.predict(&inst.dataset, &f);

        // A lone unseen source cannot overturn any established decision.
        let mut delta = inst.dataset.to_builder();
        let flipped = inst
            .dataset
            .object_name(ObjectId::new(0))
            .unwrap()
            .to_string();
        delta.observe("intruder", &flipped, "v0").unwrap();
        delta.observe("intruder", "intruder-only", "v0").unwrap();
        let grown = delta.build();
        let after = fitted.predict(&grown, &f);
        for o in inst.dataset.object_ids() {
            assert_eq!(before.get(o), after.get(o));
        }
        // An object seen only by zero-weight sources gets a zero-confidence guess.
        let lonely = grown.object_id("intruder-only").unwrap();
        assert!(after.get(lonely).is_some());
        assert_eq!(after.confidence(lonely), 0.0);
    }
}
