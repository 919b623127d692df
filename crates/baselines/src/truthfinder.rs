//! TruthFinder — iterative truth discovery (Yin, Han & Yu, KDD 2007; reference \[39\]).
//!
//! TruthFinder alternates between source trustworthiness and claim confidence: a source's
//! trustworthiness is the average confidence of its claims, and a claim's confidence
//! aggregates the trustworthiness of the sources asserting it through
//! `1 − Π (1 − t_s)`, computed in log space (`τ_s = −ln(1 − t_s)`) with a dampening factor
//! and a logistic adjustment to keep scores in `(0, 1)`.
//!
//! Under the fit→predict split, fitting runs the alternation until the trust vector
//! converges; prediction is one claim-confidence pass from that trust, so a fitted model
//! serves datasets that grew by a delta of new claims (unseen sources vote with the
//! initial trust).

use slimfast_data::{
    Dataset, FeatureMatrix, FittedFusion, FusionEstimator, FusionInput, ObjectId, SourceAccuracies,
    SourceId, TruthAssignment,
};

/// The TruthFinder baseline.
#[derive(Debug, Clone, Copy)]
pub struct TruthFinder {
    /// Initial source trustworthiness.
    pub initial_trust: f64,
    /// Dampening factor `γ` applied to claim score aggregation.
    pub dampening: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the change in source trustworthiness (cosine-style).
    pub tolerance: f64,
}

impl Default for TruthFinder {
    fn default() -> Self {
        Self {
            initial_trust: 0.8,
            dampening: 0.3,
            max_iterations: 20,
            tolerance: 1e-4,
        }
    }
}

/// A fitted TruthFinder model: the converged trust vector (also reported as the
/// method's source-accuracy estimates) plus the propagation constants.
#[derive(Debug, Clone)]
pub struct FittedTruthFinder {
    trust: SourceAccuracies,
    initial_trust: f64,
    dampening: f64,
}

impl FittedTruthFinder {
    fn trust_of(&self, s: SourceId) -> f64 {
        if s.index() < self.trust.len() {
            self.trust.get(s)
        } else {
            self.initial_trust
        }
    }

    /// One claim-confidence pass over the domain of `o` from the fitted trust.
    fn confidences(&self, dataset: &Dataset, o: ObjectId) -> Vec<f64> {
        let domain = dataset.domain(o);
        if domain.is_empty() {
            return Vec::new();
        }
        let mut scores = vec![0.0f64; domain.len()];
        for &(s, v) in dataset.observations_for_object(o) {
            if let Some(idx) = domain.iter().position(|&d| d == v) {
                let t = self.trust_of(s).clamp(1e-6, 1.0 - 1e-6);
                scores[idx] += -(1.0 - t).ln();
            }
        }
        scores
            .iter()
            .map(|score| 1.0 / (1.0 + (-self.dampening * score).exp()))
            .collect()
    }
}

impl FittedFusion for FittedTruthFinder {
    fn name(&self) -> &str {
        "TruthFinder"
    }

    fn predict(&self, dataset: &Dataset, _features: &FeatureMatrix) -> TruthAssignment {
        let mut assignment = TruthAssignment::empty(dataset.num_objects());
        for o in dataset.object_ids() {
            let domain = dataset.domain(o);
            let confidences = self.confidences(dataset, o);
            if domain.is_empty() || confidences.is_empty() {
                continue;
            }
            let best = confidences
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            assignment.assign(o, domain[best], confidences[best]);
        }
        assignment
    }

    fn source_accuracies(&self) -> Option<&SourceAccuracies> {
        Some(&self.trust)
    }

    fn posterior(&self, dataset: &Dataset, _features: &FeatureMatrix, o: ObjectId) -> Vec<f64> {
        // Normalized claim confidences: a score profile, not a calibrated posterior.
        let confidences = self.confidences(dataset, o);
        let total: f64 = confidences.iter().sum();
        if total <= 0.0 {
            return confidences;
        }
        confidences.iter().map(|c| c / total).collect()
    }
}

impl FusionEstimator for TruthFinder {
    fn name(&self) -> &str {
        "TruthFinder"
    }

    fn fit(&self, input: &FusionInput<'_>) -> Box<dyn FittedFusion> {
        let dataset = input.dataset;
        // The artifact under construction doubles as the per-iteration scorer, so the
        // trust vector is refined in place.
        let mut fitted = FittedTruthFinder {
            trust: SourceAccuracies::new(vec![self.initial_trust; dataset.num_sources()]),
            initial_trust: self.initial_trust,
            dampening: self.dampening,
        };
        let mut claim_confidence: Vec<Vec<f64>> = dataset
            .object_ids()
            .map(|o| vec![0.5; dataset.domain(o).len()])
            .collect();

        for _ in 0..self.max_iterations {
            // --- Claim confidence from source trustworthiness. --------------------------
            for o in dataset.object_ids() {
                claim_confidence[o.index()] = fitted.confidences(dataset, o);
            }

            // --- Source trustworthiness from claim confidence. --------------------------
            let mut new_trust = vec![self.initial_trust; dataset.num_sources()];
            let mut max_delta = 0.0f64;
            for s in dataset.source_ids() {
                let observations = dataset.observations_by_source(s);
                if observations.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &(o, v) in observations.iter() {
                    let domain = dataset.domain(o);
                    if let Some(idx) = domain.iter().position(|&d| d == v) {
                        sum += claim_confidence[o.index()][idx];
                    }
                }
                new_trust[s.index()] = (sum / observations.len() as f64).clamp(0.01, 0.99);
                max_delta = max_delta
                    .max((new_trust[s.index()] - fitted.trust.as_slice()[s.index()]).abs());
            }
            fitted.trust = SourceAccuracies::new(new_trust);
            if max_delta < self.tolerance {
                break;
            }
        }

        Box::new(fitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::{FusionMethod, GroundTruth};
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};

    #[test]
    fn truthfinder_resolves_conflicts_on_synthetic_data() {
        let inst = SyntheticConfig {
            name: "tf".into(),
            num_sources: 50,
            num_objects: 250,
            domain_size: 2,
            pattern: ObservationPattern::PerObjectExact(9),
            accuracy: AccuracyModel {
                mean: 0.7,
                spread: 0.15,
            },
            features: FeatureModel::default(),
            copying: None,
            seed: 4,
        }
        .generate();
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let out = TruthFinder::default().fuse(&FusionInput::new(&inst.dataset, &f, &empty));
        let all: Vec<_> = inst.dataset.object_ids().collect();
        let accuracy = out.assignment.accuracy_against(&inst.truth, &all);
        assert!(accuracy > 0.8, "TruthFinder accuracy {accuracy:.3}");
        // Trust scores separate good from bad sources: compare the top and bottom deciles.
        let accs = out.source_accuracies.unwrap();
        let mut indexed: Vec<(usize, f64)> =
            inst.true_accuracies.iter().copied().enumerate().collect();
        indexed.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let worst_trust: f64 = indexed[..5]
            .iter()
            .map(|&(s, _)| accs.get(SourceId::new(s)))
            .sum::<f64>()
            / 5.0;
        let best_trust: f64 = indexed[indexed.len() - 5..]
            .iter()
            .map(|&(s, _)| accs.get(SourceId::new(s)))
            .sum::<f64>()
            / 5.0;
        assert!(
            best_trust > worst_trust,
            "trust should rank accurate sources above inaccurate ones ({best_trust:.3} vs {worst_trust:.3})"
        );
    }

    #[test]
    fn fit_and_predict_split_reuses_the_converged_trust() {
        let inst = SyntheticConfig {
            name: "tf-split".into(),
            num_sources: 30,
            num_objects: 100,
            domain_size: 2,
            pattern: ObservationPattern::PerObjectExact(6),
            accuracy: AccuracyModel {
                mean: 0.7,
                spread: 0.1,
            },
            features: FeatureModel::default(),
            copying: None,
            seed: 9,
        }
        .generate();
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let tf = TruthFinder::default();
        let fitted = tf.fit(&FusionInput::new(&inst.dataset, &f, &empty));
        let fused = tf.fuse(&FusionInput::new(&inst.dataset, &f, &empty));
        let predicted = fitted.predict(&inst.dataset, &f);
        for o in inst.dataset.object_ids() {
            assert_eq!(fused.assignment.get(o), predicted.get(o));
        }
        // Unseen sources fall back to the initial trust.
        let mut delta = inst.dataset.to_builder();
        delta.observe("unseen", "brand-new", "x").unwrap();
        let grown = delta.build();
        let o = grown.object_id("brand-new").unwrap();
        assert_eq!(fitted.predict(&grown, &f).get(o), grown.value_id("x"));
    }
}
