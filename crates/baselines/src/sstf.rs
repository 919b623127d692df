//! SSTF — semi-supervised truth finding (Yin & Tan, WWW 2011).
//!
//! SSTF propagates trust over the bipartite source/claim graph while *clamping* the claims
//! whose truth is known from ground truth: labelled true claims keep confidence 1, labelled
//! false claims keep confidence 0, and the propagation (source trust ← average claim
//! confidence, claim confidence ← dampened aggregate of supporting sources' trust) pulls
//! the unlabelled claims toward values consistent with the labelled ones. This captures the
//! semi-supervised graph-learning character of the original method with the same
//! fixed-point structure used by our TruthFinder implementation; SSTF does not report
//! probabilistic source accuracies (matching the paper's "Omitted Comparison" note).
//!
//! Under the fit→predict split, fitting runs the propagation to its fixed point and
//! keeps the converged source trust; prediction replays one claim-confidence pass from
//! that trust (labels still clamped), which is exactly the final state of the old
//! one-shot computation and serves grown datasets unchanged.

use slimfast_data::{
    Dataset, FeatureMatrix, FittedFusion, FusionEstimator, FusionInput, GroundTruth, ObjectId,
    SourceAccuracies, SourceId, TruthAssignment,
};

/// The SSTF baseline.
#[derive(Debug, Clone, Copy)]
pub struct Sstf {
    /// Initial source trust.
    pub initial_trust: f64,
    /// Dampening factor of the claim-confidence aggregation.
    pub dampening: f64,
    /// Maximum number of propagation rounds.
    pub max_iterations: usize,
    /// Convergence tolerance on source trust.
    pub tolerance: f64,
}

impl Default for Sstf {
    fn default() -> Self {
        Self {
            initial_trust: 0.7,
            dampening: 0.3,
            max_iterations: 25,
            tolerance: 1e-4,
        }
    }
}

/// A fitted SSTF model: converged source trust, the clamped labels, and the propagation
/// constants needed to replay one confidence pass. Unseen sources carry the initial
/// trust.
#[derive(Debug, Clone)]
pub struct FittedSstf {
    trust: Vec<f64>,
    initial_trust: f64,
    dampening: f64,
    clamps: GroundTruth,
}

impl FittedSstf {
    fn trust_of(&self, s: SourceId) -> f64 {
        self.trust
            .get(s.index())
            .copied()
            .unwrap_or(self.initial_trust)
    }

    /// One claim-confidence pass over the domain of `o` from the fitted trust, with the
    /// labelled claims clamped to 1/0.
    fn confidences(&self, dataset: &Dataset, o: ObjectId) -> Vec<f64> {
        let domain = dataset.domain(o);
        if domain.is_empty() {
            return Vec::new();
        }
        if let Some(idx) = self
            .clamps
            .get(o)
            .and_then(|label| domain.iter().position(|&d| d == label))
        {
            return (0..domain.len())
                .map(|i| if i == idx { 1.0 } else { 0.0 })
                .collect();
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

impl FittedFusion for FittedSstf {
    fn name(&self) -> &str {
        "SSTF"
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
        // SSTF's trust scores are not probabilistic accuracies (the paper's "Omitted
        // Comparison" note), so the fitted model reports none.
        None
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

impl FusionEstimator for Sstf {
    fn name(&self) -> &str {
        "SSTF"
    }

    fn fit(&self, input: &FusionInput<'_>) -> Box<dyn FittedFusion> {
        let dataset = input.dataset;
        let truth = input.train_truth;

        // Claim lattice: confidence per (object, domain value); labelled claims are clamped.
        let mut fitted = FittedSstf {
            trust: vec![self.initial_trust; dataset.num_sources()],
            initial_trust: self.initial_trust,
            dampening: self.dampening,
            clamps: truth.clone(),
        };
        let mut confidence: Vec<Vec<f64>> = dataset
            .object_ids()
            .map(|o| {
                let domain = dataset.domain(o);
                match truth
                    .get(o)
                    .and_then(|label| domain.iter().position(|&d| d == label))
                {
                    Some(idx) => (0..domain.len())
                        .map(|i| if i == idx { 1.0 } else { 0.0 })
                        .collect(),
                    None => vec![0.5; domain.len()],
                }
            })
            .collect();

        for _ in 0..self.max_iterations {
            // Source trust from the confidence of supported claims.
            let mut max_delta = 0.0f64;
            let mut new_trust = vec![self.initial_trust; dataset.num_sources()];
            for s in dataset.source_ids() {
                let observations = dataset.observations_by_source(s);
                if observations.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &(o, v) in observations.iter() {
                    if let Some(idx) = dataset.domain(o).iter().position(|&d| d == v) {
                        sum += confidence[o.index()][idx];
                    }
                }
                new_trust[s.index()] = (sum / observations.len() as f64).clamp(0.01, 0.99);
                max_delta = max_delta.max((new_trust[s.index()] - fitted.trust[s.index()]).abs());
            }
            fitted.trust = new_trust;

            // Claim confidence from supporting sources' trust (labelled claims re-clamped).
            for o in dataset.object_ids() {
                confidence[o.index()] = fitted.confidences(dataset, o);
            }

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
    use slimfast_data::{FusionMethod, SplitPlan};
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};

    fn instance(seed: u64) -> slimfast_datagen::SyntheticInstance {
        SyntheticConfig {
            name: "sstf".into(),
            num_sources: 60,
            num_objects: 250,
            domain_size: 2,
            pattern: ObservationPattern::PerObjectExact(8),
            accuracy: AccuracyModel {
                mean: 0.65,
                spread: 0.15,
            },
            features: FeatureModel::default(),
            copying: None,
            seed,
        }
        .generate()
    }

    #[test]
    fn labels_are_clamped_and_propagation_helps_held_out_objects() {
        let inst = instance(1);
        let split = SplitPlan::new(0.2, 1).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let out = Sstf::default().fuse(&FusionInput::new(&inst.dataset, &f, &train));
        for &o in &split.train {
            assert_eq!(
                out.assignment.get(o),
                inst.truth.get(o),
                "labelled claim not clamped"
            );
        }
        let accuracy = out.assignment.accuracy_against(&inst.truth, &split.test);
        assert!(accuracy > 0.7, "SSTF held-out accuracy {accuracy:.3}");
        assert!(out.source_accuracies.is_none());
    }

    #[test]
    fn supervision_does_not_hurt_compared_to_no_labels() {
        let inst = instance(2);
        let split = SplitPlan::new(0.3, 2).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let supervised = Sstf::default()
            .fuse(&FusionInput::new(&inst.dataset, &f, &train))
            .assignment
            .accuracy_against(&inst.truth, &split.test);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let unsupervised = Sstf::default()
            .fuse(&FusionInput::new(&inst.dataset, &f, &empty))
            .assignment
            .accuracy_against(&inst.truth, &split.test);
        assert!(
            supervised + 0.03 >= unsupervised,
            "supervision should not hurt: {supervised:.3} vs {unsupervised:.3}"
        );
    }

    #[test]
    fn fitted_trust_serves_new_claims_from_unseen_sources() {
        let inst = instance(3);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let f = FeatureMatrix::empty(inst.dataset.num_sources());
        let sstf = Sstf::default();
        let fitted = sstf.fit(&FusionInput::new(&inst.dataset, &f, &empty));

        let mut delta = inst.dataset.to_builder();
        delta.observe("stranger", "stranger-object", "v0").unwrap();
        let grown = delta.build();
        let o = grown.object_id("stranger-object").unwrap();
        let assignment = fitted.predict(&grown, &f);
        assert_eq!(assignment.get(o), grown.value_id("v0"));
        // The unseen source votes with the initial trust.
        let score = -(1.0f64 - sstf.initial_trust).ln();
        let expected = 1.0 / (1.0 + (-sstf.dampening * score).exp());
        assert!((assignment.confidence(o) - expected).abs() < 1e-12);
    }
}
