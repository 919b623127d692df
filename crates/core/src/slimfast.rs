//! The top-level SLiMFast fusion method: compilation → optimizer → learning → inference
//! (Figure 3 of the paper), packaged behind the two-phase
//! [`slimfast_data::FusionEstimator`] contract (and therefore also behind the one-shot
//! [`slimfast_data::FusionMethod`] shim).

use slimfast_data::{
    Dataset, FeatureMatrix, FittedFusion, FusionEstimator, FusionInput, ObjectId, SourceAccuracies,
    TruthAssignment,
};

use crate::compile::CompiledProblem;
use crate::config::{LearnerChoice, SlimFastConfig};
use crate::em::train_em_from_estimate;
use crate::erm::train_erm_compiled;
use crate::model::SlimFastModel;
use crate::optimizer::{decide, estimate_average_accuracy, OptimizerDecision, OptimizerReport};

/// The SLiMFast data-fusion method.
///
/// Three presets cover the variants evaluated in the paper:
///
/// * [`SlimFast::new`] — domain features plus the optimizer choosing ERM or EM
///   (the "SLiMFast" rows of Tables 2–4);
/// * [`SlimFast::erm`] / [`SlimFast::em`] — force one learning algorithm
///   ("SLiMFast-ERM" / "SLiMFast-EM");
/// * feeding an empty [`slimfast_data::FeatureMatrix`] reproduces "Sources-ERM" /
///   "Sources-EM", the feature-free discriminative baselines.
#[derive(Debug, Clone, Default)]
pub struct SlimFast {
    config: SlimFastConfig,
    name: String,
}

impl SlimFast {
    /// SLiMFast with the optimizer enabled (automatic ERM/EM selection).
    pub fn new(config: SlimFastConfig) -> Self {
        let name = match config.learner {
            LearnerChoice::Auto => "SLiMFast",
            LearnerChoice::Erm => "SLiMFast-ERM",
            LearnerChoice::Em => "SLiMFast-EM",
        };
        Self {
            config,
            name: name.to_string(),
        }
    }

    /// SLiMFast that always learns with ERM.
    pub fn erm(config: SlimFastConfig) -> Self {
        Self::new(config.with_erm())
    }

    /// SLiMFast that always learns with EM.
    pub fn em(config: SlimFastConfig) -> Self {
        Self::new(config.with_em())
    }

    /// Overrides the display name (used by the harness for the "Sources-ERM"/"Sources-EM"
    /// rows, which are the same model run without features).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &SlimFastConfig {
        &self.config
    }

    /// Runs the optimizer only (no learning), returning its report.
    pub fn plan(&self, input: &FusionInput<'_>) -> OptimizerReport {
        decide(
            input.dataset,
            input.features,
            input.train_truth,
            &self.config,
        )
    }

    /// Trains a model on the given input, resolving `Auto` through the optimizer, and
    /// returns the fitted model together with the algorithm that was used.
    ///
    /// The instance is compiled into a [`CompiledProblem`] exactly once per call; both
    /// learners (and EM's ERM warm start) run over the same compiled arrays. Likewise the
    /// pairwise agreement matrix is built at most once: when the optimizer picks EM, its
    /// average-accuracy estimate becomes EM's symmetry-breaking prior.
    pub fn train(&self, input: &FusionInput<'_>) -> (SlimFastModel, OptimizerDecision) {
        let (decision, estimate) = match self.config.learner {
            LearnerChoice::Erm => (OptimizerDecision::Erm, None),
            LearnerChoice::Em => (OptimizerDecision::Em, None),
            LearnerChoice::Auto => {
                let report = self.plan(input);
                (report.decision, Some(report.estimated_avg_accuracy))
            }
        };
        let problem = CompiledProblem::compile(input.dataset, input.features, input.train_truth);
        let model = match decision {
            OptimizerDecision::Erm => train_erm_compiled(&problem, &self.config),
            OptimizerDecision::Em => {
                let estimate = estimate.unwrap_or_else(|| estimate_average_accuracy(input.dataset));
                train_em_from_estimate(&problem, estimate, &self.config).0
            }
        };
        (model, decision)
    }
}

/// A fitted SLiMFast model: the learned weights plus fit-time metadata, ready to serve
/// predictions and posterior queries on the training dataset *or* on any dataset that
/// grew from it by a delta of new observations, objects, or sources.
#[derive(Debug, Clone)]
pub struct FittedSlimFast {
    name: String,
    model: SlimFastModel,
    decision: OptimizerDecision,
    accuracies: SourceAccuracies,
}

impl FittedSlimFast {
    /// Wraps an already-trained model, computing its fit-time source accuracies against
    /// the given training view. Used both by [`FusionEstimator::fit`] and to revive a
    /// model deserialized with [`SlimFastModel::from_bytes`].
    pub fn from_model(
        name: impl Into<String>,
        model: SlimFastModel,
        decision: OptimizerDecision,
        dataset: &Dataset,
        features: &FeatureMatrix,
    ) -> Self {
        let accuracies = model.source_accuracies(dataset, features);
        Self {
            name: name.into(),
            model,
            decision,
            accuracies,
        }
    }

    /// The learned model (weights plus parameter space).
    pub fn model(&self) -> &SlimFastModel {
        &self.model
    }

    /// Consumes the artifact, returning the learned model (e.g. for serialization).
    pub fn into_model(self) -> SlimFastModel {
        self.model
    }

    /// Which learning algorithm the optimizer selected (or was forced to use).
    pub fn decision(&self) -> OptimizerDecision {
        self.decision
    }
}

impl FittedFusion for FittedSlimFast {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, dataset: &Dataset, features: &FeatureMatrix) -> TruthAssignment {
        self.model.predict(dataset, features)
    }

    fn source_accuracies(&self) -> Option<&SourceAccuracies> {
        Some(&self.accuracies)
    }

    fn posterior(&self, dataset: &Dataset, features: &FeatureMatrix, o: ObjectId) -> Vec<f64> {
        self.model.posterior(dataset, features, o)
    }
}

impl FusionEstimator for SlimFast {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&self, input: &FusionInput<'_>) -> Box<dyn FittedFusion> {
        let (model, decision) = self.train(input);
        Box::new(FittedSlimFast::from_model(
            self.name.clone(),
            model,
            decision,
            input.dataset,
            input.features,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::{FusionMethod, GroundTruth, SplitPlan};
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};

    /// Disambiguates between `FusionEstimator::name` and the blanket
    /// `FusionMethod::name` (both apply to every estimator and always agree).
    fn name_of(estimator: &impl FusionEstimator) -> &str {
        FusionEstimator::name(estimator)
    }

    fn instance(seed: u64) -> slimfast_datagen::SyntheticInstance {
        SyntheticConfig {
            name: "slimfast-test".into(),
            num_sources: 80,
            num_objects: 300,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.1),
            accuracy: AccuracyModel {
                mean: 0.7,
                spread: 0.15,
            },
            features: FeatureModel {
                num_predictive: 3,
                num_noise: 3,
                predictive_strength: 0.25,
            },
            copying: None,
            seed,
        }
        .generate()
    }

    #[test]
    fn names_reflect_the_learner_choice() {
        assert_eq!(
            name_of(&SlimFast::new(SlimFastConfig::default())),
            "SLiMFast"
        );
        assert_eq!(
            name_of(&SlimFast::erm(SlimFastConfig::default())),
            "SLiMFast-ERM"
        );
        assert_eq!(
            name_of(&SlimFast::em(SlimFastConfig::default())),
            "SLiMFast-EM"
        );
        assert_eq!(
            name_of(&SlimFast::erm(SlimFastConfig::default()).with_name("Sources-ERM")),
            "Sources-ERM"
        );
    }

    #[test]
    fn fuse_produces_assignments_and_accuracies() {
        let inst = instance(1);
        let split = SplitPlan::new(0.2, 3).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let input = FusionInput::new(&inst.dataset, &inst.features, &train);
        let output = SlimFast::new(SlimFastConfig::default()).fuse(&input);
        assert_eq!(output.assignment.num_assigned(), inst.dataset.num_objects());
        let accuracies = output
            .source_accuracies
            .expect("SLiMFast reports source accuracies");
        assert_eq!(accuracies.len(), inst.dataset.num_sources());
        let accuracy = output.assignment.accuracy_against(&inst.truth, &split.test);
        assert!(accuracy > 0.75, "held-out accuracy {accuracy:.3}");
    }

    #[test]
    fn features_help_on_feature_driven_instances() {
        // Make features the dominant accuracy signal and observations sparse, the regime
        // the paper attributes the Genomics gains to.
        let inst = SyntheticConfig {
            name: "feature-driven".into(),
            num_sources: 300,
            num_objects: 250,
            domain_size: 2,
            pattern: ObservationPattern::PerObjectRange { min: 2, max: 5 },
            accuracy: AccuracyModel {
                mean: 0.65,
                spread: 0.02,
            },
            features: FeatureModel {
                num_predictive: 4,
                num_noise: 2,
                predictive_strength: 0.5,
            },
            copying: None,
            seed: 5,
        }
        .generate();
        let split = SplitPlan::new(0.2, 7).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let no_features = FeatureMatrix::empty(inst.dataset.num_sources());

        let config = SlimFastConfig::default();
        let with = SlimFast::erm(config.clone())
            .fuse(&FusionInput::new(&inst.dataset, &inst.features, &train))
            .assignment
            .accuracy_against(&inst.truth, &split.test);
        let without = SlimFast::erm(config)
            .fuse(&FusionInput::new(&inst.dataset, &no_features, &train))
            .assignment
            .accuracy_against(&inst.truth, &split.test);
        assert!(
            with >= without,
            "features should not hurt: with {with:.3}, without {without:.3}"
        );
    }

    #[test]
    fn auto_matches_the_forced_variant_it_selects() {
        let inst = instance(9);
        let split = SplitPlan::new(0.05, 11).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let input = FusionInput::new(&inst.dataset, &inst.features, &train);
        let auto = SlimFast::new(SlimFastConfig::default());
        let (model, decision) = auto.train(&input);
        let forced = match decision {
            OptimizerDecision::Erm => SlimFast::erm(SlimFastConfig::default()),
            OptimizerDecision::Em => SlimFast::em(SlimFastConfig::default()),
        };
        let (forced_model, _) = forced.train(&input);
        assert_eq!(model.weights(), forced_model.weights());
    }

    #[test]
    fn fitted_model_serves_a_delta_of_new_observations_without_retraining() {
        let inst = instance(21);
        let split = SplitPlan::new(0.1, 5).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let input = FusionInput::new(&inst.dataset, &inst.features, &train);
        let estimator = SlimFast::erm(SlimFastConfig::default());
        let fitted = estimator.fit(&input);

        // Fuse and fit+predict are the same computation through the blanket shim.
        let fused = estimator.fuse(&input);
        let predicted = fitted.predict(&inst.dataset, &inst.features);
        for o in inst.dataset.object_ids() {
            assert_eq!(fused.assignment.get(o), predicted.get(o));
        }

        // Grow the dataset: a brand-new source claims values for a brand-new object.
        let mut delta = inst.dataset.to_builder();
        delta
            .observe("late-source", "late-object", "fresh")
            .unwrap();
        let grown = delta.build();
        let assignment = fitted.predict(&grown, &inst.features);
        let late = grown.object_id("late-object").unwrap();
        assert_eq!(assignment.get(late), grown.value_id("fresh"));
        // Every original object keeps its prediction.
        for o in inst.dataset.object_ids() {
            assert_eq!(assignment.get(o), predicted.get(o));
        }
        // The posterior over the new object is well-formed.
        let posterior = fitted.posterior(&grown, &inst.features, late);
        assert_eq!(posterior.len(), 1);
        assert!((posterior[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unsupervised_runs_fall_back_to_em() {
        let inst = instance(13);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let input = FusionInput::new(&inst.dataset, &inst.features, &empty);
        let auto = SlimFast::new(SlimFastConfig::default());
        let report = auto.plan(&input);
        assert_eq!(report.decision, OptimizerDecision::Em);
        let output = auto.fuse(&input);
        let all: Vec<_> = inst.dataset.object_ids().collect();
        let accuracy = output.assignment.accuracy_against(&inst.truth, &all);
        assert!(accuracy > 0.7, "unsupervised accuracy {accuracy:.3}");
    }
}
