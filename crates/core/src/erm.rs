//! Empirical risk minimization: the supervised learner of SLiMFast.
//!
//! When ground truth `G` is available, the likelihood of the labelled objects under the
//! model of Equation 4 is a *convex* function of the weights (no latent variables are
//! involved), so ERM simply runs SGD on that conditional log-loss. Theorem 1/2 bound the
//! excess risk of the resulting model by `O(√(|K|/|G|) · log|G|)`.
//!
//! The learner runs against a [`CompiledProblem`] — the flat, columnar form of the
//! instance built once per fit — so each SGD epoch is pure index arithmetic over
//! contiguous arrays (see [`CompiledProblem::erm_objective`]).

use slimfast_optim::minimize;

use slimfast_data::{Dataset, FeatureMatrix, GroundTruth};

use crate::compile::CompiledProblem;
use crate::config::SlimFastConfig;
use crate::model::SlimFastModel;

/// Trains a SLiMFast model with ERM on the labelled objects of an already-compiled
/// problem. This is the path the estimator takes: compile once, then learn.
///
/// With no usable labels this returns the zero model (uniform posteriors, accuracy 0.5
/// for every source), which is also what the paper's framework degrades to before any
/// evidence arrives.
pub fn train_erm_compiled(problem: &CompiledProblem, config: &SlimFastConfig) -> SlimFastModel {
    let space = problem.space();
    if problem.num_labeled() == 0 {
        return SlimFastModel::zeros(space);
    }
    let objective = problem.erm_objective();
    let fit = minimize(&objective, None, &config.erm_sgd());
    SlimFastModel::new(space, fit.weights)
}

/// Compiles the instance and trains with ERM. Convenience wrapper around
/// [`train_erm_compiled`] for callers that fit once.
pub fn train_erm(
    dataset: &Dataset,
    features: &FeatureMatrix,
    truth: &GroundTruth,
    config: &SlimFastConfig,
) -> SlimFastModel {
    let problem = CompiledProblem::compile(dataset, features, truth);
    train_erm_compiled(&problem, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::SourceId;
    use slimfast_datagen::{
        AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig, SyntheticInstance,
    };

    fn instance(seed: u64) -> SyntheticInstance {
        SyntheticConfig {
            name: "erm-test".into(),
            num_sources: 60,
            num_objects: 400,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.15),
            accuracy: AccuracyModel {
                mean: 0.7,
                spread: 0.2,
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
    fn erm_beats_the_zero_model_on_held_out_objects() {
        let inst = instance(1);
        // Train on 30% of the objects, evaluate on the rest.
        let plan = slimfast_data::SplitPlan::new(0.3, 7);
        let split = plan.draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let config = SlimFastConfig::default();
        let model = train_erm(&inst.dataset, &inst.features, &train, &config);
        let zero = SlimFastModel::zeros(model.space());

        let trained_acc = model
            .predict(&inst.dataset, &inst.features)
            .accuracy_against(&inst.truth, &split.test);
        let zero_acc = zero
            .predict(&inst.dataset, &inst.features)
            .accuracy_against(&inst.truth, &split.test);
        assert!(
            trained_acc > zero_acc + 0.05,
            "ERM ({trained_acc:.3}) should clearly beat the uninformed model ({zero_acc:.3})"
        );
        assert!(trained_acc > 0.75, "ERM accuracy too low: {trained_acc:.3}");
    }

    #[test]
    fn erm_source_accuracies_correlate_with_truth() {
        let inst = instance(2);
        let config = SlimFastConfig::default();
        // Full supervision: accuracy estimates should track the planted accuracies.
        let model = train_erm(&inst.dataset, &inst.features, &inst.truth, &config);
        let mut total_err = 0.0;
        for (s, &true_acc) in inst.true_accuracies.iter().enumerate() {
            let est = model.source_accuracy(SourceId::new(s), &inst.features);
            total_err += (est - true_acc).abs();
        }
        let mean_err = total_err / inst.true_accuracies.len() as f64;
        assert!(mean_err < 0.2, "mean source-accuracy error {mean_err:.3}");
    }

    #[test]
    fn empty_ground_truth_returns_the_zero_model() {
        let inst = instance(3);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let model = train_erm(
            &inst.dataset,
            &inst.features,
            &empty,
            &SlimFastConfig::default(),
        );
        assert!(model.weights().iter().all(|&w| w == 0.0));
    }

    #[test]
    fn compiled_problems_skip_objects_whose_truth_was_never_claimed() {
        let mut b = slimfast_data::DatasetBuilder::new();
        b.observe("s0", "o0", "a").unwrap();
        b.observe("s1", "o0", "b").unwrap();
        b.observe("s0", "o1", "a").unwrap();
        let d = b.build();
        let f = FeatureMatrix::empty(d.num_sources());
        // o1's "true" value is one nobody claimed; under single-truth semantics such labels
        // cannot be used as ERM targets and are skipped.
        let mut truth = GroundTruth::empty(d.num_objects());
        truth.set(d.object_id("o0").unwrap(), d.value_id("a").unwrap());
        truth.set(d.object_id("o1").unwrap(), d.value_id("b").unwrap());
        let problem = CompiledProblem::compile(&d, &f, &truth);
        assert_eq!(problem.num_labeled(), 1);
        assert_eq!(problem.num_compiled_objects(), 2);
        assert_eq!(problem.num_claims(), 3);
    }

    #[test]
    fn training_is_deterministic_given_a_seed() {
        let inst = instance(4);
        let config = SlimFastConfig::default().with_seed(13);
        let a = train_erm(&inst.dataset, &inst.features, &inst.truth, &config);
        let b = train_erm(&inst.dataset, &inst.features, &inst.truth, &config);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn batched_erm_fit_bits_are_pinned() {
        use slimfast_optim::{auto_batch_size, StochasticObjective};
        // 1,500 labelled objects, so auto batching engages (64-example batches). The
        // hash pins the bits of the weights and the loss history.
        let inst = SyntheticConfig {
            name: "erm-pin".into(),
            num_sources: 60,
            num_objects: 1_500,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.15),
            accuracy: AccuracyModel {
                mean: 0.7,
                spread: 0.2,
            },
            features: FeatureModel {
                num_predictive: 3,
                num_noise: 3,
                predictive_strength: 0.25,
            },
            copying: None,
            seed: 5,
        }
        .generate();
        let problem = CompiledProblem::compile(&inst.dataset, &inst.features, &inst.truth);
        let objective = problem.erm_objective();
        let examples = objective.num_examples();
        let batch = auto_batch_size(examples);
        assert!(examples >= 1024 && batch > 1 && examples >= 4 * batch);
        let config = SlimFastConfig::default();
        let fit = slimfast_optim::minimize(&objective, None, &config.erm_sgd());
        let bits: Vec<u8> = fit
            .weights
            .iter()
            .chain(&fit.loss_history)
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect();
        assert_eq!(slimfast_data::format::fnv1a(&bits), 0x6577_b853_29e7_6050);
        // The estimator's ERM path runs this same fit.
        let model = train_erm_compiled(&problem, &config);
        assert_eq!(model.weights(), fit.weights.as_slice());
    }
}
