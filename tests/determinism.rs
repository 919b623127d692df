//! Determinism smoke tests: the whole pipeline — generation, splitting, learning, and
//! inference — must be byte-identical across runs given the same seeds. Future
//! parallelization work (sharding, multi-threaded learners) must keep this guarantee.

use slimfast::prelude::*;

fn config() -> SyntheticConfig {
    SyntheticConfig {
        name: "determinism".into(),
        num_sources: 40,
        num_objects: 120,
        domain_size: 3,
        pattern: slimfast::datagen::ObservationPattern::Bernoulli(0.1),
        accuracy: slimfast::datagen::AccuracyModel {
            mean: 0.7,
            spread: 0.1,
        },
        features: slimfast::datagen::FeatureModel {
            num_predictive: 2,
            num_noise: 2,
            predictive_strength: 0.3,
        },
        copying: None,
        seed: 99,
    }
}

fn run_once() -> (Vec<(ObjectId, ValueId, f64)>, Vec<f64>) {
    let instance = config().generate();
    let split = SplitPlan::new(0.2, 17).draw(&instance.truth, 1).unwrap();
    let train = split.train_truth(&instance.truth);
    let input = FusionInput::new(&instance.dataset, &instance.features, &train);
    let output = SlimFast::new(SlimFastConfig::default()).fuse(&input);
    let assignment: Vec<(ObjectId, ValueId, f64)> = output.assignment.iter().collect();
    let accuracies = output
        .source_accuracies
        .expect("SLiMFast reports source accuracies")
        .as_slice()
        .to_vec();
    (assignment, accuracies)
}

/// Same `SyntheticConfig` seed ⇒ identical generated instances.
#[test]
fn generation_is_deterministic() {
    let a = config().generate();
    let b = config().generate();
    assert_eq!(a.dataset.num_observations(), b.dataset.num_observations());
    assert_eq!(a.true_accuracies, b.true_accuracies);
    let obs_a: Vec<_> = a.dataset.observations().to_vec();
    let obs_b: Vec<_> = b.dataset.observations().to_vec();
    assert_eq!(obs_a, obs_b);
}

/// Same seed ⇒ bit-identical `FusionOutput` (assignment, confidences, and accuracy
/// estimates) across two full runs.
#[test]
fn fusion_output_is_deterministic() {
    let (assignment_a, accuracies_a) = run_once();
    let (assignment_b, accuracies_b) = run_once();
    assert_eq!(assignment_a, assignment_b);
    assert_eq!(accuracies_a, accuracies_b);
}

/// EM (the stochastic learner with the most moving parts) is deterministic end to end.
#[test]
fn em_fusion_is_deterministic() {
    let run = || {
        let instance = config().generate();
        let truth = GroundTruth::empty(instance.dataset.num_objects());
        let input = FusionInput::new(&instance.dataset, &instance.features, &truth);
        let output = SlimFast::em(SlimFastConfig::default().with_seed(5)).fuse(&input);
        output.assignment.iter().collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// The thread count changes wall-clock time, never results: a fitted model's posteriors
/// are bitwise-identical whether the sharded E-step runs on one worker or four.
#[test]
fn fitted_posteriors_are_bitwise_identical_across_thread_counts() {
    let instance = SyntheticConfig {
        name: "thread-determinism".into(),
        num_sources: 60,
        num_objects: 400,
        domain_size: 2,
        pattern: slimfast::datagen::ObservationPattern::Bernoulli(0.12),
        accuracy: slimfast::datagen::AccuracyModel {
            mean: 0.72,
            spread: 0.12,
        },
        features: slimfast::datagen::FeatureModel {
            num_predictive: 2,
            num_noise: 1,
            predictive_strength: 0.2,
        },
        copying: None,
        seed: 7,
    }
    .generate();
    let truth = GroundTruth::empty(instance.dataset.num_objects());
    let input = FusionInput::new(&instance.dataset, &instance.features, &truth);

    let posteriors_with = |threads: usize| -> Vec<Vec<u64>> {
        let config = SlimFastConfig::default()
            .with_seed(11)
            .with_threads(threads);
        let fitted = SlimFast::em(config).fit(&input);
        instance
            .dataset
            .object_ids()
            .map(|o| {
                fitted
                    .posterior(&instance.dataset, &instance.features, o)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect()
            })
            .collect()
    };
    let single = posteriors_with(1);
    let quad = posteriors_with(4);
    assert_eq!(single, quad);
}
