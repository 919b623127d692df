//! Cross-crate integration tests: the full pipeline (generate → split → learn → infer →
//! evaluate) and the qualitative claims of the paper that the reproduction must preserve.

use slimfast::core::bounds;
use slimfast::prelude::*;

/// A reduced configuration so the whole suite stays fast in debug builds.
fn fast_config() -> SlimFastConfig {
    SlimFastConfig {
        erm_epochs: 30,
        em: slimfast::core::config::EmConfig {
            max_iterations: 8,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn small_instance(
    mean_accuracy: f64,
    density: f64,
    feature_strength: f64,
    seed: u64,
) -> SyntheticInstance {
    slimfast::datagen::SyntheticConfig {
        name: "integration".into(),
        num_sources: 60,
        num_objects: 200,
        domain_size: 2,
        pattern: slimfast::datagen::ObservationPattern::Bernoulli(density),
        accuracy: slimfast::datagen::AccuracyModel {
            mean: mean_accuracy,
            spread: 0.1,
        },
        features: slimfast::datagen::FeatureModel {
            num_predictive: 3,
            num_noise: 3,
            predictive_strength: feature_strength,
        },
        copying: None,
        seed,
    }
    .generate()
}

#[test]
fn full_pipeline_beats_majority_vote_with_scarce_labels() {
    let instance = small_instance(0.65, 0.12, 0.3, 1);
    let split = SplitPlan::new(0.05, 3).draw(&instance.truth, 0).unwrap();
    let train = split.train_truth(&instance.truth);
    let input = FusionInput::new(&instance.dataset, &instance.features, &train);

    let slimfast_acc = SlimFast::new(fast_config())
        .fuse(&input)
        .assignment
        .accuracy_against(&instance.truth, &split.test);
    let majority_acc = MajorityVote
        .fuse(&input)
        .assignment
        .accuracy_against(&instance.truth, &split.test);
    assert!(
        slimfast_acc >= majority_acc - 0.02,
        "SLiMFast ({slimfast_acc:.3}) should not trail majority vote ({majority_acc:.3})"
    );
    assert!(
        slimfast_acc > 0.7,
        "absolute accuracy too low: {slimfast_acc:.3}"
    );
}

#[test]
fn domain_features_help_most_when_observations_are_sparse() {
    // The Genomics regime: few observations per source, feature-driven accuracy.
    let instance = slimfast::datagen::SyntheticConfig {
        name: "sparse".into(),
        num_sources: 250,
        num_objects: 200,
        domain_size: 2,
        pattern: slimfast::datagen::ObservationPattern::PerObjectRange { min: 2, max: 5 },
        accuracy: slimfast::datagen::AccuracyModel {
            mean: 0.62,
            spread: 0.02,
        },
        features: slimfast::datagen::FeatureModel {
            num_predictive: 4,
            num_noise: 2,
            predictive_strength: 0.5,
        },
        copying: None,
        seed: 5,
    }
    .generate();
    let split = SplitPlan::new(0.2, 1).draw(&instance.truth, 0).unwrap();
    let train = split.train_truth(&instance.truth);
    let no_features = FeatureMatrix::empty(instance.dataset.num_sources());
    let config = fast_config();

    let with_features = SlimFast::erm(config.clone())
        .fuse(&FusionInput::new(
            &instance.dataset,
            &instance.features,
            &train,
        ))
        .assignment
        .accuracy_against(&instance.truth, &split.test);
    let without_features = SlimFast::erm(config)
        .fuse(&FusionInput::new(&instance.dataset, &no_features, &train))
        .assignment
        .accuracy_against(&instance.truth, &split.test);
    assert!(
        with_features >= without_features,
        "features should help on sparse feature-driven data: {with_features:.3} vs {without_features:.3}"
    );
}

#[test]
fn em_improves_with_density_while_erm_depends_on_labels() {
    // Figure 4(b)'s shape on a small instance: at a fixed, small label budget EM gains more
    // from extra density than ERM does.
    let config = fast_config();
    let sparse = small_instance(0.7, 0.03, 0.15, 7);
    let dense = small_instance(0.7, 0.20, 0.15, 7);
    let mut em_gain = 0.0;
    let mut erm_gain = 0.0;
    for (instance, weight) in [(&sparse, -1.0), (&dense, 1.0)] {
        let split = SplitPlan::new(0.05, 1).draw(&instance.truth, 0).unwrap();
        let train = split.train_truth(&instance.truth);
        let no_features = FeatureMatrix::empty(instance.dataset.num_sources());
        let input = FusionInput::new(&instance.dataset, &no_features, &train);
        let em = SlimFast::em(config.clone())
            .fuse(&input)
            .assignment
            .accuracy_against(&instance.truth, &split.test);
        let erm = SlimFast::erm(config.clone())
            .fuse(&input)
            .assignment
            .accuracy_against(&instance.truth, &split.test);
        em_gain += weight * em;
        erm_gain += weight * erm;
    }
    assert!(
        em_gain > erm_gain - 0.05,
        "EM should benefit from density at least as much as ERM (EM gain {em_gain:.3}, ERM gain {erm_gain:.3})"
    );
    assert!(
        em_gain > 0.0,
        "denser observations should improve EM (gain {em_gain:.3})"
    );
}

#[test]
fn optimizer_agrees_with_the_better_algorithm_on_clear_cut_instances() {
    let config = fast_config();
    // Clear ERM territory: plenty of labels.
    let instance = small_instance(0.6, 0.05, 0.2, 11);
    let split = SplitPlan::new(0.6, 1).draw(&instance.truth, 0).unwrap();
    let train = split.train_truth(&instance.truth);
    let input = FusionInput::new(&instance.dataset, &instance.features, &train);
    let report = SlimFast::new(config.clone()).plan(&input);
    assert_eq!(report.decision, OptimizerDecision::Erm);

    // Clear EM territory: no labels at all.
    let empty = GroundTruth::empty(instance.dataset.num_objects());
    let input = FusionInput::new(&instance.dataset, &instance.features, &empty);
    let report = SlimFast::new(config).plan(&input);
    assert_eq!(report.decision, OptimizerDecision::Em);
}

#[test]
fn source_accuracy_estimates_beat_the_uninformed_baseline() {
    let instance = small_instance(0.7, 0.15, 0.25, 13);
    let split = SplitPlan::new(0.3, 1).draw(&instance.truth, 0).unwrap();
    let train = split.train_truth(&instance.truth);
    let input = FusionInput::new(&instance.dataset, &instance.features, &train);
    let output = SlimFast::new(fast_config()).fuse(&input);
    let estimated = output.source_accuracies.unwrap();
    let uninformed = SourceAccuracies::new(vec![0.5; instance.dataset.num_sources()]);
    let err = slimfast::eval::source_accuracy_error(&instance.dataset, &instance.truth, &estimated)
        .unwrap();
    let uninformed_err =
        slimfast::eval::source_accuracy_error(&instance.dataset, &instance.truth, &uninformed)
            .unwrap();
    assert!(
        err < uninformed_err,
        "estimated accuracies (err {err:.3}) should beat the 0.5 prior (err {uninformed_err:.3})"
    );
}

#[test]
fn simulated_datasets_expose_their_documented_shape() {
    // Use the smaller two simulators to keep the debug-build runtime reasonable.
    let stocks = DatasetKind::Stocks.generate(1);
    assert!(stocks.dataset.density() > 0.9, "Stocks must be dense");
    assert!(
        stocks.mean_true_accuracy() < 0.55,
        "Stocks sources are mostly unreliable"
    );
    let crowd = DatasetKind::Crowd.generate(1);
    for o in crowd.dataset.object_ids().take(50) {
        assert_eq!(crowd.dataset.observations_for_object(o).len(), 20);
    }
}

#[test]
fn theoretical_rates_order_the_regimes_consistently() {
    // More labels => smaller ERM rate; more density/accuracy => smaller EM rate; and the
    // units-of-information comparison follows the same direction on actual instances.
    assert!(bounds::erm_rate(10, 2000) < bounds::erm_rate(10, 20));
    assert!(bounds::em_rate(10, 500, 500, 0.05, 0.4) < bounds::em_rate(10, 500, 500, 0.01, 0.1));

    let sparse = small_instance(0.7, 0.03, 0.15, 17);
    let dense = small_instance(0.7, 0.20, 0.15, 17);
    let sparse_units = slimfast::core::optimizer::em_units(&sparse.dataset, 0.7);
    let dense_units = slimfast::core::optimizer::em_units(&dense.dataset, 0.7);
    assert!(dense_units > sparse_units);
}
