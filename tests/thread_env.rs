//! The `SLIMFAST_THREADS`-reconfiguration lifecycle test.
//!
//! This test lives **alone** in its own integration-test binary on purpose:
//! `std::env::set_var` is a data race against any concurrent `getenv` in the same
//! process (glibc may reallocate the environment block), and libtest runs the tests of
//! one binary on parallel threads. With a single `#[test]` there is no concurrent test
//! code to race with. Do not add further tests to this file.

use slimfast::core::config::EmConfig;
use slimfast::core::exec;
use slimfast::prelude::*;

fn instance() -> SyntheticInstance {
    SyntheticConfig {
        name: "thread-env".into(),
        num_sources: 100,
        num_objects: 2_500,
        domain_size: 2,
        pattern: slimfast::datagen::ObservationPattern::Bernoulli(0.15),
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
        seed: 41,
    }
    .generate()
}

fn fit_weight_bits(instance: &SyntheticInstance, threads: usize) -> Vec<u64> {
    let truth = GroundTruth::empty(instance.dataset.num_objects());
    let input = FusionInput::new(&instance.dataset, &instance.features, &truth);
    let config = SlimFastConfig {
        em: EmConfig {
            max_iterations: 3,
            ..Default::default()
        },
        ..SlimFastConfig::default()
            .with_seed(11)
            .with_threads(threads)
    };
    let (model, _) = SlimFast::em(config).train(&input);
    model.weights().iter().map(|w| w.to_bits()).collect()
}

/// Fits survive `SLIMFAST_THREADS` changes between them: reconfiguring the
/// environment only changes how many lanes the next auto-resolved fit asks for, with
/// no drift in results. (Explicit thread counts never read the variable, which also
/// pins down the precedence rule.)
#[test]
fn fits_survive_thread_env_changes_between_them() {
    let inst = instance();
    let reference = fit_weight_bits(&inst, 1);
    for env_threads in ["1", "4", "2", "4"] {
        std::env::set_var(exec::THREADS_ENV, env_threads);
        assert_eq!(exec::num_threads(), env_threads.parse::<usize>().unwrap());
        let auto = fit_weight_bits(&inst, 0);
        assert_eq!(
            reference, auto,
            "fit drifted after SLIMFAST_THREADS={env_threads}"
        );
    }
    std::env::remove_var(exec::THREADS_ENV);
    // A fresh fit still works after the variable is gone.
    assert_eq!(reference, fit_weight_bits(&inst, 0));
}
