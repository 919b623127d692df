//! Lifecycle tests for the persistent worker pool: one process-wide pool serves every
//! fit and never lets reuse (or lane count) leak into results.
//!
//! The instance is sized so the pool-engagement conditions genuinely hold (asserted
//! below): the E-step grid spans several object chunks above the inline item
//! threshold — so on any multi-core machine these fits actually publish pool jobs. (On
//! a single-core machine the lane clamp collapses them to inline execution by design;
//! the in-crate pool unit tests cover multi-worker scheduling there by bypassing the
//! clamp.)
//!
//! The companion `SLIMFAST_THREADS`-mutation test lives alone in `pool_env.rs`:
//! mutating the process environment from a multi-threaded libtest binary is a data
//! race, so it gets its own process.

use slimfast::core::config::EmConfig;
use slimfast::core::exec;
use slimfast::prelude::*;

/// Large enough that the sharded E-step crosses `INLINE_MIN_ITEMS` with several object
/// chunks; small enough for a debug-mode test (EM is capped at 3 iterations below).
fn instance() -> SyntheticInstance {
    SyntheticConfig {
        name: "pool-reuse".into(),
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

fn config(threads: usize) -> SlimFastConfig {
    SlimFastConfig {
        em: EmConfig {
            max_iterations: 3,
            ..Default::default()
        },
        ..SlimFastConfig::default()
            .with_seed(11)
            .with_threads(threads)
    }
}

/// Fails loudly if future tuning changes shrink this instance below the thresholds at
/// which multi-lane machines actually route these fits through the pool.
fn assert_pool_engages(instance: &SyntheticInstance) {
    let posterior_slots = 2 * instance.dataset.num_objects();
    assert!(
        posterior_slots >= exec::INLINE_MIN_ITEMS,
        "E-step posterior slab ({posterior_slots} slots) runs inline everywhere"
    );
    assert!(
        instance.dataset.num_objects() > 1024,
        "E-step grid is a single object chunk"
    );
}

fn fit_weight_bits(instance: &SyntheticInstance, threads: usize) -> Vec<u64> {
    let truth = GroundTruth::empty(instance.dataset.num_objects());
    let input = FusionInput::new(&instance.dataset, &instance.features, &truth);
    let (model, _) = SlimFast::em(config(threads)).train(&input);
    model.weights().iter().map(|w| w.to_bits()).collect()
}

/// Consecutive fits share one process-wide pool; interleaving thread counts across fits must leave every fit bitwise-identical.
#[test]
fn pool_reuse_across_consecutive_fits_is_bitwise_deterministic() {
    let inst = instance();
    assert_pool_engages(&inst);
    let first_t1 = fit_weight_bits(&inst, 1);
    let first_t4 = fit_weight_bits(&inst, 4);
    let second_t1 = fit_weight_bits(&inst, 1);
    let second_t4 = fit_weight_bits(&inst, 4);
    assert_eq!(first_t1, first_t4, "thread count changed fitted weights");
    assert_eq!(first_t1, second_t1, "pool reuse changed a 1-thread fit");
    assert_eq!(first_t4, second_t4, "pool reuse changed a 4-thread fit");
}

/// Explicit thread requests beyond the machine's parallelism are clamped to real lanes
/// (never oversubscribed) without changing results.
#[test]
fn oversubscribed_thread_requests_are_harmless() {
    let inst = instance();
    let reference = fit_weight_bits(&inst, 1);
    let oversubscribed = fit_weight_bits(&inst, 64);
    assert_eq!(reference, oversubscribed);
    assert!(exec::execution_lanes(64, usize::MAX) <= exec::max_lanes());
}
