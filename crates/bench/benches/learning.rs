//! Criterion micro-benchmarks for the learning machinery: ERM training, EM training, the
//! optimizer (which the paper reports costs ~2% of total fusion time), factor-graph
//! compilation, weight learning, and Gibbs sampling.

use criterion::{criterion_group, criterion_main, Criterion};

use slimfast_core::compile::compile;
use slimfast_core::em::train_em;
use slimfast_core::erm::train_erm;
use slimfast_core::optimizer::decide;
use slimfast_core::SlimFastConfig;
use slimfast_data::SplitPlan;
use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};
use slimfast_graph::{GibbsConfig, LearningConfig};

fn bench_instance() -> slimfast_datagen::SyntheticInstance {
    SyntheticConfig {
        name: "learning-bench".into(),
        num_sources: 100,
        num_objects: 300,
        domain_size: 2,
        pattern: ObservationPattern::Bernoulli(0.08),
        accuracy: AccuracyModel {
            mean: 0.7,
            spread: 0.15,
        },
        features: FeatureModel {
            num_predictive: 3,
            num_noise: 3,
            predictive_strength: 0.2,
        },
        copying: None,
        seed: 2,
    }
    .generate()
}

fn learners(c: &mut Criterion) {
    let instance = bench_instance();
    let split = SplitPlan::new(0.2, 1).draw(&instance.truth, 0).unwrap();
    let train = split.train_truth(&instance.truth);
    let config = SlimFastConfig {
        erm_epochs: 30,
        em: slimfast_core::config::EmConfig {
            max_iterations: 5,
            ..Default::default()
        },
        ..Default::default()
    };

    let mut group = c.benchmark_group("learning");
    group.sample_size(10);
    group.bench_function("erm_training", |b| {
        b.iter(|| train_erm(&instance.dataset, &instance.features, &train, &config));
    });
    group.bench_function("em_training", |b| {
        b.iter(|| train_em(&instance.dataset, &instance.features, &train, &config));
    });
    group.bench_function("optimizer_decide", |b| {
        b.iter(|| decide(&instance.dataset, &instance.features, &train, &config));
    });
    group.finish();
}

fn factor_graph(c: &mut Criterion) {
    let instance = bench_instance();
    let split = SplitPlan::new(0.2, 1).draw(&instance.truth, 0).unwrap();
    let train = split.train_truth(&instance.truth);

    let mut group = c.benchmark_group("factor_graph");
    group.sample_size(10);
    group.bench_function("compile", |b| {
        b.iter(|| compile(&instance.dataset, &instance.features, &train));
    });
    group.bench_function("learn_weights", |b| {
        b.iter(|| {
            let mut compiled = compile(&instance.dataset, &instance.features, &train);
            compiled.learn(&LearningConfig {
                epochs: 10,
                ..Default::default()
            })
        });
    });
    group.bench_function("gibbs_inference", |b| {
        let compiled = compile(&instance.dataset, &instance.features, &train);
        let config = GibbsConfig {
            burn_in: 20,
            samples: 100,
            chains: 1,
            seed: 3,
        };
        b.iter(|| compiled.infer(&instance.dataset, &config));
    });
    group.finish();
}

criterion_group!(benches, learners, factor_graph);
criterion_main!(benches);
