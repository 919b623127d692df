//! Expectation maximization: the (semi-)unsupervised learner of SLiMFast.
//!
//! When ground truth is scarce, SLiMFast maximizes the likelihood of the source
//! observations themselves by alternating (Section 3.2):
//!
//! * **E-step** — with the current weights, compute the posterior of every unlabelled
//!   object's value (labelled objects stay clamped to their ground-truth value, making the
//!   procedure semi-supervised exactly as the paper describes);
//! * **M-step** — refit the *accuracy model* of Equation 3: every observation `(s, o, v)`
//!   is one binary example "source `s` was correct on `o`" whose fractional target is the
//!   posterior probability that `T_o = v`, and whose features are the source indicator
//!   plus the source's domain features. All claims of a source share those features, so
//!   the M-step objective depends on the E-step only through the per-source target sums,
//!   and [`crate::m_step`] solves it over the sources with an exact Newton step. (Fitting
//!   the conditional object-level logit against its own posteriors would be a no-op: its
//!   gradient vanishes identically at the current weights, because the targets *are* the
//!   model output.)
//!
//! Each iteration takes one Newton step rather than solving the M-step to optimality.
//! This is generalized EM: every step decreases the M-step objective, and the fixed point
//! is the same as with a full inner solve. EM stops once the largest change of any
//! posterior between consecutive E-steps falls below [`EmConfig::tolerance`]. Raw weights
//! are no stopping signal: the L2 term alone pins the direction along which source
//! indicators and feature weights trade off.
//!
//! The objective is non-convex; Theorem 3 bounds the error of the resulting accuracy
//! estimates in terms of the source accuracies (`δ`) and the observation density (`p`).
//!
//! Both steps run over a [`CompiledProblem`] built once per fit. The E-step precomputes
//! one trust score per source and shards posterior recomputation over object ranges; the
//! target sums and the M-step run serially in a fixed order. A fit is therefore
//! bitwise-identical at any `SLIMFAST_THREADS` setting.
//!
//! [`EmConfig::tolerance`]: crate::config::EmConfig::tolerance

use slimfast_data::{Dataset, FeatureMatrix, GroundTruth};

use crate::compile::CompiledProblem;
use crate::config::SlimFastConfig;
use crate::erm::train_erm_compiled;
use crate::exec;
use crate::m_step;
use crate::model::SlimFastModel;

/// Diagnostics of an EM run.
#[derive(Debug, Clone)]
pub struct EmTrace {
    /// Number of E/M iterations executed.
    pub iterations: usize,
    /// Largest absolute change of any posterior between consecutive E-steps, one entry
    /// per iteration.
    pub posterior_deltas: Vec<f64>,
    /// Whether the tolerance criterion fired before the iteration cap.
    pub converged: bool,
}

/// Trains a SLiMFast model with (semi-supervised) EM on an already-compiled problem,
/// returning the model together with its convergence trace. `dataset` is only consulted
/// for the agreement-based accuracy prior that breaks the EM symmetry.
pub fn train_em_compiled(
    problem: &CompiledProblem,
    dataset: &Dataset,
    config: &SlimFastConfig,
) -> (SlimFastModel, EmTrace) {
    let estimate = crate::optimizer::estimate_average_accuracy(dataset);
    train_em_from_estimate(problem, estimate, config)
}

/// [`train_em_compiled`] with the agreement-based average-accuracy estimate supplied by
/// the caller, so a fit whose optimizer already built the agreement matrix does not
/// build it twice.
pub(crate) fn train_em_from_estimate(
    problem: &CompiledProblem,
    estimated_avg_accuracy: Option<f64>,
    config: &SlimFastConfig,
) -> (SlimFastModel, EmTrace) {
    let space = problem.space();
    let threads = exec::resolve_threads(config.threads);

    // Symmetry breaking. The all-zero weight vector is a stationary point of the EM
    // objective (uniform posteriors produce zero M-step gradients) and the objective has a
    // label-flipped mirror optimum. Like the paper, we lean on the assumption that sources
    // are better than random (A*_s ≥ 0.5 + δ/2): every source starts from a shared positive
    // trust score derived from the agreement-based accuracy estimate, which turns the first
    // E-step into a weighted majority vote on the correct branch.
    let prior_accuracy = estimated_avg_accuracy.unwrap_or(0.7).clamp(0.55, 0.9);
    let prior_weight = (prior_accuracy / (1.0 - prior_accuracy)).ln();

    // Initialisation: if any labels exist, an ERM fit on them is both what the paper's
    // semi-supervised setup does (labels become evidence) and a much better starting point
    // than zeros for the non-convex objective. Sources the ERM fit never saw keep the
    // positive prior.
    let mut model = if problem.num_labeled() == 0 {
        let mut weights = vec![0.0; space.len()];
        weights[..space.num_sources].fill(prior_weight);
        SlimFastModel::new(space, weights)
    } else {
        let mut fitted = train_erm_compiled(problem, config);
        for s in 0..space.num_sources {
            if fitted.weights()[s] == 0.0 {
                fitted.weights_mut()[s] = prior_weight;
            }
        }
        fitted
    };

    // Flat buffers, allocated once and refilled by every E-step: the posterior slabs of
    // the previous and the current E-step, the per-source target sums, and the
    // per-source trust scores.
    let mut posteriors: Vec<f64> = Vec::new();
    let mut previous: Vec<f64> = Vec::new();
    let mut correct: Vec<f64> = Vec::new();
    let mut trust: Vec<f64> = Vec::new();
    problem.trust_scores_into(model.weights(), &mut trust);
    problem.e_step(&trust, threads, &mut posteriors, &mut correct);

    let l2 = m_step::l2_strength(&config.penalty);
    let mut deltas = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    for iteration in 0..config.em.max_iterations {
        iterations = iteration + 1;
        // --- M-step: one Newton step on the accuracy model against the target sums of
        //     the last E-step, from the current weights. --------------------------------
        m_step::newton_step(problem, model.weights_mut(), &correct, l2);

        // --- E-step: posterior over every object's value (clamped on labelled ones),
        //     plus the per-source target sums for the next M-step. ---------------------
        std::mem::swap(&mut posteriors, &mut previous);
        problem.trust_scores_into(model.weights(), &mut trust);
        problem.e_step(&trust, threads, &mut posteriors, &mut correct);
        let delta = posteriors
            .iter()
            .zip(&previous)
            .map(|(new, old)| (new - old).abs())
            .fold(0.0f64, f64::max);
        deltas.push(delta);
        if delta < config.em.tolerance {
            converged = true;
            break;
        }
    }

    (
        model,
        EmTrace {
            iterations,
            posterior_deltas: deltas,
            converged,
        },
    )
}

/// Compiles the instance and trains a SLiMFast model with (semi-supervised) EM,
/// returning the model together with its convergence trace.
pub fn train_em_traced(
    dataset: &Dataset,
    features: &FeatureMatrix,
    truth: &GroundTruth,
    config: &SlimFastConfig,
) -> (SlimFastModel, EmTrace) {
    let problem = CompiledProblem::compile(dataset, features, truth);
    train_em_compiled(&problem, dataset, config)
}

/// Trains a SLiMFast model with EM, discarding the trace.
pub fn train_em(
    dataset: &Dataset,
    features: &FeatureMatrix,
    truth: &GroundTruth,
    config: &SlimFastConfig,
) -> SlimFastModel {
    train_em_traced(dataset, features, truth, config).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::{SourceId, SplitPlan};
    use slimfast_datagen::{
        AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig, SyntheticInstance,
    };

    fn instance(mean_accuracy: f64, density: f64, seed: u64) -> SyntheticInstance {
        SyntheticConfig {
            name: "em-test".into(),
            num_sources: 80,
            num_objects: 300,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(density),
            accuracy: AccuracyModel {
                mean: mean_accuracy,
                spread: 0.15,
            },
            features: FeatureModel {
                num_predictive: 3,
                num_noise: 2,
                predictive_strength: 0.2,
            },
            copying: None,
            seed,
        }
        .generate()
    }

    #[test]
    fn unsupervised_em_beats_the_zero_model_when_sources_are_accurate() {
        let inst = instance(0.75, 0.2, 1);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let config = SlimFastConfig::default();
        let (model, trace) = train_em_traced(&inst.dataset, &inst.features, &empty, &config);
        assert!(trace.iterations >= 1);
        let all_objects: Vec<_> = inst.dataset.object_ids().collect();
        let em_acc = model
            .predict(&inst.dataset, &inst.features)
            .accuracy_against(&inst.truth, &all_objects);
        let zero_acc = SlimFastModel::zeros(model.space())
            .predict(&inst.dataset, &inst.features)
            .accuracy_against(&inst.truth, &all_objects);
        assert!(
            em_acc > zero_acc + 0.05,
            "EM ({em_acc:.3}) should beat the uninformed model ({zero_acc:.3})"
        );
        assert!(em_acc > 0.8, "EM accuracy too low: {em_acc:.3}");
    }

    #[test]
    fn em_source_accuracies_track_planted_accuracies_without_labels() {
        let inst = instance(0.75, 0.25, 2);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let model = train_em(
            &inst.dataset,
            &inst.features,
            &empty,
            &SlimFastConfig::default(),
        );
        let mut err = 0.0;
        for (s, &true_acc) in inst.true_accuracies.iter().enumerate() {
            err += (model.source_accuracy(SourceId::new(s), &inst.features) - true_acc).abs();
        }
        let mean_err = err / inst.true_accuracies.len() as f64;
        assert!(mean_err < 0.2, "mean source-accuracy error {mean_err:.3}");
    }

    #[test]
    fn semi_supervised_em_uses_labels_as_evidence() {
        let inst = instance(0.62, 0.08, 3);
        let split = SplitPlan::new(0.1, 5).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let config = SlimFastConfig::default();
        let semi = train_em(&inst.dataset, &inst.features, &train, &config);
        let unsup = train_em(
            &inst.dataset,
            &inst.features,
            &GroundTruth::empty(inst.dataset.num_objects()),
            &config,
        );
        let semi_acc = semi
            .predict(&inst.dataset, &inst.features)
            .accuracy_against(&inst.truth, &split.test);
        let unsup_acc = unsup
            .predict(&inst.dataset, &inst.features)
            .accuracy_against(&inst.truth, &split.test);
        // Labels can only help (allowing a small tolerance for a different local optimum).
        assert!(
            semi_acc + 0.03 >= unsup_acc,
            "semi-supervised EM ({semi_acc:.3}) should not trail unsupervised EM ({unsup_acc:.3})"
        );
    }

    /// The scaling bench's grid point with `sources × objects` at density 0.05.
    fn scaling_point(sources: usize, objects: usize) -> SyntheticInstance {
        SyntheticConfig {
            name: "scaling".into(),
            num_sources: sources,
            num_objects: objects,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.05),
            accuracy: AccuracyModel {
                mean: 0.72,
                spread: 0.12,
            },
            features: FeatureModel {
                num_predictive: 3,
                num_noise: 2,
                predictive_strength: 0.2,
            },
            copying: None,
            seed: 20170514,
        }
        .generate()
    }

    fn assert_converges(inst: &SyntheticInstance) -> EmTrace {
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let config = SlimFastConfig::default();
        let (_, trace) = train_em_traced(&inst.dataset, &inst.features, &empty, &config);
        assert_eq!(trace.posterior_deltas.len(), trace.iterations);
        assert!(
            trace.converged,
            "{}: EM did not converge in {} iterations: {:?}",
            inst.name, trace.iterations, trace.posterior_deltas
        );
        assert!(*trace.posterior_deltas.last().unwrap() < config.em.tolerance);
        trace
    }

    #[test]
    fn em_converges_under_the_default_config() {
        assert_converges(&instance(0.7, 0.15, 4));
    }

    #[test]
    fn em_converges_on_the_scaling_points() {
        for (sources, objects) in [(200, 5_000), (400, 10_000)] {
            assert_converges(&scaling_point(sources, objects));
        }
    }

    #[test]
    fn em_returns_a_fixed_point() {
        let inst = instance(0.7, 0.15, 4);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let config = SlimFastConfig::default();
        let problem = CompiledProblem::compile(&inst.dataset, &inst.features, &empty);
        let (model, trace) = train_em_compiled(&problem, &inst.dataset, &config);
        assert!(trace.converged);

        // One more E/M iteration from the returned model.
        let (mut before, mut after, mut correct) = (Vec::new(), Vec::new(), Vec::new());
        problem.e_step(
            &problem.trust_scores(model.weights()),
            1,
            &mut before,
            &mut correct,
        );
        let mut weights = model.weights().to_vec();
        let l2 = m_step::l2_strength(&config.penalty);
        m_step::newton_step(&problem, &mut weights, &correct, l2);
        problem.e_step(&problem.trust_scores(&weights), 1, &mut after, &mut correct);
        let moved = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            moved <= config.em.tolerance,
            "one more iteration moved a posterior by {moved}"
        );
    }

    #[test]
    fn em_is_deterministic_given_a_seed() {
        let inst = instance(0.7, 0.1, 5);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let config = SlimFastConfig::default().with_seed(21);
        let a = train_em(&inst.dataset, &inst.features, &empty, &config);
        let b = train_em(&inst.dataset, &inst.features, &empty, &config);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn em_is_bitwise_identical_across_thread_counts() {
        let inst = instance(0.72, 0.2, 6);
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let fit_with = |threads: usize| {
            let config = SlimFastConfig {
                threads,
                ..SlimFastConfig::default()
            };
            train_em(&inst.dataset, &inst.features, &empty, &config)
        };
        let reference = fit_with(1);
        for threads in [2, 4] {
            let model = fit_with(threads);
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(reference.weights()),
                bits(model.weights()),
                "threads = {threads}"
            );
        }
    }
}
