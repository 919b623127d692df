//! # slimfast-baselines
//!
//! Every data-fusion method SLiMFast is compared against in Section 5 of the paper, all
//! implementing the two-phase [`slimfast_data::FusionEstimator`] contract (fit once,
//! predict many times) — and therefore also the one-shot
//! [`slimfast_data::FusionMethod`] shim — so the evaluation harness can run them
//! interchangeably:
//!
//! | Method | Paper label | Family |
//! |---|---|---|
//! | [`MajorityVote`] | (simple strategy of Section 2) | voting |
//! | [`Counts`] | Counts | generative (Naive Bayes, supervised accuracy estimates) |
//! | [`Accu`] | ACCU (Dong et al. 2009, no copying) | generative (Bayesian, iterative) |
//! | [`Catd`] | CATD (Li et al. 2014) | iterative optimization with confidence intervals |
//! | [`TruthFinder`] | (Yin et al. 2007, reference \[39\]) | iterative |
//! | [`Sstf`] | SSTF (Yin & Tan 2011) | semi-supervised graph propagation |
//!
//! Ground truth, when provided, is used exactly as the paper prescribes per method: Counts
//! estimates accuracies from it, ACCU/CATD use it to initialize source trust, SSTF clamps
//! the labelled facts, MajorityVote and TruthFinder ignore it.
//!
//! Fitting captures each method's learned state (accuracies, vote weights, trust) in a
//! `Fitted*` artifact whose `predict` replays only the method's inference step, so the
//! artifact serves datasets that grew by a delta of new claims without re-running the
//! iterative refinement; sources unseen at fit time fall back to the method's prior.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accu;
pub mod catd;
pub mod counts;
pub mod majority;
pub mod sstf;
pub mod stat;
pub mod truthfinder;

pub use accu::{Accu, FittedAccu};
pub use catd::{Catd, FittedCatd};
pub use counts::{Counts, FittedCounts};
pub use majority::{FittedMajorityVote, MajorityVote};
pub use sstf::{FittedSstf, Sstf};
pub use truthfinder::{FittedTruthFinder, TruthFinder};

/// All baselines with their default configurations, boxed for uniform iteration by the
/// evaluation harness (each also answers the one-shot [`slimfast_data::FusionMethod`]
/// interface through the blanket shim).
pub fn all_baselines() -> Vec<Box<dyn slimfast_data::FusionEstimator>> {
    vec![
        Box::new(MajorityVote),
        Box::new(Counts::default()),
        Box::new(Accu::default()),
        Box::new(Catd::default()),
        Box::new(Sstf::default()),
        Box::new(TruthFinder::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::{FusionInput, FusionMethod, GroundTruth, SplitPlan};
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};

    /// Every baseline should clearly beat random guessing on an easy synthetic instance.
    #[test]
    fn all_baselines_beat_random_guessing_on_an_easy_instance() {
        let inst = SyntheticConfig {
            name: "easy".into(),
            num_sources: 60,
            num_objects: 300,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.2),
            accuracy: AccuracyModel {
                mean: 0.75,
                spread: 0.1,
            },
            features: FeatureModel::default(),
            copying: None,
            seed: 3,
        }
        .generate();
        let split = SplitPlan::new(0.1, 1).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let input = FusionInput::new(&inst.dataset, &inst.features, &train);
        for method in all_baselines() {
            let output = method.fuse(&input);
            let accuracy = output.assignment.accuracy_against(&inst.truth, &split.test);
            assert!(
                accuracy > 0.65,
                "{} accuracy {accuracy:.3} on an easy instance",
                method.name()
            );
        }
    }

    /// Baselines must not peek at held-out labels: an empty training truth must not panic
    /// and must still produce predictions for every object.
    #[test]
    fn all_baselines_handle_unsupervised_runs() {
        let inst = SyntheticConfig {
            name: "unsup".into(),
            num_sources: 40,
            num_objects: 120,
            domain_size: 3,
            pattern: ObservationPattern::PerObjectExact(8),
            accuracy: AccuracyModel {
                mean: 0.6,
                spread: 0.1,
            },
            features: FeatureModel::default(),
            copying: None,
            seed: 5,
        }
        .generate();
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let input = FusionInput::new(&inst.dataset, &inst.features, &empty);
        for method in all_baselines() {
            let output = method.fuse(&input);
            assert_eq!(
                output.assignment.num_assigned(),
                inst.dataset.num_objects(),
                "{} left objects unpredicted",
                method.name()
            );
        }
    }
}
