//! # SLiMFast
//!
//! A Rust implementation of *SLiMFast: Guaranteed Results for Data Fusion and Source
//! Reliability* (Joglekar, Rekatsinas, Garcia-Molina, Parameswaran, Ré — SIGMOD 2017).
//!
//! Data fusion unifies conflicting claims from many data sources into a single answer by
//! estimating how trustworthy each source is. SLiMFast expresses the problem as learning
//! and inference over a *discriminative* probabilistic model (a logistic regression over
//! source claims and domain-specific source features), which brings two things generative
//! approaches lack: the ability to fold arbitrary domain knowledge about sources into the
//! model, and statistical-learning-theory guarantees on both the recovered object values
//! and the estimated source accuracies.
//!
//! This crate is a facade over the workspace:
//!
//! * [`data`] — the fusion data model (sources, objects, observations, features, splits).
//! * [`core`] — the SLiMFast model, ERM/EM learners, the ERM-vs-EM optimizer, guarantees,
//!   the copying extension, the lasso-path explainer, and source-quality initialization.
//! * [`baselines`] — MajorityVote, Counts, ACCU, CATD, SSTF, TruthFinder.
//! * [`datagen`] — synthetic instance generators and the four simulated evaluation
//!   datasets of the paper (Stocks, Demonstrations, Crowd, Genomics).
//! * [`eval`] — metrics, the split/repetition protocol, and table formatting.
//! * [`optim`] / [`graph`] — the optimization and factor-graph substrates.
//!
//! ## Quick start: fit once, predict many times
//!
//! ```
//! use slimfast::prelude::*;
//!
//! // Three articles make conflicting claims about gene–disease associations.
//! let mut builder = DatasetBuilder::new();
//! builder.observe("article-1", "GIGYF2/Parkinson", "false").unwrap();
//! builder.observe("article-2", "GIGYF2/Parkinson", "false").unwrap();
//! builder.observe("article-3", "GIGYF2/Parkinson", "true").unwrap();
//! builder.observe("article-1", "GBA/Parkinson", "true").unwrap();
//! builder.observe("article-3", "GBA/Parkinson", "true").unwrap();
//! let dataset = builder.build();
//!
//! // Limited ground truth: we know GBA is truly associated with Parkinson's.
//! let mut truth = GroundTruth::empty(dataset.num_objects());
//! truth.set(dataset.object_id("GBA/Parkinson").unwrap(), dataset.value_id("true").unwrap());
//!
//! // Domain knowledge about the sources (publication metadata).
//! let mut features = FeatureMatrixBuilder::new();
//! features.set_flag(dataset.source_id("article-1").unwrap(), "Citations=High");
//! features.set_flag(dataset.source_id("article-3").unwrap(), "Citations=High");
//! features.set_flag(dataset.source_id("article-2").unwrap(), "Study=GWAS");
//! let features = features.build(dataset.num_sources());
//!
//! // Phase 1 — fit: all learning happens here, once.
//! let estimator = SlimFast::new(SlimFastConfig::default());
//! let input = FusionInput::new(&dataset, &features, &truth);
//! let fitted = estimator.fit(&input);
//!
//! // Phase 2 — predict: the fitted model answers queries with zero retraining,
//! // including on datasets that grew by a delta of new claims.
//! let assignment = fitted.predict(&dataset, &features);
//! let gigyf2 = dataset.object_id("GIGYF2/Parkinson").unwrap();
//! assert!(assignment.get(gigyf2).is_some());
//! assert!(fitted.source_accuracies().is_some());
//! let posterior = fitted.posterior(&dataset, &features, gigyf2);
//! assert_eq!(posterior.len(), 2);
//!
//! // One-shot `fuse` is still available for every estimator (fuse = fit + predict).
//! let output = estimator.fuse(&input);
//! assert_eq!(output.assignment.get(gigyf2), assignment.get(gigyf2));
//! ```
//!
//! ## Persistence and incremental serving
//!
//! Fitted SLiMFast models serialize to a dependency-free versioned binary format
//! ([`core::SlimFastModel::to_bytes`] / [`core::SlimFastModel::from_bytes`]), and
//! [`core::FusionEngine`] wraps a fitted model into a serving loop that ingests new
//! claims and labels, answers posterior queries without retraining, and refits per a
//! [`core::RefitPolicy`] (always, every N claims, or when the Section 4.2 error bound
//! drifts).
//!
//! The full serving state persists as one columnar snapshot bundle
//! ([`core::ModelSnapshot::write_to_file`]): the model, the compacted dataset written
//! as contiguous columnar streams ([`data::snapshot`]), the feature matrix, and the
//! precompiled trust table — versioned, checksummed, and written atomically.
//! [`core::ServingEngine::from_snapshot`] cold-starts a serving tier from the bundle
//! without retraining, serving posteriors bitwise-identical to the pre-save engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use slimfast_baselines as baselines;
pub use slimfast_core as core;
pub use slimfast_data as data;
pub use slimfast_datagen as datagen;
pub use slimfast_eval as eval;
pub use slimfast_graph as graph;
pub use slimfast_optim as optim;

/// The most commonly used types, re-exported for `use slimfast::prelude::*`.
///
/// Note: [`FusionEstimator`](slimfast_data::FusionEstimator) and
/// [`FusionMethod`](slimfast_data::FusionMethod) both expose a `name` method (the
/// blanket shim keeps them in agreement); with both traits in scope, call it as
/// `FusionEstimator::name(&m)`.
pub mod prelude {
    pub use slimfast_baselines::{Accu, Catd, Counts, MajorityVote, Sstf, TruthFinder};
    pub use slimfast_core::{
        FittedSlimFast, FusionEngine, HealthReport, HealthState, LearnerChoice, ModelSnapshot,
        OptimizerDecision, ParameterSpace, RefitPolicy, RetryPolicy, ServingEngine, ServingReader,
        ServingStats, SlimFast, SlimFastConfig, SlimFastModel, TrainingSnapshot, WindowConfig,
        MODEL_FORMAT_VERSION, SNAPSHOT_FORMAT_VERSION,
    };
    pub use slimfast_data::{
        build_claims, read_observations_csv, Dataset, DatasetBuilder, DatasetStats, FeatureMatrix,
        FeatureMatrixBuilder, FittedFusion, FusionEstimator, FusionInput, FusionMethod,
        FusionOutput, GroundTruth, NamedObservation, ObjectId, SnapshotDir, SourceAccuracies,
        SourceId, Split, SplitPlan, TruthAssignment, ValueId,
    };
    pub use slimfast_datagen::{DatasetKind, SyntheticConfig, SyntheticInstance};
    pub use slimfast_eval::{standard_lineup, ExperimentProtocol};
}
