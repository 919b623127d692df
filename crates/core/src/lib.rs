//! # slimfast-core
//!
//! The SLiMFast data-fusion framework (Joglekar et al., SIGMOD 2017): data fusion expressed
//! as statistical learning over a *discriminative* probabilistic model.
//!
//! ## The model
//!
//! For every object `o` the posterior over its candidate values `d ∈ D_o` is a logistic
//! regression over the sources' claims (Equations 1–4 of the paper):
//!
//! ```text
//! P(T_o = d | Ω; w) ∝ exp( Σ_{(o,s) ∈ Ω} (w_s + Σ_k w_k f_{s,k}) · 1[v_{o,s} = d] )
//! A_s = logistic(w_s + Σ_k w_k f_{s,k})          (the source-accuracy model, Eq. 3)
//! ```
//!
//! [`model::SlimFastModel`] holds the parameter vector (one weight per source plus one per
//! domain feature) and answers both queries: the posterior over object values and the
//! estimated accuracy of every source.
//!
//! ## Learning
//!
//! * [`erm`] — empirical risk minimization on the labelled objects (convex, SGD); used when
//!   ground truth is plentiful (Theorems 1–2 bound its error by `O(√(|K|/|G|) log|G|)`).
//! * [`em`] — expectation maximization when ground truth is scarce: alternates a posterior
//!   E-step over unlabelled objects with a weighted M-step (Theorem 3 bounds its error in
//!   terms of the source accuracies and the observation density).
//! * [`m_step`] — EM's M-step as an exact Newton solve over per-source sufficient
//!   statistics (claim counts and summed correctness targets).
//! * [`optimizer`] — SLiMFast's optimizer (Section 4.3, Algorithms 1–2): decides between
//!   ERM and EM by comparing information units, estimating the average source accuracy
//!   from the pairwise agreement matrix via rank-one matrix completion.
//!
//! The top-level entry point is [`slimfast::SlimFast`], which implements the two-phase
//! [`slimfast_data::FusionEstimator`] contract — [`slimfast_data::FusionEstimator::fit`]
//! wires compilation, the optimizer, and learning together exactly as Figure 3 of the
//! paper describes, and the returned [`slimfast::FittedSlimFast`] artifact serves
//! predictions, posteriors, and source accuracies. The one-shot
//! [`slimfast_data::FusionMethod`] interface (`fuse = fit + predict`) comes for free
//! through a blanket impl.
//!
//! ## Serving
//!
//! * [`model::SlimFastModel::to_bytes`] / [`model::SlimFastModel::from_bytes`] —
//!   dependency-free versioned binary persistence of fitted models.
//! * [`engine::FusionEngine`] — an incremental serving engine that holds a fitted
//!   model, ingests deltas of new claims and labels, answers posterior queries without
//!   retraining, and refits per a [`config::RefitPolicy`] (always / every-N-claims /
//!   drift of the Section 4.2 bound).
//! * [`serve::ServingEngine`] — the concurrent serving tier over the engine:
//!   epoch-swapped immutable [`serve::ModelSnapshot`]s served lock-free to any number
//!   of reader threads, a single-writer ingest path, each refit trained on a background
//!   thread of its own, and a batched posterior API that fans large queries over the
//!   [`exec`] lanes.
//! * [`serve::ModelSnapshot::write_to_file`] / [`serve::ServingEngine::from_snapshot`]
//!   — full-state persistence and cold start: one versioned, checksummed bundle holds
//!   the fitted model, the compacted columnar dataset, the feature matrix, and the
//!   precompiled trust table, and a restored snapshot serves bitwise-identical
//!   posteriors without retraining.
//!
//! ## Extensions
//!
//! * [`copying`] — pairwise copier detection and copy features (Appendix D, Figure 8).
//! * [`explain`] — lasso-path feature-importance analysis (Section 5.3.1, Figures 6 & 9).
//! * [`source_init`] — source-quality initialization for unseen sources (Section 5.3.2,
//!   Figure 7).
//! * [`bounds`] — the theoretical error bounds of Section 4.2 as computable quantities.
//! * [`compile`] — compilation of the model onto the factor-graph substrate
//!   (`slimfast-graph`), mirroring the paper's DeepDive deployment; used to separate
//!   compilation from learning-and-inference time (Table 6) and as a cross-check of the
//!   closed-form inference path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod compile;
pub mod config;
pub mod copying;
pub mod em;
pub mod engine;
pub mod erm;
pub mod exec;
pub mod explain;
pub mod m_step;
pub mod model;
pub mod optimizer;
pub mod serve;
pub mod slimfast;
pub mod source_init;

pub use compile::CompiledProblem;
pub use config::{LearnerChoice, RefitPolicy, SlimFastConfig, WindowConfig};
pub use engine::{FusionEngine, TrainingSnapshot};
pub use model::{ParameterSpace, SlimFastModel, MODEL_FORMAT_VERSION};
pub use optimizer::{OptimizerDecision, OptimizerReport};
pub use serve::{
    HealthReport, HealthState, ModelSnapshot, RetryPolicy, ServingEngine, ServingReader,
    ServingStats, SNAPSHOT_FORMAT_VERSION,
};
pub use slimfast::{FittedSlimFast, SlimFast};
