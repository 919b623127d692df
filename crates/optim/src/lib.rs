//! # slimfast-optim
//!
//! Optimization substrate for the SLiMFast workspace.
//!
//! The paper learns its discriminative model with stochastic gradient descent (over
//! DeepDive's DimmWitted sampler); this crate provides the equivalent numerical machinery
//! in pure Rust:
//!
//! * [`sparse::SparseVec`] — sparse feature vectors used by every learner.
//! * [`schedule::LearningRate`] — step-size schedules for SGD.
//! * [`penalty::Penalty`] — `L1` / `L2` / elastic-net regularization, including the
//!   proximal (soft-thresholding) update that makes `L1` produce exactly-sparse weights,
//!   which Theorem 2's `√(k log|K|)` refinement and the lasso-path analysis rely on.
//! * [`exec`] — the deterministic parallel executor: fixed-chunk-grid primitives on
//!   `std::thread::scope` lanes whose results are bitwise-identical at any thread
//!   count.
//! * [`kernels`] — batched, bitwise-deterministic sigmoid/softmax/dot/scatter
//!   kernels over flat structure-of-arrays slices; every training and serving
//!   hot loop bottoms out here.
//! * [`sgd`] — a small SGD/AdaGrad engine over user-supplied stochastic objectives.
//! * [`logistic`] — binary logistic regression with hard or fractional targets.
//! * [`lasso`] — the lasso path (Section 5.3.1, Figures 6 and 9).
//! * [`matrix`] — rank-one matrix completion used by the optimizer to estimate the average
//!   source accuracy from the pairwise agreement matrix (Section 4.3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod kernels;
pub mod lasso;
pub mod logistic;
pub mod matrix;
pub mod penalty;
pub mod schedule;
pub mod sgd;
pub mod sparse;

pub use lasso::{lasso_path, LassoPath};
pub use logistic::{log_loss, sigmoid, softmax_in_place, BinaryExample, BinaryLogisticRegression};
pub use matrix::{rank_one_completion, AgreementMatrix};
pub use penalty::Penalty;
pub use schedule::LearningRate;
pub use sgd::{auto_batch_size, minimize, FitResult, SgdConfig, StochasticObjective};
pub use sparse::SparseVec;
