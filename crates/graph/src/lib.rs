//! # slimfast-graph
//!
//! A small factor-graph engine standing in for the DeepDive / DimmWitted substrate the
//! paper builds on (Section 3.2, "Compilation"). SLiMFast compiles its logistic-regression
//! model into a factor graph, learns factor weights with SGD, and answers queries with
//! Gibbs sampling; this crate provides those three capabilities for categorical variables:
//!
//! * [`graph::FactorGraph`] — categorical variables (latent or evidence), weighted factors
//!   ([`graph::FactorKind::Indicator`] for per-observation logistic-regression factors and
//!   [`graph::FactorKind::Equality`] for pairwise extensions such as copying sources), and
//!   tied weights shared across factors.
//! * [`gibbs`] — single- and multi-chain Gibbs sampling producing per-variable marginals
//!   and MAP assignments.
//! * [`learning`] — conditional-likelihood SGD weight learning over evidence variables,
//!   the same learning rule DimmWitted applies.
//!
//! The engine is deliberately restricted to what data fusion needs (categorical variables,
//! log-linear factors); it is not a general PGM toolkit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gibbs;
pub mod graph;
pub mod learning;

pub use gibbs::{GibbsConfig, Marginals};
pub use graph::{Factor, FactorGraph, FactorId, FactorKind, VariableId, WeightId};
pub use learning::{learn_weights, LearningConfig};
