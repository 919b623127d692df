//! # slimfast-datagen
//!
//! Fusion-instance generators for the SLiMFast workspace.
//!
//! Two families of generators are provided:
//!
//! * [`synthetic`] — the fully parameterized generator behind Example 6 / Figure 4 of the
//!   paper: a configurable number of sources and objects, controllable average source
//!   accuracy, observation density, domain size, feature predictiveness, and optional
//!   copying structure. Every instance records the *true* source accuracies so estimation
//!   error can be measured exactly.
//! * [`datasets`] — statistically matched simulators of the four real-world datasets of
//!   Table 1 (Stocks, Demonstrations, Crowd, Genomics). The raw datasets are proprietary or
//!   hosted behind third-party services, so we reproduce their published statistics
//!   (source/object/observation counts, density, average accuracy, feature families) and
//!   the structural properties the evaluation leans on (dense low-accuracy sources for
//!   Stocks, correlated copying news sources for Demonstrations, independent crowd workers
//!   for Crowd, extreme sparsity for Genomics).
//!
//! All generation is deterministic given a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod dist;
pub mod synthetic;

pub use datasets::{crowd, demonstrations, genomics, stocks, DatasetKind};
pub use synthetic::{
    generate_claims, AccuracyModel, ClaimsSpec, CopyingModel, FeatureModel, ObservationPattern,
    SyntheticConfig, SyntheticInstance,
};
