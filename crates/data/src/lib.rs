//! # slimfast-data
//!
//! Data model substrate for the SLiMFast data-fusion framework.
//!
//! This crate defines the vocabulary every other crate in the workspace speaks:
//!
//! * [`SourceId`], [`ObjectId`], [`ValueId`], [`FeatureId`] — dense integer handles for the
//!   entities of a fusion instance, produced by [`Interner`]s that map user-facing string
//!   names to handles.
//! * [`Observation`] — a single claim `(source, object, value)`.
//! * [`Dataset`] — the indexed collection of all observations of a fusion instance, with
//!   per-object and per-source adjacency, built through [`DatasetBuilder`].
//! * [`GroundTruth`] — the (possibly partial) set of known true object values, and
//!   [`TruthAssignment`] — the output of a fusion method.
//! * [`FeatureMatrix`] — per-source domain-specific features (Section 3.1 of the paper).
//! * [`Split`] / [`SplitPlan`] — reproducible train/test partitions of the ground truth.
//! * [`DatasetStats`] — the statistics reported in Table 1 of the paper.
//! * [`FusionEstimator`] / [`FittedFusion`] — the two-phase fit→predict contract
//!   implemented by SLiMFast and by every baseline, separating learning from inference
//!   so fitted models can be reused, persisted, and served incrementally.
//! * [`FusionMethod`] / [`FusionOutput`] — the one-shot `fuse` interface, provided for
//!   every estimator by a blanket impl (`fuse = fit + predict`) so the evaluation
//!   harness can treat all methods uniformly.
//!
//! The crate has no opinion about *how* fusion is performed; it only captures the shape of
//! the problem: conflicting observations over objects with single-truth semantics.
//!
//! ## Persistence
//!
//! Two complementary channels exist: human-auditable CSV ([`io`]) and the columnar
//! binary snapshot containers of [`snapshot`] — versioned, checksummed, and loaded
//! with one contiguous read per column straight into the CSR layouts. The low-level
//! wire vocabulary (varints, delta-encoded offsets, RLE blocks, FNV-1a checksums)
//! lives in [`mod@format`] and is shared with the model blobs of `slimfast-core`.
//!
//! ## Fault tolerance
//!
//! [`SnapshotDir`] rotates snapshots as numbered generations and recovers by scanning
//! newest→oldest past torn or corrupt files; [`read_observations_csv_lenient`]
//! quarantines malformed claim lines instead of aborting a load; and the [`faults`]
//! module provides the deterministic fault-injection layer (active only under the
//! `fault-injection` feature) that keeps those failure paths tested.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod error;
pub mod estimator;
pub mod faults;
pub mod features;
pub mod format;
pub mod fusion;
pub mod ids;
pub mod io;
pub mod observation;
pub mod snapshot;
pub mod split;
pub mod stats;
pub mod truth;

pub use dataset::{full_index_passes, Dataset, DatasetBuilder, StorageStats};
pub use error::DataError;
pub use estimator::{FittedFusion, FusionEstimator};
pub use faults::{FaultKind, FaultPlan, FaultScope};
pub use features::{FeatureMatrix, FeatureMatrixBuilder, FeatureValue};
pub use fusion::{FusionInput, FusionMethod, FusionOutput};
pub use ids::{FeatureId, Interner, ObjectId, SourceId, ValueId};
pub use io::{
    atomic_write, build_claims, read_features_csv, read_ground_truth_csv, read_observations_csv,
    read_observations_csv_lenient, read_observations_csv_sharded, write_ground_truth_csv,
    write_observations_csv, IngestReport, RejectedRow,
};
pub use observation::{NamedObservation, Observation};
pub use snapshot::{
    dataset_from_bytes, dataset_to_bytes, features_from_bytes, features_to_bytes,
    read_dataset_file, write_dataset_file, Recovered, SnapshotDir,
};
pub use split::{Split, SplitPlan};
pub use stats::DatasetStats;
pub use truth::{GroundTruth, SourceAccuracies, TruthAssignment};
