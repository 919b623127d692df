//! # slimfast-eval
//!
//! The evaluation harness behind every table and figure of the SLiMFast paper:
//!
//! * [`metrics`] — the two headline metrics of Section 5.1: *accuracy for true object
//!   values* and the observation-weighted *error for estimated source accuracies*, plus the
//!   mean KL divergence used by Theorem 3.
//! * [`runner`] — the experimental protocol: draw random train/test splits at the paper's
//!   training fractions, fit every method once per split (reusing the fitted model for
//!   both metrics), average over repetitions, and record wall-clock time split into its
//!   learning and inference parts (Table 6 style).
//! * [`lineup`] — the method line-ups of the evaluation (the seven methods of Table 2, the
//!   probabilistic subset of Table 3, the SLiMFast variants of Table 4) and the
//!   serving-path scenario lineup.
//! * [`stream`] — the windowed-stream scenario: bulk load, then sliding-window
//!   fusion over a drifting claim stream through the incremental engine.
//! * [`serving`] — the serving scenario: the same drifting stream driven through the
//!   concurrent serving tier (epoch-swapped snapshots, background refits in flight,
//!   posterior queries answered throughout).
//! * [`tables`] — plain-text rendering of result grids in the layout of the paper's tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lineup;
pub mod metrics;
pub mod runner;
pub mod serving;
pub mod stream;
pub mod tables;

pub use lineup::{
    probabilistic_lineup, scenario_lineup, slimfast_variants, standard_lineup, MethodEntry,
    ScenarioEntry,
};
pub use metrics::{mean_kl_divergence, source_accuracy_error};
pub use runner::{CellResult, ExperimentProtocol, MethodSummary, RunOutcome};
pub use serving::{
    run_serving_stream, ServingPhaseStats, ServingScenarioConfig, ServingStreamReport,
};
pub use stream::{run_windowed_stream, PhaseStats, StreamScenarioConfig, WindowedStreamReport};
pub use tables::{format_accuracy_table, format_cost_split_table, format_error_table};
