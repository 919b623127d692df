//! The experimental protocol of Section 5.1: random train/test splits at fixed training
//! fractions, several repetitions per configuration, averages of both metrics, and
//! wall-clock timing (for Table 5).
//!
//! The grid is embarrassingly parallel: every (method, training fraction, split) run is
//! independent, so the runner fans the flattened run list out over the deterministic
//! executor ([`slimfast_core::exec`]) and aggregates the outcomes in run order. Grid
//! cells run *inside* executor lanes, so the nesting guard collapses each cell's inner
//! fit to one thread instead of oversubscribing the machine quadratically. Metric results are identical at any
//! `SLIMFAST_THREADS` setting; only the per-run wall-clock timings vary with machine
//! load.

use std::time::Instant;

use slimfast_core::exec;
use slimfast_data::{FeatureMatrix, FittedFusion, FusionInput, GroundTruth, Split, SplitPlan};
use slimfast_datagen::SyntheticInstance;

use crate::lineup::MethodEntry;
use crate::metrics::source_accuracy_error;

/// The protocol parameters: which training fractions to sweep and how many random splits to
/// average per fraction. The paper uses fractions {0.1, 1, 5, 10, 20}% and five repetitions.
#[derive(Debug, Clone)]
pub struct ExperimentProtocol {
    /// Training fractions (e.g. `0.01` for 1%).
    pub train_fractions: Vec<f64>,
    /// Number of random splits per fraction.
    pub repetitions: u64,
    /// Base seed for split generation.
    pub seed: u64,
}

impl Default for ExperimentProtocol {
    fn default() -> Self {
        Self {
            train_fractions: vec![0.001, 0.01, 0.05, 0.10, 0.20],
            repetitions: 5,
            seed: 42,
        }
    }
}

impl ExperimentProtocol {
    /// A faster protocol for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            train_fractions: vec![0.01, 0.10],
            repetitions: 2,
            seed: 42,
        }
    }

    /// The paper's training-data percentages as display strings.
    pub fn fraction_labels(&self) -> Vec<String> {
        self.train_fractions
            .iter()
            .map(|f| format!("{:.4}", f * 100.0))
            .collect()
    }
}

/// The averaged result of one (method, training-fraction) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Method name.
    pub method: String,
    /// Training fraction.
    pub train_fraction: f64,
    /// Mean accuracy for true object values over the held-out objects.
    pub object_accuracy: f64,
    /// Mean observation-weighted source-accuracy error (when the method reports
    /// accuracies and the instance supports evaluating them).
    pub source_error: Option<f64>,
    /// Mean wall-clock seconds per run (learning and inference only).
    pub runtime_secs: f64,
    /// Mean wall-clock seconds of the learning phase alone (`fit`), the Table 6 style
    /// cost split.
    pub fit_secs: f64,
    /// Mean wall-clock seconds of the inference phase alone (`predict`).
    pub predict_secs: f64,
}

/// The measurements of one (method, split) run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Accuracy for true object values over the held-out objects.
    pub object_accuracy: f64,
    /// Observation-weighted source-accuracy error, when available.
    pub source_error: Option<f64>,
    /// Wall-clock seconds of the learning phase (`fit`).
    pub fit_secs: f64,
    /// Wall-clock seconds of the inference phase (`predict`).
    pub predict_secs: f64,
}

/// All cells produced for one method across the protocol's training fractions.
#[derive(Debug, Clone)]
pub struct MethodSummary {
    /// Method name.
    pub method: String,
    /// One cell per training fraction, in protocol order.
    pub cells: Vec<CellResult>,
}

/// Runs one method on one prepared split: fits **once**, then reuses the fitted model
/// for both the assignment metric and the source-accuracy metric (and for the Table 6
/// style fit/predict cost split).
pub fn run_once(
    instance: &SyntheticInstance,
    entry: &MethodEntry,
    split: &Split,
    empty_features: &FeatureMatrix,
) -> RunOutcome {
    let features = if entry.use_features {
        &instance.features
    } else {
        empty_features
    };
    let train_truth = split.train_truth(&instance.truth);
    let input = FusionInput::new(&instance.dataset, features, &train_truth);
    let fit_start = Instant::now();
    let fitted = entry.method.fit(&input);
    let fit_secs = fit_start.elapsed().as_secs_f64();

    let predict_start = Instant::now();
    let assignment = fitted.predict(&instance.dataset, features);
    let predict_secs = predict_start.elapsed().as_secs_f64();

    let object_accuracy = assignment.accuracy_against(&instance.truth, &split.test);
    let source_error = fitted
        .source_accuracies()
        .and_then(|accs| source_accuracy_error(&instance.dataset, &instance.truth, accs));
    RunOutcome {
        object_accuracy,
        source_error,
        fit_secs,
        predict_secs,
    }
}

/// Runs every method of the line-up over the full protocol grid on one instance.
///
/// The full (method × fraction × repetition) run list is evaluated concurrently on the
/// process's worker threads; outcomes are averaged per cell in repetition order, so the
/// metric results match a sequential sweep exactly.
pub fn run_grid(
    instance: &SyntheticInstance,
    lineup: &[MethodEntry],
    protocol: &ExperimentProtocol,
) -> Vec<MethodSummary> {
    let empty_features = FeatureMatrix::empty(instance.dataset.num_sources());
    let fractions = &protocol.train_fractions;
    // With zero repetitions the grid is empty and every cell aggregates zero runs,
    // matching `run_cell` on the same protocol.
    let runs_per_cell = protocol.repetitions as usize;
    let cells_per_method = fractions.len();
    let total_runs = lineup.len() * cells_per_method * runs_per_cell;

    // One flat task per (method, fraction, repetition) triple, in row-major order.
    let outcomes = exec::map_parts(total_runs, exec::num_threads(), |task| {
        let (cell, rep) = (task / runs_per_cell, task % runs_per_cell);
        let (entry_idx, fraction_idx) = (cell / cells_per_method, cell % cells_per_method);
        let entry = &lineup[entry_idx];
        let plan = SplitPlan::new(fractions[fraction_idx], protocol.seed);
        plan.draw(&instance.truth, rep as u64)
            .ok()
            .map(|split| run_once(instance, entry, &split, &empty_features))
    });

    let mut summaries = Vec::with_capacity(lineup.len());
    let mut outcomes = outcomes.into_iter();
    for entry in lineup {
        let cells = fractions
            .iter()
            .map(|&fraction| {
                let cell_outcomes: Vec<Option<RunOutcome>> =
                    outcomes.by_ref().take(runs_per_cell).collect();
                aggregate_cell(entry.name(), fraction, cell_outcomes)
            })
            .collect();
        summaries.push(MethodSummary {
            method: entry.name().to_string(),
            cells,
        });
    }
    summaries
}

/// Runs one (method, training fraction) cell: `repetitions` random splits, evaluated
/// concurrently and averaged in repetition order.
pub fn run_cell(
    instance: &SyntheticInstance,
    entry: &MethodEntry,
    train_fraction: f64,
    protocol: &ExperimentProtocol,
    empty_features: &FeatureMatrix,
) -> CellResult {
    let plan = SplitPlan::new(train_fraction, protocol.seed);
    let reps = protocol.repetitions as usize;
    let outcomes = exec::map_parts(reps, exec::num_threads(), |rep| {
        plan.draw(&instance.truth, rep as u64)
            .ok()
            .map(|split| run_once(instance, entry, &split, empty_features))
    });
    aggregate_cell(entry.name(), train_fraction, outcomes)
}

/// Averages the outcomes of one cell's repetitions (in repetition order, so float
/// aggregation is reproducible).
fn aggregate_cell(
    method: &str,
    train_fraction: f64,
    outcomes: Vec<Option<RunOutcome>>,
) -> CellResult {
    let mut accuracy_sum = 0.0;
    let mut error_sum = 0.0;
    let mut error_count = 0usize;
    let mut fit_sum = 0.0;
    let mut predict_sum = 0.0;
    let mut runs = 0usize;
    for outcome in outcomes.into_iter().flatten() {
        accuracy_sum += outcome.object_accuracy;
        if let Some(err) = outcome.source_error {
            error_sum += err;
            error_count += 1;
        }
        fit_sum += outcome.fit_secs;
        predict_sum += outcome.predict_secs;
        runs += 1;
    }
    let runs_f = runs.max(1) as f64;
    CellResult {
        method: method.to_string(),
        train_fraction,
        object_accuracy: accuracy_sum / runs_f,
        source_error: (error_count > 0).then(|| error_sum / error_count as f64),
        runtime_secs: (fit_sum + predict_sum) / runs_f,
        fit_secs: fit_sum / runs_f,
        predict_secs: predict_sum / runs_f,
    }
}

/// Helper for unsupervised experiments: an empty ground truth covering the instance.
pub fn empty_truth(instance: &SyntheticInstance) -> GroundTruth {
    GroundTruth::empty(instance.dataset.num_objects())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineup::{standard_lineup, MethodEntry};
    use slimfast_baselines::MajorityVote;
    use slimfast_core::SlimFastConfig;
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};

    fn instance() -> SyntheticInstance {
        SyntheticConfig {
            name: "runner".into(),
            num_sources: 40,
            num_objects: 150,
            domain_size: 2,
            pattern: ObservationPattern::PerObjectExact(8),
            accuracy: AccuracyModel {
                mean: 0.7,
                spread: 0.1,
            },
            features: FeatureModel {
                num_predictive: 2,
                num_noise: 2,
                predictive_strength: 0.2,
            },
            copying: None,
            seed: 1,
        }
        .generate()
    }

    #[test]
    fn run_cell_averages_over_repetitions() {
        let inst = instance();
        let entry = MethodEntry::without_features(MajorityVote);
        let protocol = ExperimentProtocol {
            repetitions: 3,
            ..ExperimentProtocol::quick()
        };
        let empty = FeatureMatrix::empty(inst.dataset.num_sources());
        let cell = run_cell(&inst, &entry, 0.1, &protocol, &empty);
        assert_eq!(cell.method, "MajorityVote");
        assert!(cell.object_accuracy > 0.6 && cell.object_accuracy <= 1.0);
        assert!(
            cell.source_error.is_none(),
            "majority vote reports no accuracies"
        );
        assert!(cell.runtime_secs >= 0.0);
        assert!(
            (cell.fit_secs + cell.predict_secs - cell.runtime_secs).abs() < 1e-12,
            "the fit/predict split must add up to the total runtime"
        );
    }

    #[test]
    fn grid_covers_every_method_and_fraction() {
        let inst = instance();
        let config = SlimFastConfig {
            erm_epochs: 20,
            ..Default::default()
        };
        let lineup = standard_lineup(&config);
        let protocol = ExperimentProtocol {
            repetitions: 1,
            ..ExperimentProtocol::quick()
        };
        let summaries = run_grid(&inst, &lineup, &protocol);
        assert_eq!(summaries.len(), 7);
        for summary in &summaries {
            assert_eq!(summary.cells.len(), protocol.train_fractions.len());
            for cell in &summary.cells {
                assert!(
                    cell.object_accuracy > 0.4,
                    "{} too weak: {}",
                    cell.method,
                    cell.object_accuracy
                );
            }
        }
        // Probabilistic methods report a source error; CATD and SSTF do not.
        let by_name = |name: &str| summaries.iter().find(|s| s.method == name).unwrap();
        assert!(by_name("SLiMFast").cells[0].source_error.is_some());
        assert!(by_name("CATD").cells[0].source_error.is_none());
        assert!(by_name("SSTF").cells[0].source_error.is_none());
    }

    #[test]
    fn protocol_labels_match_fractions() {
        let protocol = ExperimentProtocol::default();
        assert_eq!(protocol.train_fractions.len(), 5);
        assert_eq!(protocol.fraction_labels()[0], "0.1000");
        assert_eq!(protocol.fraction_labels()[4], "20.0000");
    }
}
