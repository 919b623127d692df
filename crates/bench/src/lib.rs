//! # slimfast-bench
//!
//! The benchmark harness that regenerates every table and figure of the SLiMFast paper.
//!
//! Each experiment is a binary under `src/bin/` (run with
//! `cargo run -p slimfast-bench --bin <name> --release`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — dataset statistics of the four simulated datasets |
//! | `table2` | Table 2 — object-value accuracy of all methods across datasets and training fractions |
//! | `table3` | Table 3 — source-accuracy estimation error of the probabilistic methods |
//! | `table4` | Table 4 — optimizer decisions (ERM vs EM) plus the τ-robustness sweep |
//! | `table5` | Table 5 — wall-clock runtimes of all methods |
//! | `table6` | Table 6 — end-to-end vs learning-and-inference-only runtime (factor-graph path) |
//! | `fig4` | Figure 4 — EM vs ERM on synthetic data (training data / density / accuracy sweeps) |
//! | `fig5` | Figure 5 — the ERM/EM tradeoff-space map |
//! | `fig6` | Figure 6 — lasso path of the Stocks features |
//! | `fig7` | Figure 7 — source-quality initialization error vs fraction of sources seen |
//! | `fig8` | Figure 8 — copying-source extension on Demonstrations |
//! | `fig9` | Figure 9 — lasso path of the Crowd features |
//!
//! Every binary honours the `SLIMFAST_SCALE` environment variable: `full` runs the paper's
//! protocol (five repetitions, all training fractions), the default `quick` runs a reduced
//! grid that finishes in a few minutes on a laptop. Criterion micro-benchmarks live under
//! `benches/`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use slimfast_core::SlimFastConfig;
use slimfast_datagen::{DatasetKind, SyntheticInstance};
use slimfast_eval::runner::ExperimentProtocol;

/// Scale at which an experiment binary runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced grid: fewer repetitions and training fractions (default).
    Quick,
    /// The paper's full protocol.
    Full,
}

/// Reads the scale from the `SLIMFAST_SCALE` environment variable (`quick`/`full`).
pub fn scale_from_env() -> Scale {
    match std::env::var("SLIMFAST_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "full" => Scale::Full,
        _ => Scale::Quick,
    }
}

/// The experiment protocol corresponding to a scale.
pub fn protocol_for(scale: Scale) -> ExperimentProtocol {
    match scale {
        Scale::Full => ExperimentProtocol::default(),
        Scale::Quick => ExperimentProtocol {
            train_fractions: vec![0.001, 0.01, 0.05, 0.10, 0.20],
            repetitions: 2,
            seed: 42,
        },
    }
}

/// The SLiMFast configuration used by the experiment binaries. `Quick` reduces the SGD/EM
/// budgets to keep the grid fast; `Full` matches the defaults used in the unit tests.
pub fn slimfast_config_for(scale: Scale) -> SlimFastConfig {
    match scale {
        Scale::Full => SlimFastConfig::default(),
        Scale::Quick => SlimFastConfig {
            erm_epochs: 40,
            em: slimfast_core::config::EmConfig {
                max_iterations: 10,
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

/// Generates all four simulated evaluation datasets with the harness seed.
pub fn all_datasets(seed: u64) -> Vec<SyntheticInstance> {
    DatasetKind::all()
        .iter()
        .map(|kind| kind.generate(seed))
        .collect()
}

/// Standard seed used by the experiment binaries so results are reproducible run to run.
pub const HARNESS_SEED: u64 = 20170514;

/// The gap between two accuracies in percent of the better one: 0 when both are 0, and
/// at most 100 for accuracies in `[0, 1]`. `table4` prints it as `Diff(%)` and calls a
/// learner choice within 1% a tie.
pub fn accuracy_diff_pct(a: f64, b: f64) -> f64 {
    let best = a.max(b);
    if best > 0.0 {
        (a - b).abs() / best * 100.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_protocol_is_smaller_than_full() {
        let quick = protocol_for(Scale::Quick);
        let full = protocol_for(Scale::Full);
        assert!(quick.repetitions <= full.repetitions);
        assert_eq!(full.repetitions, 5);
        assert_eq!(full.train_fractions.len(), 5);
    }

    #[test]
    fn scale_defaults_to_quick() {
        // The variable is not set in the test environment.
        if std::env::var("SLIMFAST_SCALE").is_err() {
            assert_eq!(scale_from_env(), Scale::Quick);
        }
    }

    #[test]
    fn accuracy_diffs_are_relative_to_the_better_accuracy_and_bounded() {
        assert_eq!(accuracy_diff_pct(0.0, 0.0), 0.0);
        assert_eq!(accuracy_diff_pct(0.0, 0.75), 100.0);
        assert_eq!(accuracy_diff_pct(0.75, 0.0), 100.0);
        assert_eq!(accuracy_diff_pct(0.6, 0.6), 0.0);
        assert!((accuracy_diff_pct(0.9, 0.8) - 100.0 / 9.0).abs() < 1e-12);
        assert_eq!(accuracy_diff_pct(0.8, 0.9), accuracy_diff_pct(0.9, 0.8));
        // Within the 1% tie rule: 0.995 against 1.0 is a 0.5% gap.
        assert!((accuracy_diff_pct(1.0, 0.995) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn all_datasets_cover_the_four_table1_rows() {
        let datasets = all_datasets(1);
        let names: Vec<&str> = datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["Stocks", "Demonstrations", "Crowd", "Genomics"]);
    }
}
