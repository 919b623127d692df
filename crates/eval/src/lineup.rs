//! The method line-ups evaluated in Section 5.

use slimfast_baselines::{Accu, Catd, Counts, Sstf};
use slimfast_core::{SlimFast, SlimFastConfig};
use slimfast_data::FusionEstimator;

/// A fusion method registered with the harness, together with whether it receives the
/// instance's domain-specific features (the "Sources-*" variants run without them).
///
/// Methods are held as two-phase estimators so the runner can fit once per split and
/// reuse the fitted model for every metric; the one-shot `fuse` interface remains
/// available through the blanket `FusionMethod` shim.
pub struct MethodEntry {
    /// The method implementation.
    pub method: Box<dyn FusionEstimator>,
    /// Whether domain features are passed to the method.
    pub use_features: bool,
}

impl MethodEntry {
    /// A method that sees the domain features.
    pub fn with_features(method: impl FusionEstimator + 'static) -> Self {
        Self {
            method: Box::new(method),
            use_features: true,
        }
    }

    /// A method that runs without domain features.
    pub fn without_features(method: impl FusionEstimator + 'static) -> Self {
        Self {
            method: Box::new(method),
            use_features: false,
        }
    }

    /// The method's display name.
    pub fn name(&self) -> &str {
        FusionEstimator::name(&self.method)
    }
}

/// The seven methods of Table 2: SLiMFast (optimizer-driven), Sources-ERM, Sources-EM
/// (discriminative, no features), Counts, ACCU (generative), CATD, SSTF (iterative).
pub fn standard_lineup(config: &SlimFastConfig) -> Vec<MethodEntry> {
    vec![
        MethodEntry::with_features(SlimFast::new(config.clone())),
        MethodEntry::without_features(SlimFast::erm(config.clone()).with_name("Sources-ERM")),
        MethodEntry::without_features(SlimFast::em(config.clone()).with_name("Sources-EM")),
        MethodEntry::without_features(Counts::default()),
        MethodEntry::without_features(Accu::default()),
        MethodEntry::without_features(Catd::default()),
        MethodEntry::without_features(Sstf::default()),
    ]
}

/// The probabilistic methods of Table 3 (those that estimate source accuracies):
/// SLiMFast, Sources-ERM, Sources-EM, Counts, ACCU.
pub fn probabilistic_lineup(config: &SlimFastConfig) -> Vec<MethodEntry> {
    vec![
        MethodEntry::with_features(SlimFast::new(config.clone())),
        MethodEntry::without_features(SlimFast::erm(config.clone()).with_name("Sources-ERM")),
        MethodEntry::without_features(SlimFast::em(config.clone()).with_name("Sources-EM")),
        MethodEntry::without_features(Counts::default()),
        MethodEntry::without_features(Accu::default()),
    ]
}

/// The SLiMFast variants compared by the optimizer evaluation of Table 4:
/// SLiMFast-ERM, SLiMFast-EM, and the optimizer-driven SLiMFast.
pub fn slimfast_variants(config: &SlimFastConfig) -> Vec<MethodEntry> {
    vec![
        MethodEntry::with_features(SlimFast::erm(config.clone())),
        MethodEntry::with_features(SlimFast::em(config.clone())),
        MethodEntry::with_features(SlimFast::new(config.clone())),
    ]
}

/// An end-to-end scenario registered with the harness — unlike a [`MethodEntry`],
/// which the table runner fits on static splits, a scenario drives the full serving
/// stack (bulk load, incremental engine, windowing) and reports stream
/// bookkeeping instead of split metrics.
pub struct ScenarioEntry {
    /// Display name of the scenario.
    pub name: &'static str,
    /// One-line description shown alongside results.
    pub description: &'static str,
    /// Runs the scenario for a learner config and stream seed.
    pub run: fn(&SlimFastConfig, u64) -> crate::stream::WindowedStreamReport,
}

/// The serving-path scenarios evaluated next to the paper's tables. Currently the
/// windowed-stream scenario: bulk load, then sliding-window fusion over a
/// drifting claim stream (see [`crate::stream`]).
pub fn scenario_lineup() -> Vec<ScenarioEntry> {
    vec![ScenarioEntry {
        name: "windowed-stream",
        description: "bulk load + sliding-window fusion over a drifting claim stream",
        run: crate::stream::quick_windowed_stream,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineups_have_the_papers_method_counts_and_names() {
        let config = SlimFastConfig::default();
        let standard = standard_lineup(&config);
        assert_eq!(standard.len(), 7);
        let names: Vec<&str> = standard.iter().map(MethodEntry::name).collect();
        assert_eq!(
            names,
            vec![
                "SLiMFast",
                "Sources-ERM",
                "Sources-EM",
                "Counts",
                "ACCU",
                "CATD",
                "SSTF"
            ]
        );
        assert!(standard[0].use_features);
        assert!(!standard[1].use_features);

        assert_eq!(probabilistic_lineup(&config).len(), 5);
        let variants = slimfast_variants(&config);
        let names: Vec<&str> = variants.iter().map(MethodEntry::name).collect();
        assert_eq!(names, vec!["SLiMFast-ERM", "SLiMFast-EM", "SLiMFast"]);
    }

    #[test]
    fn scenario_lineup_includes_the_windowed_stream() {
        let scenarios = scenario_lineup();
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        assert!(names.contains(&"windowed-stream"));
        let report = (scenarios[0].run)(&SlimFastConfig::default(), 17);
        assert!(report.evictions > 0);
        assert!(!report.final_weights.is_empty());
    }
}
