//! Configuration of the SLiMFast learner.

use slimfast_optim::{LearningRate, Penalty, SgdConfig};

/// Which learning algorithm estimates the model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LearnerChoice {
    /// Let SLiMFast's optimizer (Section 4.3) decide between ERM and EM.
    #[default]
    Auto,
    /// Always use empirical risk minimization on the labelled objects.
    Erm,
    /// Always use expectation maximization over all objects (semi-supervised when labels
    /// are present).
    Em,
}

/// Configuration of EM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Maximum number of E/M iterations.
    pub max_iterations: usize,
    /// Convergence tolerance: EM stops once no posterior `P(T_o = d)` changes by this much
    /// or more between consecutive E-steps.
    pub tolerance: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            max_iterations: 25,
            tolerance: 1e-3,
        }
    }
}

/// When the incremental serving engine ([`crate::engine::FusionEngine`]) retrains its
/// model as new claims stream in.
///
/// Inference against a fitted model stays valid as the dataset grows — the engine only
/// needs to retrain when the accumulated delta has moved the instance far enough from
/// the one the model was fitted on. The policies trade freshness against amortized cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefitPolicy {
    /// Never retrain automatically; the caller refits explicitly.
    Never,
    /// Retrain after every ingested claim (maximal freshness, no amortization).
    Always,
    /// Retrain once `n` claims have accumulated since the last fit.
    EveryNClaims(usize),
    /// Retrain when the relative change in the Section 4.2 error rate of the fitted
    /// model (Theorem 1/2 for ERM, Theorem 3 for EM — see [`crate::bounds`]) since fit
    /// time exceeds this threshold. A threshold of `0.1` refits whenever the bound
    /// drifted by more than 10%.
    ///
    /// Note the asymmetry inherited from the theorems: the EM rate moves with every
    /// claim (scale and density change), but the ERM rate depends only on `|K|` and
    /// `|G|`, so for an ERM-fitted model this policy reacts to new *labels* and not to
    /// unlabelled claims — pair it with [`RefitPolicy::EveryNClaims`]-style manual
    /// refits if unlabelled volume alone should trigger retraining.
    DriftThreshold(f64),
}

impl Default for RefitPolicy {
    fn default() -> Self {
        Self::EveryNClaims(1024)
    }
}

/// Sliding-window configuration of the incremental serving engine
/// ([`crate::engine::FusionEngine`]): source accuracies are learned over a moving
/// horizon of the most recent claims instead of the full history.
///
/// When a window is set (see `FusionEngine::with_window`), every ingested claim that
/// pushes the live claim count past `horizon_claims` ages out the oldest live claim via
/// the dataset's O(touched rows) eviction path; tombstones and append deltas are folded
/// into the base CSR arrays by periodic compaction governed by `max_dead_fraction`, so
/// steady-state memory stays proportional to the horizon, not the stream length. Refits
/// recompile the training plan over the *live* claims only — evicted history has no
/// weight in the next model.
///
/// # Interaction with [`RefitPolicy::DriftThreshold`]
///
/// Windowing and the drift policy compose naturally: evictions move the live scale
/// `|S|·|O|` and density of the instance, which moves the Section 4.2 EM rate
/// ([`crate::bounds::model_rate`]) exactly like appends do — so a window that slides
/// onto differently-shaped traffic (new sources, narrower object set) raises the drift
/// statistic and triggers a retrain on the windowed data. The ERM caveat on
/// [`RefitPolicy::DriftThreshold`] still applies: the ERM rate only reacts to labels,
/// and a sliding window does not remove labels, so for ERM-fitted models pair the
/// window with [`RefitPolicy::EveryNClaims`] to guarantee the model eventually forgets
/// evicted history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Maximum number of live claims retained; older claims are evicted as new ones
    /// arrive (clamped to at least 1).
    pub horizon_claims: usize,
    /// Compaction trigger: fold the delta log into the base arrays once tombstoned
    /// claims exceed this fraction of the live claims (clamped to a small absolute
    /// floor so tiny windows don't compact on every claim).
    pub max_dead_fraction: f64,
    /// Eviction granularity (clamped to at least 1). With a batch of `B > 1` the
    /// engine lets the live claim count overshoot the horizon by up to `B − 1` claims
    /// and then retires the whole backlog with one `Dataset::evict_batch` call — one
    /// overlay-row clone and one domain recompute per *touched row per cycle* instead
    /// of per evicted claim, which is the difference between O(row²) and O(row) work
    /// when a hot object ages out many claims. The default of `1` keeps the exact
    /// claim-per-claim horizon (never more than `horizon_claims` live claims).
    pub eviction_batch: usize,
}

impl WindowConfig {
    /// A window keeping the most recent `horizon_claims` claims, with the default
    /// compaction trigger and claim-per-claim eviction.
    pub fn new(horizon_claims: usize) -> Self {
        Self {
            horizon_claims,
            ..Self::default()
        }
    }

    /// Returns a copy that retires evictions in batches of `eviction_batch` (see the
    /// field docs for the overshoot trade-off).
    pub fn with_eviction_batch(mut self, eviction_batch: usize) -> Self {
        self.eviction_batch = eviction_batch;
        self
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            horizon_claims: 1 << 20,
            max_dead_fraction: 0.25,
            eviction_batch: 1,
        }
    }
}

/// Full configuration of a SLiMFast run.
#[derive(Debug, Clone, PartialEq)]
pub struct SlimFastConfig {
    /// Learning-algorithm selection policy.
    pub learner: LearnerChoice,
    /// SGD epochs used by the ERM learner.
    pub erm_epochs: usize,
    /// Regularization applied to all weights (sources and features). ERM applies all of
    /// it. EM's exact M-step uses only the L2 part, floored at
    /// [`crate::m_step::MIN_L2`], and ignores an L1 part.
    pub penalty: Penalty,
    /// Step-size schedule of the ERM learner's SGD.
    pub learning_rate: LearningRate,
    /// EM-specific settings.
    pub em: EmConfig,
    /// Threshold `τ` of Algorithm 2: when `√(|K|/|G|)·log|G|` falls below it, ERM is chosen
    /// without further analysis.
    pub optimizer_threshold: f64,
    /// Seed for all stochastic components (the SGD shuffles of ERM, including EM's ERM
    /// warm start).
    pub seed: u64,
    /// Worker threads for the sharded E-step. `0` (the default) resolves the
    /// `SLIMFAST_THREADS` environment variable, then the machine's available
    /// parallelism (see [`crate::exec`]). Fits are bitwise-identical at any thread
    /// count; this knob only changes wall-clock time. ERM's SGD runs on the calling
    /// thread, with the batch size [`slimfast_optim::auto_batch_size`] picks from the
    /// number of labelled objects.
    pub threads: usize,
}

impl Default for SlimFastConfig {
    fn default() -> Self {
        Self {
            learner: LearnerChoice::Auto,
            erm_epochs: 80,
            penalty: Penalty::L2(1e-4),
            learning_rate: LearningRate::InvSqrt(0.5),
            em: EmConfig::default(),
            optimizer_threshold: 0.1,
            seed: 0,
            threads: 0,
        }
    }
}

impl SlimFastConfig {
    /// The SGD configuration used by the ERM learner.
    pub fn erm_sgd(&self) -> SgdConfig {
        SgdConfig {
            epochs: self.erm_epochs,
            learning_rate: self.learning_rate,
            penalty: self.penalty,
            seed: self.seed,
            ..SgdConfig::default()
        }
    }

    /// Returns a copy that always runs ERM.
    pub fn with_erm(mut self) -> Self {
        self.learner = LearnerChoice::Erm;
        self
    }

    /// Returns a copy that always runs EM.
    pub fn with_em(mut self) -> Self {
        self.learner = LearnerChoice::Em;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with an explicit worker-thread count (`0` = auto-resolve from
    /// `SLIMFAST_THREADS` / available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let config = SlimFastConfig::default();
        assert_eq!(config.learner, LearnerChoice::Auto);
        assert!(config.erm_epochs > 0);
        assert!(config.em.max_iterations > 0);
        assert!(config.optimizer_threshold > 0.0);
    }

    #[test]
    fn sgd_configs_reflect_the_settings() {
        let config = SlimFastConfig {
            erm_epochs: 7,
            seed: 11,
            ..Default::default()
        };
        assert_eq!(config.erm_sgd().epochs, 7);
        assert_eq!(config.erm_sgd().seed, 11);
    }

    #[test]
    fn builder_style_overrides_work() {
        let config = SlimFastConfig::default().with_erm().with_seed(5);
        assert_eq!(config.learner, LearnerChoice::Erm);
        assert_eq!(config.seed, 5);
        assert_eq!(
            SlimFastConfig::default().with_em().learner,
            LearnerChoice::Em
        );
    }
}
