//! The incremental serving engine: a fitted SLiMFast model plus a live dataset that
//! grows by deltas of new claims, serving posterior queries without retraining.
//!
//! The paper's Figure 3 pipeline trains once and then answers inference queries; this
//! module extends that split across *time*, in the spirit of sliding-window fusion
//! (Lillis et al.) and the batch-update view of Dong et al.: new observations, objects,
//! sources, and labels stream in after the model was fitted, every query is answered
//! from the current data under the fitted parameters, and a [`RefitPolicy`] decides when
//! the accumulated delta justifies paying the training cost again — including a policy
//! driven by the drift of the Section 4.2 error bound ([`crate::bounds`]).
//!
//! Deltas ride the dataset's incremental CSR maintenance: each ingested claim lands in
//! the delta-log overlay in O(touched rows), a [`WindowConfig`] ages out claims past
//! the horizon via the matching eviction path, and compaction folds the accumulated
//! delta back into the base arrays periodically (and before every refit) — so neither
//! ingest nor windowing ever pays an O(dataset) rebuild per claim.

use slimfast_data::{
    DataError, Dataset, FeatureMatrix, FusionInput, GroundTruth, NamedObservation, ObjectId,
    SourceAccuracies, SourceId, TruthAssignment, ValueId,
};

use crate::bounds::{model_rate, relative_drift};
use crate::config::{RefitPolicy, WindowConfig};
use crate::model::SlimFastModel;
use crate::optimizer::OptimizerDecision;
use crate::slimfast::SlimFast;

/// Smallest accuracy margin `δ` assumed when estimating the Theorem 3 rate; prevents a
/// model whose accuracies sit at 0.5 from reporting an unusable infinite bound.
const MIN_ACCURACY_MARGIN: f64 = 0.05;

/// Compaction triggers ignore the configured dead/pending fractions below this many
/// claims: small engines serve fine out of the overlay, and compacting a toy window on
/// every claim would reintroduce the O(dataset) per-delta cost this module removes.
const COMPACT_FLOOR: usize = 4096;

/// A serving engine around one fitted SLiMFast model.
///
/// The engine owns the live fusion instance (observations, features, labels) and the
/// model fitted on it. Claims arrive through [`FusionEngine::observe`] /
/// [`FusionEngine::ingest`], labels through [`FusionEngine::label`]; queries
/// ([`FusionEngine::posterior`], [`FusionEngine::predict`], ...) always see the current
/// data but are answered under the fitted parameters — new sources fall back to the
/// model's uninformed prior until the next refit. Retraining happens explicitly via
/// [`FusionEngine::refit`] or automatically per the configured [`RefitPolicy`], and a
/// [`WindowConfig`] (see [`FusionEngine::with_window`]) restricts the live instance to
/// a sliding horizon of the most recent claims.
///
/// Ingested deltas go straight into the indexed dataset's overlay (O(touched rows) per
/// claim), so queries are `&self` and never pay a rebuild. The engine remains a
/// single-writer structure; for lock-free multi-threaded read serving, wrap it in a
/// [`crate::serve::ServingEngine`], which publishes immutable epoch-swapped snapshots
/// to reader threads and dispatches refits as background jobs, keeping this engine as
/// the single ingest/retrain loop.
///
/// ```
/// use slimfast_core::{FusionEngine, RefitPolicy, SlimFast, SlimFastConfig};
/// use slimfast_data::{DatasetBuilder, FeatureMatrix, GroundTruth};
///
/// let mut builder = DatasetBuilder::new();
/// builder.observe("alice", "sky", "blue").unwrap();
/// builder.observe("bob", "sky", "green").unwrap();
/// builder.observe("alice", "grass", "green").unwrap();
/// let dataset = builder.build();
/// let features = FeatureMatrix::empty(dataset.num_sources());
/// let mut truth = GroundTruth::empty(dataset.num_objects());
/// truth.set(
///     dataset.object_id("grass").unwrap(),
///     dataset.value_id("green").unwrap(),
/// );
///
/// let mut engine = FusionEngine::fit(
///     SlimFast::new(SlimFastConfig::default()),
///     dataset,
///     features,
///     truth,
///     RefitPolicy::Never,
/// );
/// // A new claim about a new object is served with zero retraining.
/// engine.observe("carol", "ocean", "blue").unwrap();
/// assert_eq!(engine.posterior("ocean").unwrap().len(), 1);
/// assert_eq!(engine.refit_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FusionEngine {
    estimator: SlimFast,
    policy: RefitPolicy,
    dataset: Dataset,
    features: FeatureMatrix,
    truth: GroundTruth,
    model: SlimFastModel,
    decision: OptimizerDecision,
    rate_at_fit: f64,
    claims_since_fit: usize,
    refits: usize,
    window: Option<WindowConfig>,
    evictions: usize,
}

impl FusionEngine {
    /// Trains `estimator` on the given instance and wraps the fitted model in an engine.
    pub fn fit(
        estimator: SlimFast,
        dataset: Dataset,
        features: FeatureMatrix,
        truth: GroundTruth,
        policy: RefitPolicy,
    ) -> Self {
        let (model, decision) = {
            let input = FusionInput::new(&dataset, &features, &truth);
            estimator.train(&input)
        };
        Self::assemble(estimator, dataset, features, truth, policy, model, decision)
    }

    /// Revives an already-trained model — typically one deserialized with
    /// [`SlimFastModel::from_bytes`] — into a serving engine without retraining.
    ///
    /// `decision` records which learner produced the model, so the drift policy can
    /// track the matching Section 4.2 rate.
    #[allow(clippy::too_many_arguments)]
    pub fn from_model(
        estimator: SlimFast,
        model: SlimFastModel,
        decision: OptimizerDecision,
        dataset: Dataset,
        features: FeatureMatrix,
        truth: GroundTruth,
        policy: RefitPolicy,
    ) -> Self {
        Self::assemble(estimator, dataset, features, truth, policy, model, decision)
    }

    fn assemble(
        estimator: SlimFast,
        dataset: Dataset,
        features: FeatureMatrix,
        truth: GroundTruth,
        policy: RefitPolicy,
        model: SlimFastModel,
        decision: OptimizerDecision,
    ) -> Self {
        let mut engine = Self {
            estimator,
            policy,
            dataset,
            features,
            truth,
            model,
            decision,
            rate_at_fit: f64::INFINITY,
            claims_since_fit: 0,
            refits: 0,
            window: None,
            evictions: 0,
        };
        engine.rate_at_fit = engine.current_rate();
        engine
    }

    /// Attaches a sliding window: the engine keeps only the most recent
    /// `window.horizon_claims` live claims, aging out older ones as new claims arrive.
    /// Claims already in the dataset count toward the horizon (oldest first), so
    /// attaching a window narrower than the current dataset evicts immediately.
    ///
    /// See [`WindowConfig`] for how windowing composes with
    /// [`RefitPolicy::DriftThreshold`].
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        // From here on the window is the only evictor, and it evicts oldest first. So
        // once the tombstones it was handed are gone, the dead claims are always a
        // prefix of the log, and the oldest live claims are the ones right after it.
        if self.dataset.dead_claims() > 0 {
            self.dataset.compact();
        }
        self.window = Some(window);
        self.enforce_window();
        self.maybe_compact();
        self
    }

    /// Ingests one claim, interning any new source/object/value names, and applies the
    /// refit policy. Returns whether the engine retrained.
    ///
    /// Fails with [`DataError::ConflictingObservation`] when the source already asserted
    /// a different value for the object; the engine state is unchanged in that case.
    pub fn observe(&mut self, source: &str, object: &str, value: &str) -> Result<bool, DataError> {
        match self.dataset.append_named(source, object, value)? {
            // Idempotent duplicate: nothing changed, so no refit.
            None => Ok(false),
            Some(_) => {
                self.note_appended();
                Ok(self.apply_policy())
            }
        }
    }

    /// Ingests a batch of claims, applying the refit policy once at the end so a large
    /// delta triggers at most one retrain. Returns whether the engine retrained.
    ///
    /// Fails fast on the first conflicting claim; earlier claims of the batch stay
    /// ingested.
    pub fn ingest(&mut self, claims: &[NamedObservation]) -> Result<bool, DataError> {
        for claim in claims {
            if self
                .dataset
                .append_named(&claim.source, &claim.object, &claim.value)?
                .is_some()
            {
                self.note_appended();
            }
        }
        Ok(self.apply_policy())
    }

    /// Ingests a batch of claims **without** evaluating the refit policy, returning how
    /// many non-duplicate claims were appended. Window maintenance and compaction
    /// hygiene still run per claim — only the retrain decision is left to the caller,
    /// which is what a serving writer needs when refits are dispatched out-of-band as
    /// background jobs (see [`crate::serve`]) instead of being paid inline.
    ///
    /// Fails fast on the first conflicting claim; earlier claims of the batch stay
    /// ingested.
    pub fn ingest_no_refit(&mut self, claims: &[NamedObservation]) -> Result<usize, DataError> {
        let mut appended = 0;
        for claim in claims {
            if self
                .dataset
                .append_named(&claim.source, &claim.object, &claim.value)?
                .is_some()
            {
                self.note_appended();
                appended += 1;
            }
        }
        Ok(appended)
    }

    /// Whether the configured [`RefitPolicy`] would fire right now, without retraining.
    /// This is the exact predicate [`FusionEngine::observe`] / [`FusionEngine::ingest`]
    /// evaluate after a mutation; callers that train out-of-band (see
    /// [`FusionEngine::training_snapshot`]) poll it instead of letting the engine refit
    /// inline. Note `RefitPolicy::Always` reports `true` unconditionally, mirroring the
    /// inline path.
    pub fn should_refit(&self) -> bool {
        match self.policy {
            RefitPolicy::Never => false,
            RefitPolicy::Always => true,
            RefitPolicy::EveryNClaims(n) => self.claims_since_fit >= n.max(1),
            RefitPolicy::DriftThreshold(threshold) => self.drift() > threshold,
        }
    }

    /// Captures a self-contained [`TrainingSnapshot`] of the live instance: the dataset
    /// is compacted in place (exactly as [`FusionEngine::refit`] would) and the folded
    /// instance plus the estimator are cloned out, detached from the engine. The
    /// compacted dataset's clone shares its base segment with the engine, so the
    /// capture copies no claim; later ingest writes only the engine's own delta. Training
    /// the capture — typically on a background worker while this engine keeps ingesting
    /// — produces a model bitwise-identical to what a synchronous
    /// [`FusionEngine::refit`] at this claim count would have served, at any
    /// `SLIMFAST_THREADS` setting.
    pub fn training_snapshot(&mut self) -> TrainingSnapshot {
        self.dataset.compact();
        TrainingSnapshot {
            estimator: self.estimator.clone(),
            dataset: self.dataset.clone(),
            features: self.features.clone(),
            truth: self.truth.clone(),
            claims_since_fit: self.claims_since_fit,
        }
    }

    /// Installs a model trained out-of-band from a [`TrainingSnapshot`], resetting the
    /// refit counters like a synchronous [`FusionEngine::refit`]. `covered` is the
    /// snapshot's [`TrainingSnapshot::claims_since_fit`]: claims ingested *after* the
    /// capture stay counted toward the next policy boundary, so a slow background
    /// refit can never silently swallow the delta that accumulated underneath it.
    pub fn install_model(
        &mut self,
        model: SlimFastModel,
        decision: OptimizerDecision,
        covered: usize,
    ) {
        self.model = model;
        self.decision = decision;
        self.claims_since_fit = self.claims_since_fit.saturating_sub(covered);
        self.refits += 1;
        self.rate_at_fit = self.current_rate();
    }

    /// Records a ground-truth label (e.g. from a late human verification), interning the
    /// names if new, and applies the refit policy. Returns whether the engine retrained.
    pub fn label(&mut self, object: &str, value: &str) -> bool {
        self.label_no_refit(object, value);
        self.apply_policy()
    }

    /// Records a ground-truth label **without** evaluating the refit policy — the
    /// labelling counterpart of [`FusionEngine::ingest_no_refit`], for callers that
    /// retrain out-of-band.
    pub fn label_no_refit(&mut self, object: &str, value: &str) {
        let o = self.dataset.intern_object(object);
        let v = self.dataset.intern_value(value);
        self.truth.set(o, v);
    }

    /// Retrains the model on the current live data, resetting the delta counters and
    /// the drift baseline. Compacts first, so training (and the `CompiledProblem` it
    /// builds) runs over the folded base arrays covering exactly the live claims.
    pub fn refit(&mut self) {
        self.dataset.compact();
        let (model, decision) = {
            let input = FusionInput::new(&self.dataset, &self.features, &self.truth);
            self.estimator.train(&input)
        };
        self.model = model;
        self.decision = decision;
        self.claims_since_fit = 0;
        self.refits += 1;
        self.rate_at_fit = self.current_rate();
    }

    /// The posterior over the candidate values of the named object (order of
    /// [`Dataset::domain`]), served from the fitted model with zero retraining.
    /// `None` for objects the engine has never heard of.
    pub fn posterior(&self, object: &str) -> Option<Vec<f64>> {
        let o = self.dataset.object_id(object)?;
        Some(self.model.posterior(&self.dataset, &self.features, o))
    }

    /// The posterior over the candidate values of an object handle; `None` for handles
    /// beyond the engine's current object count, so untrusted ids arriving at a serving
    /// reader can never crash (or silently mis-serve) a query thread.
    pub fn posterior_by_id(&self, o: ObjectId) -> Option<Vec<f64>> {
        if o.index() >= self.dataset.num_objects() {
            return None;
        }
        Some(self.model.posterior(&self.dataset, &self.features, o))
    }

    /// MAP value and posterior probability for the named object; `None` for unknown or
    /// unobserved objects.
    pub fn map_value(&self, object: &str) -> Option<(ValueId, f64)> {
        let o = self.dataset.object_id(object)?;
        self.model.map_value(&self.dataset, &self.features, o)
    }

    /// MAP assignment over every object currently known to the engine.
    pub fn predict(&self) -> TruthAssignment {
        self.model.predict(&self.dataset, &self.features)
    }

    /// Estimated accuracy of the named source under the fitted model; sources that
    /// arrived after the last fit sit at the uninformed prior of `0.5` (plus any feature
    /// contribution). `None` for sources the engine has never heard of.
    pub fn source_accuracy(&self, source: &str) -> Option<f64> {
        let s = self.dataset.source_id(source)?;
        Some(self.model.source_accuracy(s, &self.features))
    }

    /// Estimated accuracies of every source currently known to the engine.
    pub fn source_accuracies(&self) -> SourceAccuracies {
        self.model.source_accuracies(&self.dataset, &self.features)
    }

    /// The current dataset, including every ingested delta (and excluding evicted
    /// claims).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The fitted model currently serving queries.
    pub fn model(&self) -> &SlimFastModel {
        &self.model
    }

    /// The source-feature matrix queries are scored with.
    pub fn features(&self) -> &FeatureMatrix {
        &self.features
    }

    /// Serializes the serving model (see [`SlimFastModel::to_bytes`]).
    pub fn export_model(&self) -> Vec<u8> {
        self.model.to_bytes()
    }

    /// Which learner produced the serving model.
    pub fn decision(&self) -> OptimizerDecision {
        self.decision
    }

    /// The configured refit policy.
    pub fn policy(&self) -> RefitPolicy {
        self.policy
    }

    /// The sliding-window configuration, if one is attached.
    pub fn window(&self) -> Option<WindowConfig> {
        self.window
    }

    /// Claims ingested since the model was last (re)trained.
    pub fn claims_since_fit(&self) -> usize {
        self.claims_since_fit
    }

    /// Number of automatic or explicit retrains since construction.
    pub fn refit_count(&self) -> usize {
        self.refits
    }

    /// Claims aged out by the sliding window since construction.
    pub fn eviction_count(&self) -> usize {
        self.evictions
    }

    /// Relative drift of the Section 4.2 rate since the last fit (the quantity the
    /// [`RefitPolicy::DriftThreshold`] policy thresholds).
    ///
    /// Computed from the dataset's running counters, so checking drift on every
    /// ingested claim never walks the claim log.
    pub fn drift(&self) -> f64 {
        relative_drift(self.rate_at_fit, self.current_rate())
    }

    /// Bookkeeping after one successful (non-duplicate) append: delta counters, the
    /// window, and overlay hygiene.
    fn note_appended(&mut self) {
        self.claims_since_fit += 1;
        if self.window.is_some() {
            self.enforce_window();
            self.maybe_compact();
        }
    }

    /// Evicts the oldest live claims once the backlog past the horizon reaches the
    /// configured eviction batch, retiring the whole backlog with one
    /// [`Dataset::evict_batch`] call — one overlay clone and one domain recompute per
    /// touched row per cycle. With the default batch of 1 this evicts claim-per-claim,
    /// so the live count never exceeds the horizon.
    fn enforce_window(&mut self) {
        let Some(window) = self.window else { return };
        let horizon = window.horizon_claims.max(1);
        let batch = window.eviction_batch.max(1);
        let live = self.dataset.num_observations();
        if live < horizon + batch {
            return;
        }
        // The dead claims are a prefix of the log (see `with_window`), so the
        // `backlog` oldest live claims follow it.
        let dead = self.dataset.dead_claims();
        let victims: Vec<(SourceId, ObjectId)> = self
            .dataset
            .log_range(dead..dead + live - horizon)
            .map(|obs| (obs.source, obs.object))
            .collect();
        let removed = self.dataset.evict_batch(&victims);
        debug_assert_eq!(
            removed,
            victims.len(),
            "the log entries past the dead prefix are live"
        );
        self.evictions += removed;
    }

    /// Folds the delta log into the base arrays once tombstones or pending appends
    /// outgrow the configured fraction of the live claims.
    fn maybe_compact(&mut self) {
        let Some(window) = self.window else { return };
        let live = self.dataset.num_observations();
        let dead_cap = ((live as f64 * window.max_dead_fraction) as usize).max(COMPACT_FLOOR);
        let pending_cap = (live / 4).max(COMPACT_FLOOR);
        if self.dataset.dead_claims() > dead_cap || self.dataset.pending_appends() > pending_cap {
            self.dataset.compact();
        }
    }

    /// The Section 4.2 rate of the serving model on the *current* instance, from the
    /// dataset's running counters (cheap: no log walk).
    ///
    /// For EM-fitted models the accuracy margin `δ` of Theorem 3 is estimated from the
    /// model's own accuracy estimates (mean `|2·A_s − 1|`, floored at a small constant).
    fn current_rate(&self) -> f64 {
        let num_sources = self.dataset.num_sources();
        let num_objects = self.dataset.num_objects();
        let used_em = self.decision == OptimizerDecision::Em;
        let delta = if used_em {
            self.accuracy_margin(num_sources)
        } else {
            MIN_ACCURACY_MARGIN
        };
        model_rate(
            used_em,
            self.features.num_features(),
            self.truth.num_labeled(),
            num_sources,
            num_objects,
            self.dataset.density(),
            delta,
        )
    }

    /// Mean accuracy margin `|2·A_s − 1|` of the fitted model over the current sources.
    fn accuracy_margin(&self, num_sources: usize) -> f64 {
        if num_sources == 0 {
            return MIN_ACCURACY_MARGIN;
        }
        let sum: f64 = (0..num_sources)
            .map(|s| {
                (2.0 * self
                    .model
                    .source_accuracy(slimfast_data::SourceId::new(s), &self.features)
                    - 1.0)
                    .abs()
            })
            .sum();
        (sum / num_sources as f64).max(MIN_ACCURACY_MARGIN)
    }

    /// Evaluates the refit policy after a mutation; retrains and reports `true` when it
    /// fires.
    fn apply_policy(&mut self) -> bool {
        let should = self.should_refit();
        if should {
            self.refit();
        }
        should
    }
}

/// A self-contained training capture from [`FusionEngine::training_snapshot`]: compacted
/// clones of the live instance (dataset, features, labels) plus the estimator, detached
/// from the engine so [`TrainingSnapshot::train`] can run on another thread — a
/// background refit, say — while the engine keeps ingesting.
#[derive(Debug, Clone)]
pub struct TrainingSnapshot {
    estimator: SlimFast,
    dataset: Dataset,
    features: FeatureMatrix,
    truth: GroundTruth,
    claims_since_fit: usize,
}

impl TrainingSnapshot {
    /// Trains the estimator on the captured instance. Deterministic: the same capture
    /// produces a bitwise-identical model at any thread count, so an out-of-band refit
    /// is indistinguishable from the synchronous [`FusionEngine::refit`] it replaces.
    pub fn train(&self) -> (SlimFastModel, OptimizerDecision) {
        let input = FusionInput::new(&self.dataset, &self.features, &self.truth);
        self.estimator.train(&input)
    }

    /// Fallible variant of [`TrainingSnapshot::train`]: the entry point supervised
    /// background refits go through (see `slimfast_core::serve`). Training itself is
    /// infallible today, so in production builds this always returns `Ok` — the
    /// `Result` exists for the `refit.train` fault-injection site
    /// ([`slimfast_data::faults`]), which under the `fault-injection` feature can make
    /// the refit error or panic to exercise the serving tier's retry and quarantine
    /// paths.
    pub fn try_train(
        &self,
    ) -> Result<(SlimFastModel, OptimizerDecision), slimfast_data::DataError> {
        slimfast_data::faults::fire_data("refit.train")?;
        Ok(self.train())
    }

    /// The captured (compacted) dataset the model will be trained on.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The captured feature matrix.
    pub fn features(&self) -> &FeatureMatrix {
        &self.features
    }

    /// Claims the engine had ingested since its last fit when the capture was taken —
    /// the `covered` argument to pass to [`FusionEngine::install_model`].
    pub fn claims_since_fit(&self) -> usize {
        self.claims_since_fit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlimFastConfig;
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};

    fn engine_with(policy: RefitPolicy) -> FusionEngine {
        let inst = SyntheticConfig {
            name: "engine".into(),
            num_sources: 40,
            num_objects: 150,
            domain_size: 2,
            pattern: ObservationPattern::PerObjectExact(6),
            accuracy: AccuracyModel {
                mean: 0.72,
                spread: 0.1,
            },
            features: FeatureModel::default(),
            copying: None,
            seed: 7,
        }
        .generate();
        let truth = {
            let mut t = GroundTruth::empty(inst.dataset.num_objects());
            // Label a handful of objects so ERM is viable.
            for (i, (o, v)) in inst.truth.labeled().enumerate() {
                if i % 10 == 0 {
                    t.set(o, v);
                }
            }
            t
        };
        let features = FeatureMatrix::empty(inst.dataset.num_sources());
        FusionEngine::fit(
            SlimFast::em(SlimFastConfig::default()),
            inst.dataset,
            features,
            truth,
            policy,
        )
    }

    #[test]
    fn deltas_are_served_with_zero_retraining_under_never() {
        let mut engine = engine_with(RefitPolicy::Never);
        let objects_before = engine.dataset().num_objects();
        assert!(!engine.observe("new-source", "new-object", "v1").unwrap());
        assert!(!engine.observe("s0", "new-object", "v2").unwrap());
        assert_eq!(engine.refit_count(), 0);
        assert_eq!(engine.claims_since_fit(), 2);
        assert_eq!(engine.dataset().num_objects(), objects_before + 1);

        let posterior = engine.posterior("new-object").unwrap();
        assert_eq!(posterior.len(), 2);
        let total: f64 = posterior.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The unseen source sits at the uninformed prior.
        let acc = engine.source_accuracy("new-source").unwrap();
        assert!((acc - 0.5).abs() < 1e-9);
        assert!(engine.map_value("new-object").is_some());
        assert!(engine.posterior("never-mentioned").is_none());
    }

    #[test]
    fn single_claim_ingest_never_reindexes_the_dataset() {
        let mut engine = engine_with(RefitPolicy::Never);
        let passes = slimfast_data::full_index_passes();
        engine.observe("inc-src", "inc-obj", "v1").unwrap();
        engine.observe("s0", "inc-obj", "v2").unwrap();
        // Queries are served straight from the overlay...
        assert_eq!(engine.posterior("inc-obj").unwrap().len(), 2);
        let _ = engine.predict();
        // ...with zero full CSR indexing passes and zero compactions: the delta stayed
        // a delta.
        assert_eq!(slimfast_data::full_index_passes(), passes);
        assert_eq!(engine.dataset().pending_appends(), 2);
        assert_eq!(engine.dataset().compaction_count(), 0);
        // An explicit refit folds the delta into the base arrays exactly once.
        engine.refit();
        assert_eq!(engine.dataset().pending_appends(), 0);
        assert!(engine.dataset().is_compacted());
    }

    #[test]
    fn every_n_claims_refits_exactly_on_the_boundary() {
        let mut engine = engine_with(RefitPolicy::EveryNClaims(3));
        assert!(!engine.observe("a", "x", "1").unwrap());
        assert!(!engine.observe("b", "x", "1").unwrap());
        assert!(engine.observe("c", "x", "2").unwrap());
        assert_eq!(engine.refit_count(), 1);
        assert_eq!(engine.claims_since_fit(), 0);
        // After the refit the new sources have learned indicator weights.
        assert_eq!(
            engine.model().space().num_sources,
            engine.dataset().num_sources()
        );
    }

    #[test]
    fn always_refits_on_every_claim_and_batches_amortize() {
        let mut engine = engine_with(RefitPolicy::Always);
        assert!(engine.observe("a", "x", "1").unwrap());
        assert!(engine.observe("b", "x", "1").unwrap());
        assert_eq!(engine.refit_count(), 2);

        let mut batch_engine = engine_with(RefitPolicy::EveryNClaims(1));
        let batch: Vec<NamedObservation> = (0..5)
            .map(|i| NamedObservation::new(format!("s{i}"), "batched", "v"))
            .collect();
        assert!(batch_engine.ingest(&batch).unwrap());
        // One retrain for the whole batch, not five.
        assert_eq!(batch_engine.refit_count(), 1);
    }

    #[test]
    fn conflicting_claims_are_rejected_without_corrupting_state() {
        let mut engine = engine_with(RefitPolicy::Never);
        engine.observe("dup", "obj", "x").unwrap();
        let before = engine.claims_since_fit();
        let err = engine.observe("dup", "obj", "y").unwrap_err();
        assert!(matches!(err, DataError::ConflictingObservation { .. }));
        assert_eq!(engine.claims_since_fit(), before);
        // The idempotent duplicate is accepted silently and is not counted as a claim
        // (so it can never trigger a refit).
        assert!(!engine.observe("dup", "obj", "x").unwrap());
        assert_eq!(engine.claims_since_fit(), before);
    }

    #[test]
    fn drift_policy_tracks_the_section_42_bound() {
        let mut engine = engine_with(RefitPolicy::DriftThreshold(0.05));
        assert_eq!(engine.drift(), 0.0);
        // Stream claims until the density/scale change moves the Theorem 3 rate by more
        // than 5%; the engine must eventually notice and retrain on its own.
        let mut refitted = false;
        for i in 0..400 {
            refitted |= engine
                .observe(
                    &format!("drift-src-{}", i % 25),
                    &format!("drift-obj-{i}"),
                    "v",
                )
                .unwrap();
            if refitted {
                break;
            }
        }
        assert!(refitted, "drift policy never fired");
        assert_eq!(engine.claims_since_fit(), 0);
        assert!(engine.refit_count() >= 1);
        assert!(engine.drift() < 0.05);
    }

    #[test]
    fn labels_feed_the_truth_and_can_trigger_refits() {
        let mut engine = engine_with(RefitPolicy::Never);
        engine.observe("s-label", "labelled-late", "yes").unwrap();
        engine.label("labelled-late", "yes");
        engine.refit();
        // After refitting, the labelled object is clamped to a confident posterior.
        let (value, _) = engine.map_value("labelled-late").unwrap();
        assert_eq!(engine.dataset().value_name(value), Some("yes"));
    }

    #[test]
    fn sliding_window_ages_out_the_oldest_claims() {
        // The synthetic instance carries 150 × 6 = 900 claims; keep a horizon of 920
        // so the first 20 streamed claims fit and the rest evict history.
        let mut engine = engine_with(RefitPolicy::Never).with_window(WindowConfig::new(920));
        assert_eq!(engine.eviction_count(), 0);
        for i in 0..40 {
            engine
                .observe(&format!("w-src-{}", i % 5), &format!("w-obj-{i}"), "v")
                .unwrap();
        }
        assert_eq!(engine.dataset().num_observations(), 920);
        assert_eq!(engine.eviction_count(), 20);
        // Every streamed claim is still live (the window evicts oldest-first).
        for i in 0..40 {
            assert!(engine.posterior(&format!("w-obj-{i}")).is_some());
        }
        // A window narrower than the current dataset evicts immediately on attach.
        let shrunk = engine_with(RefitPolicy::Never).with_window(WindowConfig::new(100));
        assert_eq!(shrunk.dataset().num_observations(), 100);
        assert_eq!(shrunk.eviction_count(), 800);
        assert!(shrunk.window().is_some());
    }

    #[test]
    fn windowing_composes_with_refit_policies() {
        let mut engine =
            engine_with(RefitPolicy::EveryNClaims(10)).with_window(WindowConfig::new(900));
        for i in 0..25 {
            engine
                .observe(&format!("wp-src-{}", i % 3), &format!("wp-obj-{i}"), "v")
                .unwrap();
        }
        // Two refit boundaries crossed while the window was evicting.
        assert_eq!(engine.refit_count(), 2);
        assert!(engine.eviction_count() >= 25);
        assert_eq!(engine.dataset().num_observations(), 900);
        // Refitting compacted the dataset, so the last refit trained on base arrays
        // covering exactly the live claims.
        assert!(engine.dataset().dead_claims() <= 5);
        let _ = engine.predict();
    }

    #[test]
    fn posterior_by_id_rejects_out_of_range_handles() {
        let engine = engine_with(RefitPolicy::Never);
        let known = ObjectId::new(0);
        assert!(engine.posterior_by_id(known).is_some());
        let beyond = ObjectId::new(engine.dataset().num_objects());
        assert!(engine.posterior_by_id(beyond).is_none());
        assert!(engine
            .posterior_by_id(ObjectId::new(u32::MAX as usize - 1))
            .is_none());
    }

    #[test]
    fn out_of_band_refits_match_synchronous_refits_bitwise() {
        let mut sync = engine_with(RefitPolicy::Never);
        for i in 0..30 {
            sync.observe(&format!("ob-src-{}", i % 7), &format!("ob-obj-{i}"), "v")
                .unwrap();
        }
        let mut background = sync.clone();

        sync.refit();

        // The out-of-band path: capture, train elsewhere (here: inline), install.
        assert_eq!(background.claims_since_fit(), 30);
        assert!(!background.should_refit());
        let snapshot = background.training_snapshot();
        assert_eq!(snapshot.claims_since_fit(), 30);
        // Claims keep arriving while the "background" training runs.
        background.observe("late-src", "late-obj", "v").unwrap();
        let (model, decision) = snapshot.train();
        background.install_model(model, decision, snapshot.claims_since_fit());

        assert_eq!(background.refit_count(), 1);
        // The uncovered late claim still counts toward the next policy boundary.
        assert_eq!(background.claims_since_fit(), 1);
        assert_eq!(sync.model().weights(), background.model().weights());
        assert_eq!(sync.decision(), background.decision());
    }

    #[test]
    fn ingest_no_refit_defers_the_policy_to_the_caller() {
        let mut engine = engine_with(RefitPolicy::EveryNClaims(3));
        let batch: Vec<NamedObservation> = (0..5)
            .map(|i| NamedObservation::new(format!("nr-src-{i}"), "nr-obj", "v"))
            .collect();
        let appended = engine.ingest_no_refit(&batch).unwrap();
        assert_eq!(appended, 5);
        // Past the EveryNClaims(3) boundary, but nothing retrained...
        assert_eq!(engine.refit_count(), 0);
        assert_eq!(engine.claims_since_fit(), 5);
        // ...the caller polls the policy and refits on its own schedule.
        assert!(engine.should_refit());
        engine.refit();
        assert!(!engine.should_refit());
    }

    #[test]
    fn batched_window_eviction_matches_claim_per_claim_at_batch_boundaries() {
        let stream: Vec<(String, String)> = (0..64)
            .map(|i| (format!("bw-src-{}", i % 5), format!("bw-obj-{i}")))
            .collect();
        let run = |batch: usize| {
            let mut engine = engine_with(RefitPolicy::Never)
                .with_window(WindowConfig::new(900).with_eviction_batch(batch));
            for (s, o) in &stream {
                engine.observe(s, o, "v").unwrap();
            }
            engine
        };
        let claim_per_claim = run(1);
        let batched = run(16);
        // 64 streamed claims is a multiple of the batch, so both engines sit exactly on
        // the horizon with identical live content and the same eviction totals.
        assert_eq!(batched.dataset().num_observations(), 900);
        assert_eq!(batched.eviction_count(), claim_per_claim.eviction_count());
        assert!(batched.dataset().same_content(claim_per_claim.dataset()));
        // Mid-batch the backlog may overshoot the horizon, but never by a full batch.
        let mut overshoot = run(16);
        overshoot.observe("bw-extra", "bw-extra-obj", "v").unwrap();
        let live = overshoot.dataset().num_observations();
        assert!((901..900 + 16).contains(&live), "live = {live}");
    }

    #[test]
    fn exported_models_revive_into_equivalent_engines() {
        let mut engine = engine_with(RefitPolicy::Never);
        engine.observe("late", "obj", "x").unwrap();
        let bytes = engine.export_model();
        let model = SlimFastModel::from_bytes(&bytes).unwrap();
        assert_eq!(model.weights(), engine.model().weights());

        let dataset = engine.dataset().clone();
        let features = FeatureMatrix::empty(dataset.num_sources());
        let revived = FusionEngine::from_model(
            SlimFast::em(SlimFastConfig::default()),
            model,
            engine.decision(),
            dataset,
            features,
            GroundTruth::empty(0),
            RefitPolicy::Never,
        );
        assert_eq!(revived.refit_count(), 0);
        let a = engine.predict();
        let b = revived.predict();
        for o in revived.dataset().object_ids() {
            assert_eq!(a.get(o), b.get(o));
        }
    }
}
