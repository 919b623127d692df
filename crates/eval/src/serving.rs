//! The serving scenario: concurrent-tier fusion with background refits in flight.
//!
//! Where [`crate::stream`] drives the single-writer [`FusionEngine`] directly (every
//! refit paid inline on the streaming thread), this scenario drives the *serving tier*
//! ([`slimfast_core::serve::ServingEngine`]) the way a deployment would: claims stream
//! in per phase, a background refit is dispatched at each phase boundary and trains on
//! its own thread **while the phase's claims keep ingesting**, snapshots publish on a
//! fixed claim cadence, and posterior queries are answered from the published snapshots
//! throughout.
//!
//! # Determinism under overlap
//!
//! Backgrounded training makes *wall-clock interleaving* nondeterministic — a refit may
//! land mid-phase or at the drain — but not *results*: refits are dispatched at phase
//! boundaries (deterministic capture points), the captured instance trains
//! bitwise-identically at any thread count, and each phase ends with a
//! [`ServingEngine::drain`] that installs the refit and converges the published
//! snapshot. Everything in the report except the explicitly timing-dependent counters
//! ([`ServingStreamReport::snapshot_swaps`],
//! [`ServingPhaseStats::staleness_before_drain`]) is therefore reproducible claim for
//! claim and bit for bit, which the determinism tests assert across
//! `SLIMFAST_THREADS` settings.

use slimfast_core::{
    FusionEngine, HealthState, RefitPolicy, ServingEngine, SlimFast, SlimFastConfig, WindowConfig,
};
use slimfast_data::{build_claims, FeatureMatrix, GroundTruth, ObjectId};

use crate::stream::{phase_claims, Lcg, StreamScenarioConfig};

/// Configuration of a serving-scenario run.
#[derive(Debug, Clone)]
pub struct ServingScenarioConfig {
    /// The claim stream (phases, objects, sources, horizon, labels) — shared with the
    /// windowed-stream scenario so the two tiers see the same traffic.
    pub stream: StreamScenarioConfig,
    /// Claims per [`ServingEngine::ingest`] call (the writer's batch size).
    pub ingest_batch: usize,
    /// Snapshot publish cadence in claims (see [`ServingEngine::with_publish_every`]).
    pub publish_every: usize,
    /// Window eviction batch (see `WindowConfig::eviction_batch`).
    pub eviction_batch: usize,
    /// Posterior queries issued against the reader after each ingest batch.
    pub queries_per_batch: usize,
}

impl Default for ServingScenarioConfig {
    fn default() -> Self {
        Self {
            stream: StreamScenarioConfig::default(),
            ingest_batch: 20,
            publish_every: 50,
            eviction_batch: 16,
            queries_per_batch: 8,
        }
    }
}

/// Bookkeeping of one serving phase, taken after the phase's drain.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPhaseStats {
    /// Phase index (0 = the initial fitted batch).
    pub phase: usize,
    /// Claims delivered during this phase.
    pub claims: usize,
    /// Live claims at the end of the phase (post-drain).
    pub live_claims: usize,
    /// Cumulative window evictions at the end of the phase.
    pub evictions: usize,
    /// Cumulative refits installed at the end of the phase.
    pub refits_installed: usize,
    /// Reader staleness observed just before the phase's drain. **Timing-dependent**:
    /// depends on where the background refit's install landed relative to the publish
    /// cadence. Excluded from determinism comparisons.
    pub staleness_before_drain: u64,
}

/// The outcome of a serving-scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStreamReport {
    /// Per-phase bookkeeping, including the initial batch as phase 0.
    pub phases: Vec<ServingPhaseStats>,
    /// Refits installed over the run (one per streamed phase: dispatched at the phase
    /// boundary, drained by the phase's end).
    pub refits: usize,
    /// Window evictions over the run.
    pub evictions: usize,
    /// Snapshots published over the run. **Timing-dependent** (refit installs publish
    /// out of cadence); excluded from determinism comparisons.
    pub snapshot_swaps: u64,
    /// Posterior queries answered from published snapshots during the run.
    pub queries_served: usize,
    /// Live claims at the end of the run.
    pub final_live: usize,
    /// The final model's weight vector — the bitwise determinism fingerprint.
    pub final_weights: Vec<f64>,
    /// Sum of the lead posterior component over every object of the final snapshot —
    /// a bitwise fingerprint of the *served* posteriors (not just the weights).
    pub posterior_fingerprint: f64,
    /// Refit-supervision state at the end of the run. A healthy scenario run never
    /// fails a refit, so anything but [`HealthState::Healthy`] (or a nonzero failure
    /// count below) means the serving tier degraded mid-run and the throughput
    /// numbers describe fallback serving, not steady state.
    pub final_health: HealthState,
    /// Background-refit failures caught by supervision over the run.
    pub refit_failures: u64,
}

impl ServingStreamReport {
    /// The deterministic projection of the report: everything except the
    /// timing-dependent counters. Two runs of the same config — at any
    /// `SLIMFAST_THREADS` — must agree on this bit for bit.
    #[allow(clippy::type_complexity)]
    pub fn deterministic_fingerprint(&self) -> (usize, usize, usize, Vec<u64>, u64, u64) {
        (
            self.refits,
            self.evictions,
            self.final_live,
            self.final_weights.iter().map(|w| w.to_bits()).collect(),
            self.posterior_fingerprint.to_bits(),
            self.refit_failures,
        )
    }
}

/// Runs the serving scenario: bulk load and fit, then per-phase streaming
/// through the serving tier with a background refit in flight per phase.
pub fn run_serving_stream(config: &ServingScenarioConfig) -> ServingStreamReport {
    let stream = &config.stream;
    assert!(stream.phases >= 1, "need at least the initial phase");
    let mut rng = Lcg(stream.seed.wrapping_mul(2) | 1);

    // Phase 0: bulk load and fit, exactly like the windowed-stream scenario — the
    // serving tier wraps the same engine.
    let (initial_claims, initial_truths) = phase_claims(stream, 0, &mut rng);
    let initial_count = initial_claims.len();
    let dataset = build_claims(&initial_claims).expect("generated stream is conflict-free");
    let mut truth = GroundTruth::empty(dataset.num_objects());
    for (i, (object, value)) in initial_truths.iter().enumerate() {
        if i % stream.label_every.max(1) == 0 {
            let o = dataset.object_id(object).expect("object was just ingested");
            let v = dataset.value_id(value).expect("binary domain");
            truth.set(o, v);
        }
    }
    let features = FeatureMatrix::empty(dataset.num_sources());
    let engine = FusionEngine::fit(
        SlimFast::em(stream.slimfast.clone()),
        dataset,
        features,
        truth,
        // Refits are dispatched explicitly at phase boundaries (deterministic capture
        // points); an in-ingest policy would capture wherever the batch landed.
        RefitPolicy::Never,
    )
    .with_window(
        WindowConfig::new(stream.horizon_claims.max(1))
            .with_eviction_batch(config.eviction_batch.max(1)),
    );
    let mut serving = ServingEngine::new(engine).with_publish_every(config.publish_every.max(1));
    let mut reader = serving.reader();
    let mut queries_served = 0usize;

    let mut phases = vec![ServingPhaseStats {
        phase: 0,
        claims: initial_count,
        live_claims: serving.engine().dataset().num_observations(),
        evictions: serving.engine().eviction_count(),
        refits_installed: serving.engine().refit_count(),
        staleness_before_drain: 0,
    }];

    for phase in 1..stream.phases {
        let (claims, truths) = phase_claims(stream, phase, &mut rng);
        let streamed = claims.len();
        // Capture at the phase boundary; training overlaps with this phase's ingest.
        serving.refit_background();
        for batch in claims.chunks(config.ingest_batch.max(1)) {
            serving
                .ingest(batch)
                .expect("generated stream is conflict-free");
            // Readers serve from whatever snapshot is current; results depend on
            // publish timing, so only their *validity* is checked here.
            let snapshot = reader.snapshot();
            let num_objects = snapshot.dataset().num_objects();
            for q in 0..config.queries_per_batch {
                let o = ObjectId::new((q * 31 + queries_served) % num_objects.max(1));
                if let Some(posterior) = snapshot.posterior_by_id(o) {
                    debug_assert!(
                        posterior.is_empty() || (posterior.iter().sum::<f64>() - 1.0).abs() < 1e-9
                    );
                    queries_served += 1;
                }
            }
        }
        let staleness_before_drain = reader.staleness();
        serving.drain();
        // Labels land at the phase boundary, before the next phase's capture, exactly
        // like the windowed-stream scenario. `label` applies the (Never) policy only.
        for (i, (object, value)) in truths.iter().enumerate() {
            if i % stream.label_every.max(1) == 0 {
                // Mutating the engine directly would bypass the serving counters; the
                // serving tier exposes labels through the wrapped engine after drain.
                serving.label(object, value);
            }
        }
        phases.push(ServingPhaseStats {
            phase,
            claims: streamed,
            live_claims: serving.engine().dataset().num_observations(),
            evictions: serving.engine().eviction_count(),
            refits_installed: serving.engine().refit_count(),
            staleness_before_drain,
        });
    }
    serving.drain();

    let snapshot = serving.snapshot();
    let posterior_fingerprint: f64 = snapshot
        .dataset()
        .object_ids()
        .filter_map(|o| snapshot.posterior_by_id(o))
        .filter_map(|p| p.first().copied())
        .sum();
    let stats = serving.stats();
    ServingStreamReport {
        refits: serving.engine().refit_count(),
        evictions: serving.engine().eviction_count(),
        snapshot_swaps: stats.snapshot_swaps,
        queries_served,
        final_live: serving.engine().dataset().num_observations(),
        final_weights: serving.engine().model().weights().to_vec(),
        posterior_fingerprint,
        final_health: stats.health,
        refit_failures: stats.refit_failures,
        phases,
    }
}

/// The scenario at its default (small) scale, parameterized only by learner config and
/// seed.
pub fn quick_serving_stream(config: &SlimFastConfig, seed: u64) -> ServingStreamReport {
    run_serving_stream(&ServingScenarioConfig {
        stream: StreamScenarioConfig {
            slimfast: config.clone(),
            seed,
            ..StreamScenarioConfig::default()
        },
        ..ServingScenarioConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_scenario_overlaps_refits_with_ingest_and_converges() {
        let report = run_serving_stream(&ServingScenarioConfig::default());
        assert_eq!(report.phases.len(), 3);
        // One refit per streamed phase, installed by the drain at the latest.
        assert_eq!(report.refits, 2);
        // The stream overflowed the horizon (within one eviction batch).
        assert!(report.evictions > 0);
        assert!(report.final_live < 300 + 16);
        // Queries were served from snapshots throughout.
        assert!(report.queries_served > 0);
        assert!(report.snapshot_swaps >= 2);
        assert!(!report.final_weights.is_empty());
        assert!(report.posterior_fingerprint.is_finite());
        // Nothing was injected, so supervision must have stayed quiet.
        assert_eq!(report.final_health, HealthState::Healthy);
        assert_eq!(report.refit_failures, 0);
        // Volume conservation, like the windowed-stream scenario.
        let delivered: usize = report.phases.iter().map(|p| p.claims).sum();
        assert_eq!(report.final_live + report.evictions, delivered);
    }

    #[test]
    fn serving_scenario_is_deterministic_for_a_fixed_seed() {
        let a = run_serving_stream(&ServingScenarioConfig::default());
        let b = run_serving_stream(&ServingScenarioConfig::default());
        assert_eq!(
            a.deterministic_fingerprint(),
            b.deterministic_fingerprint(),
            "same config, same seed, same overlap structure — results must be bitwise-equal"
        );
        let c = run_serving_stream(&ServingScenarioConfig {
            stream: StreamScenarioConfig {
                seed: 18,
                ..StreamScenarioConfig::default()
            },
            ..ServingScenarioConfig::default()
        });
        assert_ne!(a.final_weights, c.final_weights);
    }
}
