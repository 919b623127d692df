//! The windowed-stream scenario: sliding-window fusion over a drifting claim stream.
//!
//! The table-style experiments in [`crate::runner`] evaluate batch fusion — fit once on
//! a static instance. This module exercises the *serving* path end to end instead: an
//! initial batch is bulk-loaded ([`slimfast_data::build_claims`]), a [`FusionEngine`]
//! is fitted with a sliding [`WindowConfig`], and subsequent phases of claims stream in
//! with drifting source accuracies — the sources that were reliable in even phases turn
//! unreliable in odd phases, the workload motivated by sliding-window fusion (Lillis et
//! al.) and the temporally drifting sources of the Dong et al. survey. The engine ages
//! out claims past the horizon, compacts periodically, and refits per its policy; the
//! report captures the stream bookkeeping (live claims, evictions, compactions, refits)
//! plus the final model weights.
//!
//! Everything is deterministic: claims come from a fixed linear congruential generator
//! seeded by the scenario config, and the engine's training stack is bitwise-identical
//! at any `SLIMFAST_THREADS` — so the whole scenario is covered by the determinism
//! test matrix.

use slimfast_core::{FusionEngine, RefitPolicy, SlimFast, SlimFastConfig, WindowConfig};
use slimfast_data::{build_claims, FeatureMatrix, GroundTruth, NamedObservation};

/// Configuration of a windowed-stream run.
#[derive(Debug, Clone)]
pub struct StreamScenarioConfig {
    /// Number of stream phases. Phase 0 is the initial batch the engine is fitted on;
    /// later phases stream through [`FusionEngine::observe`].
    pub phases: usize,
    /// Fresh objects introduced per phase (named `p{phase}-o{i}`).
    pub objects_per_phase: usize,
    /// Claims per object (each from a distinct source).
    pub claims_per_object: usize,
    /// Shared source pool (named `s{j}`); half flips reliability every phase.
    pub num_sources: usize,
    /// Sliding-window horizon in live claims.
    pub horizon_claims: usize,
    /// Refit boundary for the engine's [`RefitPolicy::EveryNClaims`] policy.
    pub refit_every: usize,
    /// One of every `label_every` streamed objects gets its true value labelled.
    pub label_every: usize,
    /// Learner configuration (notably `threads`, which the determinism matrix varies).
    pub slimfast: SlimFastConfig,
    /// Seed of the claim-stream generator.
    pub seed: u64,
}

impl Default for StreamScenarioConfig {
    fn default() -> Self {
        Self {
            phases: 3,
            objects_per_phase: 40,
            claims_per_object: 5,
            num_sources: 20,
            horizon_claims: 300,
            refit_every: 150,
            label_every: 5,
            slimfast: SlimFastConfig::default(),
            seed: 17,
        }
    }
}

/// Bookkeeping of one stream phase, taken at the end of the phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase index (0 = the initial fitted batch).
    pub phase: usize,
    /// Claims delivered during this phase.
    pub claims: usize,
    /// Live claims in the engine at the end of the phase.
    pub live_claims: usize,
    /// Cumulative window evictions at the end of the phase.
    pub evictions: usize,
    /// Cumulative refits at the end of the phase.
    pub refits: usize,
}

/// The outcome of a windowed-stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedStreamReport {
    /// Per-phase bookkeeping, including the initial batch as phase 0.
    pub phases: Vec<PhaseStats>,
    /// Total refits over the run.
    pub refits: usize,
    /// Total window evictions over the run.
    pub evictions: usize,
    /// Compactions the live dataset absorbed.
    pub compactions: usize,
    /// Live claims at the end of the run.
    pub final_live: usize,
    /// The final model's weight vector — the bitwise fingerprint the determinism
    /// matrix compares across thread counts.
    pub final_weights: Vec<f64>,
}

/// Deterministic stream generator (a fixed 64-bit LCG; no external randomness).
/// Shared with the serving scenario ([`crate::serving`]) so both streams come from the
/// same claim distribution.
pub(crate) struct Lcg(pub(crate) u64);

impl Lcg {
    fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 32) as u32
    }

    fn chance(&mut self, p: f64) -> bool {
        f64::from(self.next_u32()) < p * f64::from(u32::MAX)
    }
}

/// The claims of one phase plus each object's true value, in stream order.
pub(crate) fn phase_claims(
    config: &StreamScenarioConfig,
    phase: usize,
    rng: &mut Lcg,
) -> (Vec<NamedObservation>, Vec<(String, &'static str)>) {
    let mut claims = Vec::with_capacity(config.objects_per_phase * config.claims_per_object);
    let mut truths = Vec::with_capacity(config.objects_per_phase);
    for i in 0..config.objects_per_phase {
        let object = format!("p{phase}-o{i}");
        let truth = if rng.chance(0.5) { "v1" } else { "v0" };
        for k in 0..config.claims_per_object.min(config.num_sources) {
            // Distinct sources per object: stride 7 is coprime to the default pool.
            let j = (i + k * 7) % config.num_sources;
            // Drift: the first half of the pool is reliable in even phases and
            // unreliable in odd phases (and vice versa).
            let reliable = (j < config.num_sources / 2) == (phase % 2 == 0);
            let p_correct = if reliable { 0.85 } else { 0.55 };
            let value = if rng.chance(p_correct) {
                truth
            } else if truth == "v1" {
                "v0"
            } else {
                "v1"
            };
            claims.push(NamedObservation::new(format!("s{j}"), &object, value));
        }
        truths.push((object, truth));
    }
    (claims, truths)
}

/// Runs the windowed-stream scenario: bulk initial load, windowed engine fit, then
/// per-phase streaming with drifting source reliability.
pub fn run_windowed_stream(config: &StreamScenarioConfig) -> WindowedStreamReport {
    assert!(config.phases >= 1, "need at least the initial phase");
    let mut rng = Lcg(config.seed.wrapping_mul(2) | 1);

    // Phase 0: bulk load and fit.
    let (initial_claims, initial_truths) = phase_claims(config, 0, &mut rng);
    let initial_count = initial_claims.len();
    let dataset = build_claims(&initial_claims).expect("generated stream is conflict-free");
    let mut truth = GroundTruth::empty(dataset.num_objects());
    for (i, (object, value)) in initial_truths.iter().enumerate() {
        if i % config.label_every.max(1) == 0 {
            let o = dataset.object_id(object).expect("object was just ingested");
            let v = dataset.value_id(value).expect("binary domain");
            truth.set(o, v);
        }
    }
    let features = FeatureMatrix::empty(dataset.num_sources());
    let mut engine = FusionEngine::fit(
        SlimFast::em(config.slimfast.clone()),
        dataset,
        features,
        truth,
        RefitPolicy::EveryNClaims(config.refit_every.max(1)),
    )
    .with_window(WindowConfig::new(config.horizon_claims.max(1)));

    let mut phases = vec![PhaseStats {
        phase: 0,
        claims: initial_count,
        live_claims: engine.dataset().num_observations(),
        evictions: engine.eviction_count(),
        refits: engine.refit_count(),
    }];

    // Later phases stream claim by claim; labels arrive after an object's claims.
    for phase in 1..config.phases {
        let (claims, truths) = phase_claims(config, phase, &mut rng);
        let streamed = claims.len();
        for claim in &claims {
            engine
                .observe(&claim.source, &claim.object, &claim.value)
                .expect("generated stream is conflict-free");
        }
        for (i, (object, value)) in truths.iter().enumerate() {
            if i % config.label_every.max(1) == 0 {
                engine.label(object, value);
            }
        }
        phases.push(PhaseStats {
            phase,
            claims: streamed,
            live_claims: engine.dataset().num_observations(),
            evictions: engine.eviction_count(),
            refits: engine.refit_count(),
        });
    }

    WindowedStreamReport {
        refits: engine.refit_count(),
        evictions: engine.eviction_count(),
        compactions: engine.dataset().compaction_count(),
        final_live: engine.dataset().num_observations(),
        final_weights: engine.model().weights().to_vec(),
        phases,
    }
}

/// The scenario at its default (small) scale, parameterized only by learner config and
/// seed — the signature scenario lineups register.
pub fn quick_windowed_stream(config: &SlimFastConfig, seed: u64) -> WindowedStreamReport {
    run_windowed_stream(&StreamScenarioConfig {
        slimfast: config.clone(),
        seed,
        ..StreamScenarioConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_scenario_slides_the_window_and_refits() {
        let report = run_windowed_stream(&StreamScenarioConfig::default());
        assert_eq!(report.phases.len(), 3);
        // Phase 0 fits entirely inside the horizon: nothing evicted yet.
        assert_eq!(report.phases[0].evictions, 0);
        assert_eq!(report.phases[0].live_claims, report.phases[0].claims);
        // The stream overflows the horizon, so the window must have evicted...
        assert!(report.evictions > 0);
        assert!(report.final_live <= 300);
        // ...and the claim counter crossed at least one refit boundary.
        assert!(report.refits >= 1);
        // Total stream volume is conserved: live + evicted = delivered.
        let delivered: usize = report.phases.iter().map(|p| p.claims).sum();
        assert_eq!(report.final_live + report.evictions, delivered);
        assert!(!report.final_weights.is_empty());
    }

    #[test]
    fn stream_scenario_is_deterministic_for_a_fixed_seed() {
        let a = run_windowed_stream(&StreamScenarioConfig::default());
        let b = run_windowed_stream(&StreamScenarioConfig::default());
        assert_eq!(a, b);
        let c = run_windowed_stream(&StreamScenarioConfig {
            seed: 18,
            ..StreamScenarioConfig::default()
        });
        assert_ne!(a.final_weights, c.final_weights);
    }
}
