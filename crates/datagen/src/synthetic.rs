//! The parameterized synthetic fusion-instance generator (Example 6 / Figure 4).
//!
//! Every generated instance knows the latent truth of all objects and the true accuracy of
//! every source, so downstream experiments can measure both object-value accuracy and
//! source-accuracy estimation error exactly.
//!
//! The low-level entry point is [`generate_claims`], which lays observations over the
//! source × object grid given per-source accuracies; [`SyntheticConfig::generate`] adds a
//! feature model on top and is what the Figure 4 sweeps use. The dataset simulators in
//! [`crate::datasets`] share [`generate_claims`] but build richer, domain-flavoured
//! feature families.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use slimfast_data::{
    Dataset, DatasetBuilder, FeatureMatrix, FeatureMatrixBuilder, GroundTruth, ObjectId, SourceId,
    ValueId,
};

use crate::dist::{sample_distinct, triangular_count};

/// How the base (pre-feature) accuracy of sources is distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyModel {
    /// Target mean source accuracy.
    pub mean: f64,
    /// Half-width of the uniform accuracy spread around the mean.
    pub spread: f64,
}

impl Default for AccuracyModel {
    fn default() -> Self {
        Self {
            mean: 0.7,
            spread: 0.15,
        }
    }
}

/// How many domain features sources carry and how strongly they move source accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureModel {
    /// Number of features that genuinely shift source accuracy.
    pub num_predictive: usize,
    /// Number of features with no relationship to accuracy.
    pub num_noise: usize,
    /// Total accuracy shift (in probability space) a predictive feature can cause.
    pub predictive_strength: f64,
}

impl Default for FeatureModel {
    fn default() -> Self {
        Self {
            num_predictive: 4,
            num_noise: 4,
            predictive_strength: 0.15,
        }
    }
}

/// How observations are laid over the source × object grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObservationPattern {
    /// Each (source, object) pair carries an observation independently with probability `p`
    /// (the paper's uniform-selectivity assumption).
    Bernoulli(f64),
    /// Each object receives between `min` and `max` observations from randomly chosen
    /// sources (used for the sparse Genomics-like regime).
    PerObjectRange {
        /// Minimum observations per object.
        min: usize,
        /// Maximum observations per object.
        max: usize,
    },
    /// Each object receives exactly `k` observations (the Crowd regime: 20 workers/tweet).
    PerObjectExact(usize),
}

/// Copying structure: groups of sources that replicate a leader's claims (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyingModel {
    /// Number of copier groups.
    pub num_groups: usize,
    /// Sources per group (including the leader).
    pub group_size: usize,
    /// Probability that a copier replicates the leader's claim on an object the leader
    /// observed (mistakes included).
    pub copy_probability: f64,
}

/// Full configuration of a synthetic fusion instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Instance name used in reports.
    pub name: String,
    /// Number of sources `|S|`.
    pub num_sources: usize,
    /// Number of objects `|O|`.
    pub num_objects: usize,
    /// Number of candidate values per object.
    pub domain_size: usize,
    /// Observation layout.
    pub pattern: ObservationPattern,
    /// Source-accuracy distribution.
    pub accuracy: AccuracyModel,
    /// Domain-feature model.
    pub features: FeatureModel,
    /// Optional copying structure.
    pub copying: Option<CopyingModel>,
    /// RNG seed; generation is fully deterministic given the configuration.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            name: "synthetic".to_string(),
            num_sources: 1000,
            num_objects: 1000,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.01),
            accuracy: AccuracyModel::default(),
            features: FeatureModel::default(),
            copying: None,
            seed: 0,
        }
    }
}

/// A generated fusion instance together with its latent ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticInstance {
    /// Instance name.
    pub name: String,
    /// The observations.
    pub dataset: Dataset,
    /// Per-source domain features.
    pub features: FeatureMatrix,
    /// Full ground truth over all objects.
    pub truth: GroundTruth,
    /// The true accuracy of every source (by [`SourceId`] index).
    pub true_accuracies: Vec<f64>,
    /// `(copier, leader)` pairs planted by the copying model.
    pub copier_pairs: Vec<(SourceId, SourceId)>,
    /// Number of *base* feature families (before indicator expansion); reported as
    /// "# Domain Features" in Table 1 style outputs.
    pub num_base_features: usize,
}

impl SyntheticInstance {
    /// Mean of the true source accuracies.
    pub fn mean_true_accuracy(&self) -> f64 {
        if self.true_accuracies.is_empty() {
            return 0.0;
        }
        self.true_accuracies.iter().sum::<f64>() / self.true_accuracies.len() as f64
    }
}

/// Specification handed to [`generate_claims`]: everything needed to lay observations over
/// the grid once per-source accuracies are fixed.
#[derive(Debug, Clone)]
pub struct ClaimsSpec<'a> {
    /// Instance name used for entity naming.
    pub name: &'a str,
    /// Number of objects.
    pub num_objects: usize,
    /// Number of candidate values per object.
    pub domain_size: usize,
    /// Observation layout.
    pub pattern: ObservationPattern,
    /// True accuracy of every source.
    pub true_accuracies: &'a [f64],
    /// Optional copying structure.
    pub copying: Option<CopyingModel>,
}

/// A claim of one source about one object: `(source, object) → value`.
type Claims = HashMap<(usize, usize), usize>;

/// Gives every object a claim and its true value a claimant, object by object: an
/// object nobody claimed gets one `observe`d claim from a uniformly drawn source, and an
/// object whose true value nobody claims has it asserted by a uniformly drawn claimant
/// (in source order). Claimants are indexed by object once, so the pass is linear in
/// the claims; it draws from `rng` exactly as a scan of every claim per object would.
fn repair_claims(
    claims: &mut Claims,
    truth_values: &[usize],
    num_sources: usize,
    rng: &mut StdRng,
    observe: &impl Fn(&mut StdRng, &mut Claims, usize, usize),
) {
    let mut claimants: Vec<Vec<usize>> = vec![Vec::new(); truth_values.len()];
    for &(s, o) in claims.keys() {
        claimants[o].push(s);
    }
    for (o, &true_value) in truth_values.iter().enumerate() {
        let observers = &mut claimants[o];
        if observers.is_empty() {
            let s = rng.gen_range(0..num_sources);
            observe(rng, claims, s, o);
            observers.push(s);
        }
        if !observers.iter().any(|&s| claims[&(s, o)] == true_value) {
            // Sort for determinism: HashMap iteration order varies between runs.
            observers.sort_unstable();
            let s = observers[rng.gen_range(0..observers.len())];
            claims.insert((s, o), true_value);
        }
    }
}

/// Lays observations over the source × object grid.
///
/// Guarantees single-truth semantics: every object ends up with at least one observation
/// and at least one source claiming its true value. Returns the dataset, the full ground
/// truth, and any planted `(copier, leader)` pairs.
pub fn generate_claims(
    spec: &ClaimsSpec<'_>,
    rng: &mut StdRng,
) -> (Dataset, GroundTruth, Vec<(SourceId, SourceId)>) {
    let num_sources = spec.true_accuracies.len();
    assert!(
        spec.domain_size >= 2,
        "a fusion instance needs at least two candidate values"
    );
    assert!(
        num_sources >= 2,
        "a fusion instance needs at least two sources"
    );
    assert!(
        spec.num_objects >= 1,
        "a fusion instance needs at least one object"
    );

    let truth_values: Vec<usize> = (0..spec.num_objects)
        .map(|_| rng.gen_range(0..spec.domain_size))
        .collect();

    let mut claims: Claims = HashMap::new();
    let observe = |rng: &mut StdRng, claims: &mut Claims, s: usize, o: usize| {
        let correct = rng.gen_bool(spec.true_accuracies[s].clamp(0.0, 1.0));
        let value = if correct {
            truth_values[o]
        } else {
            // A uniformly chosen wrong value.
            let mut v = rng.gen_range(0..spec.domain_size - 1);
            if v >= truth_values[o] {
                v += 1;
            }
            v
        };
        claims.insert((s, o), value);
    };
    match spec.pattern {
        ObservationPattern::Bernoulli(p) => {
            for o in 0..spec.num_objects {
                for s in 0..num_sources {
                    if rng.gen_bool(p.clamp(0.0, 1.0)) {
                        observe(rng, &mut claims, s, o);
                    }
                }
            }
        }
        ObservationPattern::PerObjectRange { min, max } => {
            for o in 0..spec.num_objects {
                let k = triangular_count(rng, min, max).max(1);
                for s in sample_distinct(rng, num_sources, k) {
                    observe(rng, &mut claims, s, o);
                }
            }
        }
        ObservationPattern::PerObjectExact(k) => {
            for o in 0..spec.num_objects {
                for s in sample_distinct(rng, num_sources, k.max(1)) {
                    observe(rng, &mut claims, s, o);
                }
            }
        }
    }

    // Guarantee at least one observation per object (single-truth semantics needs a
    // claimant), and that the true value is claimed by at least one source.
    repair_claims(&mut claims, &truth_values, num_sources, rng, &observe);

    // Copying: replicate leaders' claims onto copiers.
    let mut copier_pairs = Vec::new();
    if let Some(copying) = spec.copying {
        let group_size = copying.group_size.max(2);
        for g in 0..copying.num_groups {
            let leader = (g * group_size) % num_sources;
            for member in 1..group_size {
                let copier = (leader + member) % num_sources;
                if copier == leader {
                    continue;
                }
                copier_pairs.push((SourceId::new(copier), SourceId::new(leader)));
                // Sort for determinism: HashMap iteration order varies between runs.
                let mut leader_claims: Vec<(usize, usize)> = claims
                    .iter()
                    .filter(|((s, _), _)| *s == leader)
                    .map(|((_, o), &v)| (*o, v))
                    .collect();
                leader_claims.sort_unstable();
                for (o, v) in leader_claims {
                    if rng.gen_bool(copying.copy_probability) {
                        claims.insert((copier, o), v);
                    }
                }
            }
        }
    }

    // Assemble the dataset with stable entity names and dense value handles.
    let mut builder = DatasetBuilder::with_capacity(claims.len());
    for s in 0..num_sources {
        builder.intern_source(&format!("{}-src-{s}", spec.name));
    }
    for o in 0..spec.num_objects {
        builder.intern_object(&format!("{}-obj-{o}", spec.name));
    }
    for d in 0..spec.domain_size {
        builder.intern_value(&format!("v{d}"));
    }
    let mut ordered: Vec<((usize, usize), usize)> = claims.into_iter().collect();
    ordered.sort_unstable();
    for ((s, o), v) in ordered {
        builder
            .observe_ids(SourceId::new(s), ObjectId::new(o), ValueId::new(v))
            .expect("claims map holds one value per (source, object)");
    }
    let dataset = builder.build();

    let truth = GroundTruth::from_pairs(
        spec.num_objects,
        truth_values
            .iter()
            .enumerate()
            .map(|(o, &v)| (ObjectId::new(o), ValueId::new(v))),
    );

    (dataset, truth, copier_pairs)
}

impl SyntheticConfig {
    /// Generates the instance described by this configuration.
    pub fn generate(&self) -> SyntheticInstance {
        let mut rng = StdRng::seed_from_u64(self.seed);

        // --- Features and per-source accuracies -------------------------------------
        let num_features = self.features.num_predictive + self.features.num_noise;
        let mut feature_flags: Vec<Vec<bool>> = Vec::with_capacity(self.num_sources);
        for _ in 0..self.num_sources {
            feature_flags.push((0..num_features).map(|_| rng.gen_bool(0.5)).collect());
        }
        // Alternating-sign coefficients for predictive features; noise features get zero.
        let coefficients: Vec<f64> = (0..num_features)
            .map(|k| {
                if k < self.features.num_predictive {
                    let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                    sign * self.features.predictive_strength
                } else {
                    0.0
                }
            })
            .collect();
        let true_accuracies: Vec<f64> = (0..self.num_sources)
            .map(|s| {
                let base =
                    self.accuracy.mean + self.accuracy.spread * (rng.gen::<f64>() * 2.0 - 1.0);
                let feature_shift: f64 = feature_flags[s]
                    .iter()
                    .zip(&coefficients)
                    .map(|(&flag, &c)| c * (if flag { 0.5 } else { -0.5 }))
                    .sum();
                (base + feature_shift).clamp(0.02, 0.98)
            })
            .collect();

        let spec = ClaimsSpec {
            name: &self.name,
            num_objects: self.num_objects,
            domain_size: self.domain_size,
            pattern: self.pattern,
            true_accuracies: &true_accuracies,
            copying: self.copying,
        };
        let (dataset, truth, copier_pairs) = generate_claims(&spec, &mut rng);

        let mut feature_builder = FeatureMatrixBuilder::new();
        for (s, flags) in feature_flags.iter().enumerate() {
            for (k, &flag) in flags.iter().enumerate() {
                let family = if k < self.features.num_predictive {
                    format!("pred{k}")
                } else {
                    format!("noise{}", k - self.features.num_predictive)
                };
                let level = if flag { "High" } else { "Low" };
                feature_builder.set_flag(SourceId::new(s), &format!("{family}={level}"));
            }
        }
        let features = feature_builder.build(self.num_sources);

        SyntheticInstance {
            name: self.name.clone(),
            dataset,
            features,
            truth,
            true_accuracies,
            copier_pairs,
            num_base_features: num_features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repair pass before claimants were indexed, which scanned every claim for
    /// each object, twice. [`repair_claims`] must draw and write exactly what it did.
    fn repair_claims_by_scan(
        claims: &mut Claims,
        truth_values: &[usize],
        num_sources: usize,
        rng: &mut StdRng,
        observe: &impl Fn(&mut StdRng, &mut Claims, usize, usize),
    ) {
        for (o, &true_value) in truth_values.iter().enumerate() {
            let observers: Vec<usize> = claims
                .keys()
                .filter(|(_, obj)| *obj == o)
                .map(|(s, _)| *s)
                .collect();
            if observers.is_empty() {
                let s = rng.gen_range(0..num_sources);
                observe(rng, claims, s, o);
            }
            let has_truth = claims
                .iter()
                .any(|((_, obj), &v)| *obj == o && v == true_value);
            if !has_truth {
                let mut observers: Vec<usize> = claims
                    .keys()
                    .filter(|(_, obj)| *obj == o)
                    .map(|(s, _)| *s)
                    .collect();
                observers.sort_unstable();
                let s = observers[rng.gen_range(0..observers.len())];
                claims.insert((s, o), true_value);
            }
        }
    }

    #[test]
    fn indexed_repair_draws_and_writes_what_the_scan_did() {
        let (mut unclaimed, mut untrue) = (0, 0);
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let num_sources = rng.gen_range(2..12usize);
            let num_objects = rng.gen_range(1..60usize);
            let domain_size = rng.gen_range(2..6usize);
            let p = rng.gen_range(0.0..0.4);
            let accuracies: Vec<f64> = (0..num_sources).map(|_| rng.gen_range(0.0..1.0)).collect();
            let truth: Vec<usize> = (0..num_objects)
                .map(|_| rng.gen_range(0..domain_size))
                .collect();
            let observe = |rng: &mut StdRng, claims: &mut Claims, s: usize, o: usize| {
                let value = if rng.gen_bool(accuracies[s]) {
                    truth[o]
                } else {
                    (truth[o] + rng.gen_range(1..domain_size)) % domain_size
                };
                claims.insert((s, o), value);
            };
            let mut claims = Claims::new();
            for o in 0..num_objects {
                for s in 0..num_sources {
                    if rng.gen_bool(p) {
                        observe(&mut rng, &mut claims, s, o);
                    }
                }
            }
            for (o, true_value) in truth.iter().enumerate() {
                let values: Vec<usize> = (0..num_sources)
                    .filter_map(|s| claims.get(&(s, o)).copied())
                    .collect();
                unclaimed += usize::from(values.is_empty());
                untrue += usize::from(!values.is_empty() && !values.contains(true_value));
            }
            let (mut indexed, mut scanned) = (claims.clone(), claims);
            let (mut a, mut b) = (rng.clone(), rng);
            repair_claims(&mut indexed, &truth, num_sources, &mut a, &observe);
            repair_claims_by_scan(&mut scanned, &truth, num_sources, &mut b, &observe);
            assert_eq!(indexed, scanned, "seed {seed}");
            assert_eq!(
                a.gen::<u64>(),
                b.gen::<u64>(),
                "seed {seed}: draws diverged"
            );
        }
        assert!(
            unclaimed > 0 && untrue > 0,
            "both repair branches ran: {unclaimed} unclaimed, {untrue} untrue"
        );
    }

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            name: "test".into(),
            num_sources: 50,
            num_objects: 200,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.1),
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
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = small_config();
        let a = config.generate();
        let b = config.generate();
        assert_eq!(a.dataset.num_observations(), b.dataset.num_observations());
        assert_eq!(a.true_accuracies, b.true_accuracies);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn dimensions_match_configuration() {
        let instance = small_config().generate();
        assert_eq!(instance.dataset.num_sources(), 50);
        assert_eq!(instance.dataset.num_objects(), 200);
        assert_eq!(instance.true_accuracies.len(), 50);
        assert_eq!(instance.truth.num_labeled(), 200);
        // 2 predictive + 2 noise families, each expanded into High/Low indicators.
        assert!(instance.features.num_features() <= 8);
        assert_eq!(instance.num_base_features, 4);
    }

    #[test]
    fn density_tracks_bernoulli_probability() {
        let config = SyntheticConfig {
            pattern: ObservationPattern::Bernoulli(0.05),
            num_sources: 200,
            num_objects: 300,
            ..small_config()
        };
        let instance = config.generate();
        let density = instance.dataset.density();
        assert!((density - 0.05).abs() < 0.01, "density = {density}");
    }

    #[test]
    fn exact_per_object_pattern_is_exact() {
        let config = SyntheticConfig {
            pattern: ObservationPattern::PerObjectExact(5),
            num_sources: 30,
            num_objects: 40,
            ..small_config()
        };
        let instance = config.generate();
        for o in instance.dataset.object_ids() {
            assert_eq!(instance.dataset.observations_for_object(o).len(), 5);
        }
    }

    #[test]
    fn per_object_range_pattern_respects_bounds() {
        let config = SyntheticConfig {
            pattern: ObservationPattern::PerObjectRange { min: 2, max: 6 },
            num_sources: 100,
            num_objects: 50,
            ..small_config()
        };
        let instance = config.generate();
        for o in instance.dataset.object_ids() {
            let n = instance.dataset.observations_for_object(o).len();
            assert!((2..=6).contains(&n), "object {o} has {n} observations");
        }
    }

    #[test]
    fn mean_accuracy_tracks_target() {
        for target in [0.5, 0.65, 0.8] {
            let config = SyntheticConfig {
                accuracy: AccuracyModel {
                    mean: target,
                    spread: 0.05,
                },
                features: FeatureModel {
                    num_predictive: 2,
                    num_noise: 0,
                    predictive_strength: 0.1,
                },
                num_sources: 400,
                ..small_config()
            };
            let instance = config.generate();
            let mean = instance.mean_true_accuracy();
            assert!((mean - target).abs() < 0.03, "target {target}, got {mean}");
        }
    }

    #[test]
    fn empirical_source_accuracy_matches_planted_accuracy() {
        let config = SyntheticConfig {
            pattern: ObservationPattern::Bernoulli(0.5),
            num_sources: 30,
            num_objects: 500,
            ..small_config()
        };
        let instance = config.generate();
        let empirical = instance.truth.source_accuracies(&instance.dataset);
        for (s, emp) in empirical.iter().enumerate() {
            let emp = emp.expect("dense instance: every source observes something");
            // Forced truth-claim repairs perturb the planted accuracy slightly upward.
            assert!(
                (emp - instance.true_accuracies[s]).abs() < 0.15,
                "source {s}: empirical {emp}, planted {}",
                instance.true_accuracies[s]
            );
        }
    }

    #[test]
    fn every_object_has_an_observation_and_its_truth_claimed() {
        let config = SyntheticConfig {
            pattern: ObservationPattern::Bernoulli(0.002),
            num_sources: 100,
            num_objects: 300,
            ..small_config()
        };
        let instance = config.generate();
        for o in instance.dataset.object_ids() {
            let obs = instance.dataset.observations_for_object(o);
            assert!(!obs.is_empty(), "object {o} has no observations");
            let truth = instance.truth.get(o).unwrap();
            assert!(
                obs.iter().any(|(_, v)| *v == truth),
                "object {o}: no source claims the true value"
            );
        }
    }

    #[test]
    fn copying_plants_highly_agreeing_pairs() {
        let config = SyntheticConfig {
            num_sources: 60,
            num_objects: 300,
            pattern: ObservationPattern::Bernoulli(0.2),
            copying: Some(CopyingModel {
                num_groups: 3,
                group_size: 3,
                copy_probability: 0.9,
            }),
            ..small_config()
        };
        let instance = config.generate();
        assert_eq!(instance.copier_pairs.len(), 6);
        // Copier/leader pairs agree on most commonly observed objects.
        for &(copier, leader) in &instance.copier_pairs {
            let mut shared = 0usize;
            let mut agree = 0usize;
            for &(o, v) in instance.dataset.observations_by_source(copier).iter() {
                if let Some(lv) = instance.dataset.value_of(leader, o) {
                    shared += 1;
                    if lv == v {
                        agree += 1;
                    }
                }
            }
            assert!(shared > 0);
            assert!(
                agree as f64 / shared as f64 > 0.7,
                "copier {copier} agrees with leader {leader} on only {agree}/{shared}"
            );
        }
    }

    #[test]
    fn value_handles_are_dense_across_the_domain() {
        let instance = small_config().generate();
        // Value ids 0..domain_size are all interned with names "v0", "v1", ...
        assert_eq!(instance.dataset.value_id("v0"), Some(ValueId::new(0)));
        assert_eq!(instance.dataset.value_id("v1"), Some(ValueId::new(1)));
    }

    #[test]
    #[should_panic(expected = "at least two candidate values")]
    fn degenerate_domain_is_rejected() {
        let config = SyntheticConfig {
            domain_size: 1,
            ..small_config()
        };
        config.generate();
    }
}
