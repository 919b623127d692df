//! SLiMFast's optimizer (Section 4.3): choose between ERM and EM for a given fusion
//! instance by comparing *units of information*.
//!
//! * One labelled object contributes one unit of information to ERM (Algorithm 2 uses
//!   `totalERMUnits = |G|`).
//! * EM's E-step extracts information from redundancy across sources: for an object with
//!   `m` observations over `|D_o|` distinct values, a majority vote by sources of average
//!   accuracy `A` recovers the truth with probability `p_e` given by a binomial tail, and
//!   the object contributes `1 − H(p_e)` units when `p_e ≥ 0.5` (Algorithm 1 / Example 8).
//! * The average accuracy `A` is estimated from the pairwise agreement matrix by rank-one
//!   matrix completion: `E[X_ij] = (2A−1)²`, so `Â = (sqrt(mean X) + 1) / 2`.
//!
//! The printed Algorithm 1 and the worked Example 8 disagree on whether an object's
//! contribution is scaled by `m`; we follow the algorithm (no scaling).

use slimfast_data::{Dataset, FeatureMatrix, GroundTruth};
use slimfast_optim::{rank_one_completion, AgreementMatrix};

use crate::config::{LearnerChoice, SlimFastConfig};

/// The decision made by the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerDecision {
    /// Use empirical risk minimization.
    Erm,
    /// Use expectation maximization.
    Em,
}

impl OptimizerDecision {
    /// The corresponding forced learner choice.
    pub fn as_choice(self) -> LearnerChoice {
        match self {
            OptimizerDecision::Erm => LearnerChoice::Erm,
            OptimizerDecision::Em => LearnerChoice::Em,
        }
    }
}

/// Everything the optimizer computed on the way to its decision, for explainability and for
/// the Table 4 / Figure 5 experiments.
#[derive(Debug, Clone)]
pub struct OptimizerReport {
    /// The chosen algorithm.
    pub decision: OptimizerDecision,
    /// Number of labelled objects `|G|`.
    pub num_labeled: usize,
    /// The generalization-bound proxy `√(|K|/|G|)·log|G|` checked against the threshold
    /// `τ` (infinite when `|G| = 0`).
    pub erm_bound: f64,
    /// Estimated average source accuracy `Â` from the agreement matrix (`None` when no two
    /// sources overlap).
    pub estimated_avg_accuracy: Option<f64>,
    /// ERM information units.
    pub erm_units: f64,
    /// EM information units (Algorithm 1).
    pub em_units: f64,
    /// Whether the `τ` shortcut fired (ERM chosen without comparing units).
    pub threshold_shortcut: bool,
}

/// Natural log of the gamma function (Lanczos approximation), used for binomial tails.
fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7, n = 9).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Log of the binomial PMF `C(n, k) p^k (1-p)^(n-k)`.
fn ln_binomial_pmf(k: u64, n: u64, p: f64) -> f64 {
    if p <= 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    if p >= 1.0 {
        return if k == n { 0.0 } else { f64::NEG_INFINITY };
    }
    let (n_f, k_f) = (n as f64, k as f64);
    ln_gamma(n_f + 1.0) - ln_gamma(k_f + 1.0) - ln_gamma(n_f - k_f + 1.0)
        + k_f * p.ln()
        + (n_f - k_f) * (1.0 - p).ln()
}

/// Binomial CDF `P(X ≤ k)` for `X ~ Binomial(n, p)`.
pub fn binomial_cdf(k: u64, n: u64, p: f64) -> f64 {
    if k >= n {
        return 1.0;
    }
    let mut total = 0.0;
    for i in 0..=k {
        total += ln_binomial_pmf(i, n, p).exp();
    }
    total.min(1.0)
}

/// Binary entropy `H(p)` in bits.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

/// Builds the pairwise agreement matrix `X` of Section 4.3: entry `(i, j)` is the mean of
/// `+1` (agree) / `−1` (disagree) over the objects both sources observe.
pub fn agreement_matrix(dataset: &Dataset) -> AgreementMatrix {
    let n = dataset.num_sources();
    let mut matrix = AgreementMatrix::new(n);
    // One row `i` at a time: per source `j > i`, the objects both claim and how many of
    // those claims agree, counted in dense scratch rows. The counts are integers, so the
    // visiting order cannot change the result.
    let mut shared = vec![0u32; n];
    let mut agreed = vec![0u32; n];
    let mut touched = Vec::new();
    for si in dataset.source_ids() {
        let i = si.index();
        for &(o, vi) in dataset.observations_by_source(si).iter() {
            for &(sj, vj) in dataset.observations_for_object(o) {
                let j = sj.index();
                if j > i {
                    if shared[j] == 0 {
                        touched.push(j);
                    }
                    shared[j] += 1;
                    agreed[j] += u32::from(vi == vj);
                }
            }
        }
        for j in touched.drain(..) {
            let signed = 2 * i64::from(agreed[j]) - i64::from(shared[j]);
            matrix.set(i, j, signed as f64 / f64::from(shared[j]));
            shared[j] = 0;
            agreed[j] = 0;
        }
    }
    matrix
}

/// Estimates the average source accuracy from the agreement matrix (Section 4.3):
/// `Â = (μ̂ + 1) / 2` with `μ̂ = sqrt(mean X_ij)`. Returns `None` when no two sources share
/// an object.
pub fn estimate_average_accuracy(dataset: &Dataset) -> Option<f64> {
    let matrix = agreement_matrix(dataset);
    rank_one_completion(&matrix).map(|mu| (mu + 1.0) / 2.0)
}

/// Algorithm 1 (`EMUnits`): the information EM's E-step extracts from source redundancy.
/// Each object with `p_e ≥ 0.5` contributes `1 − H(p_e)` units.
pub fn em_units(dataset: &Dataset, average_accuracy: f64) -> f64 {
    let mut total = 0.0;
    for o in dataset.object_ids() {
        let observations = dataset.observations_for_object(o);
        let m = observations.len() as u64;
        if m == 0 {
            continue;
        }
        let distinct = dataset.domain(o).len().max(1) as u64;
        let threshold = m / distinct;
        let pe = 1.0 - binomial_cdf(threshold, m, average_accuracy);
        if pe >= 0.5 {
            total += 1.0 - binary_entropy(pe);
        }
    }
    total
}

/// ERM's information units: one per labelled object.
pub fn erm_units(truth: &GroundTruth) -> f64 {
    truth.num_labeled() as f64
}

/// Algorithm 2: SLiMFast's optimizer. Decides between ERM and EM for the given instance.
pub fn decide(
    dataset: &Dataset,
    features: &FeatureMatrix,
    truth: &GroundTruth,
    config: &SlimFastConfig,
) -> OptimizerReport {
    let num_labeled = truth.num_labeled();
    let num_features = features.num_features().max(1) as f64;
    let erm_bound = if num_labeled == 0 {
        f64::INFINITY
    } else {
        let g = num_labeled as f64;
        (num_features / g).sqrt() * g.ln().max(1.0)
    };

    // Shortcut: enough ground truth that the ERM generalization bound is already tight.
    if erm_bound < config.optimizer_threshold {
        return OptimizerReport {
            decision: OptimizerDecision::Erm,
            num_labeled,
            erm_bound,
            estimated_avg_accuracy: None,
            erm_units: erm_units(truth),
            em_units: 0.0,
            threshold_shortcut: true,
        };
    }

    let estimated_avg_accuracy = estimate_average_accuracy(dataset);
    let erm_units_value = erm_units(truth);
    let em_units_value = match estimated_avg_accuracy {
        // Adversarial or uninformative agreement (Â ≤ 0.5) gives EM no usable signal.
        Some(acc) if acc > 0.5 => em_units(dataset, acc),
        _ => 0.0,
    };

    // With no ground truth at all, EM is the only option.
    let decision = if num_labeled == 0 || erm_units_value < em_units_value {
        OptimizerDecision::Em
    } else {
        OptimizerDecision::Erm
    };
    OptimizerReport {
        decision,
        num_labeled,
        erm_bound,
        estimated_avg_accuracy,
        erm_units: erm_units_value,
        em_units: em_units_value,
        threshold_shortcut: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::{DatasetBuilder, SplitPlan};
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..10u64 {
            let expected: f64 = (1..n).map(|i| (i as f64).ln()).sum();
            assert!(
                (ln_gamma(n as f64) - expected).abs() < 1e-9,
                "ln_gamma({n})"
            );
        }
    }

    #[test]
    fn binomial_cdf_matches_hand_computation() {
        // Example 8 of the paper: 10 sources at accuracy 0.7, majority threshold 5.
        let pe = 1.0 - binomial_cdf(5, 10, 0.7);
        assert!((pe - 0.8497).abs() < 1e-3, "pe = {pe}");
        let units = 1.0 - binary_entropy(pe);
        assert!((units - 0.389).abs() < 5e-3, "units = {units}");
        // Degenerate cases.
        assert_eq!(binomial_cdf(10, 10, 0.3), 1.0);
        assert!((binomial_cdf(0, 4, 0.5) - 0.0625).abs() < 1e-9);
        assert_eq!(binomial_cdf(2, 5, 0.0), 1.0);
        assert_eq!(binomial_cdf(2, 5, 1.0), 0.0);
    }

    #[test]
    fn binary_entropy_has_its_maximum_at_half() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(0.3) < 1.0);
    }

    #[test]
    fn agreement_matrix_reflects_actual_agreement() {
        let mut b = DatasetBuilder::new();
        // s0 and s1 agree on both shared objects; s0 and s2 disagree on both.
        b.observe("s0", "o0", "x").unwrap();
        b.observe("s1", "o0", "x").unwrap();
        b.observe("s2", "o0", "y").unwrap();
        b.observe("s0", "o1", "x").unwrap();
        b.observe("s1", "o1", "x").unwrap();
        b.observe("s2", "o1", "y").unwrap();
        let d = b.build();
        let m = agreement_matrix(&d);
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(0, 2), Some(-1.0));
        assert_eq!(m.get(1, 2), Some(-1.0));
    }

    #[test]
    fn agreement_matrix_matches_a_pair_by_pair_reference() {
        let inst = slimfast_datagen::DatasetKind::Demonstrations.generate(5);
        let d = &inst.dataset;
        let mut reference: std::collections::HashMap<(usize, usize), (i64, i64)> =
            std::collections::HashMap::new();
        for o in d.object_ids() {
            let observations = d.observations_for_object(o);
            for (a, &(sa, va)) in observations.iter().enumerate() {
                for &(sb, vb) in &observations[a + 1..] {
                    let key = (sa.index().min(sb.index()), sa.index().max(sb.index()));
                    let entry = reference.entry(key).or_default();
                    entry.0 += if va == vb { 1 } else { -1 };
                    entry.1 += 1;
                }
            }
        }
        let m = agreement_matrix(d);
        assert_eq!(m.num_observed(), reference.len());
        for ((i, j), (signed, total)) in reference {
            let expected = signed as f64 / total as f64;
            assert_eq!(m.get(i, j).map(f64::to_bits), Some(expected.to_bits()));
            assert_eq!(m.get(j, i).map(f64::to_bits), Some(expected.to_bits()));
        }
    }

    #[test]
    fn average_accuracy_estimate_tracks_planted_accuracy() {
        for target in [0.6, 0.75, 0.9] {
            let inst = SyntheticConfig {
                num_sources: 120,
                num_objects: 400,
                domain_size: 2,
                pattern: ObservationPattern::Bernoulli(0.2),
                accuracy: AccuracyModel {
                    mean: target,
                    spread: 0.05,
                },
                features: FeatureModel {
                    num_predictive: 0,
                    num_noise: 0,
                    predictive_strength: 0.0,
                },
                copying: None,
                seed: 3,
                name: "acc".into(),
            }
            .generate();
            let estimate = estimate_average_accuracy(&inst.dataset).unwrap();
            assert!(
                (estimate - target).abs() < 0.08,
                "target {target}, estimated {estimate}"
            );
        }
    }

    #[test]
    fn no_overlap_means_no_accuracy_estimate() {
        let mut b = DatasetBuilder::new();
        b.observe("s0", "o0", "x").unwrap();
        b.observe("s1", "o1", "x").unwrap();
        let d = b.build();
        assert_eq!(estimate_average_accuracy(&d), None);
    }

    #[test]
    fn em_units_grow_with_density_and_accuracy() {
        let build = |density: f64, seed: u64| {
            SyntheticConfig {
                num_sources: 100,
                num_objects: 200,
                domain_size: 2,
                pattern: ObservationPattern::Bernoulli(density),
                accuracy: AccuracyModel {
                    mean: 0.7,
                    spread: 0.05,
                },
                features: FeatureModel::default(),
                copying: None,
                seed,
                name: "units".into(),
            }
            .generate()
        };
        let sparse = build(0.03, 1);
        let dense = build(0.15, 1);
        let sparse_units = em_units(&sparse.dataset, 0.7);
        let dense_units = em_units(&dense.dataset, 0.7);
        assert!(
            dense_units > sparse_units,
            "{dense_units} vs {sparse_units}"
        );
        // Higher assumed accuracy also increases the units on the same instance.
        let low_acc = em_units(&dense.dataset, 0.55);
        let high_acc = em_units(&dense.dataset, 0.85);
        assert!(high_acc > low_acc, "{high_acc} vs {low_acc}");
    }

    #[test]
    fn optimizer_prefers_erm_with_plentiful_labels_and_em_with_none() {
        let inst = SyntheticConfig {
            num_sources: 100,
            num_objects: 300,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.05),
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
            name: "opt".into(),
        }
        .generate();
        let config = SlimFastConfig::default();

        // No labels: EM is the only option.
        let empty = GroundTruth::empty(inst.dataset.num_objects());
        let report = decide(&inst.dataset, &inst.features, &empty, &config);
        assert_eq!(report.decision, OptimizerDecision::Em);
        assert_eq!(report.num_labeled, 0);
        assert!(report.erm_bound.is_infinite());

        // Full labels: ERM has more units than EM can extract at this sparsity.
        let report = decide(&inst.dataset, &inst.features, &inst.truth, &config);
        assert_eq!(report.decision, OptimizerDecision::Erm);
        assert!(report.erm_units >= report.em_units);
    }

    #[test]
    fn threshold_shortcut_fires_for_tiny_feature_sets_and_many_labels() {
        let inst = SyntheticConfig {
            num_sources: 50,
            num_objects: 2000,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.05),
            accuracy: AccuracyModel {
                mean: 0.7,
                spread: 0.1,
            },
            features: FeatureModel {
                num_predictive: 1,
                num_noise: 0,
                predictive_strength: 0.2,
            },
            copying: None,
            seed: 9,
            name: "shortcut".into(),
        }
        .generate();
        // |K| ~ 2 indicators, |G| = 2000 ⇒ bound ≈ sqrt(2/2000)*ln(2000) ≈ 0.24; use a
        // looser τ so the shortcut fires.
        let config = SlimFastConfig {
            optimizer_threshold: 0.5,
            ..Default::default()
        };
        let report = decide(&inst.dataset, &inst.features, &inst.truth, &config);
        assert!(report.threshold_shortcut);
        assert_eq!(report.decision, OptimizerDecision::Erm);
    }

    #[test]
    fn dense_accurate_instances_with_scarce_labels_go_to_em() {
        let inst = SyntheticConfig {
            num_sources: 200,
            num_objects: 500,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.2),
            accuracy: AccuracyModel {
                mean: 0.8,
                spread: 0.05,
            },
            features: FeatureModel {
                num_predictive: 4,
                num_noise: 4,
                predictive_strength: 0.1,
            },
            copying: None,
            seed: 11,
            name: "dense".into(),
        }
        .generate();
        let split = SplitPlan::new(0.01, 1).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let report = decide(
            &inst.dataset,
            &inst.features,
            &train,
            &SlimFastConfig::default(),
        );
        assert_eq!(report.decision, OptimizerDecision::Em);
        assert!(report.estimated_avg_accuracy.unwrap() > 0.7);
    }
}
