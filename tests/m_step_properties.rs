//! Property tests for EM's exact M-step (`slimfast::core::m_step`).
//!
//! On random small instances with fixed per-claim correctness targets, repeated Newton
//! steps are checked against a reference computed claim by claim, straight from the
//! dataset and the feature matrix: the cross-entropy of Equation 3 and its gradient,
//! without the per-source sufficient statistics the solver works from. The steps must
//! never increase the reference objective and must drive its gradient to at most `1e-8`
//! of its starting norm.

use proptest::prelude::*;

use slimfast::core::{m_step, CompiledProblem};
use slimfast::optim::{sigmoid, Penalty};
use slimfast::prelude::*;

/// Newton steps a test may take before its gradient target counts as missed.
const MAX_STEPS: usize = 60;

/// A fusion instance plus one correctness target per claim, aligned with
/// `dataset.observations_for_object(o)` for every object `o` in handle order.
struct Instance {
    dataset: Dataset,
    features: FeatureMatrix,
    targets: Vec<f64>,
}

impl Instance {
    fn new(
        num_sources: usize,
        num_objects: usize,
        claims: &[(usize, usize, usize)],
        feature_values: &[(usize, usize, f64)],
        targets: &[f64],
    ) -> Self {
        let mut builder = DatasetBuilder::new();
        builder.reserve_sources(num_sources);
        builder.reserve_objects(num_objects);
        for v in 0..=claims.iter().map(|c| c.2).max().unwrap_or(0) {
            builder.intern_value(&format!("v{v}"));
        }
        for &(s, o, v) in claims {
            // A later conflicting claim by the same source on the same object is dropped.
            let _ = builder.observe_ids(SourceId::new(s), ObjectId::new(o), ValueId::new(v));
        }
        let dataset = builder.build();
        let mut features = FeatureMatrixBuilder::new();
        for &(s, k, value) in feature_values {
            features.set(SourceId::new(s), &format!("f{k}"), value);
        }
        let features = features.build(dataset.num_sources());
        let num_claims = dataset.num_observations();
        let targets = (0..num_claims)
            .map(|c| targets[c % targets.len()])
            .collect();
        Self {
            dataset,
            features,
            targets,
        }
    }

    /// Every claim as `(source, target)`, in the order `targets` follows.
    fn claims(&self) -> impl Iterator<Item = (SourceId, f64)> + '_ {
        self.dataset
            .object_ids()
            .flat_map(|o| self.dataset.observations_for_object(o).iter())
            .zip(&self.targets)
            .map(|(&(s, _), &t)| (s, t))
    }

    /// The claim-level M-step objective and its gradient at `w`.
    fn reference(&self, w: &[f64], l2: f64) -> (f64, Vec<f64>) {
        let num_sources = self.dataset.num_sources();
        let mut loss = l2 / 2.0 * w.iter().map(|x| x * x).sum::<f64>();
        let mut grad: Vec<f64> = w.iter().map(|x| l2 * x).collect();
        for (s, t) in self.claims() {
            let footprint = self.features.features_of(s);
            let z = w[s.index()]
                + footprint
                    .iter()
                    .map(|(k, f)| f * w[num_sources + k.index()])
                    .sum::<f64>();
            // -(t·ln σ(z) + (1 − t)·ln(1 − σ(z))), in a form that cannot overflow.
            loss += t * softplus(-z) + (1.0 - t) * softplus(z);
            let err = sigmoid(z) - t;
            grad[s.index()] += err;
            for (k, f) in footprint {
                grad[num_sources + k.index()] += err * f;
            }
        }
        (loss, grad)
    }

    /// Asserts the solver's descent and convergence properties against the reference,
    /// starting from `init` (padded or truncated to the parameter space).
    fn check_newton_steps(&self, penalty: Penalty, init: &[f64]) {
        let truth = GroundTruth::empty(self.dataset.num_objects());
        let problem = CompiledProblem::compile(&self.dataset, &self.features, &truth);
        let num_sources = self.dataset.num_sources();
        let mut counts = vec![0.0; num_sources];
        let mut correct = vec![0.0; num_sources];
        for (s, t) in self.claims() {
            counts[s.index()] += 1.0;
            correct[s.index()] += t;
        }
        assert_eq!(problem.claim_counts(), &counts[..]);

        let l2 = m_step::l2_strength(&penalty);
        let mut w = init.to_vec();
        w.resize(problem.space().len(), 0.0);
        let (mut loss, grad) = self.reference(&w, l2);
        let start = norm(&grad);
        for step in 1..=MAX_STEPS {
            m_step::newton_step(&problem, &mut w, &correct, l2);
            let (next, grad) = self.reference(&w, l2);
            // The solver sums per source and the reference per claim, so the two agree
            // only up to rounding.
            assert!(
                next <= loss + 1e-12 * loss.abs().max(1.0),
                "step {step} raised the objective from {loss} to {next}"
            );
            loss = next;
            if norm(&grad) <= 1e-8 * start {
                return;
            }
        }
        let (_, grad) = self.reference(&w, l2);
        panic!(
            "relative gradient still {:e} after {MAX_STEPS} Newton steps",
            norm(&grad) / start
        );
    }
}

fn softplus(z: f64) -> f64 {
    z.max(0.0) + (-z.abs()).exp().ln_1p()
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The penalties the solver sees in practice, including ones with no L2 part.
fn penalty(choice: usize) -> Penalty {
    [
        Penalty::L2(1e-4),
        Penalty::L2(0.1),
        Penalty::L2(2.0),
        Penalty::None,
        Penalty::ElasticNet { l1: 0.05, l2: 1e-3 },
    ][choice]
}

/// Random instance shape: sources, objects, domain size and claims.
fn claims_strategy() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, usize)>)> {
    (2usize..8, 1usize..10, 2usize..4).prop_flat_map(|(s, o, d)| {
        let claims = proptest::collection::vec((0..s, 0..o, 0..d), 1..60);
        (Just(s), Just(o), claims)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Newton steps on random instances with random features, targets, starting
    /// weights and penalties descend the claim-level objective and reach its optimum.
    fn newton_steps_descend_to_the_claim_level_optimum(
        (num_sources, num_objects, claims) in claims_strategy(),
        feature_values in proptest::collection::vec((0usize..8, 0usize..4, -2.0f64..2.0), 0..16),
        targets in proptest::collection::vec(0.0f64..1.0, 60),
        init in proptest::collection::vec(-3.0f64..3.0, 20),
        choice in 0usize..5,
    ) {
        let feature_values: Vec<_> = feature_values
            .into_iter()
            .filter(|&(s, _, _)| s < num_sources)
            .collect();
        Instance::new(num_sources, num_objects, &claims, &feature_values, &targets)
            .check_newton_steps(penalty(choice), &init);
    }
}

/// An instance with features and no L2 part: the solver falls back to its L2 floor,
/// which alone pins the trade-off between source indicators and feature weights.
#[test]
fn newton_steps_converge_without_an_l2_part() {
    let claims: Vec<(usize, usize, usize)> = (0..6)
        .flat_map(|o| (0..5).map(move |s| (s, o, (s * o + s) % 2)))
        .collect();
    let features = [
        (0, 0, 1.0),
        (1, 0, 1.0),
        (2, 1, 0.5),
        (3, 1, -1.5),
        (4, 0, 0.3),
        (4, 1, 0.7),
    ];
    let targets = [1.0, 0.9, 0.2, 0.0, 0.6, 1.0, 0.35];
    let instance = Instance::new(5, 6, &claims, &features, &targets);
    for penalty in [Penalty::None, Penalty::L1(0.5)] {
        instance.check_newton_steps(penalty, &[]);
    }
}
