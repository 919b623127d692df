//! Binary logistic regression and the logistic helpers every learner shares.
//!
//! The source accuracy model of Equation 3 is a plain binary logistic regression over
//! source features. SLiMFast's ERM objective, a conditional logistic regression with one
//! class per domain value, runs on the compiled problem in `slimfast-core`.

use std::cell::RefCell;

use crate::kernels;
use crate::penalty::Penalty;
use crate::sgd::{minimize, FitResult, SgdConfig, StochasticObjective};
use crate::sparse::SparseVec;

/// Numerically stable logistic function `1 / (1 + e^{-x})`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `log(1 + e^x)`.
#[inline]
pub fn log1pexp(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Binary cross-entropy `-(y ln p + (1-y) ln(1-p))` with probability clamping.
#[inline]
pub fn log_loss(p: f64, y: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

/// In-place stable softmax over a score vector.
pub fn softmax_in_place(scores: &mut [f64]) {
    if scores.is_empty() {
        return;
    }
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

/// One (possibly fractionally labelled, weighted) binary training example.
#[derive(Debug, Clone)]
pub struct BinaryExample {
    /// Sparse feature vector.
    pub features: SparseVec,
    /// Target in `[0, 1]`; fractional targets express soft labels.
    pub target: f64,
    /// Example weight (1.0 for ordinary examples).
    pub weight: f64,
}

impl BinaryExample {
    /// An example with unit weight.
    pub fn new(features: SparseVec, target: f64) -> Self {
        Self {
            features,
            target,
            weight: 1.0,
        }
    }

    /// An example with an explicit weight.
    pub fn weighted(features: SparseVec, target: f64, weight: f64) -> Self {
        Self {
            features,
            target,
            weight,
        }
    }
}

thread_local! {
    /// Per-lane probability/score scratch reused by the flat objectives across every
    /// example, chunk, and fit on this thread. Taken out of the cell while in use so a
    /// re-entrant call degrades to a fresh allocation instead of a panic.
    static PROB_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Flattens sparse rows into one contiguous CSR block (`offsets` into
/// `params`/`values`), dropping entries at or beyond `num_params` — the dot product
/// treats those as zero and the gradient reducer discards them, so removal at flatten
/// time is semantically neutral and keeps the hot loops branch-light.
fn flatten_rows<'a>(
    rows: impl Iterator<Item = &'a SparseVec>,
    num_params: usize,
) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
    assert!(
        num_params <= u32::MAX as usize,
        "parameter space exceeds the u32 CSR index range"
    );
    let mut offsets: Vec<u32> = vec![0];
    let mut params: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    for row in rows {
        for (i, v) in row.iter() {
            if i < num_params {
                params.push(i as u32);
                values.push(v);
            }
        }
        offsets.push(params.len() as u32);
    }
    (offsets, params, values)
}

/// Binary logistic objective over a flat SoA copy of the examples' features:
/// one contiguous `params`/`values` CSR block replaces per-example `SparseVec`
/// walks, so gradient chunks run over cache-line-friendly columns and batch
/// their sigmoids through [`kernels::sigmoid_slice`].
struct BinaryObjective<'a> {
    examples: &'a [BinaryExample],
    num_params: usize,
    offsets: Vec<u32>,
    params: Vec<u32>,
    values: Vec<f64>,
}

impl<'a> BinaryObjective<'a> {
    fn new(examples: &'a [BinaryExample], num_params: usize) -> Self {
        let (offsets, params, values) =
            flatten_rows(examples.iter().map(|ex| &ex.features), num_params);
        Self {
            examples,
            num_params,
            offsets,
            params,
            values,
        }
    }

    /// The flat feature row of one example.
    #[inline]
    fn row(&self, example: usize) -> (&[u32], &[f64]) {
        let lo = self.offsets[example] as usize;
        let hi = self.offsets[example + 1] as usize;
        (&self.params[lo..hi], &self.values[lo..hi])
    }
}

impl StochasticObjective for BinaryObjective<'_> {
    fn num_params(&self) -> usize {
        self.num_params
    }

    fn num_examples(&self) -> usize {
        self.examples.len()
    }

    fn example_loss_grad(&self, w: &[f64], example: usize, grad: &mut SparseVec) -> f64 {
        let ex = &self.examples[example];
        let (params, values) = self.row(example);
        let mut score = [kernels::dot_csr(params, values, w)];
        kernels::sigmoid_slice(&mut score);
        let p = score[0];
        let err = ex.weight * (p - ex.target);
        for (i, v) in params.iter().zip(values) {
            grad.add(*i as usize, err * v);
        }
        ex.weight * log_loss(p, ex.target)
    }

    fn chunk_loss_grad(
        &self,
        w: &[f64],
        examples: &[usize],
        entries: &mut Vec<(usize, f64)>,
    ) -> f64 {
        let mut probs = PROB_SCRATCH.with(RefCell::take);
        probs.clear();
        for &example in examples {
            let (params, values) = self.row(example);
            probs.push(kernels::dot_csr(params, values, w));
        }
        kernels::sigmoid_slice(&mut probs);
        let mut loss = 0.0;
        for (&example, &p) in examples.iter().zip(probs.iter()) {
            let ex = &self.examples[example];
            let err = ex.weight * (p - ex.target);
            let (params, values) = self.row(example);
            for (i, v) in params.iter().zip(values) {
                entries.push((*i as usize, err * v));
            }
            loss += ex.weight * log_loss(p, ex.target);
        }
        PROB_SCRATCH.with(|cell| cell.replace(probs));
        loss
    }
}

/// A fitted binary logistic regression model.
#[derive(Debug, Clone)]
pub struct BinaryLogisticRegression {
    weights: Vec<f64>,
    fit: Option<FitResult>,
}

impl BinaryLogisticRegression {
    /// Wraps an externally produced weight vector.
    pub fn from_weights(weights: Vec<f64>) -> Self {
        Self { weights, fit: None }
    }

    /// Fits the model on `examples` over a parameter space of dimension `num_params`.
    pub fn fit(examples: &[BinaryExample], num_params: usize, config: &SgdConfig) -> Self {
        Self::fit_warm(examples, num_params, config, None)
    }

    /// Fits with warm-start weights (used by the lasso path and EM).
    pub fn fit_warm(
        examples: &[BinaryExample],
        num_params: usize,
        config: &SgdConfig,
        init: Option<Vec<f64>>,
    ) -> Self {
        let objective = BinaryObjective::new(examples, num_params);
        let fit = minimize(&objective, init, config);
        Self {
            weights: fit.weights.clone(),
            fit: Some(fit),
        }
    }

    /// The learned weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Details of the SGD run, when the model was fitted (as opposed to wrapped).
    pub fn fit_result(&self) -> Option<&FitResult> {
        self.fit.as_ref()
    }

    /// Predicted probability of the positive class for a feature vector.
    pub fn predict_proba(&self, features: &SparseVec) -> f64 {
        sigmoid(features.dot(&self.weights))
    }

    /// Mean log-loss over a set of examples.
    pub fn mean_log_loss(&self, examples: &[BinaryExample]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let total: f64 = examples
            .iter()
            .map(|ex| ex.weight * log_loss(self.predict_proba(&ex.features), ex.target))
            .sum();
        total / examples.len() as f64
    }
}

/// Helper fitting a binary logistic regression with the given penalty; used by callers that
/// only need a one-liner (source-quality initialization, the optimizer's diagnostics).
pub fn fit_binary(
    examples: &[BinaryExample],
    num_params: usize,
    penalty: Penalty,
    epochs: usize,
    seed: u64,
) -> BinaryLogisticRegression {
    let config = SgdConfig {
        epochs,
        penalty,
        seed,
        ..SgdConfig::default()
    };
    BinaryLogisticRegression::fit(examples, num_params, &config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(800.0) <= 1.0);
        assert!(sigmoid(-800.0) >= 0.0);
        for x in [-5.0, -1.0, 0.3, 4.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log1pexp_matches_naive_in_safe_range() {
        for x in [-10.0f64, -1.0, 0.0, 1.0, 10.0] {
            let naive = (1.0f64 + x.exp()).ln();
            assert!((log1pexp(x) - naive).abs() < 1e-9);
        }
        assert!((log1pexp(1000.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_sums_to_one_and_orders_correctly() {
        let mut scores = vec![1.0, 3.0, 2.0];
        softmax_in_place(&mut scores);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(scores[1] > scores[2] && scores[2] > scores[0]);
        // Extreme scores do not overflow.
        let mut extreme = vec![1e4, -1e4];
        softmax_in_place(&mut extreme);
        assert!(extreme[0] > 0.999 && extreme[1] < 1e-3);
    }

    fn separable_examples() -> Vec<BinaryExample> {
        // Positive iff feature 0 is active.
        let mut examples = Vec::new();
        for i in 0..200 {
            let positive = i % 2 == 0;
            let features = if positive {
                SparseVec::from_pairs([(0, 1.0), (1, (i % 3) as f64 * 0.1)])
            } else {
                SparseVec::from_pairs([(1, (i % 3) as f64 * 0.1), (2, 1.0)])
            };
            examples.push(BinaryExample::new(
                features,
                if positive { 1.0 } else { 0.0 },
            ));
        }
        examples
    }

    #[test]
    fn binary_regression_separates_separable_data() {
        let examples = separable_examples();
        let config = SgdConfig {
            epochs: 100,
            tolerance: 0.0,
            ..SgdConfig::default()
        };
        let model = BinaryLogisticRegression::fit(&examples, 3, &config);
        let pos = model.predict_proba(&SparseVec::from_pairs([(0, 1.0)]));
        let neg = model.predict_proba(&SparseVec::from_pairs([(2, 1.0)]));
        assert!(pos > 0.9, "positive-class probability too low: {pos}");
        assert!(neg < 0.1, "negative-class probability too high: {neg}");
        assert!(model.mean_log_loss(&examples) < 0.2);
    }

    #[test]
    fn fractional_targets_move_probabilities_to_the_target() {
        // A single always-on feature and a fractional target of 0.7: the fitted
        // probability should approach 0.7 (the minimizer of expected log-loss).
        let examples = vec![BinaryExample::new(SparseVec::from_pairs([(0, 1.0)]), 0.7); 100];
        let config = SgdConfig {
            epochs: 300,
            tolerance: 0.0,
            ..SgdConfig::default()
        };
        let model = BinaryLogisticRegression::fit(&examples, 1, &config);
        let p = model.predict_proba(&SparseVec::from_pairs([(0, 1.0)]));
        assert!((p - 0.7).abs() < 0.03, "p = {p}");
    }

    #[test]
    fn helper_fit_binary_produces_a_model() {
        let examples = separable_examples();
        let model = fit_binary(&examples, 3, Penalty::L2(1e-4), 50, 3);
        assert!(model.predict_proba(&SparseVec::from_pairs([(0, 1.0)])) > 0.8);
        assert!(model.fit_result().is_some());
    }

    #[test]
    fn log_loss_clamps_probabilities() {
        assert!(log_loss(0.0, 1.0).is_finite());
        assert!(log_loss(1.0, 0.0).is_finite());
        assert!(log_loss(0.5, 1.0) > 0.0);
    }
}
