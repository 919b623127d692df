//! Regularization penalties.
//!
//! The paper leans on `L2` regularization for stable ERM/EM learning and on `L1`
//! regularization for feature selection: Theorem 2's refinement shows the source-accuracy
//! estimation error scales with the number of *predictive* features when `L1` drives the
//! uninformative ones to exactly zero, and the lasso-path analysis (Figures 6 and 9)
//! sweeps the `L1` strength.

/// A regularization penalty added to the (negative log-likelihood) objective.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Penalty {
    /// No regularization.
    #[default]
    None,
    /// `lambda * ||w||_1`; applied through a proximal (soft-thresholding) step so weights
    /// become exactly zero.
    L1(
        /// Regularization strength `lambda`.
        f64,
    ),
    /// `lambda / 2 * ||w||_2^2`; applied through the gradient.
    L2(
        /// Regularization strength `lambda`.
        f64,
    ),
    /// Elastic net: `l1 * ||w||_1 + l2 / 2 * ||w||_2^2`.
    ElasticNet {
        /// `L1` strength.
        l1: f64,
        /// `L2` strength.
        l2: f64,
    },
}

impl Penalty {
    /// The penalty value at `w`.
    pub fn value(&self, w: &[f64]) -> f64 {
        let l1: f64 = w.iter().map(|x| x.abs()).sum();
        let l2: f64 = w.iter().map(|x| x * x).sum::<f64>() / 2.0;
        match *self {
            Penalty::None => 0.0,
            Penalty::L1(lambda) => lambda * l1,
            Penalty::L2(lambda) => lambda * l2,
            Penalty::ElasticNet { l1: a, l2: b } => a * l1 + b * l2,
        }
    }

    /// The smooth (differentiable) part of the penalty gradient at coordinate value `w_i`.
    /// `L1` contributes nothing here — it is handled by [`Penalty::proximal`].
    pub fn smooth_gradient(&self, w_i: f64) -> f64 {
        match *self {
            Penalty::None | Penalty::L1(_) => 0.0,
            Penalty::L2(lambda) => lambda * w_i,
            Penalty::ElasticNet { l2, .. } => l2 * w_i,
        }
    }

    /// Proximal operator for the non-smooth (`L1`) part with step size `step`:
    /// soft-thresholding `sign(w) * max(|w| - step * l1, 0)`.
    pub fn proximal(&self, w_i: f64, step: f64) -> f64 {
        let l1 = match *self {
            Penalty::L1(lambda) => lambda,
            Penalty::ElasticNet { l1, .. } => l1,
            _ => return w_i,
        };
        let threshold = step * l1;
        if w_i > threshold {
            w_i - threshold
        } else if w_i < -threshold {
            w_i + threshold
        } else {
            0.0
        }
    }

    /// The `L1` strength, if any (used by the lasso path to label sweeps).
    pub fn l1_strength(&self) -> f64 {
        match *self {
            Penalty::L1(lambda) => lambda,
            Penalty::ElasticNet { l1, .. } => l1,
            _ => 0.0,
        }
    }

    /// The `L2` strength, if any. EM's exact M-step regularizes with this part alone and
    /// ignores an `L1` part: the Newton solve needs a smooth objective.
    pub fn l2_strength(&self) -> f64 {
        match *self {
            Penalty::L2(lambda) => lambda,
            Penalty::ElasticNet { l2, .. } => l2,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_match_hand_computation() {
        let w = [1.0, -2.0, 0.0];
        assert_eq!(Penalty::None.value(&w), 0.0);
        assert!((Penalty::L1(0.5).value(&w) - 1.5).abs() < 1e-12);
        assert!((Penalty::L2(2.0).value(&w) - 5.0).abs() < 1e-12);
        assert!((Penalty::ElasticNet { l1: 1.0, l2: 2.0 }.value(&w) - (3.0 + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn l2_gradient_is_linear() {
        assert!((Penalty::L2(0.1).smooth_gradient(3.0) - 0.3).abs() < 1e-12);
        assert_eq!(Penalty::L1(0.1).smooth_gradient(3.0), 0.0);
        assert_eq!(Penalty::None.smooth_gradient(3.0), 0.0);
    }

    #[test]
    fn soft_thresholding_shrinks_toward_zero() {
        let p = Penalty::L1(1.0);
        assert_eq!(p.proximal(0.5, 1.0), 0.0);
        assert_eq!(p.proximal(-0.5, 1.0), 0.0);
        assert!((p.proximal(2.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((p.proximal(-2.0, 1.0) + 1.0).abs() < 1e-12);
        // L2 leaves the weight unchanged in the proximal step.
        assert_eq!(Penalty::L2(1.0).proximal(2.0, 1.0), 2.0);
    }

    #[test]
    fn l1_strength_is_extracted() {
        assert_eq!(Penalty::L1(0.3).l1_strength(), 0.3);
        assert_eq!(Penalty::ElasticNet { l1: 0.2, l2: 0.1 }.l1_strength(), 0.2);
        assert_eq!(Penalty::L2(0.3).l1_strength(), 0.0);
        assert_eq!(Penalty::None.l1_strength(), 0.0);
    }

    #[test]
    fn l2_strength_is_extracted() {
        assert_eq!(Penalty::L2(0.3).l2_strength(), 0.3);
        assert_eq!(Penalty::ElasticNet { l1: 0.2, l2: 0.1 }.l2_strength(), 0.1);
        assert_eq!(Penalty::L1(0.3).l2_strength(), 0.0);
        assert_eq!(Penalty::None.l2_strength(), 0.0);
    }
}
