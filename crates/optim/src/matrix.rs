//! Rank-one matrix completion over the pairwise source-agreement matrix.
//!
//! SLiMFast's optimizer (Section 4.3) estimates the *average* source accuracy from the
//! agreement rates of source pairs: with all sources at accuracy `A` and `μ = 2A − 1`, the
//! expected agreement-rate entry is `E[X_ij] = μ²`, so `μ̂ = sqrt(mean(X_ij))` is the
//! closed-form solution of `min ½‖X − μ²‖²`.

/// A symmetric matrix of observed pairwise agreement scores with missing entries.
///
/// Entry `(i, j)` holds the signed agreement rate of sources `i` and `j` over the objects
/// they both observe: `+1` for full agreement, `−1` for full disagreement, `None` when the
/// pair shares no object.
#[derive(Debug, Clone)]
pub struct AgreementMatrix {
    n: usize,
    entries: Vec<Option<f64>>,
}

impl AgreementMatrix {
    /// Creates an `n × n` matrix with every entry missing.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            entries: vec![None; n * n],
        }
    }

    /// Matrix dimension (number of sources).
    pub fn dimension(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.n + j
    }

    /// Sets the symmetric entry `(i, j)` / `(j, i)`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "agreement index out of bounds");
        let a = self.idx(i, j);
        let b = self.idx(j, i);
        self.entries[a] = Some(value);
        self.entries[b] = Some(value);
    }

    /// Reads entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        self.entries.get(self.idx(i, j)).copied().flatten()
    }

    /// Iterates over observed off-diagonal entries `(i, j, value)` with `i < j`.
    pub fn observed(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            ((i + 1)..self.n).filter_map(move |j| self.get(i, j).map(|v| (i, j, v)))
        })
    }

    /// Number of observed off-diagonal pairs.
    pub fn num_observed(&self) -> usize {
        self.observed().count()
    }

    /// Mean of observed off-diagonal entries, `None` when nothing is observed.
    pub fn mean_off_diagonal(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (_, _, v) in self.observed() {
            sum += v;
            count += 1;
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }
}

/// Closed-form rank-one completion under a shared accuracy: returns `μ̂ = sqrt(mean X_ij)`
/// clamped into `[0, 1]`. Returns `None` when no pair of sources overlaps.
pub fn rank_one_completion(matrix: &AgreementMatrix) -> Option<f64> {
    matrix
        .mean_off_diagonal()
        .map(|mean| mean.max(0.0).sqrt().min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_matrix(mu: &[f64]) -> AgreementMatrix {
        let mut m = AgreementMatrix::new(mu.len());
        for i in 0..mu.len() {
            for j in (i + 1)..mu.len() {
                m.set(i, j, mu[i] * mu[j]);
            }
        }
        m
    }

    #[test]
    fn set_get_is_symmetric() {
        let mut m = AgreementMatrix::new(3);
        m.set(0, 2, 0.5);
        assert_eq!(m.get(0, 2), Some(0.5));
        assert_eq!(m.get(2, 0), Some(0.5));
        assert_eq!(m.get(1, 2), None);
        assert_eq!(m.num_observed(), 1);
    }

    #[test]
    fn closed_form_recovers_shared_mu() {
        // All sources share accuracy 0.8 => mu = 0.6, entries = 0.36.
        let m = full_matrix(&[0.6, 0.6, 0.6, 0.6]);
        let mu_hat = rank_one_completion(&m).unwrap();
        assert!((mu_hat - 0.6).abs() < 1e-9);
    }

    #[test]
    fn closed_form_clamps_negative_means_to_zero() {
        let mut m = AgreementMatrix::new(2);
        m.set(0, 1, -0.3);
        assert_eq!(rank_one_completion(&m), Some(0.0));
    }

    #[test]
    fn empty_matrix_has_no_estimate() {
        let m = AgreementMatrix::new(5);
        assert_eq!(rank_one_completion(&m), None);
        assert_eq!(m.mean_off_diagonal(), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_set_panics() {
        let mut m = AgreementMatrix::new(2);
        m.set(0, 5, 1.0);
    }
}
