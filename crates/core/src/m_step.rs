//! EM's M-step: an exact Newton solve of the source-accuracy model over per-source
//! sufficient statistics.
//!
//! The M-step fits the accuracy model of Equation 3: every claim of source `s` is one
//! binary "the source was correct" example whose target is the E-step posterior of the
//! claimed value. All claims of `s` share the footprint `a_s = [1_s | f_s]` (the source
//! indicator plus the source's domain features), so the claim-level cross-entropy
//! depends on the E-step only through two numbers per source: the claim count `n_s`
//! (fixed at compile time) and the target sum `T_s` (see
//! [`CompiledProblem::e_step`]). With `z = A·w` and `A = [I | F]` the objective is
//!
//! ```text
//! L(w) = Σ_s [n_s·softplus(z_s) − T_s·z_s] + λ/2·‖w‖²
//! ```
//!
//! a binomial logistic regression over the `S` source rows rather than one example per
//! claim.
//!
//! [`newton_step`] takes one backtracking Newton step on `L`. The Hessian is
//! `AᵀDA + λI` with `D = diag(d)`, `d_s = n_s·p_s·(1 − p_s)`. Its source block is
//! diagonal and is eliminated exactly. That leaves the `K×K` Schur complement
//! `λ·(I + Fᵀ·diag(d/(d+λ))·F)`, which is solved matrix-free by Jacobi-preconditioned
//! conjugate gradients. Its condition number is at most `1 + ‖F‖²` for any `λ`, so the
//! solve stays cheap when `K` runs into the thousands and `λ` is tiny. Every loop is
//! serial in a fixed order, so a step is a pure function of its inputs.

use slimfast_optim::{kernels, Penalty};

use crate::compile::CompiledProblem;

/// Smallest L2 strength the M-step solves with. Without an L2 part the objective is not
/// strictly convex: source indicators and feature weights trade off along a null
/// direction, and a source whose claims are all right has no finite optimum.
pub const MIN_L2: f64 = 1e-6;

/// Relative residual at which the Schur-complement CG solve stops.
const CG_TOLERANCE: f64 = 1e-10;

/// Sufficient-decrease constant of the backtracking line search.
const ARMIJO: f64 = 1e-4;

/// Step halvings tried before the line search gives up and leaves the weights unchanged.
const MAX_HALVINGS: usize = 40;

/// The L2 strength EM's M-step uses under `penalty`: its L2 part, floored at [`MIN_L2`].
/// An L1 part is ignored.
pub fn l2_strength(penalty: &Penalty) -> f64 {
    penalty.l2_strength().max(MIN_L2)
}

/// `ln(1 + e^z)`, stable for any `z`.
#[inline]
fn softplus(z: f64) -> f64 {
    z.max(0.0) + kernels::ln(1.0 + kernels::exp(-z.abs()))
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Row `s` of `F`: the source's footprint without its leading indicator entry.
fn feature_row(problem: &CompiledProblem, s: usize) -> (&[u32], &[f64]) {
    let (params, values) = problem.footprint(s);
    (&params[1..], &values[1..])
}

/// The M-step objective `L(w)` at `weights`, whose trust scores `A·w` are `trust`.
fn objective(counts: &[f64], correct: &[f64], l2: f64, weights: &[f64], trust: &[f64]) -> f64 {
    let mut loss = l2 / 2.0 * dot(weights, weights);
    for (s, &z) in trust.iter().enumerate() {
        loss += counts[s] * softplus(z) - correct[s] * z;
    }
    loss
}

/// Takes one backtracking Newton step on the M-step objective from `weights`, in place.
///
/// `correct` holds the per-source target sums `T_s` and `l2` the L2 strength (see
/// [`l2_strength`]). The step length halves from `1.0` until the Armijo condition holds;
/// when no length decreases the objective, the weights are left unchanged.
pub fn newton_step(problem: &CompiledProblem, weights: &mut [f64], correct: &[f64], l2: f64) {
    let space = problem.space();
    let num_sources = space.num_sources;
    let counts = problem.claim_counts();
    debug_assert_eq!(weights.len(), space.len());
    debug_assert_eq!(correct.len(), num_sources);

    // Per source: residual r = n·p − T and curvature d = n·p·(1 − p), p = σ(z).
    let trust = problem.trust_scores(weights);
    let mut prob = trust.clone();
    kernels::sigmoid_slice(&mut prob);
    let resid: Vec<f64> = (0..num_sources)
        .map(|s| counts[s] * prob[s] - correct[s])
        .collect();
    let curv: Vec<f64> = (0..num_sources)
        .map(|s| counts[s] * prob[s] * (1.0 - prob[s]))
        .collect();
    let shrink: Vec<f64> = curv.iter().map(|d| d / (d + l2)).collect();

    // Feature block: (I + Fᵀ·diag(shrink)·F)·Δ_k = Fᵀu − w_k with
    // u_s = shrink_s·w_s − r_s/(d_s + λ). This is the Schur system divided through by λ,
    // written so that no O(n) terms cancel down to O(λ).
    let mut rhs = vec![0.0; space.len()];
    for s in 0..num_sources {
        let u = shrink[s] * weights[s] - resid[s] / (curv[s] + l2);
        let (params, values) = feature_row(problem, s);
        kernels::axpy_scatter(u, params, values, &mut rhs);
    }
    for k in num_sources..space.len() {
        rhs[k] -= weights[k];
    }
    let mut step = solve_schur(problem, &shrink, &rhs);

    // Source block by back-substitution: Δ_s = −(r_s + λ·w_s + d_s·(FΔ_k)_s) / (d_s + λ).
    for s in 0..num_sources {
        let (params, values) = feature_row(problem, s);
        let f_step = kernels::dot_csr(params, values, &step);
        step[s] = -(resid[s] + l2 * weights[s] + curv[s] * f_step) / (curv[s] + l2);
    }

    // Backtracking line search along Δ from the Newton decrement −∇L(w)ᵀ·Δ, where
    // ∇L(w) = Aᵀr + λ·w.
    let decrement = -(dot(&resid, &problem.trust_scores(&step)) + l2 * dot(weights, &step));
    if decrement.is_nan() || decrement <= 0.0 {
        return;
    }
    let loss = objective(counts, correct, l2, weights, &trust);
    let mut trial = vec![0.0; weights.len()];
    let mut trial_trust = Vec::with_capacity(num_sources);
    let mut t = 1.0;
    for _ in 0..MAX_HALVINGS {
        for ((x, w), d) in trial.iter_mut().zip(weights.iter()).zip(&step) {
            *x = w + t * d;
        }
        problem.trust_scores_into(&trial, &mut trial_trust);
        if objective(counts, correct, l2, &trial, &trial_trust) <= loss - ARMIJO * t * decrement {
            weights.copy_from_slice(&trial);
            return;
        }
        t *= 0.5;
    }
}

/// Solves `(I + Fᵀ·diag(shrink)·F)·x = rhs` for the feature block by Jacobi-preconditioned
/// conjugate gradients. Vectors span the whole parameter space, so that footprint
/// parameters index them directly; `rhs` is zero on the source head, and so is every
/// iterate.
fn solve_schur(problem: &CompiledProblem, shrink: &[f64], rhs: &[f64]) -> Vec<f64> {
    let len = rhs.len();
    // q = (I + Fᵀ·diag(shrink)·F)·v.
    let apply = |v: &[f64], q: &mut [f64]| {
        q.copy_from_slice(v);
        for (s, &e) in shrink.iter().enumerate() {
            let (params, values) = feature_row(problem, s);
            kernels::axpy_scatter(e * kernels::dot_csr(params, values, v), params, values, q);
        }
    };
    let mut diag = vec![1.0; len];
    for (s, &e) in shrink.iter().enumerate() {
        let (params, values) = feature_row(problem, s);
        for (&k, &f) in params.iter().zip(values) {
            diag[k as usize] += e * f * f;
        }
    }

    let mut x = vec![0.0; len];
    let mut r = rhs.to_vec();
    let mut z: Vec<f64> = r.iter().zip(&diag).map(|(r, d)| r / d).collect();
    let mut p = z.clone();
    let mut q = vec![0.0; len];
    let mut rz = dot(&r, &z);
    let stop = CG_TOLERANCE * CG_TOLERANCE * dot(&r, &r);
    // In exact arithmetic CG terminates within `K` iterations; the slack absorbs
    // rounding on ill-conditioned systems.
    for _ in 0..2 * (len - shrink.len()) + 10 {
        if dot(&r, &r) <= stop {
            break;
        }
        apply(&p, &mut q);
        let alpha = rz / dot(&p, &q);
        for k in 0..len {
            x[k] += alpha * p[k];
            r[k] -= alpha * q[k];
            z[k] = r[k] / diag[k];
        }
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for k in 0..len {
            p[k] = z[k] + beta * p[k];
        }
    }
    x
}
