//! Batched, bitwise-deterministic math kernels over flat slices.
//!
//! Every hot inner loop in the workspace — the EM E-step posterior pass, the
//! ERM gradient chunks, and batched posterior serving — bottoms out in one
//! of four operations: sigmoid over a slice of scores, softmax over
//! CSR-segmented rows, a sparse-dense dot product, and a scaled sparse scatter
//! into a dense accumulator. This module provides those operations over flat
//! structure-of-arrays inputs (contiguous `u32` index columns next to `f64`
//! value columns) so the loop bodies are branch-light, straight-line code the
//! autovectorizer can work with, instead of per-claim `SparseVec` walks that
//! call scalar `libm` routines one value at a time.
//!
//! # Determinism contract
//!
//! Results are a pure function of the input slices — **never** of
//! `SLIMFAST_THREADS`, the machine's core count, or how a caller partitions
//! work into chunks:
//!
//! * Elementwise kernels ([`sigmoid_slice`], [`ln_slice`], [`exp`]) are
//!   branch-free polynomial evaluations applied independently per element, so
//!   slicing a buffer into sub-slices and applying the kernel to each part
//!   yields bitwise-identical results to one pass over the whole buffer.
//! * [`softmax_rows`] applies [`softmax_row`] to each CSR segment
//!   independently; batching rows never changes a row's result versus scoring
//!   it alone. Within a row the max, exponential, and normalisation passes run
//!   in ascending index order.
//! * [`dot_csr`] uses a **fixed summation order**: four accumulator lanes,
//!   where lane `l` sums the terms at positions `j ≡ l (mod 4)` of the full
//!   4-wide chunks in ascending order, remainder terms are folded into lanes
//!   `0..n%4` in order, and the final combine is always
//!   `(acc0 + acc1) + (acc2 + acc3)`. The order depends only on the row
//!   length, never on how many threads are running or which chunk the row
//!   belongs to.
//! * [`axpy_scatter`] applies its updates strictly in ascending position
//!   order into the caller's accumulator.
//!
//! Floating-point addition is not associative, so these fixed orders are what
//! make the whole training pipeline bitwise-reproducible across
//! `SLIMFAST_THREADS` values: the executor hands out identical chunk grids
//! regardless of lane count, and every reduction inside a chunk follows the
//! orders above. The kernels contain no fused-multiply-add and no
//! target-feature dispatch, so results are also stable across
//! `-C target-cpu` settings (LLVM may not reassociate or contract float
//! arithmetic without explicit fast-math, which this workspace never enables).
//!
//! # Accuracy
//!
//! [`exp`] and [`ln`] are range-reduced polynomial approximations accurate to
//! a few ulp (relative error well under `1e-13` against `f64::exp`/`f64::ln`
//! over their documented domains), which keeps [`sigmoid_slice`] and
//! [`softmax_rows`] within `1e-12` of the scalar references
//! (`logistic::sigmoid`, `logistic::softmax_in_place`) they replace. They are
//! *not* bit-identical to `libm`: callers that need reproducibility must hold
//! the kernel version fixed, which is the same contract the rest of the
//! training stack already follows.

/// log2(e), the factor that turns a natural exponent into a base-2 exponent.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// High half of ln(2) for two-part range reduction (musl's split).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low half of ln(2); `LN2_HI + LN2_LO` rounds to ln(2) with extra precision.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// 1.5 * 2^52: adding and subtracting rounds a |t| < 2^51 value to the
/// nearest integer without a branch or a libcall.
const RND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// Inputs are clamped to ±[`EXP_CLAMP`] before range reduction so the scale
/// factor 2^n stays a normal float. exp(708) ≈ 3.0e307 is still finite.
const EXP_CLAMP: f64 = 708.0;

/// Taylor coefficients 1/k! for k = 2..=13, consumed by Horner evaluation.
/// Written with every digit of the decimal expansion (some beyond f64's
/// shortest round-trip form) so the table reads as the literal factorials.
#[allow(clippy::excessive_precision)]
const EXP_POLY: [f64; 12] = [
    0.5,
    1.666_666_666_666_666_6e-1,
    4.166_666_666_666_666_4e-2,
    8.333_333_333_333_333e-3,
    1.388_888_888_888_888_9e-3,
    1.984_126_984_126_984e-4,
    2.480_158_730_158_73e-5,
    2.755_731_922_398_589_3e-6,
    2.755_731_922_398_589e-7,
    2.505_210_838_544_172e-8,
    2.087_675_698_786_81e-9,
    1.605_904_383_682_161_3e-10,
];

/// Odd-power atanh series coefficients 1/(2k+1) for k = 1..=7, used by [`ln`].
const LN_POLY: [f64; 7] = [
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
];

/// Branch-free polynomial `e^x`.
///
/// Range-reduces `x = n·ln2 + r` with `|r| ≤ ln2/2`, evaluates a fixed
/// degree-13 Taylor polynomial at `r` by Horner's rule, and scales by `2^n`
/// through direct exponent construction. Inputs outside `[-708, 708]` are
/// clamped first, so the result saturates at `exp(±708)` instead of
/// overflowing to infinity or underflowing to zero; every caller in this
/// workspace feeds arguments that are either non-positive (softmax shifts,
/// `-|x|` in sigmoid) or bounded by model weights, where the clamp is
/// unreachable or affects only values below `1e-307`. NaN propagates.
///
/// Relative error against `f64::exp` is a few ulp (< 1e-14) on the clamped
/// domain. The evaluation is straight-line with a single data-independent
/// operation sequence, so results are identical no matter how calls are
/// batched or which thread runs them.
#[inline]
pub fn exp(x: f64) -> f64 {
    let x = x.clamp(-EXP_CLAMP, EXP_CLAMP);
    // Round x/ln2 to the nearest integer without `round()` (which is a
    // libcall at baseline target features and rounds half away from zero).
    let t = x * LOG2_E;
    let n = (t + RND_MAGIC) - RND_MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    // Horner over the fixed Taylor coefficients; the order never varies.
    let mut p = EXP_POLY[11];
    let mut k = 11;
    while k > 0 {
        k -= 1;
        p = p * r + EXP_POLY[k];
    }
    p = (p * r + 1.0) * r + 1.0;
    // 2^n by exponent-field construction; |n| ≤ 1022 after the clamp.
    let scale = f64::from_bits(((n as i64 + 1023) << 52) as u64);
    p * scale
}

/// Polynomial natural logarithm for positive normal floats.
///
/// Decomposes `x = m·2^e` with `m ∈ [√2/2, √2)`, evaluates
/// `ln m = 2·atanh(z)` with `z = (m−1)/(m+1)` through a fixed odd-power
/// series, and recombines with a two-part ln(2). Zero, negative, subnormal,
/// and non-finite inputs fall back to `f64::ln` so edge-case semantics match
/// the standard library exactly. Relative error on the fast path is below
/// `1e-13`; the evaluation order is fixed, so results do not depend on
/// batching or thread count.
#[inline]
pub fn ln(x: f64) -> f64 {
    if x < f64::MIN_POSITIVE || !x.is_finite() {
        // Non-normal domain (≤ 0, subnormal, NaN, ∞): defer to libm.
        return x.ln();
    }
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let z = (m - 1.0) / (m + 1.0);
    let z2 = z * z;
    let mut p = LN_POLY[6];
    let mut k = 6;
    while k > 0 {
        k -= 1;
        p = p * z2 + LN_POLY[k];
    }
    let ln_m = 2.0 * z + 2.0 * z * z2 * p;
    let e = e as f64;
    e * LN2_HI + (ln_m + e * LN2_LO)
}

/// Replaces every score `x` in the slice with `σ(x) = 1 / (1 + e^{-x})`.
///
/// Uses the numerically stable `t = e^{-|x|}` form so large magnitudes never
/// overflow, then selects `1/(1+t)` or its complement by sign. Each element
/// is processed independently with the same straight-line [`exp`] evaluation,
/// so splitting the slice into arbitrary sub-slices and calling the kernel on
/// each yields bitwise-identical results.
pub fn sigmoid_slice(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        let t = exp(-x.abs());
        let p = 1.0 / (1.0 + t);
        *x = if *x >= 0.0 { p } else { 1.0 - p };
    }
}

/// Replaces every element with its natural logarithm via [`ln`].
///
/// Elementwise and order-independent in the same sense as [`sigmoid_slice`]:
/// batching never changes an element's result.
pub fn ln_slice(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = ln(*x);
    }
}

/// In-place stable softmax over one row of scores.
///
/// Subtracts the row maximum (scanned in ascending index order), exponentiates
/// with [`exp`], accumulates the normaliser in ascending index order, and
/// divides through. An empty row is a no-op; a single-element row becomes
/// `[1.0]`. The result depends only on the row contents.
pub fn softmax_row(row: &mut [f64]) {
    if row.is_empty() {
        return;
    }
    let mut max = f64::NEG_INFINITY;
    for &v in row.iter() {
        if v > max {
            max = v;
        }
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = exp(*v - max);
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Segmented softmax over CSR rows packed in `values`.
///
/// `offsets` holds `rows + 1` monotone offsets with `offsets[0]` as the base:
/// row `i` occupies `values[offsets[i] - offsets[0] .. offsets[i+1] - offsets[0]]`.
/// This shape lets callers pass a chunk's sub-slice of a global CSR buffer
/// together with the matching window of the global offset array, without
/// rebasing either. Each row is normalised independently by [`softmax_row`],
/// so the per-row results are bitwise-identical whether rows are scored one
/// at a time, in this batch, or in any other partition into batches.
///
/// # Panics
/// Panics if `offsets` is non-monotone or addresses past the end of `values`.
pub fn softmax_rows(values: &mut [f64], offsets: &[u32]) {
    let Some(&base) = offsets.first() else {
        return;
    };
    let base = base as usize;
    for pair in offsets.windows(2) {
        let start = pair[0] as usize - base;
        let end = pair[1] as usize - base;
        softmax_row(&mut values[start..end]);
    }
}

/// Weight lookup treating out-of-range parameter indices as zero, mirroring
/// `SparseVec::dot` on a short dense vector.
#[inline]
fn weight_at(weights: &[f64], index: u32) -> f64 {
    weights.get(index as usize).copied().unwrap_or(0.0)
}

/// Dot product of one CSR row (`params[j]` indexes into `weights`, scaled by
/// `values[j]`) against a dense weight vector.
///
/// Uses four accumulator lanes in a **fixed summation order**: lane `l` sums
/// the terms at positions `j ≡ l (mod 4)` of the full 4-wide chunks in
/// ascending order, the `n % 4` remainder terms fold into lanes `0..n%4` in
/// order, and the combine is always `(acc0 + acc1) + (acc2 + acc3)`. The
/// order is a function of the row length alone — never of thread count or
/// chunk placement — so repeated evaluations are bitwise-identical. The
/// unroll breaks the sequential dependency chain of a naive accumulation,
/// letting independent multiply-adds overlap.
///
/// Indices at or beyond `weights.len()` contribute zero, matching the
/// `SparseVec::dot` convention for parameters outside the model.
///
/// # Panics
/// Panics if `values` is shorter than `params`.
pub fn dot_csr(params: &[u32], values: &[f64], weights: &[f64]) -> f64 {
    let n = params.len();
    let values = &values[..n];
    let mut acc = [0.0f64; 4];
    let full = n - (n % 4);
    let mut j = 0;
    while j < full {
        acc[0] += weight_at(weights, params[j]) * values[j];
        acc[1] += weight_at(weights, params[j + 1]) * values[j + 1];
        acc[2] += weight_at(weights, params[j + 2]) * values[j + 2];
        acc[3] += weight_at(weights, params[j + 3]) * values[j + 3];
        j += 4;
    }
    let mut lane = 0;
    while j < n {
        acc[lane] += weight_at(weights, params[j]) * values[j];
        lane += 1;
        j += 1;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Scaled sparse scatter-add: `out[params[j]] += scale * values[j]` for each
/// position `j` in ascending order.
///
/// The strict in-order application makes repeated-index rows deterministic,
/// and indices at or beyond `out.len()` are dropped — the same convention the
/// dense gradient reducer applies to out-of-model parameters.
///
/// # Panics
/// Panics if `values` is shorter than `params`.
pub fn axpy_scatter(scale: f64, params: &[u32], values: &[f64], out: &mut [f64]) {
    let n = params.len();
    let values = &values[..n];
    for j in 0..n {
        if let Some(slot) = out.get_mut(params[j] as usize) {
            *slot += scale * values[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1e-300)
    }

    #[test]
    fn exp_matches_libm_over_wide_range() {
        let mut x = -700.0;
        while x <= 700.0 {
            let got = exp(x);
            let want = x.exp();
            assert!(
                rel_err(got, want) < 1e-13,
                "exp({x}): got {got:e}, want {want:e}"
            );
            x += 0.3141592653589793;
        }
        assert_eq!(exp(0.0), 1.0);
        assert!(exp(f64::NAN).is_nan());
        // Saturation below the clamp: tiny but finite, within absolute 1e-300.
        assert!(exp(-1000.0) >= 0.0 && exp(-1000.0) < 1e-300);
    }

    #[test]
    fn ln_matches_libm_over_wide_range() {
        let mut x = 1e-12f64;
        while x < 1e12 {
            let got = ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() < 1e-12 * want.abs().max(1.0),
                "ln({x:e}): got {got}, want {want}"
            );
            x *= 1.7;
        }
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
    }

    #[test]
    fn sigmoid_slice_is_stable_and_symmetric() {
        let mut xs = vec![-745.0, -30.0, -1.5, 0.0, 1.5, 30.0, 745.0];
        sigmoid_slice(&mut xs);
        assert!(xs[0] >= 0.0 && xs[0] < 1e-12);
        assert_eq!(xs[3], 0.5);
        assert!(xs[6] > 1.0 - 1e-12 && xs[6] <= 1.0);
        for (lo, hi) in xs.iter().zip(xs.iter().rev()) {
            assert!((lo + hi - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn sigmoid_slice_batching_is_bitwise_invariant() {
        let xs: Vec<f64> = (0..257).map(|i| (i as f64 - 128.0) * 0.37).collect();
        let mut whole = xs.clone();
        sigmoid_slice(&mut whole);
        for split in [1usize, 3, 64, 256] {
            let mut parts = xs.clone();
            let (a, b) = parts.split_at_mut(split);
            sigmoid_slice(a);
            sigmoid_slice(b);
            assert_eq!(parts, whole, "split at {split} changed bits");
        }
    }

    #[test]
    fn softmax_rows_matches_row_at_a_time_bitwise() {
        let values: Vec<f64> = (0..24)
            .map(|i| ((i * 7919) % 13) as f64 * 0.25 - 1.5)
            .collect();
        let offsets: Vec<u32> = vec![100, 102, 102, 105, 112, 124];
        let mut batched = values.clone();
        softmax_rows(&mut batched, &offsets);
        let mut single = values.clone();
        for pair in offsets.windows(2) {
            let (s, e) = (pair[0] as usize - 100, pair[1] as usize - 100);
            softmax_row(&mut single[s..e]);
        }
        assert_eq!(batched, single);
        // Rows sum to 1.
        for pair in offsets.windows(2) {
            let (s, e) = (pair[0] as usize - 100, pair[1] as usize - 100);
            if s == e {
                continue;
            }
            let sum: f64 = batched[s..e].iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dot_csr_is_exact_on_representable_inputs_and_drops_oob() {
        let params: Vec<u32> = vec![0, 2, 4, 9, 1, 3, 99];
        let values: Vec<f64> = vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        let weights: Vec<f64> = (0..10).map(|i| i as f64).collect();
        // Exact in f64: 0 + 4 + 16 + 72 + 16 + 96 + (oob -> 0)
        assert_eq!(dot_csr(&params, &values, &weights), 204.0);
        assert_eq!(dot_csr(&[], &[], &weights), 0.0);
    }

    #[test]
    fn dot_csr_order_is_length_deterministic() {
        // Same row evaluated twice must agree bitwise, including via sub-slices
        // of a larger backing store (alignment must not matter).
        let params: Vec<u32> = (0..31).map(|i| (i * 5) % 23).collect();
        let values: Vec<f64> = (0..31).map(|i| (i as f64 * 0.1).sin()).collect();
        let weights: Vec<f64> = (0..23).map(|i| ((i * i) as f64 * 0.01).cos()).collect();
        let a = dot_csr(&params, &values, &weights);
        let b = dot_csr(&params[..], &values[..], &weights);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn axpy_scatter_accumulates_in_order_and_drops_oob() {
        let mut out = vec![0.0f64; 4];
        axpy_scatter(2.0, &[1, 3, 1, 9], &[1.0, 2.0, 3.0, 4.0], &mut out);
        assert_eq!(out, vec![0.0, 8.0, 0.0, 4.0]);
    }
}
