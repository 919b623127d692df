//! Property tests for the SoA kernel layer (`slimfast_optim::kernels`): every batched
//! kernel must agree with its scalar reference (`sigmoid`, `softmax_in_place`,
//! `SparseVec::dot`) to within 1e-12, and must honor the determinism contract the
//! module documents — elementwise slicing invariance (the same values come out no
//! matter how a buffer is chunked), per-row independence of the segmented softmax, and
//! a fixed summation order for `dot_csr` / `axpy_scatter`. A final end-to-end test
//! fits a full EM model through the kernel-backed hot paths at 1, 2, and 4 threads and
//! asserts the fitted weights and served posteriors are bitwise-identical.

use proptest::prelude::*;

use slimfast::optim::kernels;
use slimfast::optim::{sigmoid, softmax_in_place, SparseVec};
use slimfast::prelude::*;

/// Finite activations in the range the trust/ERM models actually produce.
fn activations(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-40.0f64..40.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `sigmoid_slice` matches the scalar libm-backed `sigmoid` within 1e-12.
    #[test]
    fn sigmoid_slice_matches_scalar_reference(xs in activations(0..200)) {
        let mut batched = xs.clone();
        kernels::sigmoid_slice(&mut batched);
        for (&x, &b) in xs.iter().zip(&batched) {
            let reference = sigmoid(x);
            prop_assert!(
                (b - reference).abs() <= 1e-12,
                "sigmoid({x}) = {b}, reference {reference}"
            );
        }
    }

    /// `ln_slice` matches libm `ln` within 1e-12 relative over many magnitudes.
    #[test]
    fn ln_slice_matches_scalar_reference(
        xs in proptest::collection::vec((1e-12f64..1.0, -11i32..12), 0..200)
    ) {
        let values: Vec<f64> = xs.iter().map(|&(m, e)| m * 10f64.powi(e)).collect();
        let mut batched = values.clone();
        kernels::ln_slice(&mut batched);
        for (&x, &b) in values.iter().zip(&batched) {
            let reference = x.ln();
            let tolerance = 1e-12 * reference.abs().max(1.0);
            prop_assert!(
                (b - reference).abs() <= tolerance,
                "ln({x}) = {b}, reference {reference}"
            );
        }
    }

    /// `softmax_row` matches the scalar `softmax_in_place` reference within 1e-12.
    #[test]
    fn softmax_row_matches_scalar_reference(xs in activations(1..40)) {
        let mut batched = xs.clone();
        kernels::softmax_row(&mut batched);
        let mut reference = xs.clone();
        softmax_in_place(&mut reference);
        for (&b, &r) in batched.iter().zip(&reference) {
            prop_assert!((b - r).abs() <= 1e-12, "softmax {b} vs reference {r}");
        }
    }

    /// The segmented `softmax_rows` is bitwise-identical to normalizing each row
    /// independently with `softmax_row`: rows cannot contaminate each other, so any
    /// chunking of a batch of rows yields the same bits.
    #[test]
    fn softmax_rows_is_bitwise_per_row_independent(
        rows in proptest::collection::vec(activations(1..8), 1..20),
        base in 0u32..1000,
    ) {
        let mut offsets = vec![base];
        let mut flat = Vec::new();
        for row in &rows {
            flat.extend_from_slice(row);
            offsets.push(base + flat.len() as u32);
        }
        let mut segmented = flat.clone();
        kernels::softmax_rows(&mut segmented, &offsets);
        let mut cursor = 0;
        for row in &rows {
            let mut alone = row.clone();
            kernels::softmax_row(&mut alone);
            for &expected in &alone {
                prop_assert_eq!(segmented[cursor].to_bits(), expected.to_bits());
                cursor += 1;
            }
        }
    }

    /// Elementwise kernels are slicing-invariant: processing a buffer in arbitrary
    /// chunks produces the same bits as one call over the whole buffer. This is the
    /// contract that makes E-step results independent of the parallel chunk grid.
    #[test]
    fn sigmoid_slice_is_chunking_invariant(
        xs in activations(1..200),
        chunk in 1usize..64,
    ) {
        let mut whole = xs.clone();
        kernels::sigmoid_slice(&mut whole);
        let mut chunked = xs.clone();
        for slice in chunked.chunks_mut(chunk) {
            kernels::sigmoid_slice(slice);
        }
        let whole_bits: Vec<u64> = whole.iter().map(|v| v.to_bits()).collect();
        let chunked_bits: Vec<u64> = chunked.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(whole_bits, chunked_bits);
    }

    /// `dot_csr` matches `SparseVec::dot` within a magnitude-scaled tolerance (the
    /// two sum in different orders, so agreement is modulo rounding, not bitwise).
    #[test]
    fn dot_csr_matches_sparse_vec_reference(
        pairs in proptest::collection::vec((0u32..50, -10.0f64..10.0), 0..120),
        weights in proptest::collection::vec(-10.0f64..10.0, 50),
    ) {
        let params: Vec<u32> = pairs.iter().map(|&(p, _)| p).collect();
        let values: Vec<f64> = pairs.iter().map(|&(_, v)| v).collect();
        let batched = kernels::dot_csr(&params, &values, &weights);
        let reference = SparseVec::from_pairs(
            pairs.iter().map(|&(p, v)| (p as usize, v)),
        )
        .dot(&weights);
        // SparseVec::from_pairs merges duplicate indices but the dot is mathematically
        // identical; bound the difference by the magnitude of the summed terms.
        let magnitude: f64 = pairs
            .iter()
            .map(|&(p, v)| (v * weights[p as usize]).abs())
            .sum();
        prop_assert!(
            (batched - reference).abs() <= 1e-12 * magnitude.max(1.0),
            "dot_csr {batched} vs SparseVec::dot {reference}"
        );
    }

    /// `dot_csr`'s summation order is a function of row length only: splitting the
    /// weight vector reads across duplicated calls changes nothing, and the same
    /// (params, values) always produce the same bits.
    #[test]
    fn dot_csr_is_reproducible_bitwise(
        pairs in proptest::collection::vec((0u32..50, -10.0f64..10.0), 0..120),
        weights in proptest::collection::vec(-10.0f64..10.0, 50),
    ) {
        let params: Vec<u32> = pairs.iter().map(|&(p, _)| p).collect();
        let values: Vec<f64> = pairs.iter().map(|&(_, v)| v).collect();
        let a = kernels::dot_csr(&params, &values, &weights);
        let b = kernels::dot_csr(&params, &values, &weights);
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }

    /// `axpy_scatter` applies updates strictly in index order: it is bitwise-identical
    /// to the obvious scalar loop.
    #[test]
    fn axpy_scatter_matches_in_order_scalar_loop(
        pairs in proptest::collection::vec((0u32..50, -10.0f64..10.0), 0..120),
        scale in -4.0f64..4.0,
        seed in -10.0f64..10.0,
    ) {
        let params: Vec<u32> = pairs.iter().map(|&(p, _)| p).collect();
        let values: Vec<f64> = pairs.iter().map(|&(_, v)| v).collect();
        let mut batched = vec![seed; 50];
        kernels::axpy_scatter(scale, &params, &values, &mut batched);
        let mut reference = vec![seed; 50];
        for (&p, &v) in params.iter().zip(&values) {
            reference[p as usize] += scale * v;
        }
        let batched_bits: Vec<u64> = batched.iter().map(|v| v.to_bits()).collect();
        let reference_bits: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(batched_bits, reference_bits);
    }
}

/// A fit large enough to engage the chunked E-step.
fn fit_instance() -> SyntheticInstance {
    SyntheticConfig {
        name: "kernel-determinism".into(),
        num_sources: 50,
        num_objects: 500,
        domain_size: 3,
        pattern: slimfast::datagen::ObservationPattern::Bernoulli(0.1),
        accuracy: slimfast::datagen::AccuracyModel {
            mean: 0.72,
            spread: 0.12,
        },
        features: slimfast::datagen::FeatureModel {
            num_predictive: 3,
            num_noise: 2,
            predictive_strength: 0.25,
        },
        copying: None,
        seed: 20170514,
    }
    .generate()
}

/// The end-to-end contract the kernel layer must preserve: a full EM fit through the
/// flat-layout hot paths (batched trust sigmoid, segmented softmax E-step, CSR dot
/// Newton M-step, kernel-softmax serving) yields bitwise-identical weights and
/// posteriors at 1, 2, and 4 threads.
#[test]
fn full_fit_through_kernel_paths_is_bitwise_identical_across_threads() {
    let instance = fit_instance();
    let truth = GroundTruth::empty(instance.dataset.num_objects());
    let input = FusionInput::new(&instance.dataset, &instance.features, &truth);

    let fit_bits = |threads: usize| -> (Vec<u64>, Vec<Vec<u64>>) {
        let config = SlimFastConfig::default().with_seed(3).with_threads(threads);
        let estimator = SlimFast::em(config);
        let (model, _) = estimator.train(&input);
        let weights: Vec<u64> = model.weights().iter().map(|w| w.to_bits()).collect();
        let fitted = estimator.fit(&input);
        let posteriors: Vec<Vec<u64>> = instance
            .dataset
            .object_ids()
            .map(|o| {
                fitted
                    .posterior(&instance.dataset, &instance.features, o)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect()
            })
            .collect();
        (weights, posteriors)
    };

    let single = fit_bits(1);
    let double = fit_bits(2);
    let quad = fit_bits(4);
    assert_eq!(single, double, "threads = 2 changed the fitted bits");
    assert_eq!(single, quad, "threads = 4 changed the fitted bits");
}

/// Supervised (ERM) training also runs entirely on the kernel layer; it must be just
/// as thread-invariant as the unsupervised EM path.
#[test]
fn supervised_fit_through_kernel_paths_is_bitwise_identical_across_threads() {
    let instance = fit_instance();
    let split = SplitPlan::new(0.3, 11)
        .draw(&instance.truth, 1)
        .expect("split");
    let train = split.train_truth(&instance.truth);
    let input = FusionInput::new(&instance.dataset, &instance.features, &train);

    let fuse_bits = |threads: usize| -> Vec<(ObjectId, ValueId, u64)> {
        let config = SlimFastConfig::default().with_seed(9).with_threads(threads);
        let output = SlimFast::new(config).fuse(&input);
        output
            .assignment
            .iter()
            .map(|(o, v, p)| (o, v, p.to_bits()))
            .collect()
    };

    let single = fuse_bits(1);
    assert_eq!(single, fuse_bits(2), "threads = 2 changed the fused output");
    assert_eq!(single, fuse_bits(4), "threads = 4 changed the fused output");
}
