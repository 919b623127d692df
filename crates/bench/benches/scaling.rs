//! Scaling bench: fit cost, thread efficiency, and dataset memory footprint over a
//! sources × objects grid.
//!
//! For every grid point this bench generates a synthetic instance, reports the CSR
//! storage footprint (bytes per claim, with the estimated pre-CSR nested-layout
//! equivalent), and times an unsupervised EM fit — the paper's "millions of claims"
//! regime — at one worker thread and at four. Timings are the minimum of several
//! interleaved rounds (after a warm-up fit that populates the worker pool), so the
//! published numbers measure the steady state the persistent pool is designed for. Every round's fitted weights are asserted bitwise-identical
//! across thread counts (the executor's core guarantee) before any timing is trusted,
//! and each point reports its `parallel_efficiency`: the t1/t4 speedup divided by the
//! lanes a 4-thread request actually runs on this machine
//! ([`exec::max_lanes`]-clamped). On a single-core machine the pool collapses both
//! settings to the same inline execution, so efficiency ≈ 1.0 means requesting threads
//! costs nothing; on a multi-core machine it measures how much of the extra lanes the
//! chunk grid converts into speedup. A machine-readable summary is written to
//! `BENCH_scaling.json` at the workspace root (override with the `BENCH_SCALING_OUT`
//! environment variable) so the performance trajectory can be tracked across PRs.
//!
//! `SLIMFAST_SCALE=full` adds a half-million-claim point; the default quick grid tops
//! out at 200k claims. Passing `--test` (as `cargo test --benches` and CI do) runs the
//! smallest point once and skips the large ones.

use std::hint::black_box;
use std::time::Instant;

use criterion::Criterion;

use slimfast_core::{exec, SlimFast, SlimFastConfig, SlimFastModel};
use slimfast_data::{FusionInput, GroundTruth};
use slimfast_datagen::{
    AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig, SyntheticInstance,
};
use slimfast_optim::kernels;

struct GridPoint {
    name: &'static str,
    sources: usize,
    objects: usize,
    density: f64,
}

const QUICK_GRID: &[GridPoint] = &[
    GridPoint {
        name: "100x1k",
        sources: 100,
        objects: 1_000,
        density: 0.05,
    },
    GridPoint {
        name: "200x5k",
        sources: 200,
        objects: 5_000,
        density: 0.05,
    },
    GridPoint {
        name: "400x10k",
        sources: 400,
        objects: 10_000,
        density: 0.05,
    },
];

const FULL_EXTRA: &[GridPoint] = &[GridPoint {
    name: "500x25k",
    sources: 500,
    objects: 25_000,
    density: 0.04,
}];

/// Timed rounds per thread count (interleaved t1/t4 so machine drift cancels); the
/// published time is the per-setting minimum, i.e. the cost floor with the pool in
/// steady state.
const ROUNDS: usize = 7;

fn generate(point: &GridPoint) -> SyntheticInstance {
    SyntheticConfig {
        name: point.name.into(),
        num_sources: point.sources,
        num_objects: point.objects,
        domain_size: 2,
        pattern: ObservationPattern::Bernoulli(point.density),
        accuracy: AccuracyModel {
            mean: 0.72,
            spread: 0.12,
        },
        features: FeatureModel {
            num_predictive: 3,
            num_noise: 2,
            predictive_strength: 0.2,
        },
        copying: None,
        seed: 20170514,
    }
    .generate()
}

/// The fit configuration of the scaling sweep: unsupervised EM with a reduced iteration
/// budget (the per-iteration cost is what scales; the iteration count is a constant).
fn fit_config(threads: usize) -> SlimFastConfig {
    SlimFastConfig {
        em: slimfast_core::config::EmConfig {
            max_iterations: 5,
            ..Default::default()
        },
        threads,
        ..SlimFastConfig::default()
    }
}

struct PointReport {
    name: String,
    sources: usize,
    objects: usize,
    claims: usize,
    bytes_per_claim: f64,
    nested_bytes_per_claim: f64,
    delta_bytes: usize,
    dead_claims: usize,
    fit_secs_t1: f64,
    fit_secs_t4: f64,
    predict_secs: f64,
}

impl PointReport {
    /// Wall-clock speedup of the 4-thread fit over the 1-thread fit.
    fn speedup_t4(&self) -> f64 {
        self.fit_secs_t1 / self.fit_secs_t4.max(1e-9)
    }

    /// Speedup divided by the lanes a 4-thread request actually runs on this machine.
    fn parallel_efficiency(&self) -> f64 {
        self.speedup_t4() / effective_lanes_t4() as f64
    }
}

/// The lanes a `threads = 4` fit actually executes on: 4 clamped by the machine's
/// available parallelism (the executor never runs more lanes than cores).
fn effective_lanes_t4() -> usize {
    4.min(exec::max_lanes())
}

/// True when this machine gives the executor a single lane, in which case every
/// "t4" number in the report is really single-threaded and must not be cited as
/// multi-lane evidence. Recorded in the JSON as `single_lane_caveat`.
fn single_lane() -> bool {
    exec::max_lanes() == 1
}

/// Prints the loud single-lane warning shared by the honesty checks of the scaling,
/// ingest, and serving benches (each bench binary carries its own copy).
fn warn_if_single_lane(bench: &str) {
    if single_lane() {
        eprintln!(
            "*** WARNING [{bench}]: max_lanes == 1 on this machine — every multi-thread \
             timing in this report ran on a SINGLE lane. Do not cite t4/speedup numbers as \
             multi-lane evidence; the JSON carries \"single_lane_caveat\": true. ***"
        );
    }
}

fn run_point(point: &GridPoint) -> PointReport {
    let instance = generate(point);
    let stats = instance.dataset.storage_stats();
    let truth = GroundTruth::empty(instance.dataset.num_objects());
    let input = FusionInput::new(&instance.dataset, &instance.features, &truth);

    let timed_fit = |threads: usize| {
        let estimator = SlimFast::em(fit_config(threads));
        let start = Instant::now();
        let (model, _) = estimator.train(&input);
        (start.elapsed().as_secs_f64(), model)
    };
    // Warm-up: spawns the pool lanes a 4-thread fit will use, so every timed round below
    // measures the pool's steady state.
    let (_, warm_model) = timed_fit(4);

    let bits =
        |m: &SlimFastModel| -> Vec<u64> { m.weights().iter().map(|w| w.to_bits()).collect() };
    let reference_bits = bits(&warm_model);
    let mut fit_secs_t1 = f64::INFINITY;
    let mut fit_secs_t4 = f64::INFINITY;
    let mut model_t1 = warm_model;
    for round in 0..ROUNDS {
        // Alternate which setting goes first: anything that slows the second
        // measurement of a pair (cgroup throttling, thermal ramp) would otherwise bias
        // one side systematically.
        let (secs_t1, m1, secs_t4, m4) = if round % 2 == 0 {
            let (secs_t1, m1) = timed_fit(1);
            let (secs_t4, m4) = timed_fit(4);
            (secs_t1, m1, secs_t4, m4)
        } else {
            let (secs_t4, m4) = timed_fit(4);
            let (secs_t1, m1) = timed_fit(1);
            (secs_t1, m1, secs_t4, m4)
        };
        // The executor contract: thread counts change wall-clock time, never results —
        // asserted on the raw weight bits of every round, the strongest form of the
        // invariant.
        assert_eq!(
            reference_bits,
            bits(&m1),
            "thread count changed fitted weights at {}",
            point.name
        );
        assert_eq!(
            reference_bits,
            bits(&m4),
            "thread count changed fitted weights at {}",
            point.name
        );
        fit_secs_t1 = fit_secs_t1.min(secs_t1);
        fit_secs_t4 = fit_secs_t4.min(secs_t4);
        model_t1 = m1;
    }

    let start = Instant::now();
    let _ = model_t1.predict(&instance.dataset, &instance.features);
    let predict_secs = start.elapsed().as_secs_f64();

    PointReport {
        name: point.name.to_string(),
        sources: point.sources,
        objects: point.objects,
        claims: stats.num_observations,
        bytes_per_claim: stats.bytes_per_claim(),
        nested_bytes_per_claim: stats.nested_bytes_per_claim(),
        delta_bytes: stats.delta_bytes,
        dead_claims: stats.dead_claims,
        fit_secs_t1,
        fit_secs_t4,
        predict_secs,
    }
}

/// Per-kernel throughput over ~1M-element deterministic inputs (8k in `--test` mode):
/// the raw speed of the SoA kernel layer every hot loop bottoms out in, tracked in the
/// JSON so kernel regressions show up in CI without running a full fit.
struct KernelReport {
    name: &'static str,
    elems: usize,
    melems_per_sec: f64,
}

/// Timed rounds per kernel; the published number is the minimum (cost floor).
const KERNEL_ROUNDS: usize = 5;

/// SplitMix64 step — deterministic input generation without an RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let unit = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

fn bench_kernels(test_mode: bool) -> Vec<KernelReport> {
    // Row shapes mirror the training hot loops: softmax rows the size of a typical
    // claim domain, dot/scatter rows the size of a typical source footprint.
    const ROW: usize = 8;
    const NNZ: usize = 32;
    const DIM: usize = 1_024;
    let n: usize = if test_mode { 8_192 } else { 1 << 20 };

    let mut state = 0x5EED_2017_0514u64;
    let signed: Vec<f64> = (0..n).map(|_| uniform(&mut state, -8.0, 8.0)).collect();
    let positive: Vec<f64> = (0..n).map(|_| uniform(&mut state, 1e-6, 10.0)).collect();
    let offsets: Vec<u32> = (0..=n / ROW).map(|i| (i * ROW) as u32).collect();
    let params: Vec<u32> = (0..n)
        .map(|_| (splitmix64(&mut state) % DIM as u64) as u32)
        .collect();
    let weights: Vec<f64> = (0..DIM).map(|_| uniform(&mut state, -1.0, 1.0)).collect();
    let mut scratch = vec![0.0f64; n];
    let mut out = vec![0.0f64; DIM];

    let mut reports = Vec::new();
    let mut push = |name: &'static str, secs: f64| {
        reports.push(KernelReport {
            name,
            elems: n,
            melems_per_sec: n as f64 / secs.max(1e-9) / 1e6,
        });
    };

    // Elementwise kernels: the (untimed) copy restores pre-kernel inputs each round.
    let mut best = f64::INFINITY;
    for _ in 0..KERNEL_ROUNDS {
        scratch.copy_from_slice(&signed);
        let start = Instant::now();
        kernels::sigmoid_slice(&mut scratch);
        best = best.min(start.elapsed().as_secs_f64());
        black_box(&scratch);
    }
    push("sigmoid_slice", best);

    let mut best = f64::INFINITY;
    for _ in 0..KERNEL_ROUNDS {
        scratch.copy_from_slice(&positive);
        let start = Instant::now();
        kernels::ln_slice(&mut scratch);
        best = best.min(start.elapsed().as_secs_f64());
        black_box(&scratch);
    }
    push("ln_slice", best);

    let mut best = f64::INFINITY;
    for _ in 0..KERNEL_ROUNDS {
        scratch.copy_from_slice(&signed);
        let start = Instant::now();
        kernels::softmax_rows(&mut scratch, &offsets);
        best = best.min(start.elapsed().as_secs_f64());
        black_box(&scratch);
    }
    push("softmax_rows", best);

    let mut best = f64::INFINITY;
    for _ in 0..KERNEL_ROUNDS {
        let start = Instant::now();
        let mut acc = 0.0;
        for row in 0..n / NNZ {
            let lo = row * NNZ;
            acc += kernels::dot_csr(&params[lo..lo + NNZ], &positive[lo..lo + NNZ], &weights);
        }
        best = best.min(start.elapsed().as_secs_f64());
        black_box(acc);
    }
    push("dot_csr", best);

    let mut best = f64::INFINITY;
    for _ in 0..KERNEL_ROUNDS {
        out.iter_mut().for_each(|v| *v = 0.0);
        let start = Instant::now();
        for row in 0..n / NNZ {
            let lo = row * NNZ;
            kernels::axpy_scatter(
                0.5,
                &params[lo..lo + NNZ],
                &positive[lo..lo + NNZ],
                &mut out,
            );
        }
        best = best.min(start.elapsed().as_secs_f64());
        black_box(&out);
    }
    push("axpy_scatter", best);

    reports
}

fn json_escape_free(name: &str) -> &str {
    // Grid and kernel names are static identifiers; assert rather than escape.
    assert!(name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == 'x' || c == '_'));
    name
}

fn write_json(reports: &[PointReport], kernel_reports: &[KernelReport]) -> std::io::Result<String> {
    let path = std::env::var("BENCH_SCALING_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_scaling.json", env!("CARGO_MANIFEST_DIR")));
    let mut out = String::from("{\n  \"bench\": \"scaling\",\n");
    out.push_str(&format!(
        "  \"default_threads\": {},\n  \"max_lanes\": {},\n  \"effective_lanes_t4\": {},\n  \"single_lane_caveat\": {},\n  \"kernels\": [\n",
        exec::num_threads(),
        exec::max_lanes(),
        effective_lanes_t4(),
        single_lane(),
    ));
    for (i, k) in kernel_reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"elems\": {}, \"melems_per_sec\": {:.1}}}{}\n",
            json_escape_free(k.name),
            k.elems,
            k.melems_per_sec,
            if i + 1 == kernel_reports.len() {
                ""
            } else {
                ","
            },
        ));
    }
    out.push_str("  ],\n  \"grid\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"sources\": {}, \"objects\": {}, \"claims\": {}, ",
                "\"bytes_per_claim\": {:.2}, \"nested_bytes_per_claim\": {:.2}, ",
                "\"delta_bytes\": {}, \"dead_claims\": {}, ",
                "\"fit_secs_t1\": {:.4}, \"fit_secs_t4\": {:.4}, ",
                "\"speedup_t4\": {:.3}, \"parallel_efficiency\": {:.3}, ",
                "\"claims_per_sec_t1\": {:.0}, \"claims_per_sec_t4\": {:.0}, ",
                "\"predict_secs\": {:.4}}}{}\n"
            ),
            json_escape_free(&r.name),
            r.sources,
            r.objects,
            r.claims,
            r.bytes_per_claim,
            r.nested_bytes_per_claim,
            r.delta_bytes,
            r.dead_claims,
            r.fit_secs_t1,
            r.fit_secs_t4,
            r.speedup_t4(),
            r.parallel_efficiency(),
            r.claims as f64 / r.fit_secs_t1.max(1e-9),
            r.claims as f64 / r.fit_secs_t4.max(1e-9),
            r.predict_secs,
            if i + 1 == reports.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, &out)?;
    Ok(path)
}

/// The t1-vs-t4 delta table: where the thread request pays off (negative delta) and
/// where it would cost (positive delta, the pre-pool regression this bench guards).
fn print_delta_table(reports: &[PointReport]) {
    println!(
        "\nscaling: t1 vs t4 delta (effective t4 lanes on this machine: {})",
        effective_lanes_t4()
    );
    if effective_lanes_t4() == 1 {
        println!(
            "scaling: single-lane machine — t1 and t4 run identical inline code, so the \
             delta column measures the (zero) cost of *requesting* threads, not a speedup; \
             run on a multi-core machine to measure real parallel efficiency"
        );
    }
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>9} {:>9} {:>11}",
        "point", "claims", "fit t1", "fit t4", "delta", "speedup", "efficiency"
    );
    for r in reports {
        let delta_pct = (r.fit_secs_t4 - r.fit_secs_t1) / r.fit_secs_t1.max(1e-9) * 100.0;
        println!(
            "{:<10} {:>9} {:>9.4}s {:>9.4}s {:>8.1}% {:>8.2}x {:>11.3}",
            r.name,
            r.claims,
            r.fit_secs_t1,
            r.fit_secs_t4,
            delta_pct,
            r.speedup_t4(),
            r.parallel_efficiency(),
        );
    }
}

fn main() {
    // Reuse the criterion shim's CLI handling so `cargo test --benches` (`--test`) and
    // name filters behave like every other bench target.
    let _criterion = Criterion::default().configure_from_args();
    let test_mode = std::env::args().any(|a| a == "--test");
    let full = std::env::var("SLIMFAST_SCALE")
        .map(|s| s.eq_ignore_ascii_case("full"))
        .unwrap_or(false);

    let mut grid: Vec<&GridPoint> = QUICK_GRID.iter().collect();
    if full {
        grid.extend(FULL_EXTRA.iter());
    }
    if test_mode {
        grid.truncate(1);
    }

    println!(
        "scaling: {} grid points, default threads = {}, machine lanes = {}",
        grid.len(),
        exec::num_threads(),
        exec::max_lanes(),
    );
    let mut reports = Vec::new();
    for point in grid {
        let report = run_point(point);
        println!(
            "scaling/{:<10} {:>8} claims  {:>6.1} B/claim (nested {:>6.1})  \
             fit t1 {:>8.3}s  t4 {:>8.3}s  predict {:>7.4}s",
            report.name,
            report.claims,
            report.bytes_per_claim,
            report.nested_bytes_per_claim,
            report.fit_secs_t1,
            report.fit_secs_t4,
            report.predict_secs,
        );
        reports.push(report);
    }
    print_delta_table(&reports);

    let kernel_reports = bench_kernels(test_mode);
    println!("\nscaling: kernel layer throughput (min of {KERNEL_ROUNDS} rounds)");
    for k in &kernel_reports {
        println!(
            "scaling/kernels/{:<14} {:>9} elems  {:>9.1} Melem/s",
            k.name, k.elems, k.melems_per_sec
        );
    }

    warn_if_single_lane("scaling");
    match write_json(&reports, &kernel_reports) {
        Ok(path) => println!("scaling: summary written to {path}"),
        Err(err) => eprintln!("scaling: could not write summary: {err}"),
    }
}
