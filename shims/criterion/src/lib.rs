//! Minimal, offline, API-compatible subset of the `criterion` benchmark harness.
//!
//! The build container has no network route to a crates registry, so the workspace
//! vendors exactly the criterion surface its benches use: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::sample_size`], [`BenchmarkGroup::bench_function`], [`Bencher::iter`],
//! [`black_box`], and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Statistics are intentionally simple — per-sample wall-clock means with a min/median/max
//! summary line — but the measurement loop shape (warm-up, then `sample_size` timed
//! samples of auto-scaled iteration batches) matches real criterion closely enough for
//! relative comparisons. Passing `--test` (as `cargo test --benches` does) runs each
//! benchmark body once and skips measurement.

#![forbid(unsafe_code)]

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benchmarked work.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Collects per-iteration timings for one benchmark.
pub struct Bencher {
    /// Target number of timed samples.
    sample_size: usize,
    /// When true, run the body once and skip measurement (`--test` mode).
    test_mode: bool,
    /// Per-sample mean iteration times, filled by [`Bencher::iter`].
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, auto-scaling iterations per sample so each sample takes a
    /// measurable amount of time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            black_box(routine());
            return;
        }
        // Warm-up and calibration: find an iteration count taking >= ~5ms per sample.
        let mut iters_per_sample: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(5) || iters_per_sample >= 1 << 20 {
                break;
            }
            iters_per_sample *= 2;
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / iters_per_sample as u32);
        }
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// A named collection of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 1, "sample_size must be >= 1");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark; `f` receives the [`Bencher`] and must call
    /// [`Bencher::iter`].
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id);
        if !self.criterion.matches_filter(&full) {
            return self;
        }
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            test_mode: self.criterion.test_mode,
            samples: Vec::new(),
        };
        f(&mut bencher);
        if self.criterion.test_mode {
            println!("{full}: test mode, ran once");
            return self;
        }
        let mut sorted = bencher.samples.clone();
        sorted.sort();
        if sorted.is_empty() {
            println!("{full}: no samples recorded (did the closure call iter()?)");
            return self;
        }
        let median = sorted[sorted.len() / 2];
        println!(
            "{full:<50} time: [{} {} {}]",
            format_duration(sorted[0]),
            format_duration(median),
            format_duration(*sorted.last().expect("non-empty samples")),
        );
        self
    }

    /// Ends the group. (Real criterion finalizes reports here; the shim prints eagerly.)
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Criterion {
    /// Parses harness-style CLI arguments (`--test`, `--bench`, an optional name filter);
    /// unknown flags are ignored.
    pub fn configure_from_args(mut self) -> Self {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test" => self.test_mode = true,
                "--bench" | "--nocapture" | "--quiet" | "--verbose" | "-v" => {}
                "--save-baseline" | "--baseline" | "--measurement-time" | "--sample-size"
                | "--warm-up-time" => {
                    // Flags with a value we don't use; swallow the value.
                    let _ = args.next();
                }
                other if other.starts_with('-') => {}
                name => self.filter = Some(name.to_string()),
            }
        }
        self
    }

    /// True when `id` passes the CLI substring filter.
    fn matches_filter(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 100,
            criterion: self,
        }
    }

    /// Runs a single benchmark outside a group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.benchmark_group(id.clone()).bench_function(id, f);
        self
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main` running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
