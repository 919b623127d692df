//! End-to-end and per-layer benchmark of the SLiMFast lifecycle.
//!
//! ```text
//! perfbench --workload <fuse_200k|serve_2m|query_200k> --seed <n> --seconds <s> --trace <0|1>
//!           [--rev <id>] [--work-dir <dir>]
//! ```
//!
//! Prints one JSON line describing the environment, then, as the last line, the result:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` they are the per-layer ones, and the run's spans
//! are written to `<work-dir>/trace-<workload>-<seed>.jsonl`. The read windows of a run
//! add up to `--seconds`; every other phase does a fixed amount of work. Build and run
//! it through `perfbench/run.py`, which passes the source revision.

mod gen;
mod lifecycle;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use lifecycle::{Plan, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    work_dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--rev <id>] [--work-dir <dir>]"
    );
    exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value '{value}' for {flag}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        rev: "unknown".into(),
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut given = std::env::args().skip(1);
    while let Some(flag) = given.next() {
        let value = given
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse(&flag, &value),
            "--seconds" => args.seconds = parse(&flag, &value),
            "--trace" => {
                args.trace = match parse::<u8>(&flag, &value) {
                    0 => false,
                    1 => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--rev" => args.rev = value,
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

/// A fixed benchmark-owned loop, CPU and memory bound: the median of five timings in
/// milliseconds. Timed at the start and the end of a run, it tells a slow host from a
/// slow program; it never enters an end-to-end metric.
fn reference_ms() -> f64 {
    let mut buffer = vec![0u64; 1 << 23];
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 1u64;
            for (i, slot) in buffer.iter_mut().enumerate() {
                x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i as u64);
                *slot = x;
            }
            std::hint::black_box(buffer.iter().fold(0, |a, &b| a ^ b));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// The result line. A metric that could not be measured makes the run incorrect.
fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let measured = report.metrics.iter().all(|(_, v, _)| v.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && measured,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// One run of `plan`, with the reference loop timed before and after it.
fn measure(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: &Path,
) -> (Report, [f64; 2]) {
    std::fs::create_dir_all(work_dir).expect("work directory");
    let ref_start_ms = reference_ms();
    let inputs = lifecycle::inputs(plan, seed);
    let mut report = if trace {
        let mut tracer = trace::Tracer::new(seed);
        let report = lifecycle::run_traced(plan, &inputs, work_dir, &mut tracer);
        let spans = work_dir.join(format!("trace-{}-{seed}.jsonl", plan.name));
        tracer.write(&spans).expect("write spans");
        report
    } else {
        lifecycle::run(plan, &inputs, seconds, work_dir)
    };
    let ref_end_ms = reference_ms();
    if trace {
        report
            .metrics
            .push(("env.ref_ms", (ref_start_ms + ref_end_ms) / 2.0, "ms"));
    }
    (report, [ref_start_ms, ref_end_ms])
}

fn main() {
    let args = parse_args();
    let plan = lifecycle::plan(&args.workload)
        .unwrap_or_else(|| usage(&format!("unknown workload '{}'", args.workload)));
    let (report, [ref_start_ms, ref_end_ms]) =
        measure(plan, args.seed, args.seconds, args.trace, &args.work_dir);
    println!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"rev\": \"{}\", \"lanes\": {}, \
         \"ref_ms_start\": {}, \"ref_ms_end\": {}}}}}",
        plan.name,
        args.seed,
        args.rev,
        slimfast_optim::exec::max_lanes(),
        json_number(ref_start_ms),
        json_number(ref_end_ms)
    );
    println!("{}", render(&report));
}
