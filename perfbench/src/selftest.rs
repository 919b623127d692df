//! The benchmark's self-test, at tiny scale:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::atomic::AtomicBool;

use crate::lifecycle::{posterior_ok, read_loop, Plan, Reads, Report};
use crate::{measure, render};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn tiny(reads: Reads) -> Plan {
    Plan {
        name: "tiny",
        base_objects: 3_000,
        fit_objects: 2_000,
        rounds: 2,
        batches: 3,
        reads,
        checkpoints: 2,
    }
}

fn run(plan: &Plan, seed: u64, trace: bool) -> Report {
    let dir = std::env::temp_dir().join(format!(
        "perfbench-selftest-{}-{seed}-{trace}",
        std::process::id()
    ));
    let (report, _) = measure(plan, seed, 0.05, trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.failed, 0, "a tiny run has no failed ops");
    report
}

fn value(report: &Report, name: &str) -> f64 {
    report.metrics.iter().find(|m| m.0 == name).expect(name).1
}

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK.find(&format!("\"{section}\"")).expect(section);
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("name");
            let unit = rest.split("\"unit\": \"").nth(1).expect("unit");
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit")].to_string(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        for reads in [Reads::Beside, Reads::UniformWindow, Reads::SkewedWindow] {
            let report = run(&tiny(reads), 3, trace);
            let line = render(&report);
            assert!(line.starts_with("{\"correct\": true, "), "{line}");
            let printed: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
                .collect();
            let declared = declared(section);
            assert!(!declared.is_empty());
            assert_eq!(printed, declared);
            for (name, unit) in declared {
                let value = value(&report, &name);
                assert!(
                    line.contains(&format!(
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    )),
                    "{name} in {line}"
                );
            }
        }
    }
}

#[test]
fn a_seed_repeats_accuracy_and_counts() {
    let plan = tiny(Reads::SkewedWindow);
    let [a, b] = [0, 1].map(|_| run(&plan, 5, false));
    assert_eq!(
        value(&a, "accuracy").to_bits(),
        value(&b, "accuracy").to_bits()
    );
    let [a, b] = [0, 1].map(|_| run(&plan, 5, true));
    for name in [
        "core.em.iterations",
        "core.em.converged",
        "data.dataset.bytes_per_claim",
        "data.snapshot.bytes_per_claim",
    ] {
        assert_eq!(
            value(&a, name).to_bits(),
            value(&b, name).to_bits(),
            "{name}"
        );
    }
    assert!(value(&a, "core.em.iterations") >= 1.0);
}

#[test]
fn a_corrupted_posterior_counts_as_failed() {
    assert!(posterior_ok(&[0.25, 0.75], 1));
    assert!(!posterior_ok(&[0.25, 0.75], 0), "argmax elsewhere");
    assert!(!posterior_ok(&[0.5, 0.6], 1), "not normalized");

    let ids: Vec<u32> = (0..1000).collect();
    let expected = vec![1u8; ids.len()];
    // A stop flag that is already set lets the loop serve exactly one block.
    let stop = AtomicBool::new(true);
    let mut served = 0;
    let tally = read_loop(
        |_| {
            served += 1;
            Some(if served == 7 {
                vec![0.75, 0.75]
            } else {
                vec![0.25, 0.75]
            })
        },
        &ids,
        0,
        &expected,
        &stop,
    );
    assert!(tally.reads > 7);
    assert_eq!(tally.failed, 1);

    let tally = read_loop(
        |o| (o.index() != 3).then(|| vec![0.25, 0.75]),
        &ids,
        0,
        &expected,
        &stop,
    );
    assert_eq!(tally.failed, 1, "a lookup that serves nothing fails");
}
