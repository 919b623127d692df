//! End-to-end determinism of the windowed-stream scenario: the full serving path —
//! bulk load, delta-log appends, window evictions, policy-driven compactions,
//! and refits — must produce bitwise-identical reports at any worker-thread count.
//!
//! CI runs this suite under `SLIMFAST_THREADS={1,4}`; the explicit-thread matrix
//! below additionally pins the config-level knob so the invariant holds regardless
//! of the environment.

use slimfast::eval::{run_windowed_stream, StreamScenarioConfig, WindowedStreamReport};
use slimfast::prelude::*;

fn run_with_threads(threads: usize) -> WindowedStreamReport {
    run_windowed_stream(&StreamScenarioConfig {
        slimfast: SlimFastConfig::default().with_threads(threads),
        ..StreamScenarioConfig::default()
    })
}

#[test]
fn windowed_stream_is_bitwise_identical_across_thread_counts() {
    let reference = run_with_threads(1);
    // The scenario must actually exercise the maintenance machinery for the
    // comparison to mean anything.
    assert!(reference.evictions > 0, "scenario never slid the window");
    assert!(reference.refits >= 1, "scenario never refitted");

    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for threads in [2, 4] {
        let report = run_with_threads(threads);
        assert_eq!(
            bits(&reference.final_weights),
            bits(&report.final_weights),
            "thread count changed the final model weights (threads = {threads})"
        );
        assert_eq!(
            reference, report,
            "thread count changed the report (threads = {threads})"
        );
    }
}

#[test]
fn windowed_stream_bookkeeping_is_conserved() {
    let report = run_with_threads(1);
    let delivered: usize = report.phases.iter().map(|p| p.claims).sum();
    assert_eq!(
        report.final_live + report.evictions,
        delivered,
        "live + evicted must equal delivered claims"
    );
    let horizon = StreamScenarioConfig::default().horizon_claims;
    assert!(
        report.final_live <= horizon,
        "window overflowed its horizon"
    );
    for pair in report.phases.windows(2) {
        assert!(pair[0].evictions <= pair[1].evictions);
        assert!(pair[0].refits <= pair[1].refits);
    }
}
