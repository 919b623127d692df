//! Serving bench: concurrent posterior queries against epoch-swapped snapshots while
//! the writer ingests a claim stream and keeps background refits in flight.
//!
//! Three phases on one fitted [`ServingEngine`]:
//!
//! 1. **Quiescent reads** — `READERS` threads each answer a fixed budget of point
//!    posterior queries through lock-free [`ServingReader`] handles with the writer
//!    idle; reports posteriors/sec and p50/p99 query latency.
//! 2. **Reads under refit** — the same fixed reader workload while the writer ingests
//!    a delta stream in batches and keeps a background refit in flight the whole time
//!    (re-dispatching as each one lands); reports the same rate/latency numbers plus
//!    snapshot-swap count and the maximum staleness the writer observed.
//! 3. **Batched API** — one thread drives [`ModelSnapshot::posteriors`] over the whole
//!    object universe in fixed-size batches (the query path that fans out over
//!    executor lanes); reports batched posteriors/sec.
//! 4. **Refit failures** (`--features fault-injection` only) — the same reader
//!    workload while every background refit the writer dispatches *fails* via an
//!    injected training panic; reports the degraded posterior rate plus the
//!    supervision counters (`refit_failures`, `refit_retries`). In default builds the
//!    phase is skipped and the JSON records `fault_injection: false` with zeroes.
//!
//! The headline number is `with_refit_throughput_ratio` — the serving tier's contract
//! is that queries under a refit in flight sustain ≥ 0.8× the quiescent rate. The
//! ratio is *reported, not asserted*: on a 1-lane container the background training
//! job and the readers time-share one core, so the JSON records `max_lanes` alongside
//! the ratio to keep those numbers honest.
//!
//! A machine-readable summary is written to `BENCH_serving.json` at the workspace root
//! (override with the `BENCH_SERVING_OUT` environment variable). Scale knobs:
//! `SLIMFAST_SERVING_CLAIMS` (base instance size, default 1M claims, `--test` drops to
//! 20k) and `SLIMFAST_SERVING_QUERIES` (point queries per reader thread).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use criterion::Criterion;

use slimfast_core::exec::max_lanes;
use slimfast_core::{
    FusionEngine, RefitPolicy, ServingEngine, ServingReader, SlimFast, SlimFastConfig,
};
use slimfast_data::{
    build_claims, FeatureMatrix, GroundTruth, NamedObservation, ObjectId, ValueId,
};

/// Sources shared across the whole stream; every object draws 10 of them.
const NUM_SOURCES: usize = 500;
const CLAIMS_PER_OBJECT: usize = 10;
/// Reader threads hammering the published snapshots in both measured phases.
const READERS: usize = 4;
/// Claims per writer `ingest` call in the refit phase.
const INGEST_BATCH: usize = 500;
/// Ids per `ModelSnapshot::posteriors` call in the batched phase.
const QUERY_BATCH: usize = 4_096;

fn total_claims(test_mode: bool) -> usize {
    if let Ok(v) = std::env::var("SLIMFAST_SERVING_CLAIMS") {
        return v
            .parse()
            .expect("SLIMFAST_SERVING_CLAIMS must be an integer");
    }
    if test_mode {
        20_000
    } else {
        1_000_000
    }
}

fn queries_per_reader(test_mode: bool) -> usize {
    if let Ok(v) = std::env::var("SLIMFAST_SERVING_QUERIES") {
        return v
            .parse()
            .expect("SLIMFAST_SERVING_QUERIES must be an integer");
    }
    if test_mode {
        5_000
    } else {
        100_000
    }
}

/// Deterministic claim mix: object `o{i}` gets `CLAIMS_PER_OBJECT` claims from a
/// strided source subset, with a value mix that keeps domains multi-valued.
fn claim_fields(i: usize, k: usize) -> (String, String, String) {
    let source = (i + k * 7) % NUM_SOURCES;
    let value = (i.wrapping_mul(31) + k.wrapping_mul(17)) % 4;
    (format!("s{source}"), format!("o{i}"), format!("v{value}"))
}

fn generate_claims(total: usize) -> Vec<NamedObservation> {
    let objects = total / CLAIMS_PER_OBJECT;
    let mut claims = Vec::with_capacity(objects * CLAIMS_PER_OBJECT);
    for i in 0..objects {
        for k in 0..CLAIMS_PER_OBJECT {
            let (s, o, v) = claim_fields(i, k);
            claims.push(NamedObservation::new(s, o, v));
        }
    }
    claims
}

/// Delta stream over *fresh* objects (`d{i}`), so the writer never conflicts with the
/// fitted instance no matter how the phases interleave.
fn delta_claims(total: usize) -> Vec<NamedObservation> {
    let objects = (total / CLAIMS_PER_OBJECT).max(1);
    let mut claims = Vec::with_capacity(objects * CLAIMS_PER_OBJECT);
    for i in 0..objects {
        for k in 0..CLAIMS_PER_OBJECT {
            let (s, _, v) = claim_fields(i, k);
            claims.push(NamedObservation::new(s, format!("d{i}"), v));
        }
    }
    claims
}

struct FitReport {
    claims: usize,
    objects: usize,
    fit_secs: f64,
}

fn build_serving(total: usize) -> (ServingEngine, FitReport) {
    let claims = generate_claims(total);
    let dataset = build_claims(&claims).expect("generator stream is conflict-free");
    let features = FeatureMatrix::empty(dataset.num_sources());
    let mut truth = GroundTruth::empty(dataset.num_objects());
    for i in (0..dataset.num_objects()).step_by(9) {
        let o = ObjectId::new(i);
        truth.set(
            o,
            dataset
                .domain(o)
                .first()
                .copied()
                .unwrap_or(ValueId::new(0)),
        );
    }
    let objects = dataset.num_objects();
    let start = Instant::now();
    // `RefitPolicy::Never` keeps refit dispatch explicit: this bench times query
    // serving around refits *it* places in flight, not policy-triggered ones.
    let engine = FusionEngine::fit(
        SlimFast::em(SlimFastConfig::default()),
        dataset,
        features,
        truth,
        RefitPolicy::Never,
    );
    let fit_secs = start.elapsed().as_secs_f64();
    (
        ServingEngine::new(engine).with_publish_every(INGEST_BATCH),
        FitReport {
            claims: total,
            objects,
            fit_secs,
        },
    )
}

struct QueryPhase {
    queries: usize,
    secs: f64,
    p50_us: f64,
    p99_us: f64,
}

impl QueryPhase {
    fn posteriors_per_sec(&self) -> f64 {
        self.queries as f64 / self.secs.max(1e-9)
    }
}

/// One reader thread's workload: `q` point queries over a strided id sequence, each
/// latency recorded in nanoseconds. Every served posterior is checked normalized
/// before its timing is trusted.
fn reader_workload(mut reader: ServingReader, r: usize, q: usize, num_objects: usize) -> Vec<u64> {
    let span = num_objects.max(1);
    let mut latencies = Vec::with_capacity(q);
    for j in 0..q {
        let o = ObjectId::new((r * 7_919 + j * 31) % span);
        let start = Instant::now();
        let posterior = reader.posterior_by_id(o);
        latencies.push(start.elapsed().as_nanos() as u64);
        let p = posterior.expect("queried ids stay in range");
        debug_assert!(p.is_empty() || (p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
    latencies
}

fn percentiles(mut latencies_ns: Vec<u64>) -> (f64, f64) {
    latencies_ns.sort_unstable();
    let pick = |p: f64| {
        let idx = ((latencies_ns.len() as f64 - 1.0) * p).round() as usize;
        latencies_ns[idx] as f64 / 1_000.0
    };
    (pick(0.50), pick(0.99))
}

/// Phase 1: fixed reader workload, writer idle.
fn run_quiescent(serving: &ServingEngine, q: usize) -> QueryPhase {
    let num_objects = serving.snapshot().dataset().num_objects();
    let readers: Vec<ServingReader> = (0..READERS).map(|_| serving.reader()).collect();
    let start = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(r, reader)| scope.spawn(move || reader_workload(reader, r, q, num_objects)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let (p50_us, p99_us) = percentiles(latencies);
    QueryPhase {
        queries: READERS * q,
        secs,
        p50_us,
        p99_us,
    }
}

struct RefitPhase {
    query: QueryPhase,
    delta_ingested: usize,
    refits_installed: usize,
    snapshot_swaps: u64,
    max_staleness: u64,
}

/// Phase 2: the same reader workload while the writer ingests the delta stream and
/// keeps a background refit in flight for the full duration.
fn run_under_refit(serving: &mut ServingEngine, q: usize, delta_total: usize) -> RefitPhase {
    let num_objects = serving.snapshot().dataset().num_objects();
    let delta = delta_claims(delta_total);
    let swaps_before = serving.stats().snapshot_swaps;
    let refits_before = serving.stats().refits_installed;
    let readers: Vec<ServingReader> = (0..READERS).map(|_| serving.reader()).collect();
    let done = AtomicUsize::new(0);
    let mut delta_ingested = 0usize;
    let mut max_staleness = 0u64;

    let start = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let done = &done;
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(r, reader)| {
                scope.spawn(move || {
                    let latencies = reader_workload(reader, r, q, num_objects);
                    done.fetch_add(1, Ordering::Release);
                    latencies
                })
            })
            .collect();

        // The writer: put a refit in flight immediately, then ingest batch after
        // batch, re-dispatching whenever the previous refit lands so the readers
        // spend the whole phase with a training thread beside them.
        assert!(serving.refit_background(), "no refit could be dispatched");
        let mut batches = delta.chunks(INGEST_BATCH);
        while done.load(Ordering::Acquire) < READERS {
            if let Some(batch) = batches.next() {
                delta_ingested += serving.ingest(batch).expect("delta objects are fresh");
            }
            // `poll_refit` installs (and publishes) a landed refit; immediately put the
            // next one in flight so the readers never run without training beside them.
            serving.poll_refit();
            if !serving.refit_in_flight() {
                serving.refit_background();
            }
            max_staleness = max_staleness.max(serving.stats().staleness);
            // Pace the writer like a real ingest loop instead of busy-spinning
            // against the readers for CPU.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    serving.drain();
    let stats = serving.stats();
    assert_eq!(
        stats.staleness, 0,
        "drain must converge the published state"
    );
    assert!(
        stats.refits_installed > refits_before,
        "no background refit landed during the phase"
    );

    let (p50_us, p99_us) = percentiles(latencies);
    RefitPhase {
        query: QueryPhase {
            queries: READERS * q,
            secs,
            p50_us,
            p99_us,
        },
        delta_ingested,
        refits_installed: stats.refits_installed - refits_before,
        snapshot_swaps: stats.snapshot_swaps - swaps_before,
        max_staleness,
    }
}

struct BatchedPhase {
    queries: usize,
    secs: f64,
}

/// Outcome of the refit-failure phase: supervision counters and the posterior rate
/// sustained while every background refit was failing. Measured only when the
/// `fault-injection` feature is on; otherwise recorded as disabled with zeroes, so
/// `BENCH_serving.json` keeps a stable schema.
struct FaultPhase {
    enabled: bool,
    refit_failures: u64,
    refit_retries: u64,
    degraded_posteriors_per_sec: f64,
}

impl FaultPhase {
    #[cfg(not(feature = "fault-injection"))]
    fn disabled() -> Self {
        Self {
            enabled: false,
            refit_failures: 0,
            refit_retries: 0,
            degraded_posteriors_per_sec: 0.0,
        }
    }
}

/// Refit-failure phase: the fixed reader workload while the writer keeps dispatching
/// background refits that *all fail* (injected panics at the training entry), so the
/// measured rate is what the tier sustains in degraded fallback serving.
#[cfg(feature = "fault-injection")]
fn run_degraded(serving: &mut ServingEngine, q: usize) -> FaultPhase {
    use slimfast_data::faults::{FaultKind, FaultPlan};

    let stats_before = serving.stats();
    // Fail every refit attempt for the phase's duration (the trigger list is far
    // longer than any realistic number of resolutions within one reader workload).
    let mut plan = FaultPlan::new(17);
    for nth in 1..=1024 {
        plan = plan.fault("refit.train", nth, FaultKind::Panic);
    }
    let scope = plan.activate();

    let num_objects = serving.snapshot().dataset().num_objects();
    let readers: Vec<ServingReader> = (0..READERS).map(|_| serving.reader()).collect();
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let done = &done;
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(r, reader)| {
                scope.spawn(move || {
                    let latencies = reader_workload(reader, r, q, num_objects);
                    done.fetch_add(1, Ordering::Release);
                    latencies
                })
            })
            .collect();

        // The writer: keep a (doomed) refit in flight the whole time. Manual
        // dispatch bypasses quarantine, so supervision keeps catching failures.
        assert!(serving.refit_background(), "no refit could be dispatched");
        while done.load(Ordering::Acquire) < READERS {
            serving.poll_refit();
            if !serving.refit_in_flight() {
                serving.refit_background();
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    serving.drain();
    drop(scope);

    let stats = serving.stats();
    assert!(
        stats.refit_failures > stats_before.refit_failures,
        "no refit failure was caught during the degraded phase"
    );
    assert_eq!(
        stats.refits_installed, stats_before.refits_installed,
        "a doomed refit installed anyway"
    );
    // Leave the engine healthy for whatever runs after the bench.
    serving.reset_health();

    let queries = latencies.len();
    FaultPhase {
        enabled: true,
        refit_failures: stats.refit_failures - stats_before.refit_failures,
        refit_retries: stats.refit_retries - stats_before.refit_retries,
        degraded_posteriors_per_sec: queries as f64 / secs.max(1e-9),
    }
}

/// Phase 3: the batched posterior API over the whole object universe, one consistent
/// snapshot, fanned over executor lanes.
fn run_batched(serving: &ServingEngine) -> BatchedPhase {
    let snapshot = serving.snapshot();
    let num_objects = snapshot.dataset().num_objects();
    let ids: Vec<ObjectId> = (0..num_objects).map(ObjectId::new).collect();
    let start = Instant::now();
    let mut served = 0usize;
    for batch in ids.chunks(QUERY_BATCH) {
        let posteriors = snapshot.posteriors(batch);
        assert_eq!(posteriors.len(), batch.len());
        served += posteriors.len();
    }
    BatchedPhase {
        queries: served,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// True when this machine gives the executor a single lane, in which case the
/// concurrent-reader numbers time-share one core and must not be cited as
/// multi-lane evidence. Recorded in the JSON as `single_lane_caveat`.
fn single_lane() -> bool {
    max_lanes() == 1
}

/// Prints the loud single-lane warning shared by the honesty checks of the scaling
/// and serving benches (each bench binary carries its own copy).
fn warn_if_single_lane(bench: &str) {
    if single_lane() {
        eprintln!(
            "*** WARNING [{bench}]: max_lanes == 1 on this machine — readers and the \
             refit job time-shared a SINGLE lane. Do not cite concurrency numbers as \
             multi-lane evidence; the JSON carries \"single_lane_caveat\": true. ***"
        );
    }
}

fn write_json(
    fit: &FitReport,
    quiescent: &QueryPhase,
    refit: &RefitPhase,
    batched: &BatchedPhase,
    fault: &FaultPhase,
) -> std::io::Result<String> {
    let path = std::env::var("BENCH_SERVING_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_serving.json", env!("CARGO_MANIFEST_DIR")));
    let ratio = refit.query.posteriors_per_sec() / quiescent.posteriors_per_sec().max(1e-9);
    let out = format!(
        concat!(
            "{{\n  \"bench\": \"serving\",\n",
            "  \"claims\": {},\n",
            "  \"objects\": {},\n",
            "  \"readers\": {},\n",
            "  \"queries_per_reader\": {},\n",
            "  \"max_lanes\": {},\n",
            "  \"single_lane_caveat\": {},\n",
            "  \"fit_secs\": {:.4},\n",
            "  \"posteriors_per_sec_no_refit\": {:.0},\n",
            "  \"p50_us_no_refit\": {:.2},\n",
            "  \"p99_us_no_refit\": {:.2},\n",
            "  \"posteriors_per_sec_with_refit\": {:.0},\n",
            "  \"p50_us_with_refit\": {:.2},\n",
            "  \"p99_us_with_refit\": {:.2},\n",
            "  \"with_refit_throughput_ratio\": {:.3},\n",
            "  \"delta_claims_ingested\": {},\n",
            "  \"refits_installed\": {},\n",
            "  \"snapshot_swaps\": {},\n",
            "  \"max_staleness_observed\": {},\n",
            "  \"batched_posteriors_per_sec\": {:.0},\n",
            "  \"fault_injection\": {},\n",
            "  \"refit_failures\": {},\n",
            "  \"refit_retries\": {},\n",
            "  \"degraded_posteriors_per_sec\": {:.0}\n",
            "}}\n"
        ),
        fit.claims,
        fit.objects,
        READERS,
        quiescent.queries / READERS,
        max_lanes(),
        single_lane(),
        fit.fit_secs,
        quiescent.posteriors_per_sec(),
        quiescent.p50_us,
        quiescent.p99_us,
        refit.query.posteriors_per_sec(),
        refit.query.p50_us,
        refit.query.p99_us,
        ratio,
        refit.delta_ingested,
        refit.refits_installed,
        refit.snapshot_swaps,
        refit.max_staleness,
        batched.queries as f64 / batched.secs.max(1e-9),
        fault.enabled,
        fault.refit_failures,
        fault.refit_retries,
        fault.degraded_posteriors_per_sec,
    );
    std::fs::write(&path, &out)?;
    Ok(path)
}

fn main() {
    // Reuse the criterion shim's CLI handling so `cargo test --benches` (`--test`) and
    // name filters behave like every other bench target.
    let _criterion = Criterion::default().configure_from_args();
    let test_mode = std::env::args().any(|a| a == "--test");
    let total = total_claims(test_mode);
    let q = queries_per_reader(test_mode);
    let delta_total = (total / 10).clamp(CLAIMS_PER_OBJECT, 200_000);

    println!(
        "serving: fitting base instance of {total} claims ({NUM_SOURCES} sources, max_lanes {})",
        max_lanes()
    );
    let (mut serving, fit) = build_serving(total);
    println!(
        "serving/fit      {} objects fitted in {:>7.2}s",
        fit.objects, fit.fit_secs
    );

    let quiescent = run_quiescent(&serving, q);
    println!(
        "serving/reads    {} queries x {READERS} readers in {:>7.3}s ({:>9.0} posteriors/s)  p50 {:>7.2}us  p99 {:>7.2}us",
        q,
        quiescent.secs,
        quiescent.posteriors_per_sec(),
        quiescent.p50_us,
        quiescent.p99_us,
    );

    let refit = run_under_refit(&mut serving, q, delta_total);
    let ratio = refit.query.posteriors_per_sec() / quiescent.posteriors_per_sec().max(1e-9);
    println!(
        "serving/refit    same workload with refits in flight: {:>7.3}s ({:>9.0} posteriors/s)  p50 {:>7.2}us  p99 {:>7.2}us",
        refit.query.secs,
        refit.query.posteriors_per_sec(),
        refit.query.p50_us,
        refit.query.p99_us,
    );
    println!(
        "serving/refit    ratio {:.3}x quiescent  {} delta claims  {} refits installed  {} snapshot swaps  max staleness {}",
        ratio, refit.delta_ingested, refit.refits_installed, refit.snapshot_swaps, refit.max_staleness,
    );
    if ratio < 0.8 {
        println!(
            "serving/refit    note: ratio below the 0.8x target — with max_lanes {} the \
             refit and the readers may be time-sharing cores",
            max_lanes()
        );
    }

    let batched = run_batched(&serving);
    println!(
        "serving/batched  {} posteriors in {:>7.3}s ({:>9.0} posteriors/s via the batched API)",
        batched.queries,
        batched.secs,
        batched.queries as f64 / batched.secs.max(1e-9),
    );

    #[cfg(feature = "fault-injection")]
    let fault = run_degraded(&mut serving, q);
    #[cfg(not(feature = "fault-injection"))]
    let fault = FaultPhase::disabled();
    if fault.enabled {
        println!(
            "serving/faults   {} failed refits ({} retries) caught with readers live: {:>9.0} posteriors/s degraded",
            fault.refit_failures, fault.refit_retries, fault.degraded_posteriors_per_sec,
        );
    } else {
        println!("serving/faults   skipped (build without --features fault-injection)");
    }

    warn_if_single_lane("serving");
    match write_json(&fit, &quiescent, &refit, &batched, &fault) {
        Ok(path) => println!("serving: summary written to {path}"),
        Err(err) => eprintln!("serving: could not write summary: {err}"),
    }
}
