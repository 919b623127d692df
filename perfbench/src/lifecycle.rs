//! The workloads: one fit → serve → snapshot lifecycle, sized and weighted per workload.
//!
//! Every run builds its inputs from the seed, then runs rounds. A round sets the program
//! up: parse the fit-set CSV, fit the default estimator, predict every object (the fuse
//! op), build the base dataset when it is larger than the fit set, install the model and
//! publish the first snapshot. The round's timed phases follow on that set-up: reads,
//! ingest of fresh-object batches, and checkpoint → recover cycles. No training runs in
//! a timed window. Every phase runs in every workload, so every metric exists on each;
//! the workloads differ in base size and in which phase gets the work.
//!
//! A traced run does the same work through each layer's own entry point, one span per
//! call, and reports per-layer times instead of end-to-end metrics.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use slimfast_core::em::train_em_compiled;
use slimfast_core::{
    CompiledProblem, FittedSlimFast, FusionEngine, ModelSnapshot, RefitPolicy, ServingEngine,
    SlimFast, SlimFastConfig,
};
use slimfast_data::{
    read_observations_csv_sharded, Dataset, FittedFusion, FusionInput, GroundTruth, ObjectId,
    SnapshotDir, TruthAssignment, ValueId,
};

use crate::gen::{Inputs, BATCH_CLAIMS, SOURCES};
use crate::stats::{median, quantile, Histogram};
use crate::trace::Tracer;

/// Where a workload's read metrics come from.
#[derive(Clone, Copy)]
pub enum Reads {
    /// One reader on uniform base-object ids, beside the ingest writer.
    Beside,
    /// `WINDOW_READERS` readers with the writer idle, before the ingest phase, on
    /// uniform or skewed base-object ids. The windows of a run add up to `--seconds`.
    UniformWindow,
    SkewedWindow,
}

impl Reads {
    fn ids(self, inputs: &Inputs) -> &[u32] {
        match self {
            Reads::Beside | Reads::UniformWindow => &inputs.uniform_ids,
            Reads::SkewedWindow => &inputs.skewed_ids,
        }
    }
}

/// A workload. A run is `rounds` rounds of one set-up followed by one pass of the timed
/// phases, so every metric samples the whole run rather than one stretch of it.
pub struct Plan {
    pub name: &'static str,
    pub base_objects: usize,
    pub fit_objects: usize,
    pub rounds: usize,
    /// Ingest batches per round.
    pub batches: usize,
    pub reads: Reads,
    /// Checkpoint → recover cycles per round.
    pub checkpoints: usize,
}

pub const PLANS: [Plan; 3] = [
    // The batch user's job: the learner does almost all of the work.
    Plan {
        name: "fuse_200k",
        base_objects: 25_000,
        fit_objects: 25_000,
        rounds: 4,
        batches: 100,
        reads: Reads::UniformWindow,
        checkpoints: 2,
    },
    // A serving tier over a 2M-claim base whose model was fitted on a 200k prefix:
    // every publish clones a base larger than the caches.
    Plan {
        name: "serve_2m",
        base_objects: 250_000,
        fit_objects: 25_000,
        rounds: 3,
        batches: 67,
        reads: Reads::Beside,
        checkpoints: 2,
    },
    // The read path alone, on skewed ids over a working set that fits in cache.
    Plan {
        name: "query_200k",
        base_objects: 25_000,
        fit_objects: 25_000,
        rounds: 3,
        batches: 100,
        reads: Reads::SkewedWindow,
        checkpoints: 2,
    },
];

/// Reader ids generated per stream; readers cycle through them.
const READ_IDS: usize = 1 << 20;
const WINDOW_READERS: usize = 2;
/// One lookup in this many is timed; the others only count towards throughput.
const SAMPLE_EVERY: u64 = 4;
/// Lookups between two checks of a reader's stop flag.
const READ_BLOCK: usize = 256;
/// A fitted model below this held-out accuracy fails its check.
const MIN_ACCURACY: f64 = 0.8;
/// Objects whose recovered posteriors must equal the checkpointed ones bit for bit.
const RECOVER_SAMPLE: usize = 64;
/// Untraced and traced fuse ops alternate this many times in a traced run.
const TRACE_PAIRS: usize = 2;
/// Lookups per timed block in a traced run, and blocks per read path.
const TRACE_READ_BLOCK: usize = 4096;
const TRACE_READ_BLOCKS: usize = 100;

pub fn plan(name: &str) -> Option<&'static Plan> {
    PLANS.iter().find(|p| p.name == name)
}

pub fn inputs(plan: &Plan, seed: u64) -> Inputs {
    Inputs::generate(
        seed,
        plan.base_objects,
        plan.fit_objects,
        plan.batches,
        READ_IDS,
    )
}

/// What a run measured, and how many of its operations passed their checks.
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Counts operations and the ones whose outputs failed a check.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    fn add_reads(&mut self, tally: &ReadTally) {
        self.attempted += tally.reads;
        self.failed += tally.failed;
        if tally.failed > 0 {
            eprintln!("check failed: {} served posteriors", tally.failed);
        }
    }
}

fn estimator() -> SlimFast {
    SlimFast::new(SlimFastConfig::default())
}

fn value_ids(dataset: &Dataset) -> [ValueId; 2] {
    ["v0", "v1"].map(|v| dataset.value_id(v).expect("both values are claimed"))
}

/// The 1% labels, over the objects `dataset` holds.
fn labels(inputs: &Inputs, dataset: &Dataset) -> GroundTruth {
    let values = value_ids(dataset);
    let mut truth = GroundTruth::empty(dataset.num_objects());
    for o in (0..dataset.num_objects()).filter(|&o| inputs.labeled[o]) {
        truth.set(ObjectId::new(o), values[usize::from(inputs.truth[o])]);
    }
    truth
}

/// The fuse op: CSV → dataset → default fit → prediction of every object.
fn fuse(inputs: &Inputs) -> (FusionEngine, TruthAssignment) {
    let dataset = read_observations_csv_sharded(inputs.fit_csv(), 0).expect("generated CSV");
    let truth = labels(inputs, &dataset);
    let engine = FusionEngine::fit(
        estimator(),
        dataset,
        inputs.features.clone(),
        truth,
        RefitPolicy::Never,
    );
    let predictions = engine.predict();
    (engine, predictions)
}

/// The rest of set-up after the fit: the base dataset (when it outgrows the fit set),
/// the installed model and the first publish.
fn install(inputs: &Inputs, engine: FusionEngine) -> ServingEngine {
    let engine = if inputs.base_objects == inputs.fit_objects {
        engine
    } else {
        let dataset = read_observations_csv_sharded(&inputs.csv, 0).expect("generated CSV");
        let truth = labels(inputs, &dataset);
        FusionEngine::from_model(
            estimator(),
            engine.model().clone(),
            engine.decision(),
            dataset,
            inputs.features.clone(),
            truth,
            RefitPolicy::Never,
        )
    };
    ServingEngine::new(engine)
}

/// Held-out accuracy of `predictions` over the fit set.
fn fit_accuracy(inputs: &Inputs, dataset: &Dataset, predictions: &TruthAssignment) -> f64 {
    let values = value_ids(dataset);
    let held_out: Vec<usize> = (0..inputs.fit_objects)
        .filter(|&o| !inputs.labeled[o])
        .collect();
    let correct = held_out
        .iter()
        .filter(|&&o| {
            predictions.get(ObjectId::new(o)) == Some(values[usize::from(inputs.truth[o])])
        })
        .count();
    correct as f64 / held_out.len() as f64
}

/// Whether the dataset interned sources `s{i}` and objects `o{i}` as handle `i`, which
/// the labels, features and reader ids rely on.
fn handles_match(inputs: &Inputs, dataset: &Dataset) -> bool {
    let sources =
        (0..SOURCES).all(|s| dataset.source_id(&format!("s{s}")).map(|id| id.index()) == Some(s));
    let objects = (0..inputs.base_objects)
        .step_by(997)
        .chain([inputs.base_objects - 1])
        .all(|o| dataset.object_id(&format!("o{o}")) == Some(ObjectId::new(o)));
    sources && objects && dataset.num_objects() == inputs.base_objects
}

/// Domain index of the predicted value of every base object: what a served posterior's
/// argmax must be.
fn expected_argmax(inputs: &Inputs, snapshot: &ModelSnapshot) -> Vec<u8> {
    let predictions = snapshot.predict();
    (0..inputs.base_objects)
        .map(|o| {
            let o = ObjectId::new(o);
            let value = predictions.get(o);
            snapshot
                .dataset()
                .domain(o)
                .iter()
                .position(|&v| Some(v) == value)
                .map_or(u8::MAX, |i| i as u8)
        })
        .collect()
}

/// A served posterior is normalized and its largest entry is at `expected`.
pub fn posterior_ok(posterior: &[f64], expected: u8) -> bool {
    let sum: f64 = posterior.iter().sum();
    (sum - 1.0).abs() <= 1e-9
        && posterior
            .get(usize::from(expected))
            .is_some_and(|&p| posterior.iter().all(|&q| q <= p))
}

fn bitwise_eq(a: &Option<Vec<f64>>, b: &Option<Vec<f64>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => false,
    }
}

/// Accuracy of the served snapshot over every object the learner had no label for.
fn served_accuracy(inputs: &Inputs, snapshot: &ModelSnapshot) -> f64 {
    let dataset = snapshot.dataset();
    let values = value_ids(dataset);
    let predictions = snapshot.predict();
    let base = (0..inputs.base_objects)
        .filter(|&o| !inputs.labeled[o])
        .map(|o| (Some(ObjectId::new(o)), inputs.truth[o]));
    let fresh = (inputs.base_objects..inputs.truth.len()).map(|i| {
        let name = format!("f{}", i - inputs.base_objects);
        (dataset.object_id(&name), inputs.truth[i])
    });
    let (mut correct, mut total) = (0usize, 0usize);
    for (o, truth) in base.chain(fresh) {
        total += 1;
        correct +=
            usize::from(o.is_some_and(|o| predictions.get(o) == Some(values[usize::from(truth)])));
    }
    correct as f64 / total as f64
}

pub struct ReadTally {
    pub hist: Histogram,
    pub reads: u64,
    pub failed: u64,
    pub secs: f64,
}

/// Looks up `ids` cyclically from `start`, in blocks of `READ_BLOCK`, until `stop` is
/// set, timing one lookup in `SAMPLE_EVERY` and checking every served posterior.
pub fn read_loop(
    mut read: impl FnMut(ObjectId) -> Option<Vec<f64>>,
    ids: &[u32],
    start: usize,
    expected: &[u8],
    stop: &AtomicBool,
) -> ReadTally {
    let mut tally = ReadTally {
        hist: Histogram::new(),
        reads: 0,
        failed: 0,
        secs: 0.0,
    };
    let began = Instant::now();
    let mut i = start % ids.len();
    loop {
        for _ in 0..READ_BLOCK {
            let o = ids[i] as usize;
            i = if i + 1 == ids.len() { 0 } else { i + 1 };
            let posterior = if tally.reads.is_multiple_of(SAMPLE_EVERY) {
                let t = Instant::now();
                let posterior = read(ObjectId::new(o));
                tally.hist.record(t.elapsed().as_nanos() as u64);
                posterior
            } else {
                read(ObjectId::new(o))
            };
            tally.reads += 1;
            if !posterior.is_some_and(|p| posterior_ok(&p, expected[o])) {
                tally.failed += 1;
            }
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    tally.secs = began.elapsed().as_secs_f64();
    tally
}

/// `WINDOW_READERS` readers on `ids` for `seconds`, writer idle.
fn read_window(
    serving: &ServingEngine,
    ids: &[u32],
    expected: &[u8],
    seconds: f64,
) -> Vec<ReadTally> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..WINDOW_READERS)
            .map(|r| {
                let mut reader = serving.reader();
                let stop = &stop;
                scope.spawn(move || {
                    read_loop(
                        |o| reader.posterior_by_id(o),
                        ids,
                        r * ids.len() / WINDOW_READERS,
                        expected,
                        stop,
                    )
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .collect()
    })
}

struct Ingest {
    batch_ms: Vec<f64>,
    reads: Option<ReadTally>,
}

/// Ingests every batch on this thread, optionally with one reader beside it.
fn ingest_phase(
    serving: &mut ServingEngine,
    inputs: &Inputs,
    expected: &[u8],
    with_reader: bool,
    gate: &mut Gate,
) -> Ingest {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let beside = with_reader.then(|| {
            let mut reader = serving.reader();
            let stop = &stop;
            scope.spawn(move || {
                read_loop(
                    |o| reader.posterior_by_id(o),
                    &inputs.uniform_ids,
                    0,
                    expected,
                    stop,
                )
            })
        });
        let mut batch_ms = Vec::with_capacity(inputs.batches.len());
        for batch in &inputs.batches {
            let t = Instant::now();
            let appended = serving.ingest(batch);
            batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            gate.check(
                appended.is_ok_and(|n| n == batch.len()),
                "a batch appends exactly its size",
            );
        }
        stop.store(true, Ordering::Relaxed);
        Ingest {
            batch_ms,
            reads: beside.map(|r| r.join().expect("reader thread")),
        }
    })
}

/// Evenly spaced objects of the published snapshot, fresh ones included.
fn recover_sample(snapshot: &ModelSnapshot) -> Vec<ObjectId> {
    let n = snapshot.dataset().num_objects();
    (0..RECOVER_SAMPLE)
        .map(|i| ObjectId::new(i * (n - 1) / (RECOVER_SAMPLE - 1)))
        .collect()
}

/// A fresh, empty generation directory under `work_dir`.
fn snapshot_dir(work_dir: &Path) -> SnapshotDir {
    let path = work_dir.join("snapshots");
    let _ = std::fs::remove_dir_all(&path);
    SnapshotDir::open(path).expect("snapshot directory")
}

/// `checkpoint` then `recover` through the first served posterior, `reps` times.
fn checkpoint_phase(
    serving: &ServingEngine,
    dir: &SnapshotDir,
    reps: usize,
    gate: &mut Gate,
) -> (Vec<f64>, Vec<f64>) {
    let published = serving.snapshot();
    let sample = recover_sample(&published);
    let expected: Vec<_> = sample
        .iter()
        .map(|&o| published.posterior_by_id(o))
        .collect();
    let (mut checkpoint_s, mut recover_s) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        serving.checkpoint(dir).expect("checkpoint");
        checkpoint_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let recovered =
            ServingEngine::recover(dir, estimator(), RefitPolicy::Never).expect("recover");
        let mut reader = recovered.reader();
        let first = reader.posterior_by_id(sample[0]);
        recover_s.push(t.elapsed().as_secs_f64());
        let same = bitwise_eq(&first, &expected[0])
            && sample
                .iter()
                .zip(&expected)
                .all(|(&o, e)| bitwise_eq(&reader.posterior_by_id(o), e));
        gate.check(
            same,
            "recovered posteriors equal the checkpointed snapshot bit for bit",
        );
    }
    (checkpoint_s, recover_s)
}

fn reset_peak_rss() {
    // Writing 5 resets the kernel's peak-RSS mark to the current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Read metrics: each round's lookup latency percentiles and the lookups all its
/// readers completed per second, as medians over rounds.
fn read_metrics(metrics: &mut Vec<(&'static str, f64, &'static str)>, rounds: &[Vec<ReadTally>]) {
    let (mut p50, mut p99, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for round in rounds {
        let mut hist = Histogram::new();
        for tally in round {
            hist.merge(&tally.hist);
        }
        p50.push(hist.quantile_ns(0.5) / 1e3);
        p99.push(hist.quantile_ns(0.99) / 1e3);
        rates.push(round.iter().map(|t| t.reads as f64 / t.secs).sum());
    }
    metrics.extend([
        ("read_p50_us", median(&p50), "us"),
        ("read_p99_us", median(&p99), "us"),
        ("reads_per_s", median(&rates), "1/s"),
    ]);
}

/// The end-to-end run.
pub fn run(plan: &Plan, inputs: &Inputs, seconds: f64, work_dir: &Path) -> Report {
    let mut gate = Gate::default();
    let dir = snapshot_dir(work_dir);
    let (mut setup_s, mut fuse_s, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut batch_ms, mut batch_p95_ms) = (Vec::new(), Vec::new());
    let (mut checkpoint_s, mut recover_s) = (Vec::new(), Vec::new());
    let mut reads = Vec::new();
    let mut first_accuracy = None;
    let mut accuracy = f64::NAN;
    for _ in 0..plan.rounds {
        let t = Instant::now();
        let (engine, predictions) = fuse(inputs);
        fuse_s.push(t.elapsed().as_secs_f64());
        let held_out = fit_accuracy(inputs, engine.dataset(), &predictions);
        let mut serving = install(inputs, engine);
        setup_s.push(t.elapsed().as_secs_f64());
        let first = *first_accuracy.get_or_insert(held_out);
        gate.check(
            held_out >= MIN_ACCURACY && held_out.to_bits() == first.to_bits(),
            "every fit reaches the same held-out accuracy",
        );
        gate.check(
            handles_match(inputs, serving.engine().dataset()),
            "handles follow the input order",
        );
        let expected = expected_argmax(inputs, &serving.snapshot());

        reset_peak_rss();
        let beside = matches!(plan.reads, Reads::Beside);
        let mut round_reads = Vec::new();
        if !beside {
            let window = seconds / plan.rounds as f64;
            round_reads = read_window(&serving, plan.reads.ids(inputs), &expected, window);
        }
        let ingest = ingest_phase(&mut serving, inputs, &expected, beside, &mut gate);
        batch_p95_ms.push(quantile(&ingest.batch_ms, 0.95));
        batch_ms.extend(ingest.batch_ms);
        round_reads.extend(ingest.reads);
        let (checkpoints, recovers) = checkpoint_phase(&serving, &dir, plan.checkpoints, &mut gate);
        checkpoint_s.extend(checkpoints);
        recover_s.extend(recovers);
        rss_mb.push(peak_rss_mb());
        for tally in &round_reads {
            gate.add_reads(tally);
        }
        reads.push(round_reads);
        accuracy = served_accuracy(inputs, &serving.snapshot());
        gate.check(accuracy >= MIN_ACCURACY, "the served snapshot is accurate");
    }
    let _ = std::fs::remove_dir_all(dir.path());

    let mut metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("fuse_s", median(&fuse_s), "s"),
        ("accuracy", accuracy, "ratio"),
        // Over every batch of the run rather than the median batch, whose latency
        // flipped between two levels from run to run.
        (
            "ingest_claims_per_s",
            1e3 * (BATCH_CLAIMS * batch_ms.len()) as f64 / batch_ms.iter().sum::<f64>(),
            "1/s",
        ),
        // Per round, so that one disturbed round cannot carry the run's tail.
        ("ingest_p95_ms", median(&batch_p95_ms), "ms"),
    ];
    read_metrics(&mut metrics, &reads);
    metrics.extend([
        ("checkpoint_s", median(&checkpoint_s), "s"),
        ("recover_s", median(&recover_s), "s"),
        ("rss_mb", median(&rss_mb), "MB"),
    ]);
    Report {
        metrics,
        attempted: gate.attempted,
        failed: gate.failed,
    }
}

/// The fuse op through each layer's entry point, one span per call.
fn traced_fuse(inputs: &Inputs, t: &mut Tracer) -> (FusionEngine, TruthAssignment) {
    t.span("bench.fuse_op", |t| {
        let dataset = t.span("data.ingest.csv_build", |_| {
            read_observations_csv_sharded(inputs.fit_csv(), 0).expect("generated CSV")
        });
        let truth = labels(inputs, &dataset);
        let features = &inputs.features;
        let config = SlimFastConfig::default();
        let input = FusionInput::new(&dataset, features, &truth);
        let report = t.span("core.optimizer.plan", |_| estimator().plan(&input));
        let problem = t.span("core.compile.compile", |_| {
            CompiledProblem::compile(&dataset, features, &truth)
        });
        let model = t.span("core.em.fit", |t| {
            let (model, em) = train_em_compiled(&problem, &dataset, &config);
            t.count("core.em.iterations", em.iterations as u64);
            t.count("core.em.converged", u64::from(em.converged));
            model
        });
        let fitted = FittedSlimFast::from_model(
            "SLiMFast",
            model.clone(),
            report.decision,
            &dataset,
            features,
        );
        let predictions = t.span("core.model.predict", |_| fitted.predict(&dataset, features));
        let engine = FusionEngine::from_model(
            estimator(),
            model,
            report.decision,
            dataset,
            features.clone(),
            truth,
            RefitPolicy::Never,
        );
        (engine, predictions)
    })
}

/// How many lookups of `block` served a posterior that passes [`posterior_ok`].
fn served_correctly(
    block: &[u32],
    expected: &[u8],
    mut read: impl FnMut(ObjectId) -> Option<Vec<f64>>,
) -> u64 {
    block
        .iter()
        .filter(|&&o| {
            read(ObjectId::new(o as usize)).is_some_and(|p| posterior_ok(&p, expected[o as usize]))
        })
        .count() as u64
}

/// The traced run: the same work as [`run`], timed per layer.
pub fn run_traced(plan: &Plan, inputs: &Inputs, work_dir: &Path, t: &mut Tracer) -> Report {
    let mut gate = Gate::default();
    let mut untraced_s = Vec::new();
    let mut last = None;
    for pair in 0..TRACE_PAIRS {
        drop(last.take());
        // Alternate which op of a pair runs first, so neither always runs on a warmer host.
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            if traced {
                let (engine, predictions) = traced_fuse(inputs, t);
                let accuracy = fit_accuracy(inputs, engine.dataset(), &predictions);
                gate.check(accuracy >= MIN_ACCURACY, "the traced fit is accurate");
                last = Some(engine);
            } else {
                let began = Instant::now();
                drop(fuse(inputs));
                untraced_s.push(began.elapsed().as_secs_f64());
            }
        }
    }
    let traced_ms = t.durations_ms("bench.fuse_op");
    let overhead_pct = (median(&traced_ms) / (median(&untraced_s) * 1e3) - 1.0) * 100.0;

    let engine = last.expect("at least one traced fit");
    let mut serving = t
        .span("bench.install", |_| install(inputs, engine))
        .with_publish_every(usize::MAX);
    gate.check(
        handles_match(inputs, serving.engine().dataset()),
        "handles follow the input order",
    );
    let expected = expected_argmax(inputs, &serving.snapshot());

    for batch in &inputs.batches {
        let appended = t
            .span("core.serve.append", |_| serving.ingest(batch))
            .unwrap_or(0);
        t.span("core.serve.publish", |_| serving.publish_now());
        gate.check(appended == batch.len(), "a batch appends exactly its size");
    }
    let dataset_bytes_per_claim = serving.engine().dataset().storage_stats().bytes_per_claim();

    let ids = plan.reads.ids(inputs);
    let snapshot = serving.snapshot();
    let mut reader = serving.reader();
    let mut served_ok = 0u64;
    let mut lookups = 0u64;
    for (i, block) in ids
        .chunks(TRACE_READ_BLOCK)
        .take(TRACE_READ_BLOCKS)
        .enumerate()
    {
        // Both paths read a block whose rows an untimed pass has already cached, in
        // alternating order, so they differ only in the code each runs.
        served_correctly(block, &expected, |o| snapshot.posterior_by_id(o));
        for reader_path in [i % 2 == 0, i % 2 == 1] {
            served_ok += if reader_path {
                t.span("core.serve.reader_read", |_| {
                    served_correctly(block, &expected, |o| reader.posterior_by_id(o))
                })
            } else {
                t.span("core.model.snapshot_read", |_| {
                    served_correctly(block, &expected, |o| snapshot.posterior_by_id(o))
                })
            };
            lookups += block.len() as u64;
        }
    }
    gate.attempted += lookups;
    gate.failed += lookups - served_ok;

    let dir = snapshot_dir(work_dir);
    let sample = recover_sample(&snapshot);
    let mut snapshot_bytes = 0;
    for _ in 0..plan.checkpoints {
        let bytes = t.span("data.snapshot.encode", |_| {
            snapshot.to_bytes().expect("encode")
        });
        let generation = t.span("data.snapshot.write", |_| {
            dir.write_generation(&bytes).expect("write")
        });
        let read = t.span("data.snapshot.read", |_| {
            dir.read_generation(generation).expect("read")
        });
        let decoded = t.span("data.snapshot.decode", |_| {
            ModelSnapshot::from_bytes(&read).expect("decode")
        });
        let (tier, first) = t.span("core.serve.cold_start", |_| {
            let tier = ServingEngine::from_snapshot(decoded, estimator(), RefitPolicy::Never);
            let first = tier.reader().posterior_by_id(sample[0]);
            (tier, first)
        });
        let mut recovered = tier.reader();
        let same = read == bytes
            && bitwise_eq(&first, &snapshot.posterior_by_id(sample[0]))
            && sample
                .iter()
                .all(|&o| bitwise_eq(&recovered.posterior_by_id(o), &snapshot.posterior_by_id(o)));
        gate.check(
            same,
            "recovered posteriors equal the checkpointed snapshot bit for bit",
        );
        snapshot_bytes = bytes.len();
    }
    let _ = std::fs::remove_dir_all(dir.path());
    let accuracy = served_accuracy(inputs, &snapshot);
    gate.check(accuracy >= MIN_ACCURACY, "the served snapshot is accurate");

    let med = |name: &str| median(&t.durations_ms(name));
    let iterations = t.counts("core.em.iterations");
    let converged = t.counts("core.em.converged");
    let em_fit_ms: Vec<f64> = t.durations_ms("core.em.fit");
    let iter_ms: Vec<f64> = em_fit_ms
        .iter()
        .zip(&iterations)
        .map(|(ms, &n)| ms / n as f64)
        .collect();
    let per_read_ns = |name: &str| med(name) * 1e6 / TRACE_READ_BLOCK as f64;
    let metrics = vec![
        (
            "data.ingest.csv_build_ms",
            med("data.ingest.csv_build"),
            "ms",
        ),
        ("core.optimizer.plan_ms", med("core.optimizer.plan"), "ms"),
        ("core.compile.compile_ms", med("core.compile.compile"), "ms"),
        ("core.em.fit_ms", median(&em_fit_ms), "ms"),
        ("core.em.iter_ms", median(&iter_ms), "ms"),
        ("core.em.iterations", iterations[0] as f64, "count"),
        ("core.em.converged", converged[0] as f64, "count"),
        ("core.model.predict_ms", med("core.model.predict"), "ms"),
        ("core.serve.append_ms", med("core.serve.append"), "ms"),
        ("core.serve.publish_ms", med("core.serve.publish"), "ms"),
        (
            "data.dataset.bytes_per_claim",
            dataset_bytes_per_claim,
            "B/claim",
        ),
        ("data.snapshot.encode_ms", med("data.snapshot.encode"), "ms"),
        ("data.snapshot.write_ms", med("data.snapshot.write"), "ms"),
        (
            "data.snapshot.bytes_per_claim",
            snapshot_bytes as f64 / snapshot.dataset().num_observations() as f64,
            "B/claim",
        ),
        ("data.snapshot.read_ms", med("data.snapshot.read"), "ms"),
        ("data.snapshot.decode_ms", med("data.snapshot.decode"), "ms"),
        (
            "core.serve.cold_start_ms",
            med("core.serve.cold_start"),
            "ms",
        ),
        (
            "core.serve.reader_read_ns",
            per_read_ns("core.serve.reader_read"),
            "ns",
        ),
        (
            "core.model.snapshot_read_ns",
            per_read_ns("core.model.snapshot_read"),
            "ns",
        ),
        ("bench.trace_overhead_pct", overhead_pct, "%"),
    ];
    Report {
        metrics,
        attempted: gate.attempted,
        failed: gate.failed,
    }
}
