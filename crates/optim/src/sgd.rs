//! A small stochastic-gradient-descent engine over user-supplied objectives.
//!
//! The engine mirrors what the paper gets from DeepDive's DimmWitted sampler: plain SGD
//! with optional AdaGrad scaling, lazy `L2` gradients on touched coordinates, and a
//! proximal (soft-thresholding) step for `L1`.

use std::cell::RefCell;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::exec;
use crate::penalty::Penalty;
use crate::schedule::LearningRate;
use crate::sparse::SparseVec;

/// A differentiable objective expressed as a finite sum of per-example losses.
///
/// Objectives must be `Sync`: the batched minimizer shards gradient accumulation over
/// disjoint example ranges on several threads (see [`SgdConfig::batch_size`]).
pub trait StochasticObjective: Sync {
    /// Dimension of the parameter vector.
    fn num_params(&self) -> usize;

    /// Number of examples in the finite sum.
    fn num_examples(&self) -> usize;

    /// Computes the loss of example `example` at `w` and accumulates its (sparse) gradient
    /// into `grad`. `grad` is cleared by the caller before each invocation.
    fn example_loss_grad(&self, w: &[f64], example: usize, grad: &mut SparseVec) -> f64;

    /// Computes the summed loss of the listed `examples` at `w` and appends their sparse
    /// gradient entries to `entries` in example order (duplicate coordinates allowed —
    /// the batch reducer merges them deterministically, in push order).
    ///
    /// This is the unit of work the batched minimizer hands to a worker lane. The
    /// default implementation loops [`example_loss_grad`](Self::example_loss_grad) over
    /// a thread-local scratch vector, which reproduces the historical per-example chunk
    /// behaviour bit for bit. Objectives with a flat structure-of-arrays layout override
    /// it to batch the math through [`crate::kernels`].
    fn chunk_loss_grad(
        &self,
        w: &[f64],
        examples: &[usize],
        entries: &mut Vec<(usize, f64)>,
    ) -> f64 {
        let mut grad = GRAD_SCRATCH.with(RefCell::take);
        let mut loss = 0.0;
        for &example in examples {
            grad.clear();
            loss += self.example_loss_grad(w, example, &mut grad);
            entries.extend(grad.iter());
        }
        GRAD_SCRATCH.with(|cell| cell.replace(grad));
        loss
    }
}

/// Configuration of an SGD run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Maximum number of passes over the data.
    pub epochs: usize,
    /// Step-size schedule (ignored for the data-dependent part when `adagrad` is on).
    pub learning_rate: LearningRate,
    /// Regularization penalty.
    pub penalty: Penalty,
    /// Whether to shuffle the example order every epoch.
    pub shuffle: bool,
    /// Seed controlling the shuffle order (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Relative tolerance on the epoch-average objective used to declare convergence.
    pub tolerance: f64,
    /// Use AdaGrad per-coordinate step sizes instead of the global schedule.
    pub adagrad: bool,
    /// Examples per parameter update. `0` (the default) **auto-tunes** the batch size
    /// from the objective's example count via [`auto_batch_size`]; a fixed value stays
    /// available as an explicit override. `1` is classic per-example SGD.
    /// Larger batches switch to the deterministic parallel minimizer: each batch's
    /// gradient is accumulated over fixed-size example chunks that can run on several
    /// threads, reduced in chunk order so the result is bitwise-identical at any thread
    /// count. Batching only engages when the objective has at least `4 * batch_size`
    /// examples — below that, per-example updates converge faster and parallelism has
    /// nothing to amortize. One batch parallelizes over at most
    /// `batch_size / 32` workers (the fixed chunk grid), so raise the batch size on
    /// many-core machines. With `adagrad` off, batched updates apply the *mean* batch
    /// gradient so step magnitudes stay comparable to the per-example path.
    pub batch_size: usize,
    /// Worker threads for the batched path. `0` resolves `SLIMFAST_THREADS` /
    /// available parallelism (see [`crate::exec::resolve_threads`]). The thread count
    /// never changes results, only wall-clock time; the lanes actually run are capped
    /// at the machine's parallelism ([`crate::exec::max_lanes`]).
    pub threads: usize,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            epochs: 50,
            learning_rate: LearningRate::default(),
            penalty: Penalty::default(),
            shuffle: true,
            seed: 0,
            tolerance: 1e-5,
            adagrad: true,
            batch_size: 0,
            threads: 0,
        }
    }
}

impl SgdConfig {
    /// Convenience constructor fixing the number of epochs.
    pub fn with_epochs(epochs: usize) -> Self {
        Self {
            epochs,
            ..Self::default()
        }
    }

    /// Returns a copy with the given penalty.
    pub fn penalty(mut self, penalty: Penalty) -> Self {
        self.penalty = penalty;
        self
    }

    /// Returns a copy with the given seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The batch size this configuration uses on an objective with `num_examples`
    /// examples: the explicit [`SgdConfig::batch_size`] when non-zero, otherwise
    /// [`auto_batch_size`]. Depends only on the configuration and the example count —
    /// never on thread counts — so resolved runs stay bitwise-deterministic.
    pub fn resolved_batch_size(&self, num_examples: usize) -> usize {
        match self.batch_size {
            0 => auto_batch_size(num_examples),
            explicit => explicit,
        }
    }
}

/// Examples below which [`auto_batch_size`] keeps classic per-example SGD: small
/// objectives converge faster with per-example updates and have nothing to amortize
/// across threads.
pub const AUTO_BATCH_MIN_EXAMPLES: usize = 1024;

/// The batch size used when [`SgdConfig::batch_size`] is `0` ("auto").
///
/// Tuned from the objective's example count **alone** — never from the thread count or
/// the machine — so a fitted model stays bitwise-identical across `SLIMFAST_THREADS`
/// settings. Objectives under [`AUTO_BATCH_MIN_EXAMPLES`] examples use per-example SGD;
/// larger ones get `num_examples / 256` examples per batch, clamped to `[64, 2048]` and
/// rounded down to a whole number of 32-example gradient chunks (the fixed chunk grid
/// of the batched minimizer). The paper's
/// "millions of claims" regime therefore lands at the 2048 cap — 64 chunks per batch,
/// enough grid for a many-core machine — while a 5k-claim fit gets 64-example batches
/// whose two-chunk grids run inline on the caller.
pub fn auto_batch_size(num_examples: usize) -> usize {
    if num_examples < AUTO_BATCH_MIN_EXAMPLES {
        return 1;
    }
    let raw = (num_examples / 256).clamp(GRAD_CHUNK * 2, 2048);
    (raw / GRAD_CHUNK) * GRAD_CHUNK
}

/// The result of an SGD run.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// The final parameter vector.
    pub weights: Vec<f64>,
    /// Epoch-average objective values (data loss plus penalty), one per completed epoch.
    pub loss_history: Vec<f64>,
    /// Whether the tolerance-based stopping criterion fired before `epochs` was exhausted.
    pub converged: bool,
    /// Number of epochs actually executed.
    pub epochs_run: usize,
}

impl FitResult {
    /// The final epoch-average objective value, if any epoch ran.
    pub fn final_loss(&self) -> Option<f64> {
        self.loss_history.last().copied()
    }
}

/// Minimizes a stochastic objective with (proximal) SGD.
///
/// `init` provides warm-start weights; when `None`, optimization starts from zero.
pub fn minimize<O: StochasticObjective>(
    objective: &O,
    init: Option<Vec<f64>>,
    config: &SgdConfig,
) -> FitResult {
    let n_params = objective.num_params();
    let n_examples = objective.num_examples();
    let mut weights = match init {
        Some(mut w) => {
            w.resize(n_params, 0.0);
            w
        }
        None => vec![0.0; n_params],
    };
    if n_examples == 0 || n_params == 0 {
        return FitResult {
            weights,
            loss_history: Vec::new(),
            converged: true,
            epochs_run: 0,
        };
    }
    let batch_size = config.resolved_batch_size(n_examples);
    if batch_size > 1 && n_examples >= batch_size.saturating_mul(4) {
        return minimize_batched(objective, weights, config, batch_size);
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..n_examples).collect();
    let mut adagrad_acc = vec![0.0f64; n_params];
    let mut loss_history: Vec<f64> = Vec::with_capacity(config.epochs);
    let mut converged = false;
    let mut updates = 0usize;
    const ADAGRAD_EPS: f64 = 1e-8;

    let mut grad = SparseVec::new();
    for epoch in 0..config.epochs {
        if config.shuffle {
            order.shuffle(&mut rng);
        }
        let mut epoch_loss = 0.0;
        for &example in &order {
            grad.clear();
            epoch_loss += objective.example_loss_grad(&weights, example, &mut grad);
            // AdaGrad provides its own per-coordinate decay, so it is paired with the
            // schedule's initial rate; plain SGD follows the schedule.
            let base_rate = if config.adagrad {
                config.learning_rate.rate(0)
            } else {
                config.learning_rate.rate(updates)
            };
            for (i, g_data) in grad.iter() {
                if i >= n_params {
                    continue;
                }
                let g = g_data + config.penalty.smooth_gradient(weights[i]);
                let step = if config.adagrad {
                    adagrad_acc[i] += g * g;
                    base_rate / (adagrad_acc[i].sqrt() + ADAGRAD_EPS)
                } else {
                    base_rate
                };
                let updated = weights[i] - step * g;
                weights[i] = config.penalty.proximal(updated, step);
            }
            updates += 1;
        }
        let avg_loss =
            epoch_loss / n_examples as f64 + config.penalty.value(&weights) / n_examples as f64;
        if let Some(&prev) = loss_history.last() {
            let denom: f64 = prev.abs().max(1.0);
            if ((prev - avg_loss) / denom).abs() < config.tolerance {
                loss_history.push(avg_loss);
                converged = true;
                return FitResult {
                    weights,
                    loss_history,
                    converged,
                    epochs_run: epoch + 1,
                };
            }
        }
        loss_history.push(avg_loss);
    }
    FitResult {
        weights,
        loss_history,
        converged,
        epochs_run: config.epochs,
    }
}

/// Examples per gradient-accumulation chunk in the batched minimizer. Fixed (never
/// derived from the thread count) so the chunk grid — and therefore every
/// floating-point reduction order — is identical no matter how many workers run.
/// Kept well below the default batch size so a default-configured batch splits into
/// several chunks and actually spreads across workers; `batch_size / GRAD_CHUNK` is the
/// parallelism ceiling of one batch, so many-core machines should raise
/// [`SgdConfig::batch_size`] accordingly. The chunk size never changes results: partial
/// entries are appended in example order and chunks are reduced in index order, so the
/// flattened accumulation sequence equals global example order for any chunk size.
const GRAD_CHUNK: usize = 32;

/// One chunk's contribution to a batch gradient: the summed loss and the raw
/// `(coordinate, value)` gradient entries in example order.
#[derive(Default)]
struct ChunkPartial {
    loss: f64,
    entries: Vec<(usize, f64)>,
}

/// Locks a chunk partial, shrugging off poison: an objective panic can poison the slot
/// mid-write, but arenas outlive fits on the freelist and every batch fully resets a
/// slot (`loss = 0`, `entries.clear()`) before reading it, so stale state is never
/// observed.
fn lock_partial(slot: &Mutex<ChunkPartial>) -> std::sync::MutexGuard<'_, ChunkPartial> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// Per-lane gradient scratch, reused across every chunk, batch, and `minimize` call
    /// that runs on this thread (pool workers live for the whole process, so in steady
    /// state chunk accumulation allocates nothing). Taken out of the cell while in use
    /// so a re-entrant objective degrades to a fresh allocation instead of a panic.
    static GRAD_SCRATCH: RefCell<SparseVec> = RefCell::new(SparseVec::new());
}

/// Process-wide freelist of chunk-partial arenas. One arena is checked out per batched
/// `minimize` call and returned on exit (including unwinds), so consecutive fits reuse
/// the same chunk buffers instead of reallocating them every time.
static FREE_SCRATCH: Mutex<Vec<Vec<Mutex<ChunkPartial>>>> = Mutex::new(Vec::new());

/// A checked-out chunk-partial arena; returns itself to [`FREE_SCRATCH`] on drop.
struct ScratchLease {
    partials: Vec<Mutex<ChunkPartial>>,
}

impl ScratchLease {
    /// Takes an arena off the freelist (or starts a fresh one) and grows it to at least
    /// `max_chunks` slots. Contents are stale from previous use; every batch fully
    /// resets the slots it touches before reading them.
    fn checkout(max_chunks: usize) -> Self {
        let mut partials = FREE_SCRATCH
            .lock()
            .expect("scratch freelist")
            .pop()
            .unwrap_or_default();
        if partials.len() < max_chunks {
            partials.resize_with(max_chunks, || Mutex::new(ChunkPartial::default()));
        }
        Self { partials }
    }
}

impl Drop for ScratchLease {
    fn drop(&mut self) {
        FREE_SCRATCH
            .lock()
            .expect("scratch freelist")
            .push(std::mem::take(&mut self.partials));
    }
}

/// Deterministic mini-batch SGD with parallel gradient accumulation.
///
/// Per epoch the example order is shuffled exactly like the sequential path (same RNG,
/// same seed), then consumed in batches of the resolved batch size. Each batch is cut
/// into fixed [`GRAD_CHUNK`]-sized chunks; lanes accumulate per-chunk loss and sparse
/// gradient entries into per-chunk slots, and the coordinator reduces the chunks **in
/// chunk-index order** into a dense gradient before applying one (AdaGrad-scaled,
/// proximally penalized) update. Because the chunk grid, the per-chunk computation, and
/// the reduction order are all independent of the worker count, results are
/// bitwise-identical at any `threads` setting.
///
/// With AdaGrad the summed batch gradient is applied directly (the accumulator is scale
/// adaptive); without it the **mean** batch gradient is used, so step magnitudes stay
/// comparable to the per-example path instead of growing with the batch size.
///
/// Batches run on the process-wide persistent [`exec::WorkerPool`] — no threads are
/// spawned per call, and parked workers are woken once per batch. Chunk grids smaller
/// than `2 × lanes` (every batch of a small fit) run inline on the caller without
/// touching the pool at all. Gradient scratch is thread-local and the chunk-partial
/// arena is checked out of a process-wide freelist, so steady-state batches allocate
/// nothing. A panic inside the objective on any lane is re-raised on the caller's
/// thread by the pool after the batch drains.
fn minimize_batched<O: StochasticObjective>(
    objective: &O,
    weights: Vec<f64>,
    config: &SgdConfig,
    batch_size: usize,
) -> FitResult {
    let n_params = objective.num_params();
    let n_examples = objective.num_examples();
    let max_chunks = batch_size.div_ceil(GRAD_CHUNK);
    let lanes = exec::execution_lanes(exec::resolve_threads(config.threads), max_chunks);
    const ADAGRAD_EPS: f64 = 1e-8;

    let mut weights = weights;
    let scratch = ScratchLease::checkout(max_chunks);
    let partials = &scratch.partials;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..n_examples).collect();
    let mut adagrad_acc = vec![0.0f64; n_params];
    let mut dense_grad = vec![0.0f64; n_params];
    let mut stamp = vec![0u64; n_params];
    let mut touched: Vec<usize> = Vec::new();
    let mut tick = 0u64;
    let mut loss_history: Vec<f64> = Vec::with_capacity(config.epochs);
    let mut converged = false;
    let mut updates = 0usize;
    let mut epochs_run = 0usize;

    'epochs: for epoch in 0..config.epochs {
        epochs_run = epoch + 1;
        if config.shuffle {
            order.shuffle(&mut rng);
        }
        let mut epoch_loss = 0.0;
        let mut start = 0usize;
        while start < n_examples {
            let end = (start + batch_size).min(n_examples);
            let num_chunks = (end - start).div_ceil(GRAD_CHUNK);
            {
                // Accumulate the chunks of this batch: chunk `c` covers the fixed
                // example window `start + c*GRAD_CHUNK ..` of the shuffled order and
                // writes only to `partials[c]`, so scheduling cannot change results.
                let weights_ref = &weights;
                let order_ref = &order;
                let run_chunk = |chunk: usize| {
                    let chunk_start = start + chunk * GRAD_CHUNK;
                    let chunk_end = (chunk_start + GRAD_CHUNK).min(end);
                    let mut partial = lock_partial(&partials[chunk]);
                    let partial = &mut *partial;
                    partial.entries.clear();
                    partial.loss = objective.chunk_loss_grad(
                        weights_ref,
                        &order_ref[chunk_start..chunk_end],
                        &mut partial.entries,
                    );
                };
                if lanes <= 1 || num_chunks < 2 * lanes {
                    for chunk in 0..num_chunks {
                        run_chunk(chunk);
                    }
                } else {
                    exec::WorkerPool::global().run(num_chunks, lanes, run_chunk);
                }
            }

            // Reduce the chunk partials in chunk order, then apply one update.
            tick += 1;
            touched.clear();
            for partial in partials.iter().take(num_chunks) {
                let partial = lock_partial(partial);
                epoch_loss += partial.loss;
                for &(i, g) in &partial.entries {
                    if i >= n_params {
                        continue;
                    }
                    if stamp[i] != tick {
                        stamp[i] = tick;
                        dense_grad[i] = 0.0;
                        touched.push(i);
                    }
                    dense_grad[i] += g;
                }
            }
            let base_rate = if config.adagrad {
                config.learning_rate.rate(0)
            } else {
                config.learning_rate.rate(updates)
            };
            // AdaGrad's accumulator is scale adaptive, so the summed batch gradient
            // is applied directly; plain schedules use the batch mean so the step
            // magnitude matches the per-example path.
            let grad_scale = if config.adagrad {
                1.0
            } else {
                1.0 / (end - start) as f64
            };
            for &i in &touched {
                let g = dense_grad[i] * grad_scale + config.penalty.smooth_gradient(weights[i]);
                let step = if config.adagrad {
                    adagrad_acc[i] += g * g;
                    base_rate / (adagrad_acc[i].sqrt() + ADAGRAD_EPS)
                } else {
                    base_rate
                };
                let updated = weights[i] - step * g;
                weights[i] = config.penalty.proximal(updated, step);
            }
            updates += 1;
            start = end;
        }

        let avg_loss =
            epoch_loss / n_examples as f64 + config.penalty.value(&weights) / n_examples as f64;
        if let Some(&prev) = loss_history.last() {
            let denom: f64 = prev.abs().max(1.0);
            if ((prev - avg_loss) / denom).abs() < config.tolerance {
                loss_history.push(avg_loss);
                converged = true;
                break 'epochs;
            }
        }
        loss_history.push(avg_loss);
    }

    FitResult {
        weights,
        loss_history,
        converged,
        epochs_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Least-squares objective `1/2 (w·x - y)^2` over a fixed design — convex, so SGD must
    /// approach the analytic optimum.
    struct LeastSquares {
        xs: Vec<SparseVec>,
        ys: Vec<f64>,
        dim: usize,
    }

    impl StochasticObjective for LeastSquares {
        fn num_params(&self) -> usize {
            self.dim
        }

        fn num_examples(&self) -> usize {
            self.xs.len()
        }

        fn example_loss_grad(&self, w: &[f64], example: usize, grad: &mut SparseVec) -> f64 {
            let x = &self.xs[example];
            let err = x.dot(w) - self.ys[example];
            for (i, v) in x.iter() {
                grad.add(i, err * v);
            }
            0.5 * err * err
        }
    }

    fn toy_regression() -> LeastSquares {
        // y = 2*x0 - 1*x1, noise free.
        let xs: Vec<SparseVec> = (0..50)
            .map(|i| {
                let a = (i % 7) as f64;
                let b = (i % 5) as f64;
                SparseVec::from_pairs([(0, a), (1, b)])
            })
            .collect();
        let ys = xs.iter().map(|x| x.dot(&[2.0, -1.0])).collect();
        LeastSquares { xs, ys, dim: 2 }
    }

    #[test]
    fn sgd_recovers_linear_coefficients() {
        let obj = toy_regression();
        let config = SgdConfig {
            epochs: 300,
            tolerance: 0.0,
            ..SgdConfig::default()
        };
        let fit = minimize(&obj, None, &config);
        assert!(
            (fit.weights[0] - 2.0).abs() < 0.05,
            "w0 = {}",
            fit.weights[0]
        );
        assert!(
            (fit.weights[1] + 1.0).abs() < 0.05,
            "w1 = {}",
            fit.weights[1]
        );
    }

    #[test]
    fn loss_history_is_roughly_decreasing() {
        let obj = toy_regression();
        let config = SgdConfig {
            epochs: 50,
            tolerance: 0.0,
            ..SgdConfig::default()
        };
        let fit = minimize(&obj, None, &config);
        let first = fit.loss_history.first().copied().unwrap();
        let last = fit.final_loss().unwrap();
        assert!(last < first, "loss should decrease ({first} -> {last})");
    }

    #[test]
    fn convergence_criterion_stops_early() {
        let obj = toy_regression();
        let config = SgdConfig {
            epochs: 10_000,
            tolerance: 1e-9,
            ..SgdConfig::default()
        };
        let fit = minimize(&obj, None, &config);
        assert!(fit.converged);
        assert!(fit.epochs_run < 10_000);
    }

    #[test]
    fn l1_penalty_zeroes_irrelevant_coordinates() {
        // y depends only on x0; x1 is pure noise-free redundancy at zero target.
        let xs: Vec<SparseVec> = (0..100)
            .map(|i| SparseVec::from_pairs([(0, (i % 10) as f64), (1, ((i * 7) % 11) as f64)]))
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.dot(&[1.0, 0.0])).collect();
        let obj = LeastSquares { xs, ys, dim: 2 };
        let strong_l1 = SgdConfig {
            epochs: 200,
            penalty: Penalty::L1(50.0),
            tolerance: 0.0,
            ..SgdConfig::default()
        };
        let fit = minimize(&obj, None, &strong_l1);
        // With a strong L1 penalty the redundant coordinate is driven to (essentially) zero,
        // while an unpenalized fit leaves it clearly non-zero.
        let unpenalized = minimize(
            &obj,
            None,
            &SgdConfig {
                epochs: 200,
                tolerance: 0.0,
                ..SgdConfig::default()
            },
        );
        assert!(
            fit.weights[1].abs() < 0.01,
            "penalized w1 = {}",
            fit.weights[1]
        );
        // Shrinkage: the penalized solution has a strictly smaller L1 norm than the
        // unpenalized one.
        let norm = |w: &[f64]| w.iter().map(|x| x.abs()).sum::<f64>();
        assert!(norm(&fit.weights) < norm(&unpenalized.weights));
    }

    #[test]
    fn runs_are_deterministic_given_a_seed() {
        let obj = toy_regression();
        let config = SgdConfig {
            epochs: 20,
            tolerance: 0.0,
            seed: 7,
            ..SgdConfig::default()
        };
        let a = minimize(&obj, None, &config);
        let b = minimize(&obj, None, &config);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.loss_history, b.loss_history);
    }

    #[test]
    fn empty_objective_is_a_noop() {
        struct Empty;
        impl StochasticObjective for Empty {
            fn num_params(&self) -> usize {
                0
            }
            fn num_examples(&self) -> usize {
                0
            }
            fn example_loss_grad(&self, _: &[f64], _: usize, _: &mut SparseVec) -> f64 {
                unreachable!()
            }
        }
        let fit = minimize(&Empty, None, &SgdConfig::default());
        assert!(fit.weights.is_empty());
        assert!(fit.converged);
    }

    fn big_regression(n: usize) -> LeastSquares {
        // y = 2*x0 - 1*x1 + 0.5*x2, noise free, n examples (enough to engage batching).
        let xs: Vec<SparseVec> = (0..n)
            .map(|i| {
                SparseVec::from_pairs([
                    (0, (i % 7) as f64),
                    (1, (i % 5) as f64),
                    (2, ((i * 3) % 11) as f64),
                ])
            })
            .collect();
        let ys = xs.iter().map(|x| x.dot(&[2.0, -1.0, 0.5])).collect();
        LeastSquares { xs, ys, dim: 3 }
    }

    #[test]
    fn batched_sgd_recovers_linear_coefficients() {
        let obj = big_regression(4096);
        let config = SgdConfig {
            epochs: 60,
            tolerance: 0.0,
            batch_size: 64,
            threads: 1,
            ..SgdConfig::default()
        };
        let fit = minimize(&obj, None, &config);
        assert!(
            (fit.weights[0] - 2.0).abs() < 0.05
                && (fit.weights[1] + 1.0).abs() < 0.05
                && (fit.weights[2] - 0.5).abs() < 0.05,
            "weights = {:?}",
            fit.weights
        );
        let first = fit.loss_history.first().copied().unwrap();
        let last = fit.final_loss().unwrap();
        assert!(
            last < first,
            "batched loss should decrease ({first} -> {last})"
        );
    }

    #[test]
    fn batched_sgd_is_bitwise_identical_at_any_thread_count() {
        let obj = big_regression(5000);
        let fit_with = |threads: usize| {
            let config = SgdConfig {
                epochs: 8,
                tolerance: 0.0,
                seed: 9,
                batch_size: 512,
                threads,
                ..SgdConfig::default()
            };
            minimize(&obj, None, &config)
        };
        let reference = fit_with(1);
        for threads in [2, 3, 4] {
            let fit = fit_with(threads);
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&reference.weights),
                bits(&fit.weights),
                "threads = {threads}"
            );
            assert_eq!(
                bits(&reference.loss_history),
                bits(&fit.loss_history),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn batched_sgd_propagates_objective_panics_instead_of_deadlocking() {
        struct Panicky;
        impl StochasticObjective for Panicky {
            fn num_params(&self) -> usize {
                2
            }
            fn num_examples(&self) -> usize {
                4096
            }
            fn example_loss_grad(&self, _: &[f64], example: usize, grad: &mut SparseVec) -> f64 {
                assert!(example != 1234, "poisoned example");
                grad.add(0, 0.1);
                0.0
            }
        }
        let config = SgdConfig {
            epochs: 1,
            batch_size: 256,
            threads: 3,
            shuffle: false,
            ..SgdConfig::default()
        };
        let result = std::panic::catch_unwind(|| minimize(&Panicky, None, &config));
        assert!(result.is_err(), "the objective panic must reach the caller");
    }

    #[test]
    fn small_objectives_fall_back_to_per_example_sgd() {
        // 50 examples < 4 * batch_size: the classic path runs, so results match the
        // batch_size = 1 configuration exactly.
        let obj = toy_regression();
        let sequential = minimize(
            &obj,
            None,
            &SgdConfig {
                epochs: 20,
                tolerance: 0.0,
                batch_size: 1,
                ..SgdConfig::default()
            },
        );
        let batched_requested = minimize(
            &obj,
            None,
            &SgdConfig {
                epochs: 20,
                tolerance: 0.0,
                batch_size: 64,
                threads: 4,
                ..SgdConfig::default()
            },
        );
        assert_eq!(sequential.weights, batched_requested.weights);
    }

    #[test]
    fn auto_batch_size_depends_only_on_the_example_count() {
        // Small objectives stay per-example; larger ones scale with n under a cap.
        assert_eq!(auto_batch_size(0), 1);
        assert_eq!(auto_batch_size(AUTO_BATCH_MIN_EXAMPLES - 1), 1);
        assert_eq!(auto_batch_size(AUTO_BATCH_MIN_EXAMPLES), 64);
        assert_eq!(auto_batch_size(200_000), 768);
        assert_eq!(auto_batch_size(10_000_000), 2048);
        // Always a whole number of gradient chunks, and always engageable (n >= 4b).
        for n in [1024usize, 5_000, 50_164, 200_119, 1 << 22] {
            let b = auto_batch_size(n);
            assert_eq!(b % GRAD_CHUNK, 0, "n = {n}");
            assert!(n >= 4 * b, "n = {n}, b = {b}");
        }
    }

    #[test]
    fn auto_batch_matches_the_equivalent_explicit_batch_bitwise() {
        let obj = big_regression(4096);
        let auto = SgdConfig {
            epochs: 6,
            tolerance: 0.0,
            seed: 3,
            batch_size: 0,
            ..SgdConfig::default()
        };
        let explicit = SgdConfig {
            batch_size: auto_batch_size(obj.num_examples()),
            ..auto
        };
        assert!(explicit.batch_size > 1, "auto must engage batching here");
        let a = minimize(&obj, None, &auto);
        let b = minimize(&obj, None, &explicit);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.loss_history, b.loss_history);
    }

    #[test]
    fn scratch_reuse_across_consecutive_batched_fits_is_bitwise_deterministic() {
        // The first call checks a fresh chunk arena out of the freelist; the second
        // reuses it. Any state leaking across fits would break this equality.
        let obj = big_regression(6000);
        let config = SgdConfig {
            epochs: 5,
            tolerance: 0.0,
            seed: 21,
            batch_size: 256,
            threads: 2,
            ..SgdConfig::default()
        };
        let a = minimize(&obj, None, &config);
        let b = minimize(&obj, None, &config);
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.weights), bits(&b.weights));
        assert_eq!(bits(&a.loss_history), bits(&b.loss_history));
    }

    #[test]
    fn warm_start_is_respected() {
        let obj = toy_regression();
        let config = SgdConfig {
            epochs: 1,
            tolerance: 0.0,
            ..SgdConfig::default()
        };
        let fit = minimize(&obj, Some(vec![2.0, -1.0]), &config);
        // Starting at the optimum, a single epoch keeps us very close to it.
        assert!((fit.weights[0] - 2.0).abs() < 0.2);
        assert!((fit.weights[1] + 1.0).abs() < 0.2);
    }
}
