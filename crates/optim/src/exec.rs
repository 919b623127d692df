//! Deterministic multi-threading primitives shared by the training stack.
//!
//! Every parallel region runs on `std::thread::scope` lanes — no external dependencies,
//! no `unsafe` — and is designed around one invariant: **results are
//! bitwise-identical at any thread count**. Work is partitioned into a fixed chunk grid
//! that does not depend on how many threads execute it, every chunk's computation and
//! output slot depend only on the chunk index, and all floating-point reductions happen
//! on the caller's thread in chunk-index order. Lanes claim chunk indices from a shared
//! atomic counter, so which lane runs a chunk varies from run to run; threads only ever
//! change *wall-clock time*, never *answers*.
//!
//! The thread count is resolved from the `SLIMFAST_THREADS` environment variable
//! (falling back to [`std::thread::available_parallelism`]); callers can override it
//! explicitly, which is what the determinism tests do to compare one- and four-thread
//! runs inside a single process.
//!
//! # Lanes versus threads
//!
//! A *requested* thread count is a logical knob; the number of lanes a region actually
//! runs on is clamped by [`max_lanes`] (the machine's available parallelism). Running
//! more lanes than cores can only add context-switch cost — it can never change
//! results, because the chunk grid is fixed — so the executor refuses to do it. On a
//! single-core machine `SLIMFAST_THREADS=4` therefore costs exactly nothing over
//! `SLIMFAST_THREADS=1`. A region with `n` lanes runs on the caller plus `n - 1` scoped
//! threads spawned for that region and joined before it returns. Small inputs run
//! inline on the caller so tiny fits never pay a spawn: [`for_each_slice_mut`] inlines
//! buffers under [`INLINE_MIN_ITEMS`] items. [`map_parts`] parts are coarse by nature
//! (whole fits, eval-grid cells), so one part per lane already amortizes the spawn and
//! no extra guard applies.
//!
//! # Nesting and panics
//!
//! Every lane of a region, the caller included, is marked as an executor worker while
//! it runs tasks, and auto-resolved thread counts collapse to 1 there: an eval-grid
//! cell's fit runs its E-step inline instead of spawning lanes of its own. A panic in
//! any task is caught on its lane, the other lanes finish, and the first payload is
//! re-raised on the caller once every lane has joined.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Name of the environment variable controlling the default worker count.
pub const THREADS_ENV: &str = "SLIMFAST_THREADS";

/// Below this many underlying items (claims, posterior slots, …) a parallel region runs
/// inline on the caller's thread regardless of the requested thread count: the work is
/// too small to amortize even one scoped thread spawn. Callers that know their item
/// count (not just their chunk count) apply it — e.g. the sharded E-step.
pub const INLINE_MIN_ITEMS: usize = 4096;

thread_local! {
    /// Set while the current thread is executing tasks of a parallel region — a
    /// spawned lane or the caller lane. Auto-resolved thread counts collapse to 1
    /// inside, so nested parallel regions (an eval-grid worker running a fit whose
    /// E-step would otherwise request its own lanes) run inline instead of
    /// oversubscribing the machine quadratically. Purely a scheduling concern: results
    /// never depend on thread counts.
    static IN_EXECUTOR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the current thread marked as an executor worker (restoring the
/// previous state afterwards).
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    IN_EXECUTOR_WORKER.with(|flag| {
        let previous = flag.replace(true);
        let result = f();
        flag.set(previous);
        result
    })
}

/// Runs `task(i)` for every `i` in `0..num_tasks` on `lanes` lanes: the caller plus
/// `lanes - 1` scoped threads, each claiming the next index from a shared counter until
/// the grid is exhausted. Every lane runs as an executor worker. A panicking task stops
/// its own lane; the first payload is re-raised here after all lanes joined, so the
/// caller sees the task's own message rather than a generic scope panic.
fn run_lanes(num_tasks: usize, lanes: usize, task: impl Fn(usize) + Sync) {
    // `Relaxed` suffices: the counter only hands out indices, and the scope's join
    // orders every task's writes before the caller reads them.
    let next = AtomicUsize::new(0);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let lane = || {
        let drained = as_worker(|| {
            panic::catch_unwind(AssertUnwindSafe(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= num_tasks {
                    break;
                }
                task(i);
            }))
        });
        if let Err(payload) = drained {
            first_panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..lanes {
            scope.spawn(lane);
        }
        lane();
    });
    let payload = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Resolves a requested thread count: `0` means "auto" — read [`THREADS_ENV`], then
/// fall back to the machine's available parallelism. Always returns at least 1.
/// Auto-resolution inside an executor worker returns 1 (see the nesting guard above);
/// explicit non-zero requests are always honored.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if IN_EXECUTOR_WORKER.with(Cell::get) {
        return 1;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_parallelism()
}

/// The default thread count of this process (the `SLIMFAST_THREADS` /
/// available-parallelism resolution with no explicit override).
pub fn num_threads() -> usize {
    resolve_threads(0)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The machine's available parallelism (cached): the hard ceiling on how many OS lanes
/// any parallel region will actually run, whatever thread count was requested. The
/// fixed chunk grid makes the clamp invisible in results; it only removes the
/// context-switch cost of oversubscription.
pub fn max_lanes() -> usize {
    static MAX_LANES: OnceLock<usize> = OnceLock::new();
    *MAX_LANES.get_or_init(available_parallelism)
}

/// The number of execution lanes a region with `num_tasks` chunks uses when `threads`
/// logical workers were requested: at least 1, at most the task count, at most
/// [`max_lanes`].
pub fn execution_lanes(threads: usize, num_tasks: usize) -> usize {
    threads.max(1).min(num_tasks.max(1)).min(max_lanes())
}

/// Runs `f(part)` for every part index in `0..num_parts` on up to `threads` workers and
/// returns the results **in part order**.
///
/// The part grid is fixed by the caller, each part's result lands in its own slot, and
/// the slots are collected in part order — so results are independent of the lane
/// count and of which lane claimed which part. Parts are assumed coarse (the callers
/// fan out whole fits and eval-grid cells), so any multi-part grid with more than one
/// effective lane spawns its lanes; single-lane (or single-part) requests run inline
/// on the caller's thread.
pub fn map_parts<R, F>(num_parts: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let lanes = execution_lanes(threads, num_parts);
    if lanes <= 1 {
        return (0..num_parts).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..num_parts).map(|_| Mutex::new(None)).collect();
    run_lanes(num_parts, lanes, |part| {
        *slots[part].lock().expect("part slot") = Some(f(part));
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("part slot")
                .expect("every part produces a result")
        })
        .collect()
}

/// Splits `data` into consecutive mutable slices at the given boundaries (a cumulative
/// offset array of length `parts + 1`, like a CSR offset vector) and runs
/// `f(part, slice)` for each on up to `threads` workers.
///
/// Writes are disjoint by construction, so the result is deterministic regardless of
/// scheduling. Used to shard E-step posterior computation over object ranges. Buffers
/// below [`INLINE_MIN_ITEMS`] items run inline on the caller's thread: under that size
/// a thread spawn costs more than the scan.
pub fn for_each_slice_mut<T, F>(data: &mut [T], boundaries: &[usize], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let num_parts = boundaries.len().saturating_sub(1);
    if num_parts == 0 {
        return;
    }
    debug_assert_eq!(boundaries[0], 0);
    debug_assert_eq!(
        *boundaries.last().expect("non-empty boundaries"),
        data.len()
    );
    let lanes = execution_lanes(threads, num_parts);
    if lanes <= 1 || data.len() < INLINE_MIN_ITEMS {
        let mut rest = data;
        for part in 0..num_parts {
            let len = boundaries[part + 1] - boundaries[part];
            let (head, tail) = rest.split_at_mut(len);
            f(part, head);
            rest = tail;
        }
        return;
    }
    // Carve the buffer into per-part mutable slices up front; each task takes exactly
    // its own slice, so writes stay disjoint under dynamic scheduling.
    let mut parts: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(num_parts);
    let mut rest = data;
    for part in 0..num_parts {
        let len = boundaries[part + 1] - boundaries[part];
        let (head, tail) = rest.split_at_mut(len);
        parts.push(Mutex::new(Some(head)));
        rest = tail;
    }
    run_lanes(num_parts, lanes, |part| {
        let slice = parts[part]
            .lock()
            .expect("part slice")
            .take()
            .expect("each part is claimed once");
        f(part, slice);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_parts_preserves_order_at_any_thread_count() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = map_parts(37, threads, |i| i * i);
            assert_eq!(got, expect, "threads = {threads}");
        }
        assert!(map_parts(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_parts_float_reduction_is_bitwise_stable() {
        // Sum within parts, reduce in part order: the float result must not depend on
        // the worker count.
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let sum_with = |threads: usize| -> f64 {
            let chunk = 128;
            let parts = data.len().div_ceil(chunk);
            map_parts(parts, threads, |p| {
                data[p * chunk..((p + 1) * chunk).min(data.len())]
                    .iter()
                    .sum::<f64>()
            })
            .into_iter()
            .sum()
        };
        let reference = sum_with(1);
        for threads in [2, 3, 4, 7] {
            assert_eq!(reference.to_bits(), sum_with(threads).to_bits());
        }
    }

    #[test]
    fn for_each_slice_mut_writes_disjoint_ranges() {
        let boundaries = [0usize, 3, 3, 10, 16];
        for threads in [1, 2, 4] {
            let mut data = vec![0usize; 16];
            for_each_slice_mut(&mut data, &boundaries, threads, |part, slice| {
                for v in slice.iter_mut() {
                    *v = part + 1;
                }
            });
            let expect: Vec<usize> = (0..16)
                .map(|i| match i {
                    0..=2 => 1,
                    3..=9 => 3,
                    _ => 4,
                })
                .collect();
            assert_eq!(data, expect, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_slice_mut_parallel_path_matches_inline() {
        // Large enough to clear INLINE_MIN_ITEMS so multi-lane machines spawn lanes;
        // the results must match the inline computation exactly.
        let n = 2 * INLINE_MIN_ITEMS;
        let boundaries: Vec<usize> = (0..=64).map(|p| p * n / 64).collect();
        let run = |threads: usize| {
            let mut data = vec![0.0f64; n];
            for_each_slice_mut(&mut data, &boundaries, threads, |part, slice| {
                for (i, v) in slice.iter_mut().enumerate() {
                    *v = (part * 31 + i) as f64 * 0.5;
                }
            });
            data
        };
        let reference = run(1);
        for threads in [2, 4, 16] {
            assert_eq!(reference, run(threads), "threads = {threads}");
        }
    }

    #[test]
    fn a_region_nested_inside_map_parts_runs_on_one_thread() {
        let nested_inline = map_parts(8, 4, |_| {
            let lane = std::thread::current().id();
            let inner = map_parts(16, 0, |_| std::thread::current().id());
            inner.iter().all(|&id| id == lane) && execution_lanes(resolve_threads(0), 16) == 1
        });
        assert!(nested_inline.iter().all(|&inline| inline));
        // The caller's mark is lifted once the region returns.
        assert!(!IN_EXECUTOR_WORKER.with(Cell::get));
    }

    #[test]
    fn a_panicking_part_reraises_on_the_caller_and_the_next_region_runs() {
        for threads in [1, 4] {
            let payload = std::panic::catch_unwind(|| {
                map_parts(16, threads, |part| {
                    assert!(part != 11, "part {part} failed");
                    part
                })
            })
            .expect_err("the part's panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("part 11 failed"), "threads = {threads}");
            assert!(!IN_EXECUTOR_WORKER.with(Cell::get));
            let after = map_parts(16, threads, |part| part * 2);
            assert_eq!(after, (0..16).map(|p| p * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn exactly_execution_lanes_threads_run_the_parts() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        for threads in [1, 2, 4, 64] {
            let lanes = execution_lanes(threads, 64);
            // Each of the first `lanes` parts waits until every lane holds one of
            // them, so each lane must claim a part; no other thread can.
            let barrier = Barrier::new(lanes);
            let ids: HashSet<_> = map_parts(64, threads, |part| {
                if part < lanes {
                    barrier.wait();
                }
                std::thread::current().id()
            })
            .into_iter()
            .collect();
            assert_eq!(ids.len(), lanes, "threads = {threads}");

            let n = 4 * INLINE_MIN_ITEMS;
            let boundaries: Vec<usize> = (0..=64).map(|p| p * n / 64).collect();
            let seen = Mutex::new(HashSet::new());
            for_each_slice_mut(&mut vec![0u8; n], &boundaries, threads, |part, _| {
                if part < lanes {
                    barrier.wait();
                }
                seen.lock().unwrap().insert(std::thread::current().id());
            });
            assert_eq!(
                seen.into_inner().unwrap().len(),
                lanes,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn resolve_threads_prefers_explicit_requests() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn execution_lanes_clamp_to_grid_and_machine() {
        assert_eq!(execution_lanes(4, 1), 1);
        assert!(execution_lanes(4, 100) <= max_lanes());
        assert!(execution_lanes(0, 0) >= 1);
        assert!(max_lanes() >= 1);
    }
}
