//! The process-wide persistent worker pool behind every parallel region in the
//! workspace.
//!
//! Before this pool existed, `exec::map_parts`, the sharded E-step, and the mini-batch
//! SGD lanes each spawned fresh `std::thread::scope` threads per call — a pool spawn per
//! EM iteration, per eval-grid cell, and per `minimize` call. The pool is spawned once
//! per process instead: workers park on a condvar and are woken per *job*, so the
//! steady-state cost of a parallel region is one mutex-protected publish and one
//! completion wait, not `threads - 1` OS thread spawns.
//!
//! # The job queue
//!
//! Published jobs land in a small FIFO queue instead of a single slot. Each job carries
//! its own *lane reservation* (`max_helpers`): a woken worker scans the queue front to
//! back and joins the first job that still has unclaimed tasks **and** a free helper
//! slot, so two concurrent jobs — say a background model refit and a foreground batch of
//! posterior queries — overlap on disjoint lanes instead of serializing behind one
//! publish slot.
//! Grid jobs are always driven by their submitting caller (which counts as a lane of its
//! own job and never waits on another job's lanes), so the queue cannot deadlock: every
//! job drains even if all workers are busy elsewhere.
//!
//! Two kinds of work go through the queue:
//!
//! * **Grid jobs** ([`WorkerPool::run`]) — a fixed task grid borrowed from the caller,
//!   executed by the caller plus up to `lanes - 1` helpers, completion awaited inline.
//! * **Background jobs** ([`WorkerPool::spawn`]) — an owned one-shot closure executed
//!   entirely by a pool worker; the caller gets a [`JobHandle`] to poll or join. The
//!   closure is *not* marked as an executor worker, so parallel regions inside it (e.g.
//!   the E-step of a background refit) submit their own grid jobs to this same queue
//!   and overlap with foreground work under the usual lane admission.
//!
//! # Determinism
//!
//! The pool schedules **dynamically** (workers claim task indices from a shared atomic
//! counter), which is safe precisely because of the executor contract layered above it:
//! work arrives as a *fixed task grid* whose per-task computation and output slot depend
//! only on the task index, and all floating-point reductions happen on the caller's
//! thread in task-index order after the job completes. Which lane runs a task — and how
//! many lanes exist — can therefore never change results, only wall-clock time.
//!
//! # Lifecycle
//!
//! [`WorkerPool::global`] returns the singleton. The pool grows on demand (a job asking
//! for more lanes than have ever been requested spawns the difference; background jobs
//! grow it so at least one worker exists per outstanding background job) and never
//! shrinks; workers are detached and live until process exit. Changing
//! `SLIMFAST_THREADS` between fits simply changes how many of the existing lanes the
//! next job asks for — the pool itself survives, which the lifecycle tests assert.
//!
//! # Panics
//!
//! A panic inside a task is caught on the executing lane, the job is still driven to
//! completion (remaining tasks run normally), and the first payload is re-raised on the
//! submitting caller's thread — for background jobs, on whoever calls
//! [`JobHandle::join`], while [`JobHandle::try_join`] returns the payload as a
//! [`JobPanic`] value for callers that supervise rather than propagate. Workers never
//! unwind out of their loop, so one poisoned objective cannot strand a barrier or kill
//! a lane for subsequent jobs; the pool's own bookkeeping locks ignore mutex
//! poisoning for the same reason.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::exec::as_worker;

/// Locks `mutex`, ignoring poisoning. The pool's bookkeeping mutexes are never held
/// across user code, so they cannot be left inconsistent by an unwind — but a panic
/// elsewhere on a lane must not turn every later lock of the same job into a second
/// panic. Fault-supervision callers rely on this: observing a crashed job is how
/// they *recover*, so the observation itself must be infallible.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The work a [`Job`] executes per claimed task.
enum Work {
    /// Type-erased pointer to a borrowed task closure of a grid job. A raw pointer (not
    /// a lifetime-transmuted reference) because workers may hold the `Arc<Job>` after
    /// the submitting caller returned and the closure died — a dangling *pointer* that
    /// is never dereferenced is fine, a dangling reference would not be.
    ///
    /// SAFETY contract: the pointer is only dereferenced while executing a claimed task
    /// index below `num_tasks`, every claimed task bumps `completed` after running, and
    /// the submitting caller blocks until `completed == num_tasks` before returning — so
    /// the pointee is alive for every dereference. A worker that wakes late can only
    /// observe an exhausted task counter and never touches the pointer.
    Grid(*const (dyn Fn(usize) + Sync)),
    /// An owned one-shot closure of a background job (`num_tasks == 1`); taken by the
    /// single lane that claims task 0. Owned, so no liveness contract is needed.
    Owned(Mutex<Option<Box<dyn FnOnce() + Send>>>),
}

/// One published unit of pool work: a fixed grid of `num_tasks` tasks executed by the
/// submitting caller (grid jobs) and/or any idle pool workers.
struct Job {
    work: Work,
    /// Size of the fixed task grid.
    num_tasks: usize,
    /// Next unclaimed task index (may overshoot `num_tasks`).
    next: AtomicUsize,
    /// Lane reservation: helper workers this job admits (`lanes - 1` for grid jobs,
    /// `1` for background jobs). Woken workers beyond the cap skip the job, so the
    /// requested lane count really bounds concurrent execution.
    max_helpers: usize,
    /// Helper admission counter (may overshoot `max_helpers`).
    helpers: AtomicUsize,
    /// Completed-task count. Each completion is one `AcqRel` RMW — not a lock — so the
    /// per-chunk cost of a job stays contention-free; only the final finisher takes
    /// `done` to wake waiters.
    completed: AtomicUsize,
    /// Set by the final finisher under the lock that pairs with `done_signal`.
    done: Mutex<bool>,
    /// Signalled when the last task completes.
    done_signal: Condvar,
    /// First panic payload raised inside a task, re-raised on the caller / joiner.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `Job` is shared across threads only through `Arc`; every field but the
// `Work::Grid` pointer is a thread-safe primitive, and that pointer targets a `Sync`
// closure that is only dereferenced under the liveness contract documented on `Work`.
#[allow(unsafe_code)]
unsafe impl Send for Job {}
#[allow(unsafe_code)]
unsafe impl Sync for Job {}

impl Job {
    /// Whether every task of the grid has been claimed (not necessarily completed).
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.num_tasks
    }

    /// Whether a scanning worker may still join this job: unclaimed tasks remain and
    /// the lane reservation is not saturated.
    fn admissible(&self) -> bool {
        !self.exhausted() && self.helpers.load(Ordering::Relaxed) < self.max_helpers
    }

    /// Claims and runs tasks until the grid is exhausted. Called by the submitting
    /// caller (grid jobs) and by any pool worker that picked the job up.
    fn execute(&self) {
        loop {
            let task = self.next.fetch_add(1, Ordering::Relaxed);
            if task >= self.num_tasks {
                return;
            }
            let result = match &self.work {
                Work::Grid(run) => {
                    // SAFETY: `task < num_tasks`, so the submitting caller is still
                    // blocked in `wait_done` (it needs this task's completion bump) and
                    // the closure behind the pointer is alive for the whole call — see
                    // the contract on `Work::Grid`.
                    #[allow(unsafe_code)]
                    let run = unsafe { &**run };
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(task)))
                }
                Work::Owned(slot) => {
                    let f = lock_ignore_poison(slot)
                        .take()
                        .expect("background tasks are claimed exactly once");
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                }
            };
            if let Err(payload) = result {
                lock_ignore_poison(&self.panic).get_or_insert(payload);
            }
            // `AcqRel` chains every finisher's writes into the release sequence, so the
            // final finisher — and, through the `done` mutex, the waiting caller —
            // happens-after all task effects.
            let finished = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
            if finished == self.num_tasks {
                let mut done = self.done.lock().expect("job done flag");
                *done = true;
                self.done_signal.notify_all();
            }
        }
    }

    /// Blocks until every task of the grid has completed (on whichever lane ran it).
    fn wait_done(&self) {
        let mut done = self.done.lock().expect("job done flag");
        while !*done {
            done = self.done_signal.wait(done).expect("job done flag");
        }
    }

    /// Whether every task has completed (non-blocking).
    fn is_done(&self) -> bool {
        *self.done.lock().expect("job done flag")
    }
}

/// The captured panic of a background job, returned by [`JobHandle::try_join`]
/// instead of being re-raised — the supervision half of fault-tolerant serving: a
/// crashed refit becomes a value the caller can log, count, and retry.
pub struct JobPanic {
    payload: Box<dyn std::any::Any + Send>,
}

impl JobPanic {
    /// The panic message, when the payload is the usual `&str` / `String` from
    /// `panic!`; a placeholder for exotic payloads.
    pub fn message(&self) -> &str {
        if let Some(s) = self.payload.downcast_ref::<&'static str>() {
            s
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s
        } else {
            "non-string panic payload"
        }
    }

    /// The raw panic payload, for callers that want to inspect or re-raise manually.
    pub fn into_payload(self) -> Box<dyn std::any::Any + Send> {
        self.payload
    }

    /// Re-raises the panic on the current thread (what [`JobHandle::join`] does).
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPanic")
            .field("message", &self.message())
            .finish()
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "background job panicked: {}", self.message())
    }
}

impl std::error::Error for JobPanic {}

/// A handle to a background job submitted with [`WorkerPool::spawn`].
///
/// Dropping the handle detaches the job (it still runs to completion on the pool);
/// [`JobHandle::join`] blocks until it finishes and re-raises any panic it produced,
/// while [`JobHandle::try_join`] hands the panic back as a [`JobPanic`] value so
/// supervising callers can treat a crashed job as a recoverable failure.
pub struct JobHandle {
    job: Arc<Job>,
}

impl JobHandle {
    /// Whether the background job has finished executing (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.job.is_done()
    }

    /// Blocks until the job completes. Returns `Err` with the captured panic if the
    /// job panicked, instead of re-raising it — the caller decides whether the crash
    /// is fatal. Poison-tolerant: a panic on the executing lane never turns this
    /// observation into a second panic.
    pub fn try_join(self) -> Result<(), JobPanic> {
        self.job.wait_done();
        match lock_ignore_poison(&self.job.panic).take() {
            Some(payload) => Err(JobPanic { payload }),
            None => Ok(()),
        }
    }

    /// Blocks until the job completes. Re-raises the job's panic, if it panicked.
    pub fn join(self) {
        if let Err(panic) = self.try_join() {
            panic.resume();
        }
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// Mutable pool state shared between the submitting callers and the parked workers.
struct PoolState {
    /// Bumped on every published job; workers wake when it moves past what they saw.
    epoch: u64,
    /// FIFO queue of published jobs. Grid jobs are removed by their submitting caller
    /// after the completion wait; background jobs by the worker that finishes them.
    queue: VecDeque<Arc<Job>>,
    /// Number of helper workers spawned so far (the pool only ever grows).
    workers: usize,
    /// Background jobs queued or executing; the pool keeps at least this many workers
    /// (plus one headroom lane) alive so background work can never be starved by the
    /// absence of helpers — grid jobs always have their caller, background jobs don't.
    background_active: usize,
}

/// A persistent, deterministic worker pool. See the module docs for the contract; use
/// [`WorkerPool::global`] to obtain the process-wide instance.
pub struct WorkerPool {
    state: Mutex<PoolState>,
    work_signal: Condvar,
}

/// Parked-worker loop: wait for a new job epoch, pick the first admissible job in FIFO
/// order, help drain it, rescan, park when the queue holds nothing admissible.
fn worker_loop(pool: &'static WorkerPool) {
    loop {
        let job = {
            let mut state = pool.state.lock().expect("pool state");
            loop {
                // FIFO scan with per-job admission: the first job that still has
                // unclaimed tasks and a free helper slot wins. `fetch_add` under the
                // pool lock cannot overshoot here (concurrent submitters don't bump
                // helper counts; only scanning workers do, serialized by this lock),
                // but the cap re-check keeps the invariant even if that changes.
                let picked = state.queue.iter().find_map(|job| {
                    if job.admissible()
                        && job.helpers.fetch_add(1, Ordering::Relaxed) < job.max_helpers
                    {
                        Some(Arc::clone(job))
                    } else {
                        None
                    }
                });
                if let Some(job) = picked {
                    break Some(job);
                }
                // Epoch snapshot taken before parking: a publish between the failed
                // scan and the wait bumps the epoch, so the re-check below rescans
                // instead of sleeping through the wakeup.
                let seen_epoch = state.epoch;
                state = pool.work_signal.wait(state).expect("pool state");
                if state.epoch == seen_epoch {
                    continue;
                }
            }
        };
        if let Some(job) = job {
            match &job.work {
                // Grid lanes are marked as executor workers so auto-resolved nested
                // regions inline instead of oversubscribing the machine.
                Work::Grid(_) => as_worker(|| job.execute()),
                // Background closures run unmarked: parallel regions inside them are
                // top-level work that should fan out over the pool like any caller's.
                Work::Owned(_) => {
                    job.execute();
                    let mut state = pool.state.lock().expect("pool state");
                    state.background_active -= 1;
                    if let Some(pos) = state.queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
                        state.queue.remove(pos);
                    }
                }
            }
        }
    }
}

impl WorkerPool {
    /// The process-wide pool, created (empty — workers spawn on first demand) on first
    /// use.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool {
            state: Mutex::new(PoolState {
                epoch: 0,
                queue: VecDeque::new(),
                workers: 0,
                background_active: 0,
            }),
            work_signal: Condvar::new(),
        })
    }

    /// Number of helper workers currently alive (excluding submitting callers, which
    /// always participate as a lane of their own job).
    pub fn helper_workers(&self) -> usize {
        self.state.lock().expect("pool state").workers
    }

    /// Grows the pool to `target` helper workers (never shrinks). Caller holds the lock.
    fn grow_locked(state: &mut PoolState, target: usize) {
        while state.workers < target {
            state.workers += 1;
            std::thread::Builder::new()
                .name(format!("slimfast-pool-{}", state.workers))
                .spawn(move || worker_loop(Self::global()))
                .expect("spawn pool worker");
        }
    }

    /// Publishes `job` at the back of the queue, growing the pool to `grow_to` workers
    /// and waking up to `wake` of them.
    fn publish(&'static self, job: &Arc<Job>, grow_to: usize, wake: usize) {
        let mut state = self.state.lock().expect("pool state");
        // New workers start from the pre-publish epoch so they pick this very job up.
        Self::grow_locked(&mut state, grow_to);
        state.epoch += 1;
        state.queue.push_back(Arc::clone(job));
        // Wake only as many workers as the job admits: `notify_all` would stampede
        // every lane the pool ever grew to (they would lose the admission race and
        // re-park, pure context-switch churn on the per-mini-batch hot path). A
        // notification that lands on a worker still busy elsewhere is simply lost —
        // grid jobs are drained by their caller regardless, and background jobs are
        // re-examined whenever any worker rescans the queue.
        for _ in 0..wake {
            self.work_signal.notify_one();
        }
    }

    /// Runs `f(task)` for every task in `0..num_tasks` on up to `lanes` lanes (the
    /// calling thread plus `lanes - 1` pool workers) and returns once **all** tasks have
    /// completed.
    ///
    /// `lanes` is taken literally apart from being clamped to `[1, num_tasks]`; the
    /// higher-level wrappers in [`crate::exec`] are responsible for policy (resolving
    /// `SLIMFAST_THREADS`, clamping to the machine's parallelism, and inlining small
    /// grids). With a single lane the tasks run inline on the caller without touching
    /// pool state. The first panic raised inside a task is re-raised here after the job
    /// drains.
    pub fn run<F: Fn(usize) + Sync>(&'static self, num_tasks: usize, lanes: usize, f: F) {
        if num_tasks == 0 {
            return;
        }
        let lanes = lanes.max(1).min(num_tasks);
        if lanes == 1 {
            for task in 0..num_tasks {
                f(task);
            }
            return;
        }
        // Type-erase the closure into a raw pointer, transmuting away its borrow
        // lifetime (`*const dyn ...` defaults to a `'static` pointee bound). SAFETY:
        // only the pointee's lifetime bound changes — the pointer itself is untouched —
        // and `wait_done` below does not return until every claimed task has finished
        // executing, which upholds the dereference contract on `Work::Grid`.
        let f_ptr = (&f as &(dyn Fn(usize) + Sync + '_)) as *const (dyn Fn(usize) + Sync + '_);
        #[allow(unsafe_code)]
        let run = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                f_ptr,
            )
        };
        let job = Arc::new(Job {
            work: Work::Grid(run),
            num_tasks,
            next: AtomicUsize::new(0),
            max_helpers: lanes - 1,
            helpers: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_signal: Condvar::new(),
            panic: Mutex::new(None),
        });
        self.publish(&job, lanes - 1, lanes - 1);
        // The caller is always a lane of its own job, so the job drains even if every
        // worker is busy helping someone else (concurrent submitters never deadlock,
        // they just get fewer helpers).
        as_worker(|| job.execute());
        job.wait_done();
        {
            let mut state = self.state.lock().expect("pool state");
            if let Some(pos) = state.queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
                state.queue.remove(pos);
            }
        }
        let payload = lock_ignore_poison(&job.panic).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Submits `f` as a background job: it runs to completion on a pool worker while
    /// the caller continues immediately. Returns a [`JobHandle`] to poll or join.
    ///
    /// The closure is **not** marked as an executor worker, so parallel regions inside
    /// it (a background refit's E-step, say) fan out over this same pool and overlap
    /// with foreground grid jobs under FIFO order and per-job lane admission. The pool
    /// grows so at least one worker exists per outstanding background job plus one
    /// headroom lane; a panicking closure poisons nothing — the payload is re-raised by
    /// [`JobHandle::join`], or swallowed if the handle was dropped.
    pub fn spawn(&'static self, f: impl FnOnce() + Send + 'static) -> JobHandle {
        let job = Arc::new(Job {
            work: Work::Owned(Mutex::new(Some(Box::new(f)))),
            num_tasks: 1,
            next: AtomicUsize::new(0),
            max_helpers: 1,
            helpers: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_signal: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut state = self.state.lock().expect("pool state");
            state.background_active += 1;
            let target = state.background_active + 1;
            Self::grow_locked(&mut state, target);
            state.epoch += 1;
            state.queue.push_back(Arc::clone(&job));
            self.work_signal.notify_one();
        }
        JobHandle { job }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::resolve_threads;

    /// Runs a task grid on the global pool with explicit lanes (bypassing the
    /// machine-parallelism clamp of the `exec` wrappers, so multi-worker code paths are
    /// exercised even on single-core machines) and collects the results in task order.
    fn pooled_map(num_tasks: usize, lanes: usize, f: impl Fn(usize) -> f64 + Sync) -> Vec<f64> {
        let slots: Vec<Mutex<Option<f64>>> = (0..num_tasks).map(|_| Mutex::new(None)).collect();
        WorkerPool::global().run(num_tasks, lanes, |task| {
            *slots[task].lock().unwrap() = Some(f(task));
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("task ran"))
            .collect()
    }

    #[test]
    fn pool_results_are_identical_at_any_lane_count_and_the_pool_grows_once() {
        let data: Vec<f64> = (0..8192).map(|i| (i as f64).sin()).collect();
        let chunk = 64;
        let tasks = data.len() / chunk;
        let sum_chunk = |task: usize| data[task * chunk..(task + 1) * chunk].iter().sum::<f64>();
        let reference = pooled_map(tasks, 1, sum_chunk);
        for lanes in [2, 3, 4, 4, 2] {
            let got = pooled_map(tasks, lanes, sum_chunk);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reference), bits(&got), "lanes = {lanes}");
        }
        // Reducing in task order after the job completes is bitwise-stable too.
        let total: f64 = reference.iter().sum();
        let total4: f64 = pooled_map(tasks, 4, sum_chunk).iter().sum();
        assert_eq!(total.to_bits(), total4.to_bits());
        // The pool grew to serve the largest request and never shrank.
        assert!(WorkerPool::global().helper_workers() >= 3);
    }

    #[test]
    fn nested_parallel_regions_collapse_to_one_thread_under_the_pool() {
        let observed: Vec<Mutex<usize>> = (0..8).map(|_| Mutex::new(0)).collect();
        WorkerPool::global().run(8, 4, |task| {
            // Every lane of a pool job — workers and the submitting caller alike — is
            // marked as an executor worker, so auto-resolved inner regions run inline.
            *observed[task].lock().unwrap() = resolve_threads(0);
        });
        for slot in &observed {
            assert_eq!(*slot.lock().unwrap(), 1);
        }
    }

    #[test]
    fn task_panics_propagate_and_leave_the_pool_usable() {
        let pool = WorkerPool::global();
        let result = std::panic::catch_unwind(|| {
            pool.run(64, 4, |task| {
                assert!(task != 33, "poisoned task");
            });
        });
        assert!(result.is_err(), "the task panic must reach the caller");
        // The job drained despite the panic; the next job runs normally on the same
        // workers.
        let after = pooled_map(16, 4, |task| task as f64);
        assert_eq!(after, (0..16).map(|t| t as f64).collect::<Vec<_>>());
    }

    #[test]
    fn lane_cap_bounds_participating_threads() {
        use std::collections::HashSet;
        // Grow the pool past the cap first, so extra parked workers exist to be turned
        // away by the admission counter.
        WorkerPool::global().run(16, 4, |_| {});
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        WorkerPool::global().run(64, 2, |_| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        let participants = seen.lock().unwrap().len();
        assert!(
            (1..=2).contains(&participants),
            "a 2-lane job ran on {participants} threads"
        );
    }

    #[test]
    fn single_lane_requests_run_inline() {
        // An inline run must execute every task on the caller's own thread — no job is
        // published and no worker participates. (Thread identity is the race-free way
        // to assert this: concurrent tests may legitimately grow the pool.)
        let caller = std::thread::current().id();
        let slots: Vec<Mutex<Option<f64>>> = (0..4).map(|_| Mutex::new(None)).collect();
        WorkerPool::global().run(4, 1, |task| {
            assert_eq!(std::thread::current().id(), caller);
            *slots[task].lock().unwrap() = Some(task as f64 * 2.0);
        });
        let got: Vec<f64> = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("task ran"))
            .collect();
        assert_eq!(got, vec![0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn background_jobs_run_to_completion_off_the_caller_thread() {
        use std::sync::atomic::AtomicBool;
        let ran_on = Arc::new(Mutex::new(None));
        let flag = Arc::new(AtomicBool::new(false));
        let (ran_on2, flag2) = (Arc::clone(&ran_on), Arc::clone(&flag));
        let handle = WorkerPool::global().spawn(move || {
            *ran_on2.lock().unwrap() = Some(std::thread::current().id());
            flag2.store(true, Ordering::Release);
        });
        handle.join();
        assert!(flag.load(Ordering::Acquire));
        let worker = ran_on.lock().unwrap().expect("job ran");
        assert_ne!(worker, std::thread::current().id());
    }

    #[test]
    fn background_jobs_overlap_with_foreground_grid_jobs() {
        use std::sync::atomic::AtomicUsize;
        // A slow background job must not serialize foreground grid work behind it:
        // while it sleeps, a grid job submitted afterwards completes.
        let progress = Arc::new(AtomicUsize::new(0));
        let p = Arc::clone(&progress);
        let handle = WorkerPool::global().spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            p.store(1, Ordering::Release);
        });
        let before = std::time::Instant::now();
        let got = pooled_map(32, 2, |task| task as f64);
        assert_eq!(got.len(), 32);
        assert!(
            before.elapsed() < std::time::Duration::from_millis(90),
            "grid job serialized behind the sleeping background job"
        );
        handle.join();
        assert_eq!(progress.load(Ordering::Acquire), 1);
    }

    #[test]
    fn background_panics_reach_join_and_spare_the_pool() {
        let handle = WorkerPool::global().spawn(|| panic!("background boom"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
        assert!(result.is_err(), "the background panic must reach join()");
        // The pool is intact afterwards.
        let after = pooled_map(8, 2, |task| task as f64 + 1.0);
        assert_eq!(after, (0..8).map(|t| t as f64 + 1.0).collect::<Vec<_>>());
    }

    #[test]
    fn try_join_returns_panics_as_values_with_messages() {
        let handle = WorkerPool::global().spawn(|| panic!("supervised boom {}", 7));
        let err = handle
            .try_join()
            .expect_err("the panic must surface as Err");
        assert_eq!(err.message(), "supervised boom 7");
        assert!(err.to_string().contains("supervised boom 7"));
        // A clean job joins Ok.
        let handle = WorkerPool::global().spawn(|| {});
        assert!(handle.try_join().is_ok());
        // The pool survives the supervised crash.
        let after = pooled_map(8, 2, |task| task as f64);
        assert_eq!(after, (0..8).map(|t| t as f64).collect::<Vec<_>>());
    }

    #[test]
    fn background_jobs_can_run_parallel_regions_inside() {
        // The closure is not marked as an executor worker, so an explicit inner grid
        // fans out over the pool; results stay deterministic.
        let result = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&result);
        let handle = WorkerPool::global().spawn(move || {
            let inner = pooled_map(16, 2, |task| (task * task) as f64);
            *r.lock().unwrap() = inner;
        });
        handle.join();
        let got = result.lock().unwrap().clone();
        assert_eq!(got, (0..16).map(|t| (t * t) as f64).collect::<Vec<_>>());
    }

    #[test]
    fn queued_jobs_drain_in_fifo_order_without_deadlock() {
        // Several background jobs queued at once all complete, even when they outnumber
        // the workers that existed at submit time.
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<JobHandle> = (0..6)
            .map(|_| {
                let c = Arc::clone(&counter);
                WorkerPool::global().spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for handle in handles {
            handle.join();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 6);
    }
}
