//! Deterministic worker-pool execution engine for independent simulation
//! tasks.
//!
//! The simulator's parallelism used to be raw OS threads: one per cluster
//! channel and one per sweep load point (`std::thread::scope`), so a
//! placement sweep over a many-channel cluster multiplied scoped threads
//! combinatorially and a 256-channel [`run`](PoolHandle::run_vec) meant
//! 256 simultaneous spawns. This crate replaces that with a DAM-style
//! engine: simulation units become [tasks](Batch) scheduled onto a
//! **fixed-size pool** of workers, so the thread count is a configuration
//! knob (default [`default_workers`]) instead of a function of the
//! simulated topology.
//!
//! # Determinism contract
//!
//! Tasks must be **independent** (no shared mutable state, no global RNG)
//! and deterministic; the engine guarantees the rest:
//!
//! * results are collected in **submission order**, never completion
//!   order, so the assembled output is byte-identical for any worker
//!   count — including the degenerate single-worker pool, which runs
//!   every task inline on the submitting thread;
//! * when several tasks fail, the error returned is the **first failing
//!   task in submission order**, independent of scheduling;
//! * a panicking task is caught at the task boundary and surfaced as
//!   [`SimError::TaskPanicked`] — an error, never a hang, a dead worker,
//!   or a torn-down process.
//!
//! # Nesting
//!
//! A task may itself submit a batch (a sweep load point fanning out
//! per-channel tasks). The engine never blocks a thread that still has
//! runnable work of its own: while a batch is outstanding, the
//! submitting thread **helps** — it executes its own batch's queued
//! tasks — and only sleeps when every one of them is claimed by another
//! worker. Progress is therefore guaranteed at any nesting depth with
//! any pool size, and nested fan-out shares the one pool instead of
//! oversubscribing the machine.
//!
//! # Configuration
//!
//! The process-wide pool is built lazily on first use with
//! [`default_workers`] threads (the `RECNMP_WORKERS` environment
//! variable, else `std::thread::available_parallelism`). Binaries
//! pin it with [`set_global_workers`] (the `--workers N` flag) before
//! first use; tests run closures against private pools of any size via
//! [`with_pool`].
//!
//! # Examples
//!
//! ```
//! use recnmp_exec::{current, ExecPool, with_pool};
//!
//! // Submission-order collection regardless of completion order.
//! let pool = ExecPool::new(2).unwrap();
//! let results = with_pool(&pool, || {
//!     current().run_vec((0..8u64).map(|i| move || Ok(i * i)).collect())
//! })
//! .unwrap();
//! assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use recnmp_types::{ConfigError, SimError};

/// A fixed-size deterministic worker pool.
///
/// `workers == 1` is the serial reference engine: no threads are
/// spawned and every task runs inline on the submitting thread, in
/// submission order. `workers >= 2` spawns exactly `workers` OS
/// threads that live for the pool's lifetime; submitting threads
/// additionally help run their own outstanding batches, so no thread
/// ever idles while holding unfinished work.
pub struct ExecPool {
    core: Arc<PoolCore>,
    handles: Vec<JoinHandle<()>>,
}

impl ExecPool {
    /// Builds a pool of exactly `workers` workers.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `workers` is zero.
    pub fn new(workers: usize) -> Result<Self, ConfigError> {
        if workers == 0 {
            return Err(ConfigError::new("workers", "must be positive"));
        }
        let core = Arc::new(PoolCore {
            workers,
            shared: Mutex::new(Shared {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            progress: Condvar::new(),
        });
        let handles = if workers == 1 {
            Vec::new()
        } else {
            // Start-up handshake: every worker has registered its
            // thread-local pool (which allocates its TLS destructor slot)
            // before `new` returns, so no worker's one-time set-up lands
            // inside its first batch.
            let started = Arc::new(Barrier::new(workers + 1));
            let handles = (0..workers)
                .map(|i| {
                    let core = Arc::clone(&core);
                    let started = Arc::clone(&started);
                    std::thread::Builder::new()
                        .name(format!("recnmp-exec-{i}"))
                        .spawn(move || worker_loop(&core, &started))
                        .expect("spawning pool worker")
                })
                .collect();
            started.wait();
            handles
        };
        Ok(Self { core, handles })
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// OS threads this pool actually spawned: `workers` for a parallel
    /// pool, zero for the inline single-worker engine. The simulated
    /// topology (channel count, sweep points) never changes this.
    pub fn spawned_threads(&self) -> usize {
        self.handles.len()
    }

    /// A cloneable submission handle onto this pool.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            core: Arc::clone(&self.core),
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut sh = self.core.lock();
            sh.shutdown = true;
        }
        self.core.job_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("workers", &self.core.workers)
            .field("spawned_threads", &self.handles.len())
            .finish()
    }
}

/// A submission handle onto an [`ExecPool`] — what call sites obtain
/// from [`current`] and run batches through.
#[derive(Clone)]
pub struct PoolHandle {
    core: Arc<PoolCore>,
}

impl PoolHandle {
    /// The worker count of the underlying pool.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Runs every task in `batch`, filling its result slots in
    /// submission order. On return the batch's tasks are consumed and
    /// [`Batch::drain`] yields one result per task.
    ///
    /// Single-task batches and single-worker pools run inline on the
    /// calling thread; otherwise tasks are queued on the shared pool
    /// and the calling thread helps execute them until all complete.
    pub fn run_batch<T, F>(&self, batch: &mut Batch<F, T>)
    where
        F: FnOnce() -> Result<T, SimError> + Send,
        T: Send,
    {
        let n = batch.tasks.len();
        assert_eq!(
            batch.results.len(),
            n,
            "drain() the previous run's results before running again"
        );
        if n == 0 {
            return;
        }
        if self.core.workers == 1 || n == 1 {
            for i in 0..n {
                let task = take_task(&batch.tasks[i]);
                set_result(&batch.results[i], run_task(task, i));
            }
        } else {
            // The batch state lives on this stack frame; `run_batch`
            // does not return until `remaining` hits zero, i.e. until
            // every worker is done touching it (see `run_job`).
            let state = BatchState {
                tasks: batch.tasks.as_ptr(),
                results: batch.results.as_ptr(),
                remaining: AtomicUsize::new(n),
            };
            let batch_ptr = (&raw const state).cast::<()>();
            {
                let mut sh = self.core.lock();
                for index in 0..n {
                    sh.jobs.push_back(Job {
                        batch: batch_ptr,
                        index,
                        run: run_job::<F, T>,
                    });
                }
            }
            self.core.job_ready.notify_all();
            help_until_done(&self.core, batch_ptr, &state.remaining);
        }
        batch.tasks.clear();
    }

    /// Convenience wrapper: runs `tasks` through a throwaway [`Batch`]
    /// and returns the successful results in submission order, or the
    /// first failing task's error (by submission index).
    ///
    /// All tasks run to completion even when one fails, so backend
    /// state advances identically for every worker count.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] in submission order, including
    /// [`SimError::TaskPanicked`] for a task that panicked.
    pub fn run_vec<T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, SimError>
    where
        F: FnOnce() -> Result<T, SimError> + Send,
        T: Send,
    {
        let mut batch = Batch::with_capacity(tasks.len());
        for f in tasks {
            batch.push(f);
        }
        self.run_batch(&mut batch);
        batch.drain().collect()
    }
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolHandle")
            .field("workers", &self.core.workers)
            .finish()
    }
}

/// Reusable task/result storage for one batch submission.
///
/// Capacities persist across runs: push tasks, [`run`](PoolHandle::run_batch)
/// them, [`drain`](Batch::drain) the results, repeat — after the first
/// warm-up round the submit → execute → collect cycle performs no
/// allocations (guarded by `tests/alloc_steady_state.rs`).
pub struct Batch<F, T> {
    tasks: Vec<UnsafeCell<Option<F>>>,
    results: Vec<UnsafeCell<Option<Result<T, SimError>>>>,
}

impl<F, T> Batch<F, T> {
    /// An empty batch.
    pub fn new() -> Self {
        Self {
            tasks: Vec::new(),
            results: Vec::new(),
        }
    }

    /// An empty batch with room for `n` tasks.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            tasks: Vec::with_capacity(n),
            results: Vec::with_capacity(n),
        }
    }

    /// Queues one task for the next run.
    ///
    /// # Panics
    ///
    /// Panics when the previous run's results have not been drained.
    pub fn push(&mut self, task: F) {
        assert_eq!(
            self.results.len(),
            self.tasks.len(),
            "drain() the previous run's results before pushing new tasks"
        );
        self.tasks.push(UnsafeCell::new(Some(task)));
        self.results.push(UnsafeCell::new(None));
    }

    /// Pending (not yet run) tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no tasks are pending.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Yields the completed run's results in submission order,
    /// releasing the storage for reuse (capacity is retained).
    pub fn drain(&mut self) -> impl Iterator<Item = Result<T, SimError>> + '_ {
        self.results
            .drain(..)
            .map(|cell| cell.into_inner().expect("batch result missing"))
    }
}

impl<F, T> Default for Batch<F, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F, T> std::fmt::Debug for Batch<F, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batch")
            .field("tasks", &self.tasks.len())
            .field("results", &self.results.len())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Pool internals.
// ---------------------------------------------------------------------

struct PoolCore {
    workers: usize,
    shared: Mutex<Shared>,
    /// Workers sleep here when the queue is empty.
    job_ready: Condvar,
    /// Batch submitters sleep here while stolen tasks finish.
    progress: Condvar,
}

impl PoolCore {
    /// Locks the queue, surviving poisoning: the engine never panics
    /// while holding the lock (tasks run outside it, unwind-caught), so
    /// a poisoned mutex can only mean a task panicked elsewhere — the
    /// queue state itself is always consistent.
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Shared {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// One queued task: a type-erased pointer to its batch's stack-held
/// state plus the submission index it owns.
#[derive(Clone, Copy)]
struct Job {
    batch: *const (),
    index: usize,
    run: unsafe fn(*const (), usize, &PoolCore),
}

// SAFETY: the batch pointer targets a `BatchState` that the submitting
// thread keeps alive (blocking in `run_batch`) until every job of the
// batch has completed, and the queue hands each (batch, index) pair to
// exactly one thread, which is the only toucher of that index's cells.
unsafe impl Send for Job {}

/// Stack-held shared state of one in-flight parallel batch.
struct BatchState<F, T> {
    tasks: *const UnsafeCell<Option<F>>,
    results: *const UnsafeCell<Option<Result<T, SimError>>>,
    remaining: AtomicUsize,
}

fn take_task<F>(cell: &UnsafeCell<Option<F>>) -> F {
    // SAFETY: the queue yields each index to exactly one claimant, and
    // the inline path is single-threaded; no other reference exists.
    unsafe { (*cell.get()).take() }.expect("task claimed twice")
}

fn set_result<T>(cell: &UnsafeCell<Option<Result<T, SimError>>>, result: Result<T, SimError>) {
    // SAFETY: same exclusive-claim argument as `take_task`; the
    // submitter only reads the slot after observing `remaining == 0`.
    unsafe { *cell.get() = Some(result) };
}

/// Runs one task, converting a panic into [`SimError::TaskPanicked`].
fn run_task<T>(task: impl FnOnce() -> Result<T, SimError>, index: usize) -> Result<T, SimError> {
    catch_unwind(AssertUnwindSafe(task)).unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(SimError::TaskPanicked {
            task: index,
            message,
        })
    })
}

/// Executes job `index` of the batch behind `batch` and signals the
/// submitter. Monomorphized per task type; reached only through the
/// type-erased `Job::run` pointer.
unsafe fn run_job<F, T>(batch: *const (), index: usize, core: &PoolCore)
where
    F: FnOnce() -> Result<T, SimError> + Send,
    T: Send,
{
    // SAFETY: `run_batch` keeps the state alive until `remaining == 0`,
    // and this thread exclusively owns `index` (see `Job`'s Send proof).
    let state = unsafe { &*batch.cast::<BatchState<F, T>>() };
    let task = take_task(unsafe { &*state.tasks.add(index) });
    let result = run_task(task, index);
    set_result(unsafe { &*state.results.add(index) }, result);
    // Decrement under the queue lock so a submitter that checks the
    // counter under the same lock can never miss the final wakeup.
    let sh = core.lock();
    state.remaining.fetch_sub(1, Ordering::AcqRel);
    drop(sh);
    core.progress.notify_all();
}

/// The submitting thread's wait loop: run own-batch jobs while any are
/// still queued, then sleep until workers finish the stolen ones.
fn help_until_done(core: &PoolCore, batch: *const (), remaining: &AtomicUsize) {
    loop {
        let job = {
            let mut sh = core.lock();
            match sh.jobs.iter().position(|j| j.batch == batch) {
                Some(pos) => sh.jobs.remove(pos),
                None => None,
            }
        };
        if let Some(j) = job {
            // SAFETY: popping the queue entry is the exclusive claim.
            unsafe { (j.run)(j.batch, j.index, core) };
            continue;
        }
        let mut sh = core.lock();
        while remaining.load(Ordering::Acquire) != 0 {
            sh = core
                .progress
                .wait(sh)
                .unwrap_or_else(PoisonError::into_inner);
        }
        return;
    }
}

fn worker_loop(core: &Arc<PoolCore>, started: &Barrier) {
    // Nested submissions from tasks running on this worker reuse the
    // owning pool instead of falling back to the global one.
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(core)));
    started.wait();
    loop {
        let job = {
            let mut sh = core.lock();
            loop {
                if let Some(j) = sh.jobs.pop_front() {
                    break Some(j);
                }
                if sh.shutdown {
                    break None;
                }
                sh = core
                    .job_ready
                    .wait(sh)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            // SAFETY: popping the queue entry is the exclusive claim.
            Some(j) => unsafe { (j.run)(j.batch, j.index, core) },
            None => return,
        }
    }
}

// ---------------------------------------------------------------------
// Pool selection: thread-local override, then the process-wide pool.
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Option<Arc<PoolCore>>> = const { RefCell::new(None) };
}

static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
static REQUESTED_WORKERS: OnceLock<usize> = OnceLock::new();

/// The worker count the process-wide pool is built with on first use:
/// the `RECNMP_WORKERS` environment variable when set and valid, else
/// `std::thread::available_parallelism` (1 when unknown).
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("RECNMP_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the process-wide pool to `workers` workers (the `--workers N`
/// binary flag). Must be called before the global pool's first use.
///
/// # Errors
///
/// Returns a [`ConfigError`] when `workers` is zero, the global pool is
/// already running, or a different count was already requested.
pub fn set_global_workers(workers: usize) -> Result<(), ConfigError> {
    if workers == 0 {
        return Err(ConfigError::new("workers", "must be positive"));
    }
    if GLOBAL.get().is_some() {
        return Err(ConfigError::new(
            "workers",
            "the global pool is already running; set the worker count before first use",
        ));
    }
    if REQUESTED_WORKERS.set(workers).is_err()
        && *REQUESTED_WORKERS.get().expect("just set") != workers
    {
        return Err(ConfigError::new(
            "workers",
            "a different global worker count was already requested",
        ));
    }
    Ok(())
}

/// The pool the current thread submits to: the innermost [`with_pool`]
/// override or owning worker pool, else the process-wide pool (built on
/// first use with [`set_global_workers`]' count, else
/// [`default_workers`]).
pub fn current() -> PoolHandle {
    if let Some(core) = CURRENT.with(|c| c.borrow().clone()) {
        return PoolHandle { core };
    }
    GLOBAL
        .get_or_init(|| {
            let workers = REQUESTED_WORKERS
                .get()
                .copied()
                .unwrap_or_else(default_workers);
            ExecPool::new(workers).expect("positive worker count")
        })
        .handle()
}

/// Runs `f` with [`current`] resolving to `pool` on this thread — how
/// tests compare byte-identical output across worker counts in one
/// process.
pub fn with_pool<R>(pool: &ExecPool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<PoolCore>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(Arc::clone(&pool.core)))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn squares(pool: &ExecPool, n: u64) -> Vec<u64> {
        pool.handle()
            .run_vec((0..n).map(|i| move || Ok(i * i)).collect())
            .unwrap()
    }

    #[test]
    fn zero_workers_is_rejected() {
        assert!(ExecPool::new(0).is_err());
    }

    #[test]
    fn single_worker_pool_spawns_no_threads() {
        let pool = ExecPool::new(1).unwrap();
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.spawned_threads(), 0);
        assert_eq!(squares(&pool, 5), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn parallel_pool_spawns_exactly_workers_threads() {
        let pool = ExecPool::new(3).unwrap();
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.spawned_threads(), 3);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = ExecPool::new(4).unwrap();
        // Reverse-skewed busywork: late tasks finish first under any
        // parallel schedule; order must still be submission order.
        let tasks: Vec<_> = (0..64u64)
            .map(|i| {
                move || {
                    let mut acc = i;
                    for k in 0..(64 - i) * 500 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    Ok(i)
                }
            })
            .collect();
        let out = pool.handle().run_vec(tasks).unwrap();
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_agree_bytewise() {
        let one = squares(&ExecPool::new(1).unwrap(), 40);
        let two = squares(&ExecPool::new(2).unwrap(), 40);
        let eight = squares(&ExecPool::new(8).unwrap(), 40);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn panicking_task_surfaces_as_error_not_hang() {
        for workers in [1, 4] {
            let pool = ExecPool::new(workers).unwrap();
            let tasks: Vec<Box<dyn FnOnce() -> Result<u64, SimError> + Send>> = vec![
                Box::new(|| Ok(1)),
                Box::new(|| panic!("poisoned task")),
                Box::new(|| Ok(3)),
            ];
            let err = pool.handle().run_vec(tasks).unwrap_err();
            match err {
                SimError::TaskPanicked { task, message } => {
                    assert_eq!(task, 1);
                    assert!(message.contains("poisoned task"));
                }
                other => panic!("expected TaskPanicked, got {other}"),
            }
            // The pool survives the poisoned batch.
            assert_eq!(squares(&pool, 3), vec![0, 1, 4]);
        }
    }

    #[test]
    fn first_error_by_submission_index_wins() {
        let pool = ExecPool::new(4).unwrap();
        let ran = Arc::new(AtomicU64::new(0));
        let tasks: Vec<_> = (0..16u64)
            .map(|i| {
                let ran = Arc::clone(&ran);
                move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i % 2 == 1 {
                        Err(SimError::Stalled {
                            cycle: i,
                            pending: 1,
                        })
                    } else {
                        Ok(i)
                    }
                }
            })
            .collect();
        let err = pool.handle().run_vec(tasks).unwrap_err();
        assert_eq!(
            err,
            SimError::Stalled {
                cycle: 1,
                pending: 1
            }
        );
        // Every task ran to completion despite the failures.
        assert_eq!(ran.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn nested_batches_share_the_pool() {
        let pool = ExecPool::new(2).unwrap();
        let out = with_pool(&pool, || {
            current().run_vec(
                (0..6u64)
                    .map(|i| {
                        move || {
                            let inner = current()
                                .run_vec((0..4u64).map(|j| move || Ok(i * 10 + j)).collect())?;
                            Ok(inner.iter().sum::<u64>())
                        }
                    })
                    .collect(),
            )
        })
        .unwrap();
        assert_eq!(out, vec![6, 46, 86, 126, 166, 206]);
    }

    #[test]
    fn batch_storage_is_reusable() {
        let pool = ExecPool::new(2).unwrap();
        let handle = pool.handle();
        let mut batch: Batch<_, u64> = Batch::new();
        for round in 0..3u64 {
            for i in 0..8u64 {
                batch.push(move || Ok(round * 100 + i));
            }
            handle.run_batch(&mut batch);
            let got: Vec<u64> = batch.drain().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..8).map(|i| round * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = ExecPool::new(2).unwrap();
        let out: Vec<u64> = pool
            .handle()
            .run_vec(Vec::<fn() -> Result<u64, SimError>>::new())
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let two = ExecPool::new(2).unwrap();
        with_pool(&two, || {
            assert_eq!(current().workers(), 2);
            let one = ExecPool::new(1).unwrap();
            with_pool(&one, || assert_eq!(current().workers(), 1));
            assert_eq!(current().workers(), 2);
        });
    }

    #[test]
    fn set_global_workers_rejects_zero() {
        assert!(set_global_workers(0).is_err());
    }
}
