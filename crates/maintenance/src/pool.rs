//! The persistent worker pool: long-lived parked threads with a fork/join
//! `run` API.
//!
//! [`WorkerPool`] replaces the per-region scoped spawns the parallel engine
//! started with: `new(threads)` spawns `threads - 1` workers **once** and
//! parks them on a condition variable; every subsequent fork/join region
//! ([`WorkerPool::run`]) hands the parked workers a job instead of paying
//! thread creation. The submitting thread participates as the final worker,
//! so `threads` is the true concurrency of a region, exactly as it was with
//! scoped spawns — but worker thread identities are now stable across
//! regions, which is what lets the maintenance scheduler and the query
//! engine share one standing set of cores (Alvarez et al.'s multi-core
//! design) instead of spawning per call.
//!
//! Semantics are identical to the scoped pool it replaces:
//!
//! * results are returned **in task order** regardless of which worker ran
//!   which task (workers claim task indexes from an atomic counter and write
//!   results into per-task slots);
//! * task panics propagate to the submitter after the region completes;
//! * a one-thread pool, a single task, or zero tasks run inline on the
//!   caller.
//!
//! One job occupies the pool at a time. A region submitted while another is
//! in flight — or from *inside* a pool task (a nested fork) — executes
//! entirely inline on the submitting thread instead of blocking, so the pool
//! can never deadlock on itself and every region always makes progress.
//!
//! # Safety
//!
//! Workers call the submitter's closure through a type-erased raw pointer.
//! This is sound because `run` does not return until every claimed task has
//! finished executing (`completed == tasks`), so the closure and the result
//! slots it writes into — both owned by `run`'s stack frame — strictly
//! outlive every dereference. A worker may briefly hold its `Arc<JobCore>`
//! *after* the final task completes, but by then it only drops the `Arc`;
//! the dangling closure pointer inside is never called again.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

std::thread_local! {
    /// True while the current thread is executing tasks of a pool job (as a
    /// pool worker or as a participating submitter). A `run` call issued
    /// from such a context executes inline: nested forks must not wait on
    /// the pool they are already running on.
    static INSIDE_POOL_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One fork/join region's shared state.
struct JobCore {
    /// Type-erased pointer to the submitter's task closure. Only valid
    /// until `completed == tasks`; see the module-level safety argument.
    task: *const (dyn Fn(usize) + Sync),
    /// Number of tasks in the region.
    tasks: usize,
    /// Next unclaimed task index (may grow past `tasks`; claims beyond the
    /// end mean "nothing left").
    next: AtomicUsize,
    /// Tasks that have finished executing.
    completed: AtomicUsize,
    /// First panic payload raised by a task, if any.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

// SAFETY: the closure behind `task` is `Sync` (shared by reference across
// workers) and the submitter keeps it alive for the duration of all calls;
// the remaining fields are atomics and a mutex.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

struct PoolState {
    /// The job currently occupying the pool, if any.
    job: Option<Arc<JobCore>>,
    /// Set once, when the pool is dropped.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a job (or shutdown).
    work_ready: Condvar,
    /// Submitters park here waiting for their job's completion.
    job_done: Condvar,
}

/// A fixed set of persistent worker threads with a fork/join execution API.
///
/// ```
/// use aidx_maintenance::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.run(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // the same (parked) workers serve the next region — no respawn
/// let doubled = pool.run(8, |i| i * 2);
/// assert_eq!(doubled[7], 14);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `threads` total workers (clamped to at least 1): the
    /// submitting thread plus `threads - 1` spawned, parked threads. A
    /// one-thread pool spawns nothing and runs every region inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            threads,
        }
    }

    /// The pool's total worker budget (spawned workers + the submitter).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when this pool never forks (every `run` executes inline).
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Execute `f(0) .. f(tasks - 1)` across the pool's workers and return
    /// the results in task-index order.
    ///
    /// Scheduling is dynamic (workers pull the next unclaimed index), the
    /// output is deterministic (slot `i` always holds `f(i)`). Runs inline
    /// on the calling thread when the pool is serial, the region is trivial
    /// (`tasks <= 1`), the pool is already busy with another region, or the
    /// call is a nested fork from inside a pool task.
    ///
    /// # Panics
    /// Propagates a panic from any task after the whole region has finished.
    pub fn run<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers.is_empty() || tasks <= 1 || INSIDE_POOL_TASK.with(|flag| flag.get()) {
            return (0..tasks).map(f).collect();
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks);
        slots.resize_with(tasks, || None);
        let slots_ptr = SendPtr(slots.as_mut_ptr());
        // Each task index is claimed exactly once, so the writes through the
        // raw pointer go to disjoint slots; `run` owns the Vec and outlives
        // all of them.
        let task = move |i: usize| {
            let result = f(i);
            unsafe { *slots_ptr.get().add(i) = Some(result) };
        };
        let local: *const (dyn Fn(usize) + Sync + '_) = &task;
        // SAFETY: pure lifetime erasure on a wide pointer. The closure (and
        // everything it borrows) outlives every dereference because `run`
        // blocks until `completed == tasks` — see the module-level argument.
        let erased: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(local) };
        let core = Arc::new(JobCore {
            task: erased,
            tasks,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let pool_busy = {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            if state.job.is_some() {
                true
            } else {
                state.job = Some(Arc::clone(&core));
                false
            }
        };
        if pool_busy {
            // the pool is busy with another region: execute inline rather
            // than blocking (the busy region may be arbitrarily long, and
            // waiting could stack submitters up behind it)
            for i in 0..tasks {
                task(i);
            }
            return slots
                .into_iter()
                .map(|slot| slot.expect("inline execution filled every slot"))
                .collect();
        }
        self.shared.work_ready.notify_all();
        // participate as the final worker
        execute_claims(&self.shared, &core);
        // wait until every claimed task has finished executing
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            while core.completed.load(Ordering::Acquire) < tasks {
                state = self
                    .shared
                    .job_done
                    .wait(state)
                    .expect("pool mutex poisoned");
            }
        }
        if let Some(payload) = core.panic.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task index claimed exactly once"))
            .collect()
    }
}

impl Default for WorkerPool {
    /// A serial pool (one thread, none spawned): the safe default wherever
    /// the caller has not opted into parallelism.
    fn default() -> Self {
        WorkerPool::new(1)
    }
}

/// A raw pointer that may cross thread boundaries (the disjoint-slot writes
/// are justified at the use site).
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Send + Sync` wrapper, not the bare pointer — edition-2021 disjoint
    /// capture would otherwise capture the field and lose the marker impls.
    fn get(self) -> *mut T {
        self.0
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Claim and execute tasks of `core` until none are left, then retire the
/// job from the pool's active slot. Shared by workers and the submitter.
fn execute_claims(shared: &PoolShared, core: &Arc<JobCore>) {
    INSIDE_POOL_TASK.with(|flag| flag.set(true));
    loop {
        let i = core.next.fetch_add(1, Ordering::Relaxed);
        if i >= core.tasks {
            break;
        }
        // SAFETY: i < tasks, so the region is not complete and the closure
        // is still alive (see the module-level argument).
        let outcome = catch_unwind(AssertUnwindSafe(|| (unsafe { &*core.task })(i)));
        if let Err(payload) = outcome {
            let mut slot = core.panic.lock().expect("panic slot poisoned");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let done = core.completed.fetch_add(1, Ordering::AcqRel) + 1;
        if done == core.tasks {
            // hold the mutex across the notification so the submitter's
            // check-then-wait cannot miss it
            let _state = shared.state.lock().expect("pool mutex poisoned");
            shared.job_done.notify_all();
        }
    }
    INSIDE_POOL_TASK.with(|flag| flag.set(false));
    // claims are exhausted: retire the job so parked workers stop seeing it
    let mut state = shared.state.lock().expect("pool mutex poisoned");
    if let Some(current) = &state.job {
        if Arc::ptr_eq(current, core) {
            state.job = None;
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let core = {
            let mut state = shared.state.lock().expect("pool mutex poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(core) = state.job.clone() {
                    break core;
                }
                state = shared.work_ready.wait(state).expect("pool mutex poisoned");
            }
        };
        execute_claims(shared, &core);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    #[test]
    fn results_are_in_task_order_at_any_parallelism() {
        for threads in [1, 2, 3, 4, 8] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(37, |i| i as u64 * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once_across_many_regions() {
        let pool = WorkerPool::new(4);
        for _ in 0..50 {
            let counter = AtomicU64::new(0);
            let out = pool.run(200, |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(counter.load(Ordering::Relaxed), 200);
            assert!(out.iter().enumerate().all(|(i, &v)| i == v));
        }
    }

    #[test]
    fn workers_are_persistent_across_fork_join_regions() {
        let pool = WorkerPool::new(4);
        let observe = |pool: &WorkerPool| -> HashSet<ThreadId> {
            let ids = Mutex::new(HashSet::new());
            pool.run(64, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                // give other workers a chance to claim tasks too
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
            ids.into_inner().unwrap()
        };
        let first = observe(&pool);
        for _ in 0..5 {
            let again = observe(&pool);
            assert!(
                again.is_subset(&first),
                "later regions must reuse the original threads: {again:?} vs {first:?}"
            );
        }
    }

    #[test]
    fn serial_and_trivial_regions_run_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.is_serial());
        assert!(pool.workers.is_empty(), "no threads for a serial pool");
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
        let pool = WorkerPool::new(8);
        let caller = std::thread::current().id();
        let ran_on = pool.run(1, |_| std::thread::current().id());
        assert_eq!(ran_on, vec![caller], "single task runs inline");
        assert!(pool.run(0, |i| i).is_empty());
        assert_eq!(WorkerPool::new(0).threads(), 1, "clamped to 1");
    }

    #[test]
    fn pool_metadata() {
        assert!(!WorkerPool::new(2).is_serial());
        let serial = WorkerPool::default();
        assert_eq!(serial.threads(), 1);
        assert!(serial.workers.is_empty(), "the default pool spawns nothing");
    }

    #[test]
    fn nested_forks_run_inline_instead_of_deadlocking() {
        let pool = WorkerPool::new(4);
        let out = pool.run(8, |i| {
            // a nested region from inside a pool task must not wait on the
            // pool that is executing it
            let inner: usize = pool.run(4, |j| j).into_iter().sum();
            i * 100 + inner
        });
        assert_eq!(out, (0..8).map(|i| i * 100 + 6).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let pool = Arc::new(WorkerPool::new(4));
        let mut handles = Vec::new();
        for t in 0..8 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let out = pool.run(100, |i| i + t);
                assert_eq!(out.len(), 100);
                assert!(out.iter().enumerate().all(|(i, &v)| v == i + t));
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn worker_panics_propagate_and_the_pool_survives() {
        let pool = WorkerPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 11 {
                    panic!("task failure");
                }
                i
            })
        }));
        assert!(result.is_err());
        // the persistent workers are still alive and serving regions
        let out = pool.run(16, |i| i * 2);
        assert_eq!(out[15], 30);
    }

    #[test]
    fn uneven_task_durations_still_merge_deterministically() {
        let pool = WorkerPool::new(4);
        let out = pool.run(64, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<usize>>());
    }
}
