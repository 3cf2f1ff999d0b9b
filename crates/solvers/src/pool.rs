//! A persistent worker pool for the parallel row-sweep paths.
//!
//! The red-black schedules used to pay one `std::thread::scope` spawn per
//! solve — around 60 allocator calls plus thread start-up latency, which
//! dominated small-grid parallel solves. [`WorkerPool`] removes that cost:
//! worker threads are spawned **once** (lazily, on the first parallel
//! solve that needs them) and then park on a condition variable between
//! jobs. Dispatching a warm job is two mutex hand-offs and an `Arc`
//! refcount bump — **no heap allocation** — so a warm parallel solve is
//! allocation-free end to end, like the sequential path.
//!
//! # Job model
//!
//! A job is an [`Arc`] of a [`PoolJob`]: a `run(tid, scratch)` entry that
//! every participating thread executes with a distinct `tid`. The caller
//! of [`WorkerPool::run`] is thread 0 (the *leader*); pool worker `i`
//! runs as `tid = i + 1`. All cross-thread coordination inside a job
//! (phase barriers, reductions) is the job's own responsibility — the
//! pool only delivers the threads.
//!
//! # Scratch pinning
//!
//! Each worker owns a [`WorkerScratch`] that persists across jobs: the
//! substitution buffers grow to the largest engine a worker has ever
//! served and are reused verbatim afterwards, so cycling between engines
//! of different sizes performs no steady-state allocation and the pool's
//! footprint stays bounded by the largest tier it has seen
//! ([`WorkerPool::scratch_bytes`] reports it).
//!
//! # Concurrency and determinism
//!
//! Jobs are serialized: one job runs at a time, and concurrent
//! [`WorkerPool::run`] callers queue on an internal lock. A job always
//! receives exactly the `width` threads it asked for with stable `tid`s,
//! so any `tid`-based work partition (and therefore the engine's
//! bitwise thread-count determinism contract) is preserved. The global
//! pool ([`WorkerPool::global`]) is shared by every engine in the
//! process and never shuts down; locally constructed pools join their
//! workers on drop.
//!
//! A panic inside a job is caught on worker threads and re-raised on the
//! leader after the job drains, so the pool itself survives; note that a
//! panicking worker can leave the job's own barriers desynchronized.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Locks a mutex, recovering from poisoning: pool state and scratch are
/// plain reusable buffers that every job re-initializes, so a panicked
/// job must not brick the pool (the panic itself is re-raised separately).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Work executed by every thread of one [`WorkerPool::run`] dispatch.
///
/// `tid` ranges over `0..width` (0 is the dispatching caller); `scratch`
/// is the thread's pinned [`WorkerScratch`], reused across jobs.
pub trait PoolJob: Send + Sync {
    /// Runs this thread's share of the job.
    fn run(&self, tid: usize, scratch: &mut WorkerScratch);
}

/// Per-thread scratch pinned to a pool worker.
///
/// Buffers only ever grow (to the largest request seen), so warm jobs
/// never allocate and the footprint is bounded by the biggest engine the
/// thread has served.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Forward-substitution intermediates: `max_segment_len * lanes`
    /// entries for a `lanes`-wide sweep, with at least 8 lanes under
    /// red-black, whose one-lane sweeps run blocks of 8 segments as lanes.
    pub f: Vec<f64>,
    /// Per-lane active flags (batched sweeps).
    pub active: Vec<bool>,
    /// Per-lane max-|update| accumulators (batched sweeps).
    pub delta: Vec<f64>,
}

impl WorkerScratch {
    /// Grows the buffers to serve `f_len` substitution slots and `lanes`
    /// batch lanes (no-op — and allocation-free — when already large
    /// enough).
    pub fn ensure(&mut self, f_len: usize, lanes: usize) {
        if self.f.len() < f_len {
            self.f.resize(f_len, 0.0);
        }
        if self.active.len() < lanes {
            self.active.resize(lanes, false);
        }
        if self.delta.len() < lanes {
            self.delta.resize(lanes, 0.0);
        }
    }

    /// Estimated heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.f.capacity() * size_of::<f64>()
            + self.active.capacity()
            + self.delta.capacity() * size_of::<f64>()
    }
}

/// Coordination state shared with the worker threads.
struct PoolState {
    /// Bumped once per dispatched job; workers pick up a job when the
    /// epoch moves past the last one they served.
    epoch: u64,
    /// Threads (including the leader) participating in the current job.
    width: usize,
    /// Workers still running the current job.
    remaining: usize,
    /// Workers whose `run` panicked during the current job.
    panicked: usize,
    /// The current job (present while `remaining > 0`).
    job: Option<Arc<dyn PoolJob>>,
    /// Set on drop: workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The leader waits here for `remaining == 0`.
    done: Condvar,
}

struct WorkerHandle {
    scratch: Arc<Mutex<WorkerScratch>>,
    handle: JoinHandle<()>,
}

/// A persistent pool of parked worker threads (see the [module
/// docs](self)).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<WorkerHandle>>,
    /// Serializes jobs and owns the leader's (tid 0) pinned scratch.
    lead: Mutex<WorkerScratch>,
    /// Jobs dispatched so far (telemetry for tests/benches).
    jobs: AtomicUsize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// An empty pool; workers are spawned lazily by [`WorkerPool::run`].
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    width: 0,
                    remaining: 0,
                    panicked: 0,
                    job: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
            lead: Mutex::new(WorkerScratch::default()),
            jobs: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool shared by every engine. Never shuts down;
    /// its workers park between solves.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    /// Runs `job` on `width` threads (the caller is tid 0; `width - 1`
    /// pool workers join it) and blocks until every thread finished.
    /// Spawns missing workers on first use; a warm dispatch performs no
    /// heap allocation. Jobs serialize: concurrent callers queue.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic on the caller) any panic a worker thread hit
    /// inside `job.run`, after all threads drained.
    pub fn run(&self, width: usize, job: Arc<dyn PoolJob>) {
        assert!(width >= 1, "a job needs at least the leader thread");
        let mut lead_scratch = lock_recover(&self.lead);
        self.ensure_workers(width - 1);
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if width > 1 {
            let mut st = lock_recover(&self.shared.state);
            st.epoch = st.epoch.wrapping_add(1);
            st.width = width;
            st.remaining = width - 1;
            st.panicked = 0;
            st.job = Some(job.clone());
            drop(st);
            self.shared.work.notify_all();
        }
        let leader_ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job.run(0, &mut lead_scratch);
        }));
        let worker_panics = if width > 1 {
            let mut st = lock_recover(&self.shared.state);
            while st.remaining > 0 {
                st = self
                    .shared
                    .done
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            st.panicked
        } else {
            0
        };
        if let Err(payload) = leader_ok {
            std::panic::resume_unwind(payload);
        }
        assert!(
            worker_panics == 0,
            "{worker_panics} pool worker(s) panicked during a parallel solve"
        );
    }

    /// Worker threads spawned so far.
    pub fn workers_spawned(&self) -> usize {
        lock_recover(&self.workers).len()
    }

    /// Jobs dispatched so far.
    pub fn jobs_dispatched(&self) -> usize {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Total bytes pinned in worker (and leader) scratch buffers. Only
    /// meaningful while no job is running (it locks each scratch).
    pub fn scratch_bytes(&self) -> usize {
        // Take the leader scratch first and release it before touching
        // the worker list: `run` locks `lead` then `workers`, so holding
        // them in the opposite order here could deadlock against a
        // concurrent dispatch.
        let lead_bytes = lock_recover(&self.lead).memory_bytes();
        let workers = lock_recover(&self.workers);
        let worker_bytes: usize = workers
            .iter()
            .map(|w| lock_recover(&w.scratch).memory_bytes())
            .sum();
        lead_bytes + worker_bytes
    }

    fn ensure_workers(&self, n: usize) {
        let mut workers = lock_recover(&self.workers);
        while workers.len() < n {
            let index = workers.len();
            let scratch = Arc::new(Mutex::new(WorkerScratch::default()));
            let shared = Arc::clone(&self.shared);
            let worker_scratch = Arc::clone(&scratch);
            let handle = std::thread::Builder::new()
                .name(format!("voltprop-pool-{index}"))
                .spawn(move || worker_loop(&shared, index, &worker_scratch))
                .expect("spawn pool worker");
            workers.push(WorkerHandle { scratch, handle });
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_recover(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        let workers = std::mem::take(&mut *lock_recover(&self.workers));
        for w in workers {
            let _ = w.handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers_spawned", &self.workers_spawned())
            .field("jobs_dispatched", &self.jobs_dispatched())
            .finish()
    }
}

/// The parked-worker loop: wait for an epoch that includes this worker,
/// run the job, signal completion, park again.
fn worker_loop(shared: &PoolShared, index: usize, scratch: &Mutex<WorkerScratch>) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock_recover(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    // Only the first `width - 1` workers join this job;
                    // the rest record the epoch and keep waiting.
                    if index + 1 < st.width {
                        break;
                    }
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.job.clone().expect("job present while epoch active")
        };
        let ok = {
            let mut scratch = lock_recover(scratch);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job.run(index + 1, &mut scratch);
            }))
            .is_ok()
        };
        drop(job);
        let mut st = lock_recover(&shared.state);
        if !ok {
            st.panicked += 1;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Sums `tid * stamp` across threads (checks tids are distinct and
    /// complete).
    struct SumJob {
        width: usize,
        acc: AtomicU64,
    }

    impl PoolJob for SumJob {
        fn run(&self, tid: usize, scratch: &mut WorkerScratch) {
            assert!(tid < self.width);
            scratch.ensure(8, 2);
            self.acc.fetch_add(1 << tid, Ordering::Relaxed);
        }
    }

    #[test]
    fn run_delivers_every_tid_exactly_once() {
        let pool = WorkerPool::new();
        for width in [1usize, 2, 4, 3] {
            let job = Arc::new(SumJob {
                width,
                acc: AtomicU64::new(0),
            });
            pool.run(width, job.clone());
            assert_eq!(
                job.acc.load(Ordering::Relaxed),
                (1u64 << width) - 1,
                "width {width}"
            );
        }
        // Workers grow to the widest job and are reused afterwards.
        assert_eq!(pool.workers_spawned(), 3);
        assert_eq!(pool.jobs_dispatched(), 4);
    }

    #[test]
    fn scratch_is_pinned_and_bounded() {
        let pool = WorkerPool::new();
        let job = Arc::new(SumJob {
            width: 3,
            acc: AtomicU64::new(0),
        });
        pool.run(3, job.clone());
        let after_first = pool.scratch_bytes();
        assert!(after_first > 0);
        for _ in 0..10 {
            pool.run(3, job.clone());
        }
        assert_eq!(
            pool.scratch_bytes(),
            after_first,
            "warm jobs must not grow the pinned scratch"
        );
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global() as *const _;
        let b = WorkerPool::global() as *const _;
        assert_eq!(a, b);
    }

    struct PanicJob;

    impl PoolJob for PanicJob {
        fn run(&self, tid: usize, _scratch: &mut WorkerScratch) {
            if tid == 1 {
                panic!("worker boom");
            }
        }
    }

    #[test]
    fn worker_panic_is_reraised_and_pool_survives() {
        let pool = WorkerPool::new();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, Arc::new(PanicJob));
        }));
        assert!(res.is_err(), "worker panic must surface to the caller");
        // The pool still serves jobs afterwards.
        let job = Arc::new(SumJob {
            width: 2,
            acc: AtomicU64::new(0),
        });
        pool.run(2, job.clone());
        assert_eq!(job.acc.load(Ordering::Relaxed), 0b11);
    }
}
