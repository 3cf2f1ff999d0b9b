//! Concurrent solves against one factorization: [`SharedSession`].
//!
//! A [`Session`](crate::Session) is the single-owner handle — `solve`
//! takes `&mut self`, one caller at a time — even though the expensive
//! state (tier factors, pillar lattice, and the stamped PCG system once
//! a request has built it) is read-only once built. `SharedSession`
//! exposes the same factorization through `&self`: the frozen
//! [`SessionCore`] sits behind an `Arc`, and a bounded pool of
//! [`SolveScratch`]es supplies the per-request mutable half. N threads
//! solve concurrently against one set of factors; when
//! requests outnumber scratch slots, admission control either blocks
//! ([`SharedSession::solve`]) or reports [`TryCheckout::Busy`]
//! ([`SharedSession::try_solve`]).
//!
//! Results come back as a [`SharedSolution`] guard that owns its scratch
//! until dropped — views borrow the guard, and dropping it returns the
//! scratch to the pool. A solve that returns `Err` gives its scratch
//! back in a reusable state (every solve re-initializes the buffers it
//! reads); a solve that *panics* quarantines the slot instead, and the
//! pool rebuilds a replacement on demand — a failed request never leaks
//! a slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use voltprop_grid::Stack3d;

use crate::session::{
    Backend, BuildError, LoadCase, LoadSet, SessionCore, SessionError, SolutionView, SolveScratch,
};
use crate::VpConfig;

/// Recovers the guard from a poisoned pool mutex. The critical sections
/// below only move scratches in and out of a `Vec` and adjust a counter
/// — no invariant can be left half-updated by a panic inside them — so
/// continuing with the recovered state is sound (the same policy as the
/// solver `WorkerPool`).
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The scratch pool's bookkeeping: parked ready scratches plus the count
/// currently checked out. `ready.len() + live <= slots` always; the
/// difference is the number of quarantined slots awaiting a rebuilt
/// scratch.
#[derive(Debug)]
struct PoolState {
    /// Scratches parked between requests. Reserved to `slots` capacity
    /// at build, so a warm give-back never allocates.
    ready: Vec<SolveScratch>,
    /// Scratches currently out with callers.
    live: usize,
}

/// Outcome of a non-blocking admission attempt
/// ([`SharedSession::try_solve`] / [`SharedSession::try_solve_batch`]).
#[derive(Debug)]
pub enum TryCheckout<T> {
    /// A scratch slot was free and the request ran.
    Ready(T),
    /// Every scratch slot is checked out; the request was not admitted.
    /// Retry later or use the blocking [`SharedSession::solve`].
    Busy,
}

/// A prefactored session shareable across threads: one frozen
/// [`SessionCore`] plus a bounded checkout pool of [`SolveScratch`]es.
///
/// Every solve takes `&self`: a request checks a scratch out of the
/// pool, runs against the shared factors, and hands the scratch back
/// when its [`SharedSolution`] guard drops. Requests on different
/// scratches run genuinely concurrently (the factors are only read);
/// the inner tier sweeps additionally share the process-wide
/// `WorkerPool` when built with `parallelism > 1`, exactly as
/// [`Session`](crate::Session) solves do.
///
/// Admission control: with all `slots` scratches checked out,
/// [`SharedSession::solve`] blocks until one returns while
/// [`SharedSession::try_solve`] reports [`TryCheckout::Busy`]. Results
/// are **bitwise identical** to the same requests served sequentially by
/// a plain [`Session`](crate::Session) on the same build config — every
/// solve re-initializes its per-request state, so which scratch serves a
/// request can never influence the answer.
///
/// Warm requests perform zero heap allocations end to end (checkout →
/// solve → give-back), measured by `perfsuite`'s `concurrency` section.
/// A request is warm once its slot has served one request of that
/// backend (and of that lane count): the first one sizes the slot's
/// buffers, and the first Rb3d or Pcg request of the pool builds that
/// engine in the shared core.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use voltprop_core::{LoadCase, SharedSession, VpConfig};
/// use voltprop_grid::Stack3d;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stack = Stack3d::builder(12, 12, 3).uniform_load(2e-4).build()?;
/// let shared = Arc::new(SharedSession::build(&stack, VpConfig::default(), 4)?);
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         let shared = &shared;
///         let stack = &stack;
///         scope.spawn(move || {
///             let sol = shared.solve(&LoadCase::new(stack)).unwrap();
///             assert!(sol.view().converged());
///         });
///     }
/// });
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SharedSession {
    core: Arc<SessionCore>,
    slots: usize,
    /// Heap footprint of the slot scratches, ready and checked out, as of
    /// their last give-back: a request that grew its scratch adds the
    /// growth when it returns it, a quarantined slot takes its scratch's
    /// bytes away, and a rebuilt one adds its fresh scratch's.
    scratch_bytes: AtomicUsize,
    state: Mutex<PoolState>,
    available: Condvar,
}

impl SharedSession {
    /// Builds the factorization once and a pool of `slots` scratches
    /// (clamped to at least 1) to serve it. Warm requests are
    /// allocation-free (see the type docs for when a request is warm).
    ///
    /// # Errors
    ///
    /// See [`SessionCore::build`].
    pub fn build(
        stack: &Stack3d,
        config: VpConfig,
        slots: usize,
    ) -> Result<SharedSession, BuildError> {
        Ok(SharedSession::from_core(
            Arc::new(SessionCore::build(stack, config)?),
            slots,
        ))
    }

    /// A shared session serving an existing core (nothing is rebuilt;
    /// the `slots` scratches are forked from it here).
    pub fn from_core(core: Arc<SessionCore>, slots: usize) -> SharedSession {
        let slots = slots.max(1);
        let mut ready = Vec::with_capacity(slots);
        for _ in 0..slots {
            ready.push(core.new_scratch());
        }
        let bytes = ready.iter().map(SolveScratch::memory_bytes).sum();
        SharedSession {
            core,
            slots,
            scratch_bytes: AtomicUsize::new(bytes),
            state: Mutex::new(PoolState { ready, live: 0 }),
            available: Condvar::new(),
        }
    }

    /// The frozen core this pool solves against.
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.core
    }

    /// The pool's scratch slot count (the admission limit).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slots not currently checked out. Quarantined slots count as
    /// available — their replacement scratch is rebuilt on demand at the
    /// next checkout.
    pub fn available(&self) -> usize {
        let state = lock_recover(&self.state);
        self.slots - state.live
    }

    /// Scratches currently checked out with callers. A session with
    /// `in_flight() > 0` is actively serving requests — registries must
    /// not evict it.
    pub fn in_flight(&self) -> usize {
        lock_recover(&self.state).live
    }

    /// Estimated heap footprint of the whole pool: the prefactored core
    /// (each shared factor once) plus every slot's own buffers. It grows
    /// when a request builds the Rb3d or Pcg engine in the core, and when
    /// a slot first serves a backend or a wider batch (counted when the
    /// slot returns to the pool); warm requests leave it unchanged.
    /// Reading it takes no lock, so byte budgets can re-read it freely.
    pub fn memory_bytes(&self) -> usize {
        self.core.memory_bytes() + self.scratch_bytes.load(Ordering::Relaxed)
    }

    /// Whether the stack's geometry matches what this pool's core was
    /// built for (loads are ignored).
    pub fn serves(&self, stack: &Stack3d) -> bool {
        self.core.serves(stack)
    }

    /// Serves one load pattern, blocking while all scratch slots are
    /// checked out. The returned [`SharedSolution`] holds its slot until
    /// dropped — read the results through [`SharedSolution::view`], then
    /// drop the guard promptly to free the slot.
    ///
    /// # Errors
    ///
    /// See [`Session::solve`](crate::Session::solve). On error the
    /// scratch is returned to the pool in a reusable state (no slot is
    /// leaked).
    pub fn solve<'s>(&'s self, case: &LoadCase<'_>) -> Result<SharedSolution<'s>, SessionError> {
        let scratch = self.checkout(None).expect("an unbounded wait admits");
        self.run_single(scratch, case)
    }

    /// Non-blocking [`SharedSession::solve`]: [`TryCheckout::Busy`] if
    /// every scratch slot is checked out, otherwise the solve runs
    /// immediately.
    ///
    /// # Errors
    ///
    /// See [`SharedSession::solve`].
    pub fn try_solve<'s>(
        &'s self,
        case: &LoadCase<'_>,
    ) -> Result<TryCheckout<SharedSolution<'s>>, SessionError> {
        match self.checkout(Some(Instant::now())) {
            Some(scratch) => self.run_single(scratch, case).map(TryCheckout::Ready),
            None => Ok(TryCheckout::Busy),
        }
    }

    /// Serves `k` load patterns as one batched request, blocking while
    /// all scratch slots are checked out. See
    /// [`Session::solve_batch`](crate::Session::solve_batch) for the
    /// batching semantics (identical — the same core runs both).
    ///
    /// # Errors
    ///
    /// See [`Session::solve_batch`](crate::Session::solve_batch).
    pub fn solve_batch<'s>(
        &'s self,
        set: &LoadSet<'_>,
    ) -> Result<SharedSolution<'s>, SessionError> {
        let scratch = self.checkout(None).expect("an unbounded wait admits");
        self.run_batch(scratch, set)
    }

    /// Non-blocking [`SharedSession::solve_batch`].
    ///
    /// # Errors
    ///
    /// See [`SharedSession::solve_batch`].
    pub fn try_solve_batch<'s>(
        &'s self,
        set: &LoadSet<'_>,
    ) -> Result<TryCheckout<SharedSolution<'s>>, SessionError> {
        match self.checkout(Some(Instant::now())) {
            Some(scratch) => self.run_batch(scratch, set).map(TryCheckout::Ready),
            None => Ok(TryCheckout::Busy),
        }
    }

    /// Bounded-wait [`SharedSession::solve`]: waits up to `wait` for a
    /// scratch slot, then reports [`TryCheckout::Busy`] instead of
    /// blocking indefinitely. This is the admission-control primitive
    /// for servers: a hard bound on head-of-line queueing, after which
    /// the caller sheds the request with a typed overload error.
    ///
    /// # Errors
    ///
    /// See [`SharedSession::solve`].
    pub fn try_solve_for<'s>(
        &'s self,
        case: &LoadCase<'_>,
        wait: Duration,
    ) -> Result<TryCheckout<SharedSolution<'s>>, SessionError> {
        match self.checkout(Some(Instant::now() + wait)) {
            Some(scratch) => self.run_single(scratch, case).map(TryCheckout::Ready),
            None => Ok(TryCheckout::Busy),
        }
    }

    /// Bounded-wait [`SharedSession::solve_batch`]; the batched twin of
    /// [`SharedSession::try_solve_for`].
    ///
    /// # Errors
    ///
    /// See [`SharedSession::solve_batch`].
    pub fn try_solve_batch_for<'s>(
        &'s self,
        set: &LoadSet<'_>,
        wait: Duration,
    ) -> Result<TryCheckout<SharedSolution<'s>>, SessionError> {
        match self.checkout(Some(Instant::now() + wait)) {
            Some(scratch) => self.run_batch(scratch, set).map(TryCheckout::Ready),
            None => Ok(TryCheckout::Busy),
        }
    }

    /// Runs a checked-out scratch through one [`LoadCase`]. The guard is
    /// armed *before* the solve so that an engine panic unwinds through
    /// its `Drop` (quarantining the slot) and an `Err` drops it normally
    /// (returning the scratch reusable) — either way the slot is
    /// accounted for.
    fn run_single<'s>(
        &'s self,
        scratch: SolveScratch,
        case: &LoadCase<'_>,
    ) -> Result<SharedSolution<'s>, SessionError> {
        let mut guard = SharedSolution {
            pool: self,
            bytes: scratch.memory_bytes(),
            scratch: Some(scratch),
            backend: case.backend,
        };
        let scratch = guard.scratch.as_mut().expect("scratch present until drop");
        self.core.solve_on(scratch, case)?;
        Ok(guard)
    }

    /// Batched twin of [`SharedSession::run_single`].
    fn run_batch<'s>(
        &'s self,
        scratch: SolveScratch,
        set: &LoadSet<'_>,
    ) -> Result<SharedSolution<'s>, SessionError> {
        let mut guard = SharedSolution {
            pool: self,
            bytes: scratch.memory_bytes(),
            scratch: Some(scratch),
            backend: set.backend,
        };
        let scratch = guard.scratch.as_mut().expect("scratch present until drop");
        self.core.batch_on(
            scratch,
            set.stack,
            set.net,
            set.backend,
            set.params,
            set.loads,
            set.deadline,
        )?;
        Ok(guard)
    }

    /// Checks a scratch out, waiting for a free slot until `deadline`:
    /// `None` waits indefinitely, an instant already past never waits.
    /// `None` once the deadline passes with every slot still out. Warm
    /// path: a `Vec::pop` under the mutex — no allocation. If a
    /// quarantined slot left a vacancy, a replacement scratch is rebuilt
    /// (outside the lock; this is a cold, allocating path). Timed waits
    /// run against the absolute deadline, so spurious wakeups cannot
    /// stretch them.
    fn checkout(&self, deadline: Option<Instant>) -> Option<SolveScratch> {
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(scratch) = state.ready.pop() {
                state.live += 1;
                return Some(scratch);
            }
            if state.live < self.slots {
                // A quarantined slot's vacancy: claim it, then rebuild
                // its scratch without holding the lock.
                state.live += 1;
                drop(state);
                let scratch = self.core.new_scratch();
                self.scratch_bytes
                    .fetch_add(scratch.memory_bytes(), Ordering::Relaxed);
                return Some(scratch);
            }
            let Some(until) = deadline else {
                state = self
                    .available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            state = self
                .available
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Returns a scratch to the pool, counting what it grew by since
    /// checkout (it held `bytes` then), and wakes one waiter. `ready` was
    /// reserved to `slots` capacity at build and never exceeds it, so
    /// the push cannot allocate.
    fn give_back(&self, scratch: SolveScratch, bytes: usize) {
        let grown = scratch.memory_bytes().saturating_sub(bytes);
        if grown > 0 {
            self.scratch_bytes.fetch_add(grown, Ordering::Relaxed);
        }
        let mut state = lock_recover(&self.state);
        debug_assert!(state.ready.len() < self.slots, "pool overfull");
        state.live -= 1;
        state.ready.push(scratch);
        drop(state);
        self.available.notify_one();
    }

    /// Retires a checked-out scratch that held `bytes` at checkout
    /// without returning it (its slot's replacement is rebuilt at the
    /// next checkout) and wakes one waiter — the vacancy is immediately
    /// claimable.
    fn quarantine(&self, bytes: usize) {
        self.scratch_bytes.fetch_sub(bytes, Ordering::Relaxed);
        let mut state = lock_recover(&self.state);
        state.live -= 1;
        drop(state);
        self.available.notify_one();
    }
}

/// A completed solve holding its [`SolveScratch`] checked out of the
/// pool: the results live in the scratch's arenas, borrowed through
/// [`SharedSolution::view`], and the slot is released when this guard
/// drops.
///
/// Drop semantics make the pool poison-safe:
///
/// * a normal drop (including after the solve returned `Err` — the
///   guard never escapes then, but it is still dropped inside the solve
///   call) returns the scratch to the pool **reusable**: every solve
///   re-initializes the buffers it reads, so no request can observe a
///   previous request's state;
/// * a drop during a panic unwind quarantines the slot instead — the
///   scratch is discarded and a replacement is rebuilt on demand — so a
///   panicking solve can neither leak a slot nor donate a
///   possibly-inconsistent scratch to the next caller.
#[derive(Debug)]
pub struct SharedSolution<'s> {
    pool: &'s SharedSession,
    /// The scratch's [`SolveScratch::memory_bytes`] at checkout.
    bytes: usize,
    /// `Some` until `Drop` takes it back.
    scratch: Option<SolveScratch>,
    backend: Backend,
}

impl SharedSolution<'_> {
    /// The view over this solve's results (one lane for
    /// [`SharedSession::solve`], `k` lanes for
    /// [`SharedSession::solve_batch`]).
    pub fn view(&self) -> SolutionView<'_> {
        let scratch = self.scratch.as_ref().expect("scratch present until drop");
        self.pool.core.view(scratch, self.backend)
    }
}

impl Drop for SharedSolution<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            if std::thread::panicking() {
                drop(scratch);
                self.pool.quarantine(self.bytes);
            } else {
                self.pool.give_back(scratch, self.bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveParams;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use voltprop_grid::LoadProfile;

    fn stack() -> Stack3d {
        Stack3d::builder(10, 10, 3)
            .load_profile(
                LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                7,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn shared_solve_matches_plain_session() {
        let s = stack();
        let shared = SharedSession::build(&s, VpConfig::default(), 2).unwrap();
        let mut session = crate::Session::build(&s, VpConfig::default()).unwrap();
        let expect = session
            .solve(&LoadCase::new(&s))
            .unwrap()
            .voltages()
            .to_vec();
        let sol = shared.solve(&LoadCase::new(&s)).unwrap();
        assert_eq!(sol.view().voltages(), &expect[..], "bitwise-identical");
        assert_eq!(shared.available(), 1, "slot held while the guard lives");
        drop(sol);
        assert_eq!(shared.available(), 2);
    }

    #[test]
    fn busy_pool_reports_try_checkout_busy() {
        let s = stack();
        let shared = SharedSession::build(&s, VpConfig::default(), 1).unwrap();
        assert_eq!(shared.slots(), 1);
        let held = shared.solve(&LoadCase::new(&s)).unwrap();
        match shared.try_solve(&LoadCase::new(&s)) {
            Ok(TryCheckout::Busy) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(held);
        match shared.try_solve(&LoadCase::new(&s)) {
            Ok(TryCheckout::Ready(sol)) => assert!(sol.view().converged()),
            other => panic!("expected Ready, got {other:?}"),
        };
    }

    #[test]
    fn err_returns_scratch_reusable() {
        let s = stack();
        let shared = SharedSession::build(&s, VpConfig::default(), 1).unwrap();
        // Starve the outer budget: multi-tier VP with one outer iteration
        // at an unreachable epsilon must error out...
        let starved = SolveParams::new().epsilon(1e-300).max_outer_iterations(1);
        let err = shared
            .solve(&LoadCase::new(&s).params(starved))
            .unwrap_err();
        assert!(matches!(err, SessionError::Solver(_)));
        // ...and the slot must come back reusable, not leak.
        assert_eq!(shared.available(), 1);
        let sol = shared.solve(&LoadCase::new(&s)).unwrap();
        assert!(sol.view().converged());
    }

    #[test]
    fn panic_while_holding_a_solution_quarantines_not_leaks() {
        let s = stack();
        let shared = SharedSession::build(&s, VpConfig::default(), 2).unwrap();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _held = shared.solve(&LoadCase::new(&s)).unwrap();
            panic!("caller panics while holding a solution");
        }));
        assert!(unwound.is_err());
        // The quarantined slot is a vacancy, not a leak: both slots
        // remain available and the next solves (one rebuilt cold) work.
        assert_eq!(shared.available(), 2);
        let a = shared.solve(&LoadCase::new(&s)).unwrap();
        let b = shared.solve(&LoadCase::new(&s)).unwrap();
        assert!(a.view().converged() && b.view().converged());
        assert_eq!(a.view().voltages(), b.view().voltages());
    }

    #[test]
    fn bounded_wait_sheds_after_the_timeout_and_admits_after_release() {
        let s = stack();
        let shared = SharedSession::build(&s, VpConfig::default(), 1).unwrap();
        let held = shared.solve(&LoadCase::new(&s)).unwrap();
        assert_eq!(shared.in_flight(), 1);
        // Full pool + expired budget: shed, don't block.
        match shared.try_solve_for(&LoadCase::new(&s), Duration::from_millis(5)) {
            Ok(TryCheckout::Busy) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        // A waiter inside its budget is admitted when the slot frees.
        std::thread::scope(|scope| {
            let waiter =
                scope.spawn(|| shared.try_solve_for(&LoadCase::new(&s), Duration::from_secs(30)));
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            match waiter.join().unwrap() {
                Ok(TryCheckout::Ready(sol)) => assert!(sol.view().converged()),
                other => panic!("expected Ready, got {other:?}"),
            }
        });
        assert_eq!(shared.in_flight(), 0);
    }

    #[test]
    fn memory_bytes_is_stable_and_accounts_core_plus_slots() {
        let s = stack();
        let shared = SharedSession::build(&s, VpConfig::default(), 2).unwrap();
        let core_bytes = shared.core().memory_bytes();
        assert!(
            shared.memory_bytes() > core_bytes,
            "pool bytes must include the slot scratches on top of the core ({core_bytes})"
        );
        // Warm both slots: each sizes its buffers on its first request.
        let a = shared.solve(&LoadCase::new(&s)).unwrap();
        let b = shared.solve(&LoadCase::new(&s)).unwrap();
        drop((a, b));
        let warm = shared.memory_bytes();
        // Stable across warm solves and across a quarantine rebuild.
        drop(shared.solve(&LoadCase::new(&s)).unwrap());
        assert_eq!(shared.memory_bytes(), warm, "warm solves add nothing");
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _held = shared.solve(&LoadCase::new(&s)).unwrap();
            panic!("quarantine the slot");
        }));
        assert!(unwound.is_err());
        assert!(shared.memory_bytes() < warm, "the retired scratch leaves");
        // Both slots at once: one is the rebuilt replacement.
        let a = shared.solve(&LoadCase::new(&s)).unwrap();
        let b = shared.solve(&LoadCase::new(&s)).unwrap();
        drop((a, b));
        assert_eq!(
            shared.memory_bytes(),
            warm,
            "byte accounting must not drift"
        );
    }

    #[test]
    fn first_pcg_request_builds_once_and_is_counted() {
        let s = stack();
        let shared = SharedSession::build(&s, VpConfig::default(), 2).unwrap();
        let fresh = shared.memory_bytes();
        let core_fresh = shared.core().memory_bytes();
        let pcg = LoadCase::new(&s).backend(Backend::Pcg);
        drop(shared.solve(&pcg).unwrap());
        let core_built = shared.core().memory_bytes();
        assert!(core_built > core_fresh, "the PCG factors land in the core");
        let once = shared.memory_bytes();
        assert!(once > fresh + (core_built - core_fresh));
        // A second request on a warm slot adds nothing.
        drop(shared.solve(&pcg).unwrap());
        assert_eq!(shared.memory_bytes(), once);
        assert_eq!(shared.core().memory_bytes(), core_built, "built once");
    }

    #[test]
    fn blocking_solve_waits_for_a_slot() {
        let s = stack();
        let shared = SharedSession::build(&s, VpConfig::default(), 1).unwrap();
        let held = shared.solve(&LoadCase::new(&s)).unwrap();
        let expect = held.view().voltages().to_vec();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                // Blocks until the main thread drops `held`.
                let sol = shared.solve(&LoadCase::new(&s)).unwrap();
                sol.view().voltages().to_vec()
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
            let got = waiter.join().unwrap();
            assert_eq!(got, expect);
        });
    }
}
