//! The prefactored row-sweep engine with red-black parallel scheduling.
//!
//! Row-based iteration treats each grid row as one block of a block
//! Gauss–Seidel iteration; pinned nodes cut a row into independent
//! tridiagonal segments. Two facts make the inner kernel fast:
//!
//! 1. **The segment matrices never change.** Across sweeps, outer
//!    iterations, and colors, only the right-hand sides move. The engine
//!    factors every segment once at construction into a shared
//!    [`FactoredSegments`] arena, so a sweep is pure forward/backward
//!    substitution (`3N` multiplies per row instead of the `5N-4` the
//!    paper quotes for a from-scratch Thomas pass) and never allocates.
//! 2. **Rows of one parity are independent.** A row couples only to the
//!    rows directly above and below it, so under a *red-black* coloring
//!    (even rows red, odd rows black) every red row can be solved
//!    simultaneously while the black rows are frozen, and vice versa.
//!    The [`SweepSchedule::RedBlack`] schedule exploits this to run row
//!    solves across OS threads, each sweeping its own row bands, with
//!    barriers separating the two color phases.
//!
//! # Two execution paths
//!
//! An engine picks its path once, at construction:
//!
//! * **The single-thread slices** (one thread, one band): every solve
//!   and sweep runs one in-place loop over the caller's vector,
//!   sequential or red-black.
//! * **The band job** (two or more threads, or two or more bands asked
//!   of [`TierEngine::new_sharded`]): the tier is split into row bands
//!   that sweep inside private halo-extended images on the persistent
//!   [`WorkerPool`] (see *Row bands* below).
//!
//! # One solve path: a scalar solve is a batch of one
//!
//! [`TierEngine::solve`], [`TierEngine::solve_with_omega`] and
//! [`TierEngine::sweep_once`] run as one-lane batched solves, keeping
//! the scalar error semantics (an exhausted budget is
//! [`SolverError::DidNotConverge`]). Both paths pick the kernel from the
//! lane count alone: one lane runs the scalar per-segment kernel on the
//! plain image (a one-lane node-major image *is* the plain vector), more
//! lanes run the lane-blocked kernel. The slices' loop buffers grow to
//! the widest batch seen and never shrink; a band engine keeps its
//! one-lane job beside the job for wider batches, each built by the
//! first solve that needs it, so alternating single and batched requests
//! never rebuild either.
//!
//! # Pool lifecycle
//!
//! Multi-threaded solves run on the persistent
//! [`WorkerPool`]: worker threads are spawned
//! once (lazily, on the first parallel solve) and park between solves,
//! so a **warm parallel solve performs no heap allocation** — dispatching
//! a solve is an `Arc` refcount bump and two mutex hand-offs. Engines
//! share the process-global pool by default ([`TierEngine::set_pool`]
//! overrides it for isolation); per-worker substitution scratch is pinned
//! inside the pool and grows to the largest tier a worker has served, so
//! cycling engines of different sizes does not leak or thrash scratch.
//!
//! # Determinism contract
//!
//! The red-black result is **deterministic in the thread count**: each
//! phase reads only other-color (frozen) and pinned values, so the update
//! of a row is independent of the order rows of its own color are
//! processed. `RedBlack { threads: 1 }` and `RedBlack { threads: 8 }`
//! produce bitwise-identical iterates, and both converge to the same
//! fixed point as [`SweepSchedule::Sequential`] (the classic alternating
//! row-order sweep), which remains the default and the `parallelism = 1`
//! special case throughout the workspace. Batched solves extend the
//! contract per lane: a lane's iterate is bitwise identical to its
//! standalone solve on every schedule, thread count and band count.
//!
//! # Frozen lanes
//!
//! A batched sweep of `k > 1` lanes runs the lane-blocked kernel over
//! all `k` lanes, live or frozen (converged, or masked out by the
//! caller). A frozen lane is computed but never changed: the write-back
//! gate keeps its voltages and its delta as they are, so every live
//! lane's arithmetic is exactly its standalone solve's. The arithmetic
//! spent on frozen lanes buys one kernel with no per-sweep choice: on
//! the `whatif_batch` benchmark (16 lanes that freeze at different
//! sweeps) nearly every batched sweep has almost all its lanes live, so
//! skipping the frozen ones would save little.
//!
//! # Blocked lane kernels
//!
//! The lane-blocked kernel is a **fixed-width blocked loop over the
//! lanes** built from fused multiply-adds: its RHS-assembly, forward-
//! and backward-substitution loops all process `[f64; 8]` unit-stride
//! chunks with `mul_add`, which the compiler turns into FMA vector code
//! on any target with FMA — no nightly intrinsics. Because the remainder
//! lanes run the *same* per-element fused operation, lane blocking is
//! numerically invisible: batch-of-1 equals solo bitwise at every lane
//! count. Wide batches over long segments are additionally traversed in
//! cache-sized **lane blocks** (`lane_block_width`) so the substitution
//! scratch of a 512-wide row pass stays L2-resident instead of streaming
//! the whole batch through cache per row; lanes are independent, so this
//! is invisible too. The scalar kernel uses the same fused forms,
//! preserving the batch ≡ scalar contract.
//!
//! # Row bands
//!
//! The band job splits the tier into `max(shards, threads)` near-equal
//! contiguous row bands (clamped to the tier height) with 1-row halos,
//! and hands each pool thread an equal share of contiguous bands, at
//! least one. Each band sweeps its owned rows inside a **private
//! halo-extended voltage image**. A sweep waits at three barriers:
//!
//! 1. after the red half-sweep and its **push**: each band writes its
//!    boundary rows of the color it just swept into the halo images of
//!    the neighbours that read them;
//! 2. after the black half-sweep, its push, and each thread's store of
//!    its per-lane deltas;
//! 3. after thread 0 folds the deltas and freezes converged lanes.
//!
//! The push needs no barrier of its own. A red row reads only black rows
//! and vice versa, so a band reads a halo row only in the *other*
//! color's half-sweep, after the barrier that ends the push; and a band
//! never writes its own halo rows, only its neighbours'. The halo rows
//! therefore hold exactly the values the one-image red-black sweep
//! reads: banding restructures dispatch and memory layout, not
//! arithmetic, and results are **bitwise identical to the single-thread
//! red-black slices at every band and thread count**. Convergence deltas
//! fold with `f64::max` (exact), so per-lane freezing is
//! partition-invariant too.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, RwLock};

use crate::pool::{PoolJob, WorkerPool, WorkerScratch};
use crate::rowbased::TierProblem;
use crate::shard::{row_bands, RowBand};
use crate::{LaneReport, SolveReport, SolverError};
use voltprop_sparse::tridiag::FactoredSegments;

/// How a [`TierEngine`] orders its row solves within one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepSchedule {
    /// Row-ordered block Gauss–Seidel, alternating sweep direction — the
    /// paper's schedule and the strongest smoother per sweep.
    Sequential,
    /// Red-black row coloring: even rows update first (reading frozen odd
    /// rows), then odd rows. Rows within a color are solved concurrently
    /// on `threads` OS threads; results are identical for every
    /// `threads >= 1`.
    RedBlack {
        /// Worker threads for each color phase (clamped to at least 1).
        threads: usize,
    },
}

impl SweepSchedule {
    /// The schedule a `parallelism` knob maps to: `<= 1` stays on the
    /// sequential path, anything larger sweeps red-black on that many
    /// threads.
    pub fn from_parallelism(parallelism: usize) -> Self {
        if parallelism <= 1 {
            SweepSchedule::Sequential
        } else {
            SweepSchedule::RedBlack {
                threads: parallelism,
            }
        }
    }

    /// Number of worker threads this schedule uses.
    pub fn threads(&self) -> usize {
        match self {
            SweepSchedule::Sequential => 1,
            SweepSchedule::RedBlack { threads } => (*threads).max(1),
        }
    }
}

/// One tridiagonal row segment between pinned nodes.
#[derive(Debug, Clone, Copy)]
struct Segment {
    row: u32,
    start: u32,
    len: u32,
    /// Offset of this segment's coefficients in the factor arena.
    offset: u32,
}

/// Worker status codes for the persistent parallel solve loop.
const RUN: usize = 0;
const DONE: usize = 1;
const BUDGET: usize = 2;

/// Cache budget for one segment's substitution scratch in the
/// lane-blocked kernel. Wide batches over long rows are traversed in lane
/// blocks sized so the forward-intermediate scratch of a whole segment
/// pass stays L2-resident (a 512-wide row × 64 lanes of `f64` scratch
/// is 256 KiB — it would thrash a typical 256 KiB–1 MiB L2 together
/// with the voltage and injection streams). Lanes are independent, so
/// the block boundaries are numerically invisible.
const LANE_BLOCK_CACHE_BYTES: usize = 128 * 1024;

/// Lane-block granularity of the cache-blocked traversal (one AVX-512
/// register of `f64`; blocks are multiples of this).
const MIN_LANE_BLOCK: usize = 8;

/// Lane-block width of the cache-blocked lane kernel: the
/// widest multiple of [`MIN_LANE_BLOCK`] whose `len`-row scratch fits
/// [`LANE_BLOCK_CACHE_BYTES`], clamped to `[MIN_LANE_BLOCK, k]`. A pure
/// function of `(len, k)`, so every thread blocks identically.
fn lane_block_width(len: usize, k: usize) -> usize {
    let fit = LANE_BLOCK_CACHE_BYTES / (len.max(1) * std::mem::size_of::<f64>());
    let blk = (fit / MIN_LANE_BLOCK) * MIN_LANE_BLOCK;
    blk.max(MIN_LANE_BLOCK).min(k)
}

/// The immutable per-tier structure shared between the engine and its
/// pool jobs: geometry and factors.
#[derive(Debug)]
struct Topo {
    width: usize,
    height: usize,
    g_h: f64,
    g_v: f64,
    fixed: Arc<[bool]>,
    /// All segments in natural (row-major) order.
    segments: Vec<Segment>,
    /// Indices into `segments` for even (red) and odd (black) rows,
    /// ascending, so a row band's segments of one color are one range.
    red_idx: Vec<u32>,
    black_idx: Vec<u32>,
    factors: FactoredSegments,
}

impl Topo {
    fn n(&self) -> usize {
        self.width * self.height
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.segments.capacity() * size_of::<Segment>()
            + (self.red_idx.capacity() + self.black_idx.capacity()) * size_of::<u32>()
            + self.factors.memory_bytes()
            + self.fixed.len()
    }
}

/// Per-solve inputs of a parallel batched solve.
#[derive(Debug)]
struct BatchInput {
    /// Node-major/lane-minor right-hand sides, `n * k`.
    injection: Vec<f64>,
    omega: f64,
    tolerance: f64,
    max_sweeps: usize,
}

/// The band job's per-solve inputs and per-lane bookkeeping: the staged
/// right-hand sides, which lanes still sweep, every lane's outcome, and
/// the job status. The dispatching engine writes it before a job starts;
/// while the job runs, thread 0 is its only writer.
#[derive(Debug)]
struct LaneSlots {
    input: RwLock<BatchInput>,
    /// `threads × k` per-sweep delta slots, reduced over the threads.
    deltas: Vec<AtomicU64>,
    /// Lanes still sweeping (not in `lane_converged`).
    live: AtomicUsize,
    /// Per-lane outcome slots, copied into the caller's [`LaneReport`]s
    /// after the job drains.
    lane_iters: Vec<AtomicUsize>,
    lane_residual: Vec<AtomicU64>,
    lane_converged: Vec<AtomicBool>,
    sweeps_done: AtomicUsize,
    status: AtomicUsize,
    barrier: Barrier,
}

impl LaneSlots {
    fn new(n: usize, k: usize, threads: usize) -> Self {
        LaneSlots {
            input: RwLock::new(BatchInput {
                injection: vec![0.0; n * k],
                omega: 1.0,
                tolerance: 0.0,
                max_sweeps: 0,
            }),
            deltas: (0..threads * k).map(|_| AtomicU64::new(0)).collect(),
            live: AtomicUsize::new(0),
            lane_iters: (0..k).map(|_| AtomicUsize::new(0)).collect(),
            lane_residual: (0..k).map(|_| AtomicU64::new(0)).collect(),
            lane_converged: (0..k).map(|_| AtomicBool::new(false)).collect(),
            sweeps_done: AtomicUsize::new(0),
            status: AtomicUsize::new(RUN),
            barrier: Barrier::new(threads),
        }
    }

    /// Stages one solve: its inputs and every lane's starting state.
    /// Returns the number of lanes that will sweep.
    fn publish(
        &self,
        injection: &[f64],
        omega: f64,
        tolerance: f64,
        max_sweeps: usize,
        lanes: &[LaneReport],
    ) -> usize {
        {
            let mut input = self.input.write().expect("lane input lock");
            input.injection.copy_from_slice(injection);
            input.omega = omega;
            input.tolerance = tolerance;
            input.max_sweeps = max_sweeps;
        }
        let mut m = 0usize;
        for (j, lane) in lanes.iter().enumerate() {
            self.lane_iters[j].store(lane.iterations, Ordering::Relaxed);
            self.lane_residual[j].store(lane.residual.to_bits(), Ordering::Relaxed);
            self.lane_converged[j].store(lane.converged, Ordering::Relaxed);
            m += usize::from(!lane.converged);
        }
        self.live.store(m, Ordering::Relaxed);
        self.sweeps_done.store(0, Ordering::Relaxed);
        self.status.store(RUN, Ordering::Relaxed);
        m
    }

    /// Copies every lane's outcome back; returns the sweeps the job ran.
    fn collect(&self, lanes: &mut [LaneReport]) -> usize {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = LaneReport {
                iterations: self.lane_iters[j].load(Ordering::Relaxed),
                residual: f64::from_bits(self.lane_residual[j].load(Ordering::Relaxed)),
                converged: self.lane_converged[j].load(Ordering::Relaxed),
            };
        }
        self.sweeps_done.load(Ordering::Relaxed)
    }

    /// A worker's start-of-sweep view of the live lanes: when the live
    /// count differs from `m` (the count of the worker's last copy;
    /// `usize::MAX` before the first), copies the lane flags into its
    /// pinned `active` scratch. The live set only shrinks within a job,
    /// so an unchanged count is an unchanged set. The lane state only
    /// changes while every worker is parked at the post-reduce barrier,
    /// so relaxed loads give every thread the same snapshot. Returns the
    /// live count.
    fn snapshot(&self, m: usize, active: &mut [bool]) -> usize {
        let now = self.live.load(Ordering::Relaxed);
        if now != m {
            for (a, slot) in active.iter_mut().zip(&self.lane_converged) {
                *a = !slot.load(Ordering::Relaxed);
            }
        }
        now
    }

    /// Thread 0's end-of-sweep step: folds each live lane's deltas over
    /// the threads' slots (`f64::max`, exact), freezes the lanes that met
    /// the tolerance, and sets the job status. Freezing — and so every
    /// lane's iterate — therefore cannot depend on the thread or band
    /// count. It writes only what changed: a lane's outcome when it
    /// freezes or the job ends, the live count when a lane froze. The
    /// other workers read these slots every sweep, and a store to them
    /// would cost each worker a cache miss per sweep — what a one-lane
    /// job on a small tier cannot afford.
    fn reduce(&self, k: usize, tolerance: f64, max_sweeps: usize) {
        let parts = self.deltas.len() / k;
        let sweep = self.sweeps_done.fetch_add(1, Ordering::Relaxed) + 1;
        let last = sweep >= max_sweeps;
        let (mut live, mut froze) = (0usize, false);
        for j in 0..k {
            if self.lane_converged[j].load(Ordering::Relaxed) {
                continue;
            }
            let d = (0..parts)
                .map(|p| f64::from_bits(self.deltas[p * k + j].load(Ordering::Relaxed)))
                .fold(0.0f64, f64::max);
            let freeze = d < tolerance;
            if freeze || last {
                self.lane_iters[j].store(sweep, Ordering::Relaxed);
                self.lane_residual[j].store(d.to_bits(), Ordering::Relaxed);
            }
            if freeze {
                self.lane_converged[j].store(true, Ordering::Relaxed);
                froze = true;
            } else {
                live += 1;
            }
        }
        if froze {
            self.live.store(live, Ordering::Relaxed);
        }
        if live == 0 {
            self.status.store(DONE, Ordering::Relaxed);
        } else if last {
            self.status.store(BUDGET, Ordering::Relaxed);
        }
    }

    /// Whether the job is still sweeping (read after the post-reduce
    /// barrier).
    fn running(&self) -> bool {
        self.status.load(Ordering::Relaxed) == RUN
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let input = self.input.read().expect("lane input lock");
        (self.deltas.len() + self.lane_residual.len()) * size_of::<AtomicU64>()
            + input.injection.capacity() * size_of::<f64>()
            + self.lane_iters.len() * size_of::<AtomicUsize>()
            + self.lane_converged.len()
    }
}

/// One row band: its owned and halo-extended rows, and its owned
/// segments of each color as ranges into `Topo::red_idx` /
/// `Topo::black_idx`.
#[derive(Debug)]
struct Band {
    /// First owned row.
    y0: usize,
    /// One past the last owned row.
    y1: usize,
    /// First halo-extended row (`y0 - 1` when a band sits above).
    lo: usize,
    /// One past the last halo-extended row.
    hi: usize,
    red: Range<usize>,
    black: Range<usize>,
}

/// The frozen band layout of a tier: the bands and a contiguous
/// band→thread split. Shared (via `Arc`) between the one-lane and wide
/// jobs and across [`TierEngine::fork`]s.
#[derive(Debug)]
struct BandLayout {
    bands: Vec<Band>,
    /// Per-thread contiguous band ranges, none empty; their count is the
    /// job's thread count.
    chunks: Vec<Range<usize>>,
}

impl BandLayout {
    /// Splits the tier into `bands` (in `1..=height`) near-equal row
    /// bands, the first `height % bands` one row taller, and hands each
    /// of at most `threads` threads an equal share (±1) of them, at least
    /// one band.
    fn build(topo: &Topo, bands: usize, threads: usize) -> BandLayout {
        let span = |idx: &[u32], y0: usize, y1: usize| {
            let below =
                |y: usize| idx.partition_point(|&si| (topo.segments[si as usize].row as usize) < y);
            below(y0)..below(y1)
        };
        let bands: Vec<Band> = row_bands(topo.height, bands)
            .map(|RowBand { y0, y1, lo, hi }| Band {
                y0,
                y1,
                lo,
                hi,
                red: span(&topo.red_idx, y0, y1),
                black: span(&topo.black_idx, y0, y1),
            })
            .collect();
        let nb = bands.len();
        let threads = threads.min(nb);
        let chunks = (0..threads)
            .map(|t| t * nb / threads..(t + 1) * nb / threads)
            .collect();
        BandLayout { bands, chunks }
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bands.capacity() * size_of::<Band>()
            + self.chunks.capacity() * size_of::<Range<usize>>()
    }
}

/// The pool job of a band engine, sized for a fixed lane count `k`
/// (scalar solves run as `k = 1` — the batch-of-1 ≡ solo contract makes
/// that bitwise-free). Each band owns a private halo-extended voltage
/// image.
#[derive(Debug)]
struct BandJob {
    topo: Arc<Topo>,
    layout: Arc<BandLayout>,
    k: usize,
    slots: LaneSlots,
    /// Per-band halo-extended voltage images, `(hi - lo) * width * k`
    /// slots each, node-major/lane-minor in halo-local coordinates.
    images: Vec<Vec<AtomicU64>>,
}

impl BandJob {
    fn new(topo: Arc<Topo>, layout: Arc<BandLayout>, k: usize) -> Self {
        let wk = topo.width * k;
        let images = layout
            .bands
            .iter()
            .map(|b| (0..(b.hi - b.lo) * wk).map(|_| AtomicU64::new(0)).collect())
            .collect();
        BandJob {
            slots: LaneSlots::new(topo.n(), k, layout.chunks.len()),
            images,
            layout,
            topo,
            k,
        }
    }

    /// Band `s`'s push after its `phase` half-sweep (0 = red/even rows,
    /// 1 = black/odd): copies each owned boundary row of that color into
    /// the halo image of the neighbour that reads it.
    fn push_halos(&self, s: usize, phase: usize) {
        let band = &self.layout.bands[s];
        if band.lo < band.y0 && band.y0 % 2 == phase {
            self.copy_row(s, s - 1, band.y0);
        }
        if band.hi > band.y1 && (band.y1 - 1) % 2 == phase {
            self.copy_row(s, s + 1, band.y1 - 1);
        }
    }

    /// Copies global row `y` from band `src`'s image into band `dst`'s.
    fn copy_row(&self, src: usize, dst: usize, y: usize) {
        let wk = self.topo.width * self.k;
        let row0 = y * wk;
        let d0 = row0 - self.layout.bands[dst].lo * wk;
        let s0 = row0 - self.layout.bands[src].lo * wk;
        for (d, s) in self.images[dst][d0..d0 + wk]
            .iter()
            .zip(&self.images[src][s0..s0 + wk])
        {
            d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Scatters `v` into every band image, halo rows included, so the
    /// first red half-sweep reads correct neighbour values.
    fn load(&self, v: &[f64]) {
        let wk = self.topo.width * self.k;
        for (band, image) in self.layout.bands.iter().zip(&self.images) {
            for (slot, &x) in image.iter().zip(&v[band.lo * wk..]) {
                slot.store(x.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Gathers every band's **owned** rows back into `v`.
    fn store(&self, v: &mut [f64]) {
        let wk = self.topo.width * self.k;
        for (band, image) in self.layout.bands.iter().zip(&self.images) {
            let own = (band.y0 - band.lo) * wk;
            let len = (band.y1 - band.y0) * wk;
            let g0 = band.y0 * wk;
            for (slot, x) in image[own..own + len].iter().zip(&mut v[g0..g0 + len]) {
                *x = f64::from_bits(slot.load(Ordering::Relaxed));
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        let image_slots: usize = self.images.iter().map(Vec::capacity).sum();
        self.slots.memory_bytes() + image_slots * std::mem::size_of::<AtomicU64>()
    }
}

/// The per-thread loop of the band job, three barriers per sweep (see
/// the module docs): thread `tid` sweeps its chunk of bands one color at
/// a time, pushing each band's boundary rows after its half-sweep, and
/// stores its per-lane deltas before the black barrier; thread 0 reduces
/// them (see [`LaneSlots::reduce`]).
impl PoolJob for BandJob {
    fn run(&self, tid: usize, ws: &mut WorkerScratch) {
        let topo = &*self.topo;
        let k = self.k;
        let wk = topo.width * k;
        let slots = &self.slots;
        let input = slots.input.read().expect("lane input lock");
        let injection: &[f64] = &input.injection;
        ws.ensure(topo.factors.max_segment_len() * k, k);
        let WorkerScratch { f, active, delta } = ws;
        let scratch = &mut f[..];
        let active = &mut active[..k];
        let delta = &mut delta[..k];
        let mine = self.layout.chunks[tid].clone();
        let mut m = usize::MAX;
        loop {
            m = slots.snapshot(m, active);
            delta.fill(0.0);
            for phase in 0..2 {
                for s in mine.clone() {
                    let band = &self.layout.bands[s];
                    let (idx, own) = if phase == 0 {
                        (&topo.red_idx, band.red.clone())
                    } else {
                        (&topo.black_idx, band.black.clone())
                    };
                    sweep_segments(
                        topo,
                        idx[own].iter().map(|&si| topo.segments[si as usize]),
                        injection,
                        input.omega,
                        k,
                        active,
                        scratch,
                        &mut BandView {
                            image: &self.images[s],
                            off: band.lo * wk,
                        },
                        delta,
                    );
                    self.push_halos(s, phase);
                }
                if phase == 1 {
                    for (j, &d) in delta.iter().enumerate() {
                        slots.deltas[tid * k + j].store(d.to_bits(), Ordering::Relaxed);
                    }
                }
                // This color's rows, pushed halo copies included, land
                // before any band reads them in the next half-sweep.
                slots.barrier.wait();
            }
            if tid == 0 {
                slots.reduce(k, input.tolerance, input.max_sweeps);
            }
            slots.barrier.wait();
            if !slots.running() {
                return;
            }
        }
    }
}

/// A band engine's jobs: the frozen layout plus the one-lane job and the
/// wider job, each built by the first solve that needs it.
#[derive(Debug)]
struct BandState {
    layout: Arc<BandLayout>,
    /// `k = 1` job serving scalar solves, sweeps and one-lane batches,
    /// built by the first of them; warm scalar solves never allocate.
    scalar: Option<Arc<BandJob>>,
    /// Job for `k > 1` lanes, rebuilt when the lane count changes.
    batch: Option<Arc<BandJob>>,
}

impl BandState {
    fn new(layout: Arc<BandLayout>) -> Self {
        BandState {
            layout,
            scalar: None,
            batch: None,
        }
    }
}

/// The single-thread slices' loop buffers, for any lane count.
///
/// Sized by the first solve and grown to the widest batch seen, never
/// shrunk, so warm solves of any lane count up to that width — single
/// and batched requests alternating included — stay allocation-free.
#[derive(Debug, Default)]
struct SliceState {
    /// Substitution scratch, `max_segment_len` entries per lane.
    scratch: Vec<f64>,
    /// Per-lane active flags.
    active: Vec<bool>,
    /// Per-lane max-|update| accumulators.
    delta: Vec<f64>,
}

impl SliceState {
    /// Grows the buffers to `k` lanes of `seg_len`-row scratch (a no-op
    /// when already that wide).
    fn ensure(&mut self, seg_len: usize, k: usize) {
        if self.delta.len() < k {
            *self = SliceState {
                scratch: vec![0.0; seg_len * k],
                active: vec![true; k],
                delta: vec![0.0; k],
            };
        }
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.scratch.capacity() + self.delta.capacity()) * size_of::<f64>()
            + self.active.capacity()
    }
}

/// A tier's prefactored row-sweep engine.
///
/// Built once per tier, reused across every sweep and outer iteration.
/// Construction factors the frozen half (segments, pin mask, band
/// layout); the per-solve buffers are sized by the first solve that
/// needs them, so an engine that is only forked from costs its frozen
/// half alone. Once a lane count has been served, the single-thread
/// slices perform **no heap allocation** on any solve or sweep path of
/// that many lanes or fewer. The band job runs
/// on the persistent [`WorkerPool`],
/// so after the pool's one-time warm-up a parallel
/// [`TierEngine::solve`] (or [`TierEngine::solve_batch`]) is
/// allocation-free too — dispatching a solve to the parked workers costs
/// two mutex hand-offs.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use voltprop_solvers::{SweepSchedule, TierEngine};
///
/// # fn main() -> Result<(), voltprop_solvers::SolverError> {
/// let (w, h) = (8, 8);
/// let mut fixed = vec![false; w * h];
/// fixed[0] = true; // one pinned corner
/// let mut engine = TierEngine::new(
///     w, h, 1.0, 1.0, Arc::from(fixed), None,
///     SweepSchedule::RedBlack { threads: 2 },
/// )?;
/// let mut v = vec![0.0; w * h];
/// v[0] = 1.8;
/// let injection = vec![0.0; w * h];
/// let report = engine.solve(&injection, &mut v, 1e-9, 100_000)?;
/// assert!(report.converged);
/// assert!(v.iter().all(|&vi| (vi - 1.8).abs() < 1e-6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TierEngine {
    topo: Arc<Topo>,
    schedule: SweepSchedule,
    /// Optional pool override (`None` = the process-global pool).
    pool: Option<Arc<WorkerPool>>,
    /// The single-thread slices' loop buffers (unused on the band job).
    slices: SliceState,
    /// The band job (present with two or more bands); every solve path
    /// runs on it.
    bands: Option<BandState>,
}

impl TierEngine {
    /// Factors a tier's row segments. `fixed` pins nodes (row-major mask),
    /// `extra_diag` adds optional per-node diagonal conductance (TSV or
    /// pad coupling to external potentials).
    ///
    /// # Errors
    ///
    /// [`SolverError::Unsupported`] for inconsistent dimensions or
    /// non-positive conductances; [`SolverError::Sparse`] if a segment is
    /// singular (a free node with no neighbours and no extra diagonal).
    pub fn new(
        width: usize,
        height: usize,
        g_h: f64,
        g_v: f64,
        fixed: Arc<[bool]>,
        extra_diag: Option<&[f64]>,
        schedule: SweepSchedule,
    ) -> Result<Self, SolverError> {
        Self::new_sharded(width, height, g_h, g_v, fixed, extra_diag, schedule, 1)
    }

    /// [`TierEngine::new`] asking for at least `shards` row bands. The
    /// engine sweeps `max(shards, threads)` near-equal bands, clamped to
    /// the tier height, on the band job (see the module docs);
    /// [`TierEngine::shards`] reports the count. So `shards` at or below
    /// the thread count builds the same engine as [`TierEngine::new`],
    /// which is what every session builds: its tiers sweep one band per
    /// `parallelism` thread. More bands than threads stay reachable here
    /// for experiments on the band layout.
    ///
    /// `shards >= 2` forces the [`SweepSchedule::RedBlack`] schedule (on
    /// the passed schedule's thread count): a red row reads only frozen
    /// odd rows and vice versa, which is exactly what makes the halo
    /// image exact.
    ///
    /// # Determinism contract
    ///
    /// Banding restructures dispatch and memory layout, not arithmetic:
    /// solves, sweeps, and batched solves (masked or not) are
    /// **bitwise identical** to the single-thread red-black engine at
    /// every band count and thread count. The delta reduction folds
    /// per-lane maxima with `f64::max` (exact), so [`LaneReport`]
    /// freezing cannot depend on the partition either.
    ///
    /// # Errors
    ///
    /// See [`TierEngine::new`].
    #[allow(clippy::too_many_arguments)] // mirrors `new` plus the band count
    pub fn new_sharded(
        width: usize,
        height: usize,
        g_h: f64,
        g_v: f64,
        fixed: Arc<[bool]>,
        extra_diag: Option<&[f64]>,
        schedule: SweepSchedule,
        shards: usize,
    ) -> Result<Self, SolverError> {
        // Sharding requires the red-black ordering: the per-color halo
        // push is what keeps a banded sweep bitwise equal to the
        // one-image sweep, so shards >= 2 forces the schedule (keeping
        // the caller's thread count).
        let schedule = if shards > 1 {
            SweepSchedule::RedBlack {
                threads: schedule.threads(),
            }
        } else {
            schedule
        };
        let n = width * height;
        if fixed.len() != n {
            return Err(SolverError::Unsupported {
                what: format!("pin mask must have {n} entries (got {})", fixed.len()),
            });
        }
        if let Some(e) = extra_diag {
            if e.len() != n {
                return Err(SolverError::Unsupported {
                    what: format!("extra_diag must have {n} entries (got {})", e.len()),
                });
            }
        }
        if !(g_h > 0.0 && g_v > 0.0) {
            return Err(SolverError::Unsupported {
                what: "conductances must be positive".into(),
            });
        }
        let threads = schedule.threads();

        let mut segments = Vec::new();
        let mut factors = FactoredSegments::new();
        // Segment-local coefficient buffers (setup only).
        let mut lower = Vec::new();
        let mut diag = Vec::new();
        let mut upper = Vec::new();
        for y in 0..height {
            let row0 = y * width;
            let mut x = 0usize;
            while x < width {
                if fixed[row0 + x] {
                    x += 1;
                    continue;
                }
                let start = x;
                while x < width && !fixed[row0 + x] {
                    x += 1;
                }
                let len = x - start;
                lower.clear();
                diag.clear();
                upper.clear();
                for i in 0..len {
                    let gx = start + i;
                    let mut d = extra_diag.map_or(0.0, |e| e[row0 + gx]);
                    if gx > 0 {
                        d += g_h;
                    }
                    if gx + 1 < width {
                        d += g_h;
                    }
                    if y > 0 {
                        d += g_v;
                    }
                    if y + 1 < height {
                        d += g_v;
                    }
                    diag.push(d);
                    if i + 1 < len {
                        lower.push(-g_h);
                        upper.push(-g_h);
                    }
                }
                let offset = factors.push_segment(&lower, &diag, &upper)?;
                segments.push(Segment {
                    row: y as u32,
                    start: start as u32,
                    len: len as u32,
                    offset: offset as u32,
                });
            }
        }

        let mut red_idx: Vec<u32> = (0..segments.len() as u32)
            .filter(|&i| segments[i as usize].row % 2 == 0)
            .collect();
        let mut black_idx: Vec<u32> = (0..segments.len() as u32)
            .filter(|&i| segments[i as usize].row % 2 == 1)
            .collect();
        // The frozen half outlives every solve: keep only what it holds.
        segments.shrink_to_fit();
        red_idx.shrink_to_fit();
        black_idx.shrink_to_fit();
        factors.shrink_to_fit();

        let topo = Arc::new(Topo {
            width,
            height,
            g_h,
            g_v,
            fixed,
            segments,
            red_idx,
            black_idx,
            factors,
        });
        let nb = shards.max(threads).min(height);
        let bands =
            (nb > 1).then(|| BandState::new(Arc::new(BandLayout::build(&topo, nb, threads))));

        Ok(TierEngine {
            topo,
            schedule,
            pool: None,
            slices: SliceState::default(),
            bands,
        })
    }

    /// Builds an engine from a [`TierProblem`] (cloning its pin mask and
    /// extra diagonal).
    ///
    /// # Errors
    ///
    /// See [`TierEngine::new`].
    pub fn from_problem(
        problem: &TierProblem<'_>,
        schedule: SweepSchedule,
    ) -> Result<Self, SolverError> {
        TierEngine::new(
            problem.width,
            problem.height,
            problem.g_h,
            problem.g_v,
            Arc::from(problem.fixed),
            Some(problem.extra_diag),
            schedule,
        )
    }

    /// The schedule this engine sweeps with.
    pub fn schedule(&self) -> SweepSchedule {
        self.schedule
    }

    /// Number of row bands the solve paths sweep: `max(shards, threads)`
    /// clamped to the tier height on the band job, 1 on the
    /// single-thread slices.
    pub fn shards(&self) -> usize {
        self.bands.as_ref().map_or(1, |b| b.layout.bands.len())
    }

    /// Overrides the worker pool parallel solves run on (default: the
    /// process-global [`WorkerPool::global`]). Mainly for tests and
    /// benchmarks that need an isolated pool.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// A new engine sharing this engine's frozen half — the factored
    /// segments, the pin mask, and the band layout (one `Arc` bump, no
    /// refactorization) — with **fresh** per-solve mutable state
    /// (substitution scratch, band images, batch arenas), which the
    /// fork's first solve sizes.
    ///
    /// This is the engine-level shared/scratch split: everything built by
    /// [`TierEngine::new`] that is read-only after construction lives
    /// behind the shared `Arc`, and everything a solve writes is owned by
    /// the fork. Two forks may therefore solve concurrently from
    /// different threads against one factorization, and a fork's solves
    /// are bitwise identical to the original engine's (same factors, same
    /// sweep order, freshly re-initialized state every call).
    ///
    /// The schedule and the pool override are copied at fork time; a
    /// later [`TierEngine::set_pool`] on either engine does not affect
    /// the other.
    #[must_use]
    pub fn fork(&self) -> TierEngine {
        TierEngine {
            topo: Arc::clone(&self.topo),
            schedule: self.schedule,
            pool: self.pool.clone(),
            slices: SliceState::default(),
            bands: self
                .bands
                .as_ref()
                .map(|b| BandState::new(Arc::clone(&b.layout))),
        }
    }

    /// Sweeps until the largest per-sweep voltage update falls below
    /// `tolerance`, reading the initial guess (and pinned values) from `v`
    /// and leaving the solution there. Plain block Gauss–Seidel (ω = 1).
    ///
    /// # Errors
    ///
    /// [`SolverError::DidNotConverge`] if `max_sweeps` runs out.
    pub fn solve(
        &mut self,
        injection: &[f64],
        v: &mut [f64],
        tolerance: f64,
        max_sweeps: usize,
    ) -> Result<SolveReport, SolverError> {
        self.solve_with_omega(injection, v, tolerance, max_sweeps, 1.0)
    }

    /// Like [`TierEngine::solve`] with an explicit SOR factor `ω ∈ (0, 2)`.
    ///
    /// # Errors
    ///
    /// [`SolverError::Unsupported`] for an out-of-range `ω`;
    /// [`SolverError::DidNotConverge`] if `max_sweeps` runs out.
    pub fn solve_with_omega(
        &mut self,
        injection: &[f64],
        v: &mut [f64],
        tolerance: f64,
        max_sweeps: usize,
        omega: f64,
    ) -> Result<SolveReport, SolverError> {
        self.check_call(injection, v, omega)?;
        // A one-lane batch: bitwise free by the batch-of-1 ≡ solo
        // contract, with the scalar budget-exhaustion error kept.
        let mut lanes = [LaneReport {
            iterations: 0,
            residual: f64::INFINITY,
            converged: false,
        }];
        let sweeps = self.run_lanes(injection, v, tolerance, max_sweeps, omega, true, &mut lanes);
        let lane = lanes[0];
        if lane.converged {
            Ok(SolveReport {
                iterations: sweeps,
                residual: lane.residual,
                converged: true,
                workspace_bytes: self.memory_bytes(),
            })
        } else {
            Err(SolverError::DidNotConverge {
                iterations: sweeps,
                residual: lane.residual,
                tolerance,
            })
        }
    }

    /// One sweep under the engine's schedule (both colors for red-black),
    /// returning the largest voltage update. `downward` picks the row
    /// direction for the sequential schedule and is ignored by red-black.
    ///
    /// # Errors
    ///
    /// [`SolverError::Unsupported`] for inconsistent array lengths or an
    /// out-of-range `ω`.
    pub fn sweep_once(
        &mut self,
        injection: &[f64],
        v: &mut [f64],
        downward: bool,
        omega: f64,
    ) -> Result<f64, SolverError> {
        self.check_call(injection, v, omega)?;
        // One sweep of a one-lane batch that cannot converge.
        let mut lanes = [LaneReport {
            iterations: 0,
            residual: f64::INFINITY,
            converged: false,
        }];
        self.run_lanes(
            injection,
            v,
            f64::NEG_INFINITY,
            1,
            omega,
            downward,
            &mut lanes,
        );
        Ok(lanes[0].residual)
    }

    /// Solves `lanes.len()` right-hand sides together through the shared
    /// prefactored segments (plain block Gauss–Seidel, ω = 1). See
    /// [`TierEngine::solve_batch_masked`] for the memory layout and
    /// semantics.
    ///
    /// # Errors
    ///
    /// [`SolverError::Unsupported`] for inconsistent array lengths or an
    /// empty batch. Non-convergence is **not** an error on the batched
    /// path: each lane's [`LaneReport`] carries its own outcome.
    pub fn solve_batch(
        &mut self,
        injection: &[f64],
        v: &mut [f64],
        tolerance: f64,
        max_sweeps: usize,
        lanes: &mut [LaneReport],
    ) -> Result<SolveReport, SolverError> {
        self.solve_batch_masked(injection, v, tolerance, max_sweeps, 1.0, None, lanes)
    }

    /// The general batched solve: `k = lanes.len()` right-hand sides sweep
    /// together against the shared factors, each lane converging (and
    /// freezing) independently.
    ///
    /// # Memory layout
    ///
    /// `injection` and `v` hold all lanes **node-major, lane-minor**: the
    /// value of lane `j` at flat node `i` lives at index `i * k + j`. All
    /// lanes of one node are contiguous, so the inner substitution loops
    /// run unit-stride over the lanes while every factor coefficient,
    /// neighbour offset, and pin-mask bit is loaded once per row instead
    /// of once per lane — this is where the batched throughput comes from.
    ///
    /// # Per-lane convergence
    ///
    /// After every sweep each lane's own largest update is compared with
    /// `tolerance`; a lane that passes is *frozen* (its voltages stop
    /// changing, its sweep count and residual are recorded) while the
    /// rest keep sweeping. A frozen lane's iterate is therefore **bitwise
    /// identical** to what a standalone [`TierEngine::solve`] on that
    /// right-hand side would produce, on every schedule and thread count.
    /// `mask` (when present) marks lanes to leave untouched from the
    /// start: their voltages are never changed and their reports come
    /// back as converged in 0 sweeps.
    ///
    /// With `k > 1`, each sweep runs the lane-blocked kernel over all
    /// `k` lanes, frozen ones included, and discards the frozen lanes'
    /// updates (see the [module docs](self)).
    ///
    /// Lanes that exhaust `max_sweeps` report `converged = false` with
    /// their true residual; the call still returns `Ok` (the aggregate
    /// report's `converged` is the AND over the active lanes).
    ///
    /// # Errors
    ///
    /// [`SolverError::Unsupported`] for an empty batch, inconsistent
    /// array lengths, a bad mask length, or an out-of-range `ω`.
    #[allow(clippy::too_many_arguments)] // the full batched-solve surface
    pub fn solve_batch_masked(
        &mut self,
        injection: &[f64],
        v: &mut [f64],
        tolerance: f64,
        max_sweeps: usize,
        omega: f64,
        mask: Option<&[bool]>,
        lanes: &mut [LaneReport],
    ) -> Result<SolveReport, SolverError> {
        let k = lanes.len();
        self.check_batch_call(injection, v, omega, mask, k)?;
        for (j, lane) in lanes.iter_mut().enumerate() {
            let on = mask.is_none_or(|m| m[j]);
            *lane = LaneReport {
                iterations: 0,
                residual: if on { f64::INFINITY } else { 0.0 },
                converged: !on,
            };
        }
        let sweeps = self.run_lanes(injection, v, tolerance, max_sweeps, omega, true, lanes);
        Ok(SolveReport {
            iterations: sweeps,
            residual: lanes.iter().fold(0.0f64, |m, l| m.max(l.residual)),
            converged: lanes.iter().all(|l| l.converged),
            workspace_bytes: self.memory_bytes(),
        })
    }

    /// The one solve path: sweeps every lane that `lanes` does not
    /// already mark converged until it freezes or `max_sweeps` runs out,
    /// recording each lane's outcome; returns the sweeps run. The band
    /// job (the one-lane job when `k = 1`) runs the red-black schedule;
    /// the single-thread slices sweep in place on `v`, the sequential
    /// schedule starting in the `downward` direction and alternating.
    #[allow(clippy::too_many_arguments)] // a batched solve plus the first direction
    fn run_lanes(
        &mut self,
        injection: &[f64],
        v: &mut [f64],
        tolerance: f64,
        max_sweeps: usize,
        omega: f64,
        downward: bool,
        lanes: &mut [LaneReport],
    ) -> usize {
        let k = lanes.len();
        self.ensure_lanes(k);
        if let Some(bands) = &self.bands {
            let job = if k == 1 { &bands.scalar } else { &bands.batch };
            let job = job.as_ref().expect("sized by ensure_lanes");
            return self.run_job(job, injection, v, tolerance, max_sweeps, omega, lanes);
        }

        let topo = &*self.topo;
        let SliceState {
            scratch,
            active,
            delta,
        } = &mut self.slices;
        let (active, delta) = (&mut active[..k], &mut delta[..k]);
        let mut live = 0usize;
        for (a, lane) in active.iter_mut().zip(lanes.iter()) {
            *a = !lane.converged;
            live += usize::from(*a);
        }
        let mut view = SliceView(v);
        let mut sweeps = 0usize;
        while sweeps < max_sweeps && live > 0 {
            delta.fill(0.0);
            match self.schedule {
                SweepSchedule::Sequential => {
                    let nseg = topo.segments.len();
                    let down = downward == (sweeps % 2 == 0);
                    let order = (0..nseg).map(|s| if down { s } else { nseg - 1 - s });
                    let segs = order.map(|si| topo.segments[si]);
                    sweep_segments(
                        topo, segs, injection, omega, k, active, scratch, &mut view, delta,
                    );
                }
                SweepSchedule::RedBlack { .. } => {
                    for idx in [&topo.red_idx, &topo.black_idx] {
                        let segs = idx.iter().map(|&si| topo.segments[si as usize]);
                        sweep_segments(
                            topo, segs, injection, omega, k, active, scratch, &mut view, delta,
                        );
                    }
                }
            }
            sweeps += 1;
            live = 0;
            for ((lane, a), &d) in lanes.iter_mut().zip(active.iter_mut()).zip(delta.iter()) {
                if !*a {
                    continue;
                }
                lane.iterations = sweeps;
                lane.residual = d;
                if d < tolerance {
                    lane.converged = true;
                    *a = false;
                } else {
                    live += 1;
                }
            }
        }
        sweeps
    }

    /// Sizes the per-solve state for `k` lanes (a no-op when already
    /// sized). On the band job, one lane runs on the one-lane job, built
    /// once, and more lanes on the wide job (whose workers bring their
    /// own pinned scratch), rebuilt when `k` changes. The single-thread
    /// slices grow their loop buffers to the widest `k` seen.
    fn ensure_lanes(&mut self, k: usize) {
        let topo = &self.topo;
        match &mut self.bands {
            Some(bands) => {
                let job = if k == 1 {
                    &mut bands.scalar
                } else {
                    &mut bands.batch
                };
                if job.as_ref().is_none_or(|j| j.k != k) {
                    let layout = Arc::clone(&bands.layout);
                    *job = Some(Arc::new(BandJob::new(Arc::clone(topo), layout, k)));
                }
            }
            None => self.slices.ensure(topo.factors.max_segment_len(), k),
        }
    }

    /// Stages a solve into a band job — lane states, inputs, and `v`
    /// loaded into the band images — runs it on the worker pool, and
    /// copies the solution and lane outcomes back. Returns the sweeps
    /// run. Warm calls are allocation-free.
    #[allow(clippy::too_many_arguments)] // run_lanes' surface plus the job
    fn run_job(
        &self,
        job: &Arc<BandJob>,
        injection: &[f64],
        v: &mut [f64],
        tolerance: f64,
        max_sweeps: usize,
        omega: f64,
        lanes: &mut [LaneReport],
    ) -> usize {
        let slots = &job.slots;
        let m = slots.publish(injection, omega, tolerance, max_sweeps, lanes);
        job.load(v);
        if m > 0 && max_sweeps > 0 {
            let threads = job.layout.chunks.len();
            let job = Arc::clone(job) as Arc<dyn PoolJob>;
            match &self.pool {
                Some(pool) => pool.run(threads, job),
                None => WorkerPool::global().run(threads, job),
            }
        }
        job.store(v);
        slots.collect(lanes)
    }

    /// Estimated heap footprint in bytes: the frozen half (factored
    /// segments, pin mask, band layout) plus whatever per-solve buffers
    /// solves have sized so far. A fork reports the frozen half too,
    /// although it shares it.
    pub fn memory_bytes(&self) -> usize {
        self.topo.memory_bytes()
            + self.slices.memory_bytes()
            + self.bands.as_ref().map_or(0, |b| {
                b.layout.memory_bytes()
                    + b.scalar.as_ref().map_or(0, |j| j.memory_bytes())
                    + b.batch.as_ref().map_or(0, |j| j.memory_bytes())
            })
    }

    fn check_call(&self, injection: &[f64], v: &[f64], omega: f64) -> Result<(), SolverError> {
        let n = self.topo.n();
        if injection.len() != n || v.len() != n {
            return Err(SolverError::Unsupported {
                what: format!(
                    "tier arrays must have {n} entries (injection {}, v {})",
                    injection.len(),
                    v.len()
                ),
            });
        }
        if !(omega > 0.0 && omega < 2.0) {
            return Err(SolverError::Unsupported {
                what: format!("SOR omega {omega} outside (0, 2)"),
            });
        }
        Ok(())
    }

    /// Argument validation for [`TierEngine::solve_batch_masked`].
    fn check_batch_call(
        &self,
        injection: &[f64],
        v: &[f64],
        omega: f64,
        mask: Option<&[bool]>,
        k: usize,
    ) -> Result<(), SolverError> {
        let n = self.topo.n();
        if k == 0 {
            return Err(SolverError::Unsupported {
                what: "batched solve needs at least one lane".into(),
            });
        }
        if injection.len() != n * k || v.len() != n * k {
            return Err(SolverError::Unsupported {
                what: format!(
                    "batch arrays must have {n} × {k} entries (injection {}, v {})",
                    injection.len(),
                    v.len()
                ),
            });
        }
        if let Some(m) = mask {
            if m.len() != k {
                return Err(SolverError::Unsupported {
                    what: format!("lane mask must have {k} entries (got {})", m.len()),
                });
            }
        }
        if !(omega > 0.0 && omega < 2.0) {
            return Err(SolverError::Unsupported {
                what: format!("SOR omega {omega} outside (0, 2)"),
            });
        }
        Ok(())
    }
}

/// Read/write access to the voltage image, monomorphized so the slice
/// (single-thread) and band-image (band job) paths share one kernel.
trait VoltView {
    fn get(&self, i: usize) -> f64;
    fn set(&mut self, i: usize, value: f64);
}

struct SliceView<'a>(&'a mut [f64]);

impl VoltView for SliceView<'_> {
    #[inline(always)]
    fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    #[inline(always)]
    fn set(&mut self, i: usize, value: f64) {
        self.0[i] = value;
    }
}

/// A band's halo-extended image viewed in **global** node coordinates:
/// the kernels keep indexing `node * k + j` exactly as on the global
/// image, and the view translates into the band-local image (whose
/// slot 0 is global row `lo`). Every index a kernel touches while
/// sweeping a band's owned segments — own row, in-row pinned
/// neighbours, and the rows above/below — lies inside `lo..hi`, so the
/// offset never underflows. Relaxed ordering suffices: the color
/// barriers order every write of one color, halo pushes included,
/// before the next phase's reads, and within a phase no two threads
/// touch the same slot.
struct BandView<'a> {
    image: &'a [AtomicU64],
    /// `lo * width * k` of the band this view wraps.
    off: usize,
}

impl VoltView for BandView<'_> {
    #[inline(always)]
    fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.image[i - self.off].load(Ordering::Relaxed))
    }

    #[inline(always)]
    fn set(&mut self, i: usize, value: f64) {
        self.image[i - self.off].store(value.to_bits(), Ordering::Relaxed);
    }
}

/// Solves one prefactored row segment exactly (given the current
/// neighbouring rows) and applies the (over-)relaxed update; returns the
/// largest update in the segment.
#[inline]
fn solve_segment<V: VoltView>(
    topo: &Topo,
    seg: Segment,
    injection: &[f64],
    omega: f64,
    scratch: &mut [f64],
    view: &mut V,
) -> f64 {
    let (w, h) = (topo.width, topo.height);
    let (g_h, g_v) = (topo.g_h, topo.g_v);
    let fixed = &topo.fixed;
    let factors = &topo.factors;
    let y = seg.row as usize;
    let start = seg.start as usize;
    let len = seg.len as usize;
    let row0 = y * w;
    let offset = seg.offset as usize;
    let mut max_delta = 0.0f64;
    // Forward pass: build each right-hand side entry from the frozen
    // neighbours and eliminate on the fly (no staging buffer). Each
    // neighbour term is a fused multiply-add — the same per-element
    // operation the blocked batched kernels broadcast over their lanes,
    // which keeps scalar and batched iterates bitwise identical.
    let mut prev = 0.0;
    for i in 0..len {
        let gx = start + i;
        let node = row0 + gx;
        let mut b = injection[node];
        if gx > 0 && fixed[node - 1] {
            b = g_h.mul_add(view.get(node - 1), b);
        }
        if gx + 1 < w && fixed[node + 1] {
            b = g_h.mul_add(view.get(node + 1), b);
        }
        if y > 0 {
            b = g_v.mul_add(view.get(node - w), b);
        }
        if y + 1 < h {
            b = g_v.mul_add(view.get(node + w), b);
        }
        let dp = factors.forward_step(offset + i, b, prev);
        scratch[i] = dp;
        prev = dp;
    }
    // Backward pass: substitute and apply the relaxed update in place.
    let mut next = 0.0;
    for i in (0..len).rev() {
        let xi = factors.backward_step(offset + i, scratch[i], next);
        let node = row0 + start + i;
        let old = view.get(node);
        let new = omega.mul_add(xi - old, old);
        let delta = (new - old).abs();
        if delta > max_delta {
            max_delta = delta;
        }
        view.set(node, new);
        next = xi;
    }
    max_delta
}

/// Sweeps `segs` (one color, or one sweep order) for `k` lanes: one
/// lane with the scalar kernel on the plain image — a one-lane
/// node-major image *is* the plain vector, and staging a single lane
/// through the blocked rows buys nothing — more lanes with the
/// lane-blocked kernel. A one-lane batch only sweeps while its lane is
/// live.
#[allow(clippy::too_many_arguments)] // the shared batched-kernel surface
#[inline]
fn sweep_segments<V: VoltView>(
    topo: &Topo,
    segs: impl Iterator<Item = Segment>,
    injection: &[f64],
    omega: f64,
    k: usize,
    active: &[bool],
    scratch: &mut [f64],
    view: &mut V,
    delta: &mut [f64],
) {
    if k == 1 {
        debug_assert!(active[0], "a frozen lane is never swept");
        let mut d = delta[0];
        for seg in segs {
            d = d.max(solve_segment(topo, seg, injection, omega, scratch, view));
        }
        delta[0] = d;
        return;
    }
    for seg in segs {
        solve_segment_batch(topo, seg, injection, omega, k, active, scratch, view, delta);
    }
}

/// Batched [`solve_segment`]: solves one prefactored row segment for all
/// `k` lanes at once. `injection` and the view are node-major/lane-minor
/// (lane `j` of node `i` at `i * k + j`), so every inner loop over the
/// lanes is unit-stride while the factors, pin mask, and neighbour
/// offsets are loaded once per row. Wide batches over long segments are
/// traversed in **cache-sized lane blocks** (see [`lane_block_width`]):
/// each block makes a complete forward/backward pass over the segment
/// before the next block starts, so the substitution scratch stays
/// L2-resident. Lanes are independent, so blocking cannot change any
/// lane's bits. Lanes with `active[j] == false` are computed but not
/// applied (their voltages — and deltas — stay exactly as they are),
/// which keeps every active lane's arithmetic bitwise identical to the
/// scalar kernel. Per-lane maxima of the applied updates accumulate
/// into `delta`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn solve_segment_batch<V: VoltView>(
    topo: &Topo,
    seg: Segment,
    injection: &[f64],
    omega: f64,
    k: usize,
    active: &[bool],
    scratch: &mut [f64],
    view: &mut V,
    delta: &mut [f64],
) {
    let len = seg.len as usize;
    let bw = lane_block_width(len, k);
    let mut j0 = 0usize;
    while j0 < k {
        let w = bw.min(k - j0);
        solve_segment_batch_block(
            topo, seg, injection, omega, k, j0, w, active, scratch, view, delta,
        );
        j0 += w;
    }
}

/// One lane block of [`solve_segment_batch`]: lanes `j0 .. j0 + bw` of
/// the `k`-wide batch, with the scratch packed at stride `bw`. The
/// inner loops are unit-stride fused multiply-adds over the block (the
/// same per-element operations as the scalar kernel, in the same term
/// order).
#[allow(clippy::too_many_arguments)]
#[inline]
fn solve_segment_batch_block<V: VoltView>(
    topo: &Topo,
    seg: Segment,
    injection: &[f64],
    omega: f64,
    k: usize,
    j0: usize,
    bw: usize,
    active: &[bool],
    scratch: &mut [f64],
    view: &mut V,
    delta: &mut [f64],
) {
    let (w, h) = (topo.width, topo.height);
    let (g_h, g_v) = (topo.g_h, topo.g_v);
    let fixed = &topo.fixed;
    let factors = &topo.factors;
    let y = seg.row as usize;
    let start = seg.start as usize;
    let len = seg.len as usize;
    let row0 = y * w;
    let offset = seg.offset as usize;
    // Forward pass: build each row of right-hand sides from the frozen
    // neighbours (same term order as the scalar kernel) and eliminate.
    for i in 0..len {
        let gx = start + i;
        let node = row0 + gx;
        let base = node * k + j0;
        let (done, rest) = scratch.split_at_mut(i * bw);
        let row = &mut rest[..bw];
        row.copy_from_slice(&injection[base..base + bw]);
        if gx > 0 && fixed[node - 1] {
            let nb = (node - 1) * k + j0;
            for (j, b) in row.iter_mut().enumerate() {
                *b = g_h.mul_add(view.get(nb + j), *b);
            }
        }
        if gx + 1 < w && fixed[node + 1] {
            let nb = (node + 1) * k + j0;
            for (j, b) in row.iter_mut().enumerate() {
                *b = g_h.mul_add(view.get(nb + j), *b);
            }
        }
        if y > 0 {
            let nb = (node - w) * k + j0;
            for (j, b) in row.iter_mut().enumerate() {
                *b = g_v.mul_add(view.get(nb + j), *b);
            }
        }
        if y + 1 < h {
            let nb = (node + w) * k + j0;
            for (j, b) in row.iter_mut().enumerate() {
                *b = g_v.mul_add(view.get(nb + j), *b);
            }
        }
        let prev = if i == 0 {
            None
        } else {
            Some(&done[(i - 1) * bw..])
        };
        factors.forward_row(offset + i, row, prev);
    }
    // Backward pass: substitute row by row (in place in the scratch) and
    // apply the relaxed update for the active lanes.
    for i in (0..len).rev() {
        let (head, tail) = scratch.split_at_mut((i + 1) * bw);
        let row = &mut head[i * bw..];
        let next = if i + 1 == len {
            None
        } else {
            Some(&tail[..bw])
        };
        factors.backward_row(offset + i, row, next);
        let node = row0 + start + i;
        let base = node * k + j0;
        for (j, &xi) in row.iter().enumerate() {
            let old = view.get(base + j);
            let relaxed = omega.mul_add(xi - old, old);
            let new = if active[j0 + j] { relaxed } else { old };
            let d = (new - old).abs();
            if d > delta[j0 + j] {
                delta[j0 + j] = d;
            }
            view.set(base + j, new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowbased::RowBased;

    fn random_problem(seed: u64, w: usize, h: usize) -> (Vec<bool>, Vec<f64>, Vec<f64>) {
        let n = w * h;
        let mut s = seed.wrapping_add(11);
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64)
        };
        let mut fixed = vec![false; n];
        let mut v = vec![1.8; n];
        for i in 0..n {
            if rnd() < 0.25 {
                fixed[i] = true;
                v[i] = 1.7 + 0.2 * rnd();
            }
        }
        fixed[0] = true;
        let injection: Vec<f64> = (0..n)
            .map(|i| if fixed[i] { 0.0 } else { -1e-4 * rnd() })
            .collect();
        (fixed, v, injection)
    }

    fn engine(w: usize, h: usize, fixed: &[bool], schedule: SweepSchedule) -> TierEngine {
        TierEngine::new(w, h, 1.25, 0.8, Arc::from(fixed), None, schedule).unwrap()
    }

    #[test]
    fn sequential_engine_matches_generic_rowbased() {
        for seed in [1u64, 5, 23] {
            let (w, h) = (13, 9);
            let (fixed, v0, injection) = random_problem(seed, w, h);
            let mut v_engine = v0.clone();
            engine(w, h, &fixed, SweepSchedule::Sequential)
                .solve(&injection, &mut v_engine, 1e-11, 100_000)
                .unwrap();

            let mut v_ref = v0.clone();
            let problem = TierProblem {
                width: w,
                height: h,
                g_h: 1.25,
                g_v: 0.8,
                fixed: &fixed,
                extra_diag: &vec![0.0; w * h],
                injection: &injection,
            };
            RowBased {
                tolerance: 1e-11,
                ..Default::default()
            }
            .solve_tier(&problem, &mut v_ref)
            .unwrap();
            for i in 0..w * h {
                assert!(
                    (v_engine[i] - v_ref[i]).abs() < 1e-8,
                    "seed {seed} node {i}: engine {} vs rowbased {}",
                    v_engine[i],
                    v_ref[i]
                );
            }
        }
    }

    #[test]
    fn redblack_is_thread_count_invariant() {
        for seed in [2u64, 7] {
            let (w, h) = (17, 12);
            let (fixed, v0, injection) = random_problem(seed, w, h);
            let mut v1 = v0.clone();
            engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 1 })
                .solve(&injection, &mut v1, 1e-10, 100_000)
                .unwrap();
            for threads in [2usize, 4] {
                let mut vt = v0.clone();
                engine(w, h, &fixed, SweepSchedule::RedBlack { threads })
                    .solve(&injection, &mut vt, 1e-10, 100_000)
                    .unwrap();
                assert_eq!(
                    v1, vt,
                    "seed {seed}, {threads} threads must be bitwise equal"
                );
            }
        }
    }

    #[test]
    fn redblack_agrees_with_sequential_solution() {
        let (w, h) = (20, 15);
        let (fixed, v0, injection) = random_problem(3, w, h);
        let mut v_seq = v0.clone();
        engine(w, h, &fixed, SweepSchedule::Sequential)
            .solve(&injection, &mut v_seq, 1e-12, 200_000)
            .unwrap();
        let mut v_rb = v0.clone();
        engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 3 })
            .solve(&injection, &mut v_rb, 1e-12, 200_000)
            .unwrap();
        let worst = v_seq
            .iter()
            .zip(&v_rb)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= 1e-9, "schedules disagree by {worst} V");
    }

    #[test]
    fn sweep_once_parallel_matches_single_thread() {
        let (w, h) = (11, 8);
        let (fixed, v0, injection) = random_problem(9, w, h);
        let mut v1 = v0.clone();
        let mut e1 = engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 1 });
        let d1 = e1.sweep_once(&injection, &mut v1, true, 1.0).unwrap();
        let mut v4 = v0.clone();
        let mut e4 = engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 4 });
        let d4 = e4.sweep_once(&injection, &mut v4, true, 1.0).unwrap();
        assert_eq!(v1, v4);
        assert_eq!(d1, d4);
    }

    #[test]
    fn budget_exhaustion_is_error_on_both_paths() {
        let (w, h) = (16, 16);
        let mut fixed = vec![false; w * h];
        fixed[0] = true;
        let injection = vec![0.0; w * h];
        for schedule in [
            SweepSchedule::Sequential,
            SweepSchedule::RedBlack { threads: 2 },
        ] {
            let mut v = vec![0.0; w * h];
            v[0] = 1.8;
            let err = TierEngine::new(w, h, 1.0, 1.0, Arc::from(&fixed[..]), None, schedule)
                .unwrap()
                .solve(&injection, &mut v, 1e-15, 2)
                .unwrap_err();
            assert!(
                matches!(err, SolverError::DidNotConverge { iterations: 2, .. }),
                "{schedule:?}: {err:?}"
            );
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let fixed: Arc<[bool]> = Arc::from(vec![false; 4]);
        assert!(TierEngine::new(
            3,
            2,
            1.0,
            1.0,
            fixed.clone(),
            None,
            SweepSchedule::Sequential
        )
        .is_err());
        let fixed6: Arc<[bool]> = Arc::from(vec![false; 6]);
        assert!(TierEngine::new(
            3,
            2,
            -1.0,
            1.0,
            fixed6.clone(),
            None,
            SweepSchedule::Sequential
        )
        .is_err());
        let mut ok =
            TierEngine::new(3, 2, 1.0, 1.0, fixed6, None, SweepSchedule::Sequential).unwrap();
        let mut v = vec![0.0; 6];
        assert!(ok.solve(&[0.0; 5], &mut v, 1e-6, 10).is_err());
        assert!(ok
            .solve_with_omega(&[0.0; 6], &mut v, 1e-6, 10, 2.5)
            .is_err());
    }

    #[test]
    fn parallelism_maps_to_schedule() {
        assert_eq!(
            SweepSchedule::from_parallelism(0),
            SweepSchedule::Sequential
        );
        assert_eq!(
            SweepSchedule::from_parallelism(1),
            SweepSchedule::Sequential
        );
        assert_eq!(
            SweepSchedule::from_parallelism(4),
            SweepSchedule::RedBlack { threads: 4 }
        );
        assert_eq!(SweepSchedule::RedBlack { threads: 0 }.threads(), 1);
    }

    /// Interleaves lane-major vectors into the node-major batch layout.
    fn interleave(lanes: &[Vec<f64>]) -> Vec<f64> {
        let k = lanes.len();
        let n = lanes[0].len();
        let mut out = vec![0.0; n * k];
        for (j, lane) in lanes.iter().enumerate() {
            for i in 0..n {
                out[i * k + j] = lane[i];
            }
        }
        out
    }

    fn lane_of(batch: &[f64], j: usize, k: usize) -> Vec<f64> {
        batch.iter().skip(j).step_by(k).copied().collect()
    }

    /// Per-lane injections of different magnitudes, and lane `j` starting
    /// `2·4^j` mV below the fixture guess on its free nodes, so the lanes
    /// converge after different sweep counts (exercising the freeze
    /// logic; the injections alone move them by a sweep at most).
    fn batch_fixture(
        seed: u64,
        w: usize,
        h: usize,
        k: usize,
    ) -> (Vec<bool>, Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let (fixed, v0, injection) = random_problem(seed, w, h);
        let v0s = (0..k)
            .map(|j| {
                let drop = 2e-3 * 4f64.powi(j as i32);
                let start = |(&x, &pinned): (&f64, &bool)| if pinned { x } else { x - drop };
                v0.iter().zip(&fixed).map(start).collect()
            })
            .collect();
        let injections: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let scale = 0.25 + 0.75 * j as f64;
                injection.iter().map(|&b| scale * b).collect()
            })
            .collect();
        (fixed, v0s, injections)
    }

    #[test]
    fn batch_lanes_are_bitwise_identical_to_solo_solves() {
        let (w, h, k) = (13, 9, 4);
        for schedule in [
            SweepSchedule::Sequential,
            SweepSchedule::RedBlack { threads: 1 },
            SweepSchedule::RedBlack { threads: 3 },
        ] {
            let (fixed, v0s, injections) = batch_fixture(6, w, h, k);
            let mut v = interleave(&v0s);
            let injection = interleave(&injections);
            let mut lanes = vec![LaneReport::default(); k];
            let agg = engine(w, h, &fixed, schedule)
                .solve_batch(&injection, &mut v, 1e-10, 100_000, &mut lanes)
                .unwrap();
            assert!(agg.converged, "{schedule:?}");
            for j in 0..k {
                let mut v_solo = v0s[j].clone();
                let rep = engine(w, h, &fixed, schedule)
                    .solve(&injections[j], &mut v_solo, 1e-10, 100_000)
                    .unwrap();
                assert_eq!(
                    lane_of(&v, j, k),
                    v_solo,
                    "{schedule:?} lane {j} must be bitwise identical"
                );
                assert_eq!(lanes[j].iterations, rep.iterations, "{schedule:?} lane {j}");
                assert_eq!(
                    lanes[j].residual.to_bits(),
                    rep.residual.to_bits(),
                    "{schedule:?} lane {j}"
                );
                assert!(lanes[j].converged);
            }
        }
    }

    #[test]
    fn batch_redblack_is_thread_count_invariant() {
        let (w, h, k) = (17, 12, 3);
        let (fixed, v0s, injections) = batch_fixture(8, w, h, k);
        let injection = interleave(&injections);
        let mut v1 = interleave(&v0s);
        let mut lanes1 = vec![LaneReport::default(); k];
        engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 1 })
            .solve_batch(&injection, &mut v1, 1e-10, 100_000, &mut lanes1)
            .unwrap();
        for threads in [2usize, 4] {
            let mut vt = interleave(&v0s);
            let mut lanes = vec![LaneReport::default(); k];
            engine(w, h, &fixed, SweepSchedule::RedBlack { threads })
                .solve_batch(&injection, &mut vt, 1e-10, 100_000, &mut lanes)
                .unwrap();
            assert_eq!(v1, vt, "{threads} threads must be bitwise equal");
            assert_eq!(lanes, lanes1);
        }
    }

    #[test]
    fn staggered_batch_lanes_match_solo_solves_under_masks() {
        // The fixture's lanes freeze at different sweeps, so the
        // lane-blocked kernel runs with more and more frozen lanes: each
        // live lane must still equal its solo solve bit for bit, and a
        // masked lane must come back unchanged in 0 sweeps.
        let (w, h, k) = (15, 11, 8);
        let (fixed, v0s, injections) = batch_fixture(12, w, h, k);
        let injection = interleave(&injections);
        let masks: [Option<Vec<bool>>; 2] = [None, Some((0..k).map(|j| j % 3 != 1).collect())];
        let build = |schedule, shards| {
            let fixed = Arc::from(&fixed[..]);
            TierEngine::new_sharded(w, h, 1.25, 0.8, fixed, None, schedule, shards).unwrap()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (schedule, shards) in [
            (SweepSchedule::Sequential, 1),
            (SweepSchedule::RedBlack { threads: 1 }, 1),
            (SweepSchedule::RedBlack { threads: 3 }, 1),
            (SweepSchedule::RedBlack { threads: 1 }, 3),
        ] {
            for mask in &masks {
                let mut v = interleave(&v0s);
                let mut lanes = vec![LaneReport::default(); k];
                build(schedule, shards)
                    .solve_batch_masked(
                        &injection,
                        &mut v,
                        1e-10,
                        100_000,
                        1.0,
                        mask.as_deref(),
                        &mut lanes,
                    )
                    .unwrap();
                let live = |j: usize| mask.as_ref().is_none_or(|m| m[j]);
                let sweeps = (0..k).filter(|&j| live(j)).map(|j| lanes[j].iterations);
                let (fewest, most) = (sweeps.clone().min(), sweeps.max());
                assert!(fewest < most, "lanes must freeze at different sweeps");
                for j in 0..k {
                    let what = format!("{schedule:?} shards {shards} mask {mask:?} lane {j}");
                    if !live(j) {
                        assert_eq!(bits(&lane_of(&v, j, k)), bits(&v0s[j]), "{what}");
                        let unswept = LaneReport {
                            iterations: 0,
                            residual: 0.0,
                            converged: true,
                        };
                        assert_eq!(lanes[j], unswept, "{what}");
                        continue;
                    }
                    let mut solo = v0s[j].clone();
                    let rep = build(schedule, shards)
                        .solve(&injections[j], &mut solo, 1e-10, 100_000)
                        .unwrap();
                    assert_eq!(bits(&lane_of(&v, j, k)), bits(&solo), "{what}");
                    assert_eq!(lanes[j].iterations, rep.iterations, "{what}");
                    assert_eq!(lanes[j].residual.to_bits(), rep.residual.to_bits());
                    assert!(lanes[j].converged, "{what}");
                }
            }
        }
    }

    #[test]
    fn batch_thread_count_invariant_under_mask() {
        // A sparse mask freezes most lanes from sweep 0; iterates must
        // still be bitwise invariant in the thread count.
        let (w, h, k) = (17, 12, 8);
        let (fixed, v0s, injections) = batch_fixture(9, w, h, k);
        let injection = interleave(&injections);
        let mask: Vec<bool> = (0..k).map(|j| j == 2 || j == 5).collect();
        let mut v1 = interleave(&v0s);
        let mut lanes1 = vec![LaneReport::default(); k];
        engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 1 })
            .solve_batch_masked(
                &injection,
                &mut v1,
                1e-10,
                100_000,
                1.0,
                Some(&mask),
                &mut lanes1,
            )
            .unwrap();
        for threads in [2usize, 4] {
            let mut vt = interleave(&v0s);
            let mut lanes = vec![LaneReport::default(); k];
            engine(w, h, &fixed, SweepSchedule::RedBlack { threads })
                .solve_batch_masked(
                    &injection,
                    &mut vt,
                    1e-10,
                    100_000,
                    1.0,
                    Some(&mask),
                    &mut lanes,
                )
                .unwrap();
            assert_eq!(v1, vt, "{threads} threads must be bitwise equal");
            assert_eq!(lanes, lanes1);
        }
    }

    #[test]
    fn masked_lanes_stay_untouched() {
        let (w, h, k) = (11, 8, 3);
        let (fixed, v0s, injections) = batch_fixture(4, w, h, k);
        let injection = interleave(&injections);
        for schedule in [
            SweepSchedule::Sequential,
            SweepSchedule::RedBlack { threads: 2 },
        ] {
            let mut v = interleave(&v0s);
            let before = lane_of(&v, 1, k);
            let mask = [true, false, true];
            let mut lanes = vec![LaneReport::default(); k];
            engine(w, h, &fixed, schedule)
                .solve_batch_masked(
                    &injection,
                    &mut v,
                    1e-10,
                    100_000,
                    1.0,
                    Some(&mask),
                    &mut lanes,
                )
                .unwrap();
            assert_eq!(lane_of(&v, 1, k), before, "{schedule:?}");
            assert_eq!(lanes[1].iterations, 0);
            assert!(lanes[1].converged);
            // The active lanes still match their solo solves.
            let mut v_solo = v0s[0].clone();
            engine(w, h, &fixed, schedule)
                .solve(&injections[0], &mut v_solo, 1e-10, 100_000)
                .unwrap();
            assert_eq!(lane_of(&v, 0, k), v_solo, "{schedule:?}");
        }
    }

    #[test]
    fn batch_budget_exhaustion_reports_per_lane() {
        let (w, h) = (16, 16);
        let mut fixed = vec![false; w * h];
        fixed[0] = true;
        let k = 2;
        // Lane 0 trivially converged (zero injection, uniform start);
        // lane 1 needs real work but only gets 2 sweeps.
        let v0s = vec![vec![1.8; w * h], {
            let mut v = vec![0.0; w * h];
            v[0] = 1.8;
            v
        }];
        let injections = vec![vec![0.0; w * h]; k];
        for schedule in [
            SweepSchedule::Sequential,
            SweepSchedule::RedBlack { threads: 2 },
        ] {
            let mut v = interleave(&v0s);
            let injection = interleave(&injections);
            let mut lanes = vec![LaneReport::default(); k];
            let agg = engine(w, h, &fixed, schedule)
                .solve_batch(&injection, &mut v, 1e-12, 2, &mut lanes)
                .unwrap();
            assert!(!agg.converged, "{schedule:?}");
            assert!(lanes[0].converged, "{schedule:?}");
            assert!(!lanes[1].converged, "{schedule:?}");
            assert_eq!(lanes[1].iterations, 2);
            assert!(
                lanes[1].residual.is_finite() && lanes[1].residual > 1e-12,
                "{schedule:?}: lane 1 residual {}",
                lanes[1].residual
            );
            assert_eq!(agg.residual.to_bits(), lanes[1].residual.to_bits());
        }
    }

    #[test]
    fn batch_rejects_invalid_inputs() {
        let mut e = engine(6, 4, &[false; 24], SweepSchedule::Sequential);
        let mut lanes = vec![LaneReport::default(); 2];
        let mut v = vec![0.0; 48];
        let inj = vec![0.0; 48];
        // Wrong array length.
        assert!(e
            .solve_batch(&inj[..47], &mut v, 1e-6, 10, &mut lanes)
            .is_err());
        // Empty batch.
        assert!(e.solve_batch(&[], &mut [], 1e-6, 10, &mut []).is_err());
        // Bad mask length.
        assert!(e
            .solve_batch_masked(&inj, &mut v, 1e-6, 10, 1.0, Some(&[true]), &mut lanes)
            .is_err());
        // Bad omega.
        assert!(e
            .solve_batch_masked(&inj, &mut v, 1e-6, 10, 2.5, None, &mut lanes)
            .is_err());
    }

    #[test]
    fn pool_reuse_across_engine_sizes_is_correct_and_bounded() {
        // One isolated pool serves engines of very different sizes in
        // alternation: results must match fresh solves and the pinned
        // worker scratch must stop growing after the largest engine has
        // been seen once.
        let pool = Arc::new(WorkerPool::new());
        let sizes = [(26usize, 19usize, 3u64), (8, 6, 4), (26, 19, 3), (8, 6, 4)];
        let mut reference: Vec<Vec<f64>> = Vec::new();
        // Pass 1 (cold): collect reference solutions from fresh engines.
        for &(w, h, seed) in &sizes {
            let (fixed, v0, injection) = random_problem(seed, w, h);
            let mut v = v0.clone();
            engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 3 })
                .solve(&injection, &mut v, 1e-10, 100_000)
                .unwrap();
            reference.push(v);
        }
        let run_cycle = |pool: &Arc<WorkerPool>| {
            for (i, &(w, h, seed)) in sizes.iter().enumerate() {
                let (fixed, v0, injection) = random_problem(seed, w, h);
                let mut e = engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 3 });
                e.set_pool(Arc::clone(pool));
                let mut v = v0.clone();
                e.solve(&injection, &mut v, 1e-10, 100_000).unwrap();
                assert_eq!(v, reference[i], "size case {i}");
                // A batched solve on the same pool exercises the batch
                // scratch sizing too.
                let k = 3;
                let inj_b = interleave(&vec![injection.clone(); k]);
                let mut v_b = interleave(&vec![v0.clone(); k]);
                let mut lanes = vec![LaneReport::default(); k];
                e.solve_batch(&inj_b, &mut v_b, 1e-10, 100_000, &mut lanes)
                    .unwrap();
                for j in 0..k {
                    assert_eq!(lane_of(&v_b, j, k), reference[i], "size case {i} lane {j}");
                }
            }
        };
        run_cycle(&pool);
        let after_first = pool.scratch_bytes();
        assert!(after_first > 0);
        run_cycle(&pool);
        run_cycle(&pool);
        assert_eq!(
            pool.scratch_bytes(),
            after_first,
            "pool scratch must not grow when engine sizes alternate"
        );
        assert_eq!(pool.workers_spawned(), 2);
    }

    fn sharded_engine(
        w: usize,
        h: usize,
        fixed: &[bool],
        threads: usize,
        shards: usize,
    ) -> TierEngine {
        TierEngine::new_sharded(
            w,
            h,
            1.25,
            0.8,
            Arc::from(fixed),
            None,
            SweepSchedule::RedBlack { threads },
            shards,
        )
        .unwrap()
    }

    #[test]
    fn shard_layout_covers_every_segment_exactly_once() {
        let (w, h) = (29, 17);
        let (fixed, _, _) = random_problem(8, w, h);
        // One band is the single-thread slices: no layout, no halo.
        assert!(sharded_engine(w, h, &fixed, 1, 1).bands.is_none());
        for (threads, shards) in [(1usize, 2usize), (3, 4), (4, 17), (2, 5), (3, 8), (2, 40)] {
            let e = sharded_engine(w, h, &fixed, threads, shards);
            let lay = &e.bands.as_ref().unwrap().layout;
            // A band count above the height clamps to one band per row.
            assert_eq!(lay.bands.len(), shards.min(h));
            // Rows tile contiguously, band heights within 1 of each
            // other, halo rows exactly at the interior boundaries.
            let last = lay.bands.len() - 1;
            let mut y = 0usize;
            for (i, band) in lay.bands.iter().enumerate() {
                assert_eq!(band.y0, y, "threads {threads} shards {shards}");
                assert!(band.y1 > band.y0);
                assert_eq!(band.lo, if i == 0 { 0 } else { band.y0 - 1 });
                assert_eq!(band.hi, if i == last { h } else { band.y1 + 1 });
                y = band.y1;
            }
            assert_eq!(y, h);
            let rows = lay.bands.iter().map(|b| b.y1 - b.y0);
            let (min, max) = (rows.clone().min().unwrap(), rows.max().unwrap());
            assert!(max - min <= 1, "threads {threads} shards {shards}");
            let mut seen = vec![0usize; e.topo.segments.len()];
            for band in &lay.bands {
                let red = &e.topo.red_idx[band.red.clone()];
                for &si in red.iter().chain(&e.topo.black_idx[band.black.clone()]) {
                    let seg = e.topo.segments[si as usize];
                    let y = seg.row as usize;
                    assert!(y >= band.y0 && y < band.y1, "segment outside owned rows");
                    assert_eq!(y % 2 == 0, red.contains(&si));
                    seen[si as usize] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "threads {threads} shards {shards}"
            );
            let mut expect_begin = 0usize;
            for c in &lay.chunks {
                assert_eq!(c.start, expect_begin, "band chunks must be contiguous");
                expect_begin = c.end;
            }
            assert_eq!(expect_begin, lay.bands.len());
            assert_eq!(lay.chunks.len(), threads);
        }
    }

    #[test]
    fn every_pool_thread_owns_a_band() {
        let (w, h) = (16, 16);
        let (fixed, _, _) = random_problem(6, w, h);
        for (threads, shards) in [(2usize, 1usize), (3, 1), (3, 2), (4, 2), (8, 4)] {
            let e = sharded_engine(w, h, &fixed, threads, shards);
            assert_eq!(
                e.shards(),
                shards.max(threads),
                "threads {threads} shards {shards}"
            );
            let lay = &e.bands.as_ref().expect("a band job").layout;
            assert_eq!(lay.chunks.len(), threads);
            assert!(
                lay.chunks.iter().all(|c| !c.is_empty()),
                "threads {threads} shards {shards}: {:?}",
                lay.chunks
            );
        }
    }

    #[test]
    fn sharded_solve_is_bitwise_equal_to_unsharded_redblack() {
        let (w, h) = (17, 12);
        for seed in [2u64, 7] {
            let (fixed, v0, injection) = random_problem(seed, w, h);
            let mut v_ref = v0.clone();
            let rep_ref = engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 1 })
                .solve(&injection, &mut v_ref, 1e-10, 100_000)
                .unwrap();
            for shards in [2usize, 3, 4, 12] {
                for threads in [1usize, 2, 3] {
                    let mut e = sharded_engine(w, h, &fixed, threads, shards);
                    assert_eq!(e.shards(), shards.max(threads));
                    let mut v = v0.clone();
                    let rep = e.solve(&injection, &mut v, 1e-10, 100_000).unwrap();
                    assert_eq!(v, v_ref, "seed {seed} shards {shards} threads {threads}");
                    assert_eq!(rep.iterations, rep_ref.iterations);
                    assert_eq!(rep.residual.to_bits(), rep_ref.residual.to_bits());
                }
            }
        }
    }

    #[test]
    fn sharding_forces_redblack_schedule() {
        let (w, h) = (13, 9);
        let (fixed, v0, injection) = random_problem(5, w, h);
        let mut e = TierEngine::new_sharded(
            w,
            h,
            1.25,
            0.8,
            Arc::from(&fixed[..]),
            None,
            SweepSchedule::Sequential,
            2,
        )
        .unwrap();
        assert_eq!(e.schedule(), SweepSchedule::RedBlack { threads: 1 });
        let mut v = v0.clone();
        e.solve(&injection, &mut v, 1e-10, 100_000).unwrap();
        let mut v_rb = v0.clone();
        engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 1 })
            .solve(&injection, &mut v_rb, 1e-10, 100_000)
            .unwrap();
        assert_eq!(v, v_rb);
    }

    #[test]
    fn sharded_sweep_once_matches_unsharded() {
        let (w, h) = (11, 8);
        let (fixed, v0, injection) = random_problem(9, w, h);
        let mut v1 = v0.clone();
        let d1 = engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 1 })
            .sweep_once(&injection, &mut v1, true, 1.0)
            .unwrap();
        for (threads, shards) in [(1usize, 3usize), (2, 2), (3, 8)] {
            let mut e = sharded_engine(w, h, &fixed, threads, shards);
            let mut v = v0.clone();
            let d = e.sweep_once(&injection, &mut v, true, 1.0).unwrap();
            assert_eq!(v, v1, "threads {threads} shards {shards}");
            assert_eq!(d.to_bits(), d1.to_bits());
        }
    }

    #[test]
    fn sharded_batch_matches_unsharded_including_masks() {
        let (w, h, k) = (15, 11, 8);
        let (fixed, v0s, injections) = batch_fixture(12, w, h, k);
        let injection = interleave(&injections);
        let masks: [Option<Vec<bool>>; 2] = [None, Some((0..k).map(|j| j % 3 != 1).collect())];
        for mask in &masks {
            let mut v_ref = interleave(&v0s);
            let mut lanes_ref = vec![LaneReport::default(); k];
            engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 1 })
                .solve_batch_masked(
                    &injection,
                    &mut v_ref,
                    1e-10,
                    100_000,
                    1.0,
                    mask.as_deref(),
                    &mut lanes_ref,
                )
                .unwrap();
            for (shards, threads) in [(2usize, 1usize), (2, 3), (4, 2), (11, 2)] {
                let mut e = sharded_engine(w, h, &fixed, threads, shards);
                let mut v = interleave(&v0s);
                let mut lanes = vec![LaneReport::default(); k];
                e.solve_batch_masked(
                    &injection,
                    &mut v,
                    1e-10,
                    100_000,
                    1.0,
                    mask.as_deref(),
                    &mut lanes,
                )
                .unwrap();
                assert_eq!(
                    v,
                    v_ref,
                    "shards {shards} threads {threads} masked {}",
                    mask.is_some()
                );
                assert_eq!(lanes, lanes_ref);
            }
        }
    }

    #[test]
    fn sharded_budget_exhaustion_is_error() {
        let (w, h) = (9, 7);
        let (fixed, v0, injection) = random_problem(1, w, h);
        let mut e = sharded_engine(w, h, &fixed, 2, 2);
        let mut v = v0.clone();
        match e.solve(&injection, &mut v, 1e-14, 3) {
            Err(SolverError::DidNotConverge { iterations: 3, .. }) => {}
            other => panic!("expected 3-sweep budget error, got {other:?}"),
        }
        match e.solve(&injection, &mut v, 1e-14, 0) {
            Err(SolverError::DidNotConverge { iterations: 0, .. }) => {}
            other => panic!("expected 0-sweep budget error, got {other:?}"),
        }
    }

    #[test]
    fn sharded_warm_solves_do_not_grow_workspace_and_forks_match() {
        let (w, h) = (20, 15);
        let (fixed, v0, injection) = random_problem(3, w, h);
        let mut e = sharded_engine(w, h, &fixed, 2, 2);
        let mut v = v0.clone();
        e.solve(&injection, &mut v, 1e-10, 100_000).unwrap();
        let mut fork = e.fork();
        let mut v_fork = v0.clone();
        fork.solve(&injection, &mut v_fork, 1e-10, 100_000).unwrap();
        assert_eq!(v_fork, v);
        let after_first = e.memory_bytes();
        for _ in 0..3 {
            let mut v2 = v0.clone();
            e.solve(&injection, &mut v2, 1e-10, 100_000).unwrap();
            assert_eq!(v2, v);
        }
        assert_eq!(
            e.memory_bytes(),
            after_first,
            "warm sharded solves must reuse the halo images"
        );
        // The halo images and layout show up in the accounting.
        let plain = engine(w, h, &fixed, SweepSchedule::RedBlack { threads: 1 });
        assert!(e.memory_bytes() > plain.memory_bytes());
    }
}
