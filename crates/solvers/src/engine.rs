//! The prefactored row-sweep engine with red-black parallel scheduling.
//!
//! Row-based iteration treats each grid row as one block of a block
//! Gauss–Seidel iteration; pinned nodes cut a row into independent
//! tridiagonal segments. Two facts make the inner kernel fast:
//!
//! 1. **The segment matrices never change.** Across sweeps, outer
//!    iterations, and colors, only the right-hand sides move. The engine
//!    factors every distinct segment once at construction into a shared
//!    [`FactoredSegments`] arena (segments with bitwise-equal diagonals
//!    share one slice, so a pitch-2 tier holds a handful), so a sweep is
//!    pure forward/backward substitution (`3N` multiplies per row instead
//!    of the `5N-4` the paper quotes for a from-scratch Thomas pass) and
//!    never allocates.
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
//! Either path keeps one per-solve state: the slices' loop buffers, or
//! the band job's images and lane slots. It is sized by the first solve,
//! grows to the widest batch the engine has served, and never shrinks.
//!
//! On either path a one-lane red-black sweep runs the point loop and the
//! block kernel over work lists built with the engine (see *Blocked lane
//! kernels*); sequential sweeps and `k > 1` batches sweep segment by
//! segment.
//!
//! # One solve path: a scalar solve is a batch of one
//!
//! [`TierEngine::solve`], [`TierEngine::solve_with_omega`] and
//! [`TierEngine::sweep_once`] run as one-lane batched solves, keeping
//! the scalar error semantics (an exhausted budget is
//! [`SolverError::DidNotConverge`]). Both paths pick the kernel from the
//! lane count and the schedule alone: one lane runs the scalar kernels on
//! the plain image (a one-lane node-major image *is* the plain vector),
//! the point loop and blocks under red-black and the per-segment kernel
//! under the sequential schedule; more lanes run the lane-blocked kernel.
//! A `k`-lane solve uses the first
//! `k` lanes of the one state, so single solves and batches of any width
//! up to the widest served alternate without allocating.
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
//! is invisible too. The scalar kernels use the same fused forms,
//! preserving the batch ≡ scalar contract.
//!
//! The one-lane red-black kernels treat a colour's independent
//! *segments* as lanes instead. Pillars on the paper's pitch-2 lattice
//! cut every even row into one-node segments; the **point loop** sweeps
//! the interior ones (both in-row neighbours pinned, a row above and
//! below) from a compact `(node, factor offset)` list. A **block** holds
//! up to 8 same-colour segments of one band with equal length and equal
//! neighbour terms, filled in row order with one open block per shape;
//! its passes step every lane at each position, so the lanes' Thomas
//! chains overlap. Both do exactly the per-segment kernel's fused
//! operations in its term order (left, right, up, down; forward step,
//! backward step; the relaxed update and the same `>` delta compare), so
//! a one-lane solve stays bitwise equal to lane 0 of the lane-blocked
//! kernel.
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

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, RwLock};

use crate::pool::{PoolJob, WorkerPool, WorkerScratch};
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

/// The neighbour terms of a segment's right-hand side, in the order
/// [`solve_segment`] adds them: the pinned node left of its first node,
/// the pinned node right of its last node, the row above, the row below.
const LEFT: u8 = 1;
const RIGHT: u8 = 2;
const UP: u8 = 4;
const DOWN: u8 = 8;

/// Segments a one-lane red-black block sweeps as lanes of one pass.
const BLOCK: usize = 8;

/// An interior one-node segment, swept by the one-lane point loop.
#[derive(Debug, Clone, Copy)]
struct Point {
    node: u32,
    /// Factor-arena offset.
    offset: u32,
}

/// Up to [`BLOCK`] same-colour segments of one band with the same length
/// and neighbour terms, swept as lanes of one forward/backward pass.
#[derive(Debug, Clone, Copy)]
struct Block {
    len: u32,
    lanes: u8,
    terms: u8,
    /// Each lane's first node and factor-arena offset (the first `lanes`
    /// are used).
    node: [u32; BLOCK],
    offset: [u32; BLOCK],
}

/// One band's segments of one colour (the whole tier's on the
/// single-thread slices): a range of the colour's segment index, which
/// `k > 1` lanes sweep, and the points and blocks one lane sweeps.
#[derive(Debug, Clone)]
struct Span {
    segments: Range<usize>,
    points: Range<usize>,
    blocks: Range<usize>,
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

/// The immutable per-tier structure shared between the engine, its
/// forks and its pool jobs: geometry, factors and band layout.
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
    by_colour: [Vec<u32>; 2],
    /// Segments with bitwise-equal diagonals share one factor slice.
    factors: FactoredSegments,
    /// The one-lane red-black work, band after band, colour after colour
    /// (empty on a sequential engine).
    points: Vec<Point>,
    blocks: Vec<Block>,
    /// Per band (one entry on the single-thread slices; none on a
    /// sequential engine), each colour's span.
    spans: Vec<[Span; 2]>,
    /// The band layout of a band engine; `None` on the single-thread
    /// slices.
    layout: Option<BandLayout>,
}

impl Topo {
    fn n(&self) -> usize {
        self.width * self.height
    }

    /// Adds the spans of rows `y0..y1`: each colour's interior one-node
    /// segments become points, the others fill blocks of segments with
    /// equal length and terms in row order (so no block straddles a
    /// band).
    fn push_spans(&mut self, y0: usize, y1: usize) {
        let (w, h) = (self.width, self.height);
        let spans = [0, 1].map(|colour| {
            let idx = &self.by_colour[colour];
            let below =
                |y: usize| idx.partition_point(|&si| (self.segments[si as usize].row as usize) < y);
            let segments = below(y0)..below(y1);
            let (p0, b0) = (self.points.len(), self.blocks.len());
            // The block each shape is filling (setup only).
            let mut open: HashMap<(u32, u8), usize> = HashMap::new();
            for &si in &idx[segments.clone()] {
                let seg = self.segments[si as usize];
                let (node, offset) = (seg.row * w as u32 + seg.start, seg.offset);
                // A segment is a maximal run of free nodes: an in-row
                // neighbour is pinned unless the segment ends at the edge.
                let (y, end) = (seg.row as usize, (seg.start + seg.len) as usize);
                let term = |present: bool, term: u8| if present { term } else { 0 };
                let terms = term(seg.start > 0, LEFT)
                    | term(end < w, RIGHT)
                    | term(y > 0, UP)
                    | term(y + 1 < h, DOWN);
                if seg.len == 1 && terms == LEFT | RIGHT | UP | DOWN {
                    self.points.push(Point { node, offset });
                    continue;
                }
                let slot = open.entry((seg.len, terms)).or_insert(usize::MAX);
                match self.blocks.get_mut(*slot) {
                    Some(b) if usize::from(b.lanes) < BLOCK => {
                        b.node[usize::from(b.lanes)] = node;
                        b.offset[usize::from(b.lanes)] = offset;
                        b.lanes += 1;
                    }
                    _ => {
                        *slot = self.blocks.len();
                        self.blocks.push(Block {
                            len: seg.len,
                            lanes: 1,
                            terms,
                            node: [node; BLOCK],
                            offset: [offset; BLOCK],
                        });
                    }
                }
            }
            Span {
                segments,
                points: p0..self.points.len(),
                blocks: b0..self.blocks.len(),
            }
        });
        self.spans.push(spans);
    }

    /// Substitution scratch a `k`-lane sweep needs: a one-lane red-black
    /// block keeps [`BLOCK`] lanes of intermediates.
    fn scratch_len(&self, k: usize) -> usize {
        let lanes = k.max(if self.spans.is_empty() { 1 } else { BLOCK });
        self.factors.max_segment_len() * lanes
    }

    /// The band layout (present on every engine that runs a band job).
    fn layout(&self) -> &BandLayout {
        self.layout
            .as_ref()
            .expect("a band job's tier has a band layout")
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.segments.capacity() * size_of::<Segment>()
            + self.by_colour.iter().map(Vec::capacity).sum::<usize>() * size_of::<u32>()
            + self.factors.memory_bytes()
            + self.points.capacity() * size_of::<Point>()
            + self.blocks.capacity() * size_of::<Block>()
            + self.spans.capacity() * size_of::<[Span; 2]>()
            + self.fixed.len()
            + self.layout.as_ref().map_or(0, BandLayout::memory_bytes)
    }
}

/// Per-solve inputs of a parallel batched solve.
#[derive(Debug)]
struct BatchInput {
    /// The solve's lane count, at most the job's capacity.
    k: usize,
    /// Node-major/lane-minor right-hand sides, `n * k` used.
    injection: Vec<f64>,
    omega: f64,
    tolerance: f64,
    max_sweeps: usize,
}

/// The band job's per-solve inputs and per-lane bookkeeping: the staged
/// right-hand sides, which lanes still sweep, every lane's outcome, and
/// the job status. The dispatching engine writes it before a job starts;
/// while the job runs, thread 0 is its only writer. Every per-lane
/// buffer has room for the job's lane capacity; a `k`-lane solve uses
/// the first `k` lanes.
#[derive(Debug)]
struct LaneSlots {
    input: RwLock<BatchInput>,
    /// Per-sweep delta slots, `threads × k` used (thread `t`'s lane `j`
    /// at `t * k + j`), reduced over the threads.
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
    /// Slots for up to `lanes` lanes of an `n`-node tier on `threads`
    /// threads.
    fn new(n: usize, lanes: usize, threads: usize) -> Self {
        LaneSlots {
            input: RwLock::new(BatchInput {
                k: 0,
                injection: vec![0.0; n * lanes],
                omega: 1.0,
                tolerance: 0.0,
                max_sweeps: 0,
            }),
            deltas: (0..threads * lanes).map(|_| AtomicU64::new(0)).collect(),
            live: AtomicUsize::new(0),
            lane_iters: (0..lanes).map(|_| AtomicUsize::new(0)).collect(),
            lane_residual: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            lane_converged: (0..lanes).map(|_| AtomicBool::new(false)).collect(),
            sweeps_done: AtomicUsize::new(0),
            status: AtomicUsize::new(RUN),
            barrier: Barrier::new(threads),
        }
    }

    /// Stages one solve of `lanes.len()` lanes: its inputs and every
    /// lane's starting state. Returns the number of lanes that will
    /// sweep.
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
            input.k = lanes.len();
            input.injection[..injection.len()].copy_from_slice(injection);
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

    /// Thread 0's end-of-sweep step for a `k`-lane solve: folds each live
    /// lane's deltas over the `threads` threads' slots (`f64::max`,
    /// exact), freezes the lanes that met the tolerance, and sets the job
    /// status. Freezing — and so every lane's iterate — therefore cannot
    /// depend on the thread or band count. It writes only what changed: a
    /// lane's outcome when it freezes or the job ends, the live count
    /// when a lane froze. The other workers read these slots every sweep,
    /// and a store to them would cost each worker a cache miss per sweep
    /// — what a one-lane solve on a small tier cannot afford.
    fn reduce(&self, k: usize, threads: usize, tolerance: f64, max_sweeps: usize) {
        let sweep = self.sweeps_done.fetch_add(1, Ordering::Relaxed) + 1;
        let last = sweep >= max_sweeps;
        let (mut live, mut froze) = (0usize, false);
        for j in 0..k {
            if self.lane_converged[j].load(Ordering::Relaxed) {
                continue;
            }
            let d = (0..threads)
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

/// One row band: its owned and halo-extended rows. Its segments are the
/// band's entry of `Topo::spans`.
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
}

/// The frozen band layout of a tier: the bands and a contiguous
/// band→thread split. Part of the tier's [`Topo`], so every job and
/// every [`TierEngine::fork`] shares it.
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
    fn build(height: usize, bands: usize, threads: usize) -> BandLayout {
        let bands: Vec<Band> = row_bands(height, bands)
            .map(|RowBand { y0, y1, lo, hi }| Band { y0, y1, lo, hi })
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

/// The pool job of a band engine. Each band owns a private
/// halo-extended voltage image. The images and lane slots have room for
/// `lanes` lanes, the widest batch the engine has served; a `k`-lane
/// solve (scalar solves run as `k = 1` — the batch-of-1 ≡ solo contract
/// makes that bitwise-free) uses the first `(hi - lo) * width * k` slots
/// of each image, node-major/lane-minor as always.
#[derive(Debug)]
struct BandJob {
    topo: Arc<Topo>,
    /// Lane capacity.
    lanes: usize,
    slots: LaneSlots,
    /// Per-band halo-extended voltage images, `(hi - lo) * width * lanes`
    /// slots each, in halo-local coordinates.
    images: Vec<Vec<AtomicU64>>,
}

impl BandJob {
    fn new(topo: Arc<Topo>, lanes: usize) -> Self {
        let layout = topo.layout();
        let wl = topo.width * lanes;
        let images = layout
            .bands
            .iter()
            .map(|b| (0..(b.hi - b.lo) * wl).map(|_| AtomicU64::new(0)).collect())
            .collect();
        BandJob {
            slots: LaneSlots::new(topo.n(), lanes, layout.chunks.len()),
            images,
            topo,
            lanes,
        }
    }

    /// Band `s`'s push after its `phase` half-sweep (0 = red/even rows,
    /// 1 = black/odd) of a `k`-lane solve: copies each owned boundary row
    /// of that color into the halo image of the neighbour that reads it.
    fn push_halos(&self, s: usize, phase: usize, k: usize) {
        let band = &self.topo.layout().bands[s];
        if band.lo < band.y0 && band.y0 % 2 == phase {
            self.copy_row(s, s - 1, band.y0, k);
        }
        if band.hi > band.y1 && (band.y1 - 1) % 2 == phase {
            self.copy_row(s, s + 1, band.y1 - 1, k);
        }
    }

    /// Copies global row `y` of a `k`-lane solve from band `src`'s image
    /// into band `dst`'s.
    fn copy_row(&self, src: usize, dst: usize, y: usize, k: usize) {
        let bands = &self.topo.layout().bands;
        let wk = self.topo.width * k;
        let row0 = y * wk;
        let d0 = row0 - bands[dst].lo * wk;
        let s0 = row0 - bands[src].lo * wk;
        for (d, s) in self.images[dst][d0..d0 + wk]
            .iter()
            .zip(&self.images[src][s0..s0 + wk])
        {
            d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Scatters the `k`-lane image `v` into every band image, halo rows
    /// included, so the first red half-sweep reads correct neighbour
    /// values.
    fn load(&self, v: &[f64], k: usize) {
        let wk = self.topo.width * k;
        for (band, image) in self.topo.layout().bands.iter().zip(&self.images) {
            for (slot, &x) in image.iter().zip(&v[band.lo * wk..band.hi * wk]) {
                slot.store(x.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Gathers every band's **owned** rows of a `k`-lane solve back into
    /// `v`.
    fn store(&self, v: &mut [f64], k: usize) {
        let wk = self.topo.width * k;
        for (band, image) in self.topo.layout().bands.iter().zip(&self.images) {
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
        let layout = topo.layout();
        let slots = &self.slots;
        let input = slots.input.read().expect("lane input lock");
        let k = input.k;
        let wk = topo.width * k;
        let injection = &input.injection[..topo.n() * k];
        ws.ensure(topo.scratch_len(k), k);
        let WorkerScratch { f, active, delta } = ws;
        let scratch = &mut f[..];
        let active = &mut active[..k];
        let delta = &mut delta[..k];
        let mine = layout.chunks[tid].clone();
        let mut m = usize::MAX;
        loop {
            m = slots.snapshot(m, active);
            delta.fill(0.0);
            for phase in 0..2 {
                for s in mine.clone() {
                    sweep_span(
                        topo,
                        phase,
                        &topo.spans[s][phase],
                        injection,
                        input.omega,
                        k,
                        active,
                        scratch,
                        &mut BandView {
                            image: &self.images[s],
                            off: layout.bands[s].lo * wk,
                        },
                        delta,
                    );
                    self.push_halos(s, phase, k);
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
                let threads = layout.chunks.len();
                slots.reduce(k, threads, input.tolerance, input.max_sweeps);
            }
            slots.barrier.wait();
            if !slots.running() {
                return;
            }
        }
    }
}

/// A tier's prefactored row-sweep engine.
///
/// Built once per tier, reused across every sweep and outer iteration.
/// Construction factors the frozen half (segments, pin mask, band
/// layout); the one per-solve state (the single-thread slices' loop
/// buffers, or the band job) is sized by the first solve, so an engine
/// that is only forked from costs its frozen half alone. That state
/// grows to the widest batch the engine has served and never shrinks:
/// once a lane count has been served, **no heap allocation** happens on
/// any solve or sweep path of that many lanes or fewer, single solves
/// and batches of mixed widths alternating included. The band job runs
/// on the persistent [`WorkerPool`], so this holds for a parallel
/// [`TierEngine::solve`] (or [`TierEngine::solve_batch`]) after the
/// pool's one-time warm-up — dispatching a solve to the parked workers
/// costs two mutex hand-offs.
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
    /// The single-thread slices' loop buffers (unused on the band job):
    /// the substitution scratch (`Topo::scratch_len`), an active flag
    /// and a delta per lane.
    slices: WorkerScratch,
    /// The band job of an engine with a band layout; every solve path
    /// runs on it. Built by the first solve, rebuilt only by a batch
    /// wider than any before.
    job: Option<Arc<BandJob>>,
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
        // Nodes and factor offsets are stored as `u32`.
        let Some(n) = width
            .checked_mul(height)
            .filter(|&n| u32::try_from(n).is_ok())
        else {
            return Err(SolverError::Unsupported {
                what: format!("a {width} × {height} tier exceeds 2^32 nodes"),
            });
        };
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
        // Setup only. Every in-segment coupling is `-g_h`, so segments
        // with bitwise-equal diagonals have equal factors and share one
        // slice: `factored` holds each factored diagonal at its arena
        // offset, `by_hash` its `(offset, len)` by a hash of its bits.
        let couplings = vec![-g_h; width];
        let mut diag = Vec::new();
        let mut factored: Vec<f64> = Vec::new();
        let mut by_hash: HashMap<u64, (usize, usize)> = HashMap::new();
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
                diag.clear();
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
                }
                let hash = diag.iter().fold(len as u64, |h, d| {
                    (h.rotate_left(17) ^ d.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                });
                let twin = by_hash.get(&hash).filter(|&&(o, l)| {
                    l == len
                        && factored[o..o + l]
                            .iter()
                            .zip(&diag)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                });
                let offset = match twin {
                    Some(&(o, _)) => o,
                    None => {
                        let c = &couplings[..len - 1];
                        let o = factors.push_segment(c, &diag, c)?;
                        factored.extend_from_slice(&diag);
                        by_hash.insert(hash, (o, len));
                        o
                    }
                };
                segments.push(Segment {
                    row: y as u32,
                    start: start as u32,
                    len: len as u32,
                    offset: offset as u32,
                });
            }
        }

        let by_colour = [0, 1].map(|colour| {
            (0..segments.len() as u32)
                .filter(|&i| segments[i as usize].row % 2 == colour)
                .collect::<Vec<u32>>()
        });
        let mut topo = Topo {
            width,
            height,
            g_h,
            g_v,
            fixed,
            segments,
            by_colour,
            factors,
            points: Vec::new(),
            blocks: Vec::new(),
            spans: Vec::new(),
            layout: None,
        };
        let nb = shards.max(threads).min(height);
        if nb > 1 {
            let layout = BandLayout::build(height, nb, threads);
            for band in &layout.bands {
                topo.push_spans(band.y0, band.y1);
            }
            topo.layout = Some(layout);
        } else if schedule != SweepSchedule::Sequential {
            topo.push_spans(0, height);
        }
        // The frozen half outlives every solve: keep only what it holds.
        topo.segments.shrink_to_fit();
        topo.by_colour.iter_mut().for_each(Vec::shrink_to_fit);
        topo.factors.shrink_to_fit();
        topo.points.shrink_to_fit();
        topo.blocks.shrink_to_fit();
        topo.spans.shrink_to_fit();

        Ok(TierEngine {
            topo: Arc::new(topo),
            schedule,
            pool: None,
            slices: WorkerScratch::default(),
            job: None,
        })
    }

    /// The schedule this engine sweeps with.
    pub fn schedule(&self) -> SweepSchedule {
        self.schedule
    }

    /// Number of row bands the solve paths sweep: `max(shards, threads)`
    /// clamped to the tier height on the band job, 1 on the
    /// single-thread slices.
    pub fn shards(&self) -> usize {
        self.topo.layout.as_ref().map_or(1, |l| l.bands.len())
    }

    /// Overrides the worker pool parallel solves run on (default: the
    /// process-global [`WorkerPool::global`]). Mainly for tests and
    /// benchmarks that need an isolated pool.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// A new engine sharing this engine's frozen half — the factored
    /// segments, the pin mask, and the band layout (one `Arc` bump, no
    /// refactorization) — with **fresh** per-solve mutable state (the
    /// slices' loop buffers or the band job), which the fork's first
    /// solve sizes.
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
            slices: WorkerScratch::default(),
            job: None,
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
        // A one-lane batch: bitwise free by the batch-of-1 ≡ solo
        // contract, with the scalar budget-exhaustion error kept.
        let mut lanes = [LaneReport::default()];
        let report =
            self.solve_batch_masked(injection, v, tolerance, max_sweeps, omega, None, &mut lanes)?;
        if report.converged {
            Ok(report)
        } else {
            Err(SolverError::DidNotConverge {
                iterations: report.iterations,
                residual: report.residual,
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
        self.check_batch_call(injection, v, omega, None, 1)?;
        // One sweep of a one-lane batch that cannot converge.
        let mut lanes = [LaneReport::default()];
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
    /// job runs the red-black schedule; the single-thread slices sweep
    /// in place on `v`, the sequential schedule starting in the
    /// `downward` direction and alternating.
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
        if let Some(job) = &self.job {
            return self.run_job(job, injection, v, tolerance, max_sweeps, omega, lanes);
        }

        let topo = &*self.topo;
        let WorkerScratch { f, active, delta } = &mut self.slices;
        let (scratch, active, delta) = (&mut f[..], &mut active[..k], &mut delta[..k]);
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
                    for (colour, span) in topo.spans[0].iter().enumerate() {
                        sweep_span(
                            topo, colour, span, injection, omega, k, active, scratch, &mut view,
                            delta,
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

    /// Grows the per-solve state to `k` lanes (a no-op when it has room):
    /// a band engine rebuilds its job for `k` lanes (its workers bring
    /// their own pinned scratch), the single-thread slices grow their
    /// loop buffers. Neither ever shrinks.
    fn ensure_lanes(&mut self, k: usize) {
        let topo = &self.topo;
        if topo.layout.is_none() {
            self.slices.ensure(topo.scratch_len(k), k);
        } else if self.job.as_ref().is_none_or(|job| job.lanes < k) {
            self.job = Some(Arc::new(BandJob::new(Arc::clone(topo), k)));
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
        let (slots, k) = (&job.slots, lanes.len());
        let m = slots.publish(injection, omega, tolerance, max_sweeps, lanes);
        job.load(v, k);
        if m > 0 && max_sweeps > 0 {
            let threads = self.topo.layout().chunks.len();
            let job = Arc::clone(job) as Arc<dyn PoolJob>;
            match &self.pool {
                Some(pool) => pool.run(threads, job),
                None => WorkerPool::global().run(threads, job),
            }
        }
        job.store(v, k);
        slots.collect(lanes)
    }

    /// Estimated heap footprint in bytes: the frozen half (factored
    /// segments, pin mask, band layout) plus whatever per-solve buffers
    /// solves have sized so far. A fork reports the frozen half too,
    /// although it shares it.
    pub fn memory_bytes(&self) -> usize {
        self.topo.memory_bytes()
            + self.slices.memory_bytes()
            + self.job.as_ref().map_or(0, |job| job.memory_bytes())
    }

    /// Argument validation for every solve path; a scalar solve or sweep
    /// checks as an unmasked one-lane batch.
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
                    "tier arrays must have {n} × {k} entries (injection {}, v {})",
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

/// Sweeps `segs` (one sequential sweep order, or one colour of a
/// `k > 1` red-black sweep) for `k` lanes: one lane with the scalar
/// kernel on the plain image — a one-lane node-major image *is* the
/// plain vector, and staging a single lane through the blocked rows buys
/// nothing — more lanes with the lane-blocked kernel. A one-lane batch
/// only sweeps while its lane is live.
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

/// Sweeps one red-black span of colour `colour` for `k` lanes: one lane
/// through its point loop and its blocks, more lanes through
/// [`sweep_segments`]. Segments of one colour are independent, so the
/// order and grouping cannot change a bit.
#[allow(clippy::too_many_arguments)] // the shared batched-kernel surface
#[inline]
fn sweep_span<V: VoltView>(
    topo: &Topo,
    colour: usize,
    span: &Span,
    injection: &[f64],
    omega: f64,
    k: usize,
    active: &[bool],
    scratch: &mut [f64],
    view: &mut V,
    delta: &mut [f64],
) {
    if k > 1 {
        let idx = &topo.by_colour[colour][span.segments.clone()];
        let segs = idx.iter().map(|&si| topo.segments[si as usize]);
        return sweep_segments(
            topo, segs, injection, omega, k, active, scratch, view, delta,
        );
    }
    debug_assert!(active[0], "a frozen lane is never swept");
    // The one-lane kernels stay out of line (`inline(never)`): inlined
    // here, they cost the `k > 1` kernel above about 5% on a 16-lane
    // sweep, and one call per block is nothing beside its passes.
    let points = &topo.points[span.points.clone()];
    let mut d = sweep_points(topo, points, injection, omega, view, delta[0]);
    for block in &topo.blocks[span.blocks.clone()] {
        d = if usize::from(block.lanes) == BLOCK {
            solve_block::<true, V>(topo, block, injection, omega, scratch, view, d)
        } else {
            solve_block::<false, V>(topo, block, injection, omega, scratch, view, d)
        };
    }
    delta[0] = d;
}

/// The one-lane point loop: [`solve_segment`] on each interior one-node
/// segment, with its operations in its order (left, right, up, down,
/// forward and backward step, relaxed update). Returns `max_delta`
/// raised to the largest update.
#[inline(never)]
fn sweep_points<V: VoltView>(
    topo: &Topo,
    points: &[Point],
    injection: &[f64],
    omega: f64,
    view: &mut V,
    mut max_delta: f64,
) -> f64 {
    let (w, g_h, g_v) = (topo.width, topo.g_h, topo.g_v);
    let factors = &topo.factors;
    for p in points {
        let (node, offset) = (p.node as usize, p.offset as usize);
        let mut b = injection[node];
        b = g_h.mul_add(view.get(node - 1), b);
        b = g_h.mul_add(view.get(node + 1), b);
        b = g_v.mul_add(view.get(node - w), b);
        b = g_v.mul_add(view.get(node + w), b);
        let xi = factors.backward_step(offset, factors.forward_step(offset, b, 0.0), 0.0);
        let old = view.get(node);
        let new = omega.mul_add(xi - old, old);
        let delta = (new - old).abs();
        if delta > max_delta {
            max_delta = delta;
        }
        view.set(node, new);
    }
    max_delta
}

/// [`solve_segment`] on every lane of a block at once: each step of the
/// forward and backward pass runs across the lanes, so their Thomas
/// chains overlap instead of running one after another. Each lane does
/// exactly `solve_segment`'s operations; the intermediates sit in
/// `scratch` at stride [`BLOCK`]. A `FULL` block (all [`BLOCK`] lanes
/// used) runs with a constant lane count, which the compiler unrolls.
/// Returns `max_delta` raised to the largest update.
#[inline(never)]
fn solve_block<const FULL: bool, V: VoltView>(
    topo: &Topo,
    block: &Block,
    injection: &[f64],
    omega: f64,
    scratch: &mut [f64],
    view: &mut V,
    max_delta: f64,
) -> f64 {
    let (w, g_h, g_v) = (topo.width, topo.g_h, topo.g_v);
    let factors = &topo.factors;
    let len = block.len as usize;
    let lanes: usize = if FULL { BLOCK } else { block.lanes.into() };
    let (node, offset) = (&block.node, &block.offset);
    let (up, down) = (block.terms & UP != 0, block.terms & DOWN != 0);
    let mut carry = [0.0f64; BLOCK];
    for i in 0..len {
        let left = i == 0 && block.terms & LEFT != 0;
        let right = i + 1 == len && block.terms & RIGHT != 0;
        let row = &mut scratch[i * BLOCK..(i + 1) * BLOCK];
        for j in 0..lanes {
            let at = node[j] as usize + i;
            let mut b = injection[at];
            if left {
                b = g_h.mul_add(view.get(at - 1), b);
            }
            if right {
                b = g_h.mul_add(view.get(at + 1), b);
            }
            if up {
                b = g_v.mul_add(view.get(at - w), b);
            }
            if down {
                b = g_v.mul_add(view.get(at + w), b);
            }
            carry[j] = factors.forward_step(offset[j] as usize + i, b, carry[j]);
            row[j] = carry[j];
        }
    }
    // Per-lane maxima keep the lanes' chains apart; max is exact, so
    // folding them at the end gives the same delta.
    let mut lane_max = [max_delta; BLOCK];
    carry = [0.0; BLOCK];
    for i in (0..len).rev() {
        let row = &scratch[i * BLOCK..(i + 1) * BLOCK];
        for j in 0..lanes {
            let xi = factors.backward_step(offset[j] as usize + i, row[j], carry[j]);
            let at = node[j] as usize + i;
            let old = view.get(at);
            let new = omega.mul_add(xi - old, old);
            let delta = (new - old).abs();
            if delta > lane_max[j] {
                lane_max[j] = delta;
            }
            view.set(at, new);
            carry[j] = xi;
        }
    }
    lane_max
        .into_iter()
        .fold(max_delta, |m, d| if d > m { d } else { m })
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
    use crate::rowbased::{RowBased, TierProblem};

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
        let huge = (1 << 16, (1 << 16) + 1);
        let none: Arc<[bool]> = Arc::from(Vec::new());
        let err = TierEngine::new(
            huge.0,
            huge.1,
            1.0,
            1.0,
            none,
            None,
            SweepSchedule::Sequential,
        )
        .unwrap_err();
        assert!(err.to_string().contains("exceeds 2^32 nodes"), "{err}");
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
        assert!(sharded_engine(w, h, &fixed, 1, 1).topo.layout.is_none());
        for (threads, shards) in [(1usize, 2usize), (3, 4), (4, 17), (2, 5), (3, 8), (2, 40)] {
            let e = sharded_engine(w, h, &fixed, threads, shards);
            let lay = e.topo.layout();
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
            for (band, spans) in lay.bands.iter().zip(&e.topo.spans) {
                for (colour, span) in spans.iter().enumerate() {
                    for &si in &e.topo.by_colour[colour][span.segments.clone()] {
                        let y = e.topo.segments[si as usize].row as usize;
                        assert!(y >= band.y0 && y < band.y1, "segment outside owned rows");
                        assert_eq!(y % 2, colour);
                        seen[si as usize] += 1;
                    }
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
            let lay = e.topo.layout();
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

    /// A tier that reaches every one-lane red-black case: pitch-2 pins on
    /// the even rows (interior points, and one-node segments at
    /// `x = w - 1` and in rows 0 and `h - 1`), row 4 pinned at odd `x`
    /// instead (a one-node segment at `x = 0`), free odd rows (full
    /// 8-segment blocks and partial last blocks), row 23 cut by a pin
    /// (a change of length between full rows), and an extra diagonal on two
    /// points of row 10. Returns the width, height, pin mask, extra
    /// diagonal, starting voltages and injection.
    #[allow(clippy::type_complexity)]
    fn lane_path_tier() -> (usize, usize, Vec<bool>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let (w, h) = (18, 41);
        let mut fixed = vec![false; w * h];
        for y in (0..h).step_by(2) {
            for x in 0..w {
                fixed[y * w + x] = x % 2 == usize::from(y == 4);
            }
        }
        fixed[23 * w + 5] = true;
        let mut extra = vec![0.0; w * h];
        for x in [3, 5] {
            extra[10 * w + x] = 0.3;
        }
        let (_, _, noise) = random_problem(17, w, h);
        let v0 = (0..w * h)
            .map(|i| {
                if fixed[i] {
                    1.7 - 400.0 * noise[i]
                } else {
                    1.8
                }
            })
            .collect();
        let injection = (0..w * h)
            .map(|i| if fixed[i] { 0.0 } else { noise[i] - 2e-5 })
            .collect();
        (w, h, fixed, extra, v0, injection)
    }

    #[test]
    fn one_lane_redblack_paths_match_the_lane_blocked_kernel() {
        let (w, h, fixed, extra, v0, injection) = lane_path_tier();
        let build = |threads, shards| {
            let schedule = SweepSchedule::RedBlack { threads };
            let fixed = Arc::from(&fixed[..]);
            TierEngine::new_sharded(w, h, 1.25, 0.8, fixed, Some(&extra), schedule, shards).unwrap()
        };
        // The reference: lane 0 of a 2-lane batch whose lane 1 is masked
        // off, so every sweep runs the lane-blocked kernel.
        let injection2 = interleave(&[injection.clone(), injection.clone()]);
        let mut v2 = interleave(&[v0.clone(), v0.clone()]);
        let mut lanes = [LaneReport::default(); 2];
        let mask = [true, false];
        build(1, 1)
            .solve_batch_masked(
                &injection2,
                &mut v2,
                1e-11,
                100_000,
                1.3,
                Some(&mask),
                &mut lanes,
            )
            .unwrap();
        // The one-band engine's points and blocks reach every case.
        let one_band = build(1, 1);
        let blocks = &one_band.topo.blocks;
        let one_node = |missing: u8| {
            let terms = (LEFT | RIGHT | UP | DOWN) & !missing;
            blocks.iter().any(|b| b.len == 1 && b.terms == terms)
        };
        assert!(!one_band.topo.points.is_empty());
        assert!(one_node(LEFT) && one_node(RIGHT) && one_node(UP) && one_node(DOWN));
        let rows = |b: &&Block| b.len as usize == w;
        assert!(blocks.iter().filter(rows).any(|b| b.lanes == 8));
        assert!(blocks.iter().filter(rows).any(|b| b.lanes < 8));
        // Row 23's pin changes the length of its segments: they open
        // blocks of their own, and the full rows' block keeps filling
        // across them.
        let row_of = |node: u32| node as usize / w;
        assert!(blocks.iter().any(|b| b.len == 5) && blocks.iter().any(|b| b.len == 12));
        assert!(blocks.iter().filter(rows).any(|b| {
            let lanes = &b.node[..usize::from(b.lanes)];
            lanes.iter().any(|&n| row_of(n) < 23) && lanes.iter().any(|&n| row_of(n) > 23)
        }));

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (threads, shards) in [(1usize, 1usize), (2, 1), (3, 1), (1, 3), (2, 5), (3, 7)] {
            let mut e = build(threads, shards);
            let topo = &e.topo;
            // Every segment is swept exactly once, as a point or a lane.
            let mut seen = vec![0usize; w * h];
            for p in &topo.points {
                seen[p.node as usize] += 1;
            }
            for b in &topo.blocks {
                for &node in &b.node[..usize::from(b.lanes)] {
                    seen[node as usize] += 1;
                }
            }
            for seg in &topo.segments {
                assert_eq!(seen[(seg.row * w as u32 + seg.start) as usize], 1);
            }
            let mut v = v0.clone();
            let what = format!("threads {threads} shards {shards}");
            let report = e
                .solve_with_omega(&injection, &mut v, 1e-11, 100_000, 1.3)
                .unwrap();
            assert_eq!(bits(&v), bits(&lane_of(&v2, 0, 2)), "{what}");
            assert_eq!(report.iterations, lanes[0].iterations, "{what}");
            assert_eq!(
                report.residual.to_bits(),
                lanes[0].residual.to_bits(),
                "{what}"
            );
        }
    }

    #[test]
    fn equal_diagonals_share_one_factor_slice() {
        let (w, h, fixed, extra, ..) = lane_path_tier();
        let schedule = SweepSchedule::RedBlack { threads: 1 };
        let e = TierEngine::new(
            w,
            h,
            1.25,
            0.8,
            Arc::from(&fixed[..]),
            Some(&extra),
            schedule,
        )
        .unwrap();
        let offset = |x: u32, y: u32| {
            let seg = e.topo.segments.iter().find(|s| s.row == y && s.start == x);
            seg.expect("a segment starts there").offset
        };
        // Interior points with equal diagonals, on different rows.
        assert_eq!(offset(1, 2), offset(7, 10));
        // The two points with the same extra diagonal share; they differ
        // from a plain point only in `extra_diag`, so they do not share
        // with it.
        assert_eq!(offset(3, 10), offset(5, 10));
        assert_ne!(offset(3, 10), offset(1, 10));
        // Interior full rows share one slice.
        assert_eq!(offset(0, 3), offset(0, 37));

        // On a pitch-2 tier every distinct segment is factored once: a
        // few slices against three quarters of the nodes, and the engine
        // holds less than the unshared arena alone did (24 B a free node).
        let edge = 64;
        let fixed: Vec<bool> = (0..edge * edge)
            .map(|i| (i / edge) % 2 == 0 && (i % edge) % 2 == 0)
            .collect();
        let free = fixed.iter().filter(|&&f| !f).count();
        let e = engine(edge, edge, &fixed, schedule);
        assert!(e.topo.factors.len() < 4 * edge, "{}", e.topo.factors.len());
        assert!(e.memory_bytes() < 24 * free, "{} B", e.memory_bytes());
    }
}
