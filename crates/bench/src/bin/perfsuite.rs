//! `perfsuite` — the row-sweep / solver performance suite.
//!
//! Measures, on synthetic stacks:
//!
//! * the row-sweep kernels: the seed's re-eliminating sequential
//!   [`RowBased`] baseline vs the prefactored [`TierEngine`] under the
//!   sequential and red-black schedules (1, 2, and 4 threads), timed in
//!   interleaved, rotated passes keeping each kernel's fastest, median
//!   and slowest pass (the loop the `sharding` section shares);
//! * numerical agreement between the schedules (max |ΔV| of the
//!   converged solutions, required ≤ 1e-9);
//! * full `Session` solves at `parallelism` 1 and 4;
//! * the zero-allocation warm path: allocator calls/bytes across a warm
//!   `Session::solve` (expected 0 at every `parallelism` — parallel
//!   solves dispatch to the persistent worker pool once it is warm);
//! * the batched multi-load path: warm `Session::solve_batch` per-RHS
//!   time at several batch sizes against warm sequential single solves
//!   (the widest batch's per-RHS speedup, and `batch1_vs_sequential`:
//!   a one-lane batch over a single solve of the same load), with the
//!   required max |ΔV| ≤ 1e-12 agreement (the batch is
//!   bitwise-identical by construction);
//! * the persistent worker pool: small-grid per-solve latency of the
//!   pool dispatch at parallelism 2 (and 4 in full runs), **asserting
//!   zero allocator calls** across the warm pool solves;
//! * the pillar-lattice (coarse) path: a `TableCircuit` preset, whose
//!   pads sit on about one pillar in 25, so every outer iteration runs the
//!   coarse lattice solve — warm single-solve time and warm batch-16
//!   per-RHS time against warm sequential per-RHS time, **asserting zero
//!   allocator calls** on both warm requests (the other blocks build a
//!   pad on every pillar and never run that solve);
//! * the `Session` lifecycle: where the build cost goes — the build time
//!   and heap of a VoltProp-only session, then the time and heap of the
//!   first Pcg and the first Rb3d request, which build those engines —
//!   asserting `memory_bytes` within 5% of the heap at each step and
//!   **zero allocator calls** on the second Pcg and Rb3d requests; then
//!   warm single, batch-64, and 24-step `solve_steps` requests on the
//!   same session, **asserting zero allocator calls** per warm request
//!   (bitwise behavior is pinned by the saved fixture in
//!   `tests/session.rs`);
//! * the true-transient engine: `Session::transient_dynamic` stepping a
//!   waveform with backward-Euler companion models on a decap-loaded
//!   stack — warm steps/s per backend on the **single** prefactored
//!   `G + C/h` system, **asserting zero allocator calls** and zero
//!   re-prefactors across the warm step loop, plus the committed
//!   factor-reuse speedup over `refactor_each_step` (medians of
//!   alternating warm runs);
//! * the `Backend::Pcg` reference route: warm single and batch-8 PCG
//!   requests on the session's prefactored engine, **asserting zero
//!   allocator calls** and sub-0.5 mV agreement with VoltProp, recording
//!   the method's speedup over the general sparse reference;
//! * the shared-session concurrency path: one [`SharedSession`] (built
//!   at parallelism 2) serving warm solves from 1/4/16 simulated client
//!   threads — requests/s and p50/p99 per-request latency — with
//!   **zero allocator calls** asserted on the single-threaded warm
//!   checkout → solve → return hot path;
//! * the vectorized kernels: per-kernel effective GB/s of the batched
//!   solve sweep, the red-black sweep at parallelism 2, and the PCG
//!   axpy/dot core, plus the warm per-RHS latency of a converging solve
//!   at parallelism 2 — **asserting zero allocator calls** on the warm
//!   batched sweeps and the warm solve;
//! * row-band sharding: per-sweep throughput of engines asked for more
//!   bands than threads on a tier footprint that exceeds one band's
//!   cache, against the default 2-thread engine — **asserting
//!   bitwise-identical** fixed-budget states against the one-thread
//!   red-black slices and **zero allocator calls** on every warm pass —
//!   plus the same contracts at the `Session` layer, where the band
//!   count is the `parallelism` (warm single / batch / transient
//!   requests on a parallelism-4 session: 0 allocs, bitwise equal to the
//!   parallelism-2 session, zero mid-loop re-prefactors);
//! * the overload/admission path: bounded-wait `try_solve_for` shed
//!   decision latency against a saturated one-slot pool (asserted close
//!   to the configured wait — a shed must not dawdle), admission
//!   latency once the slot frees, and cooperative-deadline shed
//!   accuracy (elapsed time of a budget-starved solve vs its deadline,
//!   the overshoot bounded by one outer iteration).
//!
//! Each invocation appends one JSON entry to the trajectory file named by
//! `--out` (the committed one is `BENCH_rowbased.json` at the repository
//! root; see [`voltprop_bench::trajectory`]), building the performance
//! history future changes extend. Older entries also carry a
//! `batch_compaction` section, from the active-lane compaction this suite
//! no longer measures (it was deleted).
//!
//! Usage: `cargo run --release -p voltprop-bench --bin perfsuite --
//! --out PATH [--quick] [--batch N[,N...]] [--only SECTION[,SECTION...]]`
//! (`--help` explains them). `--only` runs and records only the named
//! sections, so one layer can be re-measured on its own. The flags are
//! strict: `--help` prints the usage and exits 0, and an unknown
//! argument, an unknown `--only` section or a missing `--out` exits 2,
//! all before any section runs or any file is written.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use voltprop_bench::alloc::{self, CountingAllocator};
use voltprop_bench::trajectory::{
    append_run, hardware_context_json, hardware_threads, json_bool, json_f64,
};
use voltprop_core::{
    Backend, Deadline, FnWaveform, LoadCase, LoadSet, Session, SessionError, SharedSession,
    SolveParams, TraceSink, TransientParams, TransientReport, TryCheckout, VpConfig,
};
use voltprop_grid::{Stack3d, TableCircuit};
use voltprop_solvers::rowbased::{RbWorkspace, RowBased, TierProblem};
use voltprop_solvers::SolverError;
use voltprop_solvers::{LaneReport, SweepSchedule, TierEngine};
use voltprop_sparse::vec_ops;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A VP-regime tier fixture: every other node pinned (the paper's TSV
/// density), uniform loads on the free nodes.
struct TierFixture {
    edge: usize,
    fixed: Vec<bool>,
    injection: Vec<f64>,
    v0: Vec<f64>,
}

impl TierFixture {
    fn new(edge: usize) -> Self {
        let n = edge * edge;
        let mut fixed = vec![false; n];
        for y in (0..edge).step_by(2) {
            for x in (0..edge).step_by(2) {
                fixed[y * edge + x] = true;
            }
        }
        let injection = (0..n).map(|i| if fixed[i] { 0.0 } else { -5e-4 }).collect();
        TierFixture {
            edge,
            fixed,
            injection,
            v0: vec![1.8; n],
        }
    }

    fn problem<'a>(&'a self, zeros: &'a [f64]) -> TierProblem<'a> {
        TierProblem {
            width: self.edge,
            height: self.edge,
            g_h: 50.0,
            g_v: 50.0,
            fixed: &self.fixed,
            extra_diag: zeros,
            injection: &self.injection,
        }
    }

    fn engine(&self, schedule: SweepSchedule) -> TierEngine {
        TierEngine::new(
            self.edge,
            self.edge,
            50.0,
            50.0,
            Arc::from(&self.fixed[..]),
            None,
            schedule,
        )
        .expect("fixture tier is well-formed")
    }
}

/// Times `sweeps` fixed-budget engine sweeps, returning ns/sweep.
fn time_engine_sweeps(fixture: &TierFixture, schedule: SweepSchedule, sweeps: usize) -> f64 {
    let mut engine = fixture.engine(schedule);
    let mut v = fixture.v0.clone();
    // Warm-up (first touch, page faults, branch history).
    let _ = engine.solve(&fixture.injection, &mut v, 0.0, sweeps.min(8));
    let mut v = fixture.v0.clone();
    let start = Instant::now();
    // tolerance 0 never triggers, so exactly `sweeps` sweeps run.
    let _ = engine.solve(&fixture.injection, &mut v, 0.0, sweeps);
    start.elapsed().as_nanos() as f64 / sweeps as f64
}

/// One timed configuration: runs the given number of sweeps on the
/// voltage vector it is handed.
type SweepRun<'a> = Box<dyn FnMut(&mut [f64], usize) + 'a>;

/// One configuration's ns per sweep over the timed passes of
/// [`min_of_passes`], and its allocator calls summed over them.
#[derive(Debug, Clone, Copy)]
struct PassStats {
    min: f64,
    median: f64,
    max: f64,
    allocs: usize,
}

impl PassStats {
    /// The JSON fields `{prefix}ns_per_sweep` (the min),
    /// `{prefix}median_ns_per_sweep` and `{prefix}max_ns_per_sweep`.
    fn json(&self, prefix: &str) -> String {
        format!(
            "\"{prefix}ns_per_sweep\": {}, \"{prefix}median_ns_per_sweep\": {}, \
             \"{prefix}max_ns_per_sweep\": {}",
            json_f64(self.min),
            json_f64(self.median),
            json_f64(self.max)
        )
    }
}

/// Times every configuration in `chunk`-sweep runs over `passes`
/// interleaved passes, each pass visiting them in a rotated order, after
/// one untimed warm-up run each (pool workers, page faults, branch
/// history); every run restarts from `v0`. Returns each configuration's
/// fastest, median and slowest ns per sweep and its allocator calls
/// summed over the timed runs. Min-of-many needs each configuration to
/// see at least one quiet slice of the host, interleaving gives no
/// configuration a quieter stretch than the others, and the rotation
/// keeps a periodic noise source from always landing on the same one. On
/// a shared host a min can sit at half its median, so a ratio between
/// configurations is best read from the medians.
fn min_of_passes(
    v0: &[f64],
    runs: &mut [SweepRun<'_>],
    chunk: usize,
    passes: usize,
) -> Vec<PassStats> {
    let mut v = v0.to_vec();
    for run in runs.iter_mut() {
        v.copy_from_slice(v0);
        run(&mut v, chunk);
    }
    let n = runs.len();
    let mut samples: Vec<Vec<f64>> = (0..n).map(|_| Vec::with_capacity(passes)).collect();
    let mut allocs = vec![0usize; n];
    for pass in 0..passes {
        for idx in 0..n {
            let i = (idx + pass) % n;
            v.copy_from_slice(v0);
            let calls_before = alloc::alloc_calls();
            let start = Instant::now();
            runs[i](&mut v, chunk);
            let ns = start.elapsed().as_nanos() as f64 / chunk as f64;
            allocs[i] += alloc::alloc_calls() - calls_before;
            samples[i].push(ns);
        }
    }
    samples
        .into_iter()
        .zip(allocs)
        .map(|(mut ns, allocs)| {
            ns.sort_by(f64::total_cmp);
            let mid = ns.len() / 2;
            let median = if ns.len() % 2 == 0 {
                0.5 * (ns[mid - 1] + ns[mid])
            } else {
                ns[mid]
            };
            PassStats {
                min: ns[0],
                median,
                max: ns[ns.len() - 1],
                allocs,
            }
        })
        .collect()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// One row-sweep comparison block on an `edge × edge` tier: the seed's
/// re-eliminating sequential kernel, the prefactored engine's sequential
/// schedule, and its red-black schedule at 1, 2 and 4 threads, timed
/// together through [`min_of_passes`].
fn row_sweep_block(edge: usize, chunk: usize, passes: usize) -> String {
    eprintln!("row sweeps {edge}x{edge} ({passes} interleaved passes of {chunk} sweeps)...");
    let fixture = TierFixture::new(edge);
    let zeros = vec![0.0; edge * edge];
    let problem = fixture.problem(&zeros);
    let rb = RowBased::default();
    let mut ws = RbWorkspace::new(edge);
    let mut runs: Vec<SweepRun<'_>> = vec![Box::new(|v, sweeps| {
        for i in 0..sweeps {
            let _ = rb.sweep_once(&problem, v, &mut ws, i % 2 == 0);
        }
    })];
    const THREADS: [usize; 3] = [1, 2, 4];
    let schedules = std::iter::once(SweepSchedule::Sequential)
        .chain(THREADS.map(|threads| SweepSchedule::RedBlack { threads }));
    for schedule in schedules {
        let mut engine = fixture.engine(schedule);
        let injection = &fixture.injection;
        // tolerance 0 never triggers, so exactly `sweeps` sweeps run.
        runs.push(Box::new(move |v, sweeps| {
            let _ = engine.solve(injection, v, 0.0, sweeps);
        }));
    }
    let best = min_of_passes(&fixture.v0, &mut runs, chunk, passes);
    let (baseline, engine_seq, rb4) = (best[0], best[1], best[4]);
    let rb_lines: Vec<String> = THREADS
        .iter()
        .zip(&best[2..])
        .map(|(threads, stats)| format!("      {{ \"threads\": {threads}, {} }}", stats.json("")))
        .collect();
    let sweeps = chunk * passes;

    // Converged-solution agreement: sequential vs 4-thread red-black.
    let mut v_seq = fixture.v0.clone();
    fixture
        .engine(SweepSchedule::Sequential)
        .solve(&fixture.injection, &mut v_seq, 1e-12, 200_000)
        .expect("sequential converges");
    let mut v_rb = fixture.v0.clone();
    fixture
        .engine(SweepSchedule::RedBlack { threads: 4 })
        .solve(&fixture.injection, &mut v_rb, 1e-12, 200_000)
        .expect("red-black converges");
    let agreement = max_abs_diff(&v_seq, &v_rb);
    assert!(
        agreement <= 1e-9,
        "red-black and sequential disagree by {agreement} V"
    );

    format!(
        "{{\n    \"grid\": \"{edge}x{edge}\",\n    \"sweeps_timed\": {sweeps},\n    \
         {},\n    {},\n    \
         \"engine_redblack\": [\n{}\n    ],\n    \
         \"speedup_redblack4_vs_seed_baseline\": {},\n    \
         \"speedup_redblack4_vs_engine_seq\": {},\n    \
         \"max_abs_dv_redblack_vs_seq\": {}\n  }}",
        baseline.json("baseline_rowbased_seq_"),
        engine_seq.json("engine_seq_"),
        rb_lines.join(",\n"),
        json_f64(baseline.min / rb4.min),
        json_f64(engine_seq.min / rb4.min),
        json_f64(agreement),
    )
}

/// One full-solver block: a prefactored `Session` at a given parallelism
/// on a stack, timed warm (built up front, second solve measured), with
/// allocator deltas across the measured solve.
fn vp_block(w: usize, h: usize, tiers: usize, parallelism: usize, dv_vs_seq: f64) -> String {
    eprintln!("Session {w}x{h}x{tiers} parallelism={parallelism}...");
    let stack = Stack3d::builder(w, h, tiers)
        .uniform_load(2e-4)
        .build()
        .expect("valid stack");
    let mut session =
        Session::build(&stack, VpConfig::new().parallelism(parallelism)).expect("session builds");
    let case = LoadCase::new(&stack);
    // Warm solve: faults pages, fills the arenas.
    session.solve(&case).expect("warm solve converges");
    let calls_before = alloc::alloc_calls();
    let bytes_before = alloc::reset_peak();
    let start = Instant::now();
    let report = *session
        .solve(&case)
        .expect("timed solve converges")
        .report();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let alloc_calls = alloc::alloc_calls() - calls_before;
    let alloc_peak_bytes = alloc::peak_bytes().saturating_sub(bytes_before);
    format!(
        "{{\n    \"grid\": \"{w}x{h}x{tiers}\",\n    \"parallelism\": {parallelism},\n    \
         \"warm_solve_ms\": {},\n    \"outer_iterations\": {},\n    \
         \"inner_sweeps\": {},\n    \"pad_mismatch_v\": {},\n    \
         \"warm_alloc_calls\": {alloc_calls},\n    \"warm_alloc_peak_bytes\": {alloc_peak_bytes},\n    \
         \"max_abs_dv_vs_parallelism1\": {}\n  }}",
        json_f64(ms),
        report.outer_iterations,
        report.inner_sweeps,
        json_f64(report.pad_mismatch),
        json_f64(dv_vs_seq),
    )
}

/// `k` load vectors for the what-if sweep: the stack's loads scaled per
/// lane into the 0.75×–1.25× band (so the lanes follow distinct but
/// comparable convergence trajectories, like a real corner sweep).
fn sweep_loads(stack: &Stack3d, k: usize) -> Vec<f64> {
    let mut loads = Vec::with_capacity(k * stack.num_nodes());
    for j in 0..k {
        let scale = 0.75 + 0.5 * j as f64 / k.max(2) as f64;
        loads.extend(stack.loads().iter().map(|l| scale * l));
    }
    loads
}

/// The batched-solve experiment: warm per-RHS `Session::solve_batch`
/// time at each batch size on one stack, plus the warm sequential
/// `Session::solve` per-RHS reference and the batch-vs-sequential
/// max |ΔV| (required ≤ 1e-12; bitwise 0 by construction). The ratios
/// are against sequential solves: the widest batch's per-RHS speedup,
/// and the one-lane batch's time over a single solve of its load.
fn batch_block(w: usize, h: usize, tiers: usize, batch_sizes: &[usize]) -> String {
    eprintln!("VpSolver batch {w}x{h}x{tiers} sizes {batch_sizes:?}...");
    let stack = Stack3d::builder(w, h, tiers)
        .uniform_load(2e-4)
        .build()
        .expect("valid stack");
    let nn = stack.num_nodes();
    let kmax = *batch_sizes.iter().max().expect("non-empty batch sizes");
    let loads = sweep_loads(&stack, kmax);

    // Warm sequential reference over the largest batch's lanes: per-RHS
    // time and the solution each batch lane must reproduce exactly. The
    // lane stacks are prebuilt and the agreement snapshots taken in a
    // separate untimed pass, so the timed window holds nothing but warm
    // single-case solves (clone/copy overhead must not pad the reference
    // the batch speedup is judged against). One session serves both the
    // sequential reference and every batch size.
    let lane_stacks: Vec<Stack3d> = (0..kmax)
        .map(|j| {
            let mut s = stack.clone();
            s.set_loads(loads[j * nn..(j + 1) * nn].to_vec())
                .expect("lane loads");
            s
        })
        .collect();
    let mut session = Session::build(&stack, VpConfig::default()).expect("session builds");
    let mut seq_voltages: Vec<Vec<f64>> = Vec::with_capacity(kmax);
    for lane_stack in &lane_stacks {
        let view = session
            .solve(&LoadCase::new(lane_stack))
            .expect("sequential solve converges");
        seq_voltages.push(view.voltages().to_vec());
    }
    // Two timed passes, keeping the faster one — same scheduler-drift
    // guard as the pool block (this host oversubscribes its one core).
    let mut seq_ms_per_rhs = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        for lane_stack in &lane_stacks {
            session
                .solve(&LoadCase::new(lane_stack))
                .expect("sequential solve converges");
        }
        let pass = start.elapsed().as_secs_f64() * 1e3 / kmax as f64;
        seq_ms_per_rhs = seq_ms_per_rhs.min(pass);
    }

    let mut batch_lines = Vec::new();
    let mut per_rhs_by_size = Vec::new();
    let mut worst_dv = 0.0f64;
    let mut lane0_ms = f64::INFINITY;
    for &k in batch_sizes {
        let set = LoadSet::new(&stack, &loads[..k * nn]);
        // Warm call sizes the arena; then three timed calls, keeping the
        // fastest (every timed call must stay allocation-free).
        session.solve_batch(&set).expect("warm batch solve");
        let calls_before = alloc::alloc_calls();
        let bytes_before = alloc::reset_peak();
        let mut ms = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            session.solve_batch(&set).expect("timed batch solve");
            ms = ms.min(start.elapsed().as_secs_f64() * 1e3);
            if k == 1 {
                // The single solve of the same load, timed alternately
                // with the one-lane batch so host drift hits both.
                let start = Instant::now();
                session
                    .solve(&LoadCase::new(&lane_stacks[0]))
                    .expect("sequential solve converges");
                lane0_ms = lane0_ms.min(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        let view = session.solve_batch(&set).expect("checked batch solve");
        let alloc_calls = alloc::alloc_calls() - calls_before;
        let alloc_peak_bytes = alloc::peak_bytes().saturating_sub(bytes_before);
        assert!(view.converged(), "batch {k}: all lanes must converge");
        for (j, seq_v) in seq_voltages.iter().take(k).enumerate() {
            let dv = max_abs_diff(view.lane_voltages(j).expect("lane in range"), seq_v);
            worst_dv = worst_dv.max(dv);
            assert!(
                dv <= 1e-12,
                "batch {k} lane {j} deviates {dv} V from the sequential solve"
            );
        }
        let ms_per_rhs = ms / k as f64;
        per_rhs_by_size.push((k, ms_per_rhs));
        batch_lines.push(format!(
            "      {{ \"batch\": {k}, \"warm_solve_ms\": {}, \"ms_per_rhs\": {}, \
             \"warm_alloc_calls\": {alloc_calls}, \"warm_alloc_peak_bytes\": {alloc_peak_bytes} }}",
            json_f64(ms),
            json_f64(ms_per_rhs),
        ));
    }
    let per_rhs_at = |k: usize| {
        per_rhs_by_size
            .iter()
            .find(|&&(b, _)| b == k)
            .map(|&(_, t)| t)
    };
    // Batching is judged against sequential single solves: the widest
    // batch per RHS, and the one-lane batch against a solve of its load.
    let speedup_largest = per_rhs_at(kmax).map_or(f64::NAN, |tk| seq_ms_per_rhs / tk);
    let batch1_vs_sequential = per_rhs_at(1).map_or(f64::NAN, |t1| t1 / lane0_ms);
    format!(
        "{{\n    \"grid\": \"{w}x{h}x{tiers}\",\n    {},\n    \
         \"sequential_warm_ms_per_rhs\": {},\n    \
         \"batches\": [\n{}\n    ],\n    \
         \"per_rhs_speedup_batch{kmax}_vs_sequential\": {},\n    \
         \"batch1_vs_sequential\": {},\n    \
         \"max_abs_dv_vs_sequential\": {}\n  }}",
        hardware_context_json(1),
        json_f64(seq_ms_per_rhs),
        batch_lines.join(",\n"),
        json_f64(speedup_largest),
        json_f64(batch1_vs_sequential),
        json_f64(worst_dv),
    )
}

/// The coarse-path experiment on a Table-I preset at `parallelism`: the
/// warm single-solve time, then warm per-RHS times of `k` sequential
/// solves and of one `k`-lane batch over the same loads, with zero
/// allocator calls asserted on the warm single and batched requests and
/// the batch lanes checked against the sequential solves (≤ 1e-12 V;
/// bitwise by construction).
fn table_circuit_block(circuit: TableCircuit, k: usize, parallelism: usize) -> String {
    eprintln!("table circuit {circuit} (batch {k}, parallelism {parallelism})...");
    let stack = circuit.build(1).expect("preset builds");
    let nn = stack.num_nodes();
    let pillars = stack.tsv_sites().len();
    let pads = stack
        .tsv_sites()
        .iter()
        .filter(|&&(x, y)| stack.is_pad(x as usize, y as usize))
        .count();
    let loads = sweep_loads(&stack, k);
    let lane_stacks: Vec<Stack3d> = (0..k)
        .map(|j| {
            let mut s = stack.clone();
            s.set_loads(loads[j * nn..(j + 1) * nn].to_vec())
                .expect("lane loads");
            s
        })
        .collect();
    let mut session =
        Session::build(&stack, VpConfig::new().parallelism(parallelism)).expect("session builds");

    let case = LoadCase::new(&stack);
    session.solve(&case).expect("warm solve converges");
    let calls_before = alloc::alloc_calls();
    let start = Instant::now();
    let report = *session.solve(&case).expect("timed solve").report();
    let single_ms = start.elapsed().as_secs_f64() * 1e3;
    let single_allocs = alloc::alloc_calls() - calls_before;
    assert_eq!(
        single_allocs, 0,
        "{circuit}: warm single solve must not allocate"
    );
    assert!(report.converged, "{circuit}: single solve converges");

    let mut seq_voltages = Vec::with_capacity(k);
    let start = Instant::now();
    for lane_stack in &lane_stacks {
        let view = session
            .solve(&LoadCase::new(lane_stack))
            .expect("sequential solve");
        seq_voltages.push(view.voltages().to_vec());
    }
    let seq_ms_per_rhs = start.elapsed().as_secs_f64() * 1e3 / k as f64;

    let set = LoadSet::new(&stack, &loads);
    session.solve_batch(&set).expect("warm batch");
    let calls_before = alloc::alloc_calls();
    let start = Instant::now();
    let view = session.solve_batch(&set).expect("timed batch");
    let batch_ms = start.elapsed().as_secs_f64() * 1e3;
    let batch_allocs = alloc::alloc_calls() - calls_before;
    assert_eq!(batch_allocs, 0, "{circuit}: warm batch must not allocate");
    assert!(view.converged(), "{circuit}: every lane converges");
    let mut worst_dv = 0.0f64;
    for (j, seq_v) in seq_voltages.iter().enumerate() {
        worst_dv = worst_dv.max(max_abs_diff(
            view.lane_voltages(j).expect("lane in range"),
            seq_v,
        ));
    }
    assert!(
        worst_dv <= 1e-12,
        "{circuit}: batch deviates {worst_dv} V from the sequential solves"
    );
    let batch_ms_per_rhs = batch_ms / k as f64;
    format!(
        "{{\n    \"circuit\": \"{circuit}\",\n    \"grid\": \"{}x{}x{}\",\n    {},\n    \
         \"pillars\": {pillars},\n    \"pads\": {pads},\n    \
         \"single_warm_ms\": {},\n    \"outer_iterations\": {},\n    \
         \"inner_sweeps\": {},\n    \"single_warm_alloc_calls\": {single_allocs},\n    \
         \"sequential_warm_ms_per_rhs\": {},\n    \"batch\": {k},\n    \
         \"batch_warm_ms\": {},\n    \"batch_ms_per_rhs\": {},\n    \
         \"batch_warm_alloc_calls\": {batch_allocs},\n    \
         \"per_rhs_speedup_batch_vs_sequential\": {},\n    \
         \"max_abs_dv_batch_vs_sequential\": {}\n  }}",
        stack.width(),
        stack.height(),
        stack.tiers(),
        hardware_context_json(parallelism),
        json_f64(single_ms),
        report.outer_iterations,
        report.inner_sweeps,
        json_f64(seq_ms_per_rhs),
        json_f64(batch_ms),
        json_f64(batch_ms_per_rhs),
        json_f64(seq_ms_per_rhs / batch_ms_per_rhs),
        json_f64(worst_dv),
    )
}

/// Times `solves` fixed-budget parallel engine solves on the worker
/// pool, returning `(ns_per_solve, alloc_calls_during_timed_loop)`.
/// `tolerance = 0` never triggers, so every solve runs exactly `sweeps`
/// sweeps and the returned error is ignored — the loop measures dispatch
/// plus sweep cost, nothing else.
fn time_dispatch_solves(
    fixture: &TierFixture,
    threads: usize,
    solves: usize,
    sweeps: usize,
) -> (f64, usize) {
    let mut engine = fixture.engine(SweepSchedule::RedBlack { threads });
    let mut v = fixture.v0.clone();
    // Warm-up: spawns pool workers, sizes pinned scratch, faults pages.
    for _ in 0..4 {
        let _ = engine.solve(&fixture.injection, &mut v, 0.0, sweeps);
    }
    let calls_before = alloc::alloc_calls();
    let start = Instant::now();
    for _ in 0..solves {
        let _ = engine.solve(&fixture.injection, &mut v, 0.0, sweeps);
    }
    let ns = start.elapsed().as_nanos() as f64 / solves as f64;
    (ns, alloc::alloc_calls() - calls_before)
}

/// The pool-latency experiment: per-solve latency of small-grid parallel
/// solves on the persistent pool at each thread count. Warm pool solves
/// must not touch the allocator (asserted — this is the CI smoke
/// contract).
fn pool_block(edge: usize, threads_list: &[usize], solves: usize, sweeps: usize) -> String {
    eprintln!("worker pool {edge}x{edge} ({solves} solves x {sweeps} sweeps)...");
    let fixture = TierFixture::new(edge);
    let mut lines = Vec::new();
    for &threads in threads_list {
        // Two passes, keeping the faster one: on oversubscribed machines
        // the scheduler drifts between runs and the minimum is the
        // stable dispatch-cost estimate.
        let mut pool_ns = f64::INFINITY;
        let mut pool_allocs = 0usize;
        for _ in 0..2 {
            let (ns, allocs) = time_dispatch_solves(&fixture, threads, solves, sweeps);
            pool_ns = pool_ns.min(ns);
            pool_allocs += allocs;
        }
        assert_eq!(
            pool_allocs, 0,
            "parallelism {threads}: warm pool solves must make zero allocator calls"
        );
        lines.push(format!(
            "      {{ \"parallelism\": {threads}, \"pool_ns_per_solve\": {}, \
             \"pool_warm_alloc_calls\": {pool_allocs} }}",
            json_f64(pool_ns),
        ));
    }
    format!(
        "{{\n    \"grid\": \"{edge}x{edge}\",\n    \"hardware_threads\": {},\n    \
         \"solves_timed\": {solves},\n    \"sweeps_per_solve\": {sweeps},\n    \
         \"dispatch\": [\n{}\n    ]\n  }}",
        hardware_threads(),
        lines.join(",\n"),
    )
}

/// Solves a stack at the given parallelism and returns the voltages (for
/// cross-parallelism agreement).
fn vp_voltages(w: usize, h: usize, tiers: usize, parallelism: usize) -> Vec<f64> {
    let stack = Stack3d::builder(w, h, tiers)
        .uniform_load(2e-4)
        .build()
        .expect("valid stack");
    let mut session =
        Session::build(&stack, VpConfig::new().parallelism(parallelism)).expect("session builds");
    let view = session
        .solve(&LoadCase::new(&stack))
        .expect("solve converges");
    view.voltages().to_vec()
}

/// The session-API experiment. First where the build cost goes: a
/// VoltProp-only [`Session::build`] (time and retained heap), then the
/// first [`Backend::Pcg`] and the first [`Backend::Rb3d`] request, each
/// of which builds its engine (time and heap added), asserting
/// `memory_bytes` within 5% of the heap after each step and **zero
/// allocator calls** on each backend's second request. Then the same
/// session serves a warm single solve, a warm batch of `k` lanes, and a
/// warm `steps`-step quasi-static `solve_steps` sweep — asserting **zero
/// allocator calls** on each warm request.
/// (Bitwise behavior is pinned separately by the saved fixture in
/// `tests/session.rs`, which replaced the deleted `VpSolver` legacy
/// comparison paths.)
fn session_block(w: usize, h: usize, tiers: usize, k: usize, steps: usize) -> String {
    eprintln!("session lifecycle {w}x{h}x{tiers} (batch {k}, transient {steps})...");
    let stack = Stack3d::builder(w, h, tiers)
        .uniform_load(2e-4)
        .build()
        .expect("valid stack");
    let nn = stack.num_nodes();
    let loads = sweep_loads(&stack, k);
    let wave = sweep_loads(&stack, steps);

    // Build the VoltProp engines only; each other backend is built by
    // its first request. `memory_bytes` must follow the heap throughout.
    let base = alloc::current_bytes();
    let start = Instant::now();
    let mut session = Session::build(&stack, VpConfig::default()).expect("session builds");
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    let build_heap = alloc::current_bytes() - base;
    let heap_ratio = |what: &str, session: &Session| -> f64 {
        let ratio = session.memory_bytes() as f64 / (alloc::current_bytes() - base) as f64;
        assert!(
            (ratio - 1.0).abs() <= 0.05,
            "{what}: memory_bytes is {ratio:.3}x the heap (outside 5%)"
        );
        ratio
    };
    let build_ratio = heap_ratio("voltprop-only build", &session);
    let first_request = |label: &str, session: &mut Session, backend: Backend| {
        let case = LoadCase::new(&stack).backend(backend);
        let before = alloc::current_bytes();
        let start = Instant::now();
        session.solve(&case).expect("first request");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let heap = alloc::current_bytes() - before;
        let ratio = heap_ratio(label, session);
        let calls_before = alloc::alloc_calls();
        session.solve(&case).expect("second request");
        let second_allocs = alloc::alloc_calls() - calls_before;
        assert_eq!(
            second_allocs, 0,
            "{label}: second request must not allocate"
        );
        (ms, heap, ratio, second_allocs)
    };
    let (pcg_ms, pcg_heap, pcg_ratio, pcg_second_allocs) =
        first_request("first pcg", &mut session, Backend::Pcg);
    let (rb_ms, rb_heap, rb_ratio, rb_second_allocs) =
        first_request("first rb3d", &mut session, Backend::Rb3d);
    let mib = |bytes: usize| json_f64(bytes as f64 / (1024.0 * 1024.0));

    let case = LoadCase::new(&stack);
    let timed =
        |label: &str, session: &mut Session, run: &mut dyn FnMut(&mut Session)| -> (f64, usize) {
            run(session); // warm
            let calls_before = alloc::alloc_calls();
            let start = Instant::now();
            run(session);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let allocs = alloc::alloc_calls() - calls_before;
            assert_eq!(allocs, 0, "{label}: warm session request must not allocate");
            (ms, allocs)
        };

    let (single_ms, single_allocs) = timed("single", &mut session, &mut |s| {
        s.solve(&case).expect("session solve");
    });

    let set = LoadSet::new(&stack, &loads);
    let (batch_ms, batch_allocs) = timed("batch", &mut session, &mut |s| {
        s.solve_batch(&set).expect("session batch");
    });

    let (transient_ms, transient_allocs) = timed("solve_steps", &mut session, &mut |s| {
        s.solve_steps(&case, steps, |j, lane| {
            lane.copy_from_slice(&wave[j * nn..(j + 1) * nn]);
        })
        .expect("session solve_steps");
    });

    format!(
        "{{\n    \"grid\": \"{w}x{h}x{tiers}\",\n    \"batch\": {k},\n    \
         \"transient_steps\": {steps},\n    \
         \"voltprop_build_ms\": {},\n    \
         \"voltprop_build_heap_mib\": {},\n    \
         \"first_pcg_request_ms\": {},\n    \
         \"first_pcg_request_heap_mib\": {},\n    \
         \"first_rb3d_request_ms\": {},\n    \
         \"first_rb3d_request_heap_mib\": {},\n    \
         \"memory_bytes_over_heap\": [{}, {}, {}],\n    \
         \"pcg_second_alloc_calls\": {pcg_second_allocs},\n    \
         \"rb3d_second_alloc_calls\": {rb_second_allocs},\n    \
         \"session_single_warm_ms\": {},\n    \
         \"session_batch_warm_ms\": {},\n    \
         \"session_transient_warm_ms\": {},\n    \
         \"session_single_warm_alloc_calls\": {single_allocs},\n    \
         \"session_batch_warm_alloc_calls\": {batch_allocs},\n    \
         \"session_transient_warm_alloc_calls\": {transient_allocs}\n  }}",
        json_f64(build_ms),
        mib(build_heap),
        json_f64(pcg_ms),
        mib(pcg_heap),
        json_f64(rb_ms),
        mib(rb_heap),
        json_f64(build_ratio),
        json_f64(pcg_ratio),
        json_f64(rb_ratio),
        json_f64(single_ms),
        json_f64(batch_ms),
        json_f64(transient_ms),
    )
}

/// The true-transient experiment: `Session::transient_dynamic` over a
/// `steps`-step waveform on a decap-loaded stack with backward-Euler
/// companion models. Measures warm steps/s per backend on the **single**
/// prefactored `G + C/h` system — asserting **zero allocator calls** and
/// zero re-prefactors on every warm run — and times the same waveform
/// with `refactor_each_step`, committing the factor-reuse speedup
/// (asserted > 1: reusing the factor must never lose to rebuilding it
/// every step). Reuse and refactor runs alternate, [`TRANSIENT_REPEATS`]
/// of each, and the assert and the speedup use their medians: one run a
/// side is a few tens of milliseconds in the quick suite, which one
/// scheduler hiccup on a shared host can swing either way.
fn transient_block(w: usize, h: usize, tiers: usize, steps: usize) -> String {
    eprintln!("transient engine {w}x{h}x{tiers} ({steps} steps)...");
    let stack = Stack3d::builder(w, h, tiers)
        .uniform_load(1e-4)
        .grid_capacitance(2e-13)
        .decap(0, w / 3, h / 3, 2e-10)
        .pad_capacitance(5e-13)
        .build()
        .expect("valid stack");
    let nn = stack.num_nodes();
    let h_step = 2e-11;
    // Pre-rendered load frames: the streaming waveform copies one frame
    // per step, so the warm step loop stays allocation-free.
    let frames = sweep_loads(&stack, steps);
    let watch = [nn / 2];
    let mut session = Session::build(&stack, VpConfig::default()).expect("session builds");
    let mut sink = TraceSink::with_capacity(steps, 1);

    let run_once = |session: &mut Session,
                    sink: &mut TraceSink,
                    backend: Backend,
                    refactor_each_step: bool|
     -> TransientReport {
        let request = TransientParams::new(&stack, h_step)
            .backend(backend)
            .observe(&watch)
            .refactor_each_step(refactor_each_step);
        let mut wave = FnWaveform::new(steps, |s, _t, loads: &mut [f64]| {
            loads.copy_from_slice(&frames[s * nn..(s + 1) * nn]);
        });
        sink.clear();
        session
            .transient_dynamic(&mut wave, sink, &request)
            .expect("transient run")
    };
    // One timed warm run, holding the factor-reuse contract.
    let timed = |session: &mut Session,
                 sink: &mut TraceSink,
                 backend: Backend,
                 refactor_each_step: bool|
     -> (f64, usize, TransientReport) {
        let calls_before = alloc::alloc_calls();
        let start = Instant::now();
        let report = run_once(session, sink, backend, refactor_each_step);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let allocs = alloc::alloc_calls() - calls_before;
        assert_eq!(report.steps, steps);
        if refactor_each_step {
            assert_eq!(
                report.refactors, steps,
                "{backend:?}: refactor_each_step must rebuild the factor every step"
            );
        } else {
            assert_eq!(
                allocs, 0,
                "{backend:?}: warm transient step loop must not allocate"
            );
            assert_eq!(
                report.refactors, 0,
                "{backend:?}: warm step loop must reuse the prefactored companion system"
            );
        }
        (ms, allocs, report)
    };

    // Cold runs build and factor each backend's companion system.
    for backend in [Backend::VoltProp, Backend::Rb3d, Backend::Pcg] {
        run_once(&mut session, &mut sink, backend, false);
    }
    let (rb_ms, rb_allocs, _) = timed(&mut session, &mut sink, Backend::Rb3d, false);
    let (pcg_ms, pcg_allocs, _) = timed(&mut session, &mut sink, Backend::Pcg, false);
    let mut vp_runs = [0.0; TRANSIENT_REPEATS];
    let mut refactor_runs = [0.0; TRANSIENT_REPEATS];
    let (mut vp_allocs, mut vp_iterations) = (0, 0);
    for r in 0..TRANSIENT_REPEATS {
        let (ms, allocs, report) = timed(&mut session, &mut sink, Backend::VoltProp, false);
        vp_runs[r] = ms;
        vp_allocs += allocs;
        vp_iterations = report.solver_iterations;
        refactor_runs[r] = timed(&mut session, &mut sink, Backend::VoltProp, true).0;
    }
    let (vp_ms, refactor_ms) = (median(&mut vp_runs), median(&mut refactor_runs));
    let speedup = refactor_ms / vp_ms;
    assert!(
        speedup > 1.0,
        "factor reuse ({vp_ms:.3} ms, median of {TRANSIENT_REPEATS}) must beat \
         re-prefactoring every step ({refactor_ms:.3} ms)"
    );

    let steps_per_s = |ms: f64| steps as f64 / (ms / 1e3);
    format!(
        "{{\n    \"grid\": \"{w}x{h}x{tiers}\",\n    \"steps\": {steps},\n    \
         \"step_ps\": {},\n    \"timed_runs\": {TRANSIENT_REPEATS},\n    \
         \"voltprop_warm_ms\": {},\n    \"voltprop_steps_per_s\": {},\n    \
         \"rb3d_warm_ms\": {},\n    \"rb3d_steps_per_s\": {},\n    \
         \"pcg_warm_ms\": {},\n    \"pcg_steps_per_s\": {},\n    \
         \"voltprop_solver_iterations\": {vp_iterations},\n    \
         \"voltprop_iterations_per_step\": {},\n    \
         \"warm_alloc_calls\": {},\n    \
         \"refactor_each_step_ms\": {},\n    \"factor_reuse_speedup\": {}\n  }}",
        json_f64(h_step * 1e12),
        json_f64(vp_ms),
        json_f64(steps_per_s(vp_ms)),
        json_f64(rb_ms),
        json_f64(steps_per_s(rb_ms)),
        json_f64(pcg_ms),
        json_f64(steps_per_s(pcg_ms)),
        json_f64(vp_iterations as f64 / steps as f64),
        vp_allocs + rb_allocs + pcg_allocs,
        json_f64(refactor_ms),
        json_f64(speedup),
    )
}

/// Timed VoltProp runs per side (factor reuse, refactor every step) in
/// the transient experiment.
const TRANSIENT_REPEATS: usize = 5;

/// The median of `xs` (sorts in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The PCG-reference experiment: `Backend::Pcg` served from the session's
/// prefactored engine (system stamped + IC(0) factored by the first Pcg
/// request, outside the timed windows) — warm
/// single and batch-`k` requests, **asserting zero allocator calls** on
/// each, with the warm VoltProp latencies alongside so the method's
/// speedup over the general sparse reference is a committed trajectory
/// number (and the two backends' agreement is asserted within the
/// paper's 0.5 mV budget).
fn pcg_block(w: usize, h: usize, tiers: usize, k: usize) -> String {
    eprintln!("pcg backend {w}x{h}x{tiers} (batch {k})...");
    let stack = Stack3d::builder(w, h, tiers)
        .uniform_load(2e-4)
        .build()
        .expect("valid stack");
    let nn = stack.num_nodes();
    let mut session = Session::build(&stack, VpConfig::default()).expect("session builds");
    let pcg_params = SolveParams::new()
        .inner_tolerance(1e-8)
        .max_inner_sweeps(50_000);
    let vp_case = LoadCase::new(&stack);
    let pcg_case = LoadCase::new(&stack)
        .backend(Backend::Pcg)
        .params(pcg_params);

    // Agreement + iteration count (untimed pass).
    let vp_v = session
        .solve(&vp_case)
        .expect("voltprop solve")
        .voltages()
        .to_vec();
    let view = session.solve(&pcg_case).expect("pcg solve");
    let pcg_iterations = view.report().outer_iterations;
    let dv = max_abs_diff(&vp_v, view.voltages());
    assert!(
        dv < 5e-4,
        "pcg and voltprop disagree by {dv} V (> 0.5 mV budget)"
    );

    let timed = |label: &str,
                 session: &mut Session,
                 assert_allocs: bool,
                 run: &mut dyn FnMut(&mut Session)|
     -> (f64, usize) {
        run(session); // warm
        let calls_before = alloc::alloc_calls();
        let start = Instant::now();
        run(session);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let allocs = alloc::alloc_calls() - calls_before;
        if assert_allocs {
            assert_eq!(allocs, 0, "{label}: warm pcg request must not allocate");
        }
        (ms, allocs)
    };

    let (vp_single_ms, _) = timed("vp-single", &mut session, false, &mut |s| {
        s.solve(&vp_case).expect("voltprop solve");
    });
    let (pcg_single_ms, pcg_single_allocs) = timed("pcg-single", &mut session, true, &mut |s| {
        s.solve(&pcg_case).expect("pcg solve");
    });

    let loads = sweep_loads(&stack, k);
    let vp_set = LoadSet::new(&stack, &loads[..k * nn]);
    let pcg_set = LoadSet::new(&stack, &loads[..k * nn])
        .backend(Backend::Pcg)
        .params(pcg_params);
    let (vp_batch_ms, _) = timed("vp-batch", &mut session, false, &mut |s| {
        s.solve_batch(&vp_set).expect("voltprop batch");
    });
    let (pcg_batch_ms, pcg_batch_allocs) = timed("pcg-batch", &mut session, true, &mut |s| {
        let view = s.solve_batch(&pcg_set).expect("pcg batch");
        assert!(view.converged(), "all pcg lanes must converge");
    });

    format!(
        "{{\n    \"grid\": \"{w}x{h}x{tiers}\",\n    \"batch\": {k},\n    \
         \"pcg_iterations\": {pcg_iterations},\n    \
         \"max_abs_dv_pcg_vs_voltprop\": {},\n    \
         \"voltprop_single_warm_ms\": {},\n    \"pcg_single_warm_ms\": {},\n    \
         \"voltprop_batch_warm_ms\": {},\n    \"pcg_batch_warm_ms\": {},\n    \
         \"voltprop_speedup_over_pcg_single\": {},\n    \
         \"voltprop_speedup_over_pcg_batch\": {},\n    \
         \"pcg_single_warm_alloc_calls\": {pcg_single_allocs},\n    \
         \"pcg_batch_warm_alloc_calls\": {pcg_batch_allocs}\n  }}",
        json_f64(dv),
        json_f64(vp_single_ms),
        json_f64(pcg_single_ms),
        json_f64(vp_batch_ms),
        json_f64(pcg_batch_ms),
        json_f64(pcg_single_ms / vp_single_ms),
        json_f64(pcg_batch_ms / vp_batch_ms),
    )
}

/// The shared-session concurrency experiment: one [`SharedSession`]
/// built at the given parallelism with `slots` scratch slots, serving
/// `requests_per_client` warm solves from each of 1/4/16 simulated
/// client threads. Reports aggregate requests/s and p50/p99 per-request
/// latency (latency vectors are preallocated so measurement itself never
/// allocates inside a request window), after asserting **zero allocator
/// calls** across warm single-threaded checkout → solve → return
/// round-trips — the `SharedSession` hot-path contract.
fn concurrency_block(
    w: usize,
    h: usize,
    tiers: usize,
    parallelism: usize,
    slots: usize,
    clients_list: &[usize],
    requests_per_client: usize,
) -> String {
    eprintln!(
        "shared session {w}x{h}x{tiers} parallelism={parallelism} slots={slots} \
         clients {clients_list:?} x {requests_per_client}..."
    );
    let stack = Stack3d::builder(w, h, tiers)
        .uniform_load(2e-4)
        .build()
        .expect("valid stack");
    let shared = SharedSession::build(&stack, VpConfig::new().parallelism(parallelism), slots)
        .expect("shared session builds");
    let case = LoadCase::new(&stack);

    // Warm every scratch slot: hold all slots checked out at once so each
    // one faults its pages and sizes its arenas before anything is timed.
    {
        let guards: Vec<_> = (0..slots)
            .map(|_| shared.solve(&case).expect("warm solve converges"))
            .collect();
        drop(guards);
    }

    // The zero-allocation hot path: warm checkout → solve → return,
    // single-threaded so the counting allocator sees only this path.
    let hot_rounds = 4usize;
    let calls_before = alloc::alloc_calls();
    for _ in 0..hot_rounds {
        let solution = shared.solve(&case).expect("warm shared solve");
        assert!(solution.view().converged());
    }
    let hot_path_allocs = alloc::alloc_calls() - calls_before;
    assert_eq!(
        hot_path_allocs, 0,
        "warm SharedSession checkout → solve → return must make zero allocator calls"
    );

    let mut lines = Vec::new();
    for &clients in clients_list {
        let total = clients * requests_per_client;
        let mut latencies: Vec<Vec<f64>> = (0..clients)
            .map(|_| Vec::with_capacity(requests_per_client))
            .collect();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for lane in latencies.iter_mut() {
                let shared = &shared;
                let case = &case;
                scope.spawn(move || {
                    for _ in 0..requests_per_client {
                        let t0 = Instant::now();
                        let solution = shared.solve(case).expect("concurrent solve converges");
                        assert!(solution.view().converged());
                        drop(solution); // slot goes back before the clock stops
                        lane.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                });
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut all: Vec<f64> = latencies.into_iter().flatten().collect();
        all.sort_by(f64::total_cmp);
        let pct = |p: f64| all[((all.len() - 1) as f64 * p).round() as usize];
        lines.push(format!(
            "      {{ \"clients\": {clients}, \"requests\": {total}, \
             \"requests_per_s\": {}, \"p50_ms\": {}, \"p99_ms\": {} }}",
            json_f64(total as f64 / wall_s),
            json_f64(pct(0.50)),
            json_f64(pct(0.99)),
        ));
    }
    format!(
        "{{\n    \"grid\": \"{w}x{h}x{tiers}\",\n    \"parallelism\": {parallelism},\n    \
         \"slots\": {slots},\n    \"requests_per_client\": {requests_per_client},\n    \
         \"hot_path_warm_alloc_calls\": {hot_path_allocs},\n    \
         \"clients\": [\n{}\n    ]\n  }}",
        lines.join(",\n"),
    )
}

/// The overload/admission experiment: how fast the robustness machinery
/// makes its decisions. Against a deliberately saturated one-slot
/// [`SharedSession`]:
///
/// * `try_solve_for(wait)` must report `Busy` in about `wait` — the
///   shed decision may not dawdle (asserted ≤ 10× the configured wait;
///   the slack absorbs scheduler noise on oversubscribed CI hosts);
/// * once the slot frees, the same call must be admitted;
/// * a budget-starved solve (unattainable tolerance, huge iteration
///   budget) under a cooperative [`Deadline`] must return
///   `DeadlineExceeded` shortly after the deadline — the overshoot is
///   the between-iteration check granularity the serve layer's typed
///   `deadline-exceeded` contract rests on.
fn overload_block(w: usize, h: usize, tiers: usize, wait_ms: u64, deadline_ms: u64) -> String {
    eprintln!(
        "overload admission {w}x{h}x{tiers} (wait {wait_ms} ms, deadline {deadline_ms} ms)..."
    );
    let stack = Stack3d::builder(w, h, tiers)
        .uniform_load(2e-4)
        .build()
        .expect("valid stack");
    let shared = SharedSession::build(&stack, VpConfig::default(), 1).expect("session builds");
    let case = LoadCase::new(&stack);
    let wait = std::time::Duration::from_millis(wait_ms);

    // Warm the single slot, then hold it checked out: every admission
    // attempt below contends against a saturated pool.
    drop(shared.solve(&case).expect("warm solve converges"));
    let sheds = 6usize;
    let mut shed_ms = Vec::with_capacity(sheds);
    let admitted_ms;
    {
        let hog = shared.solve(&case).expect("hog solve converges");
        for _ in 0..sheds {
            let start = Instant::now();
            match shared.try_solve_for(&case, wait) {
                Ok(TryCheckout::Busy) => shed_ms.push(start.elapsed().as_secs_f64() * 1e3),
                Ok(TryCheckout::Ready(_)) => panic!("a held slot cannot admit"),
                Err(e) => panic!("shed attempt errored: {e}"),
            }
        }
        drop(hog);
        // The freed slot admits the very next bounded-wait attempt.
        let start = Instant::now();
        match shared.try_solve_for(&case, wait) {
            Ok(TryCheckout::Ready(solution)) => {
                assert!(solution.view().converged());
                admitted_ms = start.elapsed().as_secs_f64() * 1e3;
            }
            Ok(TryCheckout::Busy) => panic!("a freed slot must admit"),
            Err(e) => panic!("admitted attempt errored: {e}"),
        }
    }
    shed_ms.sort_by(f64::total_cmp);
    let shed_p50 = shed_ms[shed_ms.len() / 2];
    let shed_worst = *shed_ms.last().expect("non-empty");
    assert!(
        shed_worst <= 10.0 * wait_ms as f64,
        "shed decision took {shed_worst} ms against a {wait_ms} ms bounded wait"
    );

    // Cooperative-deadline accuracy on a solve only the deadline can end.
    let starved = LoadCase::new(&stack)
        .params(
            SolveParams::new()
                .epsilon(1e-300)
                .inner_tolerance(1e-5)
                .max_outer_iterations(1_000_000_000),
        )
        .deadline(Deadline::after(std::time::Duration::from_millis(
            deadline_ms,
        )));
    let start = Instant::now();
    match shared.solve(&starved) {
        Err(SessionError::Solver(SolverError::DeadlineExceeded { .. })) => {}
        other => panic!("starved solve must exceed its deadline, got {other:?}"),
    }
    let deadline_elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let overshoot_ms = deadline_elapsed_ms - deadline_ms as f64;
    assert!(
        overshoot_ms <= 1_000.0,
        "deadline shed overshot by {overshoot_ms} ms (check granularity regressed)"
    );

    format!(
        "{{\n    \"grid\": \"{w}x{h}x{tiers}\",\n    \"slots\": 1,\n    \
         \"bounded_wait_ms\": {wait_ms},\n    \"sheds_timed\": {sheds},\n    \
         \"shed_decision_p50_ms\": {},\n    \"shed_decision_worst_ms\": {},\n    \
         \"admitted_after_release_ms\": {},\n    \
         \"deadline_ms\": {deadline_ms},\n    \
         \"deadline_shed_elapsed_ms\": {},\n    \
         \"deadline_overshoot_ms\": {}\n  }}",
        json_f64(shed_p50),
        json_f64(shed_worst),
        json_f64(admitted_ms),
        json_f64(deadline_elapsed_ms),
        json_f64(overshoot_ms),
    )
}

/// The vectorized-kernel bandwidth experiment: effective GB/s of the
/// hot kernels this workspace spends its time in — the batched f64
/// solve sweep, the red-black sweep at parallelism 2, and the PCG
/// axpy/dot core — plus the warm per-RHS latency of a converging single
/// solve at parallelism 2, with **zero allocator calls** asserted on the
/// warm batched sweeps and the warm solve.
///
/// Effective bandwidth uses a fixed per-sweep traffic model over the
/// free (unpinned) nodes: per lane 24 B (`v` read + write + injection
/// read) plus 32 B of lane-independent prefactored coefficients; axpy
/// moves 24 B and dot 16 B per element. The model undercounts cache
/// refills, so the numbers are comparable across runs rather than
/// absolute — that is all a trajectory needs.
fn kernels_block(edge: usize, k: usize, sweeps: usize, vec_len: usize) -> String {
    eprintln!("kernels {edge}x{edge} batch {k} ({sweeps} sweeps, vec {vec_len})...");
    let fixture = TierFixture::new(edge);
    let n = edge * edge;
    let n_free = fixture.fixed.iter().filter(|&&f| !f).count();

    // Batch arrays: every lane carries a scaled copy of the fixture load.
    let mut injection = vec![0.0; n * k];
    let mut v0 = vec![0.0; n * k];
    for i in 0..n {
        for j in 0..k {
            injection[i * k + j] = (0.75 + 0.5 * j as f64 / k as f64) * fixture.injection[i];
            v0[i * k + j] = fixture.v0[i];
        }
    }
    let batch_sweep_bytes = (24 * k + 32) as f64 * n_free as f64;

    // Fixed-budget batched sweeps (tolerance 0 never converges, so every
    // pass runs exactly `batch_sweeps` sweeps; the budget stays 4× the
    // single-RHS one so entries compare across the trajectory). One warm
    // call sizes the arenas; then three timed passes, keeping the
    // fastest — the same scheduler-drift guard as the pool block. No
    // timed pass may allocate.
    let batch_sweeps = 4 * sweeps;
    let mut engine = fixture.engine(SweepSchedule::Sequential);
    let mut lanes = vec![LaneReport::default(); k];
    let mut time_batch = || -> (f64, usize) {
        let mut v = v0.clone();
        let calls_before = alloc::alloc_calls();
        let start = Instant::now();
        engine
            .solve_batch_masked(&injection, &mut v, 0.0, batch_sweeps, 1.0, None, &mut lanes)
            .expect("batch sweeps");
        let ns = start.elapsed().as_nanos() as f64 / batch_sweeps as f64;
        (ns, alloc::alloc_calls() - calls_before)
    };
    time_batch(); // warm: sizes the arenas, faults pages
    let mut f64_ns_per_sweep = f64::INFINITY;
    let mut f64_allocs = 0usize;
    for _ in 0..3 {
        let (ns, allocs) = time_batch();
        f64_ns_per_sweep = f64_ns_per_sweep.min(ns);
        f64_allocs += allocs;
    }
    assert_eq!(
        f64_allocs, 0,
        "warm f64 batch sweeps must make zero allocator calls"
    );

    // Red-black sweep at parallelism 2 (single RHS).
    let rb2_ns = time_engine_sweeps(&fixture, SweepSchedule::RedBlack { threads: 2 }, sweeps);
    let rb_sweep_bytes = (24 + 32) as f64 * n_free as f64;

    // PCG vector core: axpy and dot over `vec_len` elements. The axpy
    // alpha alternates sign so `y` stays bounded across repetitions; the
    // dot results are accumulated so the loop cannot be elided.
    let reps = 200usize;
    let x: Vec<f64> = (0..vec_len).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut y = vec![0.5; vec_len];
    vec_ops::axpy(1e-3, &x, &mut y); // warm
    let calls_before = alloc::alloc_calls();
    let start = Instant::now();
    for r in 0..reps {
        let alpha = if r % 2 == 0 { 1e-3 } else { -1e-3 };
        vec_ops::axpy(alpha, &x, &mut y);
    }
    let axpy_ns = start.elapsed().as_nanos() as f64 / reps as f64;
    let mut acc = vec_ops::dot(&x, &y); // warm
    let start = Instant::now();
    for _ in 0..reps {
        acc += vec_ops::dot(&x, &y);
    }
    let dot_ns = start.elapsed().as_nanos() as f64 / reps as f64;
    let vec_allocs = alloc::alloc_calls() - calls_before;
    assert_eq!(vec_allocs, 0, "axpy/dot must not allocate");
    assert!(acc.is_finite(), "dot accumulator must stay finite");

    // Warm converging single-RHS solve at parallelism 2; it must not
    // allocate.
    let mut rb_engine = fixture.engine(SweepSchedule::RedBlack { threads: 2 });
    let mut v = fixture.v0.clone();
    rb_engine
        .solve(&fixture.injection, &mut v, 1e-9, 200_000)
        .expect("warm-up solve converges");
    v.copy_from_slice(&fixture.v0);
    let calls_before = alloc::alloc_calls();
    let start = Instant::now();
    rb_engine
        .solve(&fixture.injection, &mut v, 1e-9, 200_000)
        .expect("solve converges");
    let solve_f64_ms = start.elapsed().as_secs_f64() * 1e3;
    let f64_solve_allocs = alloc::alloc_calls() - calls_before;
    assert_eq!(
        f64_solve_allocs, 0,
        "warm f64 solve must make zero allocator calls"
    );

    format!(
        "{{\n    \"grid\": \"{edge}x{edge}\",\n    \"batch\": {k},\n    \
         \"sweeps_timed\": {sweeps},\n    \"batch_sweeps_timed\": {batch_sweeps},\n    \
         \"free_nodes\": {n_free},\n    \
         \"batch_sweep_f64_ns_per_sweep\": {},\n    \
         \"batch_sweep_f64_gbps\": {},\n    \
         \"redblack2_ns_per_sweep\": {},\n    \"redblack2_gbps\": {},\n    \
         \"vec_len\": {vec_len},\n    \"axpy_gbps\": {},\n    \"dot_gbps\": {},\n    \
         \"solve_f64_warm_ms_parallelism2\": {},\n    \
         \"warm_alloc_calls_f64_batch\": {f64_allocs},\n    \
         \"warm_alloc_calls_f64_solve\": {f64_solve_allocs}\n  }}",
        json_f64(f64_ns_per_sweep),
        json_f64(batch_sweep_bytes / f64_ns_per_sweep),
        json_f64(rb2_ns),
        json_f64(rb_sweep_bytes / rb2_ns),
        json_f64(24.0 * vec_len as f64 / axpy_ns),
        json_f64(16.0 * vec_len as f64 / dot_ns),
        json_f64(solve_f64_ms),
    )
}

/// The row-band sharding experiment: per-sweep throughput of engines
/// asked for more bands than threads (`shard_counts`, all above the 2
/// threads, through [`TierEngine::new_sharded`]) on a tier footprint
/// that exceeds one band's cache, against the default 2-thread engine,
/// which sweeps one band per thread. Every parallel engine runs the same
/// band job, so the ratio isolates the cost of the extra bands' halo
/// pushes. Fixed sweep budgets from the same start vector must leave
/// states **bitwise identical** to the one-thread red-black slices — the
/// band-job determinism contract, asserted here on the bench geometry
/// and pinned across backends by `tests/sharding.rs` — and every warm
/// pass must make **zero allocator calls**.
///
/// The session half re-asserts both contracts at the `Session` layer,
/// where the band count is the `parallelism`: warm single, batch, and
/// true-transient requests on a parallelism-4 session (4 bands) against
/// the parallelism-2 session (2 bands): 0 allocs, bitwise equal, zero
/// mid-loop re-prefactors.
///
/// The JSON keeps its field names: `unsharded_redblack_ns_per_sweep` is
/// the default 2-thread engine, `throughput_shards2_vs_unsharded` the
/// first listed band count (two bands per thread) against it, and
/// `bitwise_identical_vs_unsharded` the check against the one-thread
/// slices; the `session_*` fields describe the parallelism-4 session.
#[allow(clippy::too_many_arguments)] // one committed experiment, two geometries
fn sharding_block(
    edge: usize,
    shard_counts: &[usize],
    sweeps: usize,
    passes: usize,
    w: usize,
    h: usize,
    tiers: usize,
    k: usize,
    transient_steps: usize,
) -> String {
    eprintln!("row-band sharding {edge}x{edge} ({sweeps} sweeps, shards {shard_counts:?})...");
    const SESSION_PARALLELISM: usize = 4;
    let fixture = TierFixture::new(edge);
    let threads = 2usize;
    let footprint_mb = (fixture.v0.len() * 8) as f64 / (1024.0 * 1024.0);

    // One engine per configuration: the default 2-thread engine first
    // (the throughput reference), then each band count through the
    // sharded constructor.
    let mut engines = vec![fixture.engine(SweepSchedule::RedBlack { threads })];
    for &shards in shard_counts {
        engines.push(
            TierEngine::new_sharded(
                fixture.edge,
                fixture.edge,
                50.0,
                50.0,
                Arc::from(&fixture.fixed[..]),
                None,
                SweepSchedule::RedBlack { threads },
                shards,
            )
            .expect("fixture tier is well-formed"),
        );
    }
    // Warm every engine (pool workers, halo images, page faults) and
    // check its fixed-budget final state against the one-thread slices.
    let mut reference = fixture.v0.clone();
    let _ = fixture
        .engine(SweepSchedule::RedBlack { threads: 1 })
        .solve(&fixture.injection, &mut reference, 0.0, sweeps);
    let mut v = fixture.v0.clone();
    for (engine, shards) in engines.iter_mut().zip([1].iter().chain(shard_counts)) {
        v.copy_from_slice(&fixture.v0);
        let _ = engine.solve(&fixture.injection, &mut v, 0.0, sweeps);
        assert!(
            v.iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "shards {shards}: fixed-budget state must be bitwise identical \
             to the one-thread red-black state"
        );
    }
    let injection = &fixture.injection;
    let mut runs: Vec<SweepRun<'_>> = engines
        .into_iter()
        .map(|mut engine| -> SweepRun<'_> {
            Box::new(move |v, sweeps| {
                let _ = engine.solve(injection, v, 0.0, sweeps);
            })
        })
        .collect();
    let chunk = 4usize;
    let best = min_of_passes(&fixture.v0, &mut runs, chunk, passes);
    drop(runs); // frees the big tier's engines before the session half
    let timed_sweeps = chunk * passes;
    let unsharded = best[0];
    let mut band_lines = Vec::new();
    assert_eq!(
        unsharded.allocs, 0,
        "warm 2-thread sweeps must make zero allocator calls"
    );
    let mut shards2_ratio = f64::NAN;
    for (i, &shards) in shard_counts.iter().enumerate() {
        let stats = best[i + 1];
        assert_eq!(
            stats.allocs, 0,
            "shards {shards}: warm sharded sweeps must make zero allocator calls"
        );
        let ratio = unsharded.min / stats.min;
        if i == 0 {
            shards2_ratio = ratio;
        }
        band_lines.push(format!(
            "      {{ \"shards\": {shards}, {}, \
             \"warm_alloc_calls\": {}, \"throughput_vs_unsharded\": {} }}",
            stats.json(""),
            stats.allocs,
            json_f64(ratio),
        ));
    }

    // Session layer: a parallelism-4 session (4 bands) must serve warm
    // single, batch, and transient requests with zero allocator calls and
    // reproduce the parallelism-2 session (2 bands) bitwise.
    eprintln!(
        "parallelism-{SESSION_PARALLELISM} session {w}x{h}x{tiers} \
         (batch {k}, transient {transient_steps})..."
    );
    let stack = Stack3d::builder(w, h, tiers)
        .uniform_load(2e-4)
        .build()
        .expect("valid stack");
    let loads = sweep_loads(&stack, k);
    let build = |stack: &Stack3d, parallelism: usize| {
        Session::build(stack, VpConfig::new().parallelism(parallelism)).expect("session builds")
    };
    let mut base = build(&stack, threads);
    let mut wide = build(&stack, SESSION_PARALLELISM);
    let case = LoadCase::new(&stack);
    let set = LoadSet::new(&stack, &loads);

    let base_v = base
        .solve(&case)
        .expect("parallelism-2 solve")
        .voltages()
        .to_vec();
    wide.solve(&case).expect("warm parallelism-4 solve");
    let calls_before = alloc::alloc_calls();
    let start = Instant::now();
    let view = wide.solve(&case).expect("timed parallelism-4 solve");
    let single_ms = start.elapsed().as_secs_f64() * 1e3;
    let single_allocs = alloc::alloc_calls() - calls_before;
    assert_eq!(
        single_allocs, 0,
        "warm parallelism-4 session solve must not allocate"
    );
    assert!(
        view.voltages()
            .iter()
            .zip(&base_v)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "parallelism-4 session solve must be bitwise identical to the parallelism-2 session"
    );

    let base_batch: Vec<Vec<f64>> = {
        let view = base.solve_batch(&set).expect("parallelism-2 batch");
        (0..k)
            .map(|j| view.lane_voltages(j).expect("lane in range").to_vec())
            .collect()
    };
    wide.solve_batch(&set).expect("warm parallelism-4 batch");
    let calls_before = alloc::alloc_calls();
    let start = Instant::now();
    let view = wide.solve_batch(&set).expect("timed parallelism-4 batch");
    let batch_ms = start.elapsed().as_secs_f64() * 1e3;
    let batch_allocs = alloc::alloc_calls() - calls_before;
    assert_eq!(
        batch_allocs, 0,
        "warm parallelism-4 session batch must not allocate"
    );
    for (j, base_lane) in base_batch.iter().enumerate() {
        assert!(
            view.lane_voltages(j)
                .expect("lane in range")
                .iter()
                .zip(base_lane)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "parallelism-4 batch lane {j} must be bitwise identical to the parallelism-2 session"
        );
    }

    // True transient on a decap stack: the 4-band companion engines must
    // reuse their prefactors (zero mid-loop refactors), stay warm-clean,
    // and trace bitwise with the 2-band run.
    let tstack = Stack3d::builder(w / 2, h / 2, 2)
        .uniform_load(1e-4)
        .grid_capacitance(2e-13)
        .decap(0, w / 6, h / 6, 2e-10)
        .build()
        .expect("valid transient stack");
    let tnn = tstack.num_nodes();
    let frames = sweep_loads(&tstack, transient_steps);
    let run_transient = |session: &mut Session, sink: &mut TraceSink| -> TransientReport {
        let mut wave = FnWaveform::new(transient_steps, |s, _t, loads: &mut [f64]| {
            loads.copy_from_slice(&frames[s * tnn..(s + 1) * tnn]);
        });
        sink.clear();
        session
            .transient_dynamic(&mut wave, sink, &TransientParams::new(&tstack, 2e-11))
            .expect("transient run")
    };
    let mut tbase = build(&tstack, threads);
    let mut twide = build(&tstack, SESSION_PARALLELISM);
    let mut base_sink = TraceSink::with_capacity(transient_steps, tnn);
    run_transient(&mut tbase, &mut base_sink);
    let mut sink = TraceSink::with_capacity(transient_steps, tnn);
    run_transient(&mut twide, &mut sink); // cold: factors the companion system
    let calls_before = alloc::alloc_calls();
    let report = run_transient(&mut twide, &mut sink);
    let transient_allocs = alloc::alloc_calls() - calls_before;
    assert_eq!(
        transient_allocs, 0,
        "warm parallelism-4 transient step loop must not allocate"
    );
    assert_eq!(
        report.refactors, 0,
        "warm parallelism-4 step loop must reuse the prefactored companion system"
    );
    assert!(
        sink.values()
            .iter()
            .zip(base_sink.values())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "parallelism-4 transient trace must be bitwise identical to the parallelism-2 session"
    );

    format!(
        "{{\n    \"tier_grid\": \"{edge}x{edge}\",\n    \"tier_footprint_mb\": {},\n    \
         \"sweeps_timed\": {timed_sweeps},\n    \"threads\": {threads},\n    \
         {},\n    \
         \"bands\": [\n{}\n    ],\n    \
         \"throughput_shards2_vs_unsharded\": {},\n    \
         \"bitwise_identical_vs_unsharded\": {},\n    \
         \"session_grid\": \"{w}x{h}x{tiers}\",\n    \
         \"session_parallelism\": {SESSION_PARALLELISM},\n    \
         \"session_single_warm_ms\": {},\n    \
         \"session_batch_warm_ms\": {},\n    \
         \"session_single_warm_alloc_calls\": {single_allocs},\n    \
         \"session_batch_warm_alloc_calls\": {batch_allocs},\n    \
         \"transient_steps\": {transient_steps},\n    \
         \"transient_warm_alloc_calls\": {transient_allocs},\n    \
         \"session_bitwise_vs_unsharded\": {}\n  }}",
        json_f64(footprint_mb),
        unsharded.json("unsharded_redblack_"),
        band_lines.join(",\n"),
        json_f64(shards2_ratio),
        json_bool(true),
        json_f64(single_ms),
        json_f64(batch_ms),
        json_bool(true),
    )
}

/// The sections of a run entry, in entry order.
const SECTIONS: [&str; 12] = [
    "row_sweeps",
    "vp_solver",
    "vp_batch",
    "table_circuit",
    "pool_latency",
    "session",
    "transient",
    "pcg",
    "concurrency",
    "overload",
    "sharding",
    "kernels",
];

/// A named section and the run that produces its blocks.
type Section<'a> = (&'static str, Box<dyn FnOnce() -> Vec<String> + 'a>);

/// The command-line help.
const USAGE: &str =
    "usage: perfsuite --out PATH [--quick] [--batch N[,N...]] [--only SECTION[,SECTION...]]

  --out PATH         append the trajectory entry to PATH (required)
  --quick            shrink the grids for a smoke run
  --batch N[,N...]   batch sizes of the batched experiment
                     (default: 1,8,64; 1,8 with --quick)
  --only S[,S...]    run and record only these sections: row_sweeps,
                     vp_solver, vp_batch, table_circuit, pool_latency,
                     session, transient, pcg, concurrency, overload,
                     sharding, kernels (default: all)
  -h, --help         print this help and exit";

/// Prints `msg` and the usage to stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut quick = false;
    let mut out = None;
    let mut batch = None;
    let mut only: Option<Vec<&str>> = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match rest.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => usage_error("--out requires a path argument"),
            },
            "--batch" => match rest.next().map(|s| {
                s.split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<usize>, _>>()
            }) {
                Some(Ok(sizes)) if !sizes.is_empty() && sizes.iter().all(|&k| k > 0) => {
                    batch = Some(sizes);
                }
                _ => usage_error("--batch requires a comma-separated list of positive sizes"),
            },
            "--only" => match rest.next() {
                Some(list) => {
                    let names = list.split(',').map(|name| {
                        SECTIONS
                            .into_iter()
                            .find(|&s| s == name)
                            .unwrap_or_else(|| {
                                usage_error(&format!("unknown section `{name}` for --only"))
                            })
                    });
                    only = Some(names.collect());
                }
                None => usage_error("--only requires a comma-separated list of sections"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let Some(out) = out else {
        usage_error("--out PATH is required");
    };
    let batch_sizes = batch.unwrap_or_else(|| if quick { vec![1, 8] } else { vec![1, 8, 64] });

    // (edge, passes) for row-sweep micro-benchmarks, 4 sweeps a pass.
    let sweep_cases: Vec<(usize, usize)> = if quick {
        vec![(64, 10)]
    } else {
        vec![(256, 15), (512, 10)]
    };
    // (w, h, tiers) for full-solver runs.
    let vp_cases: Vec<(usize, usize, usize)> = if quick {
        vec![(64, 64, 3)]
    } else {
        vec![(256, 256, 4), (512, 512, 2)]
    };

    // The sections in the order they run, each producing its blocks.
    // The coarse pillar-lattice section (`table_circuit`) runs last, so
    // the sections before it run in the same process state as in the
    // entries before it.
    let sections: Vec<Section<'_>> = vec![
        (
            "row_sweeps",
            Box::new(|| {
                sweep_cases
                    .iter()
                    .map(|&(edge, passes)| row_sweep_block(edge, 4, passes))
                    .collect()
            }),
        ),
        (
            "vp_solver",
            Box::new(|| {
                let mut vp_blocks = Vec::new();
                for &(w, h, tiers) in &vp_cases {
                    let v_seq = vp_voltages(w, h, tiers, 1);
                    for parallelism in [1usize, 4] {
                        let dv = if parallelism == 1 {
                            0.0
                        } else {
                            max_abs_diff(&v_seq, &vp_voltages(w, h, tiers, parallelism))
                        };
                        vp_blocks.push(vp_block(w, h, tiers, parallelism, dv));
                    }
                }
                vp_blocks
            }),
        ),
        // Batched multi-load experiment (the quick grid keeps CI smoke
        // fast).
        (
            "vp_batch",
            Box::new(|| {
                let (w, h, tiers) = if quick { (64, 64, 3) } else { (256, 256, 4) };
                vec![batch_block(w, h, tiers, &batch_sizes)]
            }),
        ),
        // Worker-pool dispatch latency (small grids: the hand-off
        // overhead the pool removes dominates there).
        (
            "pool_latency",
            Box::new(|| {
                let pool_threads: Vec<usize> = if quick { vec![2] } else { vec![2, 4] };
                let (pool_solves, pool_sweeps) = if quick { (60, 8) } else { (200, 8) };
                vec![pool_block(64, &pool_threads, pool_solves, pool_sweeps)]
            }),
        ),
        // The session lifecycle experiment: batch-64 and a 24-step
        // transient on one prefactored session, zero warm allocations,
        // bitwise equal to the deprecated entry points (the acceptance
        // contract of the `Session` API redesign).
        (
            "session",
            Box::new(|| {
                let edge = if quick { 64 } else { 128 };
                vec![session_block(edge, edge, 3, 64, 24)]
            }),
        ),
        // The true-transient trajectory: warm steps/s of the
        // companion-model stepper per backend on one prefactored
        // `G + C/h` system (zero warm allocations, zero re-prefactors)
        // and the committed factor-reuse speedup over re-prefactoring
        // every step.
        (
            "transient",
            Box::new(|| {
                vec![if quick {
                    transient_block(48, 48, 2, 120)
                } else {
                    transient_block(64, 64, 3, 1000)
                }]
            }),
        ),
        // The PCG reference backend: warm single + batch-8 on the
        // session's prefactored engine, zero warm allocations, agreement
        // within the paper's budget — the committed voltprop-vs-reference
        // speedup.
        (
            "pcg",
            Box::new(|| {
                let edge = if quick { 64 } else { 128 };
                vec![pcg_block(edge, edge, 3, 8)]
            }),
        ),
        // The shared-session concurrency trajectory: requests/s and
        // p50/p99 at 1/4/16 simulated clients on one SharedSession at
        // parallelism 2, plus the asserted zero-allocation hot path. The
        // quick run is the CI smoke for both contracts.
        (
            "concurrency",
            Box::new(|| {
                vec![if quick {
                    concurrency_block(64, 64, 3, 2, 4, &[1, 4, 16], 6)
                } else {
                    concurrency_block(128, 128, 3, 2, 4, &[1, 4, 16], 16)
                }]
            }),
        ),
        // The overload/admission trajectory: bounded-wait shed decision
        // latency, post-release admission, and cooperative-deadline shed
        // accuracy on a saturated one-slot pool — the serving robustness
        // contract, measured at the session layer it rests on.
        (
            "overload",
            Box::new(|| {
                let edge = if quick { 64 } else { 128 };
                vec![overload_block(
                    edge,
                    edge,
                    3,
                    25,
                    if quick { 60 } else { 120 },
                )]
            }),
        ),
        // The row-band sharding trajectory: throughput at band counts
        // above the 2 threads on a tier footprint that exceeds one band's
        // cache, against the default 2-thread engine and bitwise-asserted
        // against the one-thread slices, plus the zero-allocation,
        // bitwise parallelism-4 against parallelism-2 session contract
        // (single / batch / transient). The quick run is the CI smoke for
        // both contracts.
        (
            "sharding",
            Box::new(|| {
                vec![if quick {
                    sharding_block(1024, &[4], 12, 8, 96, 96, 4, 8, 40)
                } else {
                    sharding_block(2048, &[4, 8], 10, 40, 256, 256, 8, 8, 200)
                }]
            }),
        ),
        // The vectorized-kernel bandwidth trajectory: effective GB/s of
        // the batched sweep / red-black sweep / axpy-dot kernels plus the
        // warm solve time at parallelism 2. The quick run is the CI smoke
        // that asserts their zero-allocation contracts.
        (
            "kernels",
            Box::new(|| {
                vec![if quick {
                    kernels_block(64, 16, 40, 1 << 16)
                } else {
                    kernels_block(256, 64, 24, 1 << 20)
                }]
            }),
        ),
        // The coarse pillar-lattice path on a Table-I preset (sparse
        // pads), at the parallelism the end-to-end benchmark serves it
        // with.
        (
            "table_circuit",
            Box::new(|| {
                let circuit = if quick {
                    TableCircuit::C1
                } else {
                    TableCircuit::C2
                };
                vec![table_circuit_block(circuit, 16, 2)]
            }),
        ),
    ];
    let ran: Vec<(&str, Vec<String>)> = sections
        .into_iter()
        .filter(|(name, _)| only.as_ref().is_none_or(|o| o.contains(name)))
        .map(|(name, run)| (name, run()))
        .collect();
    let body: Vec<String> = SECTIONS
        .iter()
        .filter_map(|name| ran.iter().find(|(n, _)| n == name))
        .map(|(name, blocks)| format!("\"{name}\": [\n  {}\n  ]", blocks.join(",\n  ")))
        .collect();

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let hardware_threads = hardware_threads();
    let entry = format!(
        "{{\n  \"unix_time\": {unix_time},\n  \"quick\": {quick},\n  \
         \"hardware_threads\": {hardware_threads},\n  {}\n}}",
        body.join(",\n  "),
    );
    if let Err(e) = append_run(&out, &entry) {
        eprintln!("error: could not append to {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("appended run to {}", out.display());
    println!("{entry}");
}
