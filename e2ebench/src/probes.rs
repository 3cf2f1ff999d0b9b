//! Fixed-budget probes of the `solvers` and `sparse` layers. They do not
//! depend on the workload, so every traced run takes them the same way:
//! tier sweeps at tolerance 0 (which never converges, so exactly the
//! requested number of sweeps runs) on tiers shaped like the workloads'.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use voltprop_solvers::{LaneReport, SweepSchedule, TierEngine};
use voltprop_sparse::vec_ops;

use crate::stats::{median, Metric};

/// Tier edge of a `TableCircuit::C3` tier (577×577).
pub const C3_EDGE: usize = 577;
/// Tier edge of a `TableCircuit::C2` tier (277×277).
pub const C2_EDGE: usize = 277;
/// Lanes of a `whatif_batch` request.
pub const BATCH_LANES: usize = 16;
/// Bytes one single-lane sweep moves per free node, as computed from the
/// array sizes (not measured): voltage read and write plus injection
/// read, 24 B, and 32 B of prefactored row coefficients.
const SWEEP_BYTES_PER_FREE_NODE: f64 = 56.0;

/// A tier pinned at every TSV site of the paper's pitch-2 lattice, 1 Ω
/// wires, uniform draw on the free nodes.
struct Tier {
    edge: usize,
    fixed: Arc<[bool]>,
    injection: Vec<f64>,
}

impl Tier {
    fn new(edge: usize) -> Tier {
        let fixed: Vec<bool> = (0..edge * edge)
            .map(|i| (i / edge) % 2 == 0 && (i % edge) % 2 == 0)
            .collect();
        let injection = fixed.iter().map(|&f| if f { 0.0 } else { -5e-4 }).collect();
        Tier {
            edge,
            fixed: fixed.into(),
            injection,
        }
    }

    fn free_nodes(&self) -> usize {
        self.fixed.iter().filter(|&&f| !f).count()
    }

    fn engine(&self, schedule: SweepSchedule, shards: usize) -> TierEngine {
        TierEngine::new_sharded(
            self.edge,
            self.edge,
            1.0,
            1.0,
            Arc::clone(&self.fixed),
            None,
            schedule,
            shards,
        )
        .expect("probe tier is well-formed")
    }
}

/// Median ns per sweep over `reps` fixed-budget solves of `sweeps` sweeps.
fn sweep_ns(
    tier: &Tier,
    schedule: SweepSchedule,
    shards: usize,
    sweeps: usize,
    reps: usize,
) -> f64 {
    let mut engine = tier.engine(schedule, shards);
    let v0 = vec![1.8; tier.edge * tier.edge];
    let mut v = v0.clone();
    // Warm-up: first touch, worker threads parked in the pool.
    let _ = engine.solve(&tier.injection, &mut v, 0.0, 2);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            v.copy_from_slice(&v0);
            let start = Instant::now();
            // Tolerance 0 never passes: the error return marks the budget spent.
            let _ = black_box(engine.solve(&tier.injection, &mut v, 0.0, sweeps));
            start.elapsed().as_nanos() as f64 / sweeps as f64
        })
        .collect();
    median(&samples)
}

/// The `solvers` and `sparse` per-layer metrics.
pub fn layer_probes() -> Vec<Metric> {
    let red_black = SweepSchedule::RedBlack {
        threads: crate::PARALLELISM,
    };
    let c3 = Tier::new(C3_EDGE);
    let rb_ns = sweep_ns(&c3, red_black, 1, 10, 7);
    let seq_ns = sweep_ns(&c3, SweepSchedule::Sequential, 1, 10, 7);
    let shard_ns = sweep_ns(&c3, red_black, 2, 10, 7);
    let gbps = SWEEP_BYTES_PER_FREE_NODE * c3.free_nodes() as f64 / rb_ns;

    let mut out = vec![
        Metric::one("solvers.sweep_ns", "ns", rb_ns)
            .note("577x577 tier, red-black on 2 threads, median of 7 x 10 sweeps"),
        Metric::one("solvers.sweep_seq_ns", "ns", seq_ns).note("577x577 tier, sequential"),
        Metric::one("solvers.sweep_shard2_ns", "ns", shard_ns)
            .note("577x577 tier, 2 row bands, red-black on 2 threads"),
        Metric::one("solvers.sweep_gbps", "GB/s", gbps)
            .note("computed: 56 B per free node per sweep / solvers.sweep_ns"),
    ];

    // Batched lanes on a C2-shaped tier: node-major, lane-minor layout.
    let c2 = Tier::new(C2_EDGE);
    let n = C2_EDGE * C2_EDGE;
    let injection: Vec<f64> = (0..n * BATCH_LANES)
        .map(|i| c2.injection[i / BATCH_LANES] * (1.0 + (i % BATCH_LANES) as f64 / 32.0))
        .collect();
    let v0 = vec![1.8; n * BATCH_LANES];
    let mut v = v0.clone();
    let mut lanes = vec![
        LaneReport {
            iterations: 0,
            residual: 0.0,
            converged: false,
        };
        BATCH_LANES
    ];
    let mut engine = c2.engine(red_black, 1);
    let _ = engine.solve_batch(&injection, &mut v, 0.0, 2, &mut lanes);
    let sweeps = 6;
    let batch: Vec<f64> = (0..5)
        .map(|_| {
            v.copy_from_slice(&v0);
            let start = Instant::now();
            let _ = black_box(engine.solve_batch(&injection, &mut v, 0.0, sweeps, &mut lanes));
            start.elapsed().as_nanos() as f64 / (sweeps * BATCH_LANES) as f64
        })
        .collect();
    out.push(
        Metric::median_of("solvers.batch_lane_sweep_ns", "ns", &batch)
            .note("277x277 tier, 16 lanes, red-black on 2 threads, ns per lane-sweep"),
    );

    // Pool round trip: a one-sweep parallel solve on a small tier minus
    // the same sweep run sequentially on the calling thread.
    let small = Tier::new(64);
    let round_trip = |schedule: SweepSchedule| {
        let mut engine = small.engine(schedule, 1);
        let mut v = vec![1.8; 64 * 64];
        let samples: Vec<f64> = (0..2000)
            .map(|_| {
                let start = Instant::now();
                let _ = black_box(engine.solve(&small.injection, &mut v, 0.0, 1));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples)
    };
    let parallel = round_trip(red_black);
    let sequential = round_trip(SweepSchedule::Sequential);
    out.push(
        Metric::one("solvers.pool_rt_us", "us", (parallel - sequential) / 1e3)
            .note("64x64 tier: 1-sweep 2-thread solve minus the sequential sweep, medians of 2000"),
    );

    // Bandwidth reference: arrays at least 4x the last-level cache.
    let l3 = crate::sys::l3_bytes().unwrap_or(32 << 20);
    let len = 4 * l3 / 8;
    let x = vec![1.0f64; len];
    let mut y = vec![0.5f64; len];
    vec_ops::axpy(1e-9, &x, &mut y);
    let axpy: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            vec_ops::axpy(black_box(1e-9), &x, &mut y);
            24.0 * len as f64 / start.elapsed().as_nanos() as f64
        })
        .collect();
    black_box(&y);
    out.push(
        Metric::median_of("sparse.axpy_gbps", "GB/s", &axpy).note(format!(
            "arrays of {} MiB each, 4x the {} MiB L3; 24 B per element",
            (len * 8) >> 20,
            l3 >> 20
        )),
    );
    out
}
