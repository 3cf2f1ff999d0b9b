//! `whatif_batch`: a load-sweep user asking "what if these blocks run
//! hot". Each `Session::solve_batch` request carries 16 lanes on
//! `TableCircuit::C2` (277×277×3); lane `j` is a seeded non-negative
//! combination of the base loads and four hotspot patterns, so lanes
//! converge at different sweeps. Requests alternate power and ground.

use std::time::Instant;

use voltprop_core::{LoadCase, LoadSet, Session, SolveParams, VpConfig};
use voltprop_grid::{NetKind, Stack3d, TableCircuit};

use crate::check::{self, pcg_reference, rail, Deviation};
use crate::probes::BATCH_LANES;
use crate::stats::{median, Metric};
use crate::sys::{self, Rng, MIB};
use crate::trace::Tracer;
use crate::{Budget, Outcome, PARALLELISM, SETUP_ROUNDS};

const HOTSPOTS: usize = 4;
/// Hotspot radius (nodes, Gaussian σ) and peak multiple of the base load.
const HOTSPOT_SIGMA: f64 = 14.0;
const HOTSPOT_PEAK: f64 = 3.0;

/// The base loads followed by the hotspot patterns: each hotspot is the
/// base load on one tier scaled by a Gaussian bump at a seeded site.
fn patterns(stack: &Stack3d, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::stream(seed, 2);
    let base = stack.loads().to_vec();
    let mut out = vec![base.clone()];
    for _ in 0..HOTSPOTS {
        let tier = rng.below(stack.tiers());
        let cx = rng.range(0.0, stack.width() as f64);
        let cy = rng.range(0.0, stack.height() as f64);
        out.push(
            base.iter()
                .enumerate()
                .map(|(i, &l)| {
                    let (t, x, y) = stack.node_coords(i);
                    if t != tier {
                        return 0.0;
                    }
                    let r2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
                    l * HOTSPOT_PEAK * (-r2 / (2.0 * HOTSPOT_SIGMA * HOTSPOT_SIGMA)).exp()
                })
                .collect(),
        );
    }
    out
}

/// Seeded lane coefficients: base in [0.5, 1], each hotspot off half the
/// time and otherwise in [0.2, 1.5].
fn lane_coeffs(rng: &mut Rng) -> [f64; HOTSPOTS + 1] {
    let mut c = [0.0; HOTSPOTS + 1];
    c[0] = rng.range(0.5, 1.0);
    for ck in &mut c[1..] {
        if rng.unit() < 0.5 {
            *ck = rng.range(0.2, 1.5);
        }
    }
    c
}

fn combine(patterns: &[Vec<f64>], coeffs: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (p, &c) in patterns.iter().zip(coeffs) {
        if c != 0.0 {
            for (o, l) in out.iter_mut().zip(p) {
                *o += c * l;
            }
        }
    }
}

pub fn run(seed: u64, budget: Budget, tracer: &Tracer) -> Outcome {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..budget.setup_rounds(SETUP_ROUNDS) {
        drop(built.take());
        let start = Instant::now();
        let stack = tracer.time("grid.stack", || TableCircuit::C2.build(seed));
        let stack = stack.expect("C2 synthesizes");
        let session = tracer.time("core.build", || {
            Session::build(&stack, VpConfig::new().parallelism(PARALLELISM))
        });
        let mut session = session.expect("C2 session builds");
        // Warm-up: one 16-lane batch sizes the lane arenas; a single
        // outer iteration is enough to touch them.
        let mut lanes = vec![0.0; BATCH_LANES * stack.num_nodes()];
        for (j, chunk) in lanes.chunks_mut(stack.num_nodes()).enumerate() {
            let s = 0.5 + j as f64 / 32.0;
            for (o, l) in chunk.iter_mut().zip(stack.loads()) {
                *o = s * l;
            }
        }
        session
            .solve_batch(
                &LoadSet::new(&stack, &lanes).params(SolveParams::new().max_outer_iterations(1)),
            )
            .expect("warm-up batch runs");
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((stack, session));
    }
    let (mut stack, mut session) = built.expect("at least one set-up round");
    let nn = stack.num_nodes();
    let patterns = patterns(&stack, seed);

    let references = budget.checked().then(|| {
        [NetKind::Power, NetKind::Ground].map(|net| {
            patterns
                .iter()
                .map(|p| {
                    stack.set_loads(p.clone()).expect("same node count");
                    pcg_reference(&mut session, &stack, net).expect("PCG reference converges")
                })
                .collect::<Vec<Deviation>>()
        })
    });

    let mut rng = Rng::stream(seed, 3);
    let mut loads = vec![0.0; BATCH_LANES * nn];
    let mut coeffs = vec![[0.0; HOTSPOTS + 1]; BATCH_LANES];
    let mut first_request: Option<(NetKind, Vec<f64>)> = None;
    let mut batch_ms = Vec::new();
    let (mut lane_max, mut lane_min) = (Vec::new(), Vec::new());
    let (mut answered, mut attempted, mut failed) = (0usize, 0u64, 0u64);
    let mut solve_s = 0.0;
    let start = Instant::now();
    let mut request = 0u64;
    while budget.more(start.elapsed(), request, 1) {
        let net = if request % 2 == 0 {
            NetKind::Power
        } else {
            NetKind::Ground
        };
        for (j, chunk) in loads.chunks_mut(nn).enumerate() {
            coeffs[j] = lane_coeffs(&mut rng);
            combine(&patterns, &coeffs[j], chunk);
        }
        if first_request.is_none() {
            first_request = Some((net, loads.clone()));
        }
        let (result, ms) = tracer.timed("core.solve_batch", || {
            session.solve_batch(&LoadSet::new(&stack, &loads).net(net))
        });
        solve_s += ms / 1e3;
        attempted += BATCH_LANES as u64;
        match result {
            Ok(view) => {
                let mut sweeps = Vec::with_capacity(BATCH_LANES);
                let mut all_right = true;
                for (j, c) in coeffs.iter().enumerate() {
                    let report = view.lane_report(j).expect("lane in range");
                    sweeps.push(report.inner_sweeps as f64);
                    let right = references.as_ref().is_none_or(|r| {
                        let basis: Vec<&Deviation> =
                            r[usize::from(net == NetKind::Ground)].iter().collect();
                        let v = view.lane_voltages(j).expect("lane in range");
                        check::within(v, rail(&stack, net), &basis, c)
                    });
                    if report.converged && right {
                        answered += 1;
                    } else {
                        failed += 1;
                        all_right = false;
                    }
                }
                if all_right {
                    batch_ms.push(ms);
                }
                lane_max.push(sweeps.iter().copied().fold(0.0, f64::max));
                lane_min.push(sweeps.iter().copied().fold(f64::INFINITY, f64::min));
            }
            Err(_) => failed += BATCH_LANES as u64,
        }
        request += 1;
    }
    if batch_ms.is_empty() {
        batch_ms.push(f64::INFINITY);
    }

    let e2e = vec![
        Metric::median_of("setup_s", "s", &setup_s)
            .note("C2 synthesis + Session::build + one 16-lane warm-up batch"),
        Metric::one("mem_mb", "MiB", sys::heap_peak_mb()),
        Metric::median_of("latency_p50_ms", "ms", &batch_ms)
            .note("one 16-lane Session::solve_batch request"),
        Metric::p95_of("latency_p95_ms", "ms", &batch_ms)
            .note("one 16-lane Session::solve_batch request"),
        Metric::one("throughput_per_s", "1/s", answered as f64 / solve_s)
            .note("rhs_per_s: correct load patterns per second of solve_batch time"),
    ];

    let mut layers = Vec::new();
    if tracer.on() {
        layers = vec![
            Metric::median_of("grid.stack_ms", "ms", &tracer.durations_ms("grid.stack"))
                .note("TableCircuit::C2.build"),
            Metric::median_of("core.build_ms", "ms", &tracer.durations_ms("core.build"))
                .note("Session::build, C2, parallelism 2"),
            Metric::one(
                "core.session_mb",
                "MiB",
                session.memory_bytes() as f64 / MIB,
            ),
        ];
        layers.push(Metric::median_of(
            "core.lane_sweeps_max",
            "count",
            &lane_max,
        ));
        layers.push(Metric::median_of(
            "core.lane_sweeps_min",
            "count",
            &lane_min,
        ));
        // Batching judged against the same lanes solved one by one.
        let (net, lanes) = first_request.expect("at least one request");
        let mut seq_ms = Vec::with_capacity(BATCH_LANES);
        for chunk in lanes.chunks(nn) {
            stack.set_loads(chunk.to_vec()).expect("same node count");
            let (ok, ms) = tracer.timed("core.solve", || {
                session.solve(&LoadCase::new(&stack).net(net)).is_ok()
            });
            assert!(ok, "sequential lane solve runs");
            seq_ms.push(ms);
        }
        layers.push(
            Metric::one(
                "core.seq_ms_per_rhs",
                "ms",
                seq_ms.iter().sum::<f64>() / seq_ms.len() as f64,
            )
            .note("the first request's 16 lanes through Session::solve one by one"),
        );
        let one: Vec<f64> = (0..3)
            .map(|_| {
                let (ran, ms) = tracer.timed("core.solve_batch", || {
                    session
                        .solve_batch(&LoadSet::new(&stack, &lanes[..nn]).net(net))
                        .is_ok()
                });
                assert!(ran, "k = 1 batch runs");
                ms
            })
            .collect();
        layers.push(
            Metric::one("core.batch1_ms", "ms", median(&one))
                .note("solve_batch at k = 1 on the first lane, median of 3"),
        );
    }
    Outcome {
        e2e,
        layers,
        attempted,
        failed,
        flag_checked: 0,
    }
}
