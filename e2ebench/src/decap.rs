//! `decap_transient`: a decap-placement engineer stepping a waveform.
//! A 128×128×3 stack with grid capacitance, pad capacitance and a decap
//! on tier 0 (placed as in `perfsuite`'s transient section) runs
//! `Session::transient_dynamic` with backward Euler at h = 20 ps on the
//! VoltProp backend, sweeping sequentially. The waveform is a seeded
//! piecewise-linear sequence of current bursts; each run scales it by a
//! seeded factor in [0.8, 1.2] and alternates the net. The sink
//! observes a fixed set of nodes.

use std::time::Instant;

use voltprop_core::{
    Backend, FnWaveform, Integrator, Session, SolveParams, TransientParams, VpConfig,
};
use voltprop_grid::{NetKind, Stack3d};

use crate::check::{self, rail, Deviation};
use crate::stats::Metric;
use crate::sys::{self, Rng, MIB};
use crate::trace::Tracer;
use crate::{Budget, Outcome, SHORT_SETUP_ROUNDS};

const EDGE: usize = 128;
const TIERS: usize = 3;
const STEP_S: f64 = 20e-12;
/// Steps per `transient_dynamic` run (4 ns of waveform).
const STEPS: usize = 200;
/// Sequential sweeps. On a 128×128 tier a step is ~20 sweeps of a few
/// tens of microseconds each, so at 2 threads the worker-pool round trip
/// (`solvers.pool_rt_us`) dominates and steps/s swung by ±15% between
/// runs on a 2-vCPU virtual machine, wider than any usable bound.
const TRANSIENT_PARALLELISM: usize = 1;

fn build_stack() -> Stack3d {
    Stack3d::builder(EDGE, EDGE, TIERS)
        .uniform_load(1e-4)
        .grid_capacitance(2e-13)
        .decap(0, EDGE / 3, EDGE / 3, 2e-10)
        .pad_capacitance(5e-13)
        .build()
        .expect("valid transient stack")
}

/// A 4×4 lattice of probes on every tier plus the decap site.
fn observed(stack: &Stack3d) -> Vec<usize> {
    let mut nodes = Vec::new();
    for t in 0..TIERS {
        for y in [16, 48, 80, 112] {
            for x in [16, 48, 80, 112] {
                nodes.push(stack.node_index(t, x, y));
            }
        }
    }
    nodes.push(stack.node_index(0, EDGE / 3, EDGE / 3));
    nodes
}

/// Per-step load multiplier: an idle floor with one seeded burst in each
/// 50-step slot — a linear rise, a hold at a peak, and a linear fall.
/// Start offsets, ramp and hold lengths and peaks are stratified across
/// the slots, so every seed gets bursts of the same total size in its
/// own arrangement.
fn envelope(seed: u64) -> Vec<f64> {
    const SLOT: usize = 50;
    const SLOTS: usize = STEPS / SLOT;
    let mut rng = Rng::stream(seed, 4);
    let idle = 0.3;
    let starts = rng.strata(SLOTS, 0.0, 10.0);
    let rises = rng.strata(SLOTS, 3.0, 6.0);
    let holds = rng.strata(SLOTS, 15.0, 22.0);
    let falls = rng.strata(SLOTS, 3.0, 6.0);
    let peaks = rng.strata(SLOTS, 1.5, 2.5);
    let mut points = vec![(0.0, idle)];
    for k in 0..SLOTS {
        let t = (k * SLOT) as f64 + starts[k];
        points.push((t, idle));
        points.push((t + rises[k], peaks[k]));
        points.push((t + rises[k] + holds[k], peaks[k]));
        points.push((t + rises[k] + holds[k] + falls[k], idle));
    }
    (0..STEPS)
        .map(|s| {
            let x = (s + 1) as f64;
            let i = points.partition_point(|&(pt, _)| pt <= x);
            if i == points.len() {
                return points[i - 1].1;
            }
            let ((ta, sa), (tb, sb)) = (points[i - 1], points[i]);
            sa + (sb - sa) * (x - ta) / (tb - ta)
        })
        .collect()
}

/// What one transient run produced.
struct RunStats {
    ms: f64,
    iterations: usize,
    /// Time inside the waveform and sink callbacks (traced runs only).
    wave_ms: f64,
    sink_ms: f64,
}

/// One `transient_dynamic` run of the first `stamps.len()` steps of the
/// `factor`-scaled waveform; the observed trace lands in `trace`
/// (step-major) and per-step completion times in `stamps`.
#[allow(clippy::too_many_arguments)]
fn run_once(
    session: &mut Session,
    stack: &Stack3d,
    request: &TransientParams<'_>,
    envelope: &[f64],
    factor: f64,
    trace: &mut [f64],
    stamps: &mut [Instant],
    time_callbacks: bool,
) -> Result<RunStats, String> {
    let base = stack.loads();
    let steps = stamps.len();
    let width = trace.len() / STEPS;
    let (mut wave_ns, mut sink_ns) = (0u128, 0u128);
    let mut wave = FnWaveform::new(steps, |step, _t, loads: &mut [f64]| {
        let t0 = time_callbacks.then(Instant::now);
        let s = factor * envelope[step];
        for (l, b) in loads.iter_mut().zip(base) {
            *l = s * b;
        }
        if let Some(t0) = t0 {
            wave_ns += t0.elapsed().as_nanos();
        }
    });
    let mut sink = |step: usize, _t: f64, obs: &[f64]| {
        let now = Instant::now();
        trace[step * width..(step + 1) * width].copy_from_slice(obs);
        stamps[step] = now;
        if time_callbacks {
            sink_ns += now.elapsed().as_nanos();
        }
    };
    let start = Instant::now();
    let report = session
        .transient_dynamic(&mut wave, &mut sink, request)
        .map_err(|e| e.to_string())?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if report.steps != steps {
        return Err(format!("ran {} of {steps} steps", report.steps));
    }
    Ok(RunStats {
        ms,
        iterations: report.solver_iterations,
        wave_ms: wave_ns as f64 / 1e6,
        sink_ms: sink_ns as f64 / 1e6,
    })
}

pub fn run(seed: u64, budget: Budget, tracer: &Tracer) -> Outcome {
    let envelope = envelope(seed);
    let mut setup_s = Vec::new();
    let mut prefactor_ms = Vec::new();
    let mut built = None;
    for _ in 0..budget.setup_rounds(SHORT_SETUP_ROUNDS) {
        drop(built.take());
        let start = Instant::now();
        let stack = tracer.time("grid.stack", build_stack);
        let session = tracer.time("core.build", || {
            Session::build(&stack, VpConfig::new().parallelism(TRANSIENT_PARALLELISM))
        });
        let mut session = session.expect("transient session builds");
        let nodes = observed(&stack);
        let mut trace = vec![0.0; STEPS * nodes.len()];
        let mut stamps = [Instant::now()];
        let request = TransientParams::new(&stack, STEP_S)
            .integrator(Integrator::BackwardEuler)
            .observe(&nodes);
        // A one-step run factors the companion system G + C/h; the same
        // run again is warm, so their difference is the prefactor.
        let mut one_step = |session: &mut Session| {
            let (ran, ms) = tracer.timed("core.transient", || {
                run_once(
                    session,
                    &stack,
                    &request,
                    &envelope,
                    1.0,
                    &mut trace,
                    &mut stamps,
                    false,
                )
            });
            ran.expect("one-step transient runs");
            ms
        };
        let cold = one_step(&mut session);
        prefactor_ms.push(cold - one_step(&mut session));
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((stack, session));
    }
    let (stack, mut session) = built.expect("at least one set-up round");
    let nodes = observed(&stack);
    let mut trace = vec![0.0; STEPS * nodes.len()];
    let mut stamps = vec![Instant::now(); STEPS];

    // One reference per net: the naive 3-D relaxation on the same
    // companion system at a tight tolerance, for the unscaled waveform.
    let references = budget.checked().then(|| {
        let tight = SolveParams::new()
            .inner_tolerance(1e-10)
            .max_inner_sweeps(1_000_000);
        [NetKind::Power, NetKind::Ground].map(|net| {
            let request = TransientParams::new(&stack, STEP_S)
                .integrator(Integrator::BackwardEuler)
                .net(net)
                .backend(Backend::Rb3d)
                .params(tight)
                .observe(&nodes);
            run_once(
                &mut session,
                &stack,
                &request,
                &envelope,
                1.0,
                &mut trace,
                &mut stamps,
                false,
            )
            .expect("Rb3d reference runs");
            Deviation::from_voltages(&trace, rail(&stack, net))
        })
    });

    let mut rng = Rng::stream(seed, 5);
    let mut factors = Vec::new();
    let mut step_ms = Vec::new();
    let mut runs = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut request_no = 0u64;
    while budget.more(start.elapsed(), request_no, 2) {
        let net = if request_no % 2 == 0 {
            NetKind::Power
        } else {
            NetKind::Ground
        };
        // Factors come in stratified blocks of eight, so the load a run
        // carries does not drift with the seed.
        if factors.is_empty() {
            factors = rng.strata(8, 0.8, 1.2);
        }
        let factor = factors.pop().expect("block just refilled");
        let request = TransientParams::new(&stack, STEP_S)
            .integrator(Integrator::BackwardEuler)
            .net(net)
            .observe(&nodes);
        let t0 = Instant::now();
        let result = tracer.time("core.transient", || {
            run_once(
                &mut session,
                &stack,
                &request,
                &envelope,
                factor,
                &mut trace,
                &mut stamps,
                tracer.on(),
            )
        });
        attempted += 1;
        let right = references.as_ref().is_none_or(|r| {
            let reference = &r[usize::from(net == NetKind::Ground)];
            check::within(&trace, rail(&stack, net), &[reference], &[factor])
        });
        match result {
            Ok(stats) if right => {
                let mut prev = t0;
                for &s in &stamps {
                    step_ms.push((s - prev).as_secs_f64() * 1e3);
                    prev = s;
                }
                runs.push(stats);
            }
            _ => failed += 1,
        }
        request_no += 1;
    }
    if runs.is_empty() {
        step_ms.push(f64::INFINITY);
    }
    let total_ms: f64 = runs.iter().map(|r| r.ms).sum();

    let e2e = vec![
        Metric::median_of("setup_s", "s", &setup_s)
            .note("stack + Session::build + companion prefactor (a cold and a warm one-step run)"),
        Metric::one("mem_mb", "MiB", sys::heap_peak_mb()),
        Metric::median_of("latency_p50_ms", "ms", &step_ms).note("one warm transient step"),
        Metric::p95_of("latency_p95_ms", "ms", &step_ms).note("one warm transient step"),
        Metric::one(
            "throughput_per_s",
            "1/s",
            (runs.len() * STEPS) as f64 / (total_ms / 1e3),
        )
        .note("steps_per_s: warm transient steps per second"),
    ];

    let mut layers = Vec::new();
    if tracer.on() && !runs.is_empty() {
        let per_step = |f: &dyn Fn(&RunStats) -> f64| -> Vec<f64> {
            runs.iter().map(|r| f(r) / STEPS as f64).collect()
        };
        layers = vec![
            Metric::median_of("grid.stack_ms", "ms", &tracer.durations_ms("grid.stack"))
                .note("StackBuilder::build, 128x128x3 with capacitance"),
            Metric::median_of("core.build_ms", "ms", &tracer.durations_ms("core.build"))
                .note("Session::build, 128x128x3, parallelism 1"),
            Metric::one(
                "core.session_mb",
                "MiB",
                session.memory_bytes() as f64 / MIB,
            ),
            Metric::median_of("core.transient.prefactor_ms", "ms", &prefactor_ms)
                .note("cold one-step run minus the same run warm"),
            Metric::median_of(
                "core.transient.iters_per_step",
                "count",
                &per_step(&|r| r.iterations as f64),
            ),
            Metric::median_of(
                "core.transient.solve_us_per_step",
                "us",
                &per_step(&|r| (r.ms - r.wave_ms - r.sink_ms) * 1e3),
            )
            .note("warm step time minus callback time"),
            Metric::median_of(
                "core.transient.wave_us_per_step",
                "us",
                &per_step(&|r| r.wave_ms * 1e3),
            ),
            Metric::median_of(
                "core.transient.sink_us_per_step",
                "us",
                &per_step(&|r| r.sink_ms * 1e3),
            ),
        ];
    }
    Outcome {
        e2e,
        layers,
        attempted,
        failed,
        flag_checked: 0,
    }
}
