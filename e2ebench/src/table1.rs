//! `table1_c3`: a sign-off engineer's DC IR-drop run on the paper's
//! largest routine circuit (Table I, C3: 577×577×3, 998,787 nodes).
//! One thread sends single `Session::solve` requests in a closed loop,
//! alternating power and ground nets, each scaling the base loads by a
//! seeded factor in [0.8, 1.2].

use std::time::Instant;

use voltprop_core::{LoadCase, Session, VpConfig};
use voltprop_grid::{NetKind, Stack3d, TableCircuit};

use crate::check::{self, pcg_reference, rail};
use crate::stats::{median, Metric};
use crate::sys::{self, Rng, MIB};
use crate::trace::Tracer;
use crate::{Budget, Outcome, PARALLELISM, SETUP_ROUNDS};

pub fn run(seed: u64, budget: Budget, tracer: &Tracer, sweep_ns: Option<f64>) -> Outcome {
    let rounds = budget.setup_rounds(SETUP_ROUNDS);
    let mut setup_s = Vec::new();
    let mut built: Option<(Stack3d, Session)> = None;
    for _ in 0..rounds {
        drop(built.take()); // one C3 session (~750 MB) alive at a time
        let start = Instant::now();
        let stack = tracer.time("grid.stack", || TableCircuit::C3.build(seed));
        let stack = stack.expect("C3 synthesizes");
        let session = tracer.time("core.build", || {
            Session::build(&stack, VpConfig::new().parallelism(PARALLELISM))
        });
        let mut session = session.expect("C3 session builds");
        session
            .solve(&LoadCase::new(&stack))
            .expect("warm-up solve runs");
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((stack, session));
    }
    let (mut stack, mut session) = built.expect("at least one set-up round");

    let references = budget.checked().then(|| {
        [NetKind::Power, NetKind::Ground]
            .map(|net| pcg_reference(&mut session, &stack, net).expect("PCG reference converges"))
    });

    let base = stack.loads().to_vec();
    let mut rng = Rng::stream(seed, 1);
    let mut factors = Vec::new();
    let mut latency_ms = Vec::new();
    let mut reports = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut request = 0u64;
    while budget.more(start.elapsed(), request, 2) {
        let net = if request % 2 == 0 {
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
        stack
            .set_loads(base.iter().map(|l| factor * l).collect())
            .expect("same node count");
        let (result, ms) = tracer.timed("core.solve", || {
            session.solve(&LoadCase::new(&stack).net(net))
        });
        attempted += 1;
        let ok = match &result {
            Ok(view) => {
                reports.push(*view.report());
                let right = references.as_ref().is_none_or(|r| {
                    let reference = &r[usize::from(net == NetKind::Ground)];
                    check::within(view.voltages(), rail(&stack, net), &[reference], &[factor])
                });
                view.converged() && right
            }
            Err(_) => false,
        };
        if ok {
            latency_ms.push(ms);
        } else {
            failed += 1;
        }
        request += 1;
    }
    if latency_ms.is_empty() {
        latency_ms.push(f64::INFINITY);
    }
    let solve_s: f64 = latency_ms.iter().sum::<f64>() / 1e3;

    let e2e = vec![
        Metric::median_of("setup_s", "s", &setup_s)
            .note("C3 synthesis + Session::build + one warm-up solve"),
        Metric::one("mem_mb", "MiB", sys::heap_peak_mb()),
        Metric::median_of("latency_p50_ms", "ms", &latency_ms).note("Session::solve"),
        Metric::p95_of("latency_p95_ms", "ms", &latency_ms).note("Session::solve"),
        Metric::one("throughput_per_s", "1/s", latency_ms.len() as f64 / solve_s)
            .note("correct solves per second of solve time"),
    ];

    let mut layers = Vec::new();
    if tracer.on() && !reports.is_empty() {
        layers = vec![
            Metric::median_of("grid.stack_ms", "ms", &tracer.durations_ms("grid.stack"))
                .note("TableCircuit::C3.build"),
            Metric::median_of("core.build_ms", "ms", &tracer.durations_ms("core.build"))
                .note("Session::build, C3, parallelism 2"),
            Metric::one(
                "core.session_mb",
                "MiB",
                session.memory_bytes() as f64 / MIB,
            ),
        ];
        let outer: Vec<f64> = reports.iter().map(|r| r.outer_iterations as f64).collect();
        let sweeps: Vec<f64> = reports.iter().map(|r| r.inner_sweeps as f64).collect();
        layers.push(Metric::median_of("core.outer_iters", "count", &outer));
        layers.push(Metric::median_of("core.inner_sweeps", "count", &sweeps));
        if let Some(ns) = sweep_ns {
            let solve_ms = median(&tracer.durations_ms("core.solve"));
            layers.push(
                Metric::one(
                    "core.sweep_share",
                    "ratio",
                    median(&sweeps) * ns / (solve_ms * 1e6),
                )
                .note("inner sweeps x solvers.sweep_ns / median solve time"),
            );
        }
    }
    Outcome {
        e2e,
        layers,
        attempted,
        failed,
        flag_checked: 0,
    }
}
