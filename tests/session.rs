//! Integration: the `Session` lifecycle — build → solve → batch →
//! step sweep on one handle — must be bitwise reproducible (pinned by a
//! saved fixture, replacing the deleted `VpSolver` legacy shims as the
//! reference), refuse geometry drift instead of silently rebuilding, and
//! route all three backends through the same prefactored state.

use std::fmt::Write as _;

use voltprop::solvers::residual;
use voltprop::{
    Backend, DirectCholesky, FnWaveform, Integrator, LoadCase, LoadProfile, LoadSet, NetKind, Pcg,
    Rb3d, Session, SessionError, SolveParams, Stack3d, StackSolver, TraceSink, TransientParams,
    VpConfig, VpReport,
};

fn stack() -> Stack3d {
    Stack3d::builder(12, 12, 3)
        .load_profile(
            LoadProfile::UniformRandom {
                min: 1e-5,
                max: 1e-3,
            },
            23,
        )
        .build()
        .unwrap()
}

/// `k` load vectors derived from the stack's own loads with different
/// magnitudes (so lanes converge along different trajectories).
fn load_sweep(stack: &Stack3d, k: usize) -> Vec<f64> {
    let mut loads = Vec::with_capacity(k * stack.num_nodes());
    for j in 0..k {
        let scale = 0.5 + 0.4 * j as f64;
        loads.extend(stack.loads().iter().map(|l| scale * l));
    }
    loads
}

/// The saved fixture that pins the session's bitwise behavior across
/// releases. Regenerate deliberately with
/// `VOLTPROP_BLESS=1 cargo test --test session pinned_fixture`.
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/session_pinned.txt"
);

#[test]
fn pinned_fixture_guards_bitwise_behavior() {
    // When the deprecated `VpSolver::solve{,_with,_batch}` shims were
    // removed, the "session matches legacy bitwise" comparisons moved
    // here: the exact bit patterns those paths produced (and the session
    // reproduced) are committed as a fixture, so a refactor that
    // perturbs a single ULP anywhere in the solve pipeline fails loudly
    // and must re-bless deliberately.
    let stack = stack();
    let nn = stack.num_nodes();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();

    let mut blob: Vec<u64> = Vec::new();
    let section = |name: &str, bits: &mut Vec<u64>, values: &[f64]| {
        assert!(!values.is_empty(), "{name}: empty section");
        bits.extend(values.iter().map(|v| v.to_bits()));
    };

    // 1. Single solve: voltages + pillar currents.
    let view = session.solve(&LoadCase::new(&stack)).unwrap();
    assert!(view.converged());
    section("single voltages", &mut blob, view.voltages());
    section("single pillar currents", &mut blob, view.pillar_currents());

    // 2. Batch of 2 diverging lanes: per-lane voltages + pillar currents.
    let k = 2;
    let loads = load_sweep(&stack, k);
    let batch = session.solve_batch(&LoadSet::new(&stack, &loads)).unwrap();
    assert_eq!(batch.lanes(), k);
    let mut lane_bits: Vec<u64> = Vec::new();
    for j in 0..k {
        section(
            "batch lane voltages",
            &mut lane_bits,
            batch.lane_voltages(j).unwrap(),
        );
        section(
            "batch lane pillar currents",
            &mut lane_bits,
            batch.lane_pillar_currents(j).unwrap(),
        );
    }
    blob.extend_from_slice(&lane_bits);

    // 3. Step-sweeping the same waveform must reproduce the batch
    // lanes bitwise (steps are lanes; no fixture needed for this).
    let transient = session
        .solve_steps(&LoadCase::new(&stack), k, |s, lane| {
            lane.copy_from_slice(&loads[s * nn..(s + 1) * nn]);
        })
        .unwrap();
    let mut transient_bits: Vec<u64> = Vec::new();
    for j in 0..k {
        section(
            "transient lane voltages",
            &mut transient_bits,
            transient.lane_voltages(j).unwrap(),
        );
        section(
            "transient lane pillar currents",
            &mut transient_bits,
            transient.lane_pillar_currents(j).unwrap(),
        );
    }
    assert_eq!(
        transient_bits, lane_bits,
        "transient steps must be bitwise identical to the equivalent batch"
    );

    // 4. Batched lanes are bitwise identical to the corresponding single
    // solves on the same session (the lockstep-freeze contract).
    let mut lane_stack = stack.clone();
    lane_stack.set_loads(loads[..nn].to_vec()).unwrap();
    let solo = session.solve(&LoadCase::new(&lane_stack)).unwrap();
    let solo_bits: Vec<u64> = solo.voltages().iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        solo_bits,
        lane_bits[..nn],
        "batch lane 0 must be bitwise identical to the single solve"
    );

    check_fixture(
        FIXTURE_PATH,
        "# session_pinned fixture: f64 bit patterns, one per line.\n\
         # Regenerate: VOLTPROP_BLESS=1 cargo test --test session pinned_fixture\n",
        &blob,
    );
}

/// Compares `blob` with the 64-bit patterns saved at `path` (one hex
/// value per line, `#` comments ignored), or rewrites the file under
/// `header` when `VOLTPROP_BLESS` is set.
fn check_fixture(path: &str, header: &str, blob: &[u64]) {
    if std::env::var_os("VOLTPROP_BLESS").is_some() {
        let mut out = String::with_capacity(blob.len() * 17 + header.len());
        out.push_str(header);
        for bits in blob {
            writeln!(out, "{bits:016x}").unwrap();
        }
        std::fs::write(path, out).unwrap();
        eprintln!("blessed {} values into {path}", blob.len());
        return;
    }

    let fixture = std::fs::read_to_string(path)
        .expect("fixture missing — run with VOLTPROP_BLESS=1 to generate");
    let expected: Vec<u64> = fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| u64::from_str_radix(l, 16).expect("malformed fixture line"))
        .collect();
    assert_eq!(
        expected.len(),
        blob.len(),
        "fixture length drifted — re-bless deliberately if intended"
    );
    let mismatches = expected.iter().zip(blob).filter(|(a, b)| a != b).count();
    assert_eq!(
        mismatches,
        0,
        "{mismatches}/{} pinned values drifted bitwise — re-bless deliberately if intended",
        blob.len()
    );
}

/// The second saved fixture: the routes `session_pinned.txt` does not
/// reach (companion transients, the planar single-tier case, sparse pads
/// at parallelism 1 and 2). Regenerate deliberately
/// with `VOLTPROP_BLESS=1 cargo test --test session routes_fixture`.
const ROUTES_FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/routes_pinned.txt"
);

/// A report's deterministic fields (the workspace size is left out: it
/// measures buffers, not the answer).
fn push_report(bits: &mut Vec<u64>, r: &VpReport) {
    bits.extend([
        r.outer_iterations as u64,
        r.inner_sweeps as u64,
        r.pad_mismatch.to_bits(),
        u64::from(r.converged),
    ]);
}

/// One single VoltProp solve of `stack`'s own loads: voltages, pillar
/// currents and report.
fn push_single(bits: &mut Vec<u64>, stack: &Stack3d, config: VpConfig, params: SolveParams) {
    let mut session = Session::build(stack, config).unwrap();
    let view = session.solve(&LoadCase::new(stack).params(params)).unwrap();
    assert!(view.converged());
    bits.extend(view.voltages().iter().map(|v| v.to_bits()));
    bits.extend(view.pillar_currents().iter().map(|c| c.to_bits()));
    push_report(bits, view.report());
}

/// A VoltProp `transient_dynamic` run of `steps` steps whose loads
/// scale the stack's own by a per-step factor: every node's voltage at
/// every step, plus the run's step and iteration counts.
fn push_transient(bits: &mut Vec<u64>, stack: &Stack3d, integrator: Integrator, steps: usize) {
    let nn = stack.num_nodes();
    let base = stack.loads().to_vec();
    let mut session = Session::build(stack, VpConfig::default()).unwrap();
    let mut wave = FnWaveform::new(steps, |step, _t, loads: &mut [f64]| {
        let scale = 0.5 + 0.25 * step as f64;
        for (l, b) in loads.iter_mut().zip(&base) {
            *l = scale * b;
        }
    });
    let mut sink = TraceSink::with_capacity(steps, nn);
    let request = TransientParams::new(stack, 20e-12).integrator(integrator);
    let report = session
        .transient_dynamic(&mut wave, &mut sink, &request)
        .unwrap();
    assert_eq!(sink.len(), steps);
    bits.extend(sink.values().iter().map(|v| v.to_bits()));
    bits.extend([report.steps as u64, report.solver_iterations as u64]);
}

#[test]
fn routes_fixture_guards_bitwise_behavior() {
    let random = LoadProfile::UniformRandom {
        min: 1e-5,
        max: 1e-3,
    };
    let mut blob: Vec<u64> = Vec::new();

    // 1. Backward-Euler companion steps on a small decap stack.
    let decap = Stack3d::builder(8, 8, 3)
        .load_profile(random.clone(), 31)
        .grid_capacitance(2e-13)
        .decap(0, 3, 3, 2e-10)
        .build()
        .unwrap();
    push_transient(&mut blob, &decap, Integrator::BackwardEuler, 4);

    // 2. Trapezoidal companion steps on sparse pads (the coarse lattice
    //    correction runs inside every companion solve).
    let sparse_caps = Stack3d::builder(12, 12, 3)
        .pad_lattice(4)
        .load_profile(random.clone(), 32)
        .grid_capacitance(2e-13)
        .build()
        .unwrap();
    push_transient(&mut blob, &sparse_caps, Integrator::Trapezoidal, 3);

    // 3. The planar single-tier case: a static solve and a transient.
    let planar = Stack3d::builder(10, 10, 1)
        .load_profile(random.clone(), 33)
        .grid_capacitance(2e-13)
        .build()
        .unwrap();
    push_single(&mut blob, &planar, VpConfig::default(), SolveParams::new());
    push_transient(&mut blob, &planar, Integrator::BackwardEuler, 3);

    // 4. Sparse pads at parallelism 1 and 2 (tier sweeps and the coarse
    //    lattice solve both change schedule with the thread count).
    let sparse = Stack3d::builder(16, 16, 3)
        .pad_lattice(4)
        .load_profile(random, 34)
        .build()
        .unwrap();
    for parallelism in [1, 2] {
        push_single(
            &mut blob,
            &sparse,
            VpConfig::new().parallelism(parallelism),
            SolveParams::new(),
        );
    }

    check_fixture(
        ROUTES_FIXTURE_PATH,
        "# routes_pinned fixture: 64-bit patterns (f64 bits and counts), one per line.\n\
         # Regenerate: VOLTPROP_BLESS=1 cargo test --test session routes_fixture\n",
        &blob,
    );
}

#[test]
fn geometry_drift_errors_instead_of_rebuilding() {
    let stack = stack();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let mem = session.memory_bytes();

    // A different footprint, a different tier count, and a different TSV
    // resistance are all geometry changes.
    let other_footprint = Stack3d::builder(10, 10, 3)
        .uniform_load(1e-4)
        .build()
        .unwrap();
    let other_tiers = Stack3d::builder(12, 12, 2)
        .uniform_load(1e-4)
        .build()
        .unwrap();
    let other_r = Stack3d::builder(12, 12, 3)
        .tsv_resistance(0.1)
        .uniform_load(1e-4)
        .build()
        .unwrap();
    // A different rail voltage is geometry too: the Rb3d route bakes it
    // into the prefactored engine at build.
    let other_vdd = Stack3d::builder(12, 12, 3)
        .vdd(1.0)
        .uniform_load(1e-4)
        .build()
        .unwrap();
    // A pad away from the pillars must be caught even though every
    // pillar-site pad flag still matches.
    let mut off_pillar_pads: Vec<(usize, usize)> = stack
        .tsv_sites()
        .iter()
        .map(|&(x, y)| (x as usize, y as usize))
        .collect();
    off_pillar_pads.push((1, 1)); // pitch-2 lattice → odd coords are free
    let other_pads = Stack3d::builder(12, 12, 3)
        .pad_sites(off_pillar_pads)
        .uniform_load(1e-4)
        .build()
        .unwrap();
    for bad in [
        &other_footprint,
        &other_tiers,
        &other_r,
        &other_vdd,
        &other_pads,
    ] {
        // On every backend, and before the Rb3d or Pcg engine is built
        // from the bad stack: the geometry check runs first.
        for backend in [Backend::VoltProp, Backend::Rb3d, Backend::Pcg] {
            assert!(matches!(
                session.solve(&LoadCase::new(bad).backend(backend)),
                Err(SessionError::GeometryChanged { .. })
            ));
            assert!(matches!(
                session.solve_batch(&LoadSet::new(bad, &load_sweep(bad, 2)).backend(backend)),
                Err(SessionError::GeometryChanged { .. })
            ));
        }
    }
    // The session is untouched: same memory (no engine was built), still
    // serves its stack.
    assert_eq!(session.memory_bytes(), mem);
    assert!(session.solve(&LoadCase::new(&stack)).is_ok());

    // Loads-only changes are not geometry changes.
    let mut hot = stack.clone();
    hot.set_loads(stack.loads().iter().map(|l| 1.5 * l).collect())
        .unwrap();
    assert!(session.solve(&LoadCase::new(&hot)).is_ok());
}

#[test]
fn voltprop_requests_keep_memory_fixed_and_a_first_pcg_request_grows_it() {
    let stack = stack();
    let nn = stack.num_nodes();
    let loads = load_sweep(&stack, 3);
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let run_voltprop = |session: &mut Session| {
        assert!(session.solve(&LoadCase::new(&stack)).unwrap().converged());
        let batch = session.solve_batch(&LoadSet::new(&stack, &loads)).unwrap();
        assert!(batch.converged());
        let mut wave = FnWaveform::new(4, |_step, _t, l: &mut [f64]| {
            l.copy_from_slice(stack.loads());
        });
        let mut sink = TraceSink::with_capacity(4, nn);
        session
            .transient_dynamic(&mut wave, &mut sink, &TransientParams::new(&stack, 20e-12))
            .unwrap();
    };
    // The first round sizes the one- and three-lane buffers.
    run_voltprop(&mut session);
    let warm = session.memory_bytes();
    for _ in 0..2 {
        run_voltprop(&mut session);
        assert_eq!(
            session.memory_bytes(),
            warm,
            "warm VoltProp requests add nothing"
        );
    }
    let pcg = session
        .solve(&LoadCase::new(&stack).backend(Backend::Pcg))
        .unwrap();
    assert!(pcg.converged());
    assert!(
        session.memory_bytes() > warm,
        "the first Pcg request builds and counts its engine"
    );
}

#[test]
fn mixed_nets_and_tolerances_on_one_session() {
    let stack = stack();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();

    let power = session.solve(&LoadCase::new(&stack)).unwrap();
    assert!(power.worst_drop(stack.vdd()) > 0.0);
    let power_mismatch = power.report().pad_mismatch;

    let ground = session
        .solve(&LoadCase::new(&stack).net(NetKind::Ground))
        .unwrap();
    assert!(ground.converged());
    // Ground bounce is positive: voltages near 0, not near VDD.
    assert!(ground.voltages().iter().all(|&v| v < 0.5 * stack.vdd()));

    // A tighter epsilon on the same session must resolve further.
    let tight = session
        .solve(&LoadCase::new(&stack).params(SolveParams::new().epsilon(1e-6)))
        .unwrap();
    assert!(tight.converged());
    assert!(
        tight.report().pad_mismatch < power_mismatch,
        "tight {} vs default {}",
        tight.report().pad_mismatch,
        power_mismatch
    );
}

#[test]
fn rb3d_backend_routes_through_the_same_session() {
    let stack = stack();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let rb_params = SolveParams::new()
        .inner_tolerance(1e-7)
        .max_inner_sweeps(200_000);

    // Single solve: bitwise identical to the standalone Rb3d solver.
    let standalone = Rb3d::default().solve_stack(&stack, NetKind::Power).unwrap();
    let routed = session
        .solve(
            &LoadCase::new(&stack)
                .backend(Backend::Rb3d)
                .params(rb_params),
        )
        .unwrap();
    assert_eq!(routed.voltages(), &standalone.voltages[..]);
    assert_eq!(
        routed.report().outer_iterations,
        standalone.report.iterations
    );
    assert!(routed.pillar_currents().is_empty(), "rb3d computes none");

    // Both backends on one session agree with the direct reference.
    let exact = DirectCholesky::new()
        .solve_stack(&stack, NetKind::Power)
        .unwrap();
    let vp = session.solve(&LoadCase::new(&stack)).unwrap();
    let vp_err = residual::max_abs_error(&exact.voltages, vp.voltages());
    assert!(vp_err < 5e-4, "vp {vp_err}");
    let rb = session
        .solve(
            &LoadCase::new(&stack)
                .backend(Backend::Rb3d)
                .params(rb_params),
        )
        .unwrap();
    let rb_err = residual::max_abs_error(&exact.voltages, rb.voltages());
    assert!(rb_err < 5e-4, "rb3d {rb_err}");

    // Batched Rb3d: every lane matches a standalone solve on its loads.
    let loads = load_sweep(&stack, 3);
    let batch = session
        .solve_batch(
            &LoadSet::new(&stack, &loads)
                .backend(Backend::Rb3d)
                .params(rb_params),
        )
        .unwrap();
    assert_eq!(batch.lanes(), 3);
    let nn = stack.num_nodes();
    for j in 0..3 {
        let mut lane_stack = stack.clone();
        lane_stack
            .set_loads(loads[j * nn..(j + 1) * nn].to_vec())
            .unwrap();
        let solo = Rb3d::default()
            .solve_stack(&lane_stack, NetKind::Power)
            .unwrap();
        assert_eq!(
            batch.lane_voltages(j).unwrap(),
            &solo.voltages[..],
            "lane {j}"
        );
    }
}

#[test]
fn pcg_backend_routes_through_the_same_session() {
    let stack = stack();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let pcg_params = SolveParams::new()
        .inner_tolerance(1e-8)
        .max_inner_sweeps(50_000);

    // Single solve: agrees with the standalone Pcg solver (same IC(0)
    // preconditioner, same tolerance) and with the direct reference.
    let standalone = Pcg::default().solve_stack(&stack, NetKind::Power).unwrap();
    let routed = session
        .solve(
            &LoadCase::new(&stack)
                .backend(Backend::Pcg)
                .params(pcg_params),
        )
        .unwrap();
    assert!(routed.converged());
    assert!(routed.pillar_currents().is_empty(), "pcg computes none");
    let drift = residual::max_abs_error(&standalone.voltages, routed.voltages());
    assert!(drift < 1e-9, "session pcg vs standalone drift {drift}");
    let exact = DirectCholesky::new()
        .solve_stack(&stack, NetKind::Power)
        .unwrap();
    let err = residual::max_abs_error(&exact.voltages, routed.voltages());
    assert!(err < 5e-4, "pcg vs direct {err}");
    // The report carries CG iterations and the relative residual.
    assert!(routed.report().outer_iterations > 0);
    assert!(routed.report().pad_mismatch <= 1e-8);

    // Ground net through the same prefactored engine (shared matrix).
    let ground = session
        .solve(
            &LoadCase::new(&stack)
                .net(NetKind::Ground)
                .backend(Backend::Pcg)
                .params(pcg_params),
        )
        .unwrap();
    let exact_gnd = DirectCholesky::new()
        .solve_stack(&stack, NetKind::Ground)
        .unwrap();
    let gnd_err = residual::max_abs_error(&exact_gnd.voltages, ground.voltages());
    assert!(gnd_err < 5e-4, "pcg ground vs direct {gnd_err}");

    // Batched Pcg: every lane matches a standalone solve on its loads.
    let loads = load_sweep(&stack, 3);
    let batch = session
        .solve_batch(
            &LoadSet::new(&stack, &loads)
                .backend(Backend::Pcg)
                .params(pcg_params),
        )
        .unwrap();
    assert_eq!(batch.lanes(), 3);
    assert!(batch.converged());
    let nn = stack.num_nodes();
    for j in 0..3 {
        let mut lane_stack = stack.clone();
        lane_stack
            .set_loads(loads[j * nn..(j + 1) * nn].to_vec())
            .unwrap();
        let solo = Pcg::default()
            .solve_stack(&lane_stack, NetKind::Power)
            .unwrap();
        let lane_drift = residual::max_abs_error(&solo.voltages, batch.lane_voltages(j).unwrap());
        assert!(lane_drift < 1e-9, "lane {j} drift {lane_drift}");
    }

    // Step sweeps route through the same per-lane engine path.
    let transient = session
        .solve_steps(
            &LoadCase::new(&stack)
                .backend(Backend::Pcg)
                .params(pcg_params),
            2,
            |s, lane| lane.copy_from_slice(&loads[s * nn..(s + 1) * nn]),
        )
        .unwrap();
    assert_eq!(transient.lanes(), 2);
    assert!(transient.converged());

    // A starved iteration budget freezes the lane with its true residual
    // instead of failing the batch (mirroring the other backends).
    let starved = session
        .solve_batch(
            &LoadSet::new(&stack, &loads).backend(Backend::Pcg).params(
                SolveParams::new()
                    .inner_tolerance(1e-14)
                    .max_inner_sweeps(1),
            ),
        )
        .unwrap();
    for j in 0..starved.lanes() {
        let rep = starved.lane_report(j).unwrap();
        assert!(!rep.converged, "lane {j}");
        assert!(rep.pad_mismatch > 1e-14, "lane {j}: {}", rep.pad_mismatch);
    }
}

#[test]
fn solve_steps_rejects_zero_steps_loads() {
    let stack = stack();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    assert!(matches!(
        session.solve_steps(&LoadCase::new(&stack), 0, |_, _| {}),
        Err(SessionError::Solver(_))
    ));
}

#[test]
fn lane_accessors_are_nonpanicking() {
    let stack = stack();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let loads = load_sweep(&stack, 2);
    let view = session.solve_batch(&LoadSet::new(&stack, &loads)).unwrap();
    assert!(view.lane_voltages(0).is_ok());
    assert!(view.lane_voltages(1).is_ok());
    for lane in [2usize, 100] {
        assert!(matches!(
            view.lane_voltages(lane),
            Err(SessionError::LaneOutOfRange { lanes: 2, .. })
        ));
        assert!(view.lane_pillar_currents(lane).is_err());
        assert!(view.lane_report(lane).is_err());
        assert!(view.lane_worst_drop(lane, stack.vdd()).is_err());
    }
}

#[test]
fn malformed_load_sets_are_rejected() {
    let stack = stack();
    let nn = stack.num_nodes();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    for bad in [
        vec![],
        vec![1e-4; nn + 1],
        vec![-1e-4; nn],
        vec![f64::NAN; nn],
    ] {
        for backend in [Backend::VoltProp, Backend::Rb3d, Backend::Pcg] {
            assert!(
                matches!(
                    session.solve_batch(&LoadSet::new(&stack, &bad).backend(backend)),
                    Err(SessionError::Solver(_))
                ),
                "loads of len {} accepted on {backend:?}",
                bad.len()
            );
        }
    }
}

#[test]
fn budget_starved_solves_report_deadline_exceeded() {
    use std::time::Duration;
    use voltprop::{Deadline, SolverError};

    let stack = stack();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    // Unattainable outer tolerance (with the inner one pinned attainable
    // so every inner solve succeeds) + an iteration
    // budget too large to exhaust: only the deadline can end this solve.
    let starved = SolveParams::new()
        .epsilon(1e-300)
        .inner_tolerance(1e-5)
        .max_outer_iterations(1_000_000_000);
    let case = LoadCase::new(&stack)
        .params(starved)
        .deadline(Deadline::after(Duration::from_millis(50)));
    assert!(matches!(
        session.solve(&case),
        Err(SessionError::Solver(SolverError::DeadlineExceeded { .. }))
    ));
    // Batches spend from the same budget, per lane.
    let loads = load_sweep(&stack, 2);
    let set = LoadSet::new(&stack, &loads)
        .params(starved)
        .deadline(Deadline::after(Duration::from_millis(50)));
    assert!(matches!(
        session.solve_batch(&set),
        Err(SessionError::Solver(SolverError::DeadlineExceeded { .. }))
    ));
    // An already-expired deadline sheds before any work happens…
    assert!(matches!(
        session.solve(&LoadCase::new(&stack).deadline(Deadline::after(Duration::ZERO))),
        Err(SessionError::Solver(SolverError::DeadlineExceeded { .. }))
    ));
    // …and the session survives shed solves: a sane request still works.
    assert!(session.solve(&LoadCase::new(&stack)).unwrap().converged());
}
