//! End-to-end validation of the true transient engine
//! (`Session::transient_dynamic`): companion models against closed-form
//! RC exponentials, integration-order checks, cross-backend agreement
//! against a direct companion-system reference, accuracy at default
//! parameters, warm-started steps, prefactor-reuse accounting,
//! step-size-change determinism, and mid-waveform deadline cancellation.

use std::time::Duration;

use voltprop::{
    Backend, Deadline, DirectCholesky, FnWaveform, Integrator, LinearSolver, LoadProfile, NetKind,
    PwlWaveform, Session, SessionError, SolveParams, SolverError, Stack3d, TraceSink,
    TransientParams, TsvPattern, VpConfig, Waveform,
};

/// A 2×2 single-tier stack with one free node: pads pin three corners at
/// the rail, the fourth node carries a decap `C` and a step load `I`
/// through two unit-resistance wires, so the node is a textbook RC
/// divider — `τ = C/(g_h + g_v)`, `v_∞ = VDD − I/(g_h + g_v)`.
fn rc_stack(c: f64, i: f64) -> Stack3d {
    Stack3d::builder(2, 2, 1)
        .tsv_pattern(TsvPattern::Uniform { pitch: 1 })
        .pad_sites(vec![(0, 0), (1, 0), (0, 1)])
        .wire_resistance(1.0)
        .loads(vec![0.0, 0.0, 0.0, i])
        .decap(0, 1, 1, c)
        .build()
        .unwrap()
}

const C: f64 = 5e-11; // 50 pF decap
const I: f64 = 1e-3; // 1 mA step load
const G: f64 = 2.0; // two 1 Ω wires to the pinned corners
const TAU: f64 = C / G; // 25 ps

fn tight() -> SolveParams {
    SolveParams::new()
        .epsilon(1e-10)
        .inner_tolerance(1e-13)
        .max_inner_sweeps(200_000)
}

/// `v(t)` of the free node: exponential relaxation from the rail to
/// `v_∞` with time constant `τ`.
fn analytic(t: f64) -> f64 {
    let vdd = 1.8;
    let v_inf = vdd - I / G;
    v_inf + (vdd - v_inf) * (-t / TAU).exp()
}

/// Runs `steps` constant-load steps of size `h` on the RC stack and
/// returns the free node's trace.
fn run_rc(
    session: &mut Session,
    stack: &Stack3d,
    h: f64,
    steps: usize,
    integrator: Integrator,
    backend: Backend,
) -> Vec<f64> {
    let mut wave = FnWaveform::new(steps, |_s, _t, loads: &mut [f64]| {
        loads.copy_from_slice(&[0.0, 0.0, 0.0, I]);
    });
    let mut sink = TraceSink::with_capacity(steps, 1);
    let watch = [3usize];
    let request = TransientParams::new(stack, h)
        .integrator(integrator)
        .backend(backend)
        .params(tight())
        .observe(&watch);
    let report = session
        .transient_dynamic(&mut wave, &mut sink, &request)
        .unwrap();
    assert_eq!(report.steps, steps);
    sink.values().to_vec()
}

#[test]
fn backward_euler_matches_closed_form_rc() {
    let stack = rc_stack(C, I);
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let h = TAU / 50.0;
    let steps = 300; // six time constants
    for backend in [Backend::VoltProp, Backend::Rb3d, Backend::Pcg] {
        let trace = run_rc(
            &mut session,
            &stack,
            h,
            steps,
            Integrator::BackwardEuler,
            backend,
        );
        let worst = trace
            .iter()
            .enumerate()
            .map(|(s, &v)| (v - analytic((s as f64 + 1.0) * h)).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst < 5e-6,
            "{backend:?}: BE at h = τ/50 drifts {worst} V from the exponential"
        );
        // The transient actually moves: starts near the rail, ends at
        // v_∞ (the discrete BE decay lags e^{−t/τ} slightly at 6τ).
        assert!((trace[0] - 1.8).abs() < 2e-5);
        assert!((trace[steps - 1] - (1.8 - I / G)).abs() < 5e-6);
    }
}

#[test]
fn trapezoidal_matches_closed_form_rc_tighter() {
    let stack = rc_stack(C, I);
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let h = TAU / 50.0;
    let steps = 300;
    let trace = run_rc(
        &mut session,
        &stack,
        h,
        steps,
        Integrator::Trapezoidal,
        Backend::VoltProp,
    );
    let worst = trace
        .iter()
        .enumerate()
        .map(|(s, &v)| (v - analytic((s as f64 + 1.0) * h)).abs())
        .fold(0.0f64, f64::max);
    assert!(
        worst < 2e-7,
        "trapezoidal at h = τ/50 drifts {worst} V from the exponential"
    );
}

/// Halving the step halves the backward-Euler error and quarters the
/// trapezoidal error (first- vs second-order accuracy), measured at a
/// fixed time `T = 2τ`.
#[test]
fn integration_orders_hold_as_h_halves() {
    let stack = rc_stack(C, I);
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let t_end = 2.0 * TAU;
    let err_at = |session: &mut Session, integrator, n_steps: usize| -> f64 {
        let h = t_end / n_steps as f64;
        let trace = run_rc(session, &stack, h, n_steps, integrator, Backend::VoltProp);
        (trace[n_steps - 1] - analytic(t_end)).abs()
    };

    let be: Vec<f64> = [20, 40, 80]
        .iter()
        .map(|&n| err_at(&mut session, Integrator::BackwardEuler, n))
        .collect();
    for w in be.windows(2) {
        let ratio = w[0] / w[1];
        assert!(
            (1.6..2.4).contains(&ratio),
            "BE error ratio {ratio} not ~2 (errors {be:?})"
        );
    }

    let tr: Vec<f64> = [20, 40, 80]
        .iter()
        .map(|&n| err_at(&mut session, Integrator::Trapezoidal, n))
        .collect();
    for w in tr.windows(2) {
        let ratio = w[0] / w[1];
        assert!(
            (3.2..4.8).contains(&ratio),
            "trapezoidal error ratio {ratio} not ~4 (errors {tr:?})"
        );
    }
    // And at every step count the trapezoidal answer beats BE outright.
    for (b, t) in be.iter().zip(&tr) {
        assert!(t < b);
    }
}

/// A direct backward-Euler reference: steps
/// `(G + C/h) v_{n+1} = b_{n+1} + (C/h) v_n` exactly from the rail with a
/// Cholesky solve of the companion system, returning every step's
/// voltages, step-major.
fn direct_be_reference(stack: &Stack3d, h: f64, wave: &mut dyn Waveform) -> Vec<f64> {
    let nn = stack.num_nodes();
    let steps = wave.steps();
    let sys = stack.stamp_dynamic(NetKind::Power, 1.0 / h).unwrap();
    let caps = stack.capacitances().unwrap();
    let direct = DirectCholesky::new();
    let mut v = vec![stack.vdd(); nn];
    let mut loads = vec![0.0; nn];
    let mut source = vec![0.0; nn];
    let mut reference = Vec::with_capacity(steps * nn);
    for s in 0..steps {
        wave.sample(s, (s as f64 + 1.0) * h, &mut loads);
        let mut shifted = stack.clone();
        shifted.set_loads(loads.clone()).unwrap();
        let shifted_sys = shifted.stamp_dynamic(NetKind::Power, 1.0 / h).unwrap();
        let mut rhs = shifted_sys.rhs().to_vec();
        for i in 0..nn {
            source[i] = caps[i] / h * v[i];
        }
        for (ri, extra) in sys.restrict(&source).iter().enumerate() {
            rhs[ri] += extra;
        }
        let x = direct.solve(sys.matrix(), &rhs).unwrap();
        sys.expand_into(&x.x, stack.vdd(), &mut v);
        reference.extend_from_slice(&v);
    }
    reference
}

/// The worst per-node, per-step gap between two step-major traces, with
/// the step it occurs at.
fn worst_gap(a: &[f64], b: &[f64], nn: usize) -> (f64, usize) {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .enumerate()
        .map(|(i, (x, y))| ((x - y).abs(), i / nn))
        .fold((0.0, 0), |w, g| if g.0 > w.0 { g } else { w })
}

/// A multi-tier grid with mixed capacitances: all three backends step the
/// same companion system and agree with a direct Cholesky reference that
/// steps `(G + C/h) v_{n+1} = b_{n+1} + (C/h) v_n` exactly.
#[test]
fn backends_agree_with_direct_companion_reference() {
    let stack = Stack3d::builder(8, 8, 2)
        .uniform_load(2e-4)
        .grid_capacitance(2e-12)
        .decap(0, 3, 3, 5e-11)
        .pad_capacitance(1e-12)
        .build()
        .unwrap();
    let nn = stack.num_nodes();
    let h = 1e-11;
    let steps = 25;
    let ramp = || {
        PwlWaveform::new(stack.loads().to_vec(), steps, h)
            .breakpoint(0.0, 0.0)
            .breakpoint(10.0 * h, 1.0)
    };
    let reference = direct_be_reference(&stack, h, &mut ramp());

    let params = tight();
    for (backend, tol) in [
        (Backend::VoltProp, 2e-4),
        (Backend::Rb3d, 1e-6),
        (Backend::Pcg, 1e-6),
    ] {
        let mut wave = ramp();
        let mut sink = TraceSink::with_capacity(steps, nn);
        let request = TransientParams::new(&stack, h)
            .backend(backend)
            .params(params);
        let report = session_for(&stack)
            .transient_dynamic(&mut wave, &mut sink, &request)
            .unwrap();
        assert_eq!(report.steps, steps);
        assert_eq!(report.refactors, 1, "{backend:?} prefactors exactly once");
        let worst = sink
            .values()
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst < tol,
            "{backend:?} drifts {worst} V from the direct companion reference"
        );
    }
}

fn session_for(stack: &Stack3d) -> Session {
    Session::build(stack, VpConfig::default()).unwrap()
}

/// The factor-reuse contract: one prefactor on the first run, zero on a
/// warm rerun, one after a step-size change, and returning to a previous
/// step size re-prefactors deterministically — the rebuilt factors
/// reproduce the original trace bitwise.
#[test]
fn step_size_change_reprefactors_deterministically() {
    let stack = Stack3d::builder(8, 8, 2)
        .uniform_load(2e-4)
        .grid_capacitance(2e-12)
        .decap(1, 5, 5, 8e-11)
        .build()
        .unwrap();
    let mut session = session_for(&stack);
    let steps = 12;
    let nn = stack.num_nodes();
    let run = |session: &mut Session, h: f64| -> (Vec<f64>, usize) {
        let mut wave = FnWaveform::new(steps, |_s, t, loads: &mut [f64]| {
            let scale = if t > 5.0 * h { 1.0 } else { 0.5 };
            for (l, &b) in loads.iter_mut().zip(stack.loads()) {
                *l = scale * b;
            }
        });
        let mut sink = TraceSink::with_capacity(steps, nn);
        let report = session
            .transient_dynamic(&mut wave, &mut sink, &TransientParams::new(&stack, h))
            .unwrap();
        (sink.values().to_vec(), report.refactors)
    };

    let (first, refactors) = run(&mut session, 1e-11);
    assert_eq!(refactors, 1, "cold run prefactors once");
    let (again, refactors) = run(&mut session, 1e-11);
    assert_eq!(refactors, 0, "warm rerun reuses the factor");
    assert_eq!(first, again, "warm rerun is bitwise identical");
    let (_, refactors) = run(&mut session, 5e-12);
    assert_eq!(refactors, 1, "step-size change re-prefactors");
    let (back, refactors) = run(&mut session, 1e-11);
    assert_eq!(refactors, 1, "returning to the old step re-prefactors");
    assert_eq!(first, back, "rebuilt factors reproduce the trace bitwise");
    // Switching integrator changes α and re-prefactors too.
    let mut wave = FnWaveform::new(2, |_s, _t, loads: &mut [f64]| {
        loads.copy_from_slice(stack.loads());
    });
    let report = session
        .transient_dynamic(
            &mut wave,
            &mut |_: usize, _: f64, _: &[f64]| {},
            &TransientParams::new(&stack, 1e-11).integrator(Integrator::Trapezoidal),
        )
        .unwrap();
    assert_eq!(report.refactors, 1);
}

/// Loads that move every step: up from a fifth of the stack's own to
/// full over `steps / 2` steps, then down to two fifths.
fn swing(stack: &Stack3d, steps: usize, h: f64) -> PwlWaveform {
    PwlWaveform::new(stack.loads().to_vec(), steps, h)
        .breakpoint(0.0, 0.2)
        .breakpoint(0.5 * steps as f64 * h, 1.0)
        .breakpoint(steps as f64 * h, 0.4)
}

/// At the session's default parameters (ε = 0.1 mV), VoltProp stays
/// inside the paper's 0.5 mV budget at every node and every step: against
/// the direct companion reference (backward Euler, a multi-tier decap
/// stack) and against a tight Rb3d run (trapezoidal, sparse pads, where
/// the coarse lattice correction runs inside every step). Each step
/// starts from the previous one's answer, so an error a step leaves
/// behind would carry into the next; this pins that it does not pile up.
#[test]
fn voltprop_at_default_params_stays_within_half_a_millivolt() {
    const BUDGET: f64 = 5e-4;
    let random = LoadProfile::UniformRandom {
        min: 1e-5,
        max: 1e-3,
    };
    let h = 2e-11;
    let steps = 24;

    let decap = Stack3d::builder(16, 16, 3)
        .load_profile(random.clone(), 41)
        .grid_capacitance(2e-13)
        .decap(0, 5, 5, 2e-10)
        .pad_capacitance(5e-13)
        .build()
        .unwrap();
    let nn = decap.num_nodes();
    let reference = direct_be_reference(&decap, h, &mut swing(&decap, steps, h));
    let mut sink = TraceSink::with_capacity(steps, nn);
    session_for(&decap)
        .transient_dynamic(
            &mut swing(&decap, steps, h),
            &mut sink,
            &TransientParams::new(&decap, h),
        )
        .unwrap();
    let (worst, at) = worst_gap(sink.values(), &reference, nn);
    assert!(
        worst < BUDGET,
        "backward Euler drifts {worst} V from the direct reference at step {at}"
    );

    let sparse = Stack3d::builder(16, 16, 3)
        .pad_lattice(4)
        .load_profile(random, 42)
        .grid_capacitance(2e-13)
        .decap(1, 6, 6, 2e-10)
        .build()
        .unwrap();
    let nn = sparse.num_nodes();
    let mut session = session_for(&sparse);
    let mut run = |backend: Backend, params: SolveParams| -> Vec<f64> {
        let mut sink = TraceSink::with_capacity(steps, nn);
        let request = TransientParams::new(&sparse, h)
            .integrator(Integrator::Trapezoidal)
            .backend(backend)
            .params(params);
        session
            .transient_dynamic(&mut swing(&sparse, steps, h), &mut sink, &request)
            .unwrap();
        sink.values().to_vec()
    };
    let reference = run(Backend::Rb3d, tight());
    let voltprop = run(Backend::VoltProp, SolveParams::new());
    let (worst, at) = worst_gap(&voltprop, &reference, nn);
    assert!(
        worst < BUDGET,
        "trapezoidal on sparse pads drifts {worst} V from a tight Rb3d run at step {at}"
    );
}

/// Summed solver iterations of a `steps`-step backward-Euler run whose
/// loads ramp from half the stack's own to full over 20 steps.
fn ramp_iterations(session: &mut Session, stack: &Stack3d, h: f64, steps: usize) -> usize {
    let mut wave = PwlWaveform::new(stack.loads().to_vec(), steps, h)
        .breakpoint(0.0, 0.5)
        .breakpoint(20.0 * h, 1.0);
    session
        .transient_dynamic(
            &mut wave,
            &mut |_: usize, _: f64, _: &[f64]| {},
            &TransientParams::new(stack, h),
        )
        .unwrap()
        .solver_iterations
}

/// On a capacitive stack every VoltProp step after the first starts from
/// the previous step's voltages, which are nearly its answer, so once
/// step 0 has climbed from the rail a later step costs a fraction of it.
/// Step 0 starts from the rail in both runs (it is the same solve), so
/// `(c20 − c1) / 19` is the mean cost of steps 1–19.
#[test]
fn warm_steps_cost_a_fraction_of_the_first() {
    let h = 2e-11;
    let decap = Stack3d::builder(32, 32, 3)
        .uniform_load(1e-4)
        .grid_capacitance(2e-13)
        .decap(0, 10, 10, 2e-10)
        .pad_capacitance(5e-13)
        .build()
        .unwrap();
    // Sparse pads: the coarse lattice correction runs in every step.
    let sparse = Stack3d::builder(16, 16, 3)
        .pad_lattice(4)
        .uniform_load(1e-4)
        .grid_capacitance(2e-13)
        .decap(0, 5, 5, 2e-10)
        .build()
        .unwrap();
    for (name, stack) in [("decap", &decap), ("sparse pads", &sparse)] {
        let mut session = session_for(stack);
        let c1 = ramp_iterations(&mut session, stack, h, 1);
        let c20 = ramp_iterations(&mut session, stack, h, 20);
        let later = (c20 - c1) as f64 / 19.0;
        assert!(
            later <= 0.5 * c1 as f64,
            "{name}: steps 1-19 average {later} iterations against step 0's {c1}"
        );
    }
}

/// A stack with no capacitance degenerates to quasi-static stepping:
/// each transient step equals the corresponding DC solve.
#[test]
fn resistive_stack_degenerates_to_quasi_static() {
    let stack = Stack3d::builder(10, 10, 3)
        .uniform_load(3e-4)
        .build()
        .unwrap();
    assert!(!stack.has_dynamics());
    let mut session = session_for(&stack);
    let dc = session
        .solve(&voltprop::LoadCase::new(&stack))
        .unwrap()
        .voltages()
        .to_vec();
    let mut wave = FnWaveform::new(3, |_s, _t, loads: &mut [f64]| {
        loads.copy_from_slice(stack.loads());
    });
    let mut sink = TraceSink::with_capacity(3, stack.num_nodes());
    session
        .transient_dynamic(&mut wave, &mut sink, &TransientParams::new(&stack, 1e-10))
        .unwrap();
    for step in 0..3 {
        let worst = sink
            .step_values(step)
            .iter()
            .zip(&dc)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst < 1e-9,
            "step {step} drifts {worst} V from the DC solve"
        );
    }
}

/// The request deadline cancels mid-waveform with a typed error whose
/// `iterations` field carries the step index the run stopped at.
#[test]
fn deadline_cancels_mid_waveform_with_step_index() {
    let stack = rc_stack(C, I);
    let mut session = session_for(&stack);

    // Already-expired deadline: stops before step 0.
    let mut wave = FnWaveform::new(10, |_s, _t, loads: &mut [f64]| {
        loads.copy_from_slice(&[0.0, 0.0, 0.0, I]);
    });
    let mut sink = |_: usize, _: f64, _: &[f64]| {};
    let err = session
        .transient_dynamic(
            &mut wave,
            &mut sink,
            &TransientParams::new(&stack, TAU / 10.0).deadline(Deadline::after(Duration::ZERO)),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        SessionError::Solver(SolverError::DeadlineExceeded { iterations: 0 })
    ));

    // Expiring mid-waveform: the waveform stalls during step 2's sample,
    // so the step-3 check trips and reports index 3.
    let mut stalling = FnWaveform::new(10, |s, _t, loads: &mut [f64]| {
        if s == 2 {
            std::thread::sleep(Duration::from_millis(60));
        }
        loads.copy_from_slice(&[0.0, 0.0, 0.0, I]);
    });
    let mut recorded = 0usize;
    let mut counting = |_: usize, _: f64, _: &[f64]| recorded += 1;
    let err = session
        .transient_dynamic(
            &mut stalling,
            &mut counting,
            &TransientParams::new(&stack, TAU / 10.0)
                .deadline(Deadline::after(Duration::from_millis(20))),
        )
        .unwrap_err();
    match err {
        SessionError::Solver(SolverError::DeadlineExceeded { iterations }) => {
            assert_eq!(iterations, 3, "error carries the step index");
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    assert_eq!(recorded, 3, "steps 0..=2 completed before cancellation");
}

/// Malformed waveform samples are rejected with a typed error naming the
/// step.
#[test]
fn bad_waveform_samples_are_rejected() {
    let stack = rc_stack(C, I);
    let mut session = session_for(&stack);
    let mut wave = FnWaveform::new(4, |s, _t, loads: &mut [f64]| {
        loads.fill(if s == 2 { -1.0 } else { 1e-4 });
    });
    let mut sink = |_: usize, _: f64, _: &[f64]| {};
    let err = session
        .transient_dynamic(&mut wave, &mut sink, &TransientParams::new(&stack, 1e-11))
        .unwrap_err();
    match err {
        SessionError::Solver(SolverError::Unsupported { what }) => {
            assert!(what.contains("step 2"), "error names the step: {what}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}
