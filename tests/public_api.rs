//! Public-API snapshot: name-checks the exported surface of the
//! `voltprop` facade so an accidental removal or signature change in a
//! future PR fails here first, with an explicit diff to acknowledge.
//!
//! Two layers of protection:
//!
//! * the `use` block below fails to compile if any listed item
//!   disappears from the facade root;
//! * the function-pointer bindings fail to compile if a checked
//!   signature drifts.
//!
//! When an intentional API change lands, update this file in the same
//! PR — that is the acknowledgement.

#![allow(unused_imports, clippy::no_effect_underscore_binding)]

// --- The facade root surface -------------------------------------------
use voltprop::{
    // Session API (the primary entry point).
    Backend,
    BuildError,
    BuildParams,
    // Cross-solver layer.
    ConjugateGradient,
    Deadline,
    DirectCholesky,
    // Transient engine (waveform sources, sinks, companion stepping).
    FnWaveform,
    // Grid modeling.
    GridError,
    Integrator,
    LaneReport,
    LinearSolver,
    LoadCase,
    LoadProfile,
    LoadSet,
    NetKind,
    Netlist,
    NetlistCircuit,
    Pcg,
    PcgEngine,
    PrecondKind,
    PwlWaveform,
    RandomWalkSolver,
    Rb3d,
    Rb3dEngine,
    ScaledWaveform,
    Session,
    SessionCore,
    SessionError,
    SharedSession,
    SharedSolution,
    SolutionView,
    SolveParams,
    SolveReport,
    SolveScratch,
    SolverError,
    Stack3d,
    StackSolution,
    StackSolver,
    StampedSystem,
    SynthConfig,
    TableCircuit,
    TraceSink,
    TransientParams,
    TransientReport,
    TransientSink,
    TryCheckout,
    TsvPattern,
    // Core solver types. (The deprecated `VpSolver::solve{,_with,_batch}`
    // shims, `VpScratch`, and `VpSolution` were removed in this release —
    // `Session` is the solve entry point; `VpSolver` remains as the
    // `StackSolver` trait-object form of the method.)
    VpConfig,
    VpReport,
    VpSolver,
    Waveform,
};

// Sub-crate facades.
use voltprop::{core, grid, solvers, sparse};

#[test]
fn session_api_signatures_hold() {
    // The tentpole contract, checked by *using* every entry point with
    // the exact shapes the docs promise — a signature change breaks the
    // build of this test.
    let stack: Stack3d = Stack3d::builder(8, 8, 2)
        .uniform_load(1e-4)
        .build()
        .unwrap();
    let built: Result<Session, BuildError> = Session::build(&stack, VpConfig::default());
    let mut session: Session = built.unwrap();
    let serves: bool = session.serves(&stack);
    assert!(serves);
    let _mem: usize = session.memory_bytes();
    let _defaults: SolveParams = session.defaults();
    let _bp: BuildParams = session.build_params();

    // Request builders (deadlines ride on both request types).
    let case: LoadCase<'_> = LoadCase::new(&stack)
        .net(NetKind::Power)
        .backend(Backend::VoltProp)
        .params(SolveParams::new().epsilon(1e-4))
        .deadline(Deadline::NONE);
    let loads: Vec<f64> = stack.loads().to_vec();
    let set: LoadSet<'_> = LoadSet::new(&stack, &loads)
        .net(NetKind::Power)
        .backend(Backend::VoltProp)
        .params(SolveParams::new())
        .deadline(Deadline::after(std::time::Duration::from_secs(3600)));

    // The Deadline surface itself.
    let dl: Deadline = Deadline::after(std::time::Duration::from_millis(5));
    let _instant: Option<std::time::Instant> = dl.instant();
    let _expired: bool = dl.expired();
    let _left: Option<std::time::Duration> = dl.remaining();
    let _check: Result<(), SolverError> = Deadline::NONE.check(0);

    // One request/response surface: single, batch, transient.
    {
        let single: Result<SolutionView<'_>, SessionError> = session.solve(&case);
        let view: SolutionView<'_> = single.unwrap();
        let _lanes: usize = view.lanes();
        let _ok: bool = view.converged();
        let _v: &[f64] = view.voltages();
        let _r: &VpReport = view.report();
        let _wd: f64 = view.worst_drop(stack.vdd());
        // Non-panicking lane accessors (replacing the deprecated
        // panicking scratch accessors).
        let _lv: Result<&[f64], SessionError> = view.lane_voltages(0);
        let _lp: Result<&[f64], SessionError> = view.lane_pillar_currents(0);
        let _lr: Result<&VpReport, SessionError> = view.lane_report(0);
        let _lw: Result<f64, SessionError> = view.lane_worst_drop(0, stack.vdd());
    }
    {
        let batch: Result<SolutionView<'_>, SessionError> = session.solve_batch(&set);
        assert_eq!(batch.unwrap().lanes(), 1);
    }
    {
        // Quasi-static stepping. The deprecated `Session::transient`
        // forwarding shim was removed this release after its scheduled
        // one-release grace period; `solve_steps` is the only name.
        let tr: Result<SolutionView<'_>, SessionError> =
            session.solve_steps(&case, 2, |_s: usize, lane: &mut [f64]| {
                lane.copy_from_slice(&loads);
            });
        assert_eq!(tr.unwrap().lanes(), 2);
    }
    {
        // The true transient engine: streaming waveform in, streaming
        // sink out, companion models prefactored once per step size.
        let h: f64 = 1e-10;
        let mut wave: PwlWaveform = PwlWaveform::new(loads.clone(), 4, h)
            .breakpoint(0.0, 0.0)
            .breakpoint(2.0 * h, 1.0);
        let _steps: usize = wave.steps();
        let mut fnwave: FnWaveform<_> = FnWaveform::new(4, |_s: usize, _t: f64, l: &mut [f64]| {
            l.fill(1e-4);
        });
        let mut scaled: ScaledWaveform = ScaledWaveform::new(loads.clone(), [0.5, 1.0]);
        let mut sink: TraceSink = TraceSink::with_capacity(4, stack.num_nodes());
        let request: TransientParams<'_> = TransientParams::new(&stack, h)
            .integrator(Integrator::Trapezoidal)
            .net(NetKind::Power)
            .backend(Backend::VoltProp)
            .params(SolveParams::new())
            .deadline(Deadline::NONE)
            .refactor_each_step(false);
        let _h: f64 = request.step_size();
        let rep: Result<TransientReport, SessionError> =
            session.transient_dynamic(&mut wave, &mut sink, &request);
        let rep: TransientReport = rep.unwrap();
        let _steps_run: usize = rep.steps;
        let _refactors: usize = rep.refactors;
        let _iters: usize = rep.solver_iterations;
        let _bytes: usize = rep.workspace_bytes;
        let _times: &[f64] = sink.times();
        let _vals: &[f64] = sink.step_values(0);
        // Closure sinks and the other waveform shapes serve too.
        let mut last = 0.0f64;
        let mut closure_sink = |_s: usize, t: f64, _v: &[f64]| last = t;
        session
            .transient_dynamic(&mut fnwave, &mut closure_sink, &request)
            .unwrap();
        session
            .transient_dynamic(&mut scaled, &mut closure_sink, &request)
            .unwrap();
        assert!(last > 0.0);
        // Observation restricts what streams to the sink.
        let watch: [usize; 2] = [0, stack.num_nodes() - 1];
        let narrow: TransientParams<'_> = TransientParams::new(&stack, h).observe(&watch);
        let mut narrow_sink = |_s: usize, _t: f64, v: &[f64]| assert_eq!(v.len(), 2);
        session
            .transient_dynamic(&mut fnwave, &mut narrow_sink, &narrow)
            .unwrap();
    }

    // Config split.
    let bp: BuildParams = VpConfig::default().build_params();
    let sp: SolveParams = VpConfig::default().solve_params();
    let _join: VpConfig = VpConfig::from_parts(bp, sp);

    // Backend routing covers at least these variants.
    let _backends = [Backend::VoltProp, Backend::Rb3d, Backend::Pcg];

    // Prefactored Rb3d engine (the cross-backend substrate).
    let rb: Result<Rb3dEngine, SolverError> = Rb3dEngine::build(&stack, 1);
    let mut rb: Rb3dEngine = rb.unwrap();
    let mut v = vec![0.0; rb.num_nodes()];
    let _rb_rep: Result<SolveReport, SolverError> =
        rb.solve(stack.loads(), NetKind::Power, 1.0, 1e-7, 200_000, &mut v);

    // Prefactored PCG engine (the reference backend's substrate).
    let pe: Result<PcgEngine, SolverError> = PcgEngine::build(&stack);
    let mut pe: PcgEngine = pe.unwrap();
    let _dim: usize = pe.dim();
    let _name: &'static str = pe.precond_name();
    let mut pv = vec![0.0; pe.num_nodes()];
    let _pe_rep: Result<SolveReport, SolverError> =
        pe.solve(stack.loads(), NetKind::Power, 1e-8, 50_000, &mut pv);

    // The Pcg backend routes through the same session surface, and a
    // backend whose prefactor failed reports a reasoned unavailability.
    {
        let routed: Result<SolutionView<'_>, SessionError> = session.solve(
            &LoadCase::new(&stack).backend(Backend::Pcg).params(
                SolveParams::new()
                    .inner_tolerance(1e-8)
                    .max_inner_sweeps(50_000),
            ),
        );
        assert!(routed.is_ok());
    }
    {
        // `BackendUnavailable` carries the build-time reason.
        let err = SessionError::BackendUnavailable {
            backend: Backend::Pcg,
            reason: "build-time PCG prefactor failed".into(),
        };
        if let SessionError::BackendUnavailable { backend, reason } = err {
            let _b: Backend = backend;
            let _r: String = reason;
        }
    }
}

#[test]
fn shared_session_api_signatures_hold() {
    use std::sync::Arc;

    let stack: Stack3d = Stack3d::builder(8, 8, 2)
        .uniform_load(1e-4)
        .build()
        .unwrap();

    // The frozen-core / scratch split behind every session handle.
    let core: Result<SessionCore, BuildError> = SessionCore::build(&stack, VpConfig::default());
    let core: Arc<SessionCore> = Arc::new(core.unwrap());
    let _nn: usize = core.num_nodes();
    let _mem: usize = core.memory_bytes();
    let _bp: BuildParams = core.build_params();
    let _sp: SolveParams = core.defaults();
    assert!(core.serves(&stack));
    let scratch: SolveScratch = core.new_scratch();
    let _smem: usize = scratch.memory_bytes();

    // A plain Session is a thin wrapper over one core + one scratch.
    let session: Session = Session::from_core(Arc::clone(&core));
    let _core_ref: &Arc<SessionCore> = session.core();

    // SharedSession: `&self` solves from a bounded checkout pool.
    let built: Result<SharedSession, BuildError> =
        SharedSession::build(&stack, VpConfig::default(), 2);
    drop(built.unwrap());
    let shared: SharedSession = SharedSession::from_core(core, 2);
    let _slots: usize = shared.slots();
    let _avail: usize = shared.available();
    let _live: usize = shared.in_flight();
    let _bytes: usize = shared.memory_bytes();
    assert!(shared.serves(&stack));

    let case: LoadCase<'_> = LoadCase::new(&stack);
    {
        let solution: Result<SharedSolution<'_>, SessionError> = shared.solve(&case);
        let solution: SharedSolution<'_> = solution.unwrap();
        let view: SolutionView<'_> = solution.view();
        assert!(view.converged());
    }
    {
        let attempt: Result<TryCheckout<SharedSolution<'_>>, SessionError> =
            shared.try_solve(&case);
        match attempt.unwrap() {
            TryCheckout::Ready(solution) => assert!(solution.view().converged()),
            TryCheckout::Busy => panic!("an idle pool must be ready"),
        }
    }
    {
        let loads: Vec<f64> = stack.loads().to_vec();
        let set: LoadSet<'_> = LoadSet::new(&stack, &loads);
        let batch: Result<SharedSolution<'_>, SessionError> = shared.solve_batch(&set);
        assert_eq!(batch.unwrap().view().lanes(), 1);
        let attempt: Result<TryCheckout<SharedSolution<'_>>, SessionError> =
            shared.try_solve_batch(&set);
        assert!(matches!(attempt.unwrap(), TryCheckout::Ready(_)));
    }
    {
        // Bounded-wait admission: try for up to a wait, then report Busy.
        use std::time::Duration;
        let attempt: Result<TryCheckout<SharedSolution<'_>>, SessionError> =
            shared.try_solve_for(&case, Duration::from_millis(50));
        assert!(matches!(attempt.unwrap(), TryCheckout::Ready(_)));
        let loads: Vec<f64> = stack.loads().to_vec();
        let set: LoadSet<'_> = LoadSet::new(&stack, &loads);
        let attempt: Result<TryCheckout<SharedSolution<'_>>, SessionError> =
            shared.try_solve_batch_for(&set, Duration::from_millis(50));
        assert!(matches!(attempt.unwrap(), TryCheckout::Ready(_)));
    }
}

#[test]
fn error_types_are_std_errors() {
    fn assert_error<E: std::error::Error>() {}
    assert_error::<BuildError>();
    assert_error::<SessionError>();
    assert_error::<SolverError>();
    assert_error::<GridError>();
}

#[test]
fn stack_solver_objects_still_box() {
    // The trait-object layer the comparisons are built on must stay
    // object-safe.
    let solvers: Vec<Box<dyn StackSolver>> = vec![
        Box::new(VpSolver::default()),
        Box::new(Rb3d::default()),
        Box::new(Pcg::default()),
        Box::new(DirectCholesky::new()),
    ];
    assert_eq!(solvers.len(), 4);
}
