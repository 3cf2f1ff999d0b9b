//! Integration: every solver family must agree with the direct reference
//! within the paper's 0.5 mV accuracy budget on a shared benchmark.

use voltprop::solvers::residual;
use voltprop::{
    Backend, DirectCholesky, LoadCase, NetKind, Pcg, PrecondKind, Rb3d, Session, SolveParams,
    StackSolver, SynthConfig, VpConfig, VpSolver,
};

const HALF_MV: f64 = 5e-4;

fn benchmark() -> voltprop::Stack3d {
    SynthConfig::new(20, 20, 3).seed(123).build().unwrap()
}

#[test]
fn all_solvers_agree_on_power_net() {
    let stack = benchmark();
    let reference = DirectCholesky::new()
        .solve_stack(&stack, NetKind::Power)
        .unwrap();
    let solvers: Vec<Box<dyn StackSolver>> = vec![
        Box::new(VpSolver::default()),
        Box::new(Pcg::with_preconditioner(PrecondKind::Ic0)),
        Box::new(Pcg::with_preconditioner(PrecondKind::Amg)),
        Box::new(Pcg::with_preconditioner(PrecondKind::Jacobi)),
        Box::new(Pcg::with_preconditioner(PrecondKind::Ssor(1.3))),
        Box::new(Rb3d::default()),
    ];
    for solver in &solvers {
        let sol = solver.solve_stack(&stack, NetKind::Power).unwrap();
        let err = residual::max_abs_error(&reference.voltages, &sol.voltages);
        assert!(
            err < HALF_MV,
            "{} deviates {:.4} mV from the direct reference",
            solver.solver_name(),
            err * 1e3
        );
        assert!(sol.report.converged, "{}", solver.solver_name());
    }
}

#[test]
fn all_solvers_agree_on_ground_net() {
    let stack = benchmark();
    let reference = DirectCholesky::new()
        .solve_stack(&stack, NetKind::Ground)
        .unwrap();
    for solver in [
        Box::new(VpSolver::default()) as Box<dyn StackSolver>,
        Box::new(Pcg::default()),
        Box::new(Rb3d::default()),
    ] {
        let sol = solver.solve_stack(&stack, NetKind::Ground).unwrap();
        let err = residual::max_abs_error(&reference.voltages, &sol.voltages);
        assert!(
            err < HALF_MV,
            "{} ground-net error {:.4} mV",
            solver.solver_name(),
            err * 1e3
        );
    }
}

/// The agreement gate: VoltProp, Rb3d, and Pcg served from **one**
/// prefactored session must agree with the
/// direct reference — and with each other — within the paper's 0.5 mV
/// budget, on both nets.
fn assert_three_way_agreement(stack: &voltprop::Stack3d, label: &str) {
    let mut session = Session::build(stack, VpConfig::default()).unwrap();
    let rb_params = SolveParams::new()
        .inner_tolerance(1e-7)
        .max_inner_sweeps(200_000);
    let pcg_params = SolveParams::new()
        .inner_tolerance(1e-8)
        .max_inner_sweeps(50_000);
    for net in [NetKind::Power, NetKind::Ground] {
        let reference = DirectCholesky::new().solve_stack(stack, net).unwrap();
        let vp = session
            .solve(&LoadCase::new(stack).net(net))
            .unwrap()
            .voltages()
            .to_vec();
        let rb = session
            .solve(
                &LoadCase::new(stack)
                    .net(net)
                    .backend(Backend::Rb3d)
                    .params(rb_params),
            )
            .unwrap()
            .voltages()
            .to_vec();
        let pcg = session
            .solve(
                &LoadCase::new(stack)
                    .net(net)
                    .backend(Backend::Pcg)
                    .params(pcg_params),
            )
            .unwrap()
            .voltages()
            .to_vec();
        for (name, v) in [("voltprop", &vp), ("rb3d", &rb), ("pcg", &pcg)] {
            let err = residual::max_abs_error(&reference.voltages, v);
            assert!(
                err < HALF_MV,
                "{label} {net:?}: {name} deviates {:.4} mV from direct",
                err * 1e3
            );
        }
        for (pair, a, b) in [("vp-pcg", &vp, &pcg), ("vp-rb3d", &vp, &rb)] {
            let err = residual::max_abs_error(a, b);
            assert!(
                err < HALF_MV,
                "{label} {net:?}: {pair} disagree by {:.4} mV",
                err * 1e3
            );
        }
    }
}

#[test]
fn three_backends_agree_on_one_session_synth_benchmark() {
    assert_three_way_agreement(&benchmark(), "synth 20x20x3");
}

#[test]
fn three_backends_agree_on_one_session_sparse_pads() {
    // The IBM-like coarse bump lattice: most pillars pad-less.
    let mut pads = vec![];
    for y in (0..16).step_by(8) {
        for x in (0..16).step_by(8) {
            pads.push((x, y));
        }
    }
    let stack = voltprop::Stack3d::builder(16, 16, 2)
        .pad_sites(pads)
        .load_profile(
            voltprop::LoadProfile::UniformRandom {
                min: 1e-5,
                max: 5e-4,
            },
            7,
        )
        .build()
        .unwrap();
    assert_three_way_agreement(&stack, "sparse pads 16x16x2");
}

#[test]
fn three_backends_agree_on_one_session_anisotropic_tiers() {
    let stack = voltprop::Stack3d::builder(9, 11, 3)
        .tier_resistance(0, 0.015, 0.03)
        .tier_resistance(1, 0.04, 0.02)
        .tier_resistance(2, 0.025, 0.025)
        .uniform_load(4e-4)
        .build()
        .unwrap();
    assert_three_way_agreement(&stack, "anisotropic 9x11x3");
}

#[test]
fn three_backends_agree_on_one_session_four_tier() {
    let stack = voltprop::Stack3d::builder(10, 10, 4)
        .load_profile(
            voltprop::LoadProfile::UniformRandom {
                min: 1e-5,
                max: 5e-4,
            },
            7,
        )
        .build()
        .unwrap();
    assert_three_way_agreement(&stack, "four tier 10x10x4");
}

#[test]
fn three_backends_agree_on_one_session_single_tier() {
    let stack = voltprop::Stack3d::builder(12, 12, 1)
        .load_profile(
            voltprop::LoadProfile::UniformRandom {
                min: 1e-5,
                max: 1e-3,
            },
            11,
        )
        .build()
        .unwrap();
    assert_three_way_agreement(&stack, "single tier 12x12x1");
}

#[test]
fn vp_solution_satisfies_kcl_matrix_free() {
    let stack = benchmark();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let vp = session.solve(&LoadCase::new(&stack)).unwrap();
    let r = residual::kcl_residual_inf(&stack, NetKind::Power, vp.voltages());
    // Load currents are milliamps; nodal mismatch must sit well below one
    // device's draw.
    assert!(r < 5e-2, "KCL residual {r} A");
}

#[test]
fn vp_beats_naive_rb3d_iterations() {
    // The motivating comparison of §III-A: on the same grid the naive RB
    // extension needs far more full-stack sweeps than VP needs row sweeps
    // per tier.
    // Both methods run on one session's prefactored state: the same
    // comparison the paper makes, now apples to apples by construction.
    let stack = benchmark();
    let mut session = Session::build(&stack, VpConfig::default()).unwrap();
    let vp_outer = session
        .solve(&LoadCase::new(&stack))
        .unwrap()
        .report()
        .outer_iterations;
    let rb_params = SolveParams::new()
        .inner_tolerance(1e-7)
        .max_inner_sweeps(200_000);
    let rb_outer = session
        .solve(
            &LoadCase::new(&stack)
                .backend(Backend::Rb3d)
                .params(rb_params),
        )
        .unwrap()
        .report()
        .outer_iterations;
    assert!(
        vp_outer < rb_outer,
        "VP {vp_outer} outer iterations vs naive RB {rb_outer}"
    );
}
