//! Property tests for the red-black parallel sweep schedule.
//!
//! Run across deterministic sweeps of random pinned meshes (the workspace
//! builds offline without the `proptest` crate). The contract under test:
//!
//! * red-black iterates are **bitwise identical** for every thread count;
//! * the converged red-black solution agrees with the converged
//!   sequential solution to ≤ 1e-9 max |ΔV|;
//! * both agree with the re-eliminating reference kernel ([`RowBased`]).

use std::sync::Arc;
use voltprop_grid::rng::SmallRng;
use voltprop_solvers::rowbased::{RowBased, TierProblem};
use voltprop_solvers::{SweepSchedule, TierEngine};

struct Mesh {
    w: usize,
    h: usize,
    g_h: f64,
    g_v: f64,
    fixed: Vec<bool>,
    extra: Vec<f64>,
    injection: Vec<f64>,
    v0: Vec<f64>,
}

/// A random pinned mesh: geometry, conductances, pin density, pin
/// voltages, loads, and (sometimes) an external-coupling diagonal all
/// vary with the seed.
fn random_mesh(case: u64) -> Mesh {
    let mut g = SmallRng::new(case);
    let w = 3 + g.usize_below(30);
    let h = 3 + g.usize_below(24);
    let n = w * h;
    let g_h = 0.5 + 50.0 * g.f64();
    let g_v = 0.5 + 50.0 * g.f64();
    let pin_density = 0.05 + 0.4 * g.f64();
    let mut fixed = vec![false; n];
    let mut v0 = vec![1.8; n];
    for i in 0..n {
        if g.f64() < pin_density {
            fixed[i] = true;
            v0[i] = 1.7 + 0.2 * g.f64();
        }
    }
    // At least one pin keeps the system nonsingular.
    if !fixed.iter().any(|&f| f) {
        fixed[g.usize_below(n)] = true;
    }
    let with_extra = g.next_u64() % 3 == 0;
    let extra: Vec<f64> = (0..n)
        .map(|_| if with_extra { 5.0 * g.f64() } else { 0.0 })
        .collect();
    let injection: Vec<f64> = (0..n)
        .map(|i| if fixed[i] { 0.0 } else { -1e-3 * g.f64() })
        .collect();
    Mesh {
        w,
        h,
        g_h,
        g_v,
        fixed,
        extra,
        injection,
        v0,
    }
}

fn engine(m: &Mesh, schedule: SweepSchedule) -> TierEngine {
    TierEngine::new(
        m.w,
        m.h,
        m.g_h,
        m.g_v,
        Arc::from(&m.fixed[..]),
        Some(&m.extra),
        schedule,
    )
    .unwrap()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

#[test]
fn redblack_parallel_matches_sequential_on_random_pinned_meshes() {
    for case in 0..30u64 {
        let m = random_mesh(case);
        let mut v_seq = m.v0.clone();
        engine(&m, SweepSchedule::Sequential)
            .solve(&m.injection, &mut v_seq, 1e-12, 500_000)
            .unwrap();
        let mut v_rb = m.v0.clone();
        engine(&m, SweepSchedule::RedBlack { threads: 4 })
            .solve(&m.injection, &mut v_rb, 1e-12, 500_000)
            .unwrap();
        let diff = max_abs_diff(&v_seq, &v_rb);
        assert!(
            diff <= 1e-9,
            "case {case} ({}x{}): schedules disagree by {diff} V",
            m.w,
            m.h
        );
    }
}

#[test]
fn redblack_iterates_are_bitwise_thread_count_invariant() {
    for case in 0..30u64 {
        let m = random_mesh(1000 + case);
        let mut reference = m.v0.clone();
        engine(&m, SweepSchedule::RedBlack { threads: 1 })
            .solve(&m.injection, &mut reference, 1e-10, 500_000)
            .unwrap();
        for threads in [2usize, 3, 4] {
            let mut v = m.v0.clone();
            engine(&m, SweepSchedule::RedBlack { threads })
                .solve(&m.injection, &mut v, 1e-10, 500_000)
                .unwrap();
            assert_eq!(
                reference, v,
                "case {case}: {threads}-thread result must be bitwise equal"
            );
        }
    }
}

#[test]
fn scheduled_solves_match_reference_kernel() {
    for case in 0..20u64 {
        let m = random_mesh(2000 + case);
        let problem = TierProblem {
            width: m.w,
            height: m.h,
            g_h: m.g_h,
            g_v: m.g_v,
            fixed: &m.fixed,
            extra_diag: &m.extra,
            injection: &m.injection,
        };
        let rb = RowBased {
            tolerance: 1e-12,
            max_sweeps: 500_000,
            ..Default::default()
        };
        let mut v_ref = m.v0.clone();
        rb.solve_tier(&problem, &mut v_ref).unwrap();
        for schedule in [
            SweepSchedule::Sequential,
            SweepSchedule::RedBlack { threads: 2 },
        ] {
            let mut v = m.v0.clone();
            engine(&m, schedule)
                .solve_with_omega(&m.injection, &mut v, rb.tolerance, rb.max_sweeps, rb.omega)
                .unwrap();
            let diff = max_abs_diff(&v_ref, &v);
            assert!(
                diff <= 1e-9,
                "case {case} {schedule:?}: {diff} V from reference"
            );
        }
    }
}
