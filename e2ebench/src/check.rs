//! Answer checks by linearity.
//!
//! A grid's node voltages are `v = rail + G⁻¹·(±loads)`: the deviation
//! from the rail is linear in the loads. So one reference solve per
//! load pattern (the base loads, a hotspot, a serve pattern) covers
//! every request built as a non-negative combination of those patterns:
//! the expected answer is `rail + Σ cₖ·devₖ`, where `devₖ` is the
//! reference solution's deviation from the rail under pattern `k`.
//! References come from a different algorithm than the one checked
//! (preconditioned CG at a tight tolerance, or the naive 3-D relaxation
//! for transients).

use voltprop_core::{Backend, LoadCase, Session, SolveParams};
use voltprop_grid::{NetKind, Stack3d};

/// The paper's accuracy budget: every node within 0.5 mV of the reference.
pub const TOLERANCE_V: f64 = 0.5e-3;

/// A reference solution's deviation from its rail under one load pattern.
#[derive(Debug, Clone)]
pub struct Deviation(pub Vec<f64>);

impl Deviation {
    /// From a reference solve's node voltages.
    pub fn from_voltages(voltages: &[f64], rail: f64) -> Deviation {
        Deviation(voltages.iter().map(|v| v - rail).collect())
    }
}

/// One independent reference per net: preconditioned CG at a tight
/// relative residual on the assembled system.
pub fn pcg_reference(session: &mut Session, stack: &Stack3d, net: NetKind) -> Option<Deviation> {
    let case = LoadCase::new(stack).net(net).backend(Backend::Pcg).params(
        SolveParams::new()
            .inner_tolerance(1e-11)
            .max_inner_sweeps(200_000),
    );
    let view = session.solve(&case).ok()?;
    view.converged()
        .then(|| Deviation::from_voltages(view.voltages(), rail(stack, net)))
}

/// A net's rail: VDD for power, 0 V for ground.
pub fn rail(stack: &Stack3d, net: NetKind) -> f64 {
    match net {
        NetKind::Power => stack.vdd(),
        NetKind::Ground => 0.0,
    }
}

/// The expected voltage of node `i` under `Σ coeffs[k]·pattern[k]`.
fn expected(rail: f64, basis: &[&Deviation], coeffs: &[f64], i: usize) -> f64 {
    rail + basis
        .iter()
        .zip(coeffs)
        .map(|(d, c)| c * d.0[i])
        .sum::<f64>()
}

/// Largest node error of `voltages` against the linear combination.
pub fn max_error(voltages: &[f64], rail: f64, basis: &[&Deviation], coeffs: &[f64]) -> f64 {
    assert_eq!(basis.len(), coeffs.len(), "one coefficient per pattern");
    voltages
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let err = (v - expected(rail, basis, coeffs, i)).abs();
            // `f64::max` would skip a NaN; a NaN answer is maximally wrong.
            if err.is_nan() {
                f64::INFINITY
            } else {
                err
            }
        })
        .fold(0.0, f64::max)
}

/// Whether every node lies within [`TOLERANCE_V`] of the reference.
pub fn within(voltages: &[f64], rail: f64, basis: &[&Deviation], coeffs: &[f64]) -> bool {
    let err = max_error(voltages, rail, basis, coeffs);
    err.is_finite() && err <= TOLERANCE_V
}

/// The expected worst drop below `vdd` (what the daemon reports as
/// `worst_drop`) for `scale × pattern` on a net with rail `rail`.
pub fn expected_worst_drop(vdd: f64, rail: f64, pattern: &Deviation, scale: f64) -> f64 {
    pattern
        .0
        .iter()
        .map(|d| vdd - (rail + scale * d))
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltprop_core::VpConfig;

    #[test]
    fn exact_combination_passes_and_one_millivolt_fails() {
        let a = Deviation(vec![-0.010, -0.020, -0.005]);
        let b = Deviation(vec![-0.001, 0.0, -0.004]);
        let rail = 1.8;
        let v: Vec<f64> = (0..3).map(|i| rail + 1.1 * a.0[i] + 0.5 * b.0[i]).collect();
        assert!(within(&v, rail, &[&a, &b], &[1.1, 0.5]));
        let mut off = v.clone();
        off[1] -= 1e-3;
        assert!(!within(&off, rail, &[&a, &b], &[1.1, 0.5]));
        assert!((max_error(&off, rail, &[&a, &b], &[1.1, 0.5]) - 1e-3).abs() < 1e-12);
        // Just inside the budget still passes.
        off[1] = v[1] - 0.49e-3;
        assert!(within(&off, rail, &[&a, &b], &[1.1, 0.5]));
        // A non-finite answer never passes.
        off[1] = f64::NAN;
        assert!(!within(&off, rail, &[&a, &b], &[1.1, 0.5]));
    }

    #[test]
    fn worst_drop_follows_the_scale() {
        let d = Deviation(vec![-0.010, -0.030, -0.020]);
        assert!((expected_worst_drop(1.8, 1.8, &d, 2.0) - 0.060).abs() < 1e-12);
        // Ground net: the rail is 0 and the daemon measures below vdd.
        let g = Deviation(vec![0.010, 0.030, 0.020]);
        assert!((expected_worst_drop(1.8, 0.0, &g, 0.5) - (1.8 - 0.005)).abs() < 1e-12);
    }

    /// The check end to end on a real grid: a scaled VoltProp answer
    /// matches the PCG reference of the unscaled loads, and the same
    /// answer shifted by 1 mV at one node is rejected.
    #[test]
    fn scaled_voltprop_answer_matches_pcg_reference() {
        let mut stack = Stack3d::builder(16, 16, 2)
            .uniform_load(2e-4)
            .build()
            .expect("valid stack");
        let rail = stack.vdd();
        let mut session = Session::build(&stack, VpConfig::default()).expect("session builds");
        let reference = {
            let case = LoadCase::new(&stack).backend(Backend::Pcg).params(
                SolveParams::new()
                    .inner_tolerance(1e-12)
                    .max_inner_sweeps(10_000),
            );
            let view = session.solve(&case).expect("pcg reference");
            assert!(view.converged());
            Deviation::from_voltages(view.voltages(), rail)
        };
        let scale = 1.15;
        let scaled: Vec<f64> = stack.loads().iter().map(|l| scale * l).collect();
        stack.set_loads(scaled).expect("same length");
        let view = session
            .solve(&LoadCase::new(&stack).net(NetKind::Power))
            .expect("voltprop solve");
        assert!(view.converged());
        let mut v = view.voltages().to_vec();
        assert!(within(&v, rail, &[&reference], &[scale]));
        v[37] += 1e-3;
        assert!(!within(&v, rail, &[&reference], &[scale]));
    }
}
