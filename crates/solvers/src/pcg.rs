use crate::{LinearSolver, PrecondKind, Solution, SolveReport, SolverError};
use std::sync::Arc;
use voltprop_grid::{NetKind, Stack3d, StampedSystem};
use voltprop_sparse::{vec_ops, CsrMatrix, IncompleteCholesky, SparseError};

/// Preconditioned conjugate gradients — the paper's comparator (refs \[6\],
/// \[12\]).
///
/// Defaults: IC(0) preconditioner, relative residual `1e-8` (which lands
/// node voltages well inside the paper's 0.5 mV accuracy budget on the
/// benchmark grids), iteration budget 50 000.
///
/// This is the one-shot matrix-level entry point; callers solving many
/// load patterns against one grid should build a [`PcgEngine`] instead
/// (or route `Backend::Pcg` through `voltprop_core::Session`, which holds
/// one), amortizing the stamping and the preconditioner factorization.
///
/// # Example
///
/// ```
/// use voltprop_grid::{Stack3d, NetKind};
/// use voltprop_solvers::{Pcg, PrecondKind, StackSolver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stack = Stack3d::builder(8, 8, 3).uniform_load(1e-4).build()?;
/// let sol = Pcg::with_preconditioner(PrecondKind::Amg)
///     .solve_stack(&stack, NetKind::Power)?;
/// assert!(sol.report.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Pcg {
    /// Preconditioner selection.
    pub preconditioner: PrecondKind,
    /// Relative residual target ‖b − Ax‖₂ / ‖b‖₂.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
}

impl Default for Pcg {
    fn default() -> Self {
        Pcg {
            preconditioner: PrecondKind::Ic0,
            tolerance: 1e-8,
            max_iterations: 50_000,
        }
    }
}

impl Pcg {
    /// PCG with an explicit preconditioner and default tolerances.
    pub fn with_preconditioner(kind: PrecondKind) -> Self {
        Pcg {
            preconditioner: kind,
            ..Default::default()
        }
    }

    /// Overrides the relative residual tolerance.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }
}

/// The preconditioned CG recurrence on caller-owned buffers: solves
/// `A x = b` starting from `x = 0`, applying the preconditioner through
/// `apply` (which must implement `z ← M⁻¹ r` for an SPD `M`). Performs no
/// heap allocation on the success path — both the one-shot [`Pcg`] and
/// the warm [`PcgEngine`] run on this core.
///
/// Returns `(iterations, relative_residual)` on convergence. Breakdown is
/// detected *before* the quantities are divided by:
///
/// * `pᵀAp ≤ 0` or non-finite — `A` is not positive definite on the
///   Krylov space;
/// * `rᵀM⁻¹r ≤ 0` or non-finite — the preconditioner is not SPD-applied
///   (this previously produced silent NaN voltages through the
///   `rz_new / rz` division).
///
/// Either surfaces as [`SolverError::Breakdown`]; an exhausted budget is
/// [`SolverError::DidNotConverge`] with the true relative residual. On
/// any error `x` holds the last accepted iterate.
#[allow(clippy::too_many_arguments)]
fn pcg_core(
    a: &CsrMatrix,
    b: &[f64],
    apply: &mut dyn FnMut(&[f64], &mut [f64]),
    x: &mut [f64],
    r: &mut [f64],
    z: &mut [f64],
    p: &mut [f64],
    ap: &mut [f64],
    tolerance: f64,
    max_iterations: usize,
) -> Result<(usize, f64), SolverError> {
    let bnorm = vec_ops::norm2(b);
    x.fill(0.0);
    if bnorm == 0.0 {
        return Ok((0, 0.0));
    }
    r.copy_from_slice(b);
    apply(r, z);
    p.copy_from_slice(z);
    let mut rz = vec_ops::dot(r, z);
    let target = tolerance * bnorm;
    let mut iterations = 0;
    let mut rnorm = bnorm;
    while rnorm > target {
        if iterations >= max_iterations {
            return Err(SolverError::DidNotConverge {
                iterations,
                residual: rnorm / bnorm,
                tolerance,
            });
        }
        if rz <= 0.0 || !rz.is_finite() {
            return Err(SolverError::Breakdown {
                iteration: iterations,
                what: format!("rᵀM⁻¹r = {rz:e} (preconditioner is not SPD-applied)"),
            });
        }
        a.spmv(p, ap);
        let pap = vec_ops::dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            return Err(SolverError::Breakdown {
                iteration: iterations,
                what: format!("pᵀAp = {pap:e} (matrix is not positive definite)"),
            });
        }
        let alpha = rz / pap;
        vec_ops::axpy(alpha, p, x);
        vec_ops::axpy(-alpha, ap, r);
        rnorm = vec_ops::norm2(r);
        apply(r, z);
        let rz_new = vec_ops::dot(r, z);
        vec_ops::xpby(z, rz_new / rz, p);
        rz = rz_new;
        iterations += 1;
    }
    Ok((iterations, rnorm / bnorm))
}

impl LinearSolver for Pcg {
    fn solve(&self, a: &CsrMatrix, b: &[f64]) -> Result<Solution, SolverError> {
        let n = b.len();
        let m = self.preconditioner.build(a)?;
        let mut x = vec![0.0; n];
        let mut r = vec![0.0; n];
        let mut z = vec![0.0; n];
        let mut p = vec![0.0; n];
        let mut ap = vec![0.0; n];
        let (iterations, residual) = pcg_core(
            a,
            b,
            &mut |r, z| m.apply_into(r, z),
            &mut x,
            &mut r,
            &mut z,
            &mut p,
            &mut ap,
            self.tolerance,
            self.max_iterations,
        )?;
        Ok(Solution {
            x,
            report: SolveReport {
                iterations,
                residual,
                converged: true,
                workspace_bytes: 5 * n * 8 + m.memory_bytes(),
            },
        })
    }

    fn name(&self) -> &'static str {
        match self.preconditioner {
            PrecondKind::Jacobi => "pcg-jacobi",
            PrecondKind::Ic0 => "pcg-ic0",
            PrecondKind::Ssor(_) => "pcg-ssor",
            PrecondKind::Amg => "pcg-amg",
        }
    }
}

/// The engine's prefactored preconditioner: IC(0) by default, with the
/// diagonal (Jacobi) fallback when the incomplete factorization breaks
/// down even after its diagonal-shift retries.
#[derive(Debug)]
enum EnginePrecond {
    Ic0(IncompleteCholesky),
    Jacobi { inv_diag: Vec<f64> },
}

impl EnginePrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            EnginePrecond::Ic0(ic) => ic.solve_into(r, z),
            EnginePrecond::Jacobi { inv_diag } => {
                for (zi, (ri, di)) in z.iter_mut().zip(r.iter().zip(inv_diag)) {
                    *zi = ri * di;
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            EnginePrecond::Ic0(ic) => ic.memory_bytes(),
            EnginePrecond::Jacobi { inv_diag } => inv_diag.len() * 8,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            EnginePrecond::Ic0(_) => "ic0",
            EnginePrecond::Jacobi { .. } => "jacobi",
        }
    }
}

/// The prefactored, reusable state of preconditioned CG on one stack: the
/// full 3-D MNA system stamped once, the preconditioner factored once
/// (IC(0), falling back to Jacobi on a non-positive pivot), and the
/// iteration buffers — the PCG counterpart of [`Rb3dEngine`]
/// (`voltprop_core::Session` routes `Backend::Pcg` through one).
///
/// The power and ground nets share one conductance matrix (only the rail
/// and the load sign differ), so a single factorization serves both. The
/// system is stamped without loads, so its right-hand side is the power
/// net's load-independent base (the ground net's is all zeros), and
/// [`PcgEngine::solve`] adds the request's loads to it without touching
/// the heap. The engine's answers therefore never depend on the loads
/// the stack carried at build.
///
/// The iteration buffers are sized on the first solve, so an engine that
/// is only forked from costs its frozen half alone; warm solves perform
/// **zero heap allocations**.
///
/// [`Rb3dEngine`]: crate::Rb3dEngine
///
/// # Example
///
/// ```
/// use voltprop_grid::{NetKind, Stack3d};
/// use voltprop_solvers::PcgEngine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stack = Stack3d::builder(8, 8, 3).uniform_load(1e-4).build()?;
/// let mut engine = PcgEngine::build(&stack)?;
/// let mut v = vec![0.0; engine.num_nodes()];
/// let report = engine.solve(stack.loads(), NetKind::Power, 1e-8, 50_000, &mut v)?;
/// assert!(report.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PcgEngine {
    /// The frozen post-build half, shared by every fork of this engine
    /// (see [`PcgEngine::fork`]).
    shared: Arc<PcgShared>,
    /// Iteration scratch, all `sys.dim()`-sized once the first solve has
    /// sized them (empty before).
    rhs: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

/// The read-only post-build half of a [`PcgEngine`]: the stamped system
/// and the factored preconditioner. One `PcgShared` behind an [`Arc`]
/// backs every fork of an engine; nothing here is written after `build`.
#[derive(Debug)]
struct PcgShared {
    nn: usize,
    vdd: f64,
    /// The power-net system stamped without loads. Its right-hand side is
    /// the power net's base (pad/rail folding terms); the ground net
    /// reuses its matrix and node-index map (same conductances, same
    /// Dirichlet set) and has an all-zero base (its rail is 0 V).
    sys: StampedSystem,
    precond: EnginePrecond,
}

impl PcgEngine {
    /// Validates the stack, stamps the full 3-D MNA system once, and
    /// factors the preconditioner: IC(0) first, falling back to Jacobi
    /// scaling if the incomplete factorization reports a non-positive
    /// pivot even after its diagonal-shift retries. The stack's loads are
    /// not read: every solve brings its own.
    ///
    /// # Errors
    ///
    /// [`SolverError::Grid`] if the stack fails validation or cannot be
    /// stamped; [`SolverError::Sparse`] if even the Jacobi fallback is
    /// impossible (a non-positive diagonal — the system is not SPD).
    pub fn build(stack: &Stack3d) -> Result<Self, SolverError> {
        Self::build_inner(stack, 0.0)
    }

    /// [`PcgEngine::build`] on the transient companion system
    /// `G + α·diag(C)` (see `Stack3d::stamp_dynamic`): the augmented
    /// matrix is stamped and its IC(0) preconditioner factored **once**,
    /// after which a transient stepper reuses them for every step of a
    /// fixed-`h` waveform, feeding the per-step companion currents
    /// through [`PcgEngine::solve_with_source`]. `alpha = 0.0` is exactly
    /// [`PcgEngine::build`].
    ///
    /// # Errors
    ///
    /// See [`PcgEngine::build`]; additionally [`SolverError::Grid`] for a
    /// negative or non-finite `alpha`.
    pub fn build_companion(stack: &Stack3d, alpha: f64) -> Result<Self, SolverError> {
        Self::build_inner(stack, alpha)
    }

    fn build_inner(stack: &Stack3d, alpha: f64) -> Result<Self, SolverError> {
        stack.validate()?;
        let sys = stack.stamp_unloaded(NetKind::Power, alpha)?;
        let precond = match IncompleteCholesky::new(sys.matrix()) {
            Ok(ic) => EnginePrecond::Ic0(ic),
            Err(SparseError::NotPositiveDefinite { .. }) => {
                let diag = sys.matrix().diag();
                let mut inv_diag = Vec::with_capacity(sys.dim());
                for (i, &d) in diag.iter().enumerate() {
                    if d <= 0.0 {
                        return Err(SolverError::Sparse(SparseError::NotPositiveDefinite {
                            column: i,
                        }));
                    }
                    inv_diag.push(1.0 / d);
                }
                EnginePrecond::Jacobi { inv_diag }
            }
            Err(e) => return Err(e.into()),
        };
        Ok(PcgEngine::with_shared(Arc::new(PcgShared {
            nn: stack.num_nodes(),
            vdd: stack.vdd(),
            sys,
            precond,
        })))
    }

    /// An engine on `shared` whose iteration buffers are not sized yet.
    fn with_shared(shared: Arc<PcgShared>) -> PcgEngine {
        PcgEngine {
            shared,
            rhs: Vec::new(),
            x: Vec::new(),
            r: Vec::new(),
            z: Vec::new(),
            p: Vec::new(),
            ap: Vec::new(),
        }
    }

    /// A new engine sharing this engine's frozen half — the stamped
    /// system and the factored preconditioner — with its own iteration
    /// buffers, sized on its first solve. No restamping or
    /// refactorization happens; forks solve independently and reproduce
    /// the original's solves bitwise (every solve starts from the zero
    /// initial guess).
    #[must_use]
    pub fn fork(&self) -> PcgEngine {
        PcgEngine::with_shared(Arc::clone(&self.shared))
    }

    /// Number of grid nodes this engine serves.
    pub fn num_nodes(&self) -> usize {
        self.shared.nn
    }

    /// Number of unknowns of the reduced (pad-folded) system.
    pub fn dim(&self) -> usize {
        self.shared.sys.dim()
    }

    /// The active preconditioner: `"ic0"` in the common case, `"jacobi"`
    /// if the incomplete factorization broke down at build.
    pub fn precond_name(&self) -> &'static str {
        self.shared.precond.name()
    }

    /// Runs preconditioned CG on one load vector (`loads[node]`, flat
    /// tier-major, `num_nodes` entries), writing the full per-node
    /// voltages into `v` (same layout). Every call starts from the zero
    /// initial guess, so results are deterministic regardless of what `v`
    /// held; warm calls perform **zero heap allocations**.
    ///
    /// `tolerance` is the relative residual target `‖b − Ax‖₂ / ‖b‖₂`,
    /// `max_iterations` the CG iteration budget.
    ///
    /// # Errors
    ///
    /// * [`SolverError::Unsupported`] on a malformed `loads`/`v` length.
    /// * [`SolverError::DidNotConverge`] if the budget runs out (in which
    ///   case `v` holds the last iterate).
    /// * [`SolverError::Breakdown`] on numerical breakdown (`pᵀAp ≤ 0` or
    ///   a zero/non-finite `rᵀM⁻¹r`); more iterations cannot help.
    pub fn solve(
        &mut self,
        loads: &[f64],
        net: NetKind,
        tolerance: f64,
        max_iterations: usize,
        v: &mut [f64],
    ) -> Result<SolveReport, SolverError> {
        self.solve_inner(loads, net, None, tolerance, max_iterations, v)
    }

    /// [`PcgEngine::solve`] with an additional per-node current source
    /// (`source[node]`, A, positive into the node, net-independent sign)
    /// added to the right-hand side — the transient companion currents
    /// `α·C·v_n` (+ capacitor-current state for trapezoidal). Entries at
    /// Dirichlet (folded) nodes are ignored. Warm calls perform zero heap
    /// allocations.
    ///
    /// # Errors
    ///
    /// See [`PcgEngine::solve`]; a `source` of the wrong length is
    /// [`SolverError::Unsupported`] too, naming its length.
    pub fn solve_with_source(
        &mut self,
        loads: &[f64],
        net: NetKind,
        source: &[f64],
        tolerance: f64,
        max_iterations: usize,
        v: &mut [f64],
    ) -> Result<SolveReport, SolverError> {
        self.solve_inner(loads, net, Some(source), tolerance, max_iterations, v)
    }

    fn solve_inner(
        &mut self,
        loads: &[f64],
        net: NetKind,
        source: Option<&[f64]>,
        tolerance: f64,
        max_iterations: usize,
        v: &mut [f64],
    ) -> Result<SolveReport, SolverError> {
        let nn = self.shared.nn;
        if loads.len() != nn || v.len() != nn || source.is_some_and(|s| s.len() != nn) {
            let src = source.map_or(String::new(), |s| format!(", {} source entries", s.len()));
            return Err(SolverError::Unsupported {
                what: format!(
                    "pcg engine serves {nn} nodes (got {} loads, {} voltages{src})",
                    loads.len(),
                    v.len()
                ),
            });
        }
        let dim = self.shared.sys.dim();
        if self.rhs.len() != dim {
            for buf in [
                &mut self.rhs,
                &mut self.x,
                &mut self.r,
                &mut self.z,
                &mut self.p,
                &mut self.ap,
            ] {
                *buf = vec![0.0; dim];
            }
        }
        let (rail, load_sign) = match net {
            NetKind::Power => {
                self.rhs.copy_from_slice(self.shared.sys.rhs());
                (self.shared.vdd, -1.0)
            }
            NetKind::Ground => {
                self.rhs.fill(0.0);
                (0.0, 1.0)
            }
        };
        for (node, &load) in loads.iter().enumerate() {
            if let Some(ri) = self.shared.sys.reduced_index(node) {
                self.rhs[ri] += load_sign * load;
                if let Some(src) = source {
                    self.rhs[ri] += src[node];
                }
            }
        }
        let PcgEngine {
            shared,
            rhs,
            x,
            r,
            z,
            p,
            ap,
        } = self;
        let sys = &shared.sys;
        let precond = &shared.precond;
        let outcome = pcg_core(
            sys.matrix(),
            rhs,
            &mut |r, z| precond.apply(r, z),
            x,
            r,
            z,
            p,
            ap,
            tolerance,
            max_iterations,
        );
        // Expand on every path: on DidNotConverge `x` holds the last
        // iterate (mirroring `Rb3dEngine::solve`). `v` spans the grid's
        // `nn` nodes, so the virtual rail node of resistive-pad stamps
        // (which sits past `nn`) is skipped.
        sys.expand_into(x, rail, v);
        let (iterations, residual) = outcome?;
        Ok(SolveReport {
            iterations,
            residual,
            converged: true,
            workspace_bytes: self.memory_bytes() + v.len() * 8,
        })
    }

    /// Estimated heap footprint in bytes: the frozen half (stamped system
    /// with its right-hand-side base, preconditioner factor) plus the
    /// iteration buffers once a solve has sized them. The caller owns
    /// `v`.
    pub fn memory_bytes(&self) -> usize {
        self.shared.sys.memory_bytes()
            + self.shared.precond.memory_bytes()
            + (self.rhs.len()
                + self.x.len()
                + self.r.len()
                + self.z.len()
                + self.p.len()
                + self.ap.len())
                * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectCholesky, StackSolver};
    use voltprop_grid::{NetKind, Stack3d};

    fn bench_stack() -> Stack3d {
        Stack3d::builder(12, 12, 3)
            .load_profile(
                voltprop_grid::LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                3,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn all_preconditioners_agree_with_direct() {
        let stack = bench_stack();
        let exact = DirectCholesky::new()
            .solve_stack(&stack, NetKind::Power)
            .unwrap();
        for kind in [
            PrecondKind::Jacobi,
            PrecondKind::Ic0,
            PrecondKind::Ssor(1.5),
            PrecondKind::Amg,
        ] {
            let sol = Pcg::with_preconditioner(kind)
                .solve_stack(&stack, NetKind::Power)
                .unwrap();
            let err = crate::residual::max_abs_error(&exact.voltages, &sol.voltages);
            assert!(err < 5e-4, "{}: max error {err}", kind.name());
        }
    }

    #[test]
    fn ic0_beats_jacobi_iterations() {
        let stack = bench_stack();
        let sys = stack.stamp(NetKind::Power).unwrap();
        let jacobi = Pcg::with_preconditioner(PrecondKind::Jacobi)
            .solve(sys.matrix(), sys.rhs())
            .unwrap();
        let ic0 = Pcg::with_preconditioner(PrecondKind::Ic0)
            .solve(sys.matrix(), sys.rhs())
            .unwrap();
        assert!(
            ic0.report.iterations < jacobi.report.iterations,
            "IC(0) {} vs Jacobi {}",
            ic0.report.iterations,
            jacobi.report.iterations
        );
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let stack = Stack3d::builder(4, 4, 2).build().unwrap();
        let sys = stack.stamp(NetKind::Power).unwrap();
        // Zero loads → rhs is pad injections only; build a real zero rhs.
        let zero = vec![0.0; sys.dim()];
        let sol = Pcg::default().solve(sys.matrix(), &zero).unwrap();
        assert_eq!(sol.report.iterations, 0);
    }

    #[test]
    fn names_reflect_preconditioner() {
        assert_eq!(Pcg::with_preconditioner(PrecondKind::Amg).name(), "pcg-amg");
        assert_eq!(Pcg::default().name(), "pcg-ic0");
    }

    #[test]
    fn budget_exhaustion_is_error() {
        let stack = bench_stack();
        let sys = stack.stamp(NetKind::Power).unwrap();
        let tight = Pcg {
            preconditioner: PrecondKind::Jacobi,
            tolerance: 1e-13,
            max_iterations: 1,
        };
        assert!(matches!(
            tight.solve(sys.matrix(), sys.rhs()),
            Err(SolverError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn indefinite_matrix_is_typed_breakdown_not_nan() {
        // A symmetric indefinite matrix: plain CG must refuse with a
        // typed breakdown instead of quietly iterating on NaNs. Jacobi
        // needs a positive diagonal, so keep the diagonal positive but
        // dominate it with negative coupling (eigenvalues straddle 0).
        let mut t = voltprop_sparse::TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(0, 1, 3.0);
        t.push(1, 0, 3.0);
        let a = t.to_csr();
        let solver = Pcg {
            preconditioner: PrecondKind::Jacobi,
            tolerance: 1e-12,
            max_iterations: 100,
        };
        match solver.solve(&a, &[1.0, -1.0]) {
            Err(SolverError::Breakdown { what, .. }) => {
                assert!(what.contains("pᵀAp"), "unexpected breakdown: {what}");
            }
            other => panic!("expected Breakdown, got {other:?}"),
        }
    }

    #[test]
    fn engine_matches_one_shot_pcg_and_direct() {
        let stack = bench_stack();
        let mut engine = PcgEngine::build(&stack).unwrap();
        assert_eq!(engine.precond_name(), "ic0");
        assert!(engine.dim() > 0 && engine.memory_bytes() > 0);
        let mut v = vec![0.0; engine.num_nodes()];
        for net in [NetKind::Power, NetKind::Ground] {
            let exact = DirectCholesky::new().solve_stack(&stack, net).unwrap();
            let rep = engine
                .solve(stack.loads(), net, 1e-8, 50_000, &mut v)
                .unwrap();
            assert!(rep.converged);
            let err = crate::residual::max_abs_error(&exact.voltages, &v);
            assert!(err < 5e-4, "{net:?}: max error {err}");
            let one_shot = Pcg::default().solve_stack(&stack, net).unwrap();
            let drift = crate::residual::max_abs_error(&one_shot.voltages, &v);
            assert!(drift < 1e-9, "{net:?}: engine vs one-shot drift {drift}");
        }
    }

    #[test]
    fn engine_reuse_across_load_patterns_is_deterministic() {
        let stack = bench_stack();
        let mut engine = PcgEngine::build(&stack).unwrap();
        let mut v1 = vec![0.0; engine.num_nodes()];
        let mut v2 = vec![0.0; engine.num_nodes()];
        let scaled: Vec<f64> = stack.loads().iter().map(|l| 1.5 * l).collect();
        engine
            .solve(stack.loads(), NetKind::Power, 1e-8, 50_000, &mut v1)
            .unwrap();
        // A different load pattern in between must not perturb a repeat.
        engine
            .solve(&scaled, NetKind::Power, 1e-8, 50_000, &mut v2)
            .unwrap();
        engine
            .solve(stack.loads(), NetKind::Power, 1e-8, 50_000, &mut v2)
            .unwrap();
        assert_eq!(v1, v2, "warm engine solves must be reproducible");
        // Scaled loads against a fresh stamp: same answer.
        let mut scaled_stack = stack.clone();
        scaled_stack.set_loads(scaled.clone()).unwrap();
        let fresh = Pcg::default()
            .solve_stack(&scaled_stack, NetKind::Power)
            .unwrap();
        engine
            .solve(&scaled, NetKind::Power, 1e-8, 50_000, &mut v2)
            .unwrap();
        let drift = crate::residual::max_abs_error(&fresh.voltages, &v2);
        assert!(drift < 1e-9, "reused engine drift {drift}");
    }

    #[test]
    fn engine_serves_resistive_pads_and_single_tier() {
        // The shapes voltage propagation refuses are exactly what the PCG
        // reference exists for.
        for stack in [
            Stack3d::builder(8, 8, 3)
                .pad_resistance(0.2)
                .uniform_load(3e-4)
                .build()
                .unwrap(),
            Stack3d::builder(10, 10, 1)
                .uniform_load(2e-4)
                .build()
                .unwrap(),
        ] {
            let exact = DirectCholesky::new()
                .solve_stack(&stack, NetKind::Power)
                .unwrap();
            let mut engine = PcgEngine::build(&stack).unwrap();
            let mut v = vec![0.0; engine.num_nodes()];
            engine
                .solve(stack.loads(), NetKind::Power, 1e-8, 50_000, &mut v)
                .unwrap();
            let err = crate::residual::max_abs_error(
                &exact.voltages[..stack.num_nodes()],
                &v[..stack.num_nodes()],
            );
            assert!(err < 5e-4, "max error {err}");
        }
    }

    #[test]
    fn engine_budget_exhaustion_keeps_last_iterate() {
        let stack = bench_stack();
        let mut engine = PcgEngine::build(&stack).unwrap();
        let mut v = vec![0.0; engine.num_nodes()];
        let err = engine
            .solve(stack.loads(), NetKind::Power, 1e-14, 1, &mut v)
            .unwrap_err();
        assert!(matches!(err, SolverError::DidNotConverge { .. }));
        assert!(v.iter().all(|x| x.is_finite()));
        assert!(v.iter().any(|&x| x != 0.0), "one iterate was taken");
    }

    #[test]
    fn companion_engine_matches_direct_companion_system() {
        use crate::LinearSolver;
        let stack = Stack3d::builder(12, 12, 3)
            .grid_capacitance(2e-12)
            .decap(1, 5, 5, 8e-11)
            .load_profile(
                voltprop_grid::LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 1e-3,
                },
                3,
            )
            .build()
            .unwrap();
        let alpha = 2.0 / 1e-11; // 2/h: trapezoidal at h = 10 ps
        let nn = stack.num_nodes();
        let caps = stack.capacitances().unwrap();
        let source: Vec<f64> = (0..nn)
            .map(|i| alpha * caps[i] * (1.6 + 1e-3 * (i % 5) as f64))
            .collect();

        let sys = stack.stamp_dynamic(NetKind::Power, alpha).unwrap();
        let mut rhs = sys.rhs().to_vec();
        for (r, sr) in rhs.iter_mut().zip(sys.restrict(&source)) {
            *r += sr;
        }
        let exact = sys.expand(&DirectCholesky::new().solve(sys.matrix(), &rhs).unwrap().x);

        let mut engine = PcgEngine::build_companion(&stack, alpha).unwrap();
        assert_eq!(engine.precond_name(), "ic0");
        let mut v = vec![0.0; nn];
        let rep = engine
            .solve_with_source(
                stack.loads(),
                NetKind::Power,
                &source,
                1e-10,
                50_000,
                &mut v,
            )
            .unwrap();
        assert!(rep.converged);
        let err = crate::residual::max_abs_error(&exact[..nn], &v);
        assert!(err < 1e-6, "max error {err}");

        // alpha = 0 is bitwise the static engine.
        let mut a0 = PcgEngine::build_companion(&stack, 0.0).unwrap();
        let mut b0 = PcgEngine::build(&stack).unwrap();
        let mut va = vec![0.0; nn];
        let mut vb = vec![0.0; nn];
        a0.solve(stack.loads(), NetKind::Power, 1e-8, 50_000, &mut va)
            .unwrap();
        b0.solve(stack.loads(), NetKind::Power, 1e-8, 50_000, &mut vb)
            .unwrap();
        assert_eq!(va, vb);
    }

    #[test]
    fn short_source_error_names_its_length() {
        let stack = bench_stack();
        let mut engine = PcgEngine::build_companion(&stack, 1e11).unwrap();
        let nn = engine.num_nodes();
        let mut v = vec![0.0; nn];
        let short = vec![0.0; nn - 3];
        let err = engine
            .solve_with_source(stack.loads(), NetKind::Power, &short, 1e-8, 10, &mut v)
            .unwrap_err();
        let SolverError::Unsupported { what } = err else {
            panic!("expected Unsupported, got {err:?}");
        };
        assert!(
            what.contains(&format!("{} source entries", nn - 3)),
            "{what}"
        );
    }

    #[test]
    fn engine_answers_do_not_depend_on_the_build_loads() {
        // Two stacks of one geometry carrying different loads build
        // engines that solve a third load vector bitwise alike: the base
        // holds the pad-fold terms alone.
        let a = bench_stack();
        let mut b = a.clone();
        b.set_loads(a.loads().iter().map(|l| 3.7 * l + 1e-6).collect())
            .unwrap();
        let third: Vec<f64> = a
            .loads()
            .iter()
            .enumerate()
            .map(|(i, l)| l * (0.5 + (i % 7) as f64 * 0.1))
            .collect();
        let mut ea = PcgEngine::build(&a).unwrap();
        let mut eb = PcgEngine::build(&b).unwrap();
        let nn = a.num_nodes();
        for net in [NetKind::Power, NetKind::Ground] {
            let (mut va, mut vb) = (vec![0.0; nn], vec![0.0; nn]);
            ea.solve(&third, net, 1e-10, 50_000, &mut va).unwrap();
            eb.solve(&third, net, 1e-10, 50_000, &mut vb).unwrap();
            assert!(
                va.iter().zip(&vb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{net:?}: build loads leaked into the answer"
            );
        }
    }

    #[test]
    fn forks_size_their_buffers_on_first_solve() {
        let stack = bench_stack();
        let template = PcgEngine::build(&stack).unwrap();
        let frozen = template.memory_bytes();
        let mut fork = template.fork();
        assert_eq!(
            fork.memory_bytes(),
            frozen,
            "an unsolved fork holds no buffers"
        );
        let mut v = vec![0.0; fork.num_nodes()];
        fork.solve(stack.loads(), NetKind::Power, 1e-8, 50_000, &mut v)
            .unwrap();
        assert_eq!(fork.memory_bytes(), frozen + 6 * fork.dim() * 8);
        assert_eq!(template.memory_bytes(), frozen);
    }

    #[test]
    fn engine_rejects_malformed_lengths() {
        let stack = bench_stack();
        let mut engine = PcgEngine::build(&stack).unwrap();
        let mut v = vec![0.0; engine.num_nodes()];
        assert!(matches!(
            engine.solve(&[1e-4; 3], NetKind::Power, 1e-8, 100, &mut v),
            Err(SolverError::Unsupported { .. })
        ));
        let mut short = vec![0.0; 3];
        assert!(matches!(
            engine.solve(stack.loads(), NetKind::Power, 1e-8, 100, &mut short),
            Err(SolverError::Unsupported { .. })
        ));
    }
}
