//! The row-based (RB) iterative method of Zhong & Wong (paper ref \[5\]).
//!
//! A power grid tier is a `width`×`height` mesh; RB treats each grid row as
//! one block of a block Gauss–Seidel iteration. Given the (current)
//! voltages of the rows above and below, a row's equations form a
//! tridiagonal system solved *exactly* by the Thomas algorithm — the
//! `5N-4` multiplications and `3(N-1)` additions quoted in the paper.
//!
//! Nodes may be *pinned* (Dirichlet): pads in a planar solve, TSV terminals
//! during the voltage propagation phases. Pinned nodes split a row into
//! independent tridiagonal segments and contribute their voltage to the
//! neighbouring segments' right-hand sides.
//!
//! [`RowBased`] is the reference kernel: it re-eliminates every row each
//! sweep, runs strictly sequentially, and keeps its inner loops in plain
//! scalar f64 on purpose — it is the easy-to-audit baseline the fast
//! paths are tested against, and it serves only as that test and
//! benchmark reference: no solve path of the workspace calls it (the
//! voltage propagation tier solves and its pillar-lattice correction
//! both run on prefactored engines). The production path is the
//! prefactored [`TierEngine`] (see [`RowBased::solve_tier_scheduled`]),
//! which factors each segment once, sweeps batched lanes through blocked
//! FMA kernels (see the [engine docs](crate::engine)), and can run the
//! red-black row coloring across threads.

use crate::engine::{SweepSchedule, TierEngine};
use crate::{SolveReport, SolverError};
use voltprop_sparse::tridiag::TridiagWorkspace;

/// One tier's boundary-value problem for RB sweeps.
///
/// `fixed[i]` pins footprint node `i` at its current value in the voltage
/// vector. `extra_diag[i]` adds conductance from node `i` to *external*
/// potentials (TSV coupling to adjacent tiers, resistive pads); the
/// corresponding `g·V_external` current belongs in `injection[i]`.
#[derive(Debug, Clone, Copy)]
pub struct TierProblem<'a> {
    /// Mesh width (nodes per row).
    pub width: usize,
    /// Mesh height (rows).
    pub height: usize,
    /// Horizontal (within-row) segment conductance (S).
    pub g_h: f64,
    /// Vertical (between-row) segment conductance (S).
    pub g_v: f64,
    /// Per-node pin mask (`width*height`).
    pub fixed: &'a [bool],
    /// Per-node additional diagonal conductance (`width*height`).
    pub extra_diag: &'a [f64],
    /// Per-node current injection, including `g·V_external` terms (A).
    pub injection: &'a [f64],
}

impl TierProblem<'_> {
    fn validate(&self) -> Result<(), SolverError> {
        let n = self.width * self.height;
        if self.fixed.len() != n || self.extra_diag.len() != n || self.injection.len() != n {
            return Err(SolverError::Unsupported {
                what: format!(
                    "tier problem arrays must have {n} entries (got {}, {}, {})",
                    self.fixed.len(),
                    self.extra_diag.len(),
                    self.injection.len()
                ),
            });
        }
        if !(self.g_h > 0.0 && self.g_v > 0.0) {
            return Err(SolverError::Unsupported {
                what: "conductances must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Reusable scratch buffers for [`RowBased`] sweeps (one row's tridiagonal
/// system).
#[derive(Debug, Clone, Default)]
pub struct RbWorkspace {
    diag: Vec<f64>,
    off: Vec<f64>,
    rhs: Vec<f64>,
    x: Vec<f64>,
    tri: TridiagWorkspace,
}

impl RbWorkspace {
    /// Creates a workspace for rows up to `width` nodes.
    pub fn new(width: usize) -> Self {
        RbWorkspace {
            diag: Vec::with_capacity(width),
            off: Vec::with_capacity(width),
            rhs: Vec::with_capacity(width),
            x: Vec::with_capacity(width),
            tri: TridiagWorkspace::new(width),
        }
    }

    /// Estimated heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.diag.capacity() + self.off.capacity() + self.rhs.capacity() + self.x.capacity())
            * std::mem::size_of::<f64>()
            + self.tri.memory_bytes()
    }
}

/// Row-based block Gauss–Seidel with optional successive over-relaxation.
///
/// # Example
///
/// Solve a 4×4 planar grid with the four corners pinned to 1 V:
///
/// ```
/// use voltprop_solvers::{RowBased, TierProblem};
///
/// # fn main() -> Result<(), voltprop_solvers::SolverError> {
/// let (w, h) = (4, 4);
/// let mut fixed = vec![false; w * h];
/// for &c in &[0, 3, 12, 15] { fixed[c] = true; }
/// let mut v = vec![0.0; w * h];
/// for &c in &[0, 3, 12, 15] { v[c] = 1.0; }
/// let problem = TierProblem {
///     width: w, height: h, g_h: 1.0, g_v: 1.0,
///     fixed: &fixed,
///     extra_diag: &vec![0.0; w * h],
///     injection: &vec![0.0; w * h],
/// };
/// let report = RowBased::default().solve_tier(&problem, &mut v)?;
/// assert!(report.converged);
/// // No loads: every interior voltage relaxes to 1 V.
/// assert!(v.iter().all(|&vi| (vi - 1.0).abs() < 1e-5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RowBased {
    /// Over-relaxation factor `ω ∈ (0, 2)`; `1.0` is plain block GS.
    pub omega: f64,
    /// Convergence threshold on the largest per-sweep voltage update (V).
    pub tolerance: f64,
    /// Sweep budget.
    pub max_sweeps: usize,
    /// Alternate sweep direction (down/up) between iterations.
    pub alternate: bool,
}

impl Default for RowBased {
    fn default() -> Self {
        RowBased {
            omega: 1.0,
            tolerance: 1e-7,
            max_sweeps: 100_000,
            alternate: true,
        }
    }
}

impl RowBased {
    /// RB with an explicit SOR factor.
    pub fn with_omega(omega: f64) -> Self {
        RowBased {
            omega,
            ..Default::default()
        }
    }

    /// Iterates sweeps until the largest voltage update drops below the
    /// tolerance, reading the initial guess (and pinned values) from `v`
    /// and leaving the solution there.
    ///
    /// # Errors
    ///
    /// [`SolverError::Unsupported`] for inconsistent array lengths or
    /// non-positive conductances; [`SolverError::DidNotConverge`] if the
    /// sweep budget runs out.
    pub fn solve_tier(
        &self,
        problem: &TierProblem<'_>,
        v: &mut [f64],
    ) -> Result<SolveReport, SolverError> {
        let mut ws = RbWorkspace::new(problem.width);
        self.solve_tier_with(problem, v, &mut ws)
    }

    /// Like [`RowBased::solve_tier`] but reusing caller-provided scratch
    /// buffers across repeated reference solves.
    ///
    /// # Errors
    ///
    /// See [`RowBased::solve_tier`].
    pub fn solve_tier_with(
        &self,
        problem: &TierProblem<'_>,
        v: &mut [f64],
        ws: &mut RbWorkspace,
    ) -> Result<SolveReport, SolverError> {
        problem.validate()?;
        if !(self.omega > 0.0 && self.omega < 2.0) {
            return Err(SolverError::Unsupported {
                what: format!("SOR omega {} outside (0, 2)", self.omega),
            });
        }
        assert_eq!(v.len(), problem.width * problem.height, "voltage length");
        let mut max_delta = f64::INFINITY;
        let mut sweeps = 0;
        while sweeps < self.max_sweeps {
            let down = !self.alternate || sweeps % 2 == 0;
            max_delta = self.sweep_once(problem, v, ws, down)?;
            sweeps += 1;
            if max_delta < self.tolerance {
                return Ok(SolveReport {
                    iterations: sweeps,
                    residual: max_delta,
                    converged: true,
                    workspace_bytes: ws.memory_bytes(),
                });
            }
        }
        Err(SolverError::DidNotConverge {
            iterations: sweeps,
            residual: max_delta,
            tolerance: self.tolerance,
        })
    }

    /// Solves the tier through a freshly built prefactored
    /// [`TierEngine`] under the given schedule —
    /// [`SweepSchedule::RedBlack`] runs the row solves of each color
    /// concurrently. One-shot convenience; callers solving the same tier
    /// repeatedly should keep the engine (see [`TierEngine::from_problem`])
    /// to reuse its factorizations across solves.
    ///
    /// # Errors
    ///
    /// See [`RowBased::solve_tier`] and [`TierEngine::new`].
    pub fn solve_tier_scheduled(
        &self,
        problem: &TierProblem<'_>,
        v: &mut [f64],
        schedule: SweepSchedule,
    ) -> Result<SolveReport, SolverError> {
        let mut engine = TierEngine::from_problem(problem, schedule)?;
        engine.solve_with_omega(
            problem.injection,
            v,
            self.tolerance,
            self.max_sweeps,
            self.omega,
        )
    }

    /// One sweep over all rows; returns the largest voltage update.
    ///
    /// # Errors
    ///
    /// See [`RowBased::solve_tier`]. Exposed so callers building composite
    /// iterations (the naive 3-D RB baseline) can interleave their own
    /// boundary updates between sweeps.
    pub fn sweep_once(
        &self,
        problem: &TierProblem<'_>,
        v: &mut [f64],
        ws: &mut RbWorkspace,
        downward: bool,
    ) -> Result<f64, SolverError> {
        let mut max_delta = 0.0f64;
        if downward {
            for y in 0..problem.height {
                max_delta = max_delta.max(self.solve_row(problem, v, ws, y)?);
            }
        } else {
            for y in (0..problem.height).rev() {
                max_delta = max_delta.max(self.solve_row(problem, v, ws, y)?);
            }
        }
        Ok(max_delta)
    }

    /// Solves row `y` exactly (given current neighbouring rows) and applies
    /// the SOR update; returns the largest update in the row.
    fn solve_row(
        &self,
        p: &TierProblem<'_>,
        v: &mut [f64],
        ws: &mut RbWorkspace,
        y: usize,
    ) -> Result<f64, SolverError> {
        let (w, h) = (p.width, p.height);
        let row0 = y * w;
        let mut max_delta = 0.0f64;
        let mut seg_start: Option<usize> = None;
        // Walk the row; flush a tridiagonal segment at each pinned node or
        // at the row end.
        for x in 0..=w {
            let at_end = x == w;
            let pinned = !at_end && p.fixed[row0 + x];
            if !at_end && !pinned {
                if seg_start.is_none() {
                    seg_start = Some(x);
                    ws.diag.clear();
                    ws.off.clear();
                    ws.rhs.clear();
                }
                let i = row0 + x;
                let mut d = p.extra_diag[i];
                let mut b = p.injection[i];
                // Horizontal neighbours.
                if x > 0 {
                    d += p.g_h;
                    if p.fixed[i - 1] {
                        b += p.g_h * v[i - 1];
                    }
                }
                if x + 1 < w {
                    d += p.g_h;
                    if p.fixed[i + 1] {
                        b += p.g_h * v[i + 1];
                    }
                }
                // Vertical neighbours always act as boundary values.
                if y > 0 {
                    d += p.g_v;
                    b += p.g_v * v[i - w];
                }
                if y + 1 < h {
                    d += p.g_v;
                    b += p.g_v * v[i + w];
                }
                if !ws.diag.is_empty() {
                    ws.off.push(-p.g_h);
                }
                ws.diag.push(d);
                ws.rhs.push(b);
            }
            if (at_end || pinned) && seg_start.is_some() {
                let s = seg_start.take().unwrap();
                let len = ws.diag.len();
                ws.x.clear();
                ws.x.resize(len, 0.0);
                ws.tri
                    .solve(&ws.off, &ws.diag, &ws.off, &ws.rhs, &mut ws.x)?;
                for (k, xk) in ws.x.iter().enumerate() {
                    let i = row0 + s + k;
                    let new = v[i] + self.omega * (xk - v[i]);
                    max_delta = max_delta.max((new - v[i]).abs());
                    v[i] = new;
                }
            }
        }
        Ok(max_delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectCholesky, LinearSolver};
    use voltprop_sparse::TripletMatrix;

    /// Builds the same tier problem as an assembled matrix for
    /// cross-checking.
    fn assemble(
        p: &TierProblem<'_>,
        v_fixed: &[f64],
    ) -> (Vec<usize>, voltprop_sparse::CsrMatrix, Vec<f64>) {
        let (w, h) = (p.width, p.height);
        let mut map = vec![usize::MAX; w * h];
        let mut free = Vec::new();
        for i in 0..w * h {
            if !p.fixed[i] {
                map[i] = free.len();
                free.push(i);
            }
        }
        let mut t = TripletMatrix::new(free.len(), free.len());
        let mut rhs = vec![0.0; free.len()];
        for (fi, &i) in free.iter().enumerate() {
            let (x, y) = (i % w, i / w);
            let mut d = p.extra_diag[i];
            rhs[fi] += p.injection[i];
            let mut neigh = |j: usize, g: f64, d: &mut f64| {
                *d += g;
                if p.fixed[j] {
                    rhs[fi] += g * v_fixed[j];
                } else {
                    t.push(fi, map[j], -g);
                }
            };
            if x > 0 {
                neigh(i - 1, p.g_h, &mut d);
            }
            if x + 1 < w {
                neigh(i + 1, p.g_h, &mut d);
            }
            if y > 0 {
                neigh(i - w, p.g_v, &mut d);
            }
            if y + 1 < h {
                neigh(i + w, p.g_v, &mut d);
            }
            t.push(fi, fi, d);
        }
        (free, t.to_csr(), rhs)
    }

    fn random_problem(seed: u64, w: usize, h: usize) -> (Vec<bool>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = w * h;
        let mut s = seed.wrapping_add(1);
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64)
        };
        let mut fixed = vec![false; n];
        let mut v = vec![0.0; n];
        // Pin ~1/4 of the nodes at voltages near 1.8 (TSV-like pattern).
        for i in 0..n {
            if rnd() < 0.25 {
                fixed[i] = true;
                v[i] = 1.7 + 0.2 * rnd();
            }
        }
        // Ensure at least one pinned node so the problem is nonsingular.
        if !fixed.iter().any(|&f| f) {
            fixed[0] = true;
            v[0] = 1.8;
        }
        let injection: Vec<f64> = (0..n)
            .map(|i| if fixed[i] { 0.0 } else { -1e-4 * rnd() })
            .collect();
        let extra = vec![0.0; n];
        (fixed, v, injection, extra)
    }

    #[test]
    fn matches_direct_solver_on_pinned_grids() {
        for seed in [1, 2, 3] {
            let (w, h) = (9, 7);
            let (fixed, mut v, injection, extra) = random_problem(seed, w, h);
            let p = TierProblem {
                width: w,
                height: h,
                g_h: 50.0,
                g_v: 40.0,
                fixed: &fixed,
                extra_diag: &extra,
                injection: &injection,
            };
            let v_fixed = v.clone();
            let report = RowBased::default().solve_tier(&p, &mut v).unwrap();
            assert!(report.converged);

            let (free, a, rhs) = assemble(&p, &v_fixed);
            let exact = DirectCholesky::new().solve(&a, &rhs).unwrap();
            for (fi, &i) in free.iter().enumerate() {
                assert!(
                    (v[i] - exact.x[fi]).abs() < 1e-5,
                    "seed {seed}, node {i}: RB {} vs direct {}",
                    v[i],
                    exact.x[fi]
                );
            }
        }
    }

    #[test]
    fn sor_accelerates_loose_grids() {
        // Sparse pins (only two corners) make plain GS slow; SOR with
        // ω ≈ 1.8 must converge in fewer sweeps.
        let (w, h) = (24, 24);
        let n = w * h;
        let mut fixed = vec![false; n];
        fixed[0] = true;
        fixed[n - 1] = true;
        let mut v1 = vec![0.0; n];
        v1[0] = 1.8;
        v1[n - 1] = 1.8;
        let mut v2 = v1.clone();
        let injection = vec![-1e-5; n];
        let extra = vec![0.0; n];
        let p = TierProblem {
            width: w,
            height: h,
            g_h: 50.0,
            g_v: 50.0,
            fixed: &fixed,
            extra_diag: &extra,
            injection: &injection,
        };
        let gs = RowBased::default().solve_tier(&p, &mut v1).unwrap();
        let sor = RowBased::with_omega(1.8).solve_tier(&p, &mut v2).unwrap();
        assert!(
            sor.iterations < gs.iterations,
            "SOR {} should beat GS {}",
            sor.iterations,
            gs.iterations
        );
    }

    #[test]
    fn dense_pins_converge_in_few_sweeps() {
        // The VP regime: every other node pinned → convergence in a handful
        // of sweeps regardless of grid size.
        let (w, h) = (40, 40);
        let n = w * h;
        let mut fixed = vec![false; n];
        let mut v = vec![1.8; n];
        for y in (0..h).step_by(2) {
            for x in (0..w).step_by(2) {
                fixed[y * w + x] = true;
            }
        }
        let injection: Vec<f64> = (0..n).map(|i| if fixed[i] { 0.0 } else { -2e-4 }).collect();
        let extra = vec![0.0; n];
        let p = TierProblem {
            width: w,
            height: h,
            g_h: 50.0,
            g_v: 50.0,
            fixed: &fixed,
            extra_diag: &extra,
            injection: &injection,
        };
        let report = RowBased::default().solve_tier(&p, &mut v).unwrap();
        assert!(
            report.iterations <= 12,
            "dense pins should converge fast, took {}",
            report.iterations
        );
    }

    #[test]
    fn fully_pinned_row_is_ok() {
        let (w, h) = (3, 2);
        let fixed = vec![true, true, true, false, false, false];
        let mut v = vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        let p = TierProblem {
            width: w,
            height: h,
            g_h: 1.0,
            g_v: 1.0,
            fixed: &fixed,
            extra_diag: &[0.0; 6],
            injection: &[0.0; 6],
        };
        RowBased::default().solve_tier(&p, &mut v).unwrap();
        for i in 3..6 {
            assert!((v[i] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn inconsistent_lengths_rejected() {
        let p = TierProblem {
            width: 3,
            height: 2,
            g_h: 1.0,
            g_v: 1.0,
            fixed: &[false; 5],
            extra_diag: &[0.0; 6],
            injection: &[0.0; 6],
        };
        let mut v = vec![0.0; 6];
        assert!(matches!(
            RowBased::default().solve_tier(&p, &mut v),
            Err(SolverError::Unsupported { .. })
        ));
    }

    #[test]
    fn bad_omega_rejected() {
        let fixed = [true, false];
        let p = TierProblem {
            width: 2,
            height: 1,
            g_h: 1.0,
            g_v: 1.0,
            fixed: &fixed,
            extra_diag: &[0.0; 2],
            injection: &[0.0; 2],
        };
        let mut v = vec![1.0, 0.0];
        assert!(matches!(
            RowBased::with_omega(2.5).solve_tier(&p, &mut v),
            Err(SolverError::Unsupported { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_reports() {
        let (w, h) = (16, 16);
        let n = w * h;
        let mut fixed = vec![false; n];
        fixed[0] = true;
        let mut v = vec![0.0; n];
        v[0] = 1.8;
        let p = TierProblem {
            width: w,
            height: h,
            g_h: 50.0,
            g_v: 50.0,
            fixed: &fixed,
            extra_diag: &[0.0; 256],
            injection: &[0.0; 256],
        };
        let solver = RowBased {
            max_sweeps: 2,
            tolerance: 1e-14,
            ..Default::default()
        };
        assert!(matches!(
            solver.solve_tier(&p, &mut v),
            Err(SolverError::DidNotConverge { iterations: 2, .. })
        ));
    }
}
