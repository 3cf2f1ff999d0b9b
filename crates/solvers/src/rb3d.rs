//! Naive extension of the row-based method to 3-D stacks.
//!
//! This is the strawman the paper argues against in §III-A: treat the 3-D
//! grid as one big block Gauss–Seidel iteration whose blocks are the grid
//! rows of every tier, with TSV conductances coupling tiers like ordinary
//! neighbours. Because a TSV's conductance (1/0.05 Ω = 20 S) dwarfs the
//! wire conductances, the iteration matrix loses diagonal dominance margin
//! and the sweep count explodes as R_TSV shrinks — exactly the behaviour
//! benchmarked in experiment E4.
//!
//! The tier sweeps run on the prefactored [`TierEngine`]: each tier's row
//! segments are factored once up front and every sweep is substitution
//! only. Setting [`Rb3d::parallelism`] above 1 switches the sweeps to the
//! red-black row coloring, solving same-color rows concurrently.

use std::sync::Arc;

use crate::engine::{SweepSchedule, TierEngine};
use crate::{SolveReport, SolverError, StackSolution, StackSolver};
use voltprop_grid::{NetKind, Stack3d};

/// The naive 3-D row-based solver (paper §III-A baseline).
///
/// # Example
///
/// ```
/// use voltprop_grid::{Stack3d, NetKind};
/// use voltprop_solvers::{Rb3d, StackSolver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stack = Stack3d::builder(6, 6, 3).uniform_load(1e-4).build()?;
/// let sol = Rb3d::default().solve_stack(&stack, NetKind::Power)?;
/// assert!(sol.report.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Rb3d {
    /// Over-relaxation factor for the row sweeps.
    pub omega: f64,
    /// Convergence threshold on the largest global voltage update (V).
    pub tolerance: f64,
    /// Budget of full-stack iterations (each is one sweep of every tier).
    pub max_iterations: usize,
    /// Worker threads for the row sweeps: `1` keeps the sequential
    /// alternating-direction schedule, larger values sweep red-black.
    ///
    /// Rb3d rebuilds each tier's injection between sweeps, so the
    /// parallel path pays a worker-pool hand-off plus two full-tier
    /// copies **per tier per iteration** (the hand-off is allocation-free
    /// once the persistent pool is warm, but the copies are not free);
    /// it only pays off on tiers large enough to amortize that. For
    /// small grids keep `1`.
    pub parallelism: usize,
}

impl Default for Rb3d {
    fn default() -> Self {
        Rb3d {
            omega: 1.0,
            tolerance: 1e-7,
            max_iterations: 200_000,
            parallelism: 1,
        }
    }
}

impl Rb3d {
    /// Naive 3-D RB with an explicit SOR factor.
    pub fn with_omega(omega: f64) -> Self {
        Rb3d {
            omega,
            ..Default::default()
        }
    }

    /// Naive 3-D RB sweeping on `threads` worker threads.
    pub fn with_parallelism(threads: usize) -> Self {
        Rb3d {
            parallelism: threads.max(1),
            ..Default::default()
        }
    }
}

/// The prefactored, reusable state of the naive 3-D row-based iteration:
/// every tier's row segments factored once, the TSV/pad structure baked
/// into per-tier masks, and the injection staging buffer. The frozen
/// half is shared by every [`Rb3dEngine::fork`]; the per-solve buffers
/// (the staging buffer and each tier engine's sweep scratch) are sized
/// by the first solve, so an engine that is only forked from costs its
/// frozen half alone.
///
/// [`Rb3d::solve_stack`] builds one per call; callers that solve many
/// load patterns on one grid (e.g. a `Session` in `voltprop-core`
/// routing `Backend::Rb3d`) build it once and call
/// [`Rb3dEngine::solve`] repeatedly — warm solves touch the heap only
/// through the worker-pool hand-off, which is itself allocation-free
/// once the pool is warm.
///
/// The iteration is **identical** to the one-shot [`Rb3d`] path: solving
/// through a prebuilt engine produces bitwise-equal voltages.
#[derive(Debug)]
pub struct Rb3dEngine {
    /// The topology descriptors every fork shares.
    shape: Arc<Rb3dShape>,
    /// One prefactored engine per tier (forks share their factors).
    engines: Vec<TierEngine>,
    /// Per-tier injection staging, sized by the first solve.
    injection: Vec<f64>,
}

/// The read-only topology of an [`Rb3dEngine`], shared by its forks.
#[derive(Debug)]
struct Rb3dShape {
    width: usize,
    height: usize,
    tiers: usize,
    vdd: f64,
    g_tsv: f64,
    ideal_pads: bool,
    g_pad: f64,
    /// Per-site TSV flag, one tier's footprint (shared by every tier).
    tsv_mask: Vec<bool>,
    /// Per-site pad flag (top tier only carries pads).
    pad_mask: Vec<bool>,
}

impl Rb3dEngine {
    /// Validates the stack and prefactors every tier's row segments for
    /// the naive 3-D iteration.
    ///
    /// # Errors
    ///
    /// [`SolverError::Grid`] if the stack fails validation;
    /// [`SolverError::Sparse`] if a tier factorization fails.
    pub fn build(stack: &Stack3d, parallelism: usize) -> Result<Self, SolverError> {
        Self::build_companion(stack, parallelism, 0.0)
    }

    /// Builds the transient companion variant of the engine: every node's
    /// capacitance scaled by `alpha` (the companion coefficient, `1/h`
    /// for backward Euler or `2/h` for trapezoidal) is folded into that
    /// node's diagonal before the tier rows are factored, so the engine
    /// iterates on `G + α·diag(C)`. The per-step companion *currents* are
    /// passed to [`Rb3dEngine::solve_with_source`]. `alpha = 0` builds
    /// the static engine.
    ///
    /// # Errors
    ///
    /// See [`Rb3dEngine::build`].
    pub fn build_companion(
        stack: &Stack3d,
        parallelism: usize,
        alpha: f64,
    ) -> Result<Self, SolverError> {
        stack.validate()?;
        let (w, h, tiers) = (stack.width(), stack.height(), stack.tiers());
        let per_tier = w * h;
        let top = tiers - 1;
        let g_tsv = 1.0 / stack.tsv_resistance();
        let ideal_pads = stack.pad_resistance() == 0.0;
        let g_pad = if ideal_pads {
            0.0
        } else {
            1.0 / stack.pad_resistance()
        };

        // Per-tier static data: extra diagonal conductance from TSV
        // coupling (and resistive pads on top), pin mask for ideal pads.
        let mut tsv_mask = vec![false; per_tier];
        let mut pad_mask = vec![false; per_tier];
        let mut fixed = vec![vec![false; per_tier]; tiers];
        let mut extra = vec![vec![0.0f64; per_tier]; tiers];
        for y in 0..h {
            for x in 0..w {
                let site = y * w + x;
                if stack.is_tsv(x, y) {
                    tsv_mask[site] = true;
                    for (t, e) in extra.iter_mut().enumerate() {
                        let mut g = 0.0;
                        if t > 0 {
                            g += g_tsv;
                        }
                        if t < top {
                            g += g_tsv;
                        }
                        e[site] += g;
                    }
                }
                if stack.is_pad(x, y) {
                    pad_mask[site] = true;
                    if ideal_pads {
                        fixed[top][site] = true;
                    } else {
                        extra[top][site] += g_pad;
                    }
                }
            }
        }
        if alpha != 0.0 {
            if let Some(caps) = stack.capacitances() {
                for (t, e) in extra.iter_mut().enumerate() {
                    for (site, extra_g) in e.iter_mut().enumerate() {
                        *extra_g += alpha * caps[t * per_tier + site];
                    }
                }
            }
        }

        // Prefactor every tier's row segments once; all sweeps are pure
        // substitution. Tiers below the top share one (all-free) pin-mask
        // allocation.
        let schedule = SweepSchedule::from_parallelism(parallelism.max(1));
        let free_mask: Arc<[bool]> = Arc::from(vec![false; per_tier]);
        let mut engines: Vec<TierEngine> = Vec::with_capacity(tiers);
        for t in 0..tiers {
            let mask = if fixed[t].iter().any(|&f| f) {
                Arc::from(&fixed[t][..])
            } else {
                free_mask.clone()
            };
            engines.push(TierEngine::new(
                w,
                h,
                1.0 / stack.r_horizontal(t),
                1.0 / stack.r_vertical(t),
                mask,
                Some(&extra[t]),
                schedule,
            )?);
        }

        Ok(Rb3dEngine {
            shape: Arc::new(Rb3dShape {
                width: w,
                height: h,
                tiers,
                vdd: stack.vdd(),
                g_tsv,
                ideal_pads,
                g_pad,
                tsv_mask,
                pad_mask,
            }),
            engines,
            injection: Vec::new(),
        })
    }

    /// A new engine sharing this engine's frozen half — the per-tier
    /// factored segments (through [`TierEngine::fork`], no
    /// refactorization) and the topology descriptors — with its own
    /// per-solve buffers, sized on its first solve.
    ///
    /// Forks solve independently — two forks may run concurrently from
    /// different threads — and reproduce the original engine's solves
    /// bitwise ([`Rb3dEngine::solve`] re-initializes `v` every call).
    #[must_use]
    pub fn fork(&self) -> Rb3dEngine {
        Rb3dEngine {
            shape: Arc::clone(&self.shape),
            engines: self.engines.iter().map(TierEngine::fork).collect(),
            injection: Vec::new(),
        }
    }

    /// Number of grid nodes this engine serves.
    pub fn num_nodes(&self) -> usize {
        let s = &self.shape;
        s.width * s.height * s.tiers
    }

    /// Runs the naive 3-D block Gauss–Seidel iteration on one load
    /// vector (`loads[node]`, flat tier-major, `num_nodes` entries),
    /// writing the solution into `v` (same layout). `v`'s contents are
    /// overwritten with the flat-rail initial guess first, so every call
    /// is deterministic regardless of what `v` held.
    ///
    /// # Errors
    ///
    /// [`SolverError::Unsupported`] on a malformed `loads`/`v` length;
    /// [`SolverError::DidNotConverge`] if `max_iterations` full-stack
    /// sweeps cannot reach `tolerance` (in which case `v` holds the last
    /// iterate).
    pub fn solve(
        &mut self,
        loads: &[f64],
        net: NetKind,
        omega: f64,
        tolerance: f64,
        max_iterations: usize,
        v: &mut [f64],
    ) -> Result<SolveReport, SolverError> {
        self.solve_inner(loads, net, None, omega, tolerance, max_iterations, v, true)
    }

    /// [`Rb3dEngine::solve`] with an additional per-node current source
    /// (`source[node]`, A, positive into the node, already in absolute
    /// net-independent sign) added to every node's injection — the
    /// transient companion currents `α·C·v_n` (+ capacitor-current state
    /// for trapezoidal). Unlike [`Rb3dEngine::solve`], the iteration
    /// starts from the caller's `v` (a transient stepper warm-starts each
    /// step from the previous one).
    ///
    /// # Errors
    ///
    /// See [`Rb3dEngine::solve`]; a `source` of the wrong length is
    /// [`SolverError::Unsupported`] too, naming its length.
    #[allow(clippy::too_many_arguments)] // mirrors `solve` plus the source
    pub fn solve_with_source(
        &mut self,
        loads: &[f64],
        net: NetKind,
        source: &[f64],
        omega: f64,
        tolerance: f64,
        max_iterations: usize,
        v: &mut [f64],
    ) -> Result<SolveReport, SolverError> {
        self.solve_inner(
            loads,
            net,
            Some(source),
            omega,
            tolerance,
            max_iterations,
            v,
            false,
        )
    }

    #[allow(clippy::too_many_arguments)] // internal fan-in of both entry points
    fn solve_inner(
        &mut self,
        loads: &[f64],
        net: NetKind,
        source: Option<&[f64]>,
        omega: f64,
        tolerance: f64,
        max_iterations: usize,
        v: &mut [f64],
        reset: bool,
    ) -> Result<SolveReport, SolverError> {
        let nn = self.num_nodes();
        if loads.len() != nn || v.len() != nn || source.is_some_and(|s| s.len() != nn) {
            let src = source.map_or(String::new(), |s| format!(", {} source entries", s.len()));
            return Err(SolverError::Unsupported {
                what: format!(
                    "rb3d engine serves {nn} nodes (got {} loads, {} voltages{src})",
                    loads.len(),
                    v.len()
                ),
            });
        }
        let Rb3dEngine {
            shape,
            engines,
            injection,
        } = self;
        let s = &**shape;
        let (w, h, tiers) = (s.width, s.height, s.tiers);
        let per_tier = w * h;
        let top = tiers - 1;
        if injection.len() != per_tier {
            *injection = vec![0.0; per_tier];
        }
        let rail = match net {
            NetKind::Power => s.vdd,
            NetKind::Ground => 0.0,
        };
        let load_sign = match net {
            NetKind::Power => -1.0,
            NetKind::Ground => 1.0,
        };

        // Initial guess: flat rail voltage (pads already at their value),
        // unless the caller warm-starts (transient stepping).
        if reset {
            v.fill(rail);
        }

        let mut iterations = 0;
        let mut max_delta = f64::INFINITY;
        while iterations < max_iterations {
            max_delta = 0.0;
            let downward = iterations % 2 == 0;
            for t in 0..tiers {
                // Build the injection vector for tier t from loads, TSV
                // coupling to the *current* neighbour-tier voltages, and
                // resistive-pad rail current.
                for site in 0..per_tier {
                    let node = t * per_tier + site;
                    let mut b = load_sign * loads[node];
                    if let Some(src) = source {
                        b += src[node];
                    }
                    if s.tsv_mask[site] {
                        if t > 0 {
                            b += s.g_tsv * v[node - per_tier];
                        }
                        if t < top {
                            b += s.g_tsv * v[node + per_tier];
                        }
                    }
                    if t == top && !s.ideal_pads && s.pad_mask[site] {
                        b += s.g_pad * rail;
                    }
                    injection[site] = b;
                }
                let tier_v = &mut v[t * per_tier..(t + 1) * per_tier];
                let delta = engines[t].sweep_once(injection, tier_v, downward, omega)?;
                max_delta = max_delta.max(delta);
            }
            iterations += 1;
            if max_delta < tolerance {
                return Ok(SolveReport {
                    iterations,
                    residual: max_delta,
                    converged: true,
                    workspace_bytes: self.memory_bytes() + v.len() * 8,
                });
            }
        }
        Err(SolverError::DidNotConverge {
            iterations,
            residual: max_delta,
            tolerance,
        })
    }

    /// Estimated heap footprint in bytes: the frozen half (prefactored
    /// engines, masks) plus the per-solve buffers once a solve has sized
    /// them. The caller owns `v`.
    pub fn memory_bytes(&self) -> usize {
        self.engines
            .iter()
            .map(TierEngine::memory_bytes)
            .sum::<usize>()
            + self.injection.len() * 8
            + self.shape.tsv_mask.len()
            + self.shape.pad_mask.len()
    }
}

impl StackSolver for Rb3d {
    fn solve_stack(&self, stack: &Stack3d, net: NetKind) -> Result<StackSolution, SolverError> {
        let mut engine = Rb3dEngine::build(stack, self.parallelism)?;
        let mut v = vec![0.0; engine.num_nodes()];
        let report = engine.solve(
            stack.loads(),
            net,
            self.omega,
            self.tolerance,
            self.max_iterations,
            &mut v,
        )?;
        Ok(StackSolution {
            voltages: v,
            report,
        })
    }

    fn solver_name(&self) -> &'static str {
        "rb3d-naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{residual, DirectCholesky, LinearSolver};

    fn stack(r_tsv: f64) -> Stack3d {
        Stack3d::builder(8, 8, 3)
            .tsv_resistance(r_tsv)
            .load_profile(
                voltprop_grid::LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 5e-4,
                },
                17,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn agrees_with_direct() {
        let s = stack(0.05);
        let exact = DirectCholesky::new()
            .solve_stack(&s, NetKind::Power)
            .unwrap();
        let rb = Rb3d::default().solve_stack(&s, NetKind::Power).unwrap();
        let err = residual::max_abs_error(&exact.voltages, &rb.voltages);
        assert!(err < 5e-4, "max error {err}");
    }

    #[test]
    fn parallel_sweeps_agree_with_direct() {
        let s = stack(0.05);
        let exact = DirectCholesky::new()
            .solve_stack(&s, NetKind::Power)
            .unwrap();
        let rb = Rb3d::with_parallelism(3)
            .solve_stack(&s, NetKind::Power)
            .unwrap();
        let err = residual::max_abs_error(&exact.voltages, &rb.voltages);
        assert!(err < 5e-4, "max error {err}");
    }

    /// §III-A: once pads are sparse (most pillar tops are free nodes), the
    /// barely-dominant TSV rows make the naive iteration shuttle error
    /// between pillar terminals, and sweeps explode as R_TSV shrinks.
    /// (With a pad above *every* pillar the effect inverts — strong TSVs
    /// then anchor the lower tiers — which is exactly why VP pins the TSV
    /// terminals instead of iterating through them.)
    #[test]
    fn strong_tsvs_slow_convergence_with_sparse_pads() {
        let sparse = |r_tsv: f64| {
            let mut sites = vec![];
            for y in (0..12).step_by(6) {
                for x in (0..12).step_by(6) {
                    sites.push((x, y));
                }
            }
            Stack3d::builder(12, 12, 3)
                .wire_resistance(1.0)
                .tsv_resistance(r_tsv)
                .pad_sites(sites)
                .load_profile(
                    voltprop_grid::LoadProfile::UniformRandom {
                        min: 1e-5,
                        max: 5e-4,
                    },
                    17,
                )
                .build()
                .unwrap()
        };
        let weak = Rb3d::default()
            .solve_stack(&sparse(1.0), NetKind::Power)
            .unwrap();
        let strong = Rb3d::default()
            .solve_stack(&sparse(0.01), NetKind::Power)
            .unwrap();
        assert!(
            strong.report.iterations > 2 * weak.report.iterations,
            "strong TSVs {} vs weak {}",
            strong.report.iterations,
            weak.report.iterations
        );
    }

    #[test]
    fn resistive_pads_supported() {
        let s = Stack3d::builder(6, 6, 2)
            .pad_resistance(0.2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let exact = DirectCholesky::new()
            .solve_stack(&s, NetKind::Power)
            .unwrap();
        let rb = Rb3d::default().solve_stack(&s, NetKind::Power).unwrap();
        let err = residual::max_abs_error(
            &exact.voltages[..s.num_nodes()],
            &rb.voltages[..s.num_nodes()],
        );
        assert!(err < 5e-4, "max error {err}");
    }

    #[test]
    fn ground_net_supported() {
        let s = stack(0.05);
        let exact = DirectCholesky::new()
            .solve_stack(&s, NetKind::Ground)
            .unwrap();
        let rb = Rb3d::default().solve_stack(&s, NetKind::Ground).unwrap();
        let err = residual::max_abs_error(&exact.voltages, &rb.voltages);
        assert!(err < 5e-4, "max error {err}");
    }

    #[test]
    fn budget_exhaustion_is_error() {
        let solver = Rb3d {
            max_iterations: 1,
            tolerance: 1e-14,
            ..Default::default()
        };
        assert!(matches!(
            solver.solve_stack(&stack(0.05), NetKind::Power),
            Err(SolverError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn prebuilt_engine_reuse_is_bitwise_identical() {
        // One engine serving many load patterns must reproduce the
        // one-shot path exactly (factors and sweep order are shared).
        let s = stack(0.05);
        let mut engine = Rb3dEngine::build(&s, 1).unwrap();
        let mut v = vec![0.0; engine.num_nodes()];
        for scale in [1.0, 0.5, 1.5] {
            let loads: Vec<f64> = s.loads().iter().map(|l| scale * l).collect();
            let mut scaled = s.clone();
            scaled.set_loads(loads.clone()).unwrap();
            let one_shot = Rb3d::default()
                .solve_stack(&scaled, NetKind::Power)
                .unwrap();
            let rep = engine
                .solve(&loads, NetKind::Power, 1.0, 1e-7, 200_000, &mut v)
                .unwrap();
            assert_eq!(one_shot.voltages, v, "scale {scale}");
            assert_eq!(one_shot.report.iterations, rep.iterations);
        }
    }

    #[test]
    fn short_source_error_names_its_length() {
        let s = stack(0.05);
        let mut engine = Rb3dEngine::build_companion(&s, 1, 1e11).unwrap();
        let nn = engine.num_nodes();
        let mut v = vec![s.vdd(); nn];
        let err = engine
            .solve_with_source(
                s.loads(),
                NetKind::Power,
                &vec![0.0; nn - 3],
                1.0,
                1e-8,
                10,
                &mut v,
            )
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
    fn companion_engine_matches_direct_companion_system() {
        // A companion-built engine with a per-node source must reproduce the
        // direct solve of the companion-stamped system G + alpha*diag(C).
        let s = Stack3d::builder(8, 8, 3)
            .tsv_resistance(0.05)
            .grid_capacitance(2e-12)
            .decap(0, 3, 3, 5e-11)
            .load_profile(
                voltprop_grid::LoadProfile::UniformRandom {
                    min: 1e-5,
                    max: 5e-4,
                },
                17,
            )
            .build()
            .unwrap();
        let alpha = 1.0 / 1e-11; // 1/h for backward Euler at h = 10 ps
        let nn = s.num_nodes();
        // Companion currents alpha*C*v_n from a made-up previous state.
        let source: Vec<f64> = (0..nn)
            .map(|i| alpha * s.capacitances().unwrap()[i] * (1.7 + 1e-3 * (i % 7) as f64))
            .collect();

        let sys = s.stamp_dynamic(NetKind::Power, alpha).unwrap();
        let mut rhs = sys.rhs().to_vec();
        for (r, sr) in rhs.iter_mut().zip(sys.restrict(&source)) {
            *r += sr;
        }
        let exact = sys.expand(&DirectCholesky::new().solve(sys.matrix(), &rhs).unwrap().x);

        let mut engine = Rb3dEngine::build_companion(&s, 1, alpha).unwrap();
        let mut v = vec![s.vdd(); nn];
        let rep = engine
            .solve_with_source(
                s.loads(),
                NetKind::Power,
                &source,
                1.0,
                1e-8,
                200_000,
                &mut v,
            )
            .unwrap();
        assert!(rep.converged);
        let err = residual::max_abs_error(&exact[..nn], &v);
        assert!(err < 5e-4, "max error {err}");

        // alpha = 0 degenerates to the static engine.
        let mut static_engine = Rb3dEngine::build_companion(&s, 1, 0.0).unwrap();
        let mut v0 = vec![0.0; nn];
        static_engine
            .solve(s.loads(), NetKind::Power, 1.0, 1e-7, 200_000, &mut v0)
            .unwrap();
        let plain = Rb3d::default().solve_stack(&s, NetKind::Power).unwrap();
        assert_eq!(plain.voltages, v0);
    }
}
