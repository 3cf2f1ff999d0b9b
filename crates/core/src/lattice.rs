//! The pillar-lattice view used by the VDA to distribute mismatches.
//!
//! After one propagation pass, padded pillars report a *voltage* gap at
//! the package and pad-less pillars report the *current* they wrongly ask
//! of it. Both must go to zero. The paper closes the loop by
//! "distributing the resulting voltage difference" over the layers; this
//! module implements that distribution as a solve on the coarse lattice
//! whose nodes are the pillars themselves: pad corrections enter as
//! Dirichlet values, excess currents as injections, and the resulting
//! correction field is fed back into the layer-0 guesses.
//!
//! For uniform TSV patterns the pillars form a complete coarse grid, and
//! the distribution is a row-based solve on it. That solve is not tiny —
//! a Table-I C3 stack has a 289×289 lattice of 83,521 nodes — and it
//! runs on every outer iteration of every lane, while its matrix depends
//! only on the geometry. So [`PillarLattice::build`] factors it once into
//! a prefactored [`TierEngine`], and every correction is
//! substitution-only red-black sweeps (ω = 1.5, zero start, 1e-7 V
//! update tolerance) on the session's worker threads. Stacks with a pad
//! on every pillar need no coarse solve (every correction is a Dirichlet
//! value) and build no engine. Irregular patterns fall back to a
//! diagonally scaled correction, which converges more slowly but never
//! fails.

use std::sync::Arc;

use voltprop_grid::Stack3d;
use voltprop_solvers::{SolverError, SweepSchedule, TierEngine};

/// SOR factor of the coarse correction solve.
const COARSE_OMEGA: f64 = 1.5;
/// Largest per-sweep voltage update (V) at which the coarse solve stops.
const COARSE_TOLERANCE: f64 = 1e-7;
/// Sweep budget of one coarse solve; an exhausted budget leaves a
/// best-effort correction that the outer loop damps.
const COARSE_MAX_SWEEPS: usize = 100_000;

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one lattice per scratch; Grid carries the coarse engine
pub(crate) enum PillarLattice {
    /// Pillars form a complete `cw × ch` grid.
    Grid {
        /// Coarse pad mask (row-major over the `cw × ch` lattice).
        fixed: Arc<[bool]>,
        /// The prefactored coarse solve; `None` when every pillar has a
        /// pad.
        engine: Option<TierEngine>,
        /// Reusable coarse injection vector, sized by the first
        /// [`PillarLattice::correction`], so later ones stay
        /// allocation-free inside the solver's outer loop.
        injection: Vec<f64>,
    },
    /// Irregular pillar pattern: diagonal scaling only.
    Diagonal {
        is_pad: Vec<bool>,
        /// Local conductance scale per pillar.
        g_local: f64,
        /// Pessimistic sheet resistance from any pillar to the pads; a
        /// 2-D sheet's spreading resistance grows only logarithmically
        /// with extent, so `~1.5·ln(1+max extent)/Σc` bounds the voltage
        /// error a residual excess current can hide.
        r_bound: f64,
    },
}

impl PillarLattice {
    /// Builds the lattice for the stack's pillar `sites`, prefactoring
    /// the coarse solve (red-black on `parallelism` threads) when the
    /// sites form a complete grid with at least one pad-less pillar.
    ///
    /// # Errors
    ///
    /// See [`TierEngine::new`].
    pub(crate) fn build(
        stack: &Stack3d,
        sites: &[(u32, u32)],
        is_pad_site: &[bool],
        parallelism: usize,
    ) -> Result<Self, SolverError> {
        let g_local: f64 = (0..stack.tiers())
            .map(|t| 2.0 / stack.r_horizontal(t) + 2.0 / stack.r_vertical(t))
            .sum();
        // Complete-grid detection: distinct sorted coordinates whose cross
        // product is exactly the site set (always true for Uniform
        // patterns).
        let mut xs: Vec<u32> = sites.iter().map(|&(x, _)| x).collect();
        let mut ys: Vec<u32> = sites.iter().map(|&(_, y)| y).collect();
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        if xs.len() * ys.len() == sites.len() {
            // Sites are stored row-major, so site k maps to coarse cell
            // (k % cw, k / cw); verify once.
            let cw = xs.len();
            let consistent = sites
                .iter()
                .enumerate()
                .all(|(k, &(x, y))| xs[k % cw] == x && ys[k / cw] == y);
            if consistent {
                // Effective pillar-to-pillar conductances (all tiers).
                let c_x: f64 = (0..stack.tiers())
                    .map(|t| 1.0 / stack.r_horizontal(t))
                    .sum();
                let c_y: f64 = (0..stack.tiers()).map(|t| 1.0 / stack.r_vertical(t)).sum();
                let fixed: Arc<[bool]> = is_pad_site.into();
                let engine = if is_pad_site.iter().any(|&p| !p) {
                    Some(TierEngine::new(
                        cw,
                        ys.len(),
                        c_x,
                        c_y,
                        Arc::clone(&fixed),
                        None,
                        SweepSchedule::RedBlack {
                            threads: parallelism.max(1),
                        },
                    )?)
                } else {
                    None
                };
                return Ok(PillarLattice::Grid {
                    fixed,
                    engine,
                    injection: Vec::new(),
                });
            }
        }
        let c_total: f64 = (0..stack.tiers())
            .map(|t| 1.0 / stack.r_horizontal(t) + 1.0 / stack.r_vertical(t))
            .sum();
        let extent = stack.width().max(stack.height()) as f64;
        Ok(PillarLattice::Diagonal {
            is_pad: is_pad_site.to_vec(),
            g_local,
            r_bound: 1.5 * (1.0 + extent).ln() / c_total,
        })
    }

    /// A lattice sharing this one's coarse factors (see
    /// [`TierEngine::fork`]) with fresh solve scratch, sized by its first
    /// correction.
    #[must_use]
    pub(crate) fn fork(&self) -> PillarLattice {
        match self {
            PillarLattice::Grid { fixed, engine, .. } => PillarLattice::Grid {
                fixed: Arc::clone(fixed),
                engine: engine.as_ref().map(TierEngine::fork),
                injection: Vec::new(),
            },
            PillarLattice::Diagonal {
                is_pad,
                g_local,
                r_bound,
            } => PillarLattice::Diagonal {
                is_pad: is_pad.clone(),
                g_local: *g_local,
                r_bound: *r_bound,
            },
        }
    }

    /// Turns the raw mismatch vector (volts at pads, amperes elsewhere)
    /// into a per-pillar voltage correction, returning the worst
    /// correction magnitude (the outer convergence measure). Performs no
    /// heap allocation once the worker pool is warm (the coarse-solve
    /// scratch lives in the lattice).
    ///
    /// `out` must have the same length as `mismatch`.
    pub(crate) fn correction(&mut self, mismatch: &[f64], out: &mut [f64]) -> f64 {
        match self {
            PillarLattice::Grid {
                fixed,
                engine,
                injection,
            } => {
                debug_assert_eq!(mismatch.len(), fixed.len());
                if injection.len() != fixed.len() {
                    *injection = vec![0.0; fixed.len()];
                }
                // Dirichlet values at pads; interior driven by -excess.
                for k in 0..fixed.len() {
                    if fixed[k] {
                        out[k] = mismatch[k];
                        injection[k] = 0.0;
                    } else {
                        out[k] = 0.0;
                        injection[k] = -mismatch[k];
                    }
                }
                if let Some(engine) = engine {
                    // The coarse solve cannot fail structurally; treat a
                    // non-converged coarse solve as a best-effort
                    // correction (the outer loop damps it).
                    let _ = engine.solve_with_omega(
                        injection,
                        out,
                        COARSE_TOLERANCE,
                        COARSE_MAX_SWEEPS,
                        COARSE_OMEGA,
                    );
                }
                out.iter().fold(0.0f64, |m, v| m.max(v.abs()))
            }
            PillarLattice::Diagonal {
                is_pad,
                g_local,
                r_bound,
            } => {
                let mut worst = 0.0f64;
                for k in 0..mismatch.len() {
                    if is_pad[k] {
                        out[k] = mismatch[k];
                        worst = worst.max(out[k].abs());
                    } else {
                        out[k] = -mismatch[k] / *g_local;
                        // Convergence must be judged by the voltage error
                        // the excess current could still hide, not by the
                        // damped step size.
                        worst = worst.max((mismatch[k] * *r_bound).abs());
                    }
                }
                worst
            }
        }
    }

    /// Estimated heap footprint in bytes, the coarse factors included.
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            PillarLattice::Grid {
                fixed,
                engine,
                injection,
            } => {
                fixed.len()
                    + injection.len() * 8
                    + engine.as_ref().map_or(0, TierEngine::memory_bytes)
            }
            PillarLattice::Diagonal { is_pad, .. } => is_pad.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltprop_grid::{TableCircuit, TsvPattern};
    use voltprop_solvers::rowbased::{RowBased, TierProblem};

    fn stack(pattern: TsvPattern) -> Stack3d {
        Stack3d::builder(12, 12, 3)
            .tsv_pattern(pattern)
            .pad_lattice(4)
            .build()
            .unwrap()
    }

    fn pads_of(s: &Stack3d) -> Vec<bool> {
        s.tsv_sites()
            .iter()
            .map(|&(x, y)| s.is_pad(x as usize, y as usize))
            .collect()
    }

    fn build(s: &Stack3d, parallelism: usize) -> PillarLattice {
        PillarLattice::build(s, s.tsv_sites(), &pads_of(s), parallelism).unwrap()
    }

    #[test]
    fn uniform_pattern_builds_grid_lattice() {
        let s = stack(TsvPattern::Uniform { pitch: 2 });
        let lat = build(&s, 1);
        assert!(matches!(
            &lat,
            PillarLattice::Grid { fixed, engine: Some(_), .. } if fixed.len() == 36
        ));
    }

    #[test]
    fn random_pattern_falls_back_to_diagonal() {
        let s = Stack3d::builder(12, 12, 3)
            .tsv_pattern(TsvPattern::Random { count: 17, seed: 5 })
            .pad_sites(vec![])
            .build();
        // Random patterns rarely form complete grids; force pads on the
        // first pillar to keep the model valid.
        let s = match s {
            Ok(s) => s,
            Err(_) => {
                let base = Stack3d::builder(12, 12, 3)
                    .tsv_pattern(TsvPattern::Random { count: 17, seed: 5 })
                    .build()
                    .unwrap();
                let first = base.tsv_sites()[0];
                Stack3d::builder(12, 12, 3)
                    .tsv_pattern(TsvPattern::Random { count: 17, seed: 5 })
                    .pad_sites(vec![(first.0 as usize, first.1 as usize)])
                    .build()
                    .unwrap()
            }
        };
        let lat = build(&s, 1);
        assert!(matches!(lat, PillarLattice::Diagonal { .. }));
    }

    #[test]
    fn all_pad_mismatches_pass_through() {
        let s = Stack3d::builder(8, 8, 2).build().unwrap(); // pads everywhere
        let pads = pads_of(&s);
        assert!(pads.iter().all(|&p| p));
        let mut lat = build(&s, 1);
        // Nothing to solve on the coarse lattice: no engine is built.
        assert!(matches!(lat, PillarLattice::Grid { engine: None, .. }));
        let mismatch = vec![1e-3; pads.len()];
        let mut out = vec![0.0; pads.len()];
        let worst = lat.correction(&mismatch, &mut out);
        assert!((worst - 1e-3).abs() < 1e-15);
        assert!(out.iter().all(|&o| (o - 1e-3).abs() < 1e-15));
    }

    #[test]
    fn interior_excess_produces_negative_correction() {
        let s = stack(TsvPattern::Uniform { pitch: 2 });
        let pads = pads_of(&s);
        let mut lat = build(&s, 1);
        let n = pads.len();
        // One interior pillar asks 1 mA too much of the package.
        let mut mismatch = vec![0.0; n];
        let interior = pads.iter().position(|&p| !p).unwrap();
        mismatch[interior] = 1e-3;
        let mut out = vec![0.0; n];
        let worst = lat.correction(&mismatch, &mut out);
        assert!(out[interior] < 0.0, "guess must come down");
        assert!(worst > 0.0);
    }

    #[test]
    fn engine_correction_matches_rowbased_reference_on_c0_lattice() {
        // The C0 preset: 100×100×3, pillars at pitch 2 (a 50×50 coarse
        // lattice), pads on every fifth pillar row and column (one pillar
        // in 25).
        let s = TableCircuit::C0.build(3).unwrap();
        let pads = pads_of(&s);
        let n = pads.len();
        assert_eq!(n, 2500);
        assert!(pads.iter().any(|&p| p) && pads.iter().any(|&p| !p));
        // A first-pass-like mismatch: millivolt gaps at the pads, tenths
        // of a milliampere of excess at the pad-less pillars.
        let mismatch: Vec<f64> = (0..n)
            .map(|k| {
                let r = ((k * 7919) % 1000) as f64 / 1000.0;
                if pads[k] {
                    (r - 0.5) * 4e-3
                } else {
                    (0.2 + r) * 5e-4
                }
            })
            .collect();

        // The reference: the re-eliminating kernel at the same ω,
        // tolerance and zero start, in the paper's alternating order.
        let (c_x, c_y) = (0..s.tiers()).fold((0.0, 0.0), |(cx, cy), t| {
            (cx + 1.0 / s.r_horizontal(t), cy + 1.0 / s.r_vertical(t))
        });
        let mut want: Vec<f64> = (0..n)
            .map(|k| if pads[k] { mismatch[k] } else { 0.0 })
            .collect();
        let injection: Vec<f64> = (0..n)
            .map(|k| if pads[k] { 0.0 } else { -mismatch[k] })
            .collect();
        let zeros = vec![0.0; n];
        let problem = TierProblem {
            width: 50,
            height: 50,
            g_h: c_x,
            g_v: c_y,
            fixed: &pads,
            extra_diag: &zeros,
            injection: &injection,
        };
        RowBased {
            omega: COARSE_OMEGA,
            tolerance: COARSE_TOLERANCE,
            max_sweeps: COARSE_MAX_SWEEPS,
            alternate: true,
        }
        .solve_tier(&problem, &mut want)
        .unwrap();

        for parallelism in [1, 2] {
            let mut lat = build(&s, parallelism);
            let mut out = vec![0.0; n];
            let worst = lat.correction(&mismatch, &mut out);
            let dv = out
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(dv < 1e-6, "parallelism {parallelism}: {dv:e} V off");
            let want_worst = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!((worst - want_worst).abs() < 1e-6);
            assert!(
                lat.memory_bytes() > n * (1 + 8),
                "the coarse factors are counted"
            );
        }
    }
}
