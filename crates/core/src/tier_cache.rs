//! A row-based tier solver with cached tridiagonal factorizations.
//!
//! Inside the VP loop every tier is solved dozens of times with the *same*
//! matrix — only the right-hand side (neighbour rows, VDA-adjusted pinned
//! values) changes. [`CachedTier`] wraps the prefactored
//! [`TierEngine`](voltprop_solvers::TierEngine): every row segment is
//! factored once at construction (the Thomas `c'` and `1/m` coefficients
//! are constant) and each sweep performs only forward/backward
//! substitution — roughly `3N` multiplies per row instead of `5N-4` —
//! with zero heap allocation.
//!
//! The engine also carries the solver's `parallelism` knob: with more
//! than one thread the tier sweeps switch from the sequential
//! alternating-direction schedule to red-black row coloring, whose
//! same-color rows are solved concurrently (and deterministically in the
//! thread count) on the persistent process-wide
//! [`voltprop_solvers::WorkerPool`] — every tier's engine dispatches to
//! the same parked workers, so a multi-tier solve pays no per-solve
//! thread spawns. Batched tier solves compact to the unfrozen lanes (see
//! [`TierEngine::solve_batch_masked`]), so lanes the VP outer loop has
//! masked out cost nothing in later inner solves. All tiers share one
//! pin-mask allocation (`Arc<[bool]>`) — the VP algorithm pins the same
//! pillar sites on every tier.

use std::sync::Arc;
use voltprop_solvers::{LaneReport, SolveReport, SolverError, SweepSchedule, TierEngine};

/// Per-tier cached structure: prefactored row segments plus the sweep
/// schedule.
#[derive(Debug)]
pub(crate) struct CachedTier {
    engine: TierEngine,
}

impl CachedTier {
    /// Builds the cache for a tier with the given (shared) pin mask,
    /// inner-sweep thread count, and least row-band count: with
    /// `max(shards, parallelism) >= 2` the tier sweeps that many bands
    /// against halo-extended images (see [`TierEngine::new_sharded`]).
    ///
    /// # Errors
    ///
    /// See [`TierEngine::new`].
    pub(crate) fn new(
        width: usize,
        height: usize,
        g_h: f64,
        g_v: f64,
        fixed: Arc<[bool]>,
        parallelism: usize,
        shards: usize,
    ) -> Result<Self, SolverError> {
        Self::new_companion(width, height, g_h, g_v, fixed, None, parallelism, shards)
    }

    /// [`CachedTier::new`] with per-node grounded conductances added to
    /// the diagonal before factoring — the transient companion terms
    /// `α·C` (`extra_diag[site]`, siemens). The augmented tridiagonal
    /// factors are built once here and reused by every sweep, exactly
    /// like the static path; `None` (or all-zero) degenerates to
    /// [`CachedTier::new`].
    ///
    /// # Errors
    ///
    /// See [`TierEngine::new`].
    #[allow(clippy::too_many_arguments)] // mirrors the engine constructor
    pub(crate) fn new_companion(
        width: usize,
        height: usize,
        g_h: f64,
        g_v: f64,
        fixed: Arc<[bool]>,
        extra_diag: Option<&[f64]>,
        parallelism: usize,
        shards: usize,
    ) -> Result<Self, SolverError> {
        Ok(CachedTier {
            engine: TierEngine::new_sharded(
                width,
                height,
                g_h,
                g_v,
                fixed,
                extra_diag,
                SweepSchedule::from_parallelism(parallelism),
                shards,
            )?,
        })
    }

    /// Batched multi-right-hand-side solve: `lanes.len()` load vectors
    /// sweep together against the shared factors, node-major/lane-minor
    /// layout, each lane freezing independently at `tolerance`. `mask`
    /// marks lanes to leave untouched (the VP outer loop freezes whole
    /// lanes once they converge). See [`TierEngine::solve_batch_masked`].
    ///
    /// # Errors
    ///
    /// [`SolverError::Unsupported`] for malformed batch arrays; per-lane
    /// non-convergence is reported in `lanes`, not as an error.
    #[allow(clippy::too_many_arguments)] // mirrors the engine entry points
    pub(crate) fn solve_lanes(
        &mut self,
        injection: &[f64],
        v: &mut [f64],
        tolerance: f64,
        max_sweeps: usize,
        omega: f64,
        mask: Option<&[bool]>,
        lanes: &mut [LaneReport],
    ) -> Result<SolveReport, SolverError> {
        self.engine
            .solve_batch_masked(injection, v, tolerance, max_sweeps, omega, mask, lanes)
    }

    /// A new cache sharing this one's frozen factors with fresh per-solve
    /// scratch. See [`TierEngine::fork`].
    #[must_use]
    pub(crate) fn fork(&self) -> CachedTier {
        CachedTier {
            engine: self.engine.fork(),
        }
    }

    /// Estimated heap footprint in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltprop_solvers::rowbased::{RowBased, TierProblem};

    fn fixture(w: usize, h: usize, seed: u64) -> (Vec<bool>, Vec<f64>, Vec<f64>) {
        let n = w * h;
        let mut s = seed.wrapping_add(3);
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64)
        };
        let mut fixed = vec![false; n];
        let mut v = vec![1.8; n];
        for i in 0..n {
            if rnd() < 0.25 {
                fixed[i] = true;
                v[i] = 1.7 + 0.2 * rnd();
            }
        }
        fixed[0] = true;
        let injection: Vec<f64> = (0..n)
            .map(|i| if fixed[i] { 0.0 } else { -1e-4 * rnd() })
            .collect();
        (fixed, v, injection)
    }

    #[test]
    fn matches_generic_rowbased() {
        for seed in [1u64, 9, 42] {
            let (w, h) = (13, 9);
            let (fixed, v_init, injection) = fixture(w, h, seed);
            let g_h = 1.25;
            let g_v = 0.8;

            let mut v_cached = v_init.clone();
            let mut cached = CachedTier::new(w, h, g_h, g_v, Arc::from(&fixed[..]), 1, 1).unwrap();
            cached
                .engine
                .solve(&injection, &mut v_cached, 1e-10, 100_000)
                .unwrap();

            let mut v_ref = v_init.clone();
            let problem = TierProblem {
                width: w,
                height: h,
                g_h,
                g_v,
                fixed: &fixed,
                extra_diag: &vec![0.0; w * h],
                injection: &injection,
            };
            let rb = RowBased {
                tolerance: 1e-10,
                ..Default::default()
            };
            rb.solve_tier(&problem, &mut v_ref).unwrap();

            for i in 0..w * h {
                assert!(
                    (v_cached[i] - v_ref[i]).abs() < 1e-7,
                    "seed {seed} node {i}: cached {} vs generic {}",
                    v_cached[i],
                    v_ref[i]
                );
            }
        }
    }

    #[test]
    fn parallel_schedule_matches_sequential() {
        for seed in [2u64, 19] {
            let (w, h) = (16, 11);
            let (fixed, v_init, injection) = fixture(w, h, seed);
            let shared: Arc<[bool]> = Arc::from(&fixed[..]);
            let mut v_seq = v_init.clone();
            CachedTier::new(w, h, 2.0, 1.5, shared.clone(), 1, 1)
                .unwrap()
                .engine
                .solve(&injection, &mut v_seq, 1e-12, 100_000)
                .unwrap();
            let mut v_par = v_init.clone();
            CachedTier::new(w, h, 2.0, 1.5, shared, 4, 1)
                .unwrap()
                .engine
                .solve(&injection, &mut v_par, 1e-12, 100_000)
                .unwrap();
            for i in 0..w * h {
                assert!(
                    (v_seq[i] - v_par[i]).abs() < 1e-9,
                    "seed {seed} node {i}: seq {} vs par {}",
                    v_seq[i],
                    v_par[i]
                );
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_error() {
        let (w, h) = (16, 16);
        let mut fixed = vec![false; w * h];
        fixed[0] = true;
        let mut v = vec![0.0; w * h];
        v[0] = 1.8;
        let injection = vec![0.0; w * h];
        let mut cached = CachedTier::new(w, h, 1.0, 1.0, Arc::from(fixed), 1, 1).unwrap();
        assert!(matches!(
            cached.engine.solve(&injection, &mut v, 1e-15, 2),
            Err(SolverError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn reports_positive_memory() {
        let cached = CachedTier::new(5, 3, 1.0, 1.0, Arc::from(vec![false; 15]), 1, 1).unwrap();
        assert!(cached.memory_bytes() > 0);
    }
}
