//! The per-tier engine cache of a voltage-propagation solve.
//!
//! Inside the VP loop every tier is solved dozens of times with the *same*
//! matrix: only the right-hand side (neighbour rows, VDA-adjusted pinned
//! values) changes. [`tier_engines`] builds one prefactored
//! [`TierEngine`] per tier: every row segment is factored once and each
//! sweep performs only forward/backward substitution, with zero heap
//! allocation. The scratch keeps the engines for the session's lifetime;
//! the transient engine builds a companion set per step size. All tiers
//! share one pin mask (`Arc<[bool]>`): the VP algorithm pins the same
//! pillar sites on every tier, so tiers with bitwise-equal conductances
//! and diagonals have equal factors and share them.

use std::sync::Arc;
use voltprop_solvers::{SolverError, SweepSchedule, TierEngine};

/// Prefactors one engine per tier on the shared pin mask, sweeping on
/// the schedule `parallelism` maps to. `extra_diag` (flat tier-major)
/// adds the transient companion conductances `α·C` to the diagonal
/// before factoring. A tier whose `(g_h, g_v)` and diagonal are bitwise
/// equal to an earlier tier's is a [`TierEngine::fork`] of it: one
/// factorization, shared.
pub(crate) fn tier_engines(
    w: usize,
    h: usize,
    tier_g: &[(f64, f64)],
    fixed: &Arc<[bool]>,
    extra_diag: Option<&[f64]>,
    parallelism: usize,
) -> Result<Vec<TierEngine>, SolverError> {
    let per = w * h;
    let diag = |t: usize| extra_diag.map(|e| &e[t * per..(t + 1) * per]);
    let same_diag = |a: usize, b: usize| match (diag(a), diag(b)) {
        (Some(x), Some(y)) => x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
        _ => true,
    };
    let mut engines: Vec<TierEngine> = Vec::with_capacity(tier_g.len());
    for (t, &(g_h, g_v)) in tier_g.iter().enumerate() {
        let twin = (0..t).find(|&e| g_bits(tier_g[e]) == g_bits(tier_g[t]) && same_diag(e, t));
        engines.push(match twin {
            Some(e) => engines[e].fork(),
            None => TierEngine::new(
                w,
                h,
                g_h,
                g_v,
                Arc::clone(fixed),
                diag(t),
                SweepSchedule::from_parallelism(parallelism),
            )?,
        });
    }
    Ok(engines)
}

fn g_bits((g_h, g_v): (f64, f64)) -> (u64, u64) {
    (g_h.to_bits(), g_v.to_bits())
}

/// Whether tier `t` shares an earlier tier's factors in the static set
/// [`tier_engines`] builds from `tier_g` (no diagonal).
pub(crate) fn shares_earlier_tier(tier_g: &[(f64, f64)], t: usize) -> bool {
    tier_g[..t].iter().any(|&g| g_bits(g) == g_bits(tier_g[t]))
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

    /// One engine per tier, each with its own conductances and its own
    /// slice of the companion diagonal (zero on tier 0).
    #[test]
    fn matches_generic_rowbased() {
        let tier_g = [(1.25, 0.8), (0.6, 1.9)];
        for seed in [1u64, 9, 42] {
            let (w, h) = (13, 9);
            let n = w * h;
            let (fixed, v_init, injection) = fixture(w, h, seed);
            let mut alpha_c = vec![0.0; 2 * n];
            for (i, a) in alpha_c[n..].iter_mut().enumerate() {
                *a = 0.01 * (1 + i % 7) as f64;
            }
            let mut engines =
                tier_engines(w, h, &tier_g, &Arc::from(&fixed[..]), Some(&alpha_c), 1).unwrap();
            assert_eq!(engines.len(), tier_g.len());

            for (t, &(g_h, g_v)) in tier_g.iter().enumerate() {
                let mut v_cached = v_init.clone();
                engines[t]
                    .solve(&injection, &mut v_cached, 1e-10, 100_000)
                    .unwrap();

                let mut v_ref = v_init.clone();
                let problem = TierProblem {
                    width: w,
                    height: h,
                    g_h,
                    g_v,
                    fixed: &fixed,
                    extra_diag: &alpha_c[t * n..(t + 1) * n],
                    injection: &injection,
                };
                let rb = RowBased {
                    tolerance: 1e-10,
                    ..Default::default()
                };
                rb.solve_tier(&problem, &mut v_ref).unwrap();

                for i in 0..n {
                    assert!(
                        (v_cached[i] - v_ref[i]).abs() < 1e-7,
                        "seed {seed} tier {t} node {i}: cached {} vs generic {}",
                        v_cached[i],
                        v_ref[i]
                    );
                }
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
            tier_engines(w, h, &[(2.0, 1.5)], &shared, None, 1).unwrap()[0]
                .solve(&injection, &mut v_seq, 1e-12, 100_000)
                .unwrap();
            let mut v_par = v_init.clone();
            tier_engines(w, h, &[(2.0, 1.5)], &shared, None, 4).unwrap()[0]
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
        let mut engines = tier_engines(w, h, &[(1.0, 1.0)], &Arc::from(fixed), None, 1).unwrap();
        assert!(matches!(
            engines[0].solve(&injection, &mut v, 1e-15, 2),
            Err(SolverError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn equal_tiers_share_one_factorization() {
        let (w, h) = (12, 10);
        let (fixed, v_init, injection) = fixture(w, h, 5);
        let fixed: Arc<[bool]> = Arc::from(&fixed[..]);
        let tier_g = [(1.5, 0.7), (0.9, 1.1), (1.5, 0.7)];
        assert!(!shares_earlier_tier(&tier_g, 1));
        assert!(shares_earlier_tier(&tier_g, 2));
        let mut shared = tier_engines(w, h, &tier_g, &fixed, None, 2).unwrap();
        let mut alone = tier_engines(w, h, &tier_g[2..], &fixed, None, 2).unwrap();
        let (mut a, mut b) = (v_init.clone(), v_init.clone());
        shared[2].solve(&injection, &mut a, 1e-10, 100_000).unwrap();
        alone[0].solve(&injection, &mut b, 1e-10, 100_000).unwrap();
        assert_eq!(a, b, "a forked tier solves like a freshly factored one");
        // Different diagonals keep their own factors.
        let mut diag = vec![0.0; 3 * w * h];
        diag[2 * w * h..].fill(0.5);
        let mut own = tier_engines(w, h, &tier_g, &fixed, Some(&diag), 1).unwrap();
        let mut twin = tier_engines(w, h, &tier_g[..1], &fixed, Some(&diag[..w * h]), 1).unwrap();
        let (mut c, mut d) = (v_init.clone(), v_init);
        own[2].solve(&injection, &mut c, 1e-10, 100_000).unwrap();
        twin[0].solve(&injection, &mut d, 1e-10, 100_000).unwrap();
        assert_ne!(c, d, "tier 2's diagonal differs from tier 0's");
    }

    #[test]
    fn reports_positive_memory() {
        let engines =
            tier_engines(5, 3, &[(1.0, 1.0)], &Arc::from(vec![false; 15]), None, 1).unwrap();
        assert!(engines[0].memory_bytes() > 0);
    }
}
