//! Workload generation: per-node DC current loads.
//!
//! The paper attaches "an independent current source … to simulate a device
//! or a group of devices" to every non-TSV node (TSV sites have keep-out
//! zones). These profiles generate such load vectors deterministically from
//! a seed, and [`first_invalid`] is the one check every load vector entering
//! a stack, a batch or a transient step passes.

use crate::rng::SmallRng;

/// A recipe for per-node load currents.
///
/// Generated loads are always zero at TSV sites (keep-out zones, §III-B-2 of
/// the paper).
///
/// # Example
///
/// ```
/// use voltprop_grid::LoadProfile;
///
/// let mask = vec![false; 4]; // no TSVs on a 2x2 footprint
/// let loads = LoadProfile::UniformRandom { min: 1e-5, max: 1e-4 }
///     .generate(2, 2, 1, &mask, 7);
/// assert_eq!(loads.len(), 4);
/// assert!(loads.iter().all(|&a| (1e-5..=1e-4).contains(&a)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LoadProfile {
    /// The same current at every non-TSV node.
    Constant(f64),
    /// Independent uniform random draw per node, `min..=max` amperes.
    UniformRandom {
        /// Smallest load current (A).
        min: f64,
        /// Largest load current (A).
        max: f64,
    },
    /// A quiet background plus circular high-activity regions — models
    /// hotspot blocks (e.g. a core cluster) drawing heavy current.
    Hotspot {
        /// Background current for nodes outside every hotspot (A).
        background: f64,
        /// Current for nodes inside a hotspot (A).
        peak: f64,
        /// Hotspot centers `(tier, x, y)`.
        centers: Vec<(usize, usize, usize)>,
        /// Hotspot radius in nodes (Euclidean, within the tier).
        radius: f64,
    },
}

impl LoadProfile {
    /// Generates the flat tier-major load vector for a
    /// `width`×`height`×`tiers` stack, forcing zero at TSV sites given by
    /// `tsv_mask` (length `width*height`).
    ///
    /// # Panics
    ///
    /// Panics if `tsv_mask.len() != width * height`.
    pub fn generate(
        &self,
        width: usize,
        height: usize,
        tiers: usize,
        tsv_mask: &[bool],
        seed: u64,
    ) -> Vec<f64> {
        assert_eq!(tsv_mask.len(), width * height, "TSV mask length mismatch");
        let mut rng = SmallRng::new(seed);
        let mut loads = vec![0.0; width * height * tiers];
        for tier in 0..tiers {
            for y in 0..height {
                for x in 0..width {
                    if tsv_mask[y * width + x] {
                        continue;
                    }
                    let idx = (tier * height + y) * width + x;
                    loads[idx] = match self {
                        LoadProfile::Constant(a) => *a,
                        LoadProfile::UniformRandom { min, max } => {
                            if max > min {
                                rng.f64_in(*min, *max)
                            } else {
                                *min
                            }
                        }
                        LoadProfile::Hotspot {
                            background,
                            peak,
                            centers,
                            radius,
                        } => {
                            let hot = centers.iter().any(|&(ct, cx, cy)| {
                                ct == tier && {
                                    let dx = x as f64 - cx as f64;
                                    let dy = y as f64 - cy as f64;
                                    (dx * dx + dy * dy).sqrt() <= *radius
                                }
                            });
                            if hot {
                                *peak
                            } else {
                                *background
                            }
                        }
                    };
                }
            }
        }
        loads
    }
}

/// The index of the first entry of `loads` that is not a finite,
/// non-negative current (NaN, ±∞, or below zero; `-0.0` is accepted), or
/// `None` when every entry is one.
///
/// The common all-valid case costs one branch-free pass that vectorizes;
/// only a failing vector pays for the search of the first bad index.
pub fn first_invalid(loads: &[f64]) -> Option<usize> {
    let valid = |a: f64| (0.0..f64::INFINITY).contains(&a);
    if loads.iter().fold(true, |ok, &a| ok & valid(a)) {
        return None;
    }
    loads.iter().position(|&a| !valid(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_invalid_rejects_exactly_non_finite_or_negative() {
        let subnormal = f64::from_bits(1);
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        for good in [-0.0, 0.0, subnormal, f64::MIN_POSITIVE, 1e-4, f64::MAX] {
            assert_eq!(first_invalid(&[1e-4, good, 2e-4]), None, "{good:e}");
        }
        for bad in [
            -f64::MIN_POSITIVE,
            -subnormal,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            // The historical rule, `!a.is_finite() || a < 0.0`, rejects
            // the same set.
            assert!(!bad.is_finite() || bad < 0.0);
            assert_eq!(first_invalid(&[1e-4, 0.0, bad, 2e-4]), Some(2), "{bad:e}");
        }
        // The first bad index is named, however many follow it, and
        // vectors of any length (the vectorized pass has a tail) are
        // checked to the end.
        assert_eq!(first_invalid(&[1.0, -1.0, f64::NAN, -2.0]), Some(1));
        assert_eq!(first_invalid(&[]), None);
        for len in 1..40 {
            let mut v = vec![1e-3; len];
            assert_eq!(first_invalid(&v), None);
            v[len - 1] = f64::NAN;
            assert_eq!(first_invalid(&v), Some(len - 1));
        }
    }

    fn mask_with_tsv_at(width: usize, height: usize, sites: &[(usize, usize)]) -> Vec<bool> {
        let mut m = vec![false; width * height];
        for &(x, y) in sites {
            m[y * width + x] = true;
        }
        m
    }

    #[test]
    fn constant_profile_fills_non_tsv() {
        let mask = mask_with_tsv_at(2, 2, &[(0, 0)]);
        let l = LoadProfile::Constant(2e-3).generate(2, 2, 2, &mask, 0);
        assert_eq!(l.len(), 8);
        assert_eq!(l[0], 0.0); // TSV at (0,0) tier 0
        assert_eq!(l[4], 0.0); // TSV at (0,0) tier 1
        assert_eq!(l[1], 2e-3);
        assert_eq!(l[5], 2e-3);
    }

    #[test]
    fn uniform_random_is_seeded() {
        let mask = vec![false; 9];
        let a = LoadProfile::UniformRandom {
            min: 1e-6,
            max: 1e-3,
        }
        .generate(3, 3, 1, &mask, 5);
        let b = LoadProfile::UniformRandom {
            min: 1e-6,
            max: 1e-3,
        }
        .generate(3, 3, 1, &mask, 5);
        let c = LoadProfile::UniformRandom {
            min: 1e-6,
            max: 1e-3,
        }
        .generate(3, 3, 1, &mask, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&v| (1e-6..=1e-3).contains(&v)));
    }

    #[test]
    fn degenerate_random_range_collapses_to_min() {
        let mask = vec![false; 4];
        let l = LoadProfile::UniformRandom {
            min: 5e-4,
            max: 5e-4,
        }
        .generate(2, 2, 1, &mask, 1);
        assert!(l.iter().all(|&v| v == 5e-4));
    }

    #[test]
    fn hotspot_profile_elevates_disk() {
        let mask = vec![false; 25];
        let l = LoadProfile::Hotspot {
            background: 1e-5,
            peak: 1e-2,
            centers: vec![(0, 2, 2)],
            radius: 1.0,
        }
        .generate(5, 5, 1, &mask, 0);
        assert_eq!(l[2 * 5 + 2], 1e-2); // center
        assert_eq!(l[2 * 5 + 3], 1e-2); // distance 1
        assert_eq!(l[0], 1e-5); // far corner
    }

    #[test]
    #[allow(clippy::identity_op, clippy::erasing_op)] // spelled-out index arithmetic documents the layout
    fn hotspot_is_per_tier() {
        let mask = vec![false; 9];
        let l = LoadProfile::Hotspot {
            background: 0.0,
            peak: 1.0,
            centers: vec![(1, 1, 1)],
            radius: 0.0,
        }
        .generate(3, 3, 2, &mask, 0);
        assert_eq!(l[(0 * 3 + 1) * 3 + 1], 0.0); // tier 0 untouched
        assert_eq!(l[(1 * 3 + 1) * 3 + 1], 1.0); // tier 1 center hot
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn wrong_mask_length_panics() {
        LoadProfile::Constant(1.0).generate(2, 2, 1, &[false; 3], 0);
    }
}
