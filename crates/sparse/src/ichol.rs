use crate::{CsrMatrix, SparseError};

/// Zero-fill incomplete Cholesky factorization IC(0).
///
/// `L` shares the sparsity pattern of the lower triangle of `A`; the
/// approximate factorization `A ≈ L Lᵀ` serves as the default PCG
/// preconditioner in `voltprop-solvers`, standing in for the multigrid
/// preconditioner of the paper's comparator.
///
/// IC(0) can break down on matrices that are positive definite but not
/// H-matrices; the constructor retries with a progressively larger diagonal
/// shift `A + αD` (Manteuffel-style) and records the shift that succeeded.
///
/// # Example
///
/// ```
/// use voltprop_sparse::{TripletMatrix, IncompleteCholesky};
///
/// # fn main() -> Result<(), voltprop_sparse::SparseError> {
/// let mut t = TripletMatrix::new(2, 2);
/// t.stamp_conductance(0, 1, 1.0);
/// t.stamp_to_ground(0, 1.0);
/// t.stamp_to_ground(1, 1.0);
/// let a = t.to_csr();
/// let ic = IncompleteCholesky::new(&a)?;
/// let z = ic.solve(&[1.0, 1.0]);
/// assert_eq!(z.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    /// Lower triangle of A's pattern with factored values, CSR, diagonal last
    /// in each row.
    l: CsrMatrix,
    shift: f64,
}

impl IncompleteCholesky {
    /// Computes IC(0) of a symmetric positive definite matrix.
    ///
    /// # Errors
    ///
    /// * [`SparseError::DimensionMismatch`] if `a` is not square.
    /// * [`SparseError::Empty`] for a 0×0 matrix.
    /// * [`SparseError::NotPositiveDefinite`] if factorization breaks down
    ///   even after the maximum diagonal shift.
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        let n = a.nrows();
        if n == 0 {
            return Err(SparseError::Empty);
        }
        if a.nrows() != a.ncols() {
            return Err(SparseError::DimensionMismatch {
                expected: (n, n),
                got: a.shape(),
            });
        }
        let lower = a.lower_triangle();
        // Verify each row carries its structural diagonal (it is the last
        // entry because columns are sorted ascending).
        for i in 0..n {
            let (cols, _) = lower.row(i);
            match cols.last() {
                Some(&c) if c as usize == i => {}
                _ => return Err(SparseError::NotPositiveDefinite { column: i }),
            }
        }

        let max_diag = lower
            .diag()
            .iter()
            .fold(0.0f64, |m, d| m.max(d.abs()))
            .max(f64::MIN_POSITIVE);
        let mut shift = 0.0;
        for attempt in 0..9 {
            match Self::try_factor(&lower, shift) {
                Ok(l) => return Ok(IncompleteCholesky { l, shift }),
                Err(SparseError::NotPositiveDefinite { column }) => {
                    if attempt == 8 {
                        return Err(SparseError::NotPositiveDefinite { column });
                    }
                    shift = if shift == 0.0 {
                        1e-8 * max_diag
                    } else {
                        shift * 10.0
                    };
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the final attempt")
    }

    fn try_factor(lower: &CsrMatrix, shift: f64) -> Result<CsrMatrix, SparseError> {
        let n = lower.nrows();
        let mut l = lower.clone();
        // dpos[i]: index of the diagonal entry of row i in the value array.
        let dpos: Vec<usize> = (0..n).map(|i| l.indptr()[i + 1] - 1).collect();
        if shift != 0.0 {
            for i in 0..n {
                let p = dpos[i];
                l.values_mut()[p] += shift * l.values()[p].abs().max(1.0);
            }
        }
        for i in 0..n {
            let (row_lo, row_hi) = (l.indptr()[i], l.indptr()[i + 1]);
            for p in row_lo..row_hi - 1 {
                let k = l.indices()[p] as usize;
                // s = Σ_{j<k} L[i,j] · L[k,j] over the shared pattern.
                let s = sparse_row_dot(&l, i, k, row_lo, p);
                let dk = l.values()[dpos[k]];
                let v = (l.values()[p] - s) / dk;
                l.values_mut()[p] = v;
            }
            // Diagonal: sqrt(a_ii - Σ_{j<i} L[i,j]²).
            let mut d = l.values()[dpos[i]];
            for p in row_lo..row_hi - 1 {
                let v = l.values()[p];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(SparseError::NotPositiveDefinite { column: i });
            }
            l.values_mut()[dpos[i]] = d.sqrt();
        }
        Ok(l)
    }

    /// The diagonal shift α that was needed for the factorization to
    /// succeed (`0.0` in the common case).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Number of nonzeros stored in `L`.
    pub fn nnz(&self) -> usize {
        self.l.nnz()
    }

    /// Estimated heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.l.memory_bytes()
    }

    /// Applies the preconditioner: solves `L Lᵀ z = r`.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` differs from the matrix dimension.
    pub fn solve(&self, r: &[f64]) -> Vec<f64> {
        let mut z = r.to_vec();
        self.solve_in_place(&mut z);
        z
    }

    /// Applies the preconditioner out of place: solves `L Lᵀ z = r`
    /// without touching `r` and without allocating — the warm-path
    /// variant reusable solver engines call on their pinned scratch.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` or `z.len()` differ from the matrix dimension.
    pub fn solve_into(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), z.len(), "rhs/solution length mismatch");
        z.copy_from_slice(r);
        self.solve_in_place(z);
    }

    /// In-place variant of [`IncompleteCholesky::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` differs from the matrix dimension.
    pub fn solve_in_place(&self, z: &mut [f64]) {
        let n = self.l.nrows();
        assert_eq!(z.len(), n, "rhs length mismatch");
        let indptr = self.l.indptr();
        let indices = self.l.indices();
        let values = self.l.values();
        // Forward: L y = r. Row i of L holds all j ≤ i, diagonal last.
        for i in 0..n {
            let (lo, hi) = (indptr[i], indptr[i + 1]);
            let mut acc = z[i];
            for p in lo..hi - 1 {
                acc = (-values[p]).mul_add(z[indices[p] as usize], acc);
            }
            z[i] = acc / values[hi - 1];
        }
        // Backward: Lᵀ x = y (column sweep over rows of L).
        for i in (0..n).rev() {
            let (lo, hi) = (indptr[i], indptr[i + 1]);
            z[i] /= values[hi - 1];
            let zi = z[i];
            for p in lo..hi - 1 {
                let j = indices[p] as usize;
                z[j] = (-values[p]).mul_add(zi, z[j]);
            }
        }
    }
}

/// Sparse dot of `L[i, 0..k)` and `L[k, 0..k)` via two-pointer merge.
/// `row_lo` is the start of row `i`, `p_end` the position of entry `(i,k)`.
fn sparse_row_dot(l: &CsrMatrix, _i: usize, k: usize, row_lo: usize, p_end: usize) -> f64 {
    let indptr = l.indptr();
    let indices = l.indices();
    let values = l.values();
    let (mut pa, pa_end) = (row_lo, p_end);
    let (mut pb, pb_end) = (indptr[k], indptr[k + 1] - 1); // exclude k's diagonal
    let mut s = 0.0;
    while pa < pa_end && pb < pb_end {
        let (ca, cb) = (indices[pa], indices[pb]);
        match ca.cmp(&cb) {
            std::cmp::Ordering::Less => pa += 1,
            std::cmp::Ordering::Greater => pb += 1,
            std::cmp::Ordering::Equal => {
                s += values[pa] * values[pb];
                pa += 1;
                pb += 1;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cholesky, TripletMatrix};

    fn grid_spd(w: usize, h: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(w * h, w * h);
        let id = |x: usize, y: usize| y * w + x;
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    t.stamp_conductance(id(x, y), id(x + 1, y), 1.0);
                }
                if y + 1 < h {
                    t.stamp_conductance(id(x, y), id(x, y + 1), 1.0);
                }
            }
        }
        t.stamp_to_ground(0, 1.0);
        t.to_csr()
    }

    #[test]
    fn exact_on_tridiagonal_pattern() {
        // For a matrix whose Cholesky has no fill (path graph in natural
        // order), IC(0) is the exact factorization.
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..3 {
            t.stamp_conductance(i, i + 1, 1.0);
        }
        t.stamp_to_ground(0, 1.0);
        let a = t.to_csr();
        let ic = IncompleteCholesky::new(&a).unwrap();
        let exact = Cholesky::factor_with(&a, crate::cholesky::FillOrdering::Natural).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let z_ic = ic.solve(&b);
        let z_ex = exact.solve(&b);
        for (u, v) in z_ic.iter().zip(&z_ex) {
            assert!((u - v).abs() < 1e-12);
        }
        assert_eq!(ic.shift(), 0.0);
    }

    #[test]
    fn preconditioner_reduces_error_direction() {
        // M⁻¹ should approximate A⁻¹: applying it to A·x should land near x.
        let a = grid_spd(6, 6);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) / 11.0).collect();
        let b = a.mul_vec(&x);
        let ic = IncompleteCholesky::new(&a).unwrap();
        let z = ic.solve(&b);
        // Relative error well below applying no preconditioner at all
        // (z = b would have enormous error in A-norm direction).
        let err: f64 = x
            .iter()
            .zip(&z)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let xnorm: f64 = x.iter().map(|u| u * u).sum::<f64>().sqrt();
        assert!(
            err / xnorm < 0.9,
            "IC(0) should be a nontrivial approximation"
        );
    }

    #[test]
    fn missing_structural_diagonal_rejected() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 0.5);
        t.push(1, 0, 0.5); // no (1,1) entry
        let err = IncompleteCholesky::new(&t.to_csr()).unwrap_err();
        assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn non_square_rejected() {
        let m = CsrMatrix::from_triplets(2, 3, &[0], &[0], &[1.0]);
        assert!(matches!(
            IncompleteCholesky::new(&m).unwrap_err(),
            SparseError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn empty_rejected() {
        let m = CsrMatrix::from_triplets(0, 0, &[], &[], &[]);
        assert_eq!(IncompleteCholesky::new(&m).unwrap_err(), SparseError::Empty);
    }

    #[test]
    fn breakdown_recovered_by_shift() {
        // An SPD matrix engineered so plain IC(0) breaks down: strong
        // off-diagonals in a pattern with discarded fill. If no breakdown
        // occurs the shift stays zero — either way `new` must succeed.
        let mut t = TripletMatrix::new(4, 4);
        let g = 10.0;
        t.stamp_conductance(0, 1, g);
        t.stamp_conductance(0, 2, g);
        t.stamp_conductance(0, 3, g);
        t.stamp_conductance(1, 2, g);
        t.stamp_conductance(1, 3, g);
        t.stamp_conductance(2, 3, g);
        t.stamp_to_ground(0, 1e-6);
        let a = t.to_csr();
        let ic = IncompleteCholesky::new(&a).unwrap();
        let z = ic.solve(&[1.0; 4]);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nnz_matches_lower_triangle() {
        let a = grid_spd(5, 5);
        let ic = IncompleteCholesky::new(&a).unwrap();
        assert_eq!(ic.nnz(), a.lower_triangle().nnz());
        assert!(ic.memory_bytes() > 0);
    }
}
