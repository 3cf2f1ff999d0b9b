use crate::ordering::Permutation;
use crate::vec_ops;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Within each row, column indices are strictly increasing. For the symmetric
/// matrices used throughout this workspace, the same storage can be read as
/// compressed sparse *column* format, which [`crate::Cholesky`] relies on.
///
/// # Example
///
/// ```
/// use voltprop_sparse::TripletMatrix;
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(0, 1, -1.0);
/// t.push(1, 0, -1.0);
/// t.push(1, 1, 2.0);
/// let a = t.to_csr();
///
/// let y = a.mul_vec(&[1.0, 1.0]);
/// assert_eq!(y, vec![1.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplet arrays, summing duplicate entries.
    ///
    /// # Panics
    ///
    /// Panics if the triplet arrays have different lengths or contain indices
    /// outside `nrows` × `ncols`.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: &[u32],
        cols: &[u32],
        vals: &[f64],
    ) -> Self {
        assert_eq!(rows.len(), cols.len(), "triplet array length mismatch");
        assert_eq!(rows.len(), vals.len(), "triplet array length mismatch");

        // Count entries per row.
        let mut counts = vec![0usize; nrows + 1];
        for &r in rows {
            assert!((r as usize) < nrows, "row index {r} out of bounds");
            counts[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let indptr_raw = counts.clone();

        // Scatter into row-grouped arrays.
        let mut next = indptr_raw.clone();
        let mut idx = vec![0u32; vals.len()];
        let mut val = vec![0f64; vals.len()];
        for k in 0..vals.len() {
            let r = rows[k] as usize;
            let c = cols[k];
            assert!((c as usize) < ncols, "col index {c} out of bounds");
            let p = next[r];
            idx[p] = c;
            val[p] = vals[k];
            next[r] += 1;
        }

        // Sort each row by column and merge duplicates.
        let mut indptr = vec![0usize; nrows + 1];
        let mut out_idx = Vec::with_capacity(vals.len());
        let mut out_val = Vec::with_capacity(vals.len());
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..nrows {
            let (lo, hi) = (indptr_raw[r], indptr_raw[r + 1]);
            scratch.clear();
            scratch.extend(idx[lo..hi].iter().copied().zip(val[lo..hi].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_idx.push(c);
                out_val.push(v);
                i = j;
            }
            indptr[r + 1] = out_idx.len();
        }
        // Duplicates merged: a stamped conductance matrix keeps about
        // five entries of every eight triplets, so give the rest back.
        out_idx.shrink_to_fit();
        out_val.shrink_to_fit();

        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices: out_idx,
            values: out_val,
        }
    }

    /// Builds a CSR matrix directly from its raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (wrong `indptr` length, column
    /// indices out of range or not strictly increasing within a row).
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length must be nrows + 1");
        assert_eq!(indices.len(), values.len());
        assert_eq!(*indptr.last().unwrap(), indices.len());
        for r in 0..nrows {
            assert!(indptr[r] <= indptr[r + 1], "indptr must be nondecreasing");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(
                    w[0] < w[1],
                    "columns must be strictly increasing in row {r}"
                );
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < ncols, "column index out of bounds");
            }
        }
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Creates an `n` × `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (the sparsity pattern is fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The column indices and values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// The value at `(r, c)`, or `0.0` if the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(p) => vals[p],
            Err(_) => 0.0,
        }
    }

    /// Dense matrix–vector product `y = A x`, writing into `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        for r in 0..self.nrows {
            let mut acc = 0.0;
            for p in self.indptr[r]..self.indptr[r + 1] {
                acc += self.values[p] * x[self.indices[p] as usize];
            }
            y[r] = acc;
        }
    }

    /// Allocating matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// The 2-norm of the residual `b - A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `b.len() != nrows`.
    pub fn residual(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.nrows, "b length must equal nrows");
        let mut y = self.mul_vec(x);
        for i in 0..y.len() {
            y[i] = b[i] - y[i];
        }
        vec_ops::norm2(&y)
    }

    /// The main diagonal as a dense vector (missing entries are `0.0`).
    pub fn diag(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// The transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut next = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        for r in 0..self.nrows {
            for p in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[p] as usize;
                let q = next[c];
                indices[q] = r as u32;
                values[q] = self.values[p];
                next[c] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            values,
        }
    }

    /// Whether the matrix equals its transpose within absolute tolerance
    /// `tol` on every entry.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            // Patterns differ; fall back to value comparison via `get`.
            for r in 0..self.nrows {
                let (cols, vals) = self.row(r);
                for (c, v) in cols.iter().zip(vals) {
                    if (v - t.get(r, *c as usize)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Whether every row is (weakly) diagonally dominant, and strictly so in
    /// at least one row. Returns the *minimum dominance ratio*
    /// `|a_ii| / Σ_{j≠i} |a_ij|` over all rows (∞ if a row has no
    /// off-diagonal entries).
    ///
    /// The paper's §III-A argument is that TSV stamps collapse this ratio
    /// toward 1, which slows Gauss–Seidel-family methods.
    pub fn diagonal_dominance(&self) -> f64 {
        let mut min_ratio = f64::INFINITY;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                if *c as usize == r {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            let ratio = if off == 0.0 {
                f64::INFINITY
            } else {
                diag / off
            };
            min_ratio = min_ratio.min(ratio);
        }
        min_ratio
    }

    /// Extracts the lower triangle (including the diagonal) as CSR.
    pub fn lower_triangle(&self) -> CsrMatrix {
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                if *c as usize <= r {
                    indices.push(*c);
                    values.push(*v);
                }
            }
            indptr[r + 1] = indices.len();
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Symmetric permutation `B = P A Pᵀ`, i.e.
    /// `B[p.new_of(i), p.new_of(j)] = A[i, j]`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or the permutation length differs
    /// from the matrix dimension.
    pub fn permute_sym(&self, p: &Permutation) -> CsrMatrix {
        assert_eq!(
            self.nrows, self.ncols,
            "permute_sym requires a square matrix"
        );
        assert_eq!(p.len(), self.nrows, "permutation length mismatch");
        let mut rows = Vec::with_capacity(self.nnz());
        let mut cols = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            let nr = p.new_of(r) as u32;
            for q in self.indptr[r]..self.indptr[r + 1] {
                rows.push(nr);
                cols.push(p.new_of(self.indices[q] as usize) as u32);
                vals.push(self.values[q]);
            }
        }
        CsrMatrix::from_triplets(self.nrows, self.ncols, &rows, &cols, &vals)
    }

    /// Converts to a dense row-major matrix (testing helper; avoid for large
    /// matrices).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                d[r][*c as usize] = *v;
            }
        }
        d
    }

    /// Estimated heap footprint of this matrix in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn laplacian_path(n: usize) -> CsrMatrix {
        // 1-D resistor chain Laplacian with unit conductances + 1.0 to ground
        // at node 0 (makes it SPD).
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - 1 {
            t.stamp_conductance(i, i + 1, 1.0);
        }
        t.stamp_to_ground(0, 1.0);
        t.to_csr()
    }

    #[test]
    fn from_triplets_sorts_and_merges() {
        let rows = [1u32, 0, 1, 0];
        let cols = [1u32, 1, 1, 0];
        let vals = [2.0, 3.0, 4.0, 5.0];
        let m = CsrMatrix::from_triplets(2, 2, &rows, &cols, &vals);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 6.0);
        // Strictly increasing columns per row.
        let (cols0, _) = m.row(0);
        assert_eq!(cols0, &[0, 1]);
    }

    #[test]
    fn identity_spmv_is_noop() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, -2.0, 3.0, 0.5];
        assert_eq!(i.mul_vec(&x), x.to_vec());
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = laplacian_path(5);
        let d = m.to_dense();
        let x = [1.0, 2.0, -1.0, 0.0, 3.0];
        let y = m.mul_vec(&x);
        for r in 0..5 {
            let want: f64 = (0..5).map(|c| d[r][c] * x[c]).sum();
            assert!((y[r] - want).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_involution() {
        let m = laplacian_path(6);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn symmetric_laplacian_detected() {
        let m = laplacian_path(5);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn asymmetric_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0);
        let m = t.to_csr();
        assert!(!m.is_symmetric(1e-12));
    }

    #[test]
    fn diag_extraction() {
        let m = laplacian_path(3);
        assert_eq!(m.diag(), vec![2.0, 2.0, 1.0]);
    }

    #[test]
    fn lower_triangle_keeps_diag() {
        let m = laplacian_path(4);
        let l = m.lower_triangle();
        for r in 0..4 {
            let (cols, _) = l.row(r);
            assert!(cols.iter().all(|&c| c as usize <= r));
            assert!(cols.contains(&(r as u32)));
        }
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let m = CsrMatrix::identity(3);
        let b = [1.0, 2.0, 3.0];
        assert_eq!(m.residual(&b, &b), 0.0);
    }

    #[test]
    fn permute_sym_preserves_values() {
        let m = laplacian_path(4);
        let p = Permutation::from_new_to_old(vec![3, 1, 0, 2]).unwrap();
        let b = m.permute_sym(&p);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(b.get(p.new_of(i), p.new_of(j)), m.get(i, j));
            }
        }
    }

    #[test]
    fn diagonal_dominance_of_path() {
        let m = laplacian_path(3);
        // Rows: [2,-1,·], [-1,2,-1], [·,-1,1] → ratios 2, 1, 1.
        assert!((m.diagonal_dominance() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn memory_bytes_positive() {
        let m = laplacian_path(3);
        assert!(m.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn spmv_wrong_len_panics() {
        let m = CsrMatrix::identity(3);
        let _ = m.mul_vec(&[1.0]);
    }

    #[test]
    fn from_raw_parts_roundtrip() {
        let m = laplacian_path(4);
        let m2 = CsrMatrix::from_raw_parts(
            m.nrows(),
            m.ncols(),
            m.indptr().to_vec(),
            m.indices().to_vec(),
            m.values().to_vec(),
        );
        assert_eq!(m, m2);
    }

    #[test]
    fn empty_rows_are_allowed() {
        let m = CsrMatrix::from_triplets(3, 3, &[2], &[2], &[7.0]);
        assert_eq!(m.row(0).0.len(), 0);
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.get(2, 2), 7.0);
    }
}
