//! Tridiagonal systems and the Thomas algorithm.
//!
//! The row-based power grid method of Zhong & Wong reduces each grid row to a
//! tridiagonal solve; the paper quotes its cost as `5N-4` multiplications and
//! `3(N-1)` additions per row, which is exactly the Thomas algorithm
//! implemented here.

use crate::SparseError;

/// Lane-block width of the batched substitution kernels: `f64` rows are
/// processed as `[f64; 8]` blocks of fused multiply-adds (one AVX-512
/// register, two NEON/AVX2 registers). Lanes are arithmetically
/// independent, so the block width is numerically invisible — the
/// remainder lanes run the identical scalar operation.
const ROW_BLOCK: usize = 8;

/// Reusable workspace for repeated tridiagonal solves of bounded size.
///
/// The row-based solver calls [`TridiagWorkspace::solve`] once per grid row
/// per sweep; keeping the scratch vectors alive avoids per-row allocation.
///
/// # Example
///
/// ```
/// use voltprop_sparse::tridiag::TridiagWorkspace;
///
/// # fn main() -> Result<(), voltprop_sparse::SparseError> {
/// // Solve [2 -1; -1 2] x = [1; 1]  →  x = [1; 1].
/// let mut ws = TridiagWorkspace::new(2);
/// let mut x = [0.0; 2];
/// ws.solve(&[-1.0], &[2.0, 2.0], &[-1.0], &[1.0, 1.0], &mut x)?;
/// assert!((x[0] - 1.0).abs() < 1e-15);
/// assert!((x[1] - 1.0).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TridiagWorkspace {
    cp: Vec<f64>,
    dp: Vec<f64>,
}

impl TridiagWorkspace {
    /// Creates a workspace able to solve systems up to `n` unknowns without
    /// reallocating.
    pub fn new(n: usize) -> Self {
        TridiagWorkspace {
            cp: Vec::with_capacity(n),
            dp: Vec::with_capacity(n),
        }
    }

    /// Solves the tridiagonal system
    ///
    /// ```text
    /// | b0 c0          | |x0|   |d0|
    /// | a0 b1 c1       | |x1|   |d1|
    /// |    a1 b2 ..    | |x2| = |..|
    /// |       .. .. cN-2|
    /// |         aN-2 bN-1|
    /// ```
    ///
    /// where `lower` has length `n-1` (sub-diagonal), `diag` length `n`,
    /// `upper` length `n-1` (super-diagonal), writing the solution into `x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::SingularPivot`] if forward elimination hits a
    /// zero pivot, and [`SparseError::Empty`] for `n == 0`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent.
    pub fn solve(
        &mut self,
        lower: &[f64],
        diag: &[f64],
        upper: &[f64],
        rhs: &[f64],
        x: &mut [f64],
    ) -> Result<(), SparseError> {
        let n = diag.len();
        if n == 0 {
            return Err(SparseError::Empty);
        }
        assert_eq!(lower.len(), n - 1, "lower diagonal must have n-1 entries");
        assert_eq!(upper.len(), n - 1, "upper diagonal must have n-1 entries");
        assert_eq!(rhs.len(), n, "rhs must have n entries");
        assert_eq!(x.len(), n, "x must have n entries");

        self.cp.clear();
        self.dp.clear();
        self.cp.resize(n, 0.0);
        self.dp.resize(n, 0.0);

        if diag[0] == 0.0 {
            return Err(SparseError::SingularPivot { row: 0 });
        }
        self.cp[0] = if n > 1 { upper[0] / diag[0] } else { 0.0 };
        self.dp[0] = rhs[0] / diag[0];
        for i in 1..n {
            let m = diag[i] - lower[i - 1] * self.cp[i - 1];
            if m == 0.0 {
                return Err(SparseError::SingularPivot { row: i });
            }
            self.cp[i] = if i < n - 1 { upper[i] / m } else { 0.0 };
            self.dp[i] = (rhs[i] - lower[i - 1] * self.dp[i - 1]) / m;
        }
        x[n - 1] = self.dp[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = self.dp[i] - self.cp[i] * x[i + 1];
        }
        Ok(())
    }
}

impl TridiagWorkspace {
    /// Estimated heap footprint in bytes (the two scratch vectors).
    pub fn memory_bytes(&self) -> usize {
        (self.cp.capacity() + self.dp.capacity()) * std::mem::size_of::<f64>()
    }
}

/// An arena of prefactored tridiagonal segments.
///
/// The row-based power grid solvers cut every grid row into segments
/// between pinned nodes and solve each segment thousands of times with the
/// *same* matrix — only the right-hand side changes between sweeps. This
/// arena runs the Thomas forward elimination **once per segment** at setup
/// and stores the normalized super-diagonal `c'` and reciprocal pivots
/// `1/m`, so every later solve is pure forward/backward substitution
/// (`3N` multiplies instead of `5N-4`) with zero allocation.
///
/// Because a solve only *reads* the factors, one arena can be shared by
/// any number of threads sweeping disjoint segments concurrently — the
/// red-black parallel schedule relies on this.
///
/// # Example
///
/// ```
/// use voltprop_sparse::tridiag::FactoredSegments;
///
/// # fn main() -> Result<(), voltprop_sparse::SparseError> {
/// let mut arena = FactoredSegments::new();
/// // Factor [2 -1; -1 2] once...
/// let seg = arena.push_segment(&[-1.0], &[2.0, 2.0], &[-1.0])?;
/// // ...then substitute repeatedly with streaming right-hand sides.
/// let mut scratch = [0.0; 2];
/// let mut x = [0.0; 2];
/// arena.solve_streamed(seg, 2, &mut scratch, |_| 1.0, |i, xi| x[i] = xi);
/// assert!((x[0] - 1.0).abs() < 1e-15 && (x[1] - 1.0).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FactoredSegments {
    /// Sub-diagonal coefficient entering each in-segment row (0 at starts).
    lower: Vec<f64>,
    /// Thomas normalized super-diagonal `c'` per in-segment position.
    cp: Vec<f64>,
    /// Reciprocal pivot `1/m` per in-segment position.
    inv_m: Vec<f64>,
    /// Longest factored segment, for sizing substitution scratch.
    max_len: usize,
}

impl FactoredSegments {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total factored coefficient slots across all segments.
    pub fn len(&self) -> usize {
        self.inv_m.len()
    }

    /// Whether no segment has been factored yet.
    pub fn is_empty(&self) -> bool {
        self.inv_m.is_empty()
    }

    /// Length of the longest factored segment (the minimum scratch size
    /// [`FactoredSegments::solve_streamed`] needs).
    pub fn max_segment_len(&self) -> usize {
        self.max_len
    }

    /// Releases the capacity the appends left beyond the factored
    /// coefficients (call once every segment is pushed).
    pub fn shrink_to_fit(&mut self) {
        self.lower.shrink_to_fit();
        self.cp.shrink_to_fit();
        self.inv_m.shrink_to_fit();
    }

    /// Drops all factored segments, keeping the allocations.
    pub fn clear(&mut self) {
        self.lower.clear();
        self.cp.clear();
        self.inv_m.clear();
        self.max_len = 0;
    }

    /// Factors one tridiagonal segment (`lower` sub-diagonal of length
    /// `n-1`, `diag` of length `n`, `upper` super-diagonal of length
    /// `n-1`), appending its coefficients to the arena. Returns the
    /// segment's offset for later [`FactoredSegments::solve_streamed`]
    /// calls.
    ///
    /// # Errors
    ///
    /// [`SparseError::Empty`] for `n == 0` and
    /// [`SparseError::SingularPivot`] if elimination hits a zero pivot (the
    /// arena is left unchanged in both cases).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent.
    pub fn push_segment(
        &mut self,
        lower: &[f64],
        diag: &[f64],
        upper: &[f64],
    ) -> Result<usize, SparseError> {
        let n = diag.len();
        if n == 0 {
            return Err(SparseError::Empty);
        }
        assert_eq!(lower.len(), n - 1, "lower diagonal must have n-1 entries");
        assert_eq!(upper.len(), n - 1, "upper diagonal must have n-1 entries");
        let offset = self.inv_m.len();
        let mut prev_cp = 0.0;
        for i in 0..n {
            let m = if i == 0 {
                diag[0]
            } else {
                diag[i] - lower[i - 1] * prev_cp
            };
            if m == 0.0 {
                self.lower.truncate(offset);
                self.cp.truncate(offset);
                self.inv_m.truncate(offset);
                return Err(SparseError::SingularPivot { row: i });
            }
            let c = if i + 1 < n { upper[i] / m } else { 0.0 };
            self.lower.push(if i == 0 { 0.0 } else { lower[i - 1] });
            self.cp.push(c);
            self.inv_m.push(1.0 / m);
            prev_cp = c;
        }
        self.max_len = self.max_len.max(n);
        Ok(offset)
    }

    /// Substitutes through the factors at `offset..offset + len` without
    /// touching the heap: `rhs(i)` produces the i-th right-hand side entry
    /// during the forward pass and `emit(i, x_i)` receives the i-th
    /// solution entry during the backward pass (so `emit` is called in
    /// reverse order). `scratch` holds the forward intermediates and must
    /// be at least `len` long.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` is shorter than `len` or the range exceeds the
    /// arena.
    #[inline]
    pub fn solve_streamed(
        &self,
        offset: usize,
        len: usize,
        scratch: &mut [f64],
        mut rhs: impl FnMut(usize) -> f64,
        mut emit: impl FnMut(usize, f64),
    ) {
        assert!(scratch.len() >= len, "scratch shorter than segment");
        assert!(offset + len <= self.inv_m.len(), "segment outside arena");
        let mut prev = 0.0;
        for i in 0..len {
            let dp = self.forward_step(offset + i, rhs(i), prev);
            scratch[i] = dp;
            prev = dp;
        }
        let mut next = 0.0;
        for i in (0..len).rev() {
            let xi = self.backward_step(offset + i, scratch[i], next);
            emit(i, xi);
            next = xi;
        }
    }

    /// One forward-elimination step at arena slot `k`: turns the
    /// right-hand side entry `b` and the previous intermediate `prev_dp`
    /// into this row's intermediate. Exposed so callers whose right-hand
    /// sides are produced *while reading* other state (the row sweeps read
    /// neighbouring rows) can fuse generation and substitution without a
    /// staging buffer.
    ///
    /// The elimination is written as a fused multiply-add,
    /// `fma(-lower, prev, b) * inv_m` — the *same* per-element operation
    /// the blocked [`FactoredSegments::forward_row`] kernel applies to
    /// every lane, so scalar and batched substitution stay bitwise
    /// identical.
    #[inline(always)]
    pub fn forward_step(&self, k: usize, b: f64, prev_dp: f64) -> f64 {
        (-self.lower[k]).mul_add(prev_dp, b) * self.inv_m[k]
    }

    /// One backward-substitution step at arena slot `k`: turns the stored
    /// intermediate `dp` and the next solution entry `next_x` into this
    /// row's solution entry. Fused like
    /// [`FactoredSegments::forward_step`], matching the blocked
    /// [`FactoredSegments::backward_row`] lane kernel bit for bit.
    #[inline(always)]
    pub fn backward_step(&self, k: usize, dp: f64, next_x: f64) -> f64 {
        (-self.cp[k]).mul_add(next_x, dp)
    }

    /// Batched [`FactoredSegments::forward_step`] over one *row* of
    /// right-hand sides: `row[j]` holds the right-hand side entry of lane
    /// `j` at arena slot `k` and is overwritten with that lane's forward
    /// intermediate; `prev` is the previous row's intermediates (`None`
    /// for the first row of a segment). The factor coefficients are loaded
    /// once and broadcast over the lanes; the lane loop runs as
    /// fixed-width `[f64; 8]` blocks of fused multiply-adds (the
    /// remainder lanes run the identical scalar operation), so the inner
    /// loop vectorizes while each lane still computes exactly the scalar
    /// [`FactoredSegments::forward_step`] sequence, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `prev` is present with a length different from `row`.
    #[inline]
    pub fn forward_row(&self, k: usize, row: &mut [f64], prev: Option<&[f64]>) {
        let inv_m = self.inv_m[k];
        match prev {
            Some(prev) => {
                assert_eq!(prev.len(), row.len(), "lane count mismatch");
                let neg_lower = -self.lower[k];
                // Narrow batches (k < one block) skip the block iterator
                // setup — per-row fixed cost that dominates at k = 1.
                // The remainder loop below is the identical operation.
                if row.len() < ROW_BLOCK {
                    for (b, &p) in row.iter_mut().zip(prev) {
                        *b = neg_lower.mul_add(p, *b) * inv_m;
                    }
                    return;
                }
                let mut rc = row.chunks_exact_mut(ROW_BLOCK);
                let mut pc = prev.chunks_exact(ROW_BLOCK);
                for (rb, pb) in rc.by_ref().zip(pc.by_ref()) {
                    let rb: &mut [f64; ROW_BLOCK] = rb.try_into().unwrap();
                    let pb: &[f64; ROW_BLOCK] = pb.try_into().unwrap();
                    for j in 0..ROW_BLOCK {
                        rb[j] = neg_lower.mul_add(pb[j], rb[j]) * inv_m;
                    }
                }
                for (b, &p) in rc.into_remainder().iter_mut().zip(pc.remainder()) {
                    *b = neg_lower.mul_add(p, *b) * inv_m;
                }
            }
            // First row: the stored `lower` is 0 and the previous
            // intermediate is 0, and `fma(-0.0, 0.0, b) = b` is exact,
            // so scaling by `inv_m` alone is the same arithmetic as the
            // scalar path.
            None => {
                for b in row.iter_mut() {
                    *b *= inv_m;
                }
            }
        }
    }

    /// Batched [`FactoredSegments::backward_step`] over one row: `row[j]`
    /// holds lane `j`'s forward intermediate at arena slot `k` and is
    /// overwritten with that lane's solution entry; `next` is the next
    /// (already substituted) row, `None` for the last row of a segment.
    /// Blocked and fused exactly like [`FactoredSegments::forward_row`].
    ///
    /// # Panics
    ///
    /// Panics if `next` is present with a length different from `row`.
    #[inline]
    pub fn backward_row(&self, k: usize, row: &mut [f64], next: Option<&[f64]>) {
        if let Some(next) = next {
            assert_eq!(next.len(), row.len(), "lane count mismatch");
            let neg_cp = -self.cp[k];
            // Same narrow-batch fast path as `forward_row`.
            if row.len() < ROW_BLOCK {
                for (dp, &nx) in row.iter_mut().zip(next) {
                    *dp = neg_cp.mul_add(nx, *dp);
                }
                return;
            }
            let mut rc = row.chunks_exact_mut(ROW_BLOCK);
            let mut nc = next.chunks_exact(ROW_BLOCK);
            for (rb, nb) in rc.by_ref().zip(nc.by_ref()) {
                let rb: &mut [f64; ROW_BLOCK] = rb.try_into().unwrap();
                let nb: &[f64; ROW_BLOCK] = nb.try_into().unwrap();
                for j in 0..ROW_BLOCK {
                    rb[j] = neg_cp.mul_add(nb[j], rb[j]);
                }
            }
            for (dp, &nx) in rc.into_remainder().iter_mut().zip(nc.remainder()) {
                *dp = neg_cp.mul_add(nx, *dp);
            }
        }
        // Last row: the stored `cp` is 0, so `fma(-0.0, x, dp) = dp`
        // exactly — nothing to do.
    }

    /// Substitutes `lanes` right-hand sides through the factors at
    /// `offset..offset + len` in place: on entry `buf` holds the
    /// right-hand sides, on exit the solutions.
    ///
    /// # Right-hand-side memory layout
    ///
    /// `buf` is **position-major, lane-minor**: entry `(i, j)` — in-segment
    /// position `i` of lane `j` — lives at `buf[i * lanes + j]`, so all
    /// lanes of one row are contiguous. Both substitution passes walk one
    /// row at a time with a blocked, vectorized inner loop over the lanes
    /// (see [`FactoredSegments::forward_row`]), loading each factor
    /// coefficient once per row instead of once per lane; lane `j`'s
    /// result is bitwise identical to a scalar
    /// [`FactoredSegments::solve_streamed`] call on its right-hand side,
    /// at any lane count.
    ///
    /// # Example
    ///
    /// ```
    /// use voltprop_sparse::tridiag::FactoredSegments;
    ///
    /// # fn main() -> Result<(), voltprop_sparse::SparseError> {
    /// let mut arena = FactoredSegments::new();
    /// let seg = arena.push_segment(&[-1.0], &[2.0, 2.0], &[-1.0])?;
    /// // Three lanes of [2 -1; -1 2] x = b: b = [1, 1] → x = [1, 1],
    /// // b = [3, 3] → x = [3, 3], and b = [3, 0] → x = [2, 1].
    /// let mut buf = [
    ///     1.0, 3.0, 3.0, // row 0, lanes 0..3
    ///     1.0, 3.0, 0.0, // row 1, lanes 0..3
    /// ];
    /// arena.solve_batch(seg, 2, 3, &mut buf);
    /// assert!((buf[0] - 1.0).abs() < 1e-15 && (buf[3] - 1.0).abs() < 1e-15);
    /// assert!((buf[1] - 3.0).abs() < 1e-15 && (buf[4] - 3.0).abs() < 1e-15);
    /// assert!((buf[2] - 2.0).abs() < 1e-15 && (buf[5] - 1.0).abs() < 1e-15);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, `buf.len() != len * lanes`, or the range
    /// exceeds the arena.
    pub fn solve_batch(&self, offset: usize, len: usize, lanes: usize, buf: &mut [f64]) {
        assert!(lanes > 0, "lane count must be positive");
        assert_eq!(
            buf.len(),
            len * lanes,
            "buffer must hold len * lanes entries"
        );
        assert!(offset + len <= self.inv_m.len(), "segment outside arena");
        for i in 0..len {
            let (done, rest) = buf.split_at_mut(i * lanes);
            let prev = if i == 0 {
                None
            } else {
                Some(&done[(i - 1) * lanes..])
            };
            self.forward_row(offset + i, &mut rest[..lanes], prev);
        }
        for i in (0..len).rev() {
            let (head, tail) = buf.split_at_mut((i + 1) * lanes);
            let next = if i + 1 == len {
                None
            } else {
                Some(&tail[..lanes])
            };
            self.backward_row(offset + i, &mut head[i * lanes..], next);
        }
    }

    /// Estimated heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.lower.capacity() + self.cp.capacity() + self.inv_m.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// One-shot convenience wrapper around [`TridiagWorkspace::solve`].
///
/// # Errors
///
/// See [`TridiagWorkspace::solve`].
pub fn solve_tridiag(
    lower: &[f64],
    diag: &[f64],
    upper: &[f64],
    rhs: &[f64],
) -> Result<Vec<f64>, SparseError> {
    let mut x = vec![0.0; diag.len()];
    TridiagWorkspace::new(diag.len()).solve(lower, diag, upper, rhs, &mut x)?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mul_tridiag(lower: &[f64], diag: &[f64], upper: &[f64], x: &[f64]) -> Vec<f64> {
        let n = diag.len();
        let mut y = vec![0.0; n];
        for i in 0..n {
            y[i] = diag[i] * x[i];
            if i > 0 {
                y[i] += lower[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                y[i] += upper[i] * x[i + 1];
            }
        }
        y
    }

    #[test]
    fn solves_1x1() {
        let x = solve_tridiag(&[], &[4.0], &[], &[8.0]).unwrap();
        assert_eq!(x, vec![2.0]);
    }

    #[test]
    fn solves_known_3x3() {
        // [2 -1 0; -1 2 -1; 0 -1 2] x = [1 0 1] → x = [1, 1, 1].
        let x = solve_tridiag(
            &[-1.0, -1.0],
            &[2.0, 2.0, 2.0],
            &[-1.0, -1.0],
            &[1.0, 0.0, 1.0],
        )
        .unwrap();
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn residual_small_for_random_system() {
        // Deterministic pseudo-random diagonally dominant system.
        let n = 50;
        let mut seed = 12345u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let lower: Vec<f64> = (0..n - 1).map(|_| rnd()).collect();
        let upper: Vec<f64> = (0..n - 1).map(|_| rnd()).collect();
        let diag: Vec<f64> = (0..n).map(|_| 3.0 + rnd()).collect();
        let rhs: Vec<f64> = (0..n).map(|_| rnd() * 10.0).collect();
        let x = solve_tridiag(&lower, &diag, &upper, &rhs).unwrap();
        let y = mul_tridiag(&lower, &diag, &upper, &x);
        for i in 0..n {
            assert!((y[i] - rhs[i]).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    fn empty_system_is_error() {
        assert_eq!(
            solve_tridiag(&[], &[], &[], &[]).unwrap_err(),
            SparseError::Empty
        );
    }

    #[test]
    fn singular_pivot_detected() {
        let err = solve_tridiag(&[1.0], &[0.0, 1.0], &[1.0], &[1.0, 1.0]).unwrap_err();
        assert_eq!(err, SparseError::SingularPivot { row: 0 });
    }

    #[test]
    fn workspace_reports_memory() {
        let mut ws = TridiagWorkspace::new(8);
        assert_eq!(ws.memory_bytes(), 2 * 8 * 8);
        let mut x = [0.0; 2];
        ws.solve(&[-1.0], &[2.0, 2.0], &[-1.0], &[1.0, 1.0], &mut x)
            .unwrap();
        assert!(ws.memory_bytes() >= 2 * 2 * 8);
    }

    #[test]
    fn factored_segments_match_one_shot_thomas() {
        let mut seed = 99u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut arena = FactoredSegments::new();
        let mut cases = Vec::new();
        for n in [1usize, 2, 3, 17, 40] {
            let lower: Vec<f64> = (0..n - 1).map(|_| rnd()).collect();
            let upper: Vec<f64> = (0..n - 1).map(|_| rnd()).collect();
            let diag: Vec<f64> = (0..n).map(|_| 3.0 + rnd()).collect();
            let rhs: Vec<f64> = (0..n).map(|_| rnd() * 10.0).collect();
            let offset = arena.push_segment(&lower, &diag, &upper).unwrap();
            cases.push((n, lower, diag, upper, rhs, offset));
        }
        assert_eq!(arena.max_segment_len(), 40);
        let mut scratch = vec![0.0; arena.max_segment_len()];
        // Solve in arbitrary order; factors are position-independent.
        for (n, lower, diag, upper, rhs, offset) in cases.iter().rev() {
            let want = solve_tridiag(lower, diag, upper, rhs).unwrap();
            let mut got = vec![0.0; *n];
            arena.solve_streamed(*offset, *n, &mut scratch, |i| rhs[i], |i, x| got[i] = x);
            for i in 0..*n {
                assert!((got[i] - want[i]).abs() < 1e-12, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn solve_batch_is_bitwise_identical_to_streamed_lanes() {
        let mut seed = 7u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut arena = FactoredSegments::new();
        for n in [1usize, 2, 5, 33] {
            let lower: Vec<f64> = (0..n - 1).map(|_| rnd()).collect();
            let upper: Vec<f64> = (0..n - 1).map(|_| rnd()).collect();
            let diag: Vec<f64> = (0..n).map(|_| 3.0 + rnd()).collect();
            let offset = arena.push_segment(&lower, &diag, &upper).unwrap();
            for lanes in [1usize, 3, 8] {
                // Lane-major RHS for the scalar reference, interleaved for
                // the batch call.
                let rhs: Vec<Vec<f64>> = (0..lanes)
                    .map(|_| (0..n).map(|_| rnd() * 10.0).collect())
                    .collect();
                let mut buf = vec![0.0; n * lanes];
                for i in 0..n {
                    for (j, r) in rhs.iter().enumerate() {
                        buf[i * lanes + j] = r[i];
                    }
                }
                arena.solve_batch(offset, n, lanes, &mut buf);
                let mut scratch = vec![0.0; n];
                for (j, r) in rhs.iter().enumerate() {
                    let mut want = vec![0.0; n];
                    arena.solve_streamed(offset, n, &mut scratch, |i| r[i], |i, x| want[i] = x);
                    for i in 0..n {
                        assert_eq!(
                            buf[i * lanes + j].to_bits(),
                            want[i].to_bits(),
                            "n={n} lanes={lanes} lane={j} row={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "len * lanes")]
    fn solve_batch_rejects_short_buffer() {
        let mut arena = FactoredSegments::new();
        let seg = arena.push_segment(&[-1.0], &[2.0, 2.0], &[-1.0]).unwrap();
        let mut buf = [0.0; 3];
        arena.solve_batch(seg, 2, 2, &mut buf);
    }

    #[test]
    fn factored_segments_reject_bad_input() {
        let mut arena = FactoredSegments::new();
        assert_eq!(
            arena.push_segment(&[], &[], &[]).unwrap_err(),
            SparseError::Empty
        );
        arena.push_segment(&[], &[2.0], &[]).unwrap();
        let before = arena.len();
        assert_eq!(
            arena.push_segment(&[1.0], &[0.0, 1.0], &[1.0]).unwrap_err(),
            SparseError::SingularPivot { row: 0 }
        );
        // A failed push must not leave partial coefficients behind.
        assert_eq!(arena.len(), before);
        assert!(arena.memory_bytes() > 0);
        arena.clear();
        assert!(arena.is_empty());
    }

    #[test]
    fn workspace_is_reusable() {
        let mut ws = TridiagWorkspace::new(3);
        let mut x = [0.0; 2];
        ws.solve(&[-1.0], &[2.0, 2.0], &[-1.0], &[1.0, 1.0], &mut x)
            .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-14);
        // Different size on the same workspace.
        let mut x3 = [0.0; 3];
        ws.solve(
            &[-1.0, -1.0],
            &[2.0, 2.0, 2.0],
            &[-1.0, -1.0],
            &[1.0, 0.0, 1.0],
            &mut x3,
        )
        .unwrap();
        assert!((x3[1] - 1.0).abs() < 1e-14);
    }
}
