//! Row-major dense matrix.

use serde::{Deserialize, Serialize};

use crate::ShapeError;

/// A row-major `rows x cols` matrix of `f32` values.
///
/// Sized for DLRM workloads: batches of a few dozen rows against layers of a
/// few hundred columns, where a straightforward cache-friendly triple loop is
/// perfectly adequate.
///
/// # Examples
///
/// ```
/// use er_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix with every element set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols` or either
    /// dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "cannot shape buffer of length {} into {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `rows` is empty or rows have unequal widths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, ShapeError> {
        let first = rows
            .first()
            .ok_or_else(|| ShapeError::new("cannot build a matrix from zero rows"))?;
        let cols = first.len();
        if cols == 0 {
            return Err(ShapeError::new("rows must be non-empty"));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(ShapeError::new(format!(
                    "row {i} has width {} but row 0 has width {cols}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes this matrix to `rows x cols` with every element zeroed,
    /// reusing the existing buffer. Once the buffer's capacity covers the
    /// largest shape a caller cycles through, this never allocates — the
    /// basis of the zero-allocation forward workspace.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::new(format!(
                "matmul shape mismatch: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps both `other` and `out` accesses sequential.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Register-blocked matrix product `self * other`, written into `out`
    /// (reshaped and zeroed in place); once `out`'s capacity is warm the
    /// call performs no allocation.
    ///
    /// A 6-row x 16-column micro-kernel accumulates each output block in
    /// registers across the whole `k` extent (the naive kernel re-reads and
    /// re-writes the output row once per `k`) and reuses every loaded
    /// `other` panel across all six rows; on x86-64 with AVX2 the same code
    /// is dispatched to a 256-bit-vector compilation at runtime. Per output
    /// element the additions happen in exactly the naive kernel's order
    /// (ascending `k`), so for finite inputs the result is
    /// **bit-identical** to [`Matrix::matmul`] — the naive kernel stays as
    /// the test oracle.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != other.rows()`.
    pub fn matmul_blocked_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::new(format!(
                "matmul shape mismatch: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        out.reshape_zeroed(self.rows, other.cols);
        matmul_rows_blocked(
            &self.data,
            &other.data,
            &mut out.data,
            self.cols,
            other.cols,
        );
        Ok(())
    }

    /// Element-wise `self += other`, allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(format!(
                "add shape mismatch: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Adds a row vector to every row in place (broadcast), as in a layer
    /// bias.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `bias.len() != self.cols()`.
    pub fn add_row_broadcast_in_place(&mut self, bias: &[f32]) -> Result<(), ShapeError> {
        if bias.len() != self.cols {
            return Err(ShapeError::new(format!(
                "bias of length {} cannot broadcast over width {}",
                bias.len(),
                self.cols
            )));
        }
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *o += b;
            }
        }
        Ok(())
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if row counts differ.
    pub fn hconcat(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.rows != other.rows {
            return Err(ShapeError::new(format!(
                "hconcat row mismatch: {} vs {}",
                self.rows, other.rows
            )));
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Ok(Self {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Maximum absolute difference to another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Output-panel width of the blocked kernel: 16 f32 accumulators per row
/// live in registers across the whole `k` extent (two 256-bit vectors, or
/// four 128-bit ones).
const PANEL: usize = 16;

/// Row-block height of the micro-kernel: 6 A rows share every loaded B
/// panel, the classic 6x16 f32 register block (12 accumulator vectors + 2
/// B vectors + 1 broadcast under AVX2's 16 ymm registers).
const MR: usize = 6;

/// Computes `out = a * b` for `a: m_rows x k` (`m_rows` implied by slice
/// lengths), `b: k x n`, through the 6x16 register-blocked micro-kernel,
/// dispatched to an AVX2-compiled clone when the CPU supports it.
///
/// Per output element the additions happen in exactly the naive kernel's
/// order (ascending `k`), so the result is bit-identical to
/// [`Matrix::matmul`] for finite inputs. (The naive kernel skips zero `a`
/// entries; the micro-kernel multiplies them, which changes nothing for
/// finite operands: the accumulator can never be `-0.0` — additions from a
/// `+0.0` start can't produce it — and `x + ±0.0 == x` otherwise. Only
/// non-finite `b` values could diverge, since `0.0 * inf` is NaN.)
fn matmul_rows_blocked(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    debug_assert!(k == 0 || a.len().is_multiple_of(k));
    debug_assert!(n == 0 || out.len().is_multiple_of(n));
    debug_assert_eq!(b.len(), k * n);
    crate::simd::matmul_rows(a, b, out, k, n);
}

/// The portable micro-kernel body. [`crate::simd`] recompiles this exact
/// code with AVX2 enabled (no intrinsics — same FP op sequence, wider
/// registers), which is why it must stay architecture-unconditional.
#[inline(always)]
pub(crate) fn matmul_rows_body(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if n == 0 || k == 0 {
        return; // out is already the all-zeros product
    }
    let m = out.len() / n;
    let jp = n - n % PANEL;
    let mut i = 0;
    while i + MR <= m {
        let a_block = &a[i * k..(i + MR) * k];
        let o_block = &mut out[i * n..(i + MR) * n];
        let arows: [&[f32]; MR] = core::array::from_fn(|r| &a_block[r * k..(r + 1) * k]);
        let mut jb = 0;
        while jb < jp {
            micro_panel(arows, b, o_block, k, n, jb);
            jb += PANEL;
        }
        if jb < n {
            for (r, arow) in arows.into_iter().enumerate() {
                ragged_tail(arow, b, &mut o_block[r * n..(r + 1) * n], k, n, jb);
            }
        }
        i += MR;
    }
    // Leftover rows (m % MR) run the same panel kernel one row at a time.
    while i < m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut jb = 0;
        while jb < jp {
            micro_panel([arow], b, orow, k, n, jb);
            jb += PANEL;
        }
        if jb < n {
            ragged_tail(arow, b, orow, k, n, jb);
        }
        i += 1;
    }
}

/// Accumulates `R` output rows' `[jb, jb + PANEL)` columns in registers
/// across the whole `k` extent; each loaded B panel is reused by all `R`
/// rows. The naive kernel instead re-reads and re-writes the output row
/// once per `k`.
#[inline(always)]
fn micro_panel<const R: usize>(
    arows: [&[f32]; R],
    b: &[f32],
    out_rows: &mut [f32],
    k: usize,
    n: usize,
    jb: usize,
) {
    let mut acc = [[0.0f32; PANEL]; R];
    // `kk` strides two buffers at once (a columns, b rows); iterator form
    // would need a zip that breaks the const-R unroll.
    #[allow(clippy::needless_range_loop)]
    for kk in 0..k {
        let off = kk * n + jb;
        // lint::allow(no_panic): slice is exactly PANEL long; try_into cannot fail
        let bp: &[f32; PANEL] = b[off..off + PANEL].try_into().expect("PANEL-sized");
        for r in 0..R {
            let av = arows[r][kk];
            for p in 0..PANEL {
                acc[r][p] += av * bp[p];
            }
        }
    }
    for (r, row_acc) in acc.iter().enumerate() {
        out_rows[r * n + jb..r * n + jb + PANEL].copy_from_slice(row_acc);
    }
}

/// Scalar tail for the last `n % PANEL` columns, in the naive order.
#[inline(always)]
fn ragged_tail(arow: &[f32], b: &[f32], orow: &mut [f32], k: usize, n: usize, jb: usize) {
    for (kk, &av) in arow.iter().take(k).enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &b[kk * n + jb..kk * n + n];
        for (o, &bv) in orow[jb..].iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(0, 2, vec![]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(err.to_string().contains("width"));
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expect);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.25]]).unwrap();
        let c = a.matmul(&Matrix::identity(3)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn add_and_broadcast() {
        let mut a = Matrix::filled(2, 2, 1.0);
        a.add_assign(&Matrix::filled(2, 2, 2.0)).unwrap();
        assert_eq!(a, Matrix::filled(2, 2, 3.0));
        assert!(a.add_assign(&Matrix::zeros(2, 3)).is_err());
        a.add_row_broadcast_in_place(&[10.0, 20.0]).unwrap();
        assert_eq!(a.row(0), &[13.0, 23.0]);
        assert_eq!(a.row(1), &[13.0, 23.0]);
        assert!(a.add_row_broadcast_in_place(&[1.0]).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn hconcat_joins_columns() {
        let a = Matrix::filled(2, 1, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let c = a.hconcat(&b).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 2.0]);
        assert!(a.hconcat(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn max_abs_diff_measures_distance() {
        let a = Matrix::filled(1, 3, 1.0);
        let b = Matrix::from_rows(&[&[1.0, 1.5, 0.0]]).unwrap();
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(1, 1).get(1, 0);
    }

    /// Deterministic pseudo-random matrix with some exact zeros, to exercise
    /// the zero-skip path of every kernel.
    fn scrambled(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(11) {
                    0.0
                } else {
                    ((state >> 16) as i32 % 1000) as f32 / 257.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data).expect("sized by construction")
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // Shapes chosen to hit full panels, ragged tails, k-unroll
        // remainders, and degenerate 1-wide cases; one `out` is reused as
        // the shapes grow and shrink.
        let mut out = Matrix::zeros(1, 1);
        for (m, k, n) in [
            (1, 1, 1),
            (2, 3, 5),
            (7, 13, 16),
            (8, 17, 31),
            (33, 64, 33),
            (5, 2, 100),
            (16, 50, 48),
        ] {
            let a = scrambled(m, k, (m * 31 + k) as u64);
            let b = scrambled(k, n, (k * 17 + n) as u64);
            a.matmul_blocked_into(&b, &mut out).unwrap();
            assert_eq!(out, a.matmul(&b).unwrap(), "{m}x{k} * {k}x{n}");
        }
    }

    #[test]
    fn matmul_into_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(1, 1);
        assert!(a.matmul_blocked_into(&b, &mut out).is_err());
    }

    #[test]
    fn reshape_zeroed_reuses_capacity() {
        let mut m = Matrix::filled(10, 10, 7.0);
        m.reshape_zeroed(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        // Growing back within the original capacity stays zeroed too.
        m.reshape_zeroed(10, 10);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn reshape_zeroed_rejects_empty_shape() {
        Matrix::zeros(2, 2).reshape_zeroed(0, 3);
    }

    #[test]
    fn filled_constructs_directly() {
        let m = Matrix::filled(3, 4, 2.5);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 2.5));
    }
}
