//! Row-major dense matrix.

use serde::{Deserialize, Serialize};

use crate::ShapeError;

/// A row-major `rows x cols` matrix of `f32` values.
///
/// Activations, pooled embeddings and the naive [`Matrix::matmul`] oracle
/// use this layout. Layer weights are multiplied through
/// [`Matrix::matmul_packed_into`] against a [`PackedMatrix`], the
/// panel-major copy [`Matrix::packed`] builds once at construction.
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

    /// The panel-major copy of this matrix that
    /// [`Matrix::matmul_packed_into`] multiplies by: each 16-column panel
    /// becomes one contiguous `rows x 16` block, the last one zero-padded.
    /// Allocates; build it once, when a layer is constructed, never per
    /// query.
    pub fn packed(&self) -> PackedMatrix {
        let panel_len = self.rows * PANEL;
        let mut data = vec![0.0; self.cols.div_ceil(PANEL) * panel_len];
        for (p, panel) in data.chunks_exact_mut(panel_len).enumerate() {
            let jb = p * PANEL;
            let w = (self.cols - jb).min(PANEL);
            for (src, dst) in self
                .data
                .chunks_exact(self.cols)
                .zip(panel.chunks_exact_mut(PANEL))
            {
                dst[..w].copy_from_slice(&src[jb..jb + w]);
            }
        }
        PackedMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Matrix product `self * other` against a packed right operand,
    /// written into `out` (reshaped in place); once `out`'s capacity is
    /// warm the call performs no allocation.
    ///
    /// The kernel walks `k` in blocks of 256 so that one 256 x 16 slab of a
    /// packed panel (16 KiB) stays in L1 while every 6-row block of `self`
    /// uses it, and holds each 6-row x 16-column output tile in registers
    /// across the block. Leftover rows run a tile of exactly `rows % 6`
    /// rows, and the zero-padded last panel covers ragged widths. Per
    /// output element the additions happen in exactly the naive kernel's
    /// order (ascending `k`, one unfused multiply then add per step, the
    /// tile reloaded from `out` between `k` blocks), so for finite inputs
    /// the result is **bit-identical** to [`Matrix::matmul`] on every SIMD
    /// rung — the naive kernel stays as the test oracle.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != other.rows()`.
    pub fn matmul_packed_into(
        &self,
        other: &PackedMatrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::new(format!(
                "matmul shape mismatch: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        out.reshape_zeroed(self.rows, other.cols);
        crate::simd::matmul_packed(&self.data, other, &mut out.data);
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

/// A `k x n` matrix stored panel-major for [`Matrix::matmul_packed_into`]:
/// 16-column panels, each one contiguous `k x 16` block, the last one
/// zero-padded to full width. Built by [`Matrix::packed`].
///
/// The kernel streams each panel top to bottom, so every cache line it
/// loads carries 16 useful weights; in the row-major layout each `k` step
/// of a panel is a separate line `n * 4` bytes further on.
///
/// # Examples
///
/// ```
/// use er_tensor::Matrix;
///
/// let w = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
/// let packed = w.packed();
/// assert_eq!((packed.rows(), packed.cols()), (2, 3));
///
/// let x = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
/// let mut y = Matrix::zeros(1, 1);
/// x.matmul_packed_into(&packed, &mut y).unwrap();
/// assert_eq!(y, x.matmul(&w).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl PackedMatrix {
    /// Number of rows (the `k` of a product).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns, without the padding of the last panel.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Panel `p`: rows `0..k` of columns `16p..16p + 16`, row by row.
    fn panel(&self, p: usize) -> &[f32] {
        let len = self.rows * PANEL;
        &self.data[p * len..(p + 1) * len]
    }
}

/// Width of one packed panel: 16 f32 columns, one 512-bit vector or two
/// 256-bit ones per tile row.
const PANEL: usize = 16;

/// Row-block height of a tile: 6 A rows share every loaded B vector. At
/// one panel per tile that is the classic 6x16 register block (12
/// accumulator vectors + B + broadcast under AVX2's 16 ymm registers); at
/// two panels, 12 of AVX-512's 32 zmm registers.
const MR: usize = 6;

/// Depth of one `k` block: a 256 x 16 panel slab is 16 KiB, so it stays in
/// L1 while every row block of the batch reads it.
const KC: usize = 256;

/// One `k` block of a product: rows `kb..kb + kc` of the packed operand
/// and the matching columns of `a`.
struct KBlock<'a> {
    a: &'a [f32],
    b: &'a PackedMatrix,
    kb: usize,
    kc: usize,
}

/// Computes `out = a * b` for `a: m x k` (`m` implied by `out.len()`),
/// processing `NP` adjacent panels per tile: the AVX-512 rung runs 6x32
/// tiles, the others 6x16 (see [`crate::simd`]). [`crate::simd`]
/// recompiles this exact code per rung (no intrinsics — same FP op
/// sequence, wider registers), which is why it must stay
/// architecture-unconditional.
///
/// Per output element the additions happen in exactly the naive kernel's
/// order (ascending `k`), so the result is bit-identical to
/// [`Matrix::matmul`] for finite inputs, whatever the tile shape. (The
/// naive kernel skips zero `a` entries; this one multiplies them, which
/// changes nothing for finite operands: the accumulator can never be
/// `-0.0` — additions from a `+0.0` start can't produce it — and
/// `x + ±0.0 == x` otherwise. Only non-finite `b` values could diverge,
/// since `0.0 * inf` is NaN. The padded columns of the last panel are
/// computed and never stored.)
#[inline(always)]
pub(crate) fn matmul_packed_body<const NP: usize>(a: &[f32], b: &PackedMatrix, out: &mut [f32]) {
    let (k, n) = (b.rows, b.cols);
    let panels = n.div_ceil(PANEL);
    let mut kb = 0;
    while kb < k {
        let blk = KBlock {
            a,
            b,
            kb,
            kc: KC.min(k - kb),
        };
        let mut p = 0;
        while p + NP <= panels {
            row_blocks::<NP>(&blk, out, p);
            p += NP;
        }
        while p < panels {
            row_blocks::<1>(&blk, out, p);
            p += 1;
        }
        kb += blk.kc;
    }
}

/// Every row block of the batch against panels `p..p + NP` of one `k`
/// block: full `MR`-row tiles, then one tile of exactly the leftover rows.
#[inline(always)]
fn row_blocks<const NP: usize>(blk: &KBlock<'_>, out: &mut [f32], p: usize) {
    let m = out.len() / blk.b.cols;
    let mut i = 0;
    while i + MR <= m {
        tile::<MR, NP>(blk, out, i, p);
        i += MR;
    }
    match m - i {
        1 => tile::<1, NP>(blk, out, i, p),
        2 => tile::<2, NP>(blk, out, i, p),
        3 => tile::<3, NP>(blk, out, i, p),
        4 => tile::<4, NP>(blk, out, i, p),
        5 => tile::<5, NP>(blk, out, i, p),
        _ => {} // one arm per leftover count below MR
    }
}

const _: () = assert!(
    MR == 6,
    "row_blocks has one leftover arm per count below MR"
);

/// Rows `i..i + R` x panels `p..p + NP` for one `k` block: the tile
/// starts from zero in the first block and from `out` after it, and is
/// stored back without the padded columns.
#[inline(always)]
fn tile<const R: usize, const NP: usize>(blk: &KBlock<'_>, out: &mut [f32], i: usize, p: usize) {
    let (k, n) = (blk.b.rows, blk.b.cols);
    let widths: [usize; NP] = core::array::from_fn(|q| (n - (p + q) * PANEL).min(PANEL));
    let mut acc = [[[0.0f32; PANEL]; NP]; R];
    if blk.kb > 0 {
        for (r, row) in acc.iter_mut().enumerate() {
            for (q, lanes) in row.iter_mut().enumerate() {
                let o = (i + r) * n + (p + q) * PANEL;
                // Staged through a temporary: `acc` itself is only ever
                // written whole, which keeps it in registers.
                let mut t = [0.0; PANEL];
                t[..widths[q]].copy_from_slice(&out[o..o + widths[q]]);
                *lanes = t;
            }
        }
    }
    let arows: [&[f32]; R] = core::array::from_fn(|r| &blk.a[(i + r) * k + blk.kb..][..blk.kc]);
    let slabs: [&[[f32; PANEL]]; NP] = core::array::from_fn(|q| {
        blk.b.panel(p + q)[blk.kb * PANEL..][..blk.kc * PANEL]
            .as_chunks()
            .0
    });
    let acc = accumulate(acc, arows, slabs);
    for (r, row) in acc.iter().enumerate() {
        for (q, lanes) in row.iter().enumerate() {
            let o = (i + r) * n + (p + q) * PANEL;
            out[o..o + widths[q]].copy_from_slice(&lanes[..widths[q]]);
        }
    }
}

/// The inner loop: one `acc += a * b` per element per `k` step. Kept a
/// separate by-value function over slices re-cut to the slab length so
/// that, once inlined, every tile shape compiles to whole-vector
/// multiplies and adds with no bounds checks in the loop (inlined into
/// the tile directly, some leftover-row shapes fell back to scalar code).
#[inline(always)]
fn accumulate<const R: usize, const NP: usize>(
    mut acc: [[[f32; PANEL]; NP]; R],
    arows: [&[f32]; R],
    slabs: [&[[f32; PANEL]]; NP],
) -> [[[f32; PANEL]; NP]; R] {
    let kc = slabs[0].len();
    let arows: [&[f32]; R] = core::array::from_fn(|r| &arows[r][..kc]);
    // `kk` indexes R + NP buffers at once; an iterator form would need a
    // zip that breaks the const-size unroll.
    #[allow(clippy::needless_range_loop)]
    for kk in 0..kc {
        let bv: [&[f32; PANEL]; NP] = core::array::from_fn(|q| &slabs[q][kk]);
        for r in 0..R {
            let av = arows[r][kk];
            for q in 0..NP {
                for l in 0..PANEL {
                    acc[r][q][l] += av * bv[q][l];
                }
            }
        }
    }
    acc
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
    /// the naive kernel's zero-skip path.
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
        // Shapes chosen to hit every leftover-row count (m % 6), full and
        // zero-padded panels (n < 16, n % 16 != 0, odd and even panel
        // counts for the two-panel tile), k blocks with a partial last
        // block (k > 256, k % 256 != 0), the top MLP's n = 1 head and the
        // RM3 bottom layer; one stale `out` is reused as the shapes grow
        // and shrink.
        let mut out = Matrix::filled(3, 5, 7.0);
        for (m, k, n) in [
            (1, 1, 1),
            (2, 3, 5),
            (3, 13, 16),
            (4, 17, 31),
            (5, 64, 33),
            (6, 2, 100),
            (7, 50, 48),
            (8, 300, 17),
            (11, 513, 64),
            (13, 257, 1),
            (32, 128, 1),
            (32, 700, 70),
            (32, 2560, 512),
        ] {
            let a = scrambled(m, k, (m * 31 + k) as u64);
            let b = scrambled(k, n, (k * 17 + n) as u64);
            a.matmul_packed_into(&b.packed(), &mut out).unwrap();
            assert_eq!(out, a.matmul(&b).unwrap(), "{m}x{k} * {k}x{n}");
        }
    }

    #[test]
    fn matmul_into_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(1, 1);
        assert!(a.matmul_packed_into(&b.packed(), &mut out).is_err());
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
