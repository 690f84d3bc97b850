//! Fused embedding gather + sum-pool over CSR lookups.
//!
//! The `EmbeddingBag` kernel shared by every embedding-table holder in the
//! workspace: `er-model`'s tables call in here so the only `unsafe` (the
//! SIMD-recompiled clones and the f16 decode, see [`crate::simd`]) lives in
//! this crate. The lookup is CSR-style: `offsets[i]` is the start of input
//! `i`'s index run in `indices`, the last run extends to `indices.len()`.
//!
//! [`gather_pool_body`] is the one gather body for every element kind and
//! every SIMD rung. It is generic over a [`Decode`]r that turns stored
//! lanes into f32 — identity for f32, `scale * q` for i8, a software or
//! hardware half-to-float conversion for f16 (see [`crate::quant`]) — and
//! the decoder is the only thing that differs between kinds and rungs.

use crate::Matrix;

/// Lanes per accumulator chunk: one 512-bit register of f32.
pub(crate) const LANES: usize = 16;

/// Chunks pooled in registers at once: 64 lanes, which is 4 zmm or 8 ymm
/// registers and covers the serving models' dim-32 and dim-64 rows in one
/// pass over the lookups.
const MAX_CHUNKS: usize = 4;

/// How a table's stored elements become f32 lanes.
///
/// An implementation that overrides [`Decode::lanes`] must decode each lane
/// exactly as [`Decode::lane`] does, so a pooled element has the same bits
/// whether it sits in a 16-lane chunk or in the row's tail.
pub(crate) trait Decode: Copy {
    /// The stored element type.
    type Elem: Copy;
    /// Per-row decode state: the row scale for i8, nothing otherwise.
    type Row: Copy;
    /// The decode state of table row `id`.
    fn row(self, id: usize) -> Self::Row;
    /// Decodes one element of a row.
    fn lane(self, row: Self::Row, x: Self::Elem) -> f32;
    /// Decodes one 16-lane chunk of a row.
    #[inline(always)]
    fn lanes(self, row: Self::Row, src: &[Self::Elem; LANES]) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        for (o, &x) in out.iter_mut().zip(src) {
            *o = self.lane(row, x);
        }
        out
    }
    /// Prefetches per-row state kept outside the row itself.
    #[inline(always)]
    fn prefetch_row_state(self, _id: usize) {}
}

/// The f32 decoder: stored lanes are already f32.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F32;

impl Decode for F32 {
    type Elem = f32;
    type Row = ();
    #[inline(always)]
    fn row(self, _id: usize) {}
    #[inline(always)]
    fn lane(self, (): (), x: f32) -> f32 {
        x
    }
}

/// Gathers rows of `data` (a `rows x out.cols()` row-major table) per the
/// CSR lookup and sum-pools them into `out` (one pooled row per input),
/// dispatched down the AVX-512 → AVX2 → scalar ladder (see
/// [`crate::simd`]) — the same Rust code recompiled for wider registers,
/// no FP reordering, so results are bit-identical to the portable build.
/// Per output element the additions happen in lookup order, starting from
/// the value already in `out`.
///
/// # Panics
///
/// Panics if `out.rows() != offsets.len()`, if `data` is not
/// `rows * out.cols()` long, if any offset run is out of bounds or
/// descending, or if any index is `>= rows`.
pub fn gather_pool_csr(
    data: &[f32],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) {
    crate::simd::gather_pool_csr_with(
        crate::SimdBackend::detect(),
        data,
        rows,
        indices,
        offsets,
        out,
    );
}

/// The portable gather body. [`crate::simd`] recompiles this exact code
/// per rung, which is why it must stay free of architecture-conditional
/// logic; the rung-specific part is the decoder `dec`.
///
/// For each input the pooled row is held in `[f32; LANES]` accumulators,
/// up to [`MAX_CHUNKS`] chunks per pass over the input's lookups: loaded
/// from `out` once, added to once per lookup in lookup order, stored back
/// once. Lanes past the last whole chunk are pooled element by element
/// straight in `out`. Either way each output element sees the same
/// unfused adds in the same order, so every decoder that decodes exactly
/// gives bit-identical results on every rung.
#[inline(always)]
pub(crate) fn gather_pool_body<D: Decode>(
    dec: D,
    data: &[D::Elem],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) {
    let g = Gather {
        dec,
        data,
        rows,
        dim: out.cols(),
        indices,
        // Past-cache tables hide the random-access row miss behind the
        // current row's work; cache-resident ones skip the hint, which
        // would be pure per-lookup overhead. Bits are unchanged either way
        // (see `crate::simd`).
        prefetch: std::mem::size_of_val(data) > crate::simd::PREFETCH_MIN_BYTES,
    };
    for input in 0..offsets.len() {
        let start = offsets[input] as usize;
        let end = offsets
            .get(input + 1)
            .map_or(indices.len(), |&o| o as usize);
        let (chunks, tail) = out.row_mut(input).as_chunks_mut::<LANES>();
        let mut col = 0;
        for group in chunks.chunks_mut(MAX_CHUNKS) {
            match group.len() {
                1 => g.pool_chunks::<1>(start, end, col, group),
                2 => g.pool_chunks::<2>(start, end, col, group),
                3 => g.pool_chunks::<3>(start, end, col, group),
                _ => g.pool_chunks::<MAX_CHUNKS>(start, end, col, group),
            }
            col += group.len() * LANES;
        }
        if !tail.is_empty() {
            g.pool_tail(start, end, col, tail);
        }
    }
}

const _: () = assert!(
    MAX_CHUNKS == 4,
    "gather_pool_body has one arm per chunk count up to MAX_CHUNKS"
);

/// One gather call's operands, shared by its passes.
struct Gather<'a, D: Decode> {
    dec: D,
    data: &'a [D::Elem],
    rows: u32,
    dim: usize,
    indices: &'a [u32],
    prefetch: bool,
}

impl<D: Decode> Gather<'_, D> {
    /// The table row of lookup `j`, after the range check, with the
    /// prefetch hint for the lanes `col..col + width` of the lookup
    /// [`crate::simd::PREFETCH_DISTANCE`] positions ahead.
    #[inline(always)]
    fn lookup(&self, j: usize, col: usize, width: usize) -> usize {
        let id = self.indices[j];
        assert!(
            id < self.rows,
            "embedding id {id} out of range ({})",
            self.rows
        );
        if self.prefetch {
            let last = self.indices.len() - 1;
            let ahead = self.indices[(j + crate::simd::PREFETCH_DISTANCE).min(last)] as usize;
            crate::simd::prefetch_row(self.data, ahead * self.dim + col, width);
            self.dec.prefetch_row_state(ahead);
        }
        id as usize
    }

    /// Pools lookups `start..end` into the `N` chunks `out` (lanes
    /// `col..col + N * LANES` of the row) through register accumulators.
    #[inline(always)]
    fn pool_chunks<const N: usize>(
        &self,
        start: usize,
        end: usize,
        col: usize,
        out: &mut [[f32; LANES]],
    ) {
        let mut acc = [[0.0f32; LANES]; N];
        for (a, o) in acc.iter_mut().zip(out.iter()) {
            *a = *o;
        }
        for j in start..end {
            let id = self.lookup(j, col, N * LANES);
            let base = id * self.dim + col;
            let (src, _) = self.data[base..base + N * LANES].as_chunks::<LANES>();
            let row = self.dec.row(id);
            for (a, s) in acc.iter_mut().zip(src) {
                let v = self.dec.lanes(row, s);
                for (x, y) in a.iter_mut().zip(v) {
                    *x += y;
                }
            }
        }
        for (o, a) in out.iter_mut().zip(&acc) {
            *o = *a;
        }
    }

    /// Pools lookups `start..end` into the row's tail `out` (lanes
    /// `col..dim`), one element at a time.
    #[inline(always)]
    fn pool_tail(&self, start: usize, end: usize, col: usize, out: &mut [f32]) {
        let width = out.len();
        for j in start..end {
            let id = self.lookup(j, col, width);
            let base = id * self.dim + col;
            let row = self.dec.row(id);
            for (o, &x) in out.iter_mut().zip(&self.data[base..base + width]) {
                *o += self.dec.lane(row, x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (Vec<f32>, u32) {
        // 4 rows x 2 dims: row i = [i, 10i].
        let data = vec![0.0, 0.0, 1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        (data, 4)
    }

    #[test]
    fn pools_each_csr_run_into_its_row() {
        let (data, rows) = table();
        let mut out = Matrix::zeros(2, 2);
        // Input 0 pools rows {1, 2}; input 1 pools row {3}.
        gather_pool_csr(&data, rows, &[1, 2, 3], &[0, 2], &mut out);
        assert_eq!(out.row(0), &[3.0, 30.0]);
        assert_eq!(out.row(1), &[3.0, 30.0]);
    }

    #[test]
    fn empty_runs_leave_zero_rows() {
        let (data, rows) = table();
        let mut out = Matrix::zeros(2, 2);
        gather_pool_csr(&data, rows, &[2], &[0, 0], &mut out);
        assert_eq!(out.row(0), &[0.0, 0.0]);
        assert_eq!(out.row(1), &[2.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_ids() {
        let (data, rows) = table();
        let mut out = Matrix::zeros(1, 2);
        gather_pool_csr(&data, rows, &[4], &[0], &mut out);
    }

    #[test]
    #[should_panic(expected = "one row per lookup input")]
    fn rejects_mismatched_output_rows() {
        let (data, rows) = table();
        let mut out = Matrix::zeros(3, 2);
        gather_pool_csr(&data, rows, &[0], &[0], &mut out);
    }

    #[test]
    #[should_panic(expected = "rows x dim")]
    fn rejects_misshapen_storage() {
        let mut out = Matrix::zeros(1, 3);
        gather_pool_csr(&[0.0; 8], 4, &[0], &[0], &mut out);
    }
}
