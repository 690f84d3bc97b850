//! Embedding tables with gather and pooling — DLRM's sparse layer.

use er_tensor::quant::{dequantize_f16, dequantize_i8_rows, f16_to_f32};
use er_tensor::{quantize_f16_into, quantize_i8_rows_into, Aligned, Matrix};
use er_units::{Bytes, ElemKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::TableLookup;

/// The element storage behind one table: f32 reference, f16 halfs, or
/// per-row-scaled i8 codes. Private — every access goes through the
/// kind-dispatched methods so the f32 path stays byte-for-byte the code it
/// always was. Element buffers are cache-line-[`Aligned`] so a dim-64 i8
/// row is exactly one line and a dim-64 f32 row exactly four — random
/// gathers pay the row's byte size in line traffic, never a straddling
/// surcharge (the values, and hence all digests, are unchanged). Every
/// constructor writes its elements straight into the final aligned buffer.
#[derive(Debug, Clone, PartialEq)]
enum TableStorage {
    F32(Aligned<f32>),
    F16(Aligned<u16>),
    I8 {
        codes: Aligned<i8>,
        scales: Vec<f32>,
    },
}

/// A materialized embedding table: `rows` vectors of `dim` elements stored
/// at an [`ElemKind`] precision (f32 unless [`EmbeddingTable::quantized`]
/// was used; accumulation is always f32).
///
/// This is the functional implementation used for correctness (the
/// monolithic-vs-sharded equivalence tests) and small-scale serving; at the
/// paper's 20M-row scale only the *configuration* is carried around and
/// memory/latency are modeled analytically.
///
/// # Examples
///
/// ```
/// use er_model::{EmbeddingTable, TableLookup};
///
/// let table = EmbeddingTable::with_seed(100, 8, 7);
/// let lookup = TableLookup::new(vec![0, 5, 99], vec![0, 2]).unwrap();
/// let pooled = table.gather_pool(&lookup);
/// assert_eq!(pooled.shape(), (2, 8)); // two inputs, dim 8
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    rows: u32,
    dim: u32,
    storage: TableStorage,
}

impl EmbeddingTable {
    /// Creates an f32 table with small random values from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `dim` is zero.
    pub fn with_seed(rows: u32, dim: u32, seed: u64) -> Self {
        assert!(rows > 0 && dim > 0, "table dimensions must be non-zero");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Aligned::zeroed(rows as usize * dim as usize);
        for v in data.iter_mut() {
            *v = rng.gen_range(-0.1..0.1);
        }
        Self {
            rows,
            dim,
            storage: TableStorage::F32(data),
        }
    }

    /// Creates an f32 table from explicit per-row vectors.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or widths are ragged.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "table must have at least one row");
        let dim = rows[0].len();
        assert!(dim > 0, "rows must be non-empty");
        let mut data = Aligned::zeroed(rows.len() * dim);
        for (i, (dst, r)) in data.chunks_exact_mut(dim).zip(rows).enumerate() {
            assert_eq!(r.len(), dim, "row {i} has inconsistent width");
            dst.copy_from_slice(r);
        }
        Self {
            rows: rows.len() as u32,
            dim: dim as u32,
            storage: TableStorage::F32(data),
        }
    }

    /// Number of embedding vectors.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// The storage precision of this table.
    pub fn elem_kind(&self) -> ElemKind {
        match &self.storage {
            TableStorage::F32(_) => ElemKind::F32,
            TableStorage::F16(_) => ElemKind::F16,
            TableStorage::I8 { .. } => ElemKind::I8,
        }
    }

    /// Storage footprint, including the per-row f32 scales an i8 table
    /// carries — `rows x` [`ElemKind::row_bytes`], never a hardcoded
    /// element width.
    pub fn bytes(&self) -> Bytes {
        self.elem_kind().row_bytes(self.dim) * self.rows as f64
    }

    /// Returns this table re-stored at `kind` precision. Quantization is
    /// per-element for f16 and per-row symmetric (`scale = max_abs / 127`)
    /// for i8; `ElemKind::F32` returns a clone. See
    /// [`er_tensor::quant`] for the exact error bounds.
    ///
    /// # Panics
    ///
    /// Panics if this table is not f32 — requantizing already-lossy storage
    /// would silently compound error.
    pub fn quantized(&self, kind: ElemKind) -> EmbeddingTable {
        #[expect(
            clippy::panic,
            reason = "documented panic surface of quantized(): requantizing lossy storage would compound error"
        )]
        let TableStorage::F32(data) = &self.storage
        else {
            panic!(
                "quantized() requires f32 source storage, this table is {}",
                self.elem_kind()
            );
        };
        let storage = match kind {
            ElemKind::F32 => TableStorage::F32(data.clone()),
            ElemKind::F16 => {
                let mut halfs = Aligned::zeroed(data.len());
                quantize_f16_into(data, &mut halfs);
                TableStorage::F16(halfs)
            }
            ElemKind::I8 => {
                let mut codes = Aligned::zeroed(data.len());
                let mut scales = vec![0.0; self.rows as usize];
                quantize_i8_rows_into(data, self.dim as usize, &mut codes, &mut scales);
                TableStorage::I8 { codes, scales }
            }
        };
        EmbeddingTable {
            rows: self.rows,
            dim: self.dim,
            storage,
        }
    }

    /// Returns an f32 table holding this table's dequantized values — what
    /// the quantized gather kernels accumulate, materialized (test oracle
    /// and accuracy-report helper).
    pub fn dequantized(&self) -> EmbeddingTable {
        let data = match &self.storage {
            TableStorage::F32(_) => return self.clone(),
            TableStorage::F16(data) => dequantize_f16(data),
            TableStorage::I8 { codes, scales } => {
                dequantize_i8_rows(codes, scales, self.dim as usize)
            }
        };
        EmbeddingTable {
            rows: self.rows,
            dim: self.dim,
            storage: TableStorage::F32(Aligned::from_slice(&data)),
        }
    }

    /// The vector at row `id` (f32 storage only; quantized tables have no
    /// f32 slice to borrow — use [`EmbeddingTable::dequantized`]).
    ///
    /// # Panics
    ///
    /// Panics if `id >= rows()` or the table is quantized.
    pub fn vector(&self, id: u32) -> &[f32] {
        assert!(
            id < self.rows,
            "embedding id {id} out of range ({})",
            self.rows
        );
        #[expect(
            clippy::panic,
            reason = "documented panic surface of vector(): quantized rows have no exact f32 vector"
        )]
        let TableStorage::F32(data) = &self.storage
        else {
            panic!(
                "vector() requires f32 storage, this table is {}",
                self.elem_kind()
            );
        };
        let d = self.dim as usize;
        &data[id as usize * d..(id as usize + 1) * d]
    }

    /// Gathers and sum-pools the vectors requested by `lookup`, producing one
    /// pooled vector per input (the `EmbeddingBag` operation). For quantized
    /// tables each element is dequantized and accumulated in f32, in exactly
    /// the same order as the fused kernels — this stays the test oracle for
    /// every [`ElemKind`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_pool(&self, lookup: &TableLookup) -> Matrix {
        let n_inputs = lookup.num_inputs();
        let d = self.dim as usize;
        let mut out = Matrix::zeros(n_inputs, d);
        for input in 0..n_inputs {
            let row = out.row_mut(input);
            for &id in lookup.indices_for(input) {
                assert!(
                    id < self.rows,
                    "embedding id {id} out of range ({})",
                    self.rows
                );
                let base = id as usize * d;
                match &self.storage {
                    TableStorage::F32(data) => {
                        for (o, &v) in row.iter_mut().zip(&data[base..base + d]) {
                            *o += v;
                        }
                    }
                    TableStorage::F16(data) => {
                        for (o, &h) in row.iter_mut().zip(&data[base..base + d]) {
                            *o += f16_to_f32(h);
                        }
                    }
                    TableStorage::I8 { codes, scales } => {
                        let scale = scales[id as usize];
                        for (o, &q) in row.iter_mut().zip(&codes[base..base + d]) {
                            *o += scale * q as f32;
                        }
                    }
                }
            }
        }
        out
    }

    /// Fused gather+pool into a caller-owned matrix (reshaped in place)
    /// over raw CSR `(indices, offsets)` arrays: the same `EmbeddingBag`
    /// operation as [`EmbeddingTable::gather_pool`], pooled directly out of
    /// the table's flat storage by the `er_tensor` CSR kernels (one body
    /// that dispatches down the AVX-512 → AVX2 → scalar ladder, recompiling
    /// the same Rust code with no FP reordering; the wide rungs decode f16
    /// in hardware, exactly). Per output element the additions happen in
    /// exactly the reference order (lookup order), so results are
    /// **bit-identical** to
    /// `gather_pool` at every [`ElemKind`]. Takes raw slices instead of a
    /// [`TableLookup`] so callers holding bucketized per-shard arrays (see
    /// `er_partition::bucketize_into`) can gather without materializing a
    /// lookup; once `out`'s capacity is warm the call performs no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, any offset run is out of bounds or
    /// descending, or any index is out of range.
    pub fn gather_pool_into(&self, indices: &[u32], offsets: &[u32], out: &mut Matrix) {
        out.reshape_zeroed(offsets.len(), self.dim as usize);
        match &self.storage {
            TableStorage::F32(data) => {
                er_tensor::gather_pool_csr(data, self.rows, indices, offsets, out);
            }
            TableStorage::F16(data) => {
                er_tensor::gather_pool_csr_f16(data, self.rows, indices, offsets, out);
            }
            TableStorage::I8 { codes, scales } => {
                er_tensor::gather_pool_csr_i8(codes, scales, self.rows, indices, offsets, out);
            }
        }
    }

    /// Per-element absolute error bound of gathering at `kind` precision
    /// instead of f32, for the CSR lookup: the sum over each input's
    /// gathered rows of the analytic per-element quantization bound
    /// (`0.5001·scale` for i8, `2⁻¹¹·|v| + 2⁻²⁴` for f16; see
    /// [`er_tensor::quant`]), plus a small accumulation-rounding slack.
    /// Zero everywhere for `ElemKind::F32`. The proptests and the
    /// `--quant-parity` CI stage assert observed error ≤ this bound.
    ///
    /// # Panics
    ///
    /// Panics if this table is not f32 (bounds are derived from the exact
    /// values), or if any index is out of range.
    pub fn quant_error_bound(&self, kind: ElemKind, indices: &[u32], offsets: &[u32]) -> Matrix {
        #[expect(
            clippy::panic,
            reason = "documented panic surface of quant_error_bound(): bounds derive from exact f32 values"
        )]
        let TableStorage::F32(data) = &self.storage
        else {
            panic!("quant_error_bound() requires the f32 source table");
        };
        let d = self.dim as usize;
        let mut bound = Matrix::zeros(offsets.len(), d);
        let mut abs_sum = vec![0.0f32; d];
        for input in 0..offsets.len() {
            let start = offsets[input] as usize;
            let end = offsets
                .get(input + 1)
                .map_or(indices.len(), |&o| o as usize);
            let row = bound.row_mut(input);
            abs_sum.iter_mut().for_each(|a| *a = 0.0);
            let pooled = (end - start) as f32;
            for &id in &indices[start..end] {
                assert!(
                    id < self.rows,
                    "embedding id {id} out of range ({})",
                    self.rows
                );
                let vec = &data[id as usize * d..(id as usize + 1) * d];
                match kind {
                    ElemKind::F32 => {}
                    ElemKind::F16 => {
                        for ((b, a), &v) in row.iter_mut().zip(&mut abs_sum).zip(vec) {
                            *b += 2.0f32.powi(-11) * v.abs() + 2.0f32.powi(-24);
                            *a += v.abs();
                        }
                    }
                    ElemKind::I8 => {
                        let max_abs = vec.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                        let scale = max_abs / 127.0;
                        for ((b, a), &v) in row.iter_mut().zip(&mut abs_sum).zip(vec) {
                            *b += 0.5001 * scale;
                            *a += v.abs();
                        }
                    }
                }
            }
            if kind != ElemKind::F32 {
                // Accumulation slack: both sides sum `pooled` slightly
                // different f32 terms; each partial-sum rounding is within
                // eps of the running magnitude.
                for (b, a) in row.iter_mut().zip(&abs_sum) {
                    *b += 2.0 * pooled * f32::EPSILON * *a + 1e-7;
                }
            }
        }
        bound
    }

    /// Builds a table whose row `i` is this table's row `rows[i]`, written
    /// once, straight into the new table's storage, at this table's
    /// [`ElemKind`] (an i8 row's scale travels with it). Slicing and the
    /// Figure 8 hotness sort are both row selections, so a shard of the
    /// sorted table comes from the source table in one pass:
    /// `select_rows((start..end).map(|pos| perm.to_original(pos)))`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or names a row `>= rows()`.
    pub fn select_rows(&self, rows: impl ExactSizeIterator<Item = u32>) -> EmbeddingTable {
        let n = rows.len();
        assert!(n > 0, "a table needs at least one row");
        let d = self.dim as usize;
        let ids = rows.map(|id| {
            assert!(
                id < self.rows,
                "selected row {id} out of range ({})",
                self.rows
            );
            id as usize
        });
        let storage = match &self.storage {
            TableStorage::F32(data) => TableStorage::F32(copy_rows(data, d, n, ids)),
            TableStorage::F16(data) => TableStorage::F16(copy_rows(data, d, n, ids)),
            TableStorage::I8 { codes, scales } => {
                let mut out_scales = Vec::with_capacity(n);
                let ids = ids.inspect(|&id| out_scales.push(scales[id]));
                let codes = copy_rows(codes, d, n, ids);
                TableStorage::I8 {
                    codes,
                    scales: out_scales,
                }
            }
        };
        EmbeddingTable {
            rows: n as u32,
            dim: self.dim,
            storage,
        }
    }

    /// Extracts the sub-table covering rows `[start, end)` — how a
    /// partitioned embedding shard's storage is built. Works at every
    /// [`ElemKind`] (an i8 shard keeps its rows' scales).
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` or `end > rows()`.
    pub fn slice(&self, start: u32, end: u32) -> EmbeddingTable {
        assert!(
            start < end && end <= self.rows,
            "invalid slice [{start}, {end})"
        );
        self.select_rows(start..end)
    }

    /// Reorders rows by a permutation (`out[pos] = self[perm_to_original(pos)]`)
    /// — the physical layout change of the Figure 8 hotness sort. Works at
    /// every [`ElemKind`] (an i8 row's scale travels with it).
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the table's row count.
    pub fn permuted(&self, to_original: impl Fn(u32) -> u32, len: u32) -> EmbeddingTable {
        assert_eq!(len, self.rows, "permutation length must match table rows");
        self.select_rows((0..len).map(to_original))
    }
}

/// Copies `n` rows of the `d`-wide row-major `data`, row `ids[i]` into
/// row `i`, into a fresh aligned buffer.
fn copy_rows<T: Copy + Default>(
    data: &[T],
    d: usize,
    n: usize,
    ids: impl Iterator<Item = usize>,
) -> Aligned<T> {
    let mut out = Aligned::zeroed(n * d);
    for (dst, id) in out.chunks_exact_mut(d).zip(ids) {
        dst.copy_from_slice(&data[id * d..(id + 1) * d]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `gather_pool_into` on a fresh output.
    fn fused(t: &EmbeddingTable, lookup: &TableLookup) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        t.gather_pool_into(lookup.indices(), lookup.offsets(), &mut out);
        out
    }

    fn tiny() -> EmbeddingTable {
        EmbeddingTable::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, 2.0],
            vec![-1.0, 3.0],
        ])
    }

    #[test]
    fn construction_accessors() {
        let t = tiny();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.dim(), 2);
        assert_eq!(t.elem_kind(), ElemKind::F32);
        assert_eq!(t.bytes(), Bytes::of_u64(4 * 2 * 4));
        assert_eq!(t.vector(2), &[2.0, 2.0]);
    }

    #[test]
    fn bytes_track_elem_kind() {
        let t = EmbeddingTable::with_seed(10, 8, 3);
        assert_eq!(t.bytes(), Bytes::of_u64(10 * 8 * 4));
        assert_eq!(
            t.quantized(ElemKind::F16).bytes(),
            Bytes::of_u64(10 * 8 * 2)
        );
        // i8 rows carry one f32 scale each.
        assert_eq!(
            t.quantized(ElemKind::I8).bytes(),
            Bytes::of_u64(10 * (8 + 4))
        );
    }

    #[test]
    fn gather_pool_sums_requested_vectors() {
        let t = tiny();
        // Input 0 pools rows {0, 2}; input 1 pools row {3}.
        let lookup = TableLookup::new(vec![0, 2, 3], vec![0, 2]).unwrap();
        let out = t.gather_pool(&lookup);
        assert_eq!(out.row(0), &[3.0, 2.0]);
        assert_eq!(out.row(1), &[-1.0, 3.0]);
    }

    #[test]
    fn empty_pooling_bag_yields_zero_vector() {
        let t = tiny();
        // Input 0 gathers nothing, input 1 gathers row 1.
        let lookup = TableLookup::new(vec![1], vec![0, 0]).unwrap();
        let out = t.gather_pool(&lookup);
        assert_eq!(out.row(0), &[0.0, 0.0]);
        assert_eq!(out.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn slice_extracts_contiguous_rows() {
        let t = tiny();
        let s = t.slice(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.vector(0), &[0.0, 1.0]);
        assert_eq!(s.vector(1), &[2.0, 2.0]);
    }

    #[test]
    fn slices_cover_whole_table() {
        let t = EmbeddingTable::with_seed(10, 4, 1);
        let a = t.slice(0, 6);
        let b = t.slice(6, 10);
        for id in 0..6 {
            assert_eq!(a.vector(id), t.vector(id));
        }
        for id in 6..10 {
            assert_eq!(b.vector(id - 6), t.vector(id));
        }
    }

    #[test]
    fn permuted_moves_rows() {
        let t = tiny();
        // Reverse the table.
        let p = t.permuted(|pos| 3 - pos, 4);
        assert_eq!(p.vector(0), t.vector(3));
        assert_eq!(p.vector(3), t.vector(0));
    }

    #[test]
    fn seeded_tables_are_deterministic() {
        let a = EmbeddingTable::with_seed(50, 8, 99);
        let b = EmbeddingTable::with_seed(50, 8, 99);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gather_panics() {
        let t = tiny();
        let lookup = TableLookup::new(vec![4], vec![0]).unwrap();
        t.gather_pool(&lookup);
    }

    #[test]
    fn fused_gather_is_bit_identical_to_reference() {
        // Dims exercising the 4-wide unroll: below, at, and past multiples.
        for dim in [1u32, 3, 4, 5, 8, 11] {
            let t = EmbeddingTable::with_seed(50, dim, 21);
            let lookup =
                TableLookup::new(vec![0, 49, 7, 7, 23, 12, 3, 44, 44, 44], vec![0, 2, 2, 6])
                    .unwrap();
            assert_eq!(t.gather_pool(&lookup), fused(&t, &lookup), "dim {dim}");
        }
    }

    #[test]
    fn fused_gather_is_bit_identical_to_reference_when_quantized() {
        for kind in [ElemKind::F16, ElemKind::I8] {
            for dim in [1u32, 3, 8, 11] {
                let t = EmbeddingTable::with_seed(50, dim, 21).quantized(kind);
                let lookup =
                    TableLookup::new(vec![0, 49, 7, 7, 23, 12, 3, 44, 44, 44], vec![0, 2, 2, 6])
                        .unwrap();
                assert_eq!(
                    t.gather_pool(&lookup),
                    fused(&t, &lookup),
                    "{kind} dim {dim}"
                );
            }
        }
    }

    #[test]
    fn quantized_gather_stays_within_analytic_bound() {
        let lookup =
            TableLookup::new(vec![0, 49, 7, 7, 23, 12, 3, 44, 44, 44], vec![0, 2, 2, 6]).unwrap();
        for kind in [ElemKind::F16, ElemKind::I8] {
            let t = EmbeddingTable::with_seed(50, 16, 77);
            let reference = t.gather_pool(&lookup);
            let got = fused(&t.quantized(kind), &lookup);
            let bound = t.quant_error_bound(kind, lookup.indices(), lookup.offsets());
            for input in 0..reference.rows() {
                for j in 0..reference.cols() {
                    let err = (got.row(input)[j] - reference.row(input)[j]).abs();
                    assert!(
                        err <= bound.row(input)[j],
                        "{kind}: input {input} col {j}: err {err} > bound {}",
                        bound.row(input)[j]
                    );
                }
            }
        }
    }

    #[test]
    fn dequantized_matches_what_kernels_accumulate() {
        let t = EmbeddingTable::with_seed(20, 6, 5);
        for kind in [ElemKind::F32, ElemKind::F16, ElemKind::I8] {
            let q = t.quantized(kind);
            let deq = q.dequantized();
            assert_eq!(deq.elem_kind(), ElemKind::F32);
            let lookup = TableLookup::new(vec![0, 19, 4, 4], vec![0, 2]).unwrap();
            assert_eq!(q.gather_pool(&lookup), deq.gather_pool(&lookup), "{kind}");
        }
    }

    #[test]
    fn quantized_slice_and_permute_carry_scales() {
        let t = EmbeddingTable::with_seed(12, 4, 9).quantized(ElemKind::I8);
        let lookup = TableLookup::new(vec![0, 3], vec![0, 1]).unwrap();
        // Slicing rows [2, 8) then gathering {0, 3} == gathering {2, 5}.
        let s = t.slice(2, 8);
        let whole = TableLookup::new(vec![2, 5], vec![0, 1]).unwrap();
        assert_eq!(fused(&s, &lookup), fused(&t, &whole));
        // Reversing twice is the identity, scales included.
        let back = t.permuted(|p| 11 - p, 12).permuted(|p| 11 - p, 12);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "requires f32 storage")]
    fn vector_on_quantized_table_panics() {
        tiny().quantized(ElemKind::I8).vector(0);
    }

    #[test]
    #[should_panic(expected = "requires f32 source storage")]
    fn requantizing_panics() {
        let _ = tiny().quantized(ElemKind::F16).quantized(ElemKind::I8);
    }

    #[test]
    fn fused_gather_handles_empty_bags() {
        let t = tiny();
        let lookup = TableLookup::new(vec![1], vec![0, 0]).unwrap();
        assert_eq!(t.gather_pool(&lookup), fused(&t, &lookup));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fused_gather_rejects_bad_ids() {
        let t = tiny();
        let lookup = TableLookup::new(vec![4], vec![0]).unwrap();
        fused(&t, &lookup);
    }

    #[test]
    fn gather_into_matches_reference_with_dirty_reused_output() {
        let mut out = Matrix::filled(1, 1, 42.0);
        for dim in [1u32, 4, 11] {
            let t = EmbeddingTable::with_seed(50, dim, 21);
            let lookup =
                TableLookup::new(vec![0, 49, 7, 7, 23, 12, 3, 44, 44, 44], vec![0, 2, 2, 6])
                    .unwrap();
            t.gather_pool_into(lookup.indices(), lookup.offsets(), &mut out);
            assert_eq!(out, t.gather_pool(&lookup), "dim {dim}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_into_rejects_bad_ids() {
        tiny().gather_pool_into(&[4], &[0], &mut Matrix::zeros(1, 1));
    }

    #[test]
    #[should_panic(expected = "invalid slice")]
    fn bad_slice_panics() {
        tiny().slice(2, 2);
    }
}
