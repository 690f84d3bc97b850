//! Quantized embedding storage kernels: f16 and i8 gather + sum-pool.
//!
//! Embedding gathers are memory-bandwidth-bound (paper Fig 9), so halving
//! or quartering the stored element width multiplies the rows a node can
//! serve per second. This module holds the storage-side conversions and the
//! f16 and i8 lane decoders of the one gather body,
//! `gather_pool_body` in `gather.rs`:
//!
//! - **f16**: IEEE-754 half precision, round-to-nearest-even, converted at
//!   the bit level (no external crate). Per element the quantization error
//!   is ≤ `2^-11 · |v|` for normal halfs plus `2^-24` once subnormals are
//!   in range. The AVX2 and AVX-512 rungs decode with the hardware
//!   `vcvtph2ps` instead (see [`crate::simd`]); [`f16_to_f32`] gives the
//!   same bits on all 65,536 patterns.
//! - **i8**: per-row symmetric quantization under an f32 scale
//!   (`scale = max_abs / 127`, `q = round(v / scale)`), dequantized as
//!   `scale * q`. Per element the error is ≤ `0.5001 · scale` (the `1e-4`
//!   relative slack absorbs the f32 rounding of `scale * q`).
//!
//! Accumulation is always f32, in exactly the reference order (lookup
//! order), so quantized kernels are bit-identical *across SIMD backends*
//! (see [`crate::simd`]) even though they are only bounded-error-close to
//! the f32 reference.
//!
//! The decoders here are blessed by er-lint's `float_reduction` rule
//! (see `er-lint.toml` `blessed_kernels`): dequantization loops anywhere
//! else in serving code are a lint error.

use crate::gather::Decode;
use crate::Matrix;

/// Converts an f32 to IEEE-754 half precision (round-to-nearest-even).
///
/// Overflow saturates to ±inf; NaN maps to a quiet NaN. This is the
/// reference encoder and the scalar rung of [`quantize_f16_into`]; the
/// wide rungs match it bit for bit on all 2^32 inputs.
pub fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf or NaN: keep the class, quiet the payload.
        return sign | 0x7c00 | if man != 0 { 0x0200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7c00; // overflow -> inf
    }
    if unbiased >= -14 {
        // Normal half: drop 13 mantissa bits with round-to-nearest-even.
        let shift = 13u32;
        let halfway = 1u32 << (shift - 1);
        let mut h_man = man >> shift;
        let rem = man & ((1 << shift) - 1);
        if rem > halfway || (rem == halfway && (h_man & 1) == 1) {
            h_man += 1;
        }
        // Mantissa carry bumps the exponent via plain addition; a bump out
        // of the top normal bin is exactly rounding to infinity.
        let h = (((unbiased + 15) as u32) << 10) + h_man;
        return sign | (h.min(0x7c00) as u16);
    }
    if unbiased < -25 {
        return sign; // below half the smallest subnormal -> ±0
    }
    // Subnormal half: shift the hidden-bit mantissa down to 2^-24 units.
    let man_hidden = man | 0x0080_0000;
    let shift = (13 + (-14 - unbiased)) as u32;
    let halfway = 1u32 << (shift - 1);
    let mut h_man = man_hidden >> shift;
    let rem = man_hidden & ((1 << shift) - 1);
    if rem > halfway || (rem == halfway && (h_man & 1) == 1) {
        h_man += 1; // may round up into the normal range: still correct bits
    }
    sign | h_man as u16
}

/// Converts an IEEE-754 half back to f32. Exact for every finite half
/// (subnormals included): the exponent re-bias is a multiply by 2^112,
/// which is exact in f32. NaNs keep their sign and payload and come out
/// quiet, as from the hardware `vcvtph2ps`, so this matches the
/// instruction bit for bit on every input.
#[inline(always)]
pub fn f16_to_f32(h: u16) -> f32 {
    if (h & 0x7c00) == 0x7c00 {
        // Inf/NaN (never stored by embedding quantization, but preserved).
        let sign = ((h & 0x8000) as u32) << 16;
        let man = ((h & 0x03ff) as u32) << 13;
        let quiet = if man != 0 { 0x0040_0000 } else { 0 };
        return f32::from_bits(sign | 0x7f80_0000 | quiet | man);
    }
    // Place the half's exponent+mantissa in the f32 fields, then fix the
    // bias gap (127 - 15 = 112) with one exact power-of-two multiply; f32
    // subnormal renormalization makes this exact for half subnormals too.
    let sign = ((h & 0x8000) as u32) << 16;
    let expman = ((h & 0x7fff) as u32) << 13;
    f32::from_bits(sign | expman) * f32::from_bits(0x7780_0000)
}

/// Quantizes a flat f32 buffer to f16 storage (see [`quantize_f16_into`]).
pub fn quantize_f16(data: &[f32]) -> Vec<u16> {
    let mut out = vec![0; data.len()];
    quantize_f16_into(data, &mut out);
    out
}

/// Encodes `src` into `dst` as [`f16_from_f32`] would element by element,
/// dispatched down the AVX-512 → AVX2 → scalar ladder: the wide rungs
/// convert in hardware (see [`crate::simd::quantize_f16_with`]).
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub fn quantize_f16_into(src: &[f32], dst: &mut [u16]) {
    crate::simd::quantize_f16_with(crate::SimdBackend::detect(), src, dst);
}

/// Dequantizes f16 storage back to f32 (test/report helper).
pub fn dequantize_f16(data: &[u16]) -> Vec<f32> {
    data.iter().map(|&h| f16_to_f32(h)).collect()
}

/// Per-row symmetric i8 quantization of a `rows x dim` row-major buffer
/// (see [`quantize_i8_rows_into`]).
///
/// Returns `(codes, scales)` with `scales.len() == rows`.
///
/// # Panics
///
/// Panics if `dim` is zero or `data.len()` is not a multiple of `dim`.
pub fn quantize_i8_rows(data: &[f32], dim: usize) -> (Vec<i8>, Vec<f32>) {
    assert!(dim > 0, "dim must be non-zero");
    let mut codes = vec![0; data.len()];
    let mut scales = vec![0.0; data.len() / dim];
    quantize_i8_rows_into(data, dim, &mut codes, &mut scales);
    (codes, scales)
}

/// Per-row symmetric i8 quantization of a `rows x dim` row-major buffer
/// into caller-owned storage: for each row, `scale = max_abs / 127` and
/// `q = round(v / scale)` (in f64, so the rounding analysis stays
/// trivial). All-zero rows get scale 0 and all-zero codes.
///
/// # Panics
///
/// Panics if `dim` is zero, `data.len()` is not a multiple of `dim`, or
/// `codes` and `scales` are not `data.len()` and `data.len() / dim` long.
pub fn quantize_i8_rows_into(data: &[f32], dim: usize, codes: &mut [i8], scales: &mut [f32]) {
    assert!(dim > 0, "dim must be non-zero");
    assert_eq!(data.len() % dim, 0, "data must be rows x dim");
    assert_eq!(codes.len(), data.len(), "one code per element");
    assert_eq!(scales.len(), data.len() / dim, "one scale per row");
    for ((row, out), scale) in data
        .chunks_exact(dim)
        .zip(codes.chunks_exact_mut(dim))
        .zip(scales)
    {
        let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        *scale = max_abs / 127.0;
        if *scale == 0.0 {
            out.fill(0);
            continue;
        }
        for (q, &v) in out.iter_mut().zip(row) {
            *q = (v as f64 / *scale as f64).round().clamp(-127.0, 127.0) as i8;
        }
    }
}

/// Dequantizes per-row i8 storage back to f32 (test/report helper):
/// `v = scale[row] * q`.
///
/// # Panics
///
/// Panics if `codes.len() != scales.len() * dim` or `dim` is zero.
pub fn dequantize_i8_rows(codes: &[i8], scales: &[f32], dim: usize) -> Vec<f32> {
    assert!(dim > 0, "dim must be non-zero");
    assert_eq!(codes.len(), scales.len() * dim, "codes must be rows x dim");
    codes
        .chunks_exact(dim)
        .zip(scales)
        .flat_map(|(row, &s)| row.iter().map(move |&q| s * q as f32))
        .collect()
}

/// CSR gather + sum-pool over f16 storage, dequantizing each element and
/// accumulating in f32 — the half-width sibling of
/// [`crate::gather_pool_csr`], SIMD-dispatched (see [`crate::simd`]).
/// Per output element the additions happen in lookup order, so results are
/// bit-identical across backends.
///
/// # Panics
///
/// Panics if `out.rows() != offsets.len()`, if `data` is not
/// `rows * out.cols()` long, or if any index is `>= rows`.
pub fn gather_pool_csr_f16(
    data: &[u16],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) {
    crate::simd::gather_pool_csr_f16_with(
        crate::SimdBackend::detect(),
        data,
        rows,
        indices,
        offsets,
        out,
    );
}

/// CSR gather + sum-pool over per-row i8 storage, dequantizing as
/// `scale[row] * q` and accumulating in f32 — the quarter-width sibling of
/// [`crate::gather_pool_csr`], SIMD-dispatched (see [`crate::simd`]).
/// Per output element the additions happen in lookup order, so results are
/// bit-identical across backends.
///
/// # Panics
///
/// Panics if `out.rows() != offsets.len()`, if `data` is not
/// `rows * out.cols()` long, if `scales.len() != rows`, or if any index is
/// `>= rows`.
pub fn gather_pool_csr_i8(
    data: &[i8],
    scales: &[f32],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) {
    crate::simd::gather_pool_csr_i8_with(
        crate::SimdBackend::detect(),
        data,
        scales,
        rows,
        indices,
        offsets,
        out,
    );
}

/// The portable f16 decoder: [`f16_to_f32`] per lane. The AVX2 and
/// AVX-512 rungs swap in the hardware conversion (see [`crate::simd`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct F16;

impl Decode for F16 {
    type Elem = u16;
    type Row = ();
    #[inline(always)]
    fn row(self, _id: usize) {}
    #[inline(always)]
    fn lane(self, (): (), h: u16) -> f32 {
        f16_to_f32(h)
    }
}

/// The i8 decoder: `scale * q` under the row's scale, unfused.
#[derive(Debug, Clone, Copy)]
pub(crate) struct I8<'a>(pub(crate) &'a [f32]);

impl Decode for I8<'_> {
    type Elem = i8;
    type Row = f32;
    #[inline(always)]
    fn row(self, id: usize) -> f32 {
        self.0[id]
    }
    #[inline(always)]
    fn lane(self, scale: f32, q: i8) -> f32 {
        scale * q as f32
    }
    #[inline(always)]
    fn prefetch_row_state(self, id: usize) {
        crate::simd::prefetch_row(self.0, id, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_exactly_representable_values() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            65504.0,
            -65504.0,
            0.099975586,
        ] {
            let h = f16_from_f32(v);
            assert_eq!(f16_to_f32(h), v, "{v}");
        }
        // Smallest half subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16_to_f32(f16_from_f32(tiny)), tiny);
        // Largest half subnormal: 1023 * 2^-24.
        let sub = 1023.0 * 2.0f32.powi(-24);
        assert_eq!(f16_to_f32(f16_from_f32(sub)), sub);
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 sits exactly between 1.0 and 1 + 2^-10: ties to even 1.0.
        assert_eq!(f16_to_f32(f16_from_f32(1.0 + 2.0f32.powi(-11))), 1.0);
        // 1 + 3·2^-11 ties between 1+2^-10 and 1+2^-9: even is 1+2^-9.
        assert_eq!(
            f16_to_f32(f16_from_f32(1.0 + 3.0 * 2.0f32.powi(-11))),
            1.0 + 2.0f32.powi(-9)
        );
        // Just above halfway rounds up.
        assert_eq!(
            f16_to_f32(f16_from_f32(1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20))),
            1.0 + 2.0f32.powi(-10)
        );
    }

    #[test]
    fn f16_saturates_and_underflows() {
        assert_eq!(f16_from_f32(1.0e6), 0x7c00); // +inf
        assert_eq!(f16_from_f32(-1.0e6), 0xfc00); // -inf
        assert_eq!(f16_from_f32(f32::INFINITY), 0x7c00);
        assert!(f16_to_f32(f16_from_f32(f32::NAN)).is_nan());
        // Below half the smallest subnormal flushes to signed zero.
        assert_eq!(f16_from_f32(2.0f32.powi(-26)), 0x0000);
        assert_eq!(f16_from_f32(-2.0f32.powi(-26)), 0x8000);
    }

    #[test]
    fn f16_nans_decode_quiet_with_their_payload() {
        // 0x7c01 is a signalling NaN: sign and payload kept, quiet bit
        // set, as the hardware `vcvtph2ps` does.
        assert_eq!(f16_to_f32(0x7c01).to_bits(), 0x7fc0_2000);
        assert_eq!(f16_to_f32(0xfd55).to_bits(), 0xffea_a000);
        assert_eq!(f16_to_f32(0x7e00).to_bits(), 0x7fc0_0000);
        assert_eq!(f16_to_f32(0xfc00), f32::NEG_INFINITY);
    }

    #[test]
    fn f16_error_is_within_half_ulp() {
        // Deterministic sweep over the table value range (-0.1, 0.1).
        for i in 0..4096 {
            let v = (i as f32 / 4096.0 - 0.5) * 0.2;
            let err = (f16_to_f32(f16_from_f32(v)) - v).abs();
            let bound = 2.0f32.powi(-11) * v.abs() + 2.0f32.powi(-24);
            assert!(err <= bound, "v={v} err={err} bound={bound}");
        }
    }

    #[test]
    fn i8_quantization_bounds_and_round_trip() {
        let dim = 8;
        let data: Vec<f32> = (0..64)
            .map(|i| ((i * 37 % 64) as f32 - 32.0) / 320.0)
            .collect();
        let (codes, scales) = quantize_i8_rows(&data, dim);
        assert_eq!(scales.len(), 8);
        let deq = dequantize_i8_rows(&codes, &scales, dim);
        for (r, row) in data.chunks_exact(dim).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let err = (deq[r * dim + j] - v).abs();
                assert!(
                    err <= 0.5001 * scales[r],
                    "row {r} col {j}: err {err} vs scale {}",
                    scales[r]
                );
            }
        }
    }

    #[test]
    fn i8_zero_rows_get_zero_scale() {
        let (codes, scales) = quantize_i8_rows(&[0.0; 6], 3);
        assert_eq!(scales, vec![0.0, 0.0]);
        assert!(codes.iter().all(|&c| c == 0));
        assert_eq!(dequantize_i8_rows(&codes, &scales, 3), vec![0.0; 6]);
    }

    #[test]
    fn i8_max_magnitude_maps_to_127() {
        let (codes, scales) = quantize_i8_rows(&[0.1, -0.1, 0.05, 0.0], 4);
        assert_eq!(codes[0], 127);
        assert_eq!(codes[1], -127);
        assert!((scales[0] - 0.1 / 127.0).abs() < 1e-9);
    }

    fn quantized_fixture() -> (Vec<f32>, u32, usize) {
        // 6 rows x 4 dims of varied magnitudes.
        let data: Vec<f32> = (0..24)
            .map(|i| ((i * 29 % 24) as f32 - 12.0) / 120.0)
            .collect();
        (data, 6, 4)
    }

    #[test]
    fn f16_gather_matches_dequantized_reference() {
        let (data, rows, dim) = quantized_fixture();
        let stored = quantize_f16(&data);
        let deq = dequantize_f16(&stored);
        let indices = [0u32, 5, 2, 2, 4, 1];
        let offsets = [0u32, 2, 2, 5];
        let mut got = Matrix::zeros(4, dim);
        gather_pool_csr_f16(&stored, rows, &indices, &offsets, &mut got);
        let mut want = Matrix::zeros(4, dim);
        crate::gather_pool_csr(&deq, rows, &indices, &offsets, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn i8_gather_matches_dequantized_reference() {
        let (data, rows, dim) = quantized_fixture();
        let (codes, scales) = quantize_i8_rows(&data, dim);
        let deq = dequantize_i8_rows(&codes, &scales, dim);
        let indices = [3u32, 3, 0, 5, 1];
        let offsets = [0u32, 1, 4];
        let mut got = Matrix::zeros(3, dim);
        gather_pool_csr_i8(&codes, &scales, rows, &indices, &offsets, &mut got);
        let mut want = Matrix::zeros(3, dim);
        crate::gather_pool_csr(&deq, rows, &indices, &offsets, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn f16_gather_rejects_bad_ids() {
        let mut out = Matrix::zeros(1, 2);
        gather_pool_csr_f16(&[0u16; 8], 4, &[4], &[0], &mut out);
    }

    #[test]
    #[should_panic(expected = "one scale per table row")]
    fn i8_gather_rejects_missing_scales() {
        let mut out = Matrix::zeros(1, 2);
        gather_pool_csr_i8(&[0i8; 8], &[0.0; 3], 4, &[0], &[0], &mut out);
    }
}
