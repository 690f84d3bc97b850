//! Scalar / AVX2 / AVX-512 dispatch parity: every kernel forced onto every
//! available backend must produce bit-identical outputs on the same inputs
//! — f32 kernels because the recompiled bodies share one FP op sequence,
//! quantized kernels because dequantization is deterministic and pooled in
//! the same order. Backends this CPU lacks are *skipped with an explicit
//! log line*, never silently passed.

use er_tensor::quant::{f16_from_f32, f16_to_f32};
use er_tensor::simd::{
    gather_pool_csr_f16_with, gather_pool_csr_i8_with, gather_pool_csr_with, matmul_packed_with,
    quantize_f16_with, SimdBackend,
};
use er_tensor::{quantize_f16, quantize_i8_rows, Matrix};

/// The backends to test on this machine, with a loud skip for absent ones.
fn backends() -> Vec<SimdBackend> {
    let mut present = Vec::new();
    for b in SimdBackend::ALL {
        if b.is_available() {
            present.push(b);
        } else {
            eprintln!("dispatch-parity: SKIPPING backend {b}: not available on this CPU");
        }
    }
    assert!(
        present.contains(&SimdBackend::Scalar),
        "scalar backend must always be available"
    );
    present
}

/// Deterministic pseudo-random f32 in (-0.1, 0.1) — embedding-value range.
fn val(i: u64) -> f32 {
    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    ((h % 2001) as f32 - 1000.0) / 10_000.0
}

/// Rows whose every element is `-0.0`: pooled into a zeroed output they
/// must leave `+0.0`, which catches an accumulator seeded from the first
/// row instead of from `out`.
fn negative_zero_row(r: u32) -> bool {
    r % 7 == 3
}

fn table(rows: u32, dim: usize) -> Vec<f32> {
    (0..rows as u64 * dim as u64)
        .map(|i| {
            if negative_zero_row((i / dim as u64) as u32) {
                -0.0
            } else {
                val(i)
            }
        })
        .collect()
}

/// A CSR lookup over `rows`: varied run lengths with empty inputs among
/// them, then one input that pools only `-0.0` rows.
fn lookup(rows: u32) -> (Vec<u32>, Vec<u32>) {
    let mut indices = Vec::new();
    let mut offsets = Vec::new();
    let mut next = 7u32;
    for input in 0..17u32 {
        offsets.push(indices.len() as u32);
        for _ in 0..(input % 5) {
            indices.push(next % rows);
            next = next.wrapping_mul(2654435761).wrapping_add(1);
        }
    }
    offsets.push(indices.len() as u32);
    indices.extend([3, 10, 3]);
    assert!(indices.iter().rev().take(3).all(|&r| negative_zero_row(r)));
    (indices, offsets)
}

/// Widths covering every chunk/tail split of the 16-lane gather body,
/// and more chunks than it pools at once.
const DIMS: [usize; 12] = [1, 3, 8, 15, 16, 17, 31, 32, 33, 48, 64, 80];

/// `(rows, dim)` shapes to gather: a small table at every width in
/// [`DIMS`], plus one table past the 4 MiB prefetch threshold.
fn shapes() -> Vec<(u32, usize)> {
    let mut shapes: Vec<(u32, usize)> = DIMS.iter().map(|&d| (97, d)).collect();
    shapes.push((70_000, 33));
    shapes
}

/// The output a gather starts from: zeros, or stale non-zero values.
fn start(rows: usize, dim: usize, stale: bool) -> Matrix {
    if stale {
        let data = (0..rows * dim).map(|i| val(5000 + i as u64)).collect();
        Matrix::from_vec(rows, dim, data).unwrap()
    } else {
        Matrix::zeros(rows, dim)
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs `gather` on every available rung, from a zeroed and from a stale
/// output, and checks each result bit for bit against the naive
/// per-element `+=` over the `decoded` table and against the scalar rung.
fn check_gather(
    what: &str,
    decoded: &[f32],
    dim: usize,
    gather: impl Fn(SimdBackend, &[u32], &[u32], &mut Matrix),
) {
    let rows = (decoded.len() / dim) as u32;
    let (indices, offsets) = lookup(rows);
    for stale in [false, true] {
        let mut oracle = start(offsets.len(), dim, stale);
        for input in 0..offsets.len() {
            let end = offsets
                .get(input + 1)
                .map_or(indices.len(), |&o| o as usize);
            for &id in &indices[offsets[input] as usize..end] {
                let src = &decoded[id as usize * dim..(id as usize + 1) * dim];
                for (o, &v) in oracle.row_mut(input).iter_mut().zip(src) {
                    *o += v;
                }
            }
        }
        let mut scalar: Option<Vec<u32>> = None;
        for b in backends() {
            let mut out = start(offsets.len(), dim, stale);
            gather(b, &indices, &offsets, &mut out);
            let got = bits(&out);
            let ctx = format!("{what} gather {rows}x{dim} stale={stale} backend {b}");
            assert_eq!(got, bits(&oracle), "{ctx} vs naive oracle");
            match &scalar {
                None => scalar = Some(got),
                Some(r) => assert_eq!(&got, r, "{ctx} vs scalar"),
            }
        }
    }
}

#[test]
fn f32_gather_is_bit_identical_across_backends() {
    for (rows, dim) in shapes() {
        let data = table(rows, dim);
        check_gather("f32", &data, dim, |b, indices, offsets, out| {
            gather_pool_csr_with(b, &data, rows, indices, offsets, out);
        });
    }
}

#[test]
fn f16_gather_is_bit_identical_across_backends() {
    for (rows, dim) in shapes() {
        let stored = quantize_f16(&table(rows, dim));
        let decoded: Vec<f32> = stored.iter().map(|&h| f16_to_f32(h)).collect();
        check_gather("f16", &decoded, dim, |b, indices, offsets, out| {
            gather_pool_csr_f16_with(b, &stored, rows, indices, offsets, out);
        });
    }
}

#[test]
fn i8_gather_is_bit_identical_across_backends() {
    for (rows, dim) in shapes() {
        let (codes, mut scales) = quantize_i8_rows(&table(rows, dim), dim);
        // A -0.0 scale turns the all-zero codes of a -0.0 row into -0.0
        // lanes, which `quantize_i8_rows` alone never produces.
        for (r, s) in scales.iter_mut().enumerate() {
            if negative_zero_row(r as u32) {
                *s = -0.0;
            }
        }
        let decoded: Vec<f32> = codes
            .iter()
            .enumerate()
            .map(|(i, &q)| scales[i / dim] * q as f32)
            .collect();
        check_gather("i8", &decoded, dim, |b, indices, offsets, out| {
            gather_pool_csr_i8_with(b, &codes, &scales, rows, indices, offsets, out);
        });
    }
}

#[test]
fn f16_decode_is_exact_on_every_bit_pattern_and_backend() {
    // Every u16 once, 16 to a row, so each rung decodes all of them in its
    // 16-lane chunk path; one lookup per row into its own output row,
    // which starts at -0.0 so the add returns the decoded lane unchanged
    // (signed zeros included; a signalling NaN comes back quiet, which is
    // what `f16_to_f32` must then return as well).
    let dim = 16;
    let stored: Vec<u16> = (0..=u16::MAX).collect();
    let rows = (stored.len() / dim) as u32;
    let indices: Vec<u32> = (0..rows).collect();
    let want: Vec<u32> = stored.iter().map(|&h| f16_to_f32(h).to_bits()).collect();
    for b in backends() {
        let mut out = Matrix::filled(rows as usize, dim, -0.0);
        gather_pool_csr_f16_with(b, &stored, rows, &indices, &indices, &mut out);
        let got = bits(&out);
        for (h, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g, w,
                "f16 {h:#06x} decodes to {g:#010x}, want {w:#010x} on {b}"
            );
        }
    }
}

#[test]
fn f16_encode_matches_the_software_encoder_on_every_backend() {
    // Every high half-word under low half-words that hit each 13-bit
    // rounding case (exact, just above zero, just below, at and just past
    // the tie, the top of the dropped bits, the kept LSB, all ones): every
    // exponent, so every subnormal shift and the overflow to infinity.
    let lows = [
        0x0000u32, 0x0001, 0x0fff, 0x1000, 0x1001, 0x1fff, 0x2000, 0xffff,
    ];
    let mut inputs: Vec<f32> = (0..=0xffffu32)
        .flat_map(|hi| lows.map(|lo| f32::from_bits(hi << 16 | lo)))
        .collect();
    // Zeros, infinities, and quiet and signalling NaNs with payloads,
    // which the hardware would keep. Seven more keep the length off every
    // multiple of 8 and 16, so the scalar tail runs.
    inputs.extend(
        [
            0x0000_0000u32,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0001,
            0xffd2_3456,
            0x7f80_0001,
            0xffa0_2000,
            0x7fbf_ffff,
        ]
        .map(f32::from_bits),
    );
    let want: Vec<u16> = inputs.iter().map(|&x| f16_from_f32(x)).collect();
    for backend in backends() {
        let mut got = vec![0xabcdu16; inputs.len()];
        quantize_f16_with(backend, &inputs, &mut got);
        if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "backend {backend} encodes {:#010x} to {:#06x}, software gives {:#06x}",
                inputs[i].to_bits(),
                got[i],
                want[i]
            );
        }
        // Short and unaligned slices: all-tail, one chunk plus a tail.
        for (start, len) in [(0usize, 0usize), (3, 1), (5, 7), (9, 15), (1, 17), (40, 33)] {
            let mut part = vec![0u16; len];
            quantize_f16_with(backend, &inputs[start..start + len], &mut part);
            assert_eq!(part, want[start..start + len], "{backend} at {start}+{len}");
        }
    }
}

#[test]
fn matmul_is_bit_identical_across_backends() {
    // Shapes exercising full 6-row tiles and leftover rows, one- and
    // two-panel tiles with zero-padded tails, and k past one 256-deep k
    // block at the serving batch of 32; every rung must also match the
    // naive oracle.
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (6, 8, 16),
        (13, 32, 37),
        (32, 300, 40),
        (32, 600, 1),
    ] {
        let a = Matrix::from_vec(m, k, (0..m * k).map(|i| val(i as u64)).collect()).unwrap();
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| val(1000 + i as u64)).collect()).unwrap();
        let packed = b.packed();
        let naive = a.matmul(&b).unwrap();
        for backend in backends() {
            let mut out = vec![7.0f32; m * n];
            matmul_packed_with(backend, a.as_slice(), &packed, &mut out);
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            let rbits: Vec<u32> = naive.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, rbits, "matmul {m}x{k}x{n} backend {backend}");
        }
    }
}

#[test]
fn forcing_an_unavailable_backend_panics_loudly() {
    // Find an absent rung if there is one; otherwise nothing to assert here
    // (this box runs the full ladder) — log that explicitly.
    let Some(absent) = SimdBackend::ALL.iter().copied().find(|b| !b.is_available()) else {
        eprintln!("dispatch-parity: all backends available; unavailability panic not exercised");
        return;
    };
    let err = std::panic::catch_unwind(|| {
        let mut out = Matrix::zeros(1, 2);
        gather_pool_csr_with(absent, &[0.0; 8], 4, &[0], &[0], &mut out);
    });
    assert!(err.is_err(), "forcing {absent} should panic");
}
