//! Scalar / AVX2 / AVX-512 dispatch parity: every kernel forced onto every
//! available backend must produce bit-identical outputs on the same inputs
//! — f32 kernels because the recompiled bodies share one FP op sequence,
//! quantized kernels because dequantization is deterministic and pooled in
//! the same order. Backends this CPU lacks are *skipped with an explicit
//! log line*, never silently passed.

use er_tensor::simd::{
    gather_pool_csr_f16_with, gather_pool_csr_i8_with, gather_pool_csr_with, matmul_packed_with,
    SimdBackend,
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

fn table(rows: u32, dim: usize) -> Vec<f32> {
    (0..rows as u64 * dim as u64).map(val).collect()
}

/// A CSR lookup with varied run lengths (incl. an empty bag) over `rows`.
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
    (indices, offsets)
}

#[test]
fn f32_gather_is_bit_identical_across_backends() {
    for dim in [1usize, 7, 16, 64] {
        let rows = 97u32;
        let data = table(rows, dim);
        let (indices, offsets) = lookup(rows);
        let mut reference: Option<Matrix> = None;
        for b in backends() {
            let mut out = Matrix::zeros(offsets.len(), dim);
            gather_pool_csr_with(b, &data, rows, &indices, &offsets, &mut out);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "f32 gather dim {dim} backend {b}"),
            }
        }
    }
}

#[test]
fn f16_gather_is_bit_identical_across_backends() {
    for dim in [3usize, 8, 64] {
        let rows = 97u32;
        let stored = quantize_f16(&table(rows, dim));
        let (indices, offsets) = lookup(rows);
        let mut reference: Option<Matrix> = None;
        for b in backends() {
            let mut out = Matrix::zeros(offsets.len(), dim);
            gather_pool_csr_f16_with(b, &stored, rows, &indices, &offsets, &mut out);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "f16 gather dim {dim} backend {b}"),
            }
        }
    }
}

#[test]
fn i8_gather_is_bit_identical_across_backends() {
    for dim in [3usize, 8, 64] {
        let rows = 97u32;
        let (codes, scales) = quantize_i8_rows(&table(rows, dim), dim);
        let (indices, offsets) = lookup(rows);
        let mut reference: Option<Matrix> = None;
        for b in backends() {
            let mut out = Matrix::zeros(offsets.len(), dim);
            gather_pool_csr_i8_with(b, &codes, &scales, rows, &indices, &offsets, &mut out);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "i8 gather dim {dim} backend {b}"),
            }
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
