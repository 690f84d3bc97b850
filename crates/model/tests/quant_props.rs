//! Bounded-error property tests for the quantized gather paths.
//!
//! Random tables (dims 8–256, per-row magnitudes spanning four orders of
//! magnitude) and random CSR lookups: for each quantized kind the fused
//! `gather_pool_into` output must (a) stay within the analytic per-element
//! error bound of the f32 reference ([`EmbeddingTable::quant_error_bound`])
//! and (b) match the kind's own scalar reference (`gather_pool`)
//! bit-for-bit — the quantized analogue of the f32 paths' bit-exactness
//! contract.
//!
//! The shard-building property rides along: a shard written in one pass
//! by `select_rows` through a random permutation must hold what a
//! permute-then-slice of the table holds, at every kind, and quantizing
//! commutes with selecting rows.

use er_model::{EmbeddingTable, TableLookup};
use er_tensor::Matrix;
use er_units::ElemKind;
use proptest::prelude::*;

/// SplitMix64 — deterministic value soup without pulling in a rand dep.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A `rows x dim` table whose row magnitudes sweep 1e-3..=1e1, so i8
/// scales and f16 exponents vary widely across rows.
fn build_table(rows: u32, dim: u32, seed: u64) -> EmbeddingTable {
    let row_vecs: Vec<Vec<f32>> = (0..rows)
        .map(|r| {
            let mag = 10.0f32.powi((mix(seed ^ (r as u64) << 17) % 5) as i32 - 3);
            (0..dim)
                .map(|c| {
                    let h = mix(seed ^ ((r as u64) << 32) ^ c as u64);
                    ((h % 2001) as f32 - 1000.0) / 1000.0 * mag
                })
                .collect()
        })
        .collect();
    EmbeddingTable::from_rows(&row_vecs)
}

/// CSR arrays from run-length seeds (empty bags included).
fn build_lookup(runs: &[(u8, u32)], rows: u32) -> (Vec<u32>, Vec<u32>) {
    let mut indices = Vec::new();
    let mut offsets = Vec::new();
    for &(len, ix_seed) in runs {
        offsets.push(indices.len() as u32);
        for k in 0..len {
            indices.push((mix(ix_seed as u64 ^ (k as u64) << 40) % rows as u64) as u32);
        }
    }
    (indices, offsets)
}

proptest! {
    /// Per-element quantization error of the fused i8/f16 gathers stays
    /// under the analytic bound, across dims 8–256 and wildly mixed row
    /// magnitudes.
    #[test]
    fn quantized_gather_error_within_analytic_bound(
        dim in 8u32..257,
        rows in 1u32..48,
        seed in 0u64..u64::MAX,
        runs in proptest::collection::vec((0u8..6, 0u32..u32::MAX), 1..8),
    ) {
        let table = build_table(rows, dim, seed);
        let (indices, offsets) = build_lookup(&runs, rows);
        let mut reference = Matrix::zeros(1, 1);
        table.gather_pool_into(&indices, &offsets, &mut reference);
        for kind in [ElemKind::F16, ElemKind::I8] {
            let q = table.quantized(kind);
            let mut got = Matrix::zeros(1, 1);
            q.gather_pool_into(&indices, &offsets, &mut got);
            let bound = table.quant_error_bound(kind, &indices, &offsets);
            for input in 0..offsets.len() {
                for j in 0..dim as usize {
                    let err = (got.row(input)[j] - reference.row(input)[j]).abs();
                    prop_assert!(
                        err <= bound.row(input)[j],
                        "{kind} dim {dim} input {input} col {j}: err {err} > bound {}",
                        bound.row(input)[j]
                    );
                }
            }
        }
    }

    /// The fused quantized kernels match their scalar reference
    /// (`gather_pool`) bit-for-bit — dequantization order is part of the
    /// kernel contract, just like f32 accumulation order.
    #[test]
    fn quantized_fused_gather_is_bit_identical_to_reference(
        dim in 8u32..257,
        rows in 1u32..48,
        seed in 0u64..u64::MAX,
        runs in proptest::collection::vec((0u8..6, 0u32..u32::MAX), 1..6),
    ) {
        let table = build_table(rows, dim, seed);
        let (indices, offsets) = build_lookup(&runs, rows);
        let lookup = TableLookup::new(indices, offsets).unwrap();
        let mut out = Matrix::zeros(1, 1);
        for kind in [ElemKind::F32, ElemKind::F16, ElemKind::I8] {
            let q = table.quantized(kind);
            q.gather_pool_into(lookup.indices(), lookup.offsets(), &mut out);
            prop_assert_eq!(&q.gather_pool(&lookup), &out);
        }
    }

    /// Each shard built by one `select_rows` pass from the source table
    /// equals the matching rows of a test-local permute-then-slice oracle
    /// (compared through `dequantized()`, so i8 scales count), and
    /// quantizing before or after selecting stores the same bits.
    #[test]
    fn one_pass_shards_match_permute_then_slice(
        dim in 1u32..40,
        rows in 1u32..48,
        seed in 0u64..u64::MAX,
        perm_seed in 0u64..u64::MAX,
        cut_bits in 0u64..u64::MAX,
    ) {
        let table = build_table(rows, dim, seed);
        // Fisher-Yates: to_original[pos] is the source row at sorted `pos`.
        let mut to_original: Vec<u32> = (0..rows).collect();
        for i in (1..rows as usize).rev() {
            to_original.swap(i, (mix(perm_seed ^ i as u64) % (i as u64 + 1)) as usize);
        }
        let mut cuts: Vec<u32> = (1..rows).filter(|&c| cut_bits >> c & 1 == 1).collect();
        cuts.push(rows);
        for kind in [ElemKind::F32, ElemKind::F16, ElemKind::I8] {
            let source = table.quantized(kind);
            let exact = source.dequantized();
            let sorted: Vec<&[f32]> = to_original.iter().map(|&o| exact.vector(o)).collect();
            let mut start = 0;
            for &end in &cuts {
                let ids = || to_original[start as usize..end as usize].iter().copied();
                let shard = source.select_rows(ids());
                prop_assert_eq!(shard.elem_kind(), kind);
                prop_assert_eq!(shard.rows(), end - start);
                let got = shard.dequantized();
                for (i, want) in sorted[start as usize..end as usize].iter().enumerate() {
                    prop_assert_eq!(got.vector(i as u32), *want, "{} row {}", kind, start + i as u32);
                }
                prop_assert_eq!(&table.select_rows(ids()).quantized(kind), &shard);
                let two_step = table
                    .permuted(|pos| to_original[pos as usize], rows)
                    .quantized(kind)
                    .slice(start, end);
                prop_assert_eq!(&two_step, &shard);
                start = end;
            }
        }
    }
}
