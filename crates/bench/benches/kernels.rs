//! Microbenchmarks of the computational kernels underlying the
//! reproduction: MLP forward passes, embedding gather+pool, bucketization,
//! the DP partitioner, Zipf sampling — and the fast-kernel comparisons
//! (naive vs packed matmul, scalar vs fused gather+pool).
//!
//! These are not paper figures; they document the substrate's raw
//! performance and catch algorithmic regressions (e.g. the DP going
//! quadratic in the wrong variable).
//!
//! With the `bench-harness` feature the file is a criterion bench; without
//! it (the default, so the tier-1 gate never needs the criterion dep tree)
//! it is a plain wall-clock main printing a speedup summary table.

use er_model::{configs, Dlrm, QueryGenerator};
use er_sim::SimRng;
use er_tensor::Matrix;

/// Pseudo-random matrix with exact zeros sprinkled in, mirroring what the
/// kernels see in practice (ReLU outputs are zero-heavy).
fn scrambled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            let r = next();
            if r % 5 == 0 {
                0.0
            } else {
                (r % 2000) as f32 / 1000.0 - 1.0
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized to rows*cols")
}

#[cfg(feature = "bench-harness")]
mod harness {
    use super::*;
    use criterion::{criterion_group, BatchSize, Criterion};
    use std::hint::black_box;

    use er_distribution::{LocalityTarget, ZipfDistribution};
    use er_partition::{bucketize, partition_bucketed, PartitionPlan};
    use er_tensor::{Activation, Mlp};

    fn bench_mlp_forward(c: &mut Criterion) {
        let mlp = Mlp::with_seed(13, &[256, 128, 32], Activation::Relu, 1);
        let input = Matrix::filled(32, 13, 0.5);
        c.bench_function("mlp_forward_rm1_bottom_batch32", |b| {
            b.iter(|| black_box(mlp.forward(black_box(&input))))
        });
    }

    fn bench_matmul_kernels(c: &mut Criterion) {
        let a = scrambled(256, 512, 1);
        let b_m = scrambled(512, 256, 2);
        c.bench_function("matmul_256x512x256_naive", |b| {
            b.iter(|| black_box(a.matmul(black_box(&b_m)).expect("conforming")))
        });
        let packed = b_m.packed();
        let mut out = Matrix::zeros(1, 1);
        c.bench_function("matmul_256x512x256_packed", |b| {
            b.iter(|| {
                a.matmul_packed_into(black_box(&packed), &mut out)
                    .expect("conforming");
                black_box(out.get(0, 0))
            })
        });
        let x = scrambled(32, 2560, 5);
        let w = scrambled(2560, 512, 6).packed();
        c.bench_function("matmul_32x2560x512_packed_rm3_bottom", |b| {
            b.iter(|| {
                x.matmul_packed_into(black_box(&w), &mut out)
                    .expect("conforming");
                black_box(out.get(0, 0))
            })
        });
    }

    fn bench_gather_pool(c: &mut Criterion) {
        let cfg = configs::rm1().scaled_tables(100_000).with_num_tables(1);
        let model = Dlrm::with_seed(&cfg, 2);
        let query = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(3));
        c.bench_function("gather_pool_batch32_pooling128", |b| {
            b.iter(|| black_box(model.tables()[0].gather_pool(black_box(&query.lookups[0]))))
        });
        let lookup = &query.lookups[0];
        let mut out = Matrix::zeros(1, 1);
        c.bench_function("gather_pool_fused_batch32_pooling128", |b| {
            b.iter(|| {
                model.tables()[0].gather_pool_into(
                    black_box(lookup.indices()),
                    black_box(lookup.offsets()),
                    &mut out,
                );
                black_box(out.get(0, 0))
            })
        });
    }

    fn bench_bucketize(c: &mut Criterion) {
        let cfg = configs::rm1().scaled_tables(1_000_000).with_num_tables(1);
        let query = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(4));
        let plan =
            PartitionPlan::new(vec![10_000, 120_000, 400_000, 1_000_000], 1_000_000).unwrap();
        let lookup = &query.lookups[0];
        c.bench_function("bucketize_4096_gathers_4_shards", |b| {
            b.iter(|| {
                black_box(bucketize(
                    black_box(lookup.indices()),
                    black_box(lookup.offsets()),
                    black_box(&plan),
                ))
            })
        });
    }

    fn bench_dp_partition(c: &mut Criterion) {
        // The paper's 20M-entry table, bucketed DP — must stay well under
        // the paper's 18-second reference implementation.
        c.bench_function("dp_partition_20m_rows_48_candidates", |b| {
            b.iter(|| {
                black_box(partition_bucketed(20_000_000, 4, 48, |k, j| {
                    let size = (j - k) as f64;
                    size * (1.0 + 1e5 / (k as f64 + 10.0)) + 1e6
                }))
            })
        });
    }

    fn bench_zipf_sampling(c: &mut Criterion) {
        let dist = LocalityTarget::new(0.90).solve(20_000_000);
        let mut rng = SimRng::seed_from(5);
        c.bench_function("zipf_quantile_analytic_20m", |b| {
            b.iter(|| black_box(dist.quantile(black_box(rng.uniform()))))
        });
        let table = ZipfDistribution::new(1_000_000, 1.0).tabulate();
        c.bench_function("zipf_quantile_tabulated_1m", |b| {
            b.iter_batched(
                || rng.uniform(),
                |u| black_box(table.quantile(black_box(u))),
                BatchSize::SmallInput,
            )
        });
    }

    criterion_group!(
        benches,
        bench_mlp_forward,
        bench_matmul_kernels,
        bench_gather_pool,
        bench_bucketize,
        bench_dp_partition,
        bench_zipf_sampling
    );
}

#[cfg(feature = "bench-harness")]
criterion::criterion_main!(harness::benches);

/// Wall-clock fallback: times the oracle-vs-fast-kernel pairs directly and
/// prints a speedup table via [`er_bench::report`].
#[cfg(not(feature = "bench-harness"))]
fn main() {
    use er_bench::report;
    use std::hint::black_box;
    use std::time::Instant;

    /// Seconds per iteration, best of three timed runs after warmup.
    #[allow(clippy::disallowed_methods)] // benchmarks measure real elapsed time
    fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
        for _ in 0..reps.div_ceil(5).max(1) {
            black_box(f());
        }
        (0..3)
            .map(|_| {
                // lint::allow(wall_clock): benchmarks measure real elapsed time by definition
                let t0 = Instant::now();
                for _ in 0..reps {
                    black_box(f());
                }
                t0.elapsed().as_secs_f64() / reps as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    let us = |secs: f64| format!("{:.1} us", secs * 1e6);

    report::header("kernels", "fast-kernel speedups vs naive oracles");

    let gflops = |(m, k, n): (usize, usize, usize), secs: f64| {
        format!("{:.1} GFLOP/s", 2.0 * (m * k * n) as f64 / secs / 1e9)
    };
    let mut out = Matrix::zeros(1, 1);
    // (label, m x k x n, reps): an MLP-shaped square-ish product, an RM1
    // bottom-MLP batch, and the RM3 bottom layer that dominates the dense
    // forward pass.
    for (label, (m, k, n), reps) in [
        ("matmul 256x512x256", (256, 512, 256), 20),
        ("matmul 32x256x128", (32, 256, 128), 200),
        ("matmul 32x2560x512 (RM3 bottom)", (32, 2560, 512), 20),
    ] {
        let a = scrambled(m, k, (m + k) as u64);
        let b = scrambled(k, n, (k + n) as u64);
        let packed_b = b.packed();
        let naive = time(reps, || a.matmul(&b).expect("conforming"));
        let packed = time(reps, || {
            a.matmul_packed_into(&packed_b, &mut out)
                .expect("conforming");
            out.get(0, 0)
        });
        report::row(
            label,
            &[
                ("naive", us(naive)),
                ("packed", us(packed)),
                ("packed_gflops", gflops((m, k, n), packed)),
                ("packed_speedup", report::ratio(naive, packed)),
            ],
        );
    }

    let cfg = configs::rm1().scaled_tables(100_000).with_num_tables(1);
    let model = Dlrm::with_seed(&cfg, 2);
    let query = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(3));
    let reference = time(50, || model.tables()[0].gather_pool(&query.lookups[0]));
    let lookup = &query.lookups[0];
    let fused = time(50, || {
        model.tables()[0].gather_pool_into(lookup.indices(), lookup.offsets(), &mut out);
        out.get(0, 0)
    });
    report::row(
        "gather_pool b32 p128",
        &[
            ("reference", us(reference)),
            ("fused", us(fused)),
            ("fused_speedup", report::ratio(reference, fused)),
        ],
    );

    // The RM1 sparse shards' f16 gather at the serving shape: 3,122
    // lookups in 32 inputs, dim 32, over the hot shard (L2-resident) and a
    // cold shard (past the prefetch threshold). Reported on the rung
    // `SimdBackend::detect` picks; `ER_SIMD=avx2` pins the AVX2 rung.
    let rung = er_tensor::SimdBackend::detect();
    for (label, rows) in [
        ("f16 gather RM1 hot shard 3712x32", 3_712u32),
        ("f16 gather RM1 cold shard 251823x32", 251_823),
    ] {
        let dim = 32;
        let table = er_tensor::quantize_f16(scrambled(rows as usize, dim, 7).as_slice());
        let lookups = 3_122usize;
        let indices: Vec<u32> = (0..lookups as u64)
            .map(|i| {
                (i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) % u64::from(rows)) as u32
            })
            .collect();
        let offsets: Vec<u32> = (0..32).map(|i| (i * lookups / 32) as u32).collect();
        let mut pooled = Matrix::zeros(32, dim);
        let secs = time(200, || {
            er_tensor::gather_pool_csr_f16(&table, rows, &indices, &offsets, &mut pooled);
            pooled.get(0, 0)
        });
        let row_bytes = (dim * std::mem::size_of::<u16>()) as f64;
        report::row(
            label,
            &[
                ("rung", rung.name().to_string()),
                ("ns_per_row", format!("{:.2}", secs * 1e9 / lookups as f64)),
                (
                    "gbps",
                    format!("{:.1} GB/s", lookups as f64 * row_bytes / secs / 1e9),
                ),
            ],
        );
    }

    println!("\n(re-run with --features er-bench/bench-harness for criterion statistics)");
}
