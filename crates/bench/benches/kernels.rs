//! Wall-clock microbenchmarks of the fast kernels against their naive
//! oracles: naive vs packed matmul, reference vs fused gather+pool, the
//! quantized f16 gather at the RM1 serving shape, and remap+bucketize
//! through the plan's cut search vs through route words. Prints a speedup
//! table via [`er_bench::report`].
//!
//! These are not paper figures; they document the substrate's raw
//! performance and catch kernel regressions. The end-to-end and per-layer
//! timings (MLP forward, bucketize, DP partition) live in `perfsuite` and
//! `perfbench`.

use er_distribution::sorting::HotnessPermutation;
use er_distribution::LocalityTarget;
use er_model::{configs, Dlrm, QueryGenerator};
use er_partition::{
    bucketize_into, bucketize_routed_into, BucketizedLookup, PartitionPlan, RouteTable,
};
use er_sim::SimRng;
use er_tensor::simd::gather_pool_csr_f16_with;
use er_tensor::{Matrix, SimdBackend};

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
    // cold shard (past the prefetch threshold). One row per available
    // SIMD rung, so the table A/Bs the rungs on this CPU.
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
        let row_bytes = (dim * std::mem::size_of::<u16>()) as f64;
        for rung in SimdBackend::ALL.into_iter().filter(|r| r.is_available()) {
            let secs = time(200, || {
                gather_pool_csr_f16_with(rung, &table, rows, &indices, &offsets, &mut pooled);
                pooled.get(0, 0)
            });
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
    }

    // Remap + bucketize per query at the `sparse_ramp` shape: 10 tables of
    // 500k rows, hotness-sorted from a seeded scramble and cut where that
    // workload's scaled RM1 plan cuts, each with 32 inputs x 128 Zipf
    // (P = 0.90) lookups. The plan path remaps through `to_sorted` and
    // searches the cuts in `bucketize_into`; the route path loads one
    // route word per id and decodes it in `bucketize_routed_into`, as
    // `forward_ws` does. Both loop hot, with no gather evicting the tables.
    let rows = 500_000u64;
    let plan = PartitionPlan::new(vec![3_712, 61_143, 248_177, rows], rows)
        .expect("increasing cuts ending at the row count");
    let cdf = LocalityTarget::new(0.90).solve(rows).tabulate();
    let mut rng = SimRng::seed_from(5);
    let tables: Vec<(HotnessPermutation, RouteTable, Vec<u32>)> = (0..10)
        .map(|_| {
            let mut ids: Vec<u32> = (0..rows as u32).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.index(i + 1));
            }
            let mut counts = vec![0u64; rows as usize];
            for (rank, &id) in ids.iter().enumerate() {
                counts[id as usize] = rows - rank as u64;
            }
            let perm = HotnessPermutation::from_counts(&counts);
            let route = RouteTable::new(&plan, &perm).expect("500k rows fit a route word");
            let lookups = (0..32 * 128)
                .map(|_| ids[cdf.quantile(rng.uniform()) as usize - 1])
                .collect();
            (perm, route, lookups)
        })
        .collect();
    let offsets: Vec<u32> = (0..32).map(|i| i * 128).collect();
    let mut remapped = Vec::new();
    let mut buckets = BucketizedLookup {
        indices: Vec::new(),
        offsets: Vec::new(),
    };
    let plan_path = time(200, || {
        for (perm, _, lookups) in &tables {
            remapped.clear();
            remapped.extend(lookups.iter().map(|&i| perm.to_sorted(i)));
            bucketize_into(&remapped, &offsets, &plan, &mut buckets);
        }
        buckets.indices[0].len()
    });
    let route_path = time(200, || {
        for (_, route, lookups) in &tables {
            remapped.clear();
            remapped.extend(lookups.iter().map(|&i| route.word(i)));
            bucketize_routed_into(&remapped, &offsets, route, &mut buckets);
        }
        buckets.indices[0].len()
    });
    report::row(
        "remap+bucketize sparse_ramp 10x500k",
        &[
            ("plan", us(plan_path)),
            ("route", us(route_path)),
            ("route_speedup", report::ratio(plan_path, route_path)),
        ],
    );
}
