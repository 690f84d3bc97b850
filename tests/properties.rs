//! Property-based tests over the core data structures and algorithms.

use proptest::prelude::*;

use elasticrec::ShardedDlrm;
use er_cluster::{Cluster, HardwareProfile, PodSpec, ResourceRequest};
use er_distribution::sorting::HotnessPermutation;
use er_distribution::{AccessModel, EmpiricalCdf, LocalityTarget, ZipfDistribution};
use er_metrics::Histogram;
use er_model::{configs, Dlrm, EmbeddingTable, QueryGenerator, TableLookup};
use er_partition::{bucketize, bucketize_routed_into, partition_exact, PartitionPlan, RouteTable};
use er_sim::{SimRng, SimTime};
use er_tensor::Matrix;
use er_units::ElemKind;

/// Generates a valid (indices, offsets) lookup over a table of `rows`.
fn lookup_strategy(rows: u32) -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (1usize..6).prop_flat_map(move |num_inputs| {
        proptest::collection::vec(0..rows, 0..40).prop_flat_map(move |indices| {
            let len = indices.len() as u32;
            proptest::collection::vec(0..=len, num_inputs - 1).prop_map(move |mut mids| {
                mids.sort_unstable();
                let mut offsets = vec![0u32];
                offsets.extend(mids);
                (indices.clone(), offsets)
            })
        })
    })
}

/// Generates a valid partition plan over a table of `rows`.
fn plan_strategy(rows: u64) -> impl Strategy<Value = PartitionPlan> {
    proptest::collection::btree_set(1..rows, 0..5).prop_map(move |cuts| {
        let mut cuts: Vec<u64> = cuts.into_iter().collect();
        cuts.push(rows);
        PartitionPlan::new(cuts, rows).expect("constructed valid")
    })
}

/// Generates conforming matmul operands with exact zeros sprinkled in (the
/// naive oracle skips them, the packed kernel multiplies them; results
/// must not differ). `k` reaches past one 256-deep k block of the packed
/// kernel.
fn matmul_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..24, 1usize..600, 1usize..40).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-2.0f32..2.0, m * k),
            proptest::collection::vec(-2.0f32..2.0, k * n),
        )
            .prop_map(move |(mut a, b)| {
                for (i, v) in a.iter_mut().enumerate() {
                    if i % 7 == 0 {
                        *v = 0.0;
                    }
                }
                (
                    Matrix::from_vec(m, k, a).expect("sized to m*k"),
                    Matrix::from_vec(k, n, b).expect("sized to k*n"),
                )
            })
    })
}

proptest! {
    /// Bucketization never drops, invents, or corrupts a gather: for every
    /// input, the multiset of global IDs reconstructed from the shards
    /// equals the original.
    #[test]
    fn bucketize_preserves_gather_multisets(
        (indices, offsets) in lookup_strategy(64),
        plan in plan_strategy(64),
    ) {
        let b = bucketize(&indices, &offsets, &plan);
        prop_assert_eq!(b.total_gathers(), indices.len());
        for input in 0..offsets.len() {
            let start = offsets[input] as usize;
            let end = offsets.get(input + 1).map_or(indices.len(), |&o| o as usize);
            let mut expect: Vec<u32> = indices[start..end].to_vec();
            expect.sort_unstable();
            let mut got: Vec<u32> = (0..plan.num_shards())
                .flat_map(|s| {
                    let base = plan.shard_base(s) as u32;
                    b.shard_input_indices(s, input).iter().map(move |&l| l + base)
                })
                .collect();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }

    /// Rebased shard-local IDs always fall inside their shard.
    #[test]
    fn bucketize_ids_stay_in_shard_bounds(
        (indices, offsets) in lookup_strategy(64),
        plan in plan_strategy(64),
    ) {
        let b = bucketize(&indices, &offsets, &plan);
        for s in 0..plan.num_shards() {
            let size = plan.shard_size(s) as u32;
            prop_assert!(b.indices[s].iter().all(|&i| i < size));
        }
    }

    /// Route words decoded by `bucketize_routed_into` give exactly what
    /// `bucketize_into` gives for the same ids remapped through `to_sorted`
    /// (1–8 shards, tied counts, empty inputs, repeated ids).
    #[test]
    fn routed_bucketize_matches_located_bucketize(
        counts in proptest::collection::vec(0u64..20, 64),
        (indices, offsets) in lookup_strategy(64),
        cuts in proptest::collection::btree_set(1..64u64, 0..8),
    ) {
        let plan = PartitionPlan::new(cuts.into_iter().chain([64]).collect(), 64).expect("valid");
        let perm = HotnessPermutation::from_counts(&counts);
        let route = RouteTable::new(&plan, &perm).expect("64 rows fit a route word");
        let words: Vec<u32> = indices.iter().map(|&i| route.word(i)).collect();
        let sorted: Vec<u32> = indices.iter().map(|&i| perm.to_sorted(i)).collect();
        let mut routed = bucketize(&[], &[0], &plan);
        bucketize_routed_into(&words, &offsets, &route, &mut routed);
        prop_assert_eq!(routed, bucketize(&sorted, &offsets, &plan));
    }

    /// The DP partitioner never loses to brute-force enumeration.
    #[test]
    fn dp_is_optimal_against_brute_force(
        n in 2u64..10,
        s_max in 1usize..4,
        a in 1.0f64..3.0,
        b in 0.5f64..5.0,
        c in 0.0f64..10.0,
    ) {
        let cost = move |k: u64, j: u64| ((j - k) as f64).powf(a) / (k as f64 + b) + c;
        let dp = partition_exact(n, s_max, cost);
        let dp_cost: f64 = dp.shards().iter().map(|&(k, j)| cost(k, j)).sum();

        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << (n - 1)) {
            if mask.count_ones() as usize >= s_max {
                continue;
            }
            let mut cuts: Vec<u64> = (1..n).filter(|&cut| mask & (1 << (cut - 1)) != 0).collect();
            cuts.push(n);
            let plan = PartitionPlan::new(cuts, n).expect("valid");
            let total: f64 = plan.shards().iter().map(|&(k, j)| cost(k, j)).sum();
            best = best.min(total);
        }
        prop_assert!(dp_cost <= best + 1e-9, "dp {dp_cost} vs brute {best}");
    }

    /// Zipf CDFs are monotone and properly normalized for any exponent.
    #[test]
    fn zipf_cdf_is_monotone_and_normalized(
        n in 1u64..100_000,
        s in 0.0f64..3.0,
    ) {
        let z = ZipfDistribution::new(n, s);
        prop_assert_eq!(z.cdf(0), 0.0);
        prop_assert!((z.cdf(n) - 1.0).abs() < 1e-6);
        let step = (n / 17).max(1);
        let mut prev = 0.0;
        let mut x = 0;
        while x <= n {
            let c = z.cdf(x);
            prop_assert!(c >= prev - 1e-12);
            prev = c;
            x += step;
        }
    }

    /// The locality solver hits its target coverage for any feasible P.
    #[test]
    fn locality_solver_is_accurate(
        p in 0.10f64..0.995,
        n in 100u64..1_000_000,
    ) {
        let z = LocalityTarget::new(p).solve(n);
        let got = z.cdf(((n as f64) * 0.10).round() as u64);
        prop_assert!((got - p).abs() < 0.02, "p={p} got={got}");
    }

    /// Hotness sorting produces a true permutation with non-increasing
    /// counts.
    #[test]
    fn hotness_sort_is_a_valid_permutation(
        counts in proptest::collection::vec(0u64..1000, 1..200),
    ) {
        let perm = HotnessPermutation::from_counts(&counts);
        // Bijection.
        let mut seen = vec![false; counts.len()];
        for pos in 0..counts.len() as u32 {
            let orig = perm.to_original(pos);
            prop_assert!(!seen[orig as usize]);
            seen[orig as usize] = true;
            prop_assert_eq!(perm.to_sorted(orig), pos);
        }
        // Sorted order.
        let sorted = perm.apply(&counts);
        for w in sorted.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    /// Empirical CDFs built from any counts are valid access models.
    #[test]
    fn empirical_cdf_is_well_formed(
        mut counts in proptest::collection::vec(0u64..10_000, 1..300),
    ) {
        counts[0] += 1; // ensure at least one access
        let cdf = EmpiricalCdf::from_counts(&counts);
        prop_assert_eq!(cdf.len(), counts.len() as u64);
        prop_assert!((cdf.cdf(cdf.len()) - 1.0).abs() < 1e-9);
        let mut prev = 0.0;
        for x in 0..=cdf.len() {
            let c = cdf.cdf(x);
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
        // Total probability splits across any cut.
        let mid = cdf.len() / 2;
        let total = cdf.coverage(0, mid) + cdf.coverage(mid, cdf.len());
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Histogram percentiles are monotone in the quantile and bounded by
    /// the extremes for any sample set.
    #[test]
    fn histogram_percentiles_are_sane(
        samples in proptest::collection::vec(0.0f64..1e6, 1..500),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut prev = 0.0;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = h.percentile(q);
            prop_assert!(v >= prev - 1e-9);
            prop_assert!(v <= h.max() + 1e-9);
            prev = v;
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// Random create/scale/drain sequences never break the cluster's
    /// resource accounting: every node stays within capacity and the
    /// memory metric equals the sum over node allocations.
    #[test]
    fn cluster_accounting_survives_random_ops(
        ops in proptest::collection::vec((0usize..3, 0usize..4, 1usize..6), 1..40),
    ) {
        let mut cluster = Cluster::new(HardwareProfile::cpu_only_node(), Some(16));
        // Four deployment archetypes with varied footprints.
        let specs: Vec<PodSpec> = (0..4)
            .map(|i| {
                PodSpec::new(
                    format!("d{i}"),
                    ResourceRequest::cpu(4_000 + 9_000 * i as u64, (2 + 7 * i as u64) << 30),
                    1.0,
                )
            })
            .collect();
        // A creation that hits the node cap keeps the pods it placed but
        // hands back no handle; a repeated name is rejected.
        let mut ids = [None; 4];
        for (op, which, count) in ops {
            if op == 0 {
                let name = format!("d{which}");
                if let Ok(id) =
                    cluster.create_deployment(name, specs[which].clone(), count, SimTime::ZERO)
                {
                    ids[which] = Some(id);
                }
            } else if let Some(id) = ids[which] {
                // Op 2 drains the deployment to zero pods.
                let target = if op == 1 { count } else { 0 };
                let _ = cluster.scale_deployment(id, target, SimTime::ZERO);
            }
            // Invariant 1: no node over capacity.
            let cap = HardwareProfile::cpu_only_node();
            let allocations = cluster.node_allocations();
            for (_, alloc) in &allocations {
                prop_assert!(alloc.cpu_millicores <= cap.cpu_millicores());
                prop_assert!(alloc.memory_bytes <= cap.mem_bytes.whole());
            }
            // Invariant 2: the memory metric equals the sum over nodes.
            let expect: u64 = allocations.iter().map(|(_, a)| a.memory_bytes).sum();
            prop_assert_eq!(cluster.memory_allocated_bytes(), expect);
            // Invariant 3: used nodes never exceed provisioned nodes.
            prop_assert!(cluster.nodes_used() <= cluster.nodes_provisioned());
        }
    }

    /// The packed matmul kernel is bit-identical to the naive oracle —
    /// not merely close — for any shape and any data (including exact
    /// zeros, which exercise the oracle's skip path), whatever its output
    /// buffer held before.
    #[test]
    fn fast_matmul_kernels_match_naive_exactly(
        (a, b) in matmul_operands(),
        stale_rows in 1usize..20,
    ) {
        let naive = a.matmul(&b).expect("shapes conform");
        let mut out = Matrix::filled(stale_rows, 3, 7.0);
        a.matmul_packed_into(&b.packed(), &mut out).expect("shapes conform");
        prop_assert_eq!(&naive, &out);
    }

    /// The fused gather+pool kernel is bit-identical to the scalar
    /// reference for any lookup shape, element kind and embedding width —
    /// widths cover every chunk/tail split of the 16-lane kernel body and
    /// more chunks than it pools at once — whatever its output held before.
    #[test]
    fn fused_gather_matches_reference_exactly(
        (indices, offsets) in lookup_strategy(64),
        dim_ix in 0usize..12,
        kind_ix in 0usize..3,
        seed in 0u64..1000,
        stale_rows in 1usize..8,
    ) {
        let dim = [1u32, 3, 8, 15, 16, 17, 31, 32, 33, 48, 64, 80][dim_ix];
        let kind = [ElemKind::F32, ElemKind::F16, ElemKind::I8][kind_ix];
        let table = EmbeddingTable::with_seed(64, dim, seed).quantized(kind);
        let lookup = TableLookup::new(indices, offsets).expect("strategy emits valid lookups");
        let mut out = Matrix::filled(stale_rows, 3, 7.0);
        table.gather_pool_into(lookup.indices(), lookup.offsets(), &mut out);
        let want = table.gather_pool(&lookup);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(want.shape(), out.shape());
        prop_assert_eq!(bits(&want), bits(&out));
    }

    /// For any partition and seed, one long-lived workspace reused across
    /// random queries and across two differently-shaped models (table
    /// count and top MLP differ) reproduces a fresh-workspace forward
    /// bit-for-bit, within f32 reassociation of the monolith.
    #[test]
    fn reused_workspace_forward_matches_fresh_for_any_partition(
        cuts in proptest::collection::btree_set(1u64..96, 0..4),
        seed in 0u64..100,
    ) {
        let rows = 96u64;
        let mut cuts: Vec<u64> = cuts.into_iter().collect();
        cuts.push(rows);
        let models: Vec<_> = [(configs::rm1(), 2usize), (configs::rm2(), 3)]
            .into_iter()
            .map(|(cfg, tables)| {
                let mut cfg = cfg.scaled_tables(rows).with_num_tables(tables);
                // A small batch keeps the debug-build proptest fast; the
                // shard walk is the same at any batch size.
                cfg.batch_size = 8;
                let model = Dlrm::with_seed(&cfg, seed);
                let counts: Vec<Vec<u64>> = (0..tables as u64)
                    .map(|t| (0..rows).map(|i| ((i * 31 + seed + t) % rows) + 1).collect())
                    .collect();
                let plans = vec![PartitionPlan::new(cuts.clone(), rows).expect("valid"); tables];
                let sharded = ShardedDlrm::new(model.clone(), &counts, plans).expect("valid");
                (QueryGenerator::new(&cfg), model, sharded)
            })
            .collect();
        let mut ws = models[0].2.workspace();
        let mut rng = SimRng::seed_from(seed);
        // Model A, then B (more tables), then A again on the grown workspace.
        for (gen, model, sharded) in [&models[0], &models[1], &models[0]] {
            let q = gen.generate(&mut rng);
            let fresh = sharded.forward(&q);
            prop_assert_eq!(sharded.forward_ws(&q, &mut ws), &fresh);
            prop_assert!(model.forward(&q).max_abs_diff(&fresh) < 1e-4);
        }
    }

    /// Partition plans tile their table for any cut set.
    #[test]
    fn plans_tile_the_table(plan in plan_strategy(1000)) {
        let total: u64 = (0..plan.num_shards()).map(|s| plan.shard_size(s)).sum();
        prop_assert_eq!(total, plan.table_len());
        // shard_of_id agrees with the shard ranges.
        for (s, (k, j)) in plan.shards().into_iter().enumerate() {
            prop_assert_eq!(plan.shard_of_id(k), s);
            prop_assert_eq!(plan.shard_of_id(j - 1), s);
        }
    }
}
