//! The dynamic-programming table partitioner — Algorithm 2 of the paper.
//!
//! `Mem[s][x]` is the least memory cost of splitting the `x` hottest
//! entries into `s` shards; the recurrence tries every start of the last
//! shard and reads the `(s−1)`-shard optimum from the memo table. The
//! final plan is the global minimum over all shard counts up to `S_max`.
//!
//! Three entry points share the same DP core:
//!
//! * [`partition_exact`] considers every rank as a cut — `O(S·N²)` cost
//!   evaluations, for tests and small tables;
//! * [`partition_bucketed`] restricts cuts to a log-spaced candidate set,
//!   making the paper's 20M-entry tables tractable (the paper reports 18 s
//!   for its own implementation; coarsening is the standard way to get
//!   there and costs little optimality because the CDF is smooth);
//! * [`partition_bucketed_k`] reads the fixed-`k` row of the same memo
//!   table instead of the minimum over rows.

use crate::PartitionPlan;

/// Which memo row becomes the plan: the cheapest over `1..=n` shards, or
/// the one with exactly `n` shards.
enum Shards {
    AtMost(usize),
    Exactly(usize),
}

/// DP over an arbitrary sorted list of candidate shard ends.
///
/// `ends` must be strictly increasing 1-based ranks finishing at the table
/// length. `cost(k, j)` prices a shard covering ranks `(k, j]`. Shard
/// counts above the number of candidates are clamped to it.
#[expect(
    clippy::expect_used,
    reason = "DP cuts are strictly increasing and end at len"
)]
fn partition_over_candidates(
    ends: &[u64],
    shards: Shards,
    cost: &impl Fn(u64, u64) -> f64,
) -> PartitionPlan {
    let b = ends.len();
    #[expect(
        clippy::expect_used,
        reason = "callers pass >=1 candidate (documented contract)"
    )]
    let table_len = *ends.last().expect("candidate list is non-empty");
    let rows = match shards {
        Shards::AtMost(s) | Shards::Exactly(s) => s.min(b),
    };

    // mem[s-1][e]: best cost covering ranks (0, ends[e]] with s shards.
    // parent[s-1][e]: index of the previous shard's end, for reconstruction.
    let mut mem = vec![vec![f64::INFINITY; b]; rows];
    let mut parent = vec![vec![usize::MAX; b]; rows];

    for e in 0..b {
        mem[0][e] = cost(0, ends[e]);
    }
    for s in 1..rows {
        for e in s..b {
            let mut best = f64::INFINITY;
            let mut best_p = usize::MAX;
            for p in (s - 1)..e {
                let prev = mem[s - 1][p];
                if prev >= best {
                    continue; // cost(..) is non-negative; cannot improve
                }
                let c = prev + cost(ends[p], ends[e]);
                if c < best {
                    best = c;
                    best_p = p;
                }
            }
            mem[s][e] = best;
            parent[s][e] = best_p;
        }
    }

    let last = b - 1;
    #[expect(
        clippy::expect_used,
        reason = "costs are finite-or-INFINITY, never NaN; s_max >= 1 is a documented caller contract"
    )]
    let best_s = match shards {
        Shards::Exactly(_) => rows - 1,
        // Global optimum over shard counts; ties keep the fewest shards.
        Shards::AtMost(_) => (0..rows)
            .min_by(|&x, &y| {
                let (cx, cy) = (mem[x][last], mem[y][last]);
                cx.partial_cmp(&cy).expect("costs are not NaN")
            })
            .expect("s_max >= 1"),
    };

    // Reconstruct cut points.
    let mut cuts = Vec::with_capacity(best_s + 1);
    let mut e = last;
    let mut s = best_s;
    loop {
        cuts.push(ends[e]);
        if s == 0 {
            break;
        }
        e = parent[s][e];
        s -= 1;
    }
    cuts.reverse();
    PartitionPlan::new(cuts, table_len).expect("DP produces valid cuts")
}

/// The candidate shard ends for a table: every rank when the table has at
/// most `num_candidates` entries, otherwise `num_candidates` log-spaced
/// ranks plus the table end, sorted and deduplicated.
fn candidate_ends(table_len: u64, num_candidates: usize) -> Vec<u64> {
    if table_len <= num_candidates as u64 {
        return (1..=table_len).collect();
    }
    let mut ends: Vec<u64> = (0..num_candidates)
        .map(|i| {
            let frac = (i + 1) as f64 / num_candidates as f64;
            ((table_len as f64).powf(frac)).round() as u64
        })
        .collect();
    ends.push(table_len);
    ends.sort_unstable();
    ends.dedup();
    ends
}

/// Finds the optimal plan considering **every** rank as a potential cut.
///
/// # Panics
///
/// Panics if `table_len` or `s_max` is zero.
///
/// # Examples
///
/// ```
/// use er_partition::partition_exact;
///
/// // The paper's Figure 10 toy cost: COST(start, end) = (end-start+1)^2 / start
/// // with 1-based inclusive bounds; (k, j] form: (j-k)^2 / (k+1).
/// let plan = partition_exact(5, 3, |k, j| ((j - k) as f64).powi(2) / (k + 1) as f64);
/// assert_eq!(plan.cuts(), &[1, 3, 5]);
/// ```
pub fn partition_exact(
    table_len: u64,
    s_max: usize,
    cost: impl Fn(u64, u64) -> f64,
) -> PartitionPlan {
    assert!(table_len > 0, "cannot partition an empty table");
    assert!(s_max > 0, "need at least one shard");
    let ends: Vec<u64> = (1..=table_len).collect();
    partition_over_candidates(&ends, Shards::AtMost(s_max), &cost)
}

/// Finds a near-optimal plan with cuts restricted to roughly
/// `num_candidates` log-spaced ranks (always including the table end).
///
/// Log spacing gives the hot head fine boundaries — where the CDF moves
/// fastest and cut placement matters — while the cold tail gets coarse
/// ones.
///
/// # Panics
///
/// Panics if `table_len` or `s_max` is zero, or `num_candidates < 2`.
///
/// # Examples
///
/// ```
/// use er_partition::partition_bucketed;
///
/// let plan = partition_bucketed(20_000_000, 8, 64, |k, j| (j - k) as f64);
/// assert_eq!(plan.table_len(), 20_000_000);
/// ```
pub fn partition_bucketed(
    table_len: u64,
    s_max: usize,
    num_candidates: usize,
    cost: impl Fn(u64, u64) -> f64,
) -> PartitionPlan {
    assert!(table_len > 0, "cannot partition an empty table");
    assert!(s_max > 0, "need at least one shard");
    assert!(num_candidates >= 2, "need at least two candidate cuts");
    let ends = candidate_ends(table_len, num_candidates);
    partition_over_candidates(&ends, Shards::AtMost(s_max), &cost)
}

/// Like [`partition_bucketed`], but forces **exactly** `num_shards` shards
/// (the manual knob of the paper's Figure 12(d) sensitivity study).
///
/// # Panics
///
/// Panics if `table_len`, `num_shards`, or `num_candidates` is out of range
/// (`num_shards` may not exceed `table_len`).
///
/// # Examples
///
/// ```
/// use er_partition::partition_bucketed_k;
///
/// let plan = partition_bucketed_k(1_000_000, 8, 64, |k, j| (j - k) as f64);
/// assert_eq!(plan.num_shards(), 8);
/// ```
pub fn partition_bucketed_k(
    table_len: u64,
    num_shards: usize,
    num_candidates: usize,
    cost: impl Fn(u64, u64) -> f64,
) -> PartitionPlan {
    assert!(table_len > 0, "cannot partition an empty table");
    assert!(
        num_shards >= 1 && num_shards as u64 <= table_len,
        "shard count {num_shards} out of range for table of {table_len}"
    );
    assert!(num_candidates >= 2, "need at least two candidate cuts");
    let ends = candidate_ends(table_len, num_candidates);
    partition_over_candidates(&ends, Shards::Exactly(num_shards), &cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 10 toy cost in `(k, j]` form.
    fn fig10_cost(k: u64, j: u64) -> f64 {
        ((j - k) as f64).powi(2) / (k + 1) as f64
    }

    #[test]
    fn figure_ten_worked_example() {
        let plan = partition_exact(5, 3, fig10_cost);
        assert_eq!(plan.cuts(), &[1, 3, 5]);
        let total: f64 = plan.shards().iter().map(|&(k, j)| fig10_cost(k, j)).sum();
        assert!((total - 4.0).abs() < 1e-12, "total={total}");
    }

    #[test]
    fn s_max_one_is_the_whole_table() {
        let plan = partition_exact(10, 1, fig10_cost);
        assert_eq!(plan.cuts(), &[10]);
    }

    #[test]
    fn uniform_cost_prefers_fewer_shards() {
        // Constant per-shard cost: every extra shard adds cost, so the
        // optimum is one shard.
        let plan = partition_exact(20, 5, |_, _| 1.0);
        assert_eq!(plan.num_shards(), 1);
    }

    #[test]
    fn linear_cost_is_indifferent_but_valid() {
        // cost = size: any plan sums to the table length; DP must return
        // some valid plan.
        let plan = partition_exact(12, 3, |k, j| (j - k) as f64);
        let total: u64 = (0..plan.num_shards()).map(|s| plan.shard_size(s)).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn exact_beats_every_brute_force_plan() {
        // Exhaustively enumerate all plans for a small table and check the
        // DP result is minimal.
        let n: u64 = 8;
        let s_max = 4;
        let cost = |k: u64, j: u64| {
            // A lumpy, non-convex cost to stress the DP.
            let size = (j - k) as f64;
            size * size / (k as f64 + 1.5) + 2.0
        };
        let dp_plan = partition_exact(n, s_max, cost);
        let dp_cost: f64 = dp_plan.shards().iter().map(|&(k, j)| cost(k, j)).sum();

        let mut best = f64::INFINITY;
        // Enumerate cut subsets of {1..n-1} up to s_max-1 cuts.
        for mask in 0u32..(1 << (n - 1)) {
            if mask.count_ones() as usize >= s_max {
                continue;
            }
            let mut cuts: Vec<u64> = (1..n).filter(|&c| mask & (1 << (c - 1)) != 0).collect();
            cuts.push(n);
            let plan = PartitionPlan::new(cuts, n).unwrap();
            let c: f64 = plan.shards().iter().map(|&(k, j)| cost(k, j)).sum();
            best = best.min(c);
        }
        assert!(
            (dp_cost - best).abs() < 1e-9,
            "dp={dp_cost} brute-force={best}"
        );
    }

    #[test]
    fn bucketed_with_full_candidates_matches_exact() {
        let exact = partition_exact(30, 4, fig10_cost);
        let bucketed = partition_bucketed(30, 4, 1000, fig10_cost);
        assert_eq!(exact.cuts(), bucketed.cuts());
    }

    #[test]
    fn bucketed_scales_to_paper_size() {
        // 20M entries must be tractable. A skew-shaped cost keeps it
        // realistic.
        let n = 20_000_000u64;
        let plan = partition_bucketed(n, 8, 48, |k, j| {
            let hotness = 1.0 / (k as f64 + 10.0);
            (j - k) as f64 * (1.0 + 1e5 * hotness) + 1e6
        });
        assert_eq!(plan.table_len(), n);
        assert!(plan.num_shards() >= 2);
    }

    #[test]
    fn bucketed_candidates_are_deduplicated() {
        // Small table with many candidates: dedup must not break the DP.
        let plan = partition_bucketed(10, 3, 100, fig10_cost);
        assert_eq!(plan.table_len(), 10);
    }

    #[test]
    fn s_max_larger_than_table_is_clamped() {
        let plan = partition_exact(3, 10, |_, _| 1.0);
        assert!(plan.num_shards() <= 3);
    }

    #[test]
    fn fixed_k_returns_exactly_k_shards() {
        for k in 1..=5 {
            let plan = partition_bucketed_k(1000, k, 100, fig10_cost);
            assert_eq!(plan.num_shards(), k, "k={k}");
        }
    }

    #[test]
    fn fixed_k_matches_free_dp_at_its_optimum() {
        // The free DP on the Figure 10 example picks 3 shards; forcing
        // k=3 must reproduce the same plan.
        let free = partition_exact(5, 3, fig10_cost);
        let fixed = partition_bucketed_k(5, 3, 100, fig10_cost);
        assert_eq!(free.cuts(), fixed.cuts());

        // On log-spaced candidates the free plan is the cheapest of the
        // fixed-k plans over every k up to s_max.
        let n = 1_000_000u64;
        let cost = |k: u64, j: u64| (j - k) as f64 * (1.0 + 1e4 / (k as f64 + 10.0)) + 1e5;
        let total =
            |plan: &PartitionPlan| -> f64 { plan.shards().iter().map(|&(k, j)| cost(k, j)).sum() };
        let free = partition_bucketed(n, 8, 64, cost);
        let mut cheapest = partition_bucketed_k(n, 1, 64, cost);
        for k in 2..=8 {
            let plan = partition_bucketed_k(n, k, 64, cost);
            if total(&plan) < total(&cheapest) {
                cheapest = plan;
            }
        }
        assert_eq!(free.cuts(), cheapest.cuts());
        assert!((2..8).contains(&free.num_shards()), "optimum at an edge");
    }

    #[test]
    fn fixed_k_cost_is_monotone_in_constraint_strength() {
        // Fixing k can never beat the unconstrained optimum.
        let cost = fig10_cost;
        let free = partition_exact(12, 6, cost);
        let free_total: f64 = free.shards().iter().map(|&(k, j)| cost(k, j)).sum();
        for k in 1..=6 {
            let plan = partition_bucketed_k(12, k, 100, cost);
            let total: f64 = plan.shards().iter().map(|&(k, j)| cost(k, j)).sum();
            assert!(total >= free_total - 1e-9, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fixed_k_too_many_shards_panics() {
        partition_bucketed_k(3, 4, 10, |_, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn zero_length_panics() {
        partition_exact(0, 1, |_, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_smax_panics() {
        partition_exact(5, 0, |_, _| 0.0);
    }
}
