//! Bucketization — remapping query index/offset arrays onto partitioned
//! shards (paper Section IV-C, Figure 11).

use serde::{Deserialize, Serialize};

use er_distribution::sorting::HotnessPermutation;

use crate::{PartitionPlan, PlanError};

/// The per-shard `(index, offset)` arrays produced by bucketizing one
/// query's lookup against a partition plan.
///
/// Each shard receives an offset array with one entry per input (inputs
/// that gather nothing from the shard get empty ranges), and its index
/// array is rebased so IDs start at 0 within the shard — the "subtract the
/// size of shard A" step of Figure 11(b).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketizedLookup {
    /// Rebased index array per shard.
    pub indices: Vec<Vec<u32>>,
    /// Offset array per shard (same number of entries per shard: one per
    /// input).
    pub offsets: Vec<Vec<u32>>,
}

impl BucketizedLookup {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.indices.len()
    }

    /// Total gathers across all shards (equals the original gather count).
    pub fn total_gathers(&self) -> usize {
        self.indices.iter().map(Vec::len).sum()
    }

    /// The rank range of input `i` within shard `s`'s index array.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `i` is out of range.
    pub fn shard_input_indices(&self, s: usize, i: usize) -> &[u32] {
        let offs = &self.offsets[s];
        let start = offs[i] as usize;
        let end = offs
            .get(i + 1)
            .map_or(self.indices[s].len(), |&o| o as usize);
        &self.indices[s][start..end]
    }
}

/// Splits one `(indices, offsets)` lookup (over a hotness-sorted table)
/// into per-shard lookups according to `plan`.
///
/// The input follows the paper's layout: `offsets[i]` is where input `i`'s
/// IDs begin in `indices`. The output preserves, for every input, the set
/// of IDs it gathers — distributed across shards and rebased to each
/// shard's local ID space. Within one input, relative ID order is
/// preserved per shard.
///
/// # Panics
///
/// Panics if `offsets` is empty or malformed, or any index is outside the
/// plan's table.
///
/// # Examples
///
/// ```
/// use er_partition::{bucketize, PartitionPlan};
///
/// // Figure 11: a 10-entry table split into shard A (IDs 0-5, size 6) and
/// // shard B (IDs 6-9).
/// let plan = PartitionPlan::new(vec![6, 10], 10).unwrap();
/// let b = bucketize(&[1, 7, 3, 6, 9, 2], &[0, 2], &plan);
/// // Input 0 gathered {1, 7}: 1 stays in A, 7 lands in B rebased to 1.
/// assert_eq!(b.indices[0], vec![1, 3, 2]);      // A: 1 | 3, 2
/// assert_eq!(b.indices[1], vec![1, 0, 3]);      // B: 7-6 | 6-6, 9-6
/// assert_eq!(b.offsets[0], vec![0, 1]);
/// assert_eq!(b.offsets[1], vec![0, 1]);
/// ```
pub fn bucketize(indices: &[u32], offsets: &[u32], plan: &PartitionPlan) -> BucketizedLookup {
    let mut out = BucketizedLookup {
        indices: Vec::new(),
        offsets: Vec::new(),
    };
    bucketize_into(indices, offsets, plan, &mut out);
    out
}

/// [`bucketize`] into a caller-owned [`BucketizedLookup`], clearing and
/// refilling its per-shard vectors in place. Once every vector's capacity
/// covers the workload's peak per-shard gather count the call performs no
/// allocation — the remap step of the zero-allocation forward workspace.
/// Output is identical to [`bucketize`]'s regardless of `out`'s previous
/// contents or shard count.
///
/// # Panics
///
/// Panics under [`bucketize`]'s contract.
pub fn bucketize_into(
    indices: &[u32],
    offsets: &[u32],
    plan: &PartitionPlan,
    out: &mut BucketizedLookup,
) {
    scatter_into(indices, offsets, plan.num_shards(), out, |id| {
        let (s, base) = plan.locate(u64::from(id));
        (s, id - base as u32)
    });
}

/// Per-row routing words of one hotness-sorted, partitioned table: the
/// word of original row `orig` is `shard << shift | local`, where `local`
/// is the row's sorted position minus its shard's base. `shift` leaves
/// just enough high bits for the plan's shard index.
///
/// One load of [`RouteTable::word`] per id does the hotness remap, the
/// shard search and the rebase of [`bucketize_into`] at once;
/// [`bucketize_routed_into`] then only decodes and scatters.
///
/// # Examples
///
/// ```
/// use er_distribution::sorting::HotnessPermutation;
/// use er_partition::{bucketize_into, bucketize_routed_into, BucketizedLookup, PartitionPlan, RouteTable};
///
/// let perm = HotnessPermutation::from_counts(&[1, 9, 4, 7, 2, 3, 8, 5, 6, 0]);
/// let plan = PartitionPlan::new(vec![6, 10], 10).unwrap();
/// let route = RouteTable::new(&plan, &perm).unwrap();
/// let (ids, offsets) = ([1u32, 7, 3, 6, 9, 2], [0u32, 2]);
///
/// let words: Vec<u32> = ids.iter().map(|&i| route.word(i)).collect();
/// let mut routed = BucketizedLookup { indices: vec![], offsets: vec![] };
/// bucketize_routed_into(&words, &offsets, &route, &mut routed);
///
/// let sorted: Vec<u32> = ids.iter().map(|&i| perm.to_sorted(i)).collect();
/// let mut located = routed.clone();
/// bucketize_into(&sorted, &offsets, &plan, &mut located);
/// assert_eq!(routed, located);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    words: Vec<u32>,
    shift: u32,
    mask: u32,
    num_shards: usize,
}

impl RouteTable {
    /// Builds the route words of a table hotness-sorted by `perm` and cut
    /// by `plan`, walking each shard's sorted range through
    /// [`HotnessPermutation::to_original`].
    ///
    /// # Errors
    ///
    /// Returns an error if `perm` and `plan` cover different row counts,
    /// or a shard's local rows do not fit the bits the shard index leaves.
    pub fn new(plan: &PartitionPlan, perm: &HotnessPermutation) -> Result<Self, PlanError> {
        if perm.len() as u64 != plan.table_len() {
            return Err(PlanError(format!(
                "permutation has {} rows but the plan covers {}",
                perm.len(),
                plan.table_len()
            )));
        }
        let shift = route_shift(plan)?;
        let mut words = vec![0u32; perm.len()];
        for (s, (k, j)) in plan.shards().into_iter().enumerate() {
            let tag = ((s as u64) << shift) as u32;
            for pos in k..j {
                words[perm.to_original(pos as u32) as usize] = tag | (pos - k) as u32;
            }
        }
        Ok(Self {
            words,
            shift,
            mask: ((1u64 << shift) - 1) as u32,
            num_shards: plan.num_shards(),
        })
    }

    /// The route word of original row `orig`.
    ///
    /// # Panics
    ///
    /// Panics if `orig` is not a row of the table.
    #[inline]
    pub fn word(&self, orig: u32) -> u32 {
        let rows = self.words.len();
        assert!(
            (orig as usize) < rows,
            "row {orig} out of range for a {rows}-row route table"
        );
        self.words[orig as usize]
    }

    /// `(shard, local row)` of a route word.
    #[inline]
    fn decode(&self, word: u32) -> (usize, u32) {
        ((u64::from(word) >> self.shift) as usize, word & self.mask)
    }
}

/// The shift of a plan's route words: the shard index takes the fewest
/// high bits that count every shard, and every shard's local rows must fit
/// in the bits left below it.
fn route_shift(plan: &PartitionPlan) -> Result<u32, PlanError> {
    let shard_bits = usize::BITS - (plan.num_shards() - 1).leading_zeros();
    let shift = 32u32.checked_sub(shard_bits).ok_or_else(|| {
        PlanError(format!(
            "{} shards exceed a u32 route word",
            plan.num_shards()
        ))
    })?;
    match (0..plan.num_shards()).find(|&s| plan.shard_size(s) > 1u64 << shift) {
        Some(s) => Err(PlanError(format!(
            "shard {s} has {} rows, more than the {shift} local bits of a route word hold",
            plan.shard_size(s)
        ))),
        None => Ok(shift),
    }
}

/// [`bucketize_into`] over route words: `words[i]` is
/// `routes.word(indices[i])`, so each id only decodes to its shard and
/// local row. The output equals [`bucketize_into`] of the same ids
/// remapped to sorted positions, element for element. The warm serving
/// path, allocation-free once `out` has grown.
///
/// # Panics
///
/// Panics under [`bucketize`]'s offset contract, or if a word's shard bits
/// name no shard of `routes` (words come from [`RouteTable::word`]).
pub fn bucketize_routed_into(
    words: &[u32],
    offsets: &[u32],
    routes: &RouteTable,
    out: &mut BucketizedLookup,
) {
    scatter_into(words, offsets, routes.num_shards, out, |w| routes.decode(w));
}

/// The one scatter-and-offsets body of both bucketize entries: each id
/// `decode`s to `(shard, local row)` and is pushed onto that shard's index
/// array, after every shard opens the id's input range.
#[inline]
fn scatter_into(
    ids: &[u32],
    offsets: &[u32],
    num_shards: usize,
    out: &mut BucketizedLookup,
    decode: impl Fn(u32) -> (usize, u32),
) {
    assert!(!offsets.is_empty(), "offset array must be non-empty");
    assert_eq!(offsets[0], 0, "offset array must start at 0");
    for w in offsets.windows(2) {
        assert!(w[1] >= w[0], "offset array must be non-decreasing");
    }
    assert!(
        // lint::allow(no_panic): non-emptiness asserted three lines up
        *offsets.last().expect("non-empty") as usize <= ids.len(),
        "last offset exceeds index array"
    );

    let num_inputs = offsets.len();
    out.indices.truncate(num_shards);
    out.offsets.truncate(num_shards);
    // lint::allow(hot_alloc): grow-only to shard count, then reused
    out.indices.resize_with(num_shards, Vec::new);
    // lint::allow(hot_alloc): grow-only to shard count, then reused
    out.offsets.resize_with(num_shards, Vec::new);
    for v in &mut out.indices {
        v.clear();
    }
    for v in &mut out.offsets {
        v.clear();
    }

    for input in 0..num_inputs {
        // Open this input's range in every shard.
        for s in 0..num_shards {
            let pos = out.indices[s].len() as u32;
            out.offsets[s].push(pos);
        }
        let start = offsets[input] as usize;
        let end = offsets.get(input + 1).map_or(ids.len(), |&o| o as usize);
        for &id in &ids[start..end] {
            let (s, local) = decode(id);
            out.indices[s].push(local);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig11_plan() -> PartitionPlan {
        PartitionPlan::new(vec![6, 10], 10).unwrap()
    }

    #[test]
    fn figure_eleven_example() {
        // Two inputs over a 10-entry table split 6/4.
        let plan = fig11_plan();
        let b = bucketize(&[1, 7, 3, 6, 9, 2], &[0, 2], &plan);
        assert_eq!(b.num_shards(), 2);
        assert_eq!(b.total_gathers(), 6);
        // Shard A keeps IDs < 6 as-is.
        assert_eq!(b.indices[0], vec![1, 3, 2]);
        assert_eq!(b.offsets[0], vec![0, 1]);
        // Shard B IDs are rebased by 6 (the size of shard A).
        assert_eq!(b.indices[1], vec![1, 0, 3]);
        assert_eq!(b.offsets[1], vec![0, 1]);
    }

    #[test]
    fn per_input_views_are_correct() {
        let plan = fig11_plan();
        let b = bucketize(&[1, 7, 3, 6, 9, 2], &[0, 2], &plan);
        assert_eq!(b.shard_input_indices(0, 0), &[1]);
        assert_eq!(b.shard_input_indices(0, 1), &[3, 2]);
        assert_eq!(b.shard_input_indices(1, 0), &[1]);
        assert_eq!(b.shard_input_indices(1, 1), &[0, 3]);
    }

    #[test]
    fn single_shard_plan_is_identity() {
        let plan = PartitionPlan::single(10);
        let indices = [4u32, 9, 0, 7];
        let offsets = [0u32, 1, 3];
        let b = bucketize(&indices, &offsets, &plan);
        assert_eq!(b.indices[0], indices.to_vec());
        assert_eq!(b.offsets[0], offsets.to_vec());
    }

    #[test]
    fn inputs_missing_from_a_shard_get_empty_ranges() {
        let plan = fig11_plan();
        // Input 0 hits only shard A; input 1 hits only shard B.
        let b = bucketize(&[0, 1, 8, 9], &[0, 2], &plan);
        assert_eq!(b.shard_input_indices(0, 0), &[0, 1]);
        assert!(b.shard_input_indices(0, 1).is_empty());
        assert!(b.shard_input_indices(1, 0).is_empty());
        assert_eq!(b.shard_input_indices(1, 1), &[2, 3]);
    }

    #[test]
    fn gather_multiset_is_preserved() {
        // Reconstruct global IDs from the bucketized output and compare as
        // multisets per input.
        let plan = PartitionPlan::new(vec![2, 5, 10], 10).unwrap();
        let indices = [9u32, 1, 1, 4, 0, 6, 3, 2];
        let offsets = [0u32, 3, 3, 6];
        let b = bucketize(&indices, &offsets, &plan);
        for input in 0..offsets.len() {
            let start = offsets[input] as usize;
            let end = offsets
                .get(input + 1)
                .map_or(indices.len(), |&o| o as usize);
            let mut expect: Vec<u32> = indices[start..end].to_vec();
            expect.sort_unstable();
            let mut got: Vec<u32> = (0..plan.num_shards())
                .flat_map(|s| {
                    let base = plan.shard_base(s) as u32;
                    b.shard_input_indices(s, input)
                        .iter()
                        .map(move |&local| local + base)
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, expect, "input {input}");
        }
    }

    #[test]
    fn rebased_ids_are_in_shard_range() {
        let plan = PartitionPlan::new(vec![3, 7, 10], 10).unwrap();
        let indices: Vec<u32> = (0..10).collect();
        let b = bucketize(&indices, &[0], &plan);
        for s in 0..plan.num_shards() {
            let size = plan.shard_size(s) as u32;
            assert!(b.indices[s].iter().all(|&i| i < size), "shard {s}");
        }
    }

    #[test]
    fn empty_index_array_produces_empty_shards() {
        let plan = fig11_plan();
        let b = bucketize(&[], &[0, 0, 0], &plan);
        assert_eq!(b.total_gathers(), 0);
        assert_eq!(b.offsets[0], vec![0, 0, 0]);
        assert_eq!(b.offsets[1], vec![0, 0, 0]);
    }

    #[test]
    fn bucketize_into_reuse_matches_fresh_calls() {
        // One reused output cycles through plans with different shard
        // counts and stale contents; every refill must equal a fresh call.
        let mut out = BucketizedLookup {
            indices: vec![vec![99, 98]; 7],
            offsets: vec![vec![5]; 7],
        };
        let cases: Vec<(PartitionPlan, Vec<u32>, Vec<u32>)> = vec![
            (fig11_plan(), vec![1, 7, 3, 6, 9, 2], vec![0, 2]),
            (PartitionPlan::single(10), vec![4, 9, 0, 7], vec![0, 1, 3]),
            (
                PartitionPlan::new(vec![2, 5, 10], 10).unwrap(),
                vec![9, 1, 1, 4, 0, 6, 3, 2],
                vec![0, 3, 3, 6],
            ),
            (fig11_plan(), vec![], vec![0, 0, 0]),
        ];
        for (plan, indices, offsets) in &cases {
            bucketize_into(indices, offsets, plan, &mut out);
            assert_eq!(out, bucketize(indices, offsets, plan));
        }
    }

    #[test]
    fn route_capacity_is_checked_on_the_plan_alone() {
        // No rows are allocated: the check reads only the plan's cuts.
        let max = u64::from(u32::MAX);
        let single = PartitionPlan::single(max + 1);
        assert_eq!(route_shift(&single), Ok(32));
        assert!(route_shift(&PartitionPlan::single(max + 2)).is_err());
        // Two shards leave 31 local bits: a 2^31-row shard fits, one row
        // more does not.
        let fits = PartitionPlan::new(vec![1 << 31, max], max).unwrap();
        assert_eq!(route_shift(&fits), Ok(31));
        let over = PartitionPlan::new(vec![10, (1 << 31) + 11], (1 << 31) + 11).unwrap();
        let err = route_shift(&over).unwrap_err();
        assert!(err.to_string().contains("shard 1"), "{err}");
        // Five shards take three bits.
        let five = PartitionPlan::new(vec![1, 2, 3, 4, 1 << 29], 1 << 29).unwrap();
        assert_eq!(route_shift(&five), Ok(29));
        let five_over = PartitionPlan::new(vec![1, 2, 3, 4, (1 << 29) + 5], (1 << 29) + 5).unwrap();
        assert!(route_shift(&five_over).is_err());
    }

    #[test]
    fn route_table_rejects_a_permutation_of_another_length() {
        let perm = HotnessPermutation::identity(9);
        assert!(RouteTable::new(&fig11_plan(), &perm).is_err());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_offsets_panics() {
        bucketize(&[1], &[], &fig11_plan());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_table_index_panics() {
        bucketize(&[10], &[0], &fig11_plan());
    }
}
