//! The forward half of a workload: a sharded DLRM served by one closed-loop
//! caller through `ShardedDlrm::forward_ws`, checked against the monolithic
//! `Dlrm::forward`, and — in the traced run — replayed stage by stage from
//! outside the program with a timing span around every public call that
//! `forward_ws` makes.

use std::time::{Duration, Instant};

use elasticrec::{plan, Calibration, ForwardWorkspace, Platform, ShardedDlrm, Strategy};
use er_distribution::sorting::HotnessPermutation;
use er_distribution::LocalityTarget;
use er_model::{dot_interaction_into, Dlrm, EmbeddingTable, ModelConfig, QueryBatch, TableLookup};
use er_partition::{bucketize_into, BucketizedLookup, PartitionPlan};
use er_sim::SimRng;
use er_tensor::Matrix;
use er_units::ElemKind;

use crate::stats::{median, quantile, Metrics};

/// What a forward workload serves.
#[derive(Debug, Clone, Copy)]
pub struct FwdSpec {
    /// The full-size model (`configs::rm1`, `configs::rm3`); its DP plan
    /// supplies the cut fractions.
    pub model: fn() -> ModelConfig,
    /// Rows per embedding table in the functional model.
    pub rows: u64,
    /// Storage kind of the shard tables.
    pub elem: ElemKind,
}

/// Distinct queries generated up front and cycled through.
const POOL: usize = 64;

/// Largest accepted |sharded − monolithic| output difference: f32 shards
/// only reorder the pooling sums; quantized shards use the bound of the
/// `quantized_shards_track_the_f32_path_within_tolerance` test.
fn tolerance(elem: ElemKind) -> f32 {
    if elem == ElemKind::F32 {
        1e-4
    } else {
        0.05
    }
}

/// Everything the timed loop needs, built once from the seed.
pub struct Served {
    pub sharded: ShardedDlrm,
    /// Per-table access counts the hotness sort was built from.
    counts: Vec<Vec<u64>>,
    pub queries: Vec<QueryBatch>,
    /// Monolithic `Dlrm::forward` output per pool query.
    reference: Vec<Matrix>,
    /// Median host seconds of the timed setup steps, over repetitions.
    pub setup: SetupTimes,
}

/// Medians of the setup steps.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub model_build_s: f64,
    pub plan_s: f64,
    pub sharded_new_s: f64,
    pub quantize_s: f64,
}

/// Draws the workload's inputs: per-table access counts and the query pool.
/// Each table gets a seeded scramble that maps hotness rank to original row
/// id, so the hotness remap is a real permutation; ranks come from the
/// tabulated Zipf CDF of the config's locality, and the access counts are
/// the exact rank order (rank 1 has the highest count).
fn make_inputs(cfg: &ModelConfig, rng: &SimRng) -> (Vec<Vec<u64>>, Vec<QueryBatch>) {
    let rows = cfg.tables[0].rows;
    let cdf = LocalityTarget::new(cfg.locality_p).solve(rows).tabulate();
    let mut counts = Vec::with_capacity(cfg.tables.len());
    let mut rank_to_id = Vec::with_capacity(cfg.tables.len());
    for t in 0..cfg.tables.len() {
        let mut r = rng.substream(100 + t as u64);
        let mut ids: Vec<u32> = (0..rows as u32).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, r.index(i + 1));
        }
        let mut c = vec![0u64; rows as usize];
        for (rank, &id) in ids.iter().enumerate() {
            c[id as usize] = rows - rank as u64;
        }
        counts.push(c);
        rank_to_id.push(ids);
    }
    let mut r = rng.substream(1);
    let queries = (0..POOL)
        .map(|_| {
            let mut dense = Matrix::zeros(cfg.batch_size, cfg.num_dense_features);
            for v in dense.as_mut_slice() {
                *v = r.uniform() as f32;
            }
            let lookups = cfg
                .tables
                .iter()
                .zip(&rank_to_id)
                .map(|(t, ids)| {
                    let n = cfg.batch_size * t.pooling as usize;
                    let indices = (0..n)
                        .map(|_| ids[cdf.quantile(r.uniform()) as usize - 1])
                        .collect();
                    let offsets = (0..cfg.batch_size as u32).map(|i| i * t.pooling).collect();
                    TableLookup::new(indices, offsets).expect("fixed pooling gives valid offsets")
                })
                .collect();
            QueryBatch { dense, lookups }
        })
        .collect();
    (counts, queries)
}

/// Scales the full-size DP plan's cut points to `rows`, keeping each shard
/// at least one row wide.
fn scaled_plan(full: &PartitionPlan, rows: u64) -> PartitionPlan {
    let n = full.table_len();
    let mut cuts: Vec<u64> = Vec::with_capacity(full.num_shards());
    for &c in full.cuts() {
        let prev = cuts.last().copied().unwrap_or(0);
        let scaled = ((c as u128 * rows as u128).div_ceil(n as u128) as u64).max(prev + 1);
        cuts.push(scaled.min(rows));
    }
    cuts.dedup();
    PartitionPlan::new(cuts, rows).expect("scaled cuts are increasing and end at the row count")
}

/// One timed setup: model build, DP plan, sharding, quantization.
fn build_once(
    spec: &FwdSpec,
    cfg: &ModelConfig,
    seed: u64,
    counts: &[Vec<u64>],
) -> (ShardedDlrm, SetupTimes) {
    let t0 = Instant::now();
    let dlrm = Dlrm::with_seed(cfg, seed);
    let t1 = Instant::now();
    let full = plan(
        &(spec.model)(),
        Platform::CpuOnly,
        Strategy::Elastic,
        &Calibration::cpu_only(),
    );
    let plans = full
        .table_plans
        .iter()
        .map(|p| scaled_plan(p, spec.rows))
        .collect();
    let t2 = Instant::now();
    let sharded = ShardedDlrm::new(dlrm, counts, plans).expect("counts and plans match the model");
    let t3 = Instant::now();
    let sharded = if spec.elem == ElemKind::F32 {
        sharded
    } else {
        sharded.with_elem_kind(spec.elem)
    };
    let t4 = Instant::now();
    let times = SetupTimes {
        total_s: (t4 - t0).as_secs_f64(),
        model_build_s: (t1 - t0).as_secs_f64(),
        plan_s: (t2 - t1).as_secs_f64(),
        sharded_new_s: (t3 - t2).as_secs_f64(),
        quantize_s: (t4 - t3).as_secs_f64(),
    };
    (sharded, times)
}

/// Builds the served model `reps` times from the seed (reporting median
/// setup times) and the inputs and monolithic references once.
pub fn setup(spec: &FwdSpec, seed: u64, reps: usize) -> Served {
    let cfg = (spec.model)().scaled_tables(spec.rows);
    let rng = SimRng::seed_from(seed);
    let (counts, queries) = make_inputs(&cfg, &rng);
    let mut all = Vec::with_capacity(reps);
    let mut sharded: Option<ShardedDlrm> = None;
    for _ in 0..reps {
        // Free the previous copy first so peak memory is one model.
        drop(sharded.take());
        let (s, t) = build_once(spec, &cfg, seed, &counts);
        sharded = Some(s);
        all.push(t);
    }
    let sharded = sharded.expect("at least one setup repetition");
    let pick = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let setup = SetupTimes {
        total_s: pick(|t| t.total_s),
        model_build_s: pick(|t| t.model_build_s),
        plan_s: pick(|t| t.plan_s),
        sharded_new_s: pick(|t| t.sharded_new_s),
        quantize_s: pick(|t| t.quantize_s),
    };
    let reference = queries.iter().map(|q| sharded.dlrm().forward(q)).collect();
    Served {
        sharded,
        counts,
        queries,
        reference,
        setup,
    }
}

/// Untimed queries at the start of each forward block. A simulation ran
/// just before the block and evicted the model from the caches; a server
/// doing only forward passes would not pay that refill.
const WARM_QUERIES: usize = 3;

/// Whether an output is finite and within `tol` of the reference.
fn output_ok(out: &Matrix, reference: &Matrix, tol: f32) -> bool {
    out.as_slice().iter().all(|v| v.is_finite()) && out.max_abs_diff(reference) <= tol
}

/// One caller, one query in flight: `forward_ws` timed per query, run in
/// blocks that `main` interleaves with simulations, every output
/// checked against the monolithic reference.
pub struct Closed<'a> {
    served: &'a Served,
    tolerance: f32,
    ws: ForwardWorkspace,
    lat_us: Vec<f64>,
    block_qps: Vec<f64>,
    pub queries: u64,
    pub failed: u64,
    pub busy: Duration,
}

impl<'a> Closed<'a> {
    pub fn new(served: &'a Served, spec: &FwdSpec) -> Self {
        let mut ws = served.sharded.workspace();
        warm(served, &mut ws);
        Self {
            served,
            tolerance: tolerance(spec.elem),
            ws,
            lat_us: Vec::new(),
            block_qps: Vec::new(),
            queries: 0,
            failed: 0,
            busy: Duration::ZERO,
        }
    }

    /// Serves queries back to back for `len`, after [`WARM_QUERIES`]
    /// untimed ones.
    pub fn block(&mut self, len: Duration) {
        let pool = &self.served.queries;
        for k in 0..WARM_QUERIES {
            let q = &pool[(self.queries as usize + k) % pool.len()];
            std::hint::black_box(self.served.sharded.forward_ws(q, &mut self.ws));
        }
        let start = Instant::now();
        let first = self.queries;
        while start.elapsed() < len {
            let i = self.queries as usize % pool.len();
            let t = Instant::now();
            let out = self
                .served
                .sharded
                .forward_ws(std::hint::black_box(&pool[i]), &mut self.ws);
            self.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !output_ok(out, &self.served.reference[i], self.tolerance) {
                self.failed += 1;
            }
            self.queries += 1;
        }
        let took = start.elapsed();
        self.busy += took;
        self.block_qps
            .push((self.queries - first) as f64 / took.as_secs_f64());
    }

    /// Records `fwd_qps` (median over blocks) and the median latency, and
    /// prints the 99th percentile. The tail is not a result metric: stalls
    /// of the shared host (10–20 ms, in about one run in five) move it by
    /// 1.5–4x, far beyond any bound a regression check could use.
    pub fn finish(&self, m: &mut Metrics) {
        m.add("fwd_qps", median(&self.block_qps), "1/s");
        m.add("fwd_p50_us", median(&self.lat_us), "us");
        println!(
            "forward: fwd_p99_us {} us over {} timed queries",
            quantile(&self.lat_us, 0.99),
            self.lat_us.len()
        );
    }
}

/// One pass over the pool, so buffers and caches are warm before timing.
fn warm(served: &Served, ws: &mut ForwardWorkspace) {
    for q in &served.queries {
        std::hint::black_box(served.sharded.forward_ws(q, ws));
    }
}

/// Span accumulators of the traced replay, summed over queries.
#[derive(Debug, Default)]
struct Spans {
    remap: Duration,
    bucketize: Duration,
    gather: Duration,
    merge: Duration,
    bottom: Duration,
    interaction: Duration,
    top: Duration,
    shard_calls: u64,
    empty_calls: u64,
    /// Gathers landing in each shard position, summed over tables.
    per_shard: Vec<u64>,
}

impl Spans {
    fn total(&self) -> Duration {
        self.remap
            + self.bucketize
            + self.gather
            + self.merge
            + self.bottom
            + self.interaction
            + self.top
    }
}

/// A copy of the serving state `ShardedDlrm::new` builds, rebuilt from the
/// same public calls so every stage of `forward_ws` can be timed from
/// outside: hotness permutations, plans and shard tables.
struct Replay<'a> {
    dlrm: &'a Dlrm,
    perms: Vec<HotnessPermutation>,
    plans: &'a [PartitionPlan],
    shards: Vec<Vec<EmbeddingTable>>,
}

/// Caller-owned scratch of the replay, mirroring `ForwardWorkspace`.
struct ReplayWs {
    sorted: Vec<u32>,
    buckets: BucketizedLookup,
    partial: Matrix,
    pooled: Vec<Matrix>,
    interacted: Matrix,
    mlp_a: Matrix,
    mlp_b: Matrix,
}

impl<'a> Replay<'a> {
    fn new(served: &'a Served, elem: ElemKind) -> Self {
        let sharded = &served.sharded;
        let dlrm = sharded.dlrm();
        let plans = sharded.plans();
        let mut perms = Vec::new();
        let mut shards = Vec::new();
        for (t, table) in dlrm.tables().iter().enumerate() {
            let perm = HotnessPermutation::from_counts(&served.counts[t]);
            // Quantization is per element (f16) or per row (i8), so
            // quantizing before slicing stores the same shard bits.
            let sorted = table
                .permuted(|pos| perm.to_original(pos), table.rows())
                .quantized(elem);
            shards.push(
                plans[t]
                    .shards()
                    .into_iter()
                    .map(|(k, j)| sorted.slice(k as u32, j as u32))
                    .collect(),
            );
            perms.push(perm);
        }
        Self {
            dlrm,
            perms,
            plans,
            shards,
        }
    }

    fn spans(&self) -> Spans {
        let max_shards = self.plans.iter().map(PartitionPlan::num_shards).max();
        Spans {
            per_shard: vec![0; max_shards.unwrap_or(0)],
            ..Spans::default()
        }
    }

    fn workspace(&self) -> ReplayWs {
        ReplayWs {
            sorted: Vec::new(),
            buckets: BucketizedLookup {
                indices: Vec::new(),
                offsets: Vec::new(),
            },
            partial: Matrix::zeros(1, 1),
            pooled: vec![Matrix::zeros(1, 1); self.perms.len()],
            interacted: Matrix::zeros(1, 1),
            mlp_a: Matrix::zeros(1, 1),
            mlp_b: Matrix::zeros(1, 1),
        }
    }

    /// The `forward_ws` pipeline, one span per public call.
    fn forward<'w>(&self, q: &QueryBatch, ws: &'w mut ReplayWs, sp: &mut Spans) -> &'w Matrix {
        for (t, lookup) in q.lookups.iter().enumerate() {
            let t0 = Instant::now();
            ws.sorted.clear();
            ws.sorted
                .extend(lookup.indices().iter().map(|&i| self.perms[t].to_sorted(i)));
            let t1 = Instant::now();
            bucketize_into(
                &ws.sorted,
                lookup.offsets(),
                &self.plans[t],
                &mut ws.buckets,
            );
            let t2 = Instant::now();
            sp.remap += t1 - t0;
            sp.bucketize += t2 - t1;
            let dim = self.dlrm.tables()[t].dim() as usize;
            ws.pooled[t].reshape_zeroed(lookup.num_inputs(), dim);
            for (s, table) in self.shards[t].iter().enumerate() {
                let idx = &ws.buckets.indices[s];
                let g0 = Instant::now();
                table.gather_pool_into(idx, &ws.buckets.offsets[s], &mut ws.partial);
                let g1 = Instant::now();
                ws.pooled[t]
                    .add_assign(&ws.partial)
                    .expect("pooled and partial share a shape");
                let g2 = Instant::now();
                sp.gather += g1 - g0;
                sp.merge += g2 - g1;
                sp.per_shard[s] += idx.len() as u64;
                sp.shard_calls += 1;
                sp.empty_calls += u64::from(idx.is_empty());
            }
        }
        let b0 = Instant::now();
        let bottom = self
            .dlrm
            .bottom_mlp()
            .forward_into(&q.dense, &mut ws.mlp_a, &mut ws.mlp_b);
        let b1 = Instant::now();
        dot_interaction_into(bottom, &ws.pooled[..q.lookups.len()], &mut ws.interacted);
        let b2 = Instant::now();
        let out = self
            .dlrm
            .top_mlp()
            .forward_into(&ws.interacted, &mut ws.mlp_a, &mut ws.mlp_b);
        let b3 = Instant::now();
        sp.bottom += b1 - b0;
        sp.interaction += b2 - b1;
        sp.top += b3 - b2;
        out
    }
}

/// The traced run: each query goes through `forward_ws` (untraced) and
/// the span-instrumented replay, in alternating order; the two outputs must
/// be bit-identical, and the spans give per-query layer means.
pub struct Traced<'a> {
    served: &'a Served,
    tolerance: f32,
    elem: ElemKind,
    replay: Replay<'a>,
    ws: ForwardWorkspace,
    rws: ReplayWs,
    sp: Spans,
    /// Host time in `forward_ws` and in the traced replay.
    plain: Duration,
    wall: Duration,
    pub queries: u64,
    pub failed: u64,
    /// Queries whose replay output differed from `forward_ws` in any bit.
    pub mismatched: u64,
    pub busy: Duration,
}

impl<'a> Traced<'a> {
    pub fn new(served: &'a Served, spec: &FwdSpec) -> Self {
        let replay = Replay::new(served, spec.elem);
        let mut ws = served.sharded.workspace();
        let mut rws = replay.workspace();
        warm(served, &mut ws);
        let mut scratch = replay.spans();
        for q in &served.queries {
            replay.forward(q, &mut rws, &mut scratch);
        }
        let sp = replay.spans();
        Self {
            served,
            tolerance: tolerance(spec.elem),
            elem: spec.elem,
            replay,
            ws,
            rws,
            sp,
            plain: Duration::ZERO,
            wall: Duration::ZERO,
            queries: 0,
            failed: 0,
            mismatched: 0,
            busy: Duration::ZERO,
        }
    }

    /// Serves query pairs back to back for `len`, after [`WARM_QUERIES`]
    /// untimed ones.
    pub fn block(&mut self, len: Duration) {
        let pool = &self.served.queries;
        let sharded = &self.served.sharded;
        let mut scratch = self.replay.spans();
        for k in 0..WARM_QUERIES {
            let q = &pool[(self.queries as usize + k) % pool.len()];
            std::hint::black_box(sharded.forward_ws(q, &mut self.ws));
            self.replay.forward(q, &mut self.rws, &mut scratch);
        }
        let start = Instant::now();
        while start.elapsed() < len {
            let i = self.queries as usize % pool.len();
            let q = &pool[i];
            // Alternate which path sees the query first, so neither gains
            // from the other having just pulled the query into cache.
            let (expect, got) = if self.queries.is_multiple_of(2) {
                let t0 = Instant::now();
                let expect = sharded.forward_ws(q, &mut self.ws);
                let t1 = Instant::now();
                let got = self.replay.forward(q, &mut self.rws, &mut self.sp);
                self.plain += t1 - t0;
                self.wall += t1.elapsed();
                (expect, got)
            } else {
                let t0 = Instant::now();
                let got = self.replay.forward(q, &mut self.rws, &mut self.sp);
                let t1 = Instant::now();
                let expect = sharded.forward_ws(q, &mut self.ws);
                self.wall += t1 - t0;
                self.plain += t1.elapsed();
                (expect, got)
            };
            if !output_ok(expect, &self.served.reference[i], self.tolerance) {
                self.failed += 1;
            }
            let same = expect.shape() == got.shape()
                && expect
                    .as_slice()
                    .iter()
                    .zip(got.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                self.mismatched += 1;
            }
            self.queries += 1;
        }
        self.busy += start.elapsed();
    }

    /// Records the per-layer metrics, per query.
    pub fn finish(&self, m: &mut Metrics) {
        let (sp, n) = (&self.sp, self.queries as f64);
        let per_q = |d: Duration| d.as_secs_f64() * 1e6 / n;
        let dlrm = self.served.sharded.dlrm();
        let batch = self.served.queries[0].batch_size();
        let dim = dlrm.tables()[0].dim();
        let gathers = sp.per_shard.iter().sum::<u64>() as f64;
        let gather_bytes = gathers * self.elem.row_bytes(dim).raw() / n;
        let bottom_flops = dlrm.bottom_mlp().flops(batch) as f64;
        let top_flops = dlrm.top_mlp().flops(batch) as f64;
        let setup = &self.served.setup;
        m.add("distribution.remap_us", per_q(sp.remap), "us");
        m.add("partition.bucketize_us", per_q(sp.bucketize), "us");
        m.add("model.gather_us", per_q(sp.gather), "us");
        m.add("model.gather_bytes", gather_bytes, "B");
        m.add(
            "model.gather_gbps",
            gather_bytes / per_q(sp.gather) / 1e3,
            "GB/s",
        );
        m.add("tensor.merge_us", per_q(sp.merge), "us");
        m.add("tensor.bottom_mlp_us", per_q(sp.bottom), "us");
        m.add(
            "tensor.bottom_mlp_gflops",
            bottom_flops / per_q(sp.bottom) / 1e3,
            "GFLOP/s",
        );
        m.add("tensor.top_mlp_us", per_q(sp.top), "us");
        m.add(
            "tensor.top_mlp_gflops",
            top_flops / per_q(sp.top) / 1e3,
            "GFLOP/s",
        );
        m.add("model.interaction_us", per_q(sp.interaction), "us");
        m.add("partition.gathers", gathers / n, "count");
        m.add(
            "partition.hot_shard_share",
            sp.per_shard[0] as f64 / gathers,
            "ratio",
        );
        m.add(
            "partition.empty_call_share",
            sp.empty_calls as f64 / sp.shard_calls as f64,
            "ratio",
        );
        m.add(
            "trace.coverage",
            sp.total().as_secs_f64() / self.wall.as_secs_f64(),
            "ratio",
        );
        m.add(
            "trace.overhead",
            self.wall.as_secs_f64() / self.plain.as_secs_f64(),
            "ratio",
        );
        m.add("model.build_s", setup.model_build_s, "s");
        m.add("core.sharded_new_s", setup.sharded_new_s, "s");
        m.add("model.quantize_s", setup.quantize_s, "s");
        let per_shard: Vec<String> = sp
            .per_shard
            .iter()
            .map(|&g| format!("{:.1}", g as f64 / n))
            .collect();
        println!(
            "trace: gathers per query by shard position, hot first: [{}]",
            per_shard.join(", ")
        );
        println!(
            "trace: {} queries; self time per query: remap+bucketize+gather {:.1} us, mlps {:.1} us, of {:.1} us traced",
            self.queries,
            per_q(sp.remap + sp.bucketize + sp.gather),
            per_q(sp.bottom + sp.top),
            per_q(self.wall)
        );
        println!("trace: bytes and FLOPs are computed from tensor sizes, not measured");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_plan_keeps_shard_count_and_covers_rows() {
        let full = PartitionPlan::new(vec![148_444, 2_445_689, 9_927_055, 20_000_000], 20_000_000)
            .unwrap();
        let p = scaled_plan(&full, 20_000);
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.table_len(), 20_000);
        assert_eq!(p.cuts()[0], 149);
    }

    #[test]
    fn replay_is_bit_identical_to_forward_ws() {
        let spec = FwdSpec {
            model: er_model::configs::rm1,
            rows: 2_000,
            elem: ElemKind::F16,
        };
        let served = setup(&spec, 7, 1);
        let mut traced = Traced::new(&served, &spec);
        traced.block(Duration::from_millis(50));
        assert!(traced.queries > 0);
        assert_eq!((traced.failed, traced.mismatched), (0, 0));
        let mut closed = Closed::new(&served, &spec);
        closed.block(Duration::from_millis(50));
        assert!(closed.queries > 0);
        assert_eq!(closed.failed, 0);
    }
}
