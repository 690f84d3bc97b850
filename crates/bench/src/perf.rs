//! The `perfsuite` library: the timed sections, determinism digests, the
//! paired speed ratios and their floors, the `BENCH_perf.json` report
//! format and the baseline check. The binary only parses flags, prints
//! and exits, so the test suite can recompute every section and pin its
//! digest (`tests/digests.rs`).
//!
//! [`run`] times these sections, each with a deterministic work
//! definition:
//!
//! * `event_queue` — raw schedule/pop throughput of [`er_sim::EventQueue`]
//!   under a churning future-event list (the discrete-event engine's inner
//!   loop);
//! * `forward` — steady-state [`elasticrec::ShardedDlrm`] forward passes
//!   (the functional serving path: remap → bucketize → gather → MLP);
//! * `fig19_sim` — the Figure 19 dynamic-traffic closed loop (arrivals,
//!   fan-out, HPA) at full duration, the wall-clock-dominant workload of
//!   the whole reproduction;
//! * `par_seq` — the same closed loop on a second seed, pinning a second
//!   simulation digest;
//! * `quant_{f32,f16,i8}_d64` — the fused CSR gather over a dim-64 table
//!   in each storage kind (same index stream, so the paired ratio is the
//!   bandwidth win of narrow storage);
//! * `fleet_par` (full scale only) — the 1000-node synthetic fleet with a
//!   node failure. It and `par_seq` keep their old names so committed
//!   baselines still match;
//! * `matmul_rm3`, `gather_f16_rm1`, `route_remap` — serving kernels
//!   paired with their in-process references (naive matmul, the scalar
//!   f16 rung, plan-cut bucketize), checked equal to them bit for bit.
//!
//! Speed is gated only by same-run paired ratios against [`FLOORS`]; the
//! simulation sections and `forward` have no in-process reference, so
//! perfbench's bounded end-to-end metrics gate their speed.
//!
//! Every section folds its *simulation-visible* results into a
//! determinism digest, so a perf refactor that changes outputs is caught
//! here as well as in the test suite.
//!
//! The workspace deliberately has no JSON parser dependency (the vendored
//! `serde` stub only derives), so the report is written by hand and read
//! back by a small scanner that understands exactly this format. That is
//! fine: the file is machine-written by this crate and only ever consumed
//! by this crate and by humans.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use elasticrec::{
    plan, Calibration, Platform, ShardedDlrm, Simulation, SimulationConfig, SimulationOutcome,
    Strategy,
};
use er_distribution::sorting::HotnessPermutation;
use er_distribution::LocalityTarget;
use er_model::{configs, Dlrm, EmbeddingTable, QueryGenerator};
use er_partition::{
    bucketize_into, bucketize_routed_into, BucketizedLookup, PartitionPlan, RouteTable,
};
use er_sim::{EventQueue, SimRng};
use er_tensor::simd::gather_pool_csr_f16_with;
use er_tensor::{quantize_f16, Matrix, SimdBackend};
use er_units::ElemKind;
use er_workload::TrafficSchedule;

/// FNV-1a accumulator over the *bit patterns* of results.
///
/// Folding `f64::to_bits` (not rounded decimal strings) means two runs
/// produce the same digest iff their observable outputs are bit-identical
/// — the contract the zero-allocation refactor must preserve.
///
/// # Examples
///
/// ```
/// use er_bench::perf::Digest;
///
/// let mut a = Digest::new();
/// a.fold_f64(0.1 + 0.2);
/// let mut b = Digest::new();
/// b.fold_f64(0.3);
/// assert_ne!(a.value(), b.value()); // 0.1+0.2 != 0.3 bit-for-bit
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates an empty digest (FNV offset basis).
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds a raw 64-bit value, byte by byte.
    pub fn fold_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds the IEEE-754 bit pattern of `v`.
    pub fn fold_f64(&mut self, v: f64) {
        self.fold_u64(v.to_bits());
    }

    /// Current digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Digest rendered the way the report stores it.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One timed section of the suite.
#[derive(Debug, Clone)]
pub struct Section {
    name: String,
    wall_secs: f64,
    work_units: u64,
    digest: String,
    baseline_digest: Option<String>,
}

impl Section {
    /// Creates a section from a measured wall time over `work_units` of work.
    pub fn new(name: &str, wall_secs: f64, work_units: u64, digest: Digest) -> Self {
        Self {
            name: name.to_string(),
            wall_secs,
            work_units,
            digest: digest.hex(),
            baseline_digest: None,
        }
    }

    /// Section name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Determinism digest (hex).
    pub fn digest(&self) -> &str {
        &self.digest
    }

    /// Work units per second, or 0 if the measurement was too fast to time.
    pub fn units_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.work_units as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// A same-run paired speed ratio: per round, the reference's wall over
/// the candidate's (above 1 means the candidate is faster), summarized
/// as the median and interquartile range over [`ROUNDS`] rounds.
#[derive(Debug, Clone)]
struct Ratio {
    /// The ratio's name, the key of [`FLOORS`].
    name: String,
    /// Candidate and reference, e.g. `packed/naive`.
    pair: String,
    /// Median per-round ratio.
    median: f64,
    /// Third minus first quartile of the per-round ratios.
    iqr: f64,
}

impl Ratio {
    /// The floor [`FLOORS`] sets for this ratio, if any.
    fn floor(&self) -> Option<f64> {
        FLOORS
            .iter()
            .find(|(name, _)| *name == self.name)
            .map(|&(_, floor)| floor)
    }
}

/// The whole suite run, serializable to `BENCH_perf.json`.
#[derive(Debug, Clone)]
pub struct PerfReport {
    mode: String,
    sections: Vec<Section>,
    ratios: Vec<Ratio>,
}

/// The `"schema"` marker every report carries; bump on format changes.
pub const SCHEMA: &str = "elasticrec-perfsuite-v1";

impl PerfReport {
    /// Creates an empty report for the given mode (`"full"` or `"smoke"`).
    pub fn new(mode: &str) -> Self {
        Self {
            mode: mode.to_string(),
            sections: Vec::new(),
            ratios: Vec::new(),
        }
    }

    /// Appends a timed section.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Appends the ratio of a reference's and a candidate's walls, paired
    /// round by round. Quartiles are order statistics: the `q`-quantile
    /// of `n` sorted ratios is the one at index `floor(q * n)`, so the
    /// median of ten rounds is the upper middle one.
    fn pair(&mut self, name: &str, pair: &str, reference: &[f64], candidate: &[f64]) {
        let mut ratios: Vec<f64> = reference
            .iter()
            .zip(candidate)
            .map(|(r, c)| r / c)
            .collect();
        ratios.sort_by(f64::total_cmp);
        let quantile = |q: f64| ratios[(q * ratios.len() as f64) as usize];
        self.ratios.push(Ratio {
            name: name.to_string(),
            pair: pair.to_string(),
            median: quantile(0.5),
            iqr: quantile(0.75) - quantile(0.25),
        });
    }

    /// Sections recorded so far.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Checks this run against a previous report's JSON text: the
    /// baseline must pass [`validate_schema`], and every section of this
    /// run must appear in it with the same digest. Only names and digests
    /// are read; the summary table then marks each digest `=base` or
    /// `DIFFERS`.
    ///
    /// # Errors
    ///
    /// Returns the schema error of a malformed baseline, or one line per
    /// section that is missing from the baseline or whose digest differs.
    pub fn check_baseline(&mut self, baseline_json: &str) -> Result<(), String> {
        validate_schema(baseline_json).map_err(|e| format!("malformed baseline: {e}"))?;
        let mut problems = Vec::new();
        for s in &mut self.sections {
            s.baseline_digest = scan_digest(baseline_json, &s.name);
            match &s.baseline_digest {
                None => problems.push(format!("{} is missing from the baseline", s.name)),
                Some(bd) if bd != &s.digest => problems.push(format!(
                    "{} digest {} differs from baseline {bd}",
                    s.name, s.digest
                )),
                Some(_) => {}
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }

    /// Enforces [`FLOORS`]: every ratio that has a floor must have a
    /// median at or above it. Ratios without a floor never fail.
    ///
    /// # Errors
    ///
    /// Returns one line per ratio below its floor.
    pub fn check_floors(&self) -> Result<(), String> {
        let offenders: Vec<String> = self
            .ratios
            .iter()
            .filter_map(|r| {
                let floor = r.floor().filter(|&f| r.median < f)?;
                Some(format!(
                    "{} {} median {:.2}x is below its {floor:.2}x floor",
                    r.name, r.pair, r.median
                ))
            })
            .collect();
        if offenders.is_empty() {
            Ok(())
        } else {
            Err(offenders.join("\n"))
        }
    }

    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        out.push_str("  \"sections\": [\n");
        for (i, s) in self.sections.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
            let _ = writeln!(out, "      \"wall_secs\": {:.6},", s.wall_secs);
            let _ = writeln!(out, "      \"work_units\": {},", s.work_units);
            let _ = writeln!(out, "      \"units_per_sec\": {:.3},", s.units_per_sec());
            if let Some(bd) = &s.baseline_digest {
                let _ = writeln!(out, "      \"baseline_digest\": \"{bd}\",");
                let _ = writeln!(
                    out,
                    "      \"digest_matches_baseline\": {},",
                    bd == &s.digest
                );
            }
            let _ = writeln!(out, "      \"digest\": \"{}\"", s.digest);
            out.push_str(if i + 1 < self.sections.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable summary for stdout: one line per section, then one
    /// per paired ratio with its floor.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>16}  {:<18}",
            "section", "wall(s)", "units/sec", "digest"
        );
        for s in &self.sections {
            let digest_note = match &s.baseline_digest {
                Some(bd) if bd == &s.digest => format!("{} (=base)", s.digest),
                Some(_) => format!("{} (DIFFERS)", s.digest),
                None => s.digest.clone(),
            };
            let _ = writeln!(
                out,
                "{:<16} {:>12.4} {:>16.0}  {:<18}",
                s.name,
                s.wall_secs,
                s.units_per_sec(),
                digest_note
            );
        }
        let _ = writeln!(
            out,
            "\n{:<26} {:<16} {:>8} {:>6} {:>6}",
            "paired ratio", "pair", "median", "IQR", "floor"
        );
        for r in &self.ratios {
            let floor = r.floor().map_or("-".to_string(), |f| format!("{f:.2}"));
            let _ = writeln!(
                out,
                "{:<26} {:<16} {:>7.2}x {:>6.2} {:>6}",
                r.name, r.pair, r.median, r.iqr, floor
            );
        }
        out
    }
}

/// The `(name, body)` of every section in a report's JSON text. A body
/// ends at the next '}', since section fields are flat scalars.
fn scan_sections(json: &str) -> impl Iterator<Item = (&str, &str)> {
    json.split("\"name\": \"").skip(1).map(|chunk| {
        let (name, rest) = chunk.split_once('"').unwrap_or((chunk, ""));
        (name, &rest[..rest.find('}').unwrap_or(rest.len())])
    })
}

/// The digest of the named section, if the report has one.
fn scan_digest(json: &str, name: &str) -> Option<String> {
    let (_, body) = scan_sections(json).find(|&(n, _)| n == name)?;
    Some(scan_field(body, "digest")?.trim_matches('"').to_string())
}

/// Extracts the raw token following `"key": ` within `body`.
fn scan_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\": ");
    let start = body.find(&marker)? + marker.len();
    let rest = &body[start..];
    let end = rest.find([',', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Validates that `json` looks like a well-formed perfsuite report:
/// schema marker, at least one section, and every section carrying a
/// finite, non-negative wall time and a 16-digit hex digest. Returns the
/// section count.
///
/// # Errors
///
/// Returns a human-readable description of the first violated rule.
pub fn validate_schema(json: &str) -> Result<usize, String> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing schema marker {SCHEMA:?}"));
    }
    if scan_field(json, "mode").is_none() {
        return Err("missing \"mode\" field".to_string());
    }
    let mut count = 0;
    for (name, body) in scan_sections(json) {
        let missing = || format!("section {name:?} is missing wall_secs or digest");
        let wall = scan_field(body, "wall_secs").ok_or_else(missing)?;
        let digest = scan_field(body, "digest")
            .ok_or_else(missing)?
            .trim_matches('"');
        if !wall.parse::<f64>().is_ok_and(|w| w.is_finite() && w >= 0.0) {
            return Err(format!("section {name:?} has invalid wall_secs {wall}"));
        }
        if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!(
                "section {name:?} digest {digest:?} is not a 16-digit hex string"
            ));
        }
        count += 1;
    }
    if count == 0 {
        return Err("report contains no sections".to_string());
    }
    Ok(count)
}

/// Scale knobs for one suite run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Report mode, `"full"` or `"smoke"`.
    mode: &'static str,
    /// Events pushed through the event-queue churn loop.
    queue_ops: u64,
    /// Pending events held in the queue while churning.
    queue_depth: u64,
    /// Forward passes timed after warmup.
    forward_iters: u64,
    /// Embedding rows per table in the forward model.
    forward_rows: u64,
    /// Simulated seconds of the fig19 schedule.
    sim_duration: f64,
    /// Base QPS of the fig19 stepped schedule (peaks at 5x).
    sim_base_qps: f64,
    /// Embedding rows in the quantized-gather table (dim 64). Full scale
    /// puts every kind well past the private caches (f32 ~102 MB, i8
    /// ~26 MB) with hash-scattered indices, so each gather pays the
    /// memory hierarchy per row and — with cache-line-aligned storage —
    /// the kinds' line traffic is exactly their byte ratio. This is the
    /// regime where narrow storage pays and the paper's placement model
    /// applies.
    quant_rows: u32,
    /// Gather calls per round of each storage kind.
    quant_reps: u64,
    /// Indices pooled per output row in the quantized-gather lookup.
    quant_pooling: usize,
    /// Calls per round of each matmul in `matmul_rm3`.
    matmul_reps: u64,
    /// Calls per round of each rung and shard in `gather_f16_rm1`.
    gather_reps: u64,
    /// Rows per table in `route_remap`; the cuts keep their share of
    /// the 500k-row `sparse_ramp` table.
    route_rows: u64,
    /// Remap+bucketize passes over all ten tables per round and path in
    /// `route_remap`.
    route_reps: u64,
}

/// The scale `BENCH_perf.json` is recorded at.
pub const FULL: Scale = Scale {
    mode: "full",
    queue_ops: 4_000_000,
    queue_depth: 4096,
    forward_iters: 400,
    forward_rows: 2000,
    sim_duration: 320.0,
    sim_base_qps: 60.0,
    quant_rows: 400_000,
    quant_reps: 4,
    quant_pooling: 32,
    matmul_reps: 8,
    gather_reps: 1000,
    route_rows: 500_000,
    route_reps: 100,
};

/// The CI-sized scale whose digests `tests/digests.rs` pins.
pub const SMOKE: Scale = Scale {
    mode: "smoke",
    queue_ops: 50_000,
    queue_depth: 256,
    forward_iters: 5,
    forward_rows: 300,
    sim_duration: 20.0,
    sim_base_qps: 20.0,
    quant_rows: 2_000,
    quant_reps: 1,
    quant_pooling: 8,
    matmul_reps: 1,
    gather_reps: 1,
    route_rows: 20_000,
    route_reps: 1,
};

/// Interleaved timing rounds of every paired section.
const ROUNDS: usize = 10;

/// The speed gate of the full suite: each named [`Ratio`]'s median must
/// reach its floor. A ratio is taken against an in-process reference in
/// the same run, so the host's speed cancels out. The kernel floors sit
/// at or below 80% of the lowest median seen over thirty full runs on a
/// 2-vCPU AVX-512 VM (EXPERIMENTS.md, "Paired perf gates").
pub const FLOORS: [(&str, f64); 5] = [
    ("quant_i8_d64", 1.8),
    ("matmul_rm3", 4.0),
    ("gather_f16_rm1_hot", 6.5),
    ("gather_f16_rm1_cold", 4.5),
    ("route_remap", 1.1),
];

/// Runs every section at `scale` in report order. `fleet_par` runs at
/// full scale only: its 1000-node fleet is one fixed scenario, too heavy
/// for smoke scale.
pub fn run(scale: &Scale) -> PerfReport {
    let mut report = PerfReport::new(scale.mode);
    report.push(bench_event_queue(scale));
    report.push(bench_forward(scale));
    report.push(bench_sim("fig19_sim", &fig19_config(scale, 1234)));
    report.push(bench_sim("par_seq", &fig19_config(scale, 4321)));
    bench_quant(scale, &mut report);
    if scale.mode == FULL.mode {
        report.push(bench_sim("fleet_par", &fleet_config()));
    }
    bench_matmul(scale, &mut report);
    bench_gather_f16(scale, &mut report);
    bench_route(scale, &mut report);
    report
}

/// Event-queue churn: hold `depth` pending events, then pop-one/push-one
/// for `ops` iterations — the steady-state shape of the sim's future-event
/// list. The digest folds every popped timestamp so ordering changes are
/// caught.
fn bench_event_queue(scale: &Scale) -> Section {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::seed_from(7);
    for i in 0..scale.queue_depth {
        q.schedule_in(rng.uniform() * 10.0, i);
    }
    let mut digest = Digest::new();
    let ((), wall) = timed(|| {
        for i in 0..scale.queue_ops {
            #[expect(
                clippy::expect_used,
                reason = "every pop is followed by a push, so the queue never drains"
            )]
            let (t, ev) = q.pop().expect("queue holds `depth` pending events");
            digest.fold_f64(t.as_secs());
            digest.fold_u64(ev);
            q.schedule_in(rng.uniform() * 10.0, i);
        }
    });
    while let Some((t, _)) = q.pop() {
        digest.fold_f64(t.as_secs());
    }
    Section::new("event_queue", wall, scale.queue_ops, digest)
}

/// Steady-state sharded forward passes over a fixed query set — the
/// zero-allocation fast path this suite exists to track. The digest folds
/// every output probability, so the path must stay bit-identical.
fn bench_forward(scale: &Scale) -> Section {
    let cfg = configs::rm1()
        .scaled_tables(scale.forward_rows)
        .with_num_tables(4);
    let model = Dlrm::with_seed(&cfg, 11);
    let rows = scale.forward_rows;
    let counts: Vec<Vec<u64>> = (0..4)
        .map(|t| {
            (0..rows)
                .map(|i| ((i * 7919 + t as u64 * 31) % rows) + 1)
                .collect()
        })
        .collect();
    let cuts = vec![rows / 10, rows / 2, rows];
    #[expect(
        clippy::expect_used,
        reason = "fixed cuts, increasing and ending at the row count"
    )]
    let plans = vec![PartitionPlan::new(cuts, rows).expect("valid cuts"); 4];
    #[expect(
        clippy::expect_used,
        reason = "one valid plan and one count vector per table"
    )]
    let sharded = ShardedDlrm::new(model, &counts, plans).expect("valid sharding");

    let gen = QueryGenerator::new(&cfg);
    let mut rng = SimRng::seed_from(3);
    let queries: Vec<_> = (0..8).map(|_| gen.generate(&mut rng)).collect();

    // Warm the workspace (and caches) so the timed region is the true
    // steady state: zero allocations per forward pass.
    let mut ws = sharded.workspace();
    for q in &queries {
        let _ = sharded.forward_ws(q, &mut ws);
    }
    let mut digest = Digest::new();
    let ((), wall) = timed(|| {
        for i in 0..scale.forward_iters {
            let out = sharded.forward_ws(&queries[(i % 8) as usize], &mut ws);
            digest.fold_f64(f64::from(out.get(0, 0)));
        }
    });
    // Fold full output of one pass for a stronger fingerprint.
    let out = sharded.forward_ws(&queries[0], &mut ws);
    for r in 0..out.rows() {
        digest.fold_f64(f64::from(out.get(r, 0)));
    }
    Section::new("forward", wall, scale.forward_iters, digest)
}

/// Times one [`Simulation::run`] of `cfg` on the Elastic RM1 plan. Work
/// units are completed queries; the digest folds the whole outcome, so
/// any event-ordering change anywhere in the run moves it.
fn bench_sim(name: &str, cfg: &SimulationConfig) -> Section {
    let calib = Calibration::cpu_only();
    let p = plan(
        &configs::rm1(),
        Platform::CpuOnly,
        Strategy::Elastic,
        &calib,
    );

    let (out, wall) = timed(|| Simulation::run(&p, &calib, cfg));
    Section::new(name, wall, out.completed_queries, digest_outcome(&out))
}

/// The Figure 19 dynamic-traffic closed loop at the suite's scale.
/// `fig19_sim` and `par_seq` run it on two seeds, so a change that happens
/// to leave one digest intact still has a second one to move.
fn fig19_config(scale: &Scale, seed: u64) -> SimulationConfig {
    let schedule = TrafficSchedule::figure19(scale.sim_base_qps, scale.sim_duration / 8.0);
    SimulationConfig::new(schedule, scale.sim_duration, seed)
}

/// The 1000-node synthetic fleet: a heavy Figure 19-class scenario with a
/// hard 1000-node budget, a deep replica ceiling and a node failure.
/// Exercises the engine under sustained HPA churn and large pod sets
/// rather than at toy cluster sizes.
fn fleet_config() -> SimulationConfig {
    let schedule = TrafficSchedule::figure19(400.0, 30.0);
    let mut cfg = SimulationConfig::new(schedule, 240.0, 77);
    cfg.max_nodes = Some(1000);
    cfg.max_replicas = 2048;
    cfg.fail_node_at = Some(90.0);
    cfg
}

/// Folds a simulation outcome bit-for-bit: counters, latency percentiles,
/// and the full metrics time series. Any event-ordering change anywhere in
/// a run lands in this value.
fn digest_outcome(out: &SimulationOutcome) -> Digest {
    let mut digest = Digest::new();
    digest.fold_u64(out.total_queries);
    digest.fold_u64(out.completed_queries);
    digest.fold_u64(out.sla_violation_intervals as u64);
    digest.fold_u64(out.metric_intervals as u64);
    digest.fold_u64(out.final_nodes_used as u64);
    digest.fold_f64(out.peak_memory_gib);
    digest.fold_f64(out.latency.percentile(0.5));
    digest.fold_f64(out.latency.percentile(0.95));
    digest.fold_f64(out.latency.percentile(0.99));
    for series in [
        &out.achieved_qps,
        &out.target_qps,
        &out.memory_gib,
        &out.p95_ms,
        &out.total_replicas,
    ] {
        for pt in series.points() {
            digest.fold_f64(pt.time);
            digest.fold_f64(pt.value);
        }
    }
    digest
}

/// Deterministic CSR lookup over `rows`: `inputs` bags of `pooling`
/// hash-scattered indices, so repeated gathers stream the whole table
/// instead of re-hitting a small cached working set.
pub fn quant_lookup(rows: u32, inputs: usize, pooling: usize) -> (Vec<u32>, Vec<u32>) {
    let mut indices = Vec::with_capacity(inputs * pooling);
    let mut offsets = Vec::with_capacity(inputs);
    for input in 0..inputs as u64 {
        offsets.push(indices.len() as u32);
        for k in 0..pooling as u64 {
            let h = (input * 131 + k)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(29);
            indices.push((h % u64::from(rows)) as u32);
        }
    }
    (indices, offsets)
}

/// Runs `f` once and returns its result with the wall seconds it took.
#[allow(
    clippy::disallowed_methods,
    reason = "benchmarks measure real elapsed time"
)]
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Times `runs` closures in [`ROUNDS`] interleaved rounds after one
/// discarded warm-up round, and returns each run's per-round walls in
/// seconds. Each round calls `run(0)`, then `run(1)`, … `per_round` times
/// each, so a co-tenant burst perturbs one round of every run alike
/// instead of one run's whole wall; [`PerfReport::pair`] then compares the
/// runs round by round. Each call's result goes through `black_box`, so
/// the timed work cannot be optimized away.
fn paired_rounds<R>(runs: usize, per_round: u64, mut run: impl FnMut(usize) -> R) -> Vec<Vec<f64>> {
    let mut walls = vec![Vec::with_capacity(ROUNDS); runs];
    for round in 0..=ROUNDS {
        for (k, wall) in walls.iter_mut().enumerate() {
            let ((), secs) = timed(|| {
                for _ in 0..per_round {
                    black_box(run(k));
                }
            });
            if round > 0 {
                wall.push(secs);
            }
        }
    }
    walls
}

/// A run's median round wall, scaled to the whole [`ROUNDS`] rounds.
fn round_wall(walls: &[f64]) -> f64 {
    let mut v = walls.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2] * ROUNDS as f64
}

/// The quantized-gather group: the same dim-64 CSR gather in f32, f16,
/// and i8 storage, paired against f32. At full scale every kind sits
/// well past the private caches, so with cache-line-aligned rows each
/// gather's memory traffic is exactly the kind's row bytes (one line per
/// i8 row, four per f32 row) — the bandwidth advantage quantization buys
/// and the effect ElasticRec's cost model prices into placement.
fn bench_quant(scale: &Scale, report: &mut PerfReport) {
    let dim = 64u32;
    let rows = scale.quant_rows;
    let f32_table = EmbeddingTable::with_seed(rows, dim, 97);
    let (indices, offsets) = quant_lookup(rows, 8192, scale.quant_pooling);
    let calls = ROUNDS as u64 * scale.quant_reps;

    let tables: Vec<_> = ElemKind::ALL
        .iter()
        .map(|&kind| f32_table.quantized(kind))
        .collect();
    let mut outs: Vec<Matrix> = tables
        .iter()
        .map(|_| Matrix::zeros(offsets.len(), dim as usize))
        .collect();
    let walls = paired_rounds(tables.len(), scale.quant_reps, |k| {
        tables[k].gather_pool_into(&indices, &offsets, &mut outs[k]);
        outs[k].get(0, 0)
    });

    // ElemKind::ALL = [F32, F16, I8]: f32 is the reference.
    for (k, kind) in ElemKind::ALL.iter().enumerate() {
        let name = format!("quant_{kind}_d64");
        // The gather is deterministic, so the last timed call's output
        // stands for every call: the first pooled value is folded once per
        // timed call, then the whole first row.
        let mut digest = Digest::new();
        for _ in 0..calls {
            digest.fold_f64(f64::from(outs[k].get(0, 0)));
        }
        for j in 0..dim as usize {
            digest.fold_f64(f64::from(outs[k].get(0, j)));
        }
        let units = calls * indices.len() as u64;
        report.push(Section::new(&name, round_wall(&walls[k]), units, digest));
        if k > 0 {
            let pair = format!("{kind}/f32");
            report.pair(&name, &pair, &walls[0], &walls[k]);
        }
    }
}

/// Seeded uniform matrix in [-1, 1) with one value in five an exact
/// zero, like the ReLU outputs the kernels see in serving.
#[expect(
    clippy::expect_used,
    reason = "the data vector holds exactly rows * cols values"
)]
fn scrambled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SimRng::seed_from(seed);
    let data = (0..rows * cols)
        .map(|_| match rng.index(5) {
            0 => 0.0,
            _ => rng.uniform_range(-1.0, 1.0) as f32,
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized to rows*cols")
}

/// The bit patterns of `m`'s values, for bit-for-bit comparison.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `matmul_rm3`: the packed matmul against the naive one at the RM3
/// bottom-MLP shape (32×2560×512), which dominates the dense forward
/// pass. Work units are FLOPs, so units/s reads as FLOP/s.
#[expect(
    clippy::expect_used,
    reason = "the operands are built conforming, m x k times k x n"
)]
fn bench_matmul(scale: &Scale, report: &mut PerfReport) {
    let (m, k, n) = (32, 2560, 512);
    let a = scrambled(m, k, (m + k) as u64);
    let b = scrambled(k, n, (k + n) as u64);
    let packed_b = b.packed();
    let mut packed = Matrix::zeros(m, n);
    a.matmul_packed_into(&packed_b, &mut packed)
        .expect("conforming");
    let reference = bits(&a.matmul(&b).expect("conforming"));
    assert_eq!(
        bits(&packed),
        reference,
        "packed matmul must equal the naive matmul bit for bit"
    );
    let mut digest = Digest::new();
    for &v in &reference {
        digest.fold_f64(f64::from(f32::from_bits(v)));
    }

    let walls = paired_rounds(2, scale.matmul_reps, |run| {
        if run == 0 {
            a.matmul(&b).expect("conforming").get(0, 0)
        } else {
            a.matmul_packed_into(&packed_b, &mut packed)
                .expect("conforming");
            packed.get(0, 0)
        }
    });
    let flops = 2 * (m * k * n) as u64 * ROUNDS as u64 * scale.matmul_reps;
    let wall = round_wall(&walls[1]);
    report.push(Section::new("matmul_rm3", wall, flops, digest));
    report.pair("matmul_rm3", "packed/naive", &walls[0], &walls[1]);
}

/// `gather_f16_rm1`: the RM1 sparse shards' f16 gather at the serving
/// shape — 3,122 lookups in 32 inputs, dim 32 — on the hot shard
/// (3,712 rows, cache-resident) and a cold one (251,823 rows). Every
/// available SIMD rung is paired against the scalar rung; the ratio of
/// the rung [`SimdBackend::detect`] picks is named for its shard and
/// gated, the others carry the rung in their name. The section's wall and
/// units are the detected rung's over both shards.
fn bench_gather_f16(scale: &Scale, report: &mut PerfReport) {
    let (dim, lookups, inputs) = (32, 3_122, 32);
    let detected = SimdBackend::detect();
    let rungs: Vec<SimdBackend> = SimdBackend::ALL
        .into_iter()
        .filter(|r| r.is_available())
        .collect();
    if rungs.len() == 1 {
        println!("gather_f16_rm1: SKIPPING paired ratios: only the scalar rung is available");
    }
    let mut digest = Digest::new();
    let mut wall = 0.0;
    for (shard, rows) in [("hot", 3_712u32), ("cold", 251_823)] {
        let table = quantize_f16(scrambled(rows as usize, dim, 7).as_slice());
        let indices: Vec<u32> = (0..lookups as u64)
            .map(|i| {
                (i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) % u64::from(rows)) as u32
            })
            .collect();
        let offsets: Vec<u32> = (0..inputs).map(|i| (i * lookups / inputs) as u32).collect();
        // The gather adds into `out`, so each checked pass starts from
        // zeros; the timed calls keep accumulating into one output.
        let gather = |rung: SimdBackend, out: &mut Matrix| {
            gather_pool_csr_f16_with(rung, &table, rows, &indices, &offsets, out);
            out.get(0, 0)
        };
        let pooled = |rung: SimdBackend| {
            let mut out = Matrix::zeros(inputs, dim);
            gather(rung, &mut out);
            bits(&out)
        };

        // rungs[0] is the scalar reference.
        let pools: Vec<Vec<u32>> = rungs.iter().map(|&r| pooled(r)).collect();
        assert!(
            pools.iter().all(|p| p == &pools[0]),
            "every rung of {rungs:?} must gather as the scalar rung does, bit for bit"
        );
        for &bits in &pools[0] {
            digest.fold_f64(f64::from(f32::from_bits(bits)));
        }

        let mut out = Matrix::zeros(inputs, dim);
        let walls = paired_rounds(rungs.len(), scale.gather_reps, |k| {
            gather(rungs[k], &mut out)
        });
        for (k, &rung) in rungs.iter().enumerate().skip(1) {
            let name = if rung == detected {
                format!("gather_f16_rm1_{shard}")
            } else {
                format!("gather_f16_rm1_{shard}_{rung}")
            };
            let pair = format!("{rung}/scalar");
            report.pair(&name, &pair, &walls[0], &walls[k]);
        }
        let detected_run = rungs.iter().position(|&r| r == detected).unwrap_or(0);
        wall += round_wall(&walls[detected_run]);
    }
    let units = 2 * lookups as u64 * ROUNDS as u64 * scale.gather_reps;
    report.push(Section::new("gather_f16_rm1", wall, units, digest));
}

/// `route_remap`: remap + bucketize per query at the `sparse_ramp` shape —
/// 10 tables hotness-sorted from seeded random counts and cut where that
/// workload's scaled RM1 plan cuts, each with 32 inputs × 128 Zipf
/// (P = 0.90) lookups. The route path loads one route word per id and
/// decodes it in [`bucketize_routed_into`], as `forward_ws` does; the
/// reference remaps through [`HotnessPermutation::to_sorted`] and
/// searches the cuts in [`bucketize_into`]. Work units are lookups.
fn bench_route(scale: &Scale, report: &mut PerfReport) {
    let rows = scale.route_rows;
    let cuts = [3_712u64, 61_143, 248_177]
        .iter()
        .map(|c| c * rows / 500_000)
        .chain([rows])
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "fixed cuts, scaled monotonically and ending at the row count"
    )]
    let plan = PartitionPlan::new(cuts, rows).expect("increasing cuts ending at the row count");
    let cdf = LocalityTarget::new(0.90).solve(rows).tabulate();
    let mut rng = SimRng::seed_from(5);
    let tables: Vec<(HotnessPermutation, RouteTable, Vec<u32>)> = (0..10)
        .map(|_| {
            let counts: Vec<u64> = (0..rows).map(|_| rng.index(1 << 20) as u64).collect();
            let perm = HotnessPermutation::from_counts(&counts);
            #[expect(
                clippy::expect_used,
                reason = "four shards of at most 500k rows fit a route word"
            )]
            let route = RouteTable::new(&plan, &perm).expect("the rows fit a route word");
            // Zipf ranks, 1-based, drawn over the hotness order.
            let lookups = (0..32 * 128)
                .map(|_| perm.to_original(cdf.quantile(rng.uniform()) as u32 - 1))
                .collect();
            (perm, route, lookups)
        })
        .collect();
    let offsets: Vec<u32> = (0..32).map(|i| i * 128).collect();
    let mut remapped = Vec::new();
    let empty = || BucketizedLookup {
        indices: Vec::new(),
        offsets: Vec::new(),
    };
    let (mut planned, mut routed) = (empty(), empty());
    let mut remap_bucketize = |run: usize, table: usize, out: &mut BucketizedLookup| {
        let (perm, route, lookups) = &tables[table];
        remapped.clear();
        if run == 0 {
            remapped.extend(lookups.iter().map(|&i| perm.to_sorted(i)));
            bucketize_into(&remapped, &offsets, &plan, out);
        } else {
            remapped.extend(lookups.iter().map(|&i| route.word(i)));
            bucketize_routed_into(&remapped, &offsets, route, out);
        }
    };

    let mut digest = Digest::new();
    for t in 0..tables.len() {
        remap_bucketize(0, t, &mut planned);
        remap_bucketize(1, t, &mut routed);
        assert_eq!(
            planned, routed,
            "the route path must bucketize table {t} as the plan path does"
        );
        for (indices, offsets) in routed.indices.iter().zip(&routed.offsets) {
            for &v in indices.iter().chain(offsets) {
                digest.fold_u64(u64::from(v));
            }
        }
    }

    let walls = paired_rounds(2, scale.route_reps, |run| {
        for t in 0..tables.len() {
            remap_bucketize(run, t, &mut routed);
        }
        routed.indices[0].len()
    });
    let units = (10 * 32 * 128) as u64 * ROUNDS as u64 * scale.route_reps;
    let wall = round_wall(&walls[1]);
    report.push(Section::new("route_remap", wall, units, digest));
    report.pair("route_remap", "route/plan", &walls[0], &walls[1]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PerfReport {
        let mut d1 = Digest::new();
        d1.fold_f64(1.5);
        let mut d2 = Digest::new();
        d2.fold_u64(7);
        let mut r = PerfReport::new("smoke");
        r.push(Section::new("event_queue", 0.25, 1000, d1));
        r.push(Section::new("fig19_sim", 2.0, 500, d2));
        r
    }

    fn ratio(name: &str, median: f64) -> Ratio {
        Ratio {
            name: name.to_string(),
            pair: "new/old".to_string(),
            median,
            iqr: 0.1,
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.fold_u64(1);
        a.fold_u64(2);
        let mut b = Digest::new();
        b.fold_u64(2);
        b.fold_u64(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn digest_distinguishes_negative_zero() {
        let mut a = Digest::new();
        a.fold_f64(0.0);
        let mut b = Digest::new();
        b.fold_f64(-0.0);
        assert_ne!(a.value(), b.value(), "digest must be bit-exact, not ==");
    }

    #[test]
    fn report_round_trips_through_scanner() {
        let r = report();
        let json = r.to_json();
        let digest = scan_digest(&json, "event_queue").expect("section present");
        assert_eq!(digest, r.sections()[0].digest());
        assert!(json.contains("\"wall_secs\": 0.250000,"));
        assert_eq!(validate_schema(&json), Ok(2));
    }

    #[test]
    fn paired_ratio_is_the_median_and_iqr_of_round_ratios() {
        // Per-round ratios, reference over candidate: 2, 4, 1, 3, 5, 2.5,
        // 1.5, 6, 3.5, 0.5; sorted 0.5 1 1.5 2 2.5 3 3.5 4 5 6. With ten
        // rounds the quartiles sit at indices 2, 5 and 7: 1.5, 3 and 4.
        let reference = [2.0, 8.0, 1.0, 6.0, 5.0, 5.0, 3.0, 6.0, 7.0, 1.0];
        let candidate = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0];
        let mut r = report();
        r.pair("matmul_rm3", "packed/naive", &reference, &candidate);
        assert_eq!((r.ratios[0].median, r.ratios[0].iqr), (3.0, 2.5));
        // A burst that slows one round of both runs alike cancels out.
        r.pair("x", "a/b", &[2.0, 2.0, 200.0], &[1.0, 1.0, 100.0]);
        assert_eq!((r.ratios[1].median, r.ratios[1].iqr), (2.0, 0.0));
    }

    #[test]
    fn ratio_under_its_floor_fails_naming_section_ratio_and_floor() {
        let (name, floor) = FLOORS[0];
        let mut r = report();
        r.ratios.push(ratio(name, floor));
        assert_eq!(r.check_floors(), Ok(()), "a ratio at its floor passes");
        r.ratios.push(ratio(name, floor * 0.5));
        let err = r.check_floors().expect_err("under its floor");
        assert!(err.contains(name), "{err}");
        assert!(err.contains(&format!("{:.2}x", floor * 0.5)), "{err}");
        assert!(err.contains(&format!("{floor:.2}x floor")), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
    }

    #[test]
    fn ratio_without_a_floor_never_fails() {
        let mut r = report();
        r.ratios.push(ratio("quant_f16_d64", 1e-9));
        r.ratios.push(ratio("gather_f16_rm1_hot_avx2", 0.0));
        assert_eq!(r.ratios[0].floor(), None);
        assert_eq!(r.check_floors(), Ok(()));
    }

    #[test]
    fn baseline_check_ignores_wall_times() {
        let mut baseline = report();
        for s in &mut baseline.sections {
            s.wall_secs *= 100.0;
        }
        let mut current = report();
        assert_eq!(current.check_baseline(&baseline.to_json()), Ok(()));
    }

    #[test]
    fn baseline_digest_mismatch_is_reported() {
        let baseline = report().to_json();
        let mut current = report();
        let mut d = Digest::new();
        d.fold_u64(999);
        current.sections[0] = Section::new("event_queue", 0.25, 1000, d);
        assert!(current.check_baseline(&baseline).is_err());
        assert!(current
            .to_json()
            .contains("\"digest_matches_baseline\": false"));
    }

    #[test]
    fn baseline_attachment_computes_speedup() {
        let baseline = report();
        let mut current = report();
        current.sections[0].wall_secs = 0.125; // 2x faster
        assert_eq!(current.check_baseline(&baseline.to_json()), Ok(()));
        let sp = current.sections()[0].units_per_sec() / baseline.sections()[0].units_per_sec();
        assert!((sp - 2.0).abs() < 1e-9);
        let json = current.to_json();
        assert!(json.contains("\"digest_matches_baseline\": true"));
        assert_eq!(validate_schema(&json), Ok(2));
    }

    #[test]
    fn baseline_check_passes_on_identical_digests() {
        let mut current = report();
        assert_eq!(current.check_baseline(&report().to_json()), Ok(()));
        assert!(current.summary_table().contains("(=base)"));
    }

    #[test]
    fn baseline_check_fails_on_digest_mismatch() {
        let baseline = report().to_json();
        let mut current = report();
        let mut d = Digest::new();
        d.fold_u64(999);
        current.sections[1] = Section::new("fig19_sim", 2.0, 500, d);
        let err = current.check_baseline(&baseline).expect_err("mismatch");
        assert!(err.contains("fig19_sim digest"), "{err}");
        assert!(!err.contains("event_queue"), "{err}");
        assert!(current.summary_table().contains("(DIFFERS)"));
    }

    #[test]
    fn baseline_check_fails_on_missing_section() {
        let baseline = report().to_json();
        let mut current = report();
        current.push(Section::new("fleet_par", 1.0, 10, Digest::new()));
        let err = current.check_baseline(&baseline).expect_err("missing");
        assert_eq!(err, "fleet_par is missing from the baseline");
    }

    #[test]
    fn baseline_check_fails_on_malformed_baseline() {
        let json = report().to_json();
        for bad in [
            String::new(),
            json.replace(SCHEMA, "bogus"),
            json.replace("\"digest\": \"", "\"digest\": \"zz"),
            json[..json.find("\"digest\"").expect("has a digest")].to_string(),
        ] {
            let err = report().check_baseline(&bad).expect_err("malformed");
            assert!(err.starts_with("malformed baseline"), "{err}");
        }
    }

    #[test]
    fn validator_rejects_malformed_reports() {
        assert!(validate_schema("{}").is_err());
        let json = report().to_json();
        assert!(validate_schema(&json.replace(SCHEMA, "bogus")).is_err());
        assert!(validate_schema(&json.replace("wall_secs", "wall_sex")).is_err());
        let broken = json.replace(
            &report().sections()[0].digest().to_string(),
            "nothexnothexnoth",
        );
        assert!(validate_schema(&broken).is_err());
    }
}
