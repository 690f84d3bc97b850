//! The `perfsuite` library: the timed sections, determinism digests, the
//! `BENCH_perf.json` report format and the baseline check. The binary
//! only parses flags, prints and exits, so the test suite can recompute
//! every section and pin its digest (`tests/digests.rs`).
//!
//! [`run`] times these sections, each with a deterministic work
//! definition so runs are comparable across commits on the same machine:
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
//!   in each storage kind (same index stream, so the wall-clock ratio is
//!   the bandwidth win of narrow storage);
//! * `fleet_par` (optional) — the 1000-node synthetic fleet with a node
//!   failure. It and `par_seq` keep their old names so committed
//!   baselines still match.
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
use std::time::Instant;

use elasticrec::{
    plan, Calibration, Platform, ShardedDlrm, Simulation, SimulationConfig, SimulationOutcome,
    Strategy,
};
use er_model::{configs, Dlrm, EmbeddingTable, QueryGenerator};
use er_partition::PartitionPlan;
use er_sim::{EventQueue, SimRng};
use er_tensor::Matrix;
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
    baseline_wall_secs: Option<f64>,
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
            baseline_wall_secs: None,
            baseline_digest: None,
        }
    }

    /// Section name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Measured wall time in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.wall_secs
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

    /// Speedup vs the attached baseline, if one was attached.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_wall_secs
            .filter(|_| self.wall_secs > 0.0)
            .map(|b| b / self.wall_secs)
    }
}

/// The whole suite run, serializable to `BENCH_perf.json`.
#[derive(Debug, Clone)]
pub struct PerfReport {
    mode: String,
    sections: Vec<Section>,
}

/// The `"schema"` marker every report carries; bump on format changes.
pub const SCHEMA: &str = "elasticrec-perfsuite-v1";

impl PerfReport {
    /// Creates an empty report for the given mode (`"full"` or `"smoke"`).
    pub fn new(mode: &str) -> Self {
        Self {
            mode: mode.to_string(),
            sections: Vec::new(),
        }
    }

    /// Appends a timed section.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Sections recorded so far.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Attaches baseline wall times and digests from a previous report's
    /// JSON text, matched up by section name. Sections missing from the
    /// baseline are left without one.
    pub fn attach_baseline(&mut self, baseline_json: &str) {
        for s in &mut self.sections {
            if let Some(b) = scan_section(baseline_json, &s.name) {
                s.baseline_wall_secs = Some(b.wall_secs);
                s.baseline_digest = Some(b.digest);
            }
        }
    }

    /// Checks this run against a previous report's JSON text: the
    /// baseline must pass [`validate_schema`], and every section of this
    /// run must appear in it with the same digest. Attaches the baseline
    /// (see [`PerfReport::attach_baseline`]) so the summary table marks
    /// each digest `=base` or `DIFFERS`.
    ///
    /// # Errors
    ///
    /// Returns the schema error of a malformed baseline, or one line per
    /// section that is missing from the baseline or whose digest differs.
    pub fn check_baseline(&mut self, baseline_json: &str) -> Result<(), String> {
        validate_schema(baseline_json).map_err(|e| format!("malformed baseline: {e}"))?;
        self.attach_baseline(baseline_json);
        let problems: Vec<String> = self
            .sections
            .iter()
            .filter_map(|s| match &s.baseline_digest {
                None => Some(format!("{} is missing from the baseline", s.name)),
                Some(bd) if bd != &s.digest => Some(format!(
                    "{} digest {} differs from baseline {bd}",
                    s.name, s.digest
                )),
                Some(_) => None,
            })
            .collect();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
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
            if let Some(b) = s.baseline_wall_secs {
                let _ = writeln!(out, "      \"baseline_wall_secs\": {b:.6},");
            }
            if let Some(sp) = s.speedup() {
                let _ = writeln!(out, "      \"speedup\": {sp:.3},");
            }
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

    /// Enforces the perf floor against the attached baseline: every
    /// section that has one must run at `floor` speedup or better.
    /// Sections without a baseline (new sections, renamed sections) are
    /// exempt — they have nothing to regress against.
    ///
    /// # Errors
    ///
    /// Returns one line per offending section.
    pub fn enforce_speedups(&self, floor: f64) -> Result<(), String> {
        let offenders: Vec<String> = self
            .sections
            .iter()
            .filter_map(|s| {
                s.speedup()
                    .filter(|&sp| sp < floor)
                    .map(|sp| format!("{} regressed to {sp:.3}x (floor {floor:.2}x)", s.name))
            })
            .collect();
        if offenders.is_empty() {
            Ok(())
        } else {
            Err(offenders.join("\n"))
        }
    }

    /// Human-readable summary for stdout.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>16} {:>10}  {:<18}",
            "section", "wall(s)", "units/sec", "speedup", "digest"
        );
        for s in &self.sections {
            let speedup = match s.speedup() {
                Some(sp) => format!("{sp:.2}x"),
                None => "-".to_string(),
            };
            let digest_note = match &s.baseline_digest {
                Some(bd) if bd == &s.digest => format!("{} (=base)", s.digest),
                Some(_) => format!("{} (DIFFERS)", s.digest),
                None => s.digest.clone(),
            };
            let _ = writeln!(
                out,
                "{:<14} {:>12.4} {:>16.0} {:>10}  {:<18}",
                s.name,
                s.wall_secs,
                s.units_per_sec(),
                speedup,
                digest_note
            );
        }
        out
    }
}

/// A section as read back from a report file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScannedSection {
    /// Measured wall time in seconds.
    pub wall_secs: f64,
    /// Determinism digest (hex).
    pub digest: String,
}

/// Finds the named section in a report's JSON text and extracts its wall
/// time and digest. Returns `None` when the section (or a field) is absent
/// or malformed — a missing baseline is not an error.
pub fn scan_section(json: &str, name: &str) -> Option<ScannedSection> {
    let marker = format!("\"name\": \"{name}\"");
    let start = json.find(&marker)? + marker.len();
    // The section object ends at the next '}' — fields are flat scalars.
    let end = start + json[start..].find('}')?;
    let body = &json[start..end];
    let wall_secs: f64 = scan_field(body, "wall_secs")?.parse().ok()?;
    let digest = scan_field(body, "digest")?.trim_matches('"').to_string();
    Some(ScannedSection { wall_secs, digest })
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
/// positive wall time, a digest, and a throughput figure. Returns the
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
    let mut rest = json;
    while let Some(pos) = rest.find("\"name\": \"") {
        let after = &rest[pos + 9..];
        let name_end = after
            .find('"')
            .ok_or_else(|| "unterminated section name".to_string())?;
        let name = &after[..name_end];
        let section = scan_section(rest, name)
            .ok_or_else(|| format!("section {name:?} is missing wall_secs or digest"))?;
        if !section.wall_secs.is_finite() || section.wall_secs < 0.0 {
            return Err(format!(
                "section {name:?} has invalid wall_secs {}",
                section.wall_secs
            ));
        }
        if section.digest.len() != 16 || !section.digest.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!(
                "section {name:?} digest {:?} is not a 16-digit hex string",
                section.digest
            ));
        }
        count += 1;
        rest = &after[name_end..];
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
    /// Timed gather calls per storage kind, split across
    /// [`QUANT_ROUNDS`] interleaved rounds by `bench_quant`.
    quant_iters: u64,
    /// Indices pooled per output row in the quantized-gather lookup.
    quant_pooling: usize,
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
    quant_iters: 40,
    quant_pooling: 32,
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
    quant_iters: 3,
    quant_pooling: 8,
};

/// Interleaved timing rounds of the quantized-gather group.
pub const QUANT_ROUNDS: u64 = 10;

/// Minimum i8-vs-f32 gather speedup the full suite enforces.
pub const QUANT_I8_SPEEDUP_FLOOR: f64 = 1.8;

/// Median per-round wall-clock ratios of the quantized gathers against
/// f32 (above 1 means faster than f32).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantSpeedups {
    /// f32 wall over f16 wall.
    pub f16: f64,
    /// f32 wall over i8 wall.
    pub i8: f64,
}

/// Runs every section at `scale` in report order, adding `fleet_par`
/// when `fleet` is set, and returns the report with the quantized-gather
/// speedups.
pub fn run(scale: &Scale, fleet: bool) -> (PerfReport, QuantSpeedups) {
    let mut report = PerfReport::new(scale.mode);
    report.push(bench_event_queue(scale));
    report.push(bench_forward(scale));
    report.push(bench_sim("fig19_sim", &fig19_config(scale, 1234)));
    report.push(bench_sim("par_seq", &fig19_config(scale, 4321)));
    let (quant, speedups) = bench_quant(scale);
    for s in quant {
        report.push(s);
    }
    if fleet {
        report.push(bench_sim("fleet_par", &fleet_config()));
    }
    (report, speedups)
}

/// Event-queue churn: hold `depth` pending events, then pop-one/push-one
/// for `ops` iterations — the steady-state shape of the sim's future-event
/// list. The digest folds every popped timestamp so ordering changes are
/// caught.
#[allow(clippy::disallowed_methods)] // benchmarks measure real elapsed time
fn bench_event_queue(scale: &Scale) -> Section {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::seed_from(7);
    for i in 0..scale.queue_depth {
        q.schedule_in(rng.uniform() * 10.0, i);
    }
    let mut digest = Digest::new();
    let t0 = Instant::now();
    for i in 0..scale.queue_ops {
        let (t, ev) = q.pop().expect("queue holds `depth` pending events");
        digest.fold_f64(t.as_secs());
        digest.fold_u64(ev);
        q.schedule_in(rng.uniform() * 10.0, i);
    }
    let wall = t0.elapsed().as_secs_f64();
    while let Some((t, _)) = q.pop() {
        digest.fold_f64(t.as_secs());
    }
    Section::new("event_queue", wall, scale.queue_ops, digest)
}

/// Steady-state sharded forward passes over a fixed query set — the
/// zero-allocation fast path this suite exists to track. The digest folds
/// every output probability, so the path must stay bit-identical.
#[allow(clippy::disallowed_methods)] // benchmarks measure real elapsed time
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
    let plans = vec![PartitionPlan::new(cuts, rows).expect("valid cuts"); 4];
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
    let t0 = Instant::now();
    for i in 0..scale.forward_iters {
        let out = sharded.forward_ws(&queries[(i % 8) as usize], &mut ws);
        digest.fold_f64(f64::from(out.get(0, 0)));
    }
    let wall = t0.elapsed().as_secs_f64();
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
#[allow(clippy::disallowed_methods)] // benchmarks measure real elapsed time
fn bench_sim(name: &str, cfg: &SimulationConfig) -> Section {
    let calib = Calibration::cpu_only();
    let p = plan(
        &configs::rm1(),
        Platform::CpuOnly,
        Strategy::Elastic,
        &calib,
    );

    let t0 = Instant::now();
    let out = Simulation::run(&p, &calib, cfg);
    let wall = t0.elapsed().as_secs_f64();
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

/// Middle element of the sorted sample (upper median for even sizes).
///
/// # Panics
///
/// Panics if `xs` is empty.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The quantized-gather group: the same dim-64 CSR gather in f32, f16,
/// and i8 storage. At full scale every kind sits well past the private
/// caches, so with cache-line-aligned rows each gather's memory traffic
/// is exactly the kind's row bytes (one line per i8 row, four per f32
/// row) — the bandwidth advantage quantization buys and the effect
/// ElasticRec's cost model prices into placement.
///
/// Timing is interleaved: each of [`QUANT_ROUNDS`] rounds runs every kind
/// back to back inside the same machine-state window, so a co-tenant
/// burst perturbs one round's ratio instead of one kind's entire wall.
/// The recorded wall is the per-round median scaled to the round count,
/// and each returned speedup is the median of per-round ratios — both
/// reject transient noise on a shared box.
#[allow(clippy::disallowed_methods)] // benchmarks measure real elapsed time
fn bench_quant(scale: &Scale) -> (Vec<Section>, QuantSpeedups) {
    let dim = 64u32;
    let rows = scale.quant_rows;
    let f32_table = EmbeddingTable::with_seed(rows, dim, 97);
    let (indices, offsets) = quant_lookup(rows, 8192, scale.quant_pooling);
    let gathers_per_call = indices.len() as u64;

    let per_round = (scale.quant_iters / QUANT_ROUNDS).max(1);

    let tables: Vec<_> = ElemKind::ALL
        .iter()
        .map(|&kind| f32_table.quantized(kind))
        .collect();
    let mut outs: Vec<Matrix> = tables
        .iter()
        .map(|_| Matrix::zeros(offsets.len(), dim as usize))
        .collect();
    let mut digests = vec![Digest::new(); tables.len()];
    let mut walls = vec![Vec::with_capacity(QUANT_ROUNDS as usize); tables.len()];

    // Warm-up round (discarded): faults every kind's storage and page
    // tables in; the first post-construction pass runs against caches
    // full of quantization write-back and measures warm-up, not the
    // storage kind.
    for _ in 0..per_round {
        for (table, out) in tables.iter().zip(&mut outs) {
            table.gather_pool_into(&indices, &offsets, out);
        }
    }
    for _ in 0..QUANT_ROUNDS {
        for k in 0..tables.len() {
            let t0 = Instant::now();
            for _ in 0..per_round {
                tables[k].gather_pool_into(&indices, &offsets, &mut outs[k]);
                digests[k].fold_f64(f64::from(outs[k].get(0, 0)));
            }
            walls[k].push(t0.elapsed().as_secs_f64());
        }
    }

    let mut sections = Vec::new();
    for (k, kind) in ElemKind::ALL.iter().enumerate() {
        // Fold one full pooled row for a stronger fingerprint.
        for j in 0..dim as usize {
            digests[k].fold_f64(f64::from(outs[k].get(0, j)));
        }
        sections.push(Section::new(
            &format!("quant_{kind}_d64"),
            median(&walls[k]) * QUANT_ROUNDS as f64,
            QUANT_ROUNDS * per_round * gathers_per_call,
            digests[k],
        ));
    }

    // walls is ordered like ElemKind::ALL = [F32, F16, I8].
    let paired = |num: &[f64], den: &[f64]| -> f64 {
        let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
        median(&ratios)
    };
    let speedups = QuantSpeedups {
        f16: paired(&walls[0], &walls[1]),
        i8: paired(&walls[0], &walls[2]),
    };
    (sections, speedups)
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
        let s = scan_section(&json, "event_queue").expect("section present");
        assert!((s.wall_secs - 0.25).abs() < 1e-9);
        assert_eq!(s.digest, r.sections()[0].digest());
        assert_eq!(validate_schema(&json), Ok(2));
    }

    #[test]
    fn baseline_attachment_computes_speedup() {
        let baseline = report().to_json();
        let mut current = report();
        current.sections[0].wall_secs = 0.125; // 2x faster
        current.attach_baseline(&baseline);
        let sp = current.sections()[0].speedup().expect("baseline attached");
        assert!((sp - 2.0).abs() < 1e-9);
        let json = current.to_json();
        assert!(json.contains("\"digest_matches_baseline\": true"));
        assert_eq!(validate_schema(&json), Ok(2));
    }

    #[test]
    fn baseline_digest_mismatch_is_reported() {
        let baseline = report().to_json();
        let mut current = report();
        let mut d = Digest::new();
        d.fold_u64(999);
        current.sections[0] = Section::new("event_queue", 0.25, 1000, d);
        current.attach_baseline(&baseline);
        assert!(current
            .to_json()
            .contains("\"digest_matches_baseline\": false"));
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

    #[test]
    fn speedup_floor_passes_and_fails_correctly() {
        let baseline = report().to_json();
        let mut current = report();
        current.attach_baseline(&baseline);
        // Identical wall times: speedup 1.0x, comfortably above 0.95x.
        assert_eq!(current.enforce_speedups(0.95), Ok(()));
        // A 20% regression on one section trips the floor and names it.
        current.sections[1].wall_secs = 2.5;
        let err = current.enforce_speedups(0.95).expect_err("regressed");
        assert!(err.contains("fig19_sim"), "{err}");
        assert!(err.contains("0.800x"), "{err}");
        assert!(!err.contains("event_queue"), "{err}");
    }

    #[test]
    fn speedup_floor_ignores_sections_without_baseline() {
        let mut r = report(); // no baseline attached at all
        r.sections[0].wall_secs = 1e9;
        assert_eq!(r.enforce_speedups(0.95), Ok(()));
    }

    #[test]
    fn missing_baseline_section_is_not_an_error() {
        let mut r = report();
        r.attach_baseline("{\"schema\": \"elasticrec-perfsuite-v1\", \"sections\": []}");
        assert_eq!(r.sections()[0].speedup(), None);
    }
}
