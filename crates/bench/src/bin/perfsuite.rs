//! Performance baseline suite: times the serving fast path end to end and
//! writes `BENCH_perf.json` so every PR leaves a perf trajectory behind.
//!
//! Four timed sections, each with a deterministic work definition so runs
//! are comparable across commits on the same machine:
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
//!   simulation digest.
//!
//! Every section also folds its *simulation-visible* results into a
//! determinism digest, so a perf refactor that changes outputs is caught
//! here as well as in the test suite.
//!
//! A further group covers the quantized data plane: `quant_{f32,f16,i8}_d64`
//! time the fused CSR gather over a dim-64 table in each storage kind
//! (same index stream, so the wall-clock ratio is the bandwidth win of
//! narrow storage; full mode enforces i8 >= 1.8x of f32).
//!
//! Usage:
//!   perfsuite [--smoke] [--out PATH] [--baseline PATH] [--fleet]
//!             [--quant-parity] [--no-enforce-speedup]
//!
//! `--smoke` runs a tiny configuration (CI-sized), writes to
//! `target/BENCH_perf_smoke.json` by default, and validates the emitted
//! JSON schema. `--baseline` points at a previous `BENCH_perf.json`; its
//! `wall_secs` per section are embedded, speedups computed, and any
//! section slower than 0.95x of its baseline fails the run (opt out with
//! `--no-enforce-speedup`). `--quant-parity` runs only the
//! quantized-data-plane checks: f32, f16 and i8 gather digests
//! bit-identical across every available SIMD backend, every rung's f16
//! decode exact on all 65,536 bit patterns, and quantized gathers within
//! their analytic error bounds. `--fleet` adds the 1000-node
//! synthetic fleet scenario as a timed section, `fleet_par`. It and
//! `par_seq` keep their old names so committed baselines still match.

use std::time::Instant;

use elasticrec::{
    plan, Calibration, Platform, ShardedDlrm, Simulation, SimulationConfig, SimulationOutcome,
    Strategy,
};
use er_bench::perf::{self, Digest, PerfReport, Section};
use er_model::{configs, Dlrm, EmbeddingTable, QueryGenerator};
use er_partition::PartitionPlan;
use er_sim::{EventQueue, SimRng};
use er_tensor::quant::f16_to_f32;
use er_tensor::simd::{
    gather_pool_csr_f16_with, gather_pool_csr_i8_with, gather_pool_csr_with, SimdBackend,
};
use er_tensor::{quantize_f16, quantize_i8_rows, Matrix};
use er_units::ElemKind;
use er_workload::TrafficSchedule;

/// Scale knobs for one suite run.
struct Scale {
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
    /// Timed gather calls per storage kind, split across interleaved
    /// rounds by `bench_quant`.
    quant_iters: u64,
    /// Indices pooled per output row in the quantized-gather lookup.
    quant_pooling: usize,
}

const FULL: Scale = Scale {
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

const SMOKE: Scale = Scale {
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

/// Minimum acceptable speedup vs the attached baseline per section.
const SPEEDUP_FLOOR: f64 = 0.95;

#[allow(clippy::disallowed_methods)] // the binary's entry point parses its own arguments
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let quant_parity = args.iter().any(|a| a == "--quant-parity");
    let fleet = args.iter().any(|a| a == "--fleet");
    let enforce_speedup = !args.iter().any(|a| a == "--no-enforce-speedup");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| {
        if smoke {
            "target/BENCH_perf_smoke.json".to_string()
        } else {
            "BENCH_perf.json".to_string()
        }
    });
    let baseline_path = flag_value(&args, "--baseline");

    if quant_parity {
        // The CI stage: f32 gather digests must agree across every SIMD
        // backend this CPU offers, and quantized gathers must stay within
        // their analytic error bounds. Nothing written; nonzero exit on
        // the first violation.
        run_quant_parity();
        return;
    }

    let scale = if smoke { &SMOKE } else { &FULL };

    let mut report = PerfReport::new(if smoke { "smoke" } else { "full" });

    report.push(bench_event_queue(scale));
    report.push(bench_forward(scale));
    report.push(bench_sim("fig19_sim", &fig19_config(scale, 1234)));
    report.push(bench_sim("par_seq", &fig19_config(scale, 4321)));
    for s in bench_quant(scale, !smoke) {
        report.push(s);
    }
    if fleet {
        report.push(bench_sim("fleet_par", &fleet_config()));
    }

    if let Some(path) = &baseline_path {
        match std::fs::read_to_string(path) {
            Ok(text) => report.attach_baseline(&text),
            Err(e) => eprintln!("perfsuite: cannot read baseline {path}: {e}"),
        }
    }

    let json = report.to_json();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write perf report");

    println!("{}", report.summary_table());
    println!("report written to {out_path}");

    // The emitted file must round-trip the schema check — this is what the
    // CI smoke stage relies on.
    let reread = std::fs::read_to_string(&out_path).expect("reread perf report");
    match perf::validate_schema(&reread) {
        Ok(sections) => println!("schema ok ({sections} sections)"),
        Err(e) => {
            eprintln!("perfsuite: schema validation failed: {e}");
            std::process::exit(1);
        }
    }

    // The perf gate: with a baseline attached, any section below the
    // floor fails the suite (wall-time noise budget is the 5% margin).
    if enforce_speedup && baseline_path.is_some() {
        if let Err(e) = report.enforce_speedups(SPEEDUP_FLOOR) {
            eprintln!("perfsuite: speedup floor violated:\n{e}");
            std::process::exit(1);
        }
        println!("speedup floor ok (every section >= {SPEEDUP_FLOOR}x of baseline)");
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
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
fn quant_lookup(rows: u32, inputs: usize, pooling: usize) -> (Vec<u32>, Vec<u32>) {
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
/// Timing is interleaved: each round runs every kind back to back
/// inside the same machine-state window, so a co-tenant burst perturbs
/// one round's ratio instead of one kind's entire wall. The recorded
/// wall is the per-round median scaled to the round count, and the
/// enforced speedup is the median of per-round f32/i8 ratios — both
/// reject transient noise on a shared box. With `enforce` set (full
/// mode), i8 must beat f32 by at least [`QUANT_I8_SPEEDUP_FLOOR`] or
/// the suite exits nonzero.
#[allow(clippy::disallowed_methods)] // benchmarks measure real elapsed time
fn bench_quant(scale: &Scale, enforce: bool) -> Vec<Section> {
    let dim = 64u32;
    let rows = scale.quant_rows;
    let f32_table = EmbeddingTable::with_seed(rows, dim, 97);
    let (indices, offsets) = quant_lookup(rows, 8192, scale.quant_pooling);
    let gathers_per_call = indices.len() as u64;

    const ROUNDS: u64 = 10;
    let per_round = (scale.quant_iters / ROUNDS).max(1);

    let tables: Vec<_> = ElemKind::ALL
        .iter()
        .map(|&kind| f32_table.quantized(kind))
        .collect();
    let mut outs: Vec<Matrix> = tables
        .iter()
        .map(|_| Matrix::zeros(offsets.len(), dim as usize))
        .collect();
    let mut digests = vec![Digest::new(); tables.len()];
    let mut walls = vec![Vec::with_capacity(ROUNDS as usize); tables.len()];

    // Warm-up round (discarded): faults every kind's storage and page
    // tables in; the first post-construction pass runs against caches
    // full of quantization write-back and measures warm-up, not the
    // storage kind.
    for _ in 0..per_round {
        for (table, out) in tables.iter().zip(&mut outs) {
            table.gather_pool_into(&indices, &offsets, out);
        }
    }
    for _ in 0..ROUNDS {
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
            median(&walls[k]) * ROUNDS as f64,
            ROUNDS * per_round * gathers_per_call,
            digests[k],
        ));
    }

    // walls is ordered like ElemKind::ALL = [F32, F16, I8].
    let paired = |num: &[f64], den: &[f64]| -> f64 {
        let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
        median(&ratios)
    };
    let i8_speedup = paired(&walls[0], &walls[2]);
    println!(
        "quant gather d64: f16 {:.2}x, i8 {:.2}x vs f32 (median of {ROUNDS} paired rounds)",
        paired(&walls[0], &walls[1]),
        i8_speedup,
    );
    if enforce && i8_speedup < QUANT_I8_SPEEDUP_FLOOR {
        eprintln!(
            "perfsuite: i8 gather speedup {i8_speedup:.2}x below the \
             {QUANT_I8_SPEEDUP_FLOOR}x floor vs f32"
        );
        std::process::exit(1);
    }
    sections
}

/// Minimum i8-vs-f32 gather speedup the full suite enforces.
const QUANT_I8_SPEEDUP_FLOOR: f64 = 1.8;

/// The `--quant-parity` CI stage: every SIMD backend this CPU offers must
/// produce bit-identical f32, f16 and i8 gathers and decode every f16 bit
/// pattern exactly (absent backends are skipped with an explicit log
/// line), and the quantized gathers must stay within their analytic error
/// bounds against the f32 reference.
fn run_quant_parity() {
    let dim = 64u32;
    let rows = 4096u32;
    let table = EmbeddingTable::with_seed(rows, dim, 97);
    let (indices, offsets) = quant_lookup(rows, 512, 24);

    // Backend parity of the f32, f16 and i8 gathers, over a deterministic
    // buffer: one digest per backend and element kind.
    let raw: Vec<f32> = (0..u64::from(rows) * u64::from(dim))
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
            ((h % 2001) as f32 - 1000.0) / 10_000.0
        })
        .collect();
    let half = quantize_f16(&raw);
    let (codes, scales) = quantize_i8_rows(&raw, dim as usize);
    let backends: Vec<SimdBackend> = SimdBackend::ALL
        .into_iter()
        .filter(|b| {
            if !b.is_available() {
                println!("quant-parity: SKIPPING backend {b}: not available on this CPU");
            }
            b.is_available()
        })
        .collect();
    for kind in [ElemKind::F32, ElemKind::F16, ElemKind::I8] {
        let mut digests = Vec::new();
        for &backend in &backends {
            let mut out = Matrix::zeros(offsets.len(), dim as usize);
            match kind {
                ElemKind::F32 => {
                    gather_pool_csr_with(backend, &raw, rows, &indices, &offsets, &mut out)
                }
                ElemKind::F16 => {
                    gather_pool_csr_f16_with(backend, &half, rows, &indices, &offsets, &mut out)
                }
                ElemKind::I8 => gather_pool_csr_i8_with(
                    backend, &codes, &scales, rows, &indices, &offsets, &mut out,
                ),
            }
            let mut digest = Digest::new();
            for &v in out.as_slice() {
                digest.fold_f64(f64::from(v));
            }
            println!(
                "quant-parity: {kind} backend {backend}: digest {}",
                digest.hex()
            );
            digests.push(digest.hex());
        }
        if digests.iter().any(|d| d != &digests[0]) {
            eprintln!("perfsuite: {kind} gather digests diverged across backends: {digests:?}");
            std::process::exit(1);
        }
    }

    // The f16 decode of every rung against `f16_to_f32` on all 65,536 bit
    // patterns: one lookup per 16-lane row into an output of -0.0, which
    // the add returns unchanged (a signalling NaN comes back quiet, as
    // `f16_to_f32` returns it).
    let every: Vec<u16> = (0..=u16::MAX).collect();
    let lanes = 16;
    let n = (every.len() / lanes) as u32;
    let ids: Vec<u32> = (0..n).collect();
    for &backend in &backends {
        let mut out = Matrix::filled(n as usize, lanes, -0.0);
        gather_pool_csr_f16_with(backend, &every, n, &ids, &ids, &mut out);
        for (&h, &v) in every.iter().zip(out.as_slice()) {
            if v.to_bits() != f16_to_f32(h).to_bits() {
                eprintln!(
                    "perfsuite: {backend} decodes f16 {h:#06x} to {:#010x}",
                    v.to_bits()
                );
                std::process::exit(1);
            }
        }
    }
    println!("quant-parity: f16 decode exact on all 65536 patterns on every backend");

    // Quantized error bounds against the f32 reference.
    let mut reference = Matrix::zeros(1, 1);
    table.gather_pool_into(&indices, &offsets, &mut reference);
    for kind in [ElemKind::F16, ElemKind::I8] {
        let q = table.quantized(kind);
        let mut got = Matrix::zeros(1, 1);
        q.gather_pool_into(&indices, &offsets, &mut got);
        let bound = table.quant_error_bound(kind, &indices, &offsets);
        let mut worst = 0.0f32;
        for r in 0..got.rows() {
            for j in 0..got.cols() {
                let err = (got.get(r, j) - reference.get(r, j)).abs();
                if err > bound.get(r, j) {
                    eprintln!(
                        "perfsuite: {kind} gather error {err} exceeds bound {} at ({r},{j})",
                        bound.get(r, j)
                    );
                    std::process::exit(1);
                }
                worst = worst.max(err / bound.get(r, j).max(f32::MIN_POSITIVE));
            }
        }
        println!("quant-parity: {kind} within analytic bound (worst {worst:.3} of bound)");
    }
    println!(
        "quant parity ok: {} backends agree, quantized errors bounded",
        backends.len()
    );
}
