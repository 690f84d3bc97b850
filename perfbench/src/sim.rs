//! The simulation half of a workload: the ElasticRec serving plan driven
//! through `Simulation::run` as a batch job in host time, with open-loop
//! Poisson arrivals inside the simulation.
//!
//! A run simulates a fixed set of sub-seeds derived from the benchmark
//! seed (the modelled-design metrics are their aggregate, so they are
//! deterministic for a seed), then keeps re-running them while the run
//! has time left. Every re-run must reproduce the first run's outcome
//! digest bit for bit; host throughput is the median over all runs.

use std::time::{Duration, Instant};

use elasticrec::{
    plan, Calibration, Platform, ServingPlan, Simulation, SimulationConfig, SimulationOutcome,
    Strategy,
};
use er_model::configs;
use er_sim::SimRng;
use er_workload::TrafficSchedule;

use er_bench::perf::Digest;

use crate::stats::{median, Metrics};

/// What a simulation workload models.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Base rate of the Figure 19 schedule (it steps up to 5x).
    pub base_qps: f64,
    /// Seconds between schedule steps; a run simulates eight steps (five
    /// rising, three at the final rate), as the Figure 19 bench does.
    pub step_secs: f64,
    /// Fail the first provisioned node at this simulated time.
    pub fail_node_at: Option<f64>,
    /// Node budget.
    pub max_nodes: Option<usize>,
    /// Replica ceiling per deployment.
    pub max_replicas: usize,
    /// Distinct simulations per benchmark run: enough that the
    /// seed-to-seed spread of `sim_p95_ms` and `sim_sla_viol_share` stays
    /// within a few percent.
    pub sub_seeds: u64,
}

impl SimSpec {
    fn config(&self, seed: u64) -> SimulationConfig {
        let schedule = TrafficSchedule::figure19(self.base_qps, self.step_secs);
        let mut cfg = SimulationConfig::new(schedule, 8.0 * self.step_secs, seed);
        cfg.fail_node_at = self.fail_node_at;
        cfg.max_nodes = self.max_nodes;
        cfg.max_replicas = self.max_replicas;
        cfg
    }
}

/// The timed setup: the DP plan of full-size RM1 under ElasticRec,
/// repeated `reps` times.
pub struct Planned {
    pub plan: ServingPlan,
    /// Median host seconds of `plan`.
    pub plan_s: f64,
}

pub fn setup(reps: usize) -> Planned {
    let calib = Calibration::cpu_only();
    let model = configs::rm1();
    let mut times = Vec::with_capacity(reps);
    let mut planned = None;
    for _ in 0..reps {
        let t = Instant::now();
        planned = Some(plan(&model, Platform::CpuOnly, Strategy::Elastic, &calib));
        times.push(t.elapsed().as_secs_f64());
    }
    Planned {
        plan: planned.expect("at least one plan repetition"),
        plan_s: median(&times),
    }
}

/// Folds every simulation-visible result: counters, latency percentiles
/// and the full metrics time series.
fn digest(out: &SimulationOutcome) -> Digest {
    let mut d = Digest::new();
    d.fold_u64(out.total_queries);
    d.fold_u64(out.completed_queries);
    d.fold_u64(out.sla_violation_intervals as u64);
    d.fold_u64(out.metric_intervals as u64);
    d.fold_u64(out.final_nodes_used as u64);
    d.fold_f64(out.peak_memory_gib);
    for q in [0.5, 0.95, 0.99] {
        d.fold_f64(out.latency.percentile(q));
    }
    for series in [
        &out.achieved_qps,
        &out.target_qps,
        &out.memory_gib,
        &out.p95_ms,
        &out.total_replicas,
    ] {
        for pt in series.points() {
            d.fold_f64(pt.time);
            d.fold_f64(pt.value);
        }
    }
    d
}

/// Result of the simulation half.
#[derive(Debug)]
pub struct SimResult {
    /// Simulated queries injected across the distinct sub-seeds, plus one
    /// per re-run (each re-run is a determinism check).
    pub attempted: u64,
    /// Queries not completed within the horizon, plus re-runs whose digest
    /// differed from the first run at that sub-seed.
    pub failed: u64,
    pub lost: u64,
    pub injected: u64,
}

/// Runs the sub-seeds one simulation at a time, so `main` can
/// interleave them with forward blocks.
pub struct Runner<'a> {
    planned: &'a Planned,
    calib: Calibration,
    configs: Vec<SimulationConfig>,
    firsts: Vec<(SimulationOutcome, Digest)>,
    host_qps: Vec<f64>,
    host_s: Vec<f64>,
    mismatched: u64,
    runs: usize,
    pub busy: Duration,
}

impl<'a> Runner<'a> {
    pub fn new(spec: &SimSpec, planned: &'a Planned, seed: u64) -> Self {
        let base = SimRng::seed_from(seed);
        Self {
            planned,
            calib: Calibration::cpu_only(),
            configs: (0..spec.sub_seeds)
                .map(|i| spec.config(base.substream(1000 + i).next_u64()))
                .collect(),
            firsts: Vec::new(),
            host_qps: Vec::new(),
            host_s: Vec::new(),
            mismatched: 0,
            runs: 0,
            busy: Duration::ZERO,
        }
    }

    /// Whether every sub-seed has run and at least one re-run checked
    /// determinism.
    pub fn done(&self) -> bool {
        self.runs > self.configs.len()
    }

    /// Runs the next simulation: each sub-seed once, then re-runs in turn.
    pub fn step(&mut self) {
        let k = self.runs % self.configs.len();
        let t = Instant::now();
        let out = Simulation::run(&self.planned.plan, &self.calib, &self.configs[k]);
        let took = t.elapsed();
        self.busy += took;
        self.host_qps
            .push(out.completed_queries as f64 / took.as_secs_f64());
        self.host_s.push(took.as_secs_f64());
        let d = digest(&out);
        if self.runs < self.configs.len() {
            self.firsts.push((out, d));
        } else if self.firsts[k].1 != d {
            self.mismatched += 1;
        }
        self.runs += 1;
    }

    /// Records the end-to-end metrics into `m` and, when given, the
    /// per-layer metrics into `layer`.
    pub fn finish(&self, m: &mut Metrics, layer: Option<&mut Metrics>) -> SimResult {
        let outs: Vec<&SimulationOutcome> = self.firsts.iter().map(|(o, _)| o).collect();
        let mean = |f: &dyn Fn(&SimulationOutcome) -> f64| {
            outs.iter().map(|o| f(o)).sum::<f64>() / outs.len() as f64
        };
        let sum = |f: &dyn Fn(&SimulationOutcome) -> u64| outs.iter().map(|o| f(o)).sum::<u64>();
        let injected = sum(&|o| o.total_queries);
        let lost = injected - sum(&|o| o.completed_queries);
        let violations = sum(&|o| o.sla_violation_intervals as u64);
        let intervals = sum(&|o| o.metric_intervals as u64);
        let interval_s = self.configs[0].metrics_interval_secs;
        m.add("sim_host_qps", median(&self.host_qps), "1/s");
        m.add(
            "sim_p95_ms",
            mean(&|o| o.latency.percentile(0.95) * 1e3),
            "ms",
        );
        m.add(
            "sim_sla_viol_share",
            violations as f64 / intervals as f64,
            "ratio",
        );
        m.add("sim_mem_peak_gib", mean(&|o| o.peak_memory_gib), "GiB");
        m.add(
            "sim_replica_s",
            mean(&|o| {
                o.total_replicas
                    .points()
                    .iter()
                    .map(|p| p.value * interval_s)
                    .sum()
            }),
            "replica-s",
        );
        if let Some(m) = layer {
            let stage = |f: &dyn Fn(&SimulationOutcome) -> f64| mean(&|o| f(o) * 1e3);
            m.add("partition.plan_s", self.planned.plan_s, "s");
            m.add("core.sim_run_s", median(&self.host_s), "s");
            m.add("core.sim_ns_per_query", 1e9 / median(&self.host_qps), "ns");
            m.add(
                "core.stage.frontend_wait_ms",
                stage(&|o| o.stages.frontend_wait.mean()),
                "ms",
            );
            m.add(
                "core.stage.frontend_service_ms",
                stage(&|o| o.stages.frontend_service.mean()),
                "ms",
            );
            m.add(
                "core.stage.sparse_phase_ms",
                stage(&|o| o.stages.sparse_phase.mean()),
                "ms",
            );
            m.add(
                "core.stage.top_wait_ms",
                stage(&|o| o.stages.top_wait.mean()),
                "ms",
            );
            m.add(
                "core.stage.top_service_ms",
                stage(&|o| o.stages.top_service.mean()),
                "ms",
            );
            m.add(
                "core.stage.client_rtt_ms",
                stage(&|o| o.stages.client_rtt.mean()),
                "ms",
            );
            m.add(
                "core.shards",
                self.planned.plan.num_shards() as f64,
                "count",
            );
            m.add(
                "core.replicas_peak",
                outs.iter()
                    .map(|o| o.total_replicas.max_value())
                    .fold(0.0, f64::max),
                "count",
            );
            m.add(
                "core.nodes_final",
                mean(&|o| o.final_nodes_used as f64),
                "count",
            );
        }
        let reruns = (self.runs - self.configs.len()) as u64;
        println!(
            "sim: {} sub-seeds + {reruns} re-runs, {injected} simulated queries, \
             {violations}/{intervals} SLA-violating intervals, {} digest mismatches",
            self.configs.len(),
            self.mismatched
        );
        SimResult {
            attempted: injected + reruns,
            failed: lost + self.mismatched,
            lost,
            injected,
        }
    }
}
