//! The sharded serving simulation: the sequential engine of
//! [`crate::engine`] decomposed into logical processes for the
//! conservative time-window runner in [`er_sim`].
//!
//! Decomposition (one LP per microservice deployment class):
//!
//! - **LP 0 — control + frontend.** Owns the arrival process, the query
//!   slab, the frontend (dense or monolithic) pods, the cluster object,
//!   every metric, and both autoscaling policies. All observables are
//!   recorded here, so the outcome assembles from a single LP.
//! - **LP `k+1` — embedding shard deployment `k`.** Owns a *view* of its
//!   pod set (id, readiness) plus the per-pod busy times, and services
//!   `SparseReq` messages exactly like the sequential engine's
//!   `SparseArrive` handler.
//!
//! Cross-LP traffic maps one-to-one onto the paper's RPC structure, which
//! is what makes the conservative lookahead sound: a `SparseReq` travels
//! a real network hop (≥ the per-shard request transfer time) and a
//! `SparseDone` travels the response hop (≥ the response transfer time),
//! so `lookahead = min(request transfers, response transfer)` — derived
//! from the same hardware profile numbers the sequential engine charges —
//! lower-bounds every message delay. Control actions are the exception:
//! HPA decisions and node failures reshape embedding pod sets *instantly*
//! in the sequential engine. Those instants (every HPA tick, plus the
//! scripted failure time) are therefore declared sync points, and the
//! resulting `PodSet` broadcasts ride the zero-lookahead control windows
//! the runner provides.
//!
//! Same seed ⇒ bit-identical outcomes at any shard/thread count (the
//! runner's canonical barrier merge guarantees it; `tests/par_parity.rs`
//! enforces it). Outcomes are *statistically* equivalent to the
//! sequential engine but not bitwise: same-instant event ties resolve by
//! a different (equally deterministic) order.

use er_cluster::{
    bound_frontend_desired, clamp_scale_to_load, Cluster, HpaController, HpaPolicy, Observation,
    ScalingTarget,
};
use er_metrics::{Histogram, QpsWindow, TimeSeries};
use er_rpc::messages;
use er_sim::{
    LpCtx, LpLogic, ShardedSim, SimRng, SimTime, WindowConfig, WindowObserver, WindowStats,
};
use er_units::{Qps, Secs};
use er_workload::ArrivalProcess;

use crate::engine::{
    DeployState, QuerySlab, QueryState, SimulationConfig, SimulationOutcome, StageBreakdown,
    KNEE_FRACTION,
};
use crate::{Calibration, Platform, ServingPlan, ShardService, SteadyState};

/// Execution shape of a parallel run. Pure performance knobs: results are
/// bit-identical for every value of both fields.
#[derive(Debug, Clone, Copy)]
pub struct ParSimConfig {
    /// Number of shards the LPs are grouped into.
    pub shards: usize,
    /// Number of worker threads (1 = inline, no threads spawned).
    pub threads: usize,
}

impl ParSimConfig {
    /// `shards` shards on `threads` workers (both clamped to ≥ 1).
    pub fn new(shards: usize, threads: usize) -> Self {
        Self {
            shards: shards.max(1),
            threads: threads.max(1),
        }
    }
}

/// Events exchanged within and between the serving LPs.
#[derive(Debug)]
enum PEv {
    // --- LP 0 local ---
    Arrival,
    NodeFailure,
    MetricsTick,
    HpaTick,
    TopDone { qid: u64 },
    // --- embedding shard -> LP 0, delivered at response-landing time ---
    SparseDone { qid: u64 },
    // --- LP 0 -> embedding shard, delivered at request-landing time ---
    SparseReq { qid: u64 },
    // --- LP 0 -> embedding shard, control-window pod reconfiguration ---
    PodSet { pods: Vec<(u64, f64)> },
}

/// One embedding shard deployment: a pod view plus FIFO busy times,
/// mirroring the sequential engine's `SparseArrive` handling.
struct EmbLp {
    /// Sparse lookup service time per query.
    service_secs: f64,
    /// Response transfer time back to the frontend.
    resp_secs: f64,
    /// `(pod id, ready_at_secs)` in deployment order — replaced wholesale
    /// by `PodSet` messages at control windows.
    pods: Vec<(u64, f64)>,
    /// next_free per pod, indexed by the cluster's dense global pod ids.
    pod_free: Vec<f64>,
}

impl EmbLp {
    /// Picks the pod that can start soonest (ties to deployment order),
    /// identical to the sequential engine's `assign_pod`.
    fn assign_pod(&self, now: f64) -> (u64, f64) {
        assert!(!self.pods.is_empty(), "embedding deployment has no pods");
        let mut best = (self.pods[0].0, f64::INFINITY);
        for &(id, ready) in &self.pods {
            let free = self.pod_free.get(id as usize).copied().unwrap_or(0.0);
            let start = now.max(ready).max(free);
            if start < best.1 {
                best = (id, start);
                if start <= now {
                    break;
                }
            }
        }
        best
    }

    fn on_event(&mut self, now: SimTime, ev: PEv, ctx: &mut LpCtx<'_, PEv>) {
        match ev {
            PEv::SparseReq { qid } => {
                let t = now.as_secs();
                let (pod, start) = self.assign_pod(t);
                let end = start + self.service_secs;
                let idx = pod as usize;
                if idx >= self.pod_free.len() {
                    self.pod_free.resize(idx + 1, 0.0);
                }
                self.pod_free[idx] = end;
                // The response lands after the service completes plus the
                // return transfer — ≥ lookahead past `now`, so this send
                // always clears the conservative barrier check.
                let done = end + self.resp_secs;
                ctx.send(0, SimTime::from_secs(done), PEv::SparseDone { qid });
            }
            PEv::PodSet { pods } => self.pods = pods,
            _ => unreachable!("unexpected event on an embedding LP"),
        }
    }
}

/// LP 0: the control plane plus the frontend deployment — everything the
/// sequential engine does except servicing embedding lookups.
struct ControlLp<'a> {
    plan: &'a ServingPlan,
    cfg: &'a SimulationConfig,
    cluster: Cluster,
    arrivals: ArrivalProcess,
    /// next_free for frontend pods, indexed by dense global pod id.
    pod_free: Vec<f64>,
    queries: QuerySlab,
    deploys: Vec<DeployState>,
    frontend: usize,
    /// Shard-plan indices of the embedding deployments; embedding
    /// deployment `k` runs as LP `k + 1`.
    emb_shards: Vec<usize>,
    emb_req_secs: Vec<f64>,
    total_queries: u64,
    completed: u64,
    latency: Histogram,
    completion_window: QpsWindow,
    stages: StageBreakdown,
    out_qps: TimeSeries,
    out_target: TimeSeries,
    out_mem: TimeSeries,
    out_p95: TimeSeries,
    out_replicas: TimeSeries,
    violations: usize,
    intervals: usize,
    peak_mem: f64,
    client_rtt: f64,
}

impl ControlLp<'_> {
    /// Soonest-available frontend pod, as the sequential `assign_pod`.
    fn assign_frontend_pod(&self, now: f64) -> (u64, f64) {
        let id = self.deploys[self.frontend].id;
        let pods = self.cluster.pods_of(id);
        assert!(
            !pods.is_empty(),
            "deployment {} has no pods",
            self.cluster.deployment_name(id)
        );
        let mut best = (pods[0].id(), f64::INFINITY);
        for p in pods {
            let free = self.pod_free.get(p.id() as usize).copied().unwrap_or(0.0);
            let start = now.max(p.ready_at().as_secs()).max(free);
            if start < best.1 {
                best = (p.id(), start);
                if start <= now {
                    break;
                }
            }
        }
        best
    }

    fn occupy(&mut self, pod: u64, start: f64, busy: f64) -> f64 {
        let end = start + busy;
        let idx = pod as usize;
        if idx >= self.pod_free.len() {
            self.pod_free.resize(idx + 1, 0.0);
        }
        self.pod_free[idx] = end;
        end
    }

    fn schedule_arrival(&mut self, now: f64, ctx: &mut LpCtx<'_, PEv>) {
        if let Some(t) = self.arrivals.next_arrival(now) {
            if t <= self.cfg.duration_secs {
                ctx.schedule(SimTime::from_secs(t), PEv::Arrival);
            }
        }
    }

    fn on_arrival(&mut self, now: f64, ctx: &mut LpCtx<'_, PEv>) {
        self.schedule_arrival(now, ctx);
        self.total_queries += 1;
        let fe = self.frontend;
        self.deploys[fe].qps_window.record(now);

        let (pod, start) = self.assign_frontend_pod(now);
        match self.plan.shards[self.frontend].service {
            ShardService::Monolithic { secs } => {
                let end = self.occupy(pod, start, secs);
                let qid = self.queries.insert(QueryState {
                    arrive: now,
                    pending_sparse: 0,
                    bottom_start: start,
                    bottom_end: end,
                    sparse_done: start,
                    dense_pod: pod,
                });
                self.stages.frontend_wait.record(start - now);
                self.stages.frontend_service.record(secs);
                ctx.schedule(SimTime::from_secs(end), PEv::TopDone { qid });
            }
            ShardService::Dense { bottom_secs, .. } => {
                let bottom_end = self.occupy(pod, start, bottom_secs);
                let qid = self.queries.insert(QueryState {
                    arrive: now,
                    pending_sparse: self.emb_shards.len(),
                    bottom_start: start,
                    bottom_end,
                    sparse_done: start,
                    dense_pod: pod,
                });
                self.stages.frontend_wait.record(start - now);
                self.stages.frontend_service.record(bottom_secs);
                for k in 0..self.emb_shards.len() {
                    let shard = self.emb_shards[k];
                    // HPA sees offered load, exactly as sequentially.
                    self.deploys[shard].qps_window.record(now);
                    // The request-transfer hop (≥ lookahead) carries the
                    // fan-out to the shard's LP.
                    let at = start + self.emb_req_secs[k];
                    ctx.send(k + 1, SimTime::from_secs(at), PEv::SparseReq { qid });
                }
            }
            ShardService::Sparse { .. } => unreachable!("frontend is never a sparse shard"),
        }
    }

    /// A pooled-embedding response lands. The *last* one to land is the
    /// fan-in (its arrival time is the max response time by construction),
    /// so the sequential engine's separate `FanIn` event collapses into
    /// the final `SparseDone`.
    fn on_sparse_done(&mut self, now: f64, qid: u64, ctx: &mut LpCtx<'_, PEv>) {
        let ShardService::Dense { top_secs, .. } = self.plan.shards[self.frontend].service else {
            unreachable!("sparse responses only exist with a dense frontend")
        };
        let Some(q) = self.queries.get_mut(qid) else {
            return;
        };
        q.pending_sparse -= 1;
        q.sparse_done = q.sparse_done.max(now);
        if q.pending_sparse > 0 {
            return;
        }
        let pod = q.dense_pod;
        let bottom_end = q.bottom_end;
        let bottom_start = q.bottom_start;
        let free = self.pod_free.get(pod as usize).copied().unwrap_or(0.0);
        let start = now.max(bottom_end).max(free);
        let end = self.occupy(pod, start, top_secs);
        self.stages.sparse_phase.record(now - bottom_start);
        self.stages.top_wait.record(start - now.max(bottom_end));
        self.stages.top_service.record(top_secs);
        ctx.schedule(SimTime::from_secs(end), PEv::TopDone { qid });
    }

    fn on_top_done(&mut self, now: f64, qid: u64) {
        let Some(q) = self.queries.remove(qid) else {
            return;
        };
        let latency = now - q.arrive + self.client_rtt;
        self.stages.client_rtt.record(self.client_rtt);
        self.completed += 1;
        self.latency.record(latency);
        self.completion_window.record(now);
        let fe = self.frontend;
        self.deploys[fe].interval_latency.record(latency);
    }

    /// Broadcasts deployment `i`'s current pod set to its LP. Only valid
    /// at sync points (the send has zero delay).
    fn send_pod_set(&self, i: usize, now: f64, ctx: &mut LpCtx<'_, PEv>) {
        let Some(k) = self.emb_shards.iter().position(|&s| s == i) else {
            return; // frontend: its pods live here, no view to refresh
        };
        let pods = self
            .cluster
            .pods_of(self.deploys[i].id)
            .iter()
            .map(|p| (p.id(), p.ready_at().as_secs()))
            .collect();
        ctx.send(k + 1, SimTime::from_secs(now), PEv::PodSet { pods });
    }

    fn on_node_failure(&mut self, now: f64, ctx: &mut LpCtx<'_, PEv>) {
        let losses = self.cluster.fail_node(0);
        for (id, lost) in losses {
            let desired = self.cluster.replicas_of(id) + lost;
            let _ = self
                .cluster
                .scale_deployment(id, desired, SimTime::from_secs(now));
        }
        // Refresh every embedding view: pod sets may have churned both
        // ways (losses and recreations).
        for i in 0..self.deploys.len() {
            self.send_pod_set(i, now, ctx);
        }
    }

    fn on_metrics_tick(&mut self, now: f64, ctx: &mut LpCtx<'_, PEv>) {
        let qps = self.completion_window.qps_at(now);
        self.out_qps.push(now, qps);
        self.out_target.push(now, self.cfg.schedule.rate_at(now));
        let mem = self.cluster.memory_allocated_bytes() as f64 / (1u64 << 30) as f64;
        self.peak_mem = self.peak_mem.max(mem);
        self.out_mem.push(now, mem);
        let replicas: usize = self
            .deploys
            .iter()
            .map(|d| self.cluster.replicas_of(d.id))
            .sum();
        self.out_replicas.push(now, replicas as f64);

        let fe = &mut self.deploys[self.frontend];
        let p95 = if fe.interval_latency.is_empty() {
            0.0
        } else {
            fe.interval_latency.percentile(self.cfg.sla.percentile())
        };
        fe.interval_latency.reset();
        self.out_p95.push(now, p95 * 1000.0);
        self.intervals += 1;
        if self.cfg.sla.is_violated(p95) {
            self.violations += 1;
        }

        let next = now + self.cfg.metrics_interval_secs;
        if next <= self.cfg.duration_secs {
            ctx.schedule(SimTime::from_secs(next), PEv::MetricsTick);
        }
    }

    fn on_hpa_tick(&mut self, now: f64, ctx: &mut LpCtx<'_, PEv>) {
        let fe_p95 = {
            let fe = &self.deploys[self.frontend];
            if fe.interval_latency.is_empty() {
                None
            } else {
                Some(fe.interval_latency.percentile(self.cfg.sla.percentile()))
            }
        };
        for i in 0..self.deploys.len() {
            let id = self.deploys[i].id;
            let current = self.cluster.replicas_of(id);
            if current == 0 {
                continue;
            }
            let qps = self.deploys[i].qps_window.qps_at(now);
            let obs = Observation {
                qps: Qps::of(qps),
                p95_latency: if i == self.frontend {
                    fe_p95.map(Secs::of)
                } else {
                    None
                },
            };
            if let Some(desired) =
                self.deploys[i]
                    .hpa
                    .evaluate(SimTime::from_secs(now), current, obs)
            {
                // Same offered-load bound on the frontend as sequentially.
                let desired = if i == self.frontend {
                    bound_frontend_desired(
                        desired,
                        current,
                        Qps::of(qps),
                        Qps::of(self.plan.shards[i].qps_max()),
                    )
                } else {
                    desired
                };
                // Same apply-time stale-decision guard as sequentially
                // (a no-op here: decisions apply atomically).
                let desired = clamp_scale_to_load(
                    desired,
                    current,
                    Qps::of(qps),
                    Qps::of(self.plan.shards[i].qps_max()),
                );
                if desired != current {
                    let _ = self
                        .cluster
                        .scale_deployment(id, desired, SimTime::from_secs(now));
                    // Embedding LPs learn their new pod set through the
                    // control window this tick runs in.
                    self.send_pod_set(i, now, ctx);
                }
            }
        }
        let next = now + self.cfg.hpa_interval_secs;
        if next <= self.cfg.duration_secs {
            ctx.schedule(SimTime::from_secs(next), PEv::HpaTick);
        }
    }

    fn on_event(&mut self, now: SimTime, ev: PEv, ctx: &mut LpCtx<'_, PEv>) {
        let t = now.as_secs();
        match ev {
            PEv::Arrival => self.on_arrival(t, ctx),
            PEv::NodeFailure => self.on_node_failure(t, ctx),
            PEv::SparseDone { qid } => self.on_sparse_done(t, qid, ctx),
            PEv::TopDone { qid } => self.on_top_done(t, qid),
            PEv::MetricsTick => self.on_metrics_tick(t, ctx),
            PEv::HpaTick => self.on_hpa_tick(t, ctx),
            PEv::SparseReq { .. } | PEv::PodSet { .. } => {
                unreachable!("embedding-LP event routed to the control LP")
            }
        }
    }

    fn into_outcome(self) -> SimulationOutcome {
        SimulationOutcome {
            achieved_qps: self.out_qps,
            target_qps: self.out_target,
            memory_gib: self.out_mem,
            p95_ms: self.out_p95,
            total_replicas: self.out_replicas,
            total_queries: self.total_queries,
            completed_queries: self.completed,
            latency: self.latency,
            sla_violation_intervals: self.violations,
            metric_intervals: self.intervals,
            stages: self.stages,
            final_nodes_used: self.cluster.nodes_used(),
            peak_memory_gib: self.peak_mem,
        }
    }
}

/// The serving LPs as one event-compatible type for the runner.
enum ParLp<'a> {
    Control(Box<ControlLp<'a>>),
    Emb(EmbLp),
}

impl LpLogic for ParLp<'_> {
    type Event = PEv;

    fn on_event(&mut self, now: SimTime, ev: PEv, ctx: &mut LpCtx<'_, PEv>) {
        match self {
            ParLp::Control(c) => c.on_event(now, ev, ctx),
            ParLp::Emb(e) => e.on_event(now, ev, ctx),
        }
    }
}

/// The parallel simulation entry point.
#[derive(Debug)]
pub struct ParSimulation;

impl ParSimulation {
    /// Runs `serving_plan` under `cfg` on the sharded windowed core.
    ///
    /// # Panics
    ///
    /// Panics if the initial deployment cannot be scheduled, exactly as
    /// [`crate::Simulation::run`] would.
    pub fn run(
        serving_plan: &ServingPlan,
        calib: &Calibration,
        cfg: &SimulationConfig,
        par: &ParSimConfig,
    ) -> SimulationOutcome {
        Self::run_detailed(serving_plan, calib, cfg, par, None).0
    }

    /// As [`ParSimulation::run`], also returning the runner's window
    /// counters and reporting barriers/handoffs to `obs` when given.
    pub fn run_detailed(
        serving_plan: &ServingPlan,
        calib: &Calibration,
        cfg: &SimulationConfig,
        par: &ParSimConfig,
        obs: Option<&dyn WindowObserver>,
    ) -> (SimulationOutcome, WindowStats) {
        let profile = calib.node_profile(serving_plan.platform == Platform::CpuGpu);
        let mut cluster = Cluster::new(profile, cfg.max_nodes);
        let initial_rate = cfg.schedule.rate_at(0.0).max(1.0);

        let mut deploys = Vec::with_capacity(serving_plan.shards.len());
        let mut frontend = 0;
        for (i, shard) in serving_plan.shards.iter().enumerate() {
            let n = SteadyState::replicas_for(shard.qps_max(), initial_rate).min(cfg.max_replicas);
            cluster
                .create_deployment_warm(&shard.name, shard.pod.clone(), n, SimTime::ZERO)
                // lint::allow(no_panic): startup provisioning; failing loudly before serving begins is correct
                .unwrap_or_else(|e| panic!("initial deployment failed: {e}"));
            let target = if shard.role.is_embedding() {
                ScalingTarget::QpsPerReplica(Qps::of(shard.qps_max() * KNEE_FRACTION))
            } else {
                frontend = i;
                ScalingTarget::LatencyP95(Secs::of(cfg.sla.hpa_threshold_secs()))
            };
            deploys.push(DeployState {
                // lint::allow(no_panic): the deployment was created two statements above under this exact name
                id: cluster.deploy_id(&shard.name).expect("just created"),
                qps_window: QpsWindow::with_capacity(cfg.hpa_interval_secs.max(1.0), 1024),
                interval_latency: Histogram::new(),
                hpa: HpaController::new(HpaPolicy::new(1, cfg.max_replicas, target)),
            });
        }

        let net = serving_plan.platform.network();
        let q = &serving_plan.model;
        let total_indices: u64 = q
            .tables
            .iter()
            .map(|t| q.batch_size as u64 * t.pooling as u64)
            .sum();
        let client_rtt = net.round_trip_secs(
            messages::query_request_bytes(
                q.batch_size as u64,
                q.num_dense_features as u64,
                total_indices,
                q.tables.len() as u64,
            ),
            messages::query_response_bytes(q.batch_size as u64),
        );

        let emb_shards: Vec<usize> = serving_plan
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role.is_embedding())
            .map(|(i, _)| i)
            .collect();
        let emb_req_secs: Vec<f64> = serving_plan
            .shards
            .iter()
            .filter(|s| s.role.is_embedding())
            .map(|s| {
                let batch = q.batch_size as u64;
                let req =
                    messages::embedding_request_bytes(s.expected_gathers.ceil() as u64, batch);
                net.transfer_secs(req)
            })
            .collect();
        let emb_resp_secs = net.transfer_secs(messages::embedding_response_bytes(
            q.batch_size as u64,
            q.embedding_dim() as u64,
        ));

        // The safe lookahead: every cross-LP message rides either a
        // request hop (≥ its shard's transfer time) or the response hop,
        // all bounded below by the profile's base network latency.
        let lookahead = emb_req_secs
            .iter()
            .copied()
            .fold(emb_resp_secs, f64::min)
            .min(emb_resp_secs);
        let lookahead = if emb_shards.is_empty() {
            f64::INFINITY // single LP: no cross-LP messages exist
        } else {
            lookahead
        };

        // Sync points: instants where pod sets may change instantly. The
        // accumulation below performs the exact f64 additions the tick
        // handlers perform, so the instants match bit-for-bit.
        let mut sync_points = Vec::new();
        let mut t = cfg.hpa_interval_secs;
        while t <= cfg.duration_secs {
            sync_points.push(t);
            t += cfg.hpa_interval_secs;
        }
        if let Some(fail_at) = cfg.fail_node_at {
            if let Err(i) = sync_points.binary_search_by(|p| p.total_cmp(&fail_at)) {
                sync_points.insert(i, fail_at);
            }
        }

        // Embedding LP views snapshot the warm pod sets created above,
        // before the cluster moves into the control LP.
        let mut emb_lps = Vec::with_capacity(emb_shards.len());
        for &i in &emb_shards {
            let ShardService::Sparse { secs } = serving_plan.shards[i].service else {
                unreachable!("embedding shards always have sparse service")
            };
            let pods = cluster
                .pods_of(deploys[i].id)
                .iter()
                .map(|p| (p.id(), p.ready_at().as_secs()))
                .collect();
            emb_lps.push(EmbLp {
                service_secs: secs,
                resp_secs: emb_resp_secs,
                pods,
                pod_free: Vec::new(),
            });
        }

        // First arrival drawn now, exactly as the sequential engine's
        // `run()` draws it before the event loop starts.
        let mut arrivals = ArrivalProcess::new(cfg.schedule.clone(), SimRng::seed_from(cfg.seed));
        let first_arrival = arrivals.next_arrival(0.0);

        let mut lps: Vec<ParLp<'_>> = Vec::with_capacity(1 + emb_lps.len());
        lps.push(ParLp::Control(Box::new(ControlLp {
            plan: serving_plan,
            cfg,
            cluster,
            arrivals,
            pod_free: Vec::new(),
            queries: QuerySlab::default(),
            deploys,
            frontend,
            emb_shards,
            emb_req_secs,
            total_queries: 0,
            completed: 0,
            latency: Histogram::new(),
            completion_window: QpsWindow::with_capacity(cfg.metrics_interval_secs.max(1.0), 1024),
            stages: StageBreakdown::default(),
            out_qps: TimeSeries::new("achieved_qps"),
            out_target: TimeSeries::new("target_qps"),
            out_mem: TimeSeries::new("memory_gib"),
            out_p95: TimeSeries::new("p95_ms"),
            out_replicas: TimeSeries::new("total_replicas"),
            violations: 0,
            intervals: 0,
            peak_mem: 0.0,
            client_rtt,
        })));
        lps.extend(emb_lps.into_iter().map(ParLp::Emb));

        let window_cfg = WindowConfig {
            lookahead,
            shards: par.shards.max(1),
            threads: par.threads.max(1),
            sync_points,
        };
        let mut sim = ShardedSim::new(lps, window_cfg);
        // Seeding order matches the sequential engine: ticks first, then
        // the optional failure, then the first arrival.
        sim.schedule(
            0,
            SimTime::from_secs(cfg.metrics_interval_secs),
            PEv::MetricsTick,
        );
        sim.schedule(0, SimTime::from_secs(cfg.hpa_interval_secs), PEv::HpaTick);
        if let Some(at) = cfg.fail_node_at {
            sim.schedule(0, SimTime::from_secs(at), PEv::NodeFailure);
        }
        if let Some(t0) = first_arrival {
            if t0 <= cfg.duration_secs {
                sim.schedule(0, SimTime::from_secs(t0), PEv::Arrival);
            }
        }

        let (lps, stats) = match obs {
            Some(o) => sim.run_observed(o),
            None => sim.run(),
        };
        let outcome = lps
            .into_iter()
            .find_map(|lp| match lp {
                ParLp::Control(c) => Some(c.into_outcome()),
                ParLp::Emb(_) => None,
            })
            .unwrap_or_else(|| unreachable!("the control LP always survives the run"));
        (outcome, stats)
    }
}
