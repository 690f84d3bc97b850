//! The dynamic serving simulation: queries, queues, autoscaling.
//!
//! Drives a [`ServingPlan`] against a traffic schedule on the simulated
//! Kubernetes cluster. Each shard replica is a FIFO server; a query visits
//! the dense (or monolithic) frontend, fans out RPCs to every embedding
//! shard, and finishes with the top-MLP phase once all pooled embeddings
//! return — the "life of an inference query" of Section IV-A. Kubernetes
//! HPA ticks periodically, scaling each shard deployment by its policy
//! (QPS for sparse shards, p95 latency for the frontend, Section IV-D).
//! This is the machinery behind the paper's Figure 19.

use er_cluster::{
    bound_frontend_desired, clamp_scale_to_load, soonest_start, Cluster, DeployId, HpaPolicy,
    HpaState, Observation, ScalingTarget,
};
use er_metrics::{Histogram, QpsWindow, Summary, TimeSeries};
use er_rpc::messages;
use er_sim::{EventQueue, SimRng, SimTime};
use er_units::{Qps, Secs};
use er_workload::{ArrivalProcess, SlaConfig, TrafficSchedule};

use crate::{Calibration, Platform, ServingPlan, ShardService, SteadyState};

/// Fraction of a replica's theoretical saturation throughput used as its
/// autoscaling threshold — the "knee" where tail latency starts climbing
/// in the paper's stress tests (Section IV-D).
const KNEE_FRACTION: f64 = 0.80;

/// How often the autoscaler evaluates, in seconds.
const HPA_INTERVAL_SECS: f64 = 5.0;

/// The SLA queries are judged against: the paper's 400 ms on p95.
const SLA: SlaConfig = SlaConfig::paper_default();

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Offered traffic over time.
    pub schedule: TrafficSchedule,
    /// Simulated duration in seconds.
    pub duration_secs: f64,
    /// RNG seed (arrivals).
    pub seed: u64,
    /// How often observables are sampled into time series (seconds).
    pub metrics_interval_secs: f64,
    /// Node budget (None = provision on demand).
    pub max_nodes: Option<usize>,
    /// Upper bound on replicas per deployment for the HPA.
    pub max_replicas: usize,
    /// Fault injection: fail the first provisioned node at this time.
    /// Pods on it vanish; their ReplicaSets immediately recreate them
    /// elsewhere (paying startup time), as Kubernetes would.
    pub fail_node_at: Option<f64>,
}

impl SimulationConfig {
    /// A configuration with paper-like defaults for the given schedule.
    pub fn new(schedule: TrafficSchedule, duration_secs: f64, seed: u64) -> Self {
        Self {
            schedule,
            duration_secs,
            seed,
            metrics_interval_secs: 1.0,
            max_nodes: None,
            max_replicas: 512,
            fail_node_at: None,
        }
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Achieved throughput per metrics interval.
    pub achieved_qps: TimeSeries,
    /// The schedule's target rate at each interval.
    pub target_qps: TimeSeries,
    /// Total allocated memory (GiB) per interval.
    pub memory_gib: TimeSeries,
    /// p95 latency (milliseconds) per interval (0 when idle).
    pub p95_ms: TimeSeries,
    /// Total shard replicas across all deployments per interval — the
    /// autoscaler's footprint over time.
    pub total_replicas: TimeSeries,
    /// Queries injected.
    pub total_queries: u64,
    /// Queries completed within the simulated horizon.
    pub completed_queries: u64,
    /// Full-run latency distribution (seconds).
    pub latency: Histogram,
    /// Metric intervals whose p95 violated the SLA.
    pub sla_violation_intervals: usize,
    /// Metric intervals observed.
    pub metric_intervals: usize,
    /// Where completed queries spent their time, stage by stage.
    pub stages: StageBreakdown,
    /// Nodes in use when the run ended.
    pub final_nodes_used: usize,
    /// Peak memory allocation over the run, in GiB.
    pub peak_memory_gib: f64,
}

impl SimulationOutcome {
    /// Mean end-to-end latency in seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        self.latency.mean()
    }

    /// Fraction of metric intervals violating the SLA.
    pub fn violation_fraction(&self) -> f64 {
        if self.metric_intervals == 0 {
            0.0
        } else {
            self.sla_violation_intervals as f64 / self.metric_intervals as f64
        }
    }
}

#[derive(Debug)]
enum Event {
    Arrival,
    NodeFailure,
    /// The embedding RPCs of one fan-out group reach their shards.
    ///
    /// Every shard of a group has the same request delay, so its RPCs land
    /// at the same instant; one event serves the whole group (see
    /// [`FanOutGroup`]).
    SparseArrive {
        qid: u64,
        group: usize,
    },
    /// The last pooled embedding response lands back at the dense shard.
    ///
    /// Scheduled once per query, not once per embedding shard: a response
    /// only touches the query's private counter and running max, so the
    /// shared-state effect (assigning the top-MLP phase) collapses into a
    /// single event at the max of the per-shard response times. That max
    /// is known as soon as the last `SparseArrive` assigns its pods.
    FanIn {
        qid: u64,
    },
    TopDone {
        qid: u64,
    },
    MetricsTick,
    HpaTick,
}

struct QueryState {
    arrive: f64,
    /// Fan-out groups whose pod assignment is still pending.
    pending_sparse: usize,
    bottom_start: f64,
    bottom_end: f64,
    /// Running max of per-shard response-landing times; once the last
    /// group's `SparseArrive` resolves, this is the fan-in instant.
    sparse_done: f64,
    dense_pod: u64,
}

/// Generational slab of in-flight queries, replacing a `HashMap<u64, _>`.
///
/// A query id packs `(generation << 32) | slot`; completed slots go on a
/// free list and bump their generation, so a stale id (an event outliving
/// its query) misses the lookup instead of aliasing a recycled slot — the
/// same defensive behaviour the map's `get(&qid) == None` gave, without
/// hashing on every event.
#[derive(Default)]
struct QuerySlab {
    slots: Vec<(u32, Option<QueryState>)>,
    free: Vec<u32>,
}

impl QuerySlab {
    fn insert(&mut self, state: QueryState) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                let (gen, q) = &mut self.slots[slot as usize];
                *q = Some(state);
                (u64::from(*gen) << 32) | u64::from(slot)
            }
            None => {
                // lint::allow(no_panic): 2^32 concurrently live queries is beyond any simulated workload; overflow is a driver bug
                let slot = u32::try_from(self.slots.len()).expect("query slab exceeds u32 slots");
                self.slots.push((0, Some(state)));
                u64::from(slot)
            }
        }
    }

    fn get_mut(&mut self, qid: u64) -> Option<&mut QueryState> {
        let (gen, q) = self.slots.get_mut(qid as u32 as usize)?;
        if u64::from(*gen) != qid >> 32 {
            return None;
        }
        q.as_mut()
    }

    fn remove(&mut self, qid: u64) -> Option<QueryState> {
        let (gen, q) = self.slots.get_mut(qid as u32 as usize)?;
        if u64::from(*gen) != qid >> 32 {
            return None;
        }
        let state = q.take()?;
        *gen = gen.wrapping_add(1);
        self.free.push(qid as u32);
        Some(state)
    }
}

/// Mean time spent in each stage of the query path — the decomposition of
/// the microservice overhead the paper quotes as "+31 ms of average
/// latency" (Section VI-B).
#[derive(Debug, Clone, Default)]
pub struct StageBreakdown {
    /// Queueing before the frontend starts the query.
    pub frontend_wait: Summary,
    /// Bottom-MLP (or whole monolithic) service time.
    pub frontend_service: Summary,
    /// Fan-out → gather → fan-in phase, measured from bottom start to the
    /// last pooled response (overlaps the bottom phase; zero for the
    /// monolith).
    pub sparse_phase: Summary,
    /// Queueing between fan-in and the top-MLP phase.
    pub top_wait: Summary,
    /// Top-MLP service time (zero for the monolith).
    pub top_service: Summary,
    /// Client-side request/response transfer.
    pub client_rtt: Summary,
}

/// Per-deployment runtime state.
struct DeployState {
    /// Dense cluster handle, resolved once at startup.
    id: DeployId,
    interval_latency: Histogram,
    policy: HpaPolicy,
    /// The policy's pure state, threaded through [`HpaPolicy::step`].
    hpa: HpaState,
}

/// Embedding shards that share one request transfer time.
///
/// A query's RPC to embedding shard `k` lands at the fan-out start plus the
/// shard's request delay, which depends only on the shard's expected
/// gathers and the batch size. Shards whose delays have the same bits land
/// at the same instant, so one event serves them all.
#[derive(Debug, Clone, PartialEq)]
struct FanOutGroup {
    /// Request transfer time to every shard of the group.
    req_secs: f64,
    /// Indices into `plan.shards`, in plan order.
    shards: Vec<usize>,
}

/// Each embedding shard of `plan` with its request transfer time, in plan
/// order.
fn request_delays(plan: &ServingPlan) -> Vec<(usize, f64)> {
    let net = plan.platform.network();
    let batch = plan.model.batch_size as u64;
    plan.shards
        .iter()
        .enumerate()
        .filter(|(_, s)| s.role.is_embedding())
        .map(|(i, s)| {
            let req = messages::embedding_request_bytes(s.expected_gathers.ceil() as u64, batch);
            (i, net.transfer_secs(req))
        })
        .collect()
}

/// Groups `(shard, request delay)` pairs by the bit pattern of the delay.
/// Groups are ordered by their first shard, and each group lists its
/// shards in input order.
fn fan_out_groups(delays: &[(usize, f64)]) -> Vec<FanOutGroup> {
    let mut groups: Vec<FanOutGroup> = Vec::new();
    for &(shard, req_secs) in delays {
        match groups
            .iter_mut()
            .find(|g| g.req_secs.to_bits() == req_secs.to_bits())
        {
            Some(g) => g.shards.push(shard),
            None => groups.push(FanOutGroup {
                req_secs,
                shards: vec![shard],
            }),
        }
    }
    groups
}

/// The simulation entry point.
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Runs `serving_plan` under `cfg`, returning the observables.
    ///
    /// # Panics
    ///
    /// Panics if the initial deployment cannot be scheduled (node budget
    /// too small for even one replica per shard).
    pub fn run(
        serving_plan: &ServingPlan,
        calib: &Calibration,
        cfg: &SimulationConfig,
    ) -> SimulationOutcome {
        Engine::new(serving_plan, calib, cfg).event_loop()
    }
}

struct Engine<'a> {
    plan: &'a ServingPlan,
    cfg: &'a SimulationConfig,
    cluster: Cluster,
    queue: EventQueue<Event>,
    arrivals: ArrivalProcess,
    /// next_free per pod, indexed directly by pod id (ids are a dense
    /// monotone counter); pods never seen yet are implicitly free.
    pod_free: Vec<f64>,
    queries: QuerySlab,
    deploys: Vec<DeployState>,
    /// Index of the frontend deployment in `deploys` / `plan.shards`.
    frontend: usize,
    /// Offered load: one timestamp per arrival. Every deployment sees the
    /// same query rate (each query visits the frontend and every embedding
    /// shard once), so the HPA reads this one window for all of them;
    /// completions would saturate at capacity and hide unserved demand.
    offered: QpsWindow,
    /// The embedding shards, grouped by request delay.
    groups: Vec<FanOutGroup>,
    /// Response transfer time back from any embedding shard.
    emb_resp_secs: f64,
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

impl<'a> Engine<'a> {
    fn new(plan: &'a ServingPlan, calib: &'a Calibration, cfg: &'a SimulationConfig) -> Self {
        let groups = fan_out_groups(&request_delays(plan));
        Self::with_groups(plan, calib, cfg, groups)
    }

    /// An engine that fans each query out as `groups`, which must cover
    /// every embedding shard of `plan` once.
    fn with_groups(
        plan: &'a ServingPlan,
        calib: &'a Calibration,
        cfg: &'a SimulationConfig,
        groups: Vec<FanOutGroup>,
    ) -> Self {
        let profile = calib.node_profile(plan.platform == Platform::CpuGpu);
        let mut cluster = Cluster::new(profile, cfg.max_nodes);
        let initial_rate = cfg.schedule.rate_at(0.0).max(1.0);

        let mut deploys = Vec::with_capacity(plan.shards.len());
        let mut frontend = 0;
        for (i, shard) in plan.shards.iter().enumerate() {
            let n = SteadyState::replicas_for(shard.qps_max(), initial_rate).min(cfg.max_replicas);
            // The run starts with a warmed-up service; startup delays apply
            // to pods the autoscaler adds later.
            let id = cluster
                .create_deployment_warm(&shard.name, shard.pod.clone(), n, SimTime::ZERO)
                // lint::allow(no_panic): startup provisioning; failing loudly before serving begins is correct
                .unwrap_or_else(|e| panic!("initial deployment failed: {e}"));
            let target = if shard.role.is_embedding() {
                // The paper stress-tests each shard and uses the QPS where
                // tail latency takes off as the HPA threshold; that knee
                // sits below hard saturation (1/busy_secs), so derate it.
                ScalingTarget::QpsPerReplica(Qps::of(shard.qps_max() * KNEE_FRACTION))
            } else {
                frontend = i;
                ScalingTarget::LatencyP95(Secs::of(SLA.hpa_threshold_secs()))
            };
            deploys.push(DeployState {
                id,
                interval_latency: Histogram::new(),
                policy: HpaPolicy::new(cfg.max_replicas, target),
                hpa: HpaState::default(),
            });
        }

        let net = plan.platform.network();
        let q = &plan.model;
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

        let mut queue = EventQueue::new();
        queue.schedule(
            SimTime::from_secs(cfg.metrics_interval_secs),
            Event::MetricsTick,
        );
        queue.schedule(SimTime::from_secs(HPA_INTERVAL_SECS), Event::HpaTick);
        if let Some(at) = cfg.fail_node_at {
            queue.schedule(SimTime::from_secs(at), Event::NodeFailure);
        }

        Self {
            plan,
            cfg,
            cluster,
            queue,
            arrivals: ArrivalProcess::new(cfg.schedule.clone(), SimRng::seed_from(cfg.seed)),
            pod_free: Vec::new(),
            queries: QuerySlab::default(),
            deploys,
            frontend,
            offered: QpsWindow::with_capacity(HPA_INTERVAL_SECS, 1024),
            groups,
            emb_resp_secs: net.transfer_secs(messages::embedding_response_bytes(
                q.batch_size as u64,
                q.embedding_dim() as u64,
            )),
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
        }
    }

    /// Picks the pod of `deploy` that can start work soonest at `now`,
    /// returning `(pod_id, start_time)` (see [`soonest_start`]).
    fn assign_pod(&self, deploy: usize, now: f64) -> (u64, f64) {
        let id = self.deploys[deploy].id;
        let pods = self.cluster.pods_of(id).iter().map(|p| {
            let free = self.pod_free.get(p.id() as usize).copied().unwrap_or(0.0);
            (p.id(), p.ready_at().as_secs(), free)
        });
        let Some(pick) = soonest_start(now, pods) else {
            // lint::allow(no_panic): every deployment keeps at least one pod (startup places one, and the HPA floor is one replica)
            panic!(
                "deployment {} has no pods",
                self.cluster.deployment_name(id)
            );
        };
        pick
    }

    /// Occupies `pod` for `busy` seconds starting no earlier than `start`,
    /// returning the completion time.
    fn occupy(&mut self, pod: u64, start: f64, busy: f64) -> f64 {
        let end = start + busy;
        let idx = pod as usize;
        if idx >= self.pod_free.len() {
            // Grows only when the autoscaler mints new pod ids; the dense
            // index stays allocation-free across steady-state events.
            self.pod_free.resize(idx + 1, 0.0);
        }
        self.pod_free[idx] = end;
        end
    }

    fn schedule_arrival(&mut self, now: f64) {
        if let Some(t) = self.arrivals.next_arrival(now) {
            if t <= self.cfg.duration_secs {
                self.queue.schedule(SimTime::from_secs(t), Event::Arrival);
            }
        }
    }

    fn on_arrival(&mut self, now: f64) {
        self.schedule_arrival(now);
        self.total_queries += 1;
        self.offered.record(now);

        let (pod, start) = self.assign_pod(self.frontend, now);
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
                self.queue
                    .schedule(SimTime::from_secs(end), Event::TopDone { qid });
            }
            ShardService::Dense { bottom_secs, .. } => {
                let bottom_end = self.occupy(pod, start, bottom_secs);
                let qid = self.queries.insert(QueryState {
                    arrive: now,
                    pending_sparse: self.groups.len(),
                    bottom_start: start,
                    bottom_end,
                    sparse_done: start,
                    dense_pod: pod,
                });
                self.stages.frontend_wait.record(start - now);
                self.stages.frontend_service.record(bottom_secs);
                for group in 0..self.groups.len() {
                    let at = start + self.groups[group].req_secs;
                    self.queue
                        .schedule(SimTime::from_secs(at), Event::SparseArrive { qid, group });
                }
            }
            ShardService::Sparse { .. } => unreachable!("frontend is never a sparse shard"),
        }
    }

    /// Assigns a pod on every shard of `group` for `qid`. Each shard is its
    /// own deployment, so the order within the group does not matter.
    fn on_sparse_arrive(&mut self, now: f64, qid: u64, group: usize) {
        let mut done = f64::NEG_INFINITY;
        for i in 0..self.groups[group].shards.len() {
            let shard = self.groups[group].shards[i];
            let (pod, start) = self.assign_pod(shard, now);
            let ShardService::Sparse { secs } = self.plan.shards[shard].service else {
                unreachable!("sparse events only target sparse shards")
            };
            let end = self.occupy(pod, start, secs);
            done = done.max(end + self.emb_resp_secs);
        }
        self.finish_sparse(qid, done);
    }

    /// Records the last of one group's responses landing for `qid` at
    /// `done`, firing the fan-in when it was the last pending group.
    fn finish_sparse(&mut self, qid: u64, done: f64) {
        let Some(q) = self.queries.get_mut(qid) else {
            return;
        };
        q.pending_sparse -= 1;
        q.sparse_done = q.sparse_done.max(done);
        if q.pending_sparse == 0 {
            // All response times are now known; the fan-in fires when the
            // slowest one lands. Intermediate responses have no effect on
            // shared state, so one event replaces one per shard.
            let at = q.sparse_done;
            self.queue
                .schedule(SimTime::from_secs(at), Event::FanIn { qid });
        }
    }

    fn on_fan_in(&mut self, now: f64, qid: u64) {
        let Some(q) = self.queries.get_mut(qid) else {
            return;
        };
        let ShardService::Dense { top_secs, .. } = self.plan.shards[self.frontend].service else {
            unreachable!("fan-in only happens with a dense frontend")
        };
        let pod = q.dense_pod;
        let bottom_end = q.bottom_end;
        let bottom_start = q.bottom_start;
        let free = self.pod_free.get(pod as usize).copied().unwrap_or(0.0);
        let start = now.max(bottom_end).max(free);
        let end = self.occupy(pod, start, top_secs);
        self.stages.sparse_phase.record(now - bottom_start);
        self.stages.top_wait.record(start - now.max(bottom_end));
        self.stages.top_service.record(top_secs);
        self.queue
            .schedule(SimTime::from_secs(end), Event::TopDone { qid });
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

    /// Fails node 0 and lets every affected ReplicaSet recreate its pods
    /// immediately (on surviving nodes, paying the startup delay).
    fn on_node_failure(&mut self, now: f64) {
        let losses = self.cluster.fail_node(0);
        for (id, lost) in losses {
            let desired = self.cluster.replicas_of(id) + lost;
            let _ = self
                .cluster
                .scale_deployment(id, desired, SimTime::from_secs(now));
        }
    }

    fn on_metrics_tick(&mut self, now: f64) {
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
            fe.interval_latency.percentile(SLA.percentile())
        };
        fe.interval_latency.reset();
        self.out_p95.push(now, p95 * 1000.0);
        self.intervals += 1;
        if SLA.is_violated(p95) {
            self.violations += 1;
        }

        let next = now + self.cfg.metrics_interval_secs;
        if next <= self.cfg.duration_secs {
            self.queue
                .schedule(SimTime::from_secs(next), Event::MetricsTick);
        }
    }

    fn on_hpa_tick(&mut self, now: f64) {
        let qps = self.offered.qps_at(now);
        // Use the frontend's latest full-window latency for its policy.
        let fe_p95 = {
            let fe = &self.deploys[self.frontend];
            if fe.interval_latency.is_empty() {
                None
            } else {
                Some(fe.interval_latency.percentile(SLA.percentile()))
            }
        };
        for i in 0..self.deploys.len() {
            let id = self.deploys[i].id;
            let current = self.cluster.replicas_of(id);
            if current == 0 {
                continue;
            }
            let obs = Observation {
                qps: Qps::of(qps),
                p95_latency: if i == self.frontend {
                    fe_p95.map(Secs::of)
                } else {
                    None
                },
            };
            let dep = &mut self.deploys[i];
            let (hpa, decision) = dep
                .policy
                .step(&dep.hpa, SimTime::from_secs(now), current, obs);
            dep.hpa = hpa;
            if let Some(desired) = decision {
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
                // Apply-time stale-decision guard. Decisions apply
                // atomically here, so this is an exact no-op — but the
                // er-mc model checks the delivery-delayed apply path, and
                // both must route through the same guard.
                let desired = clamp_scale_to_load(
                    desired,
                    current,
                    Qps::of(qps),
                    Qps::of(self.plan.shards[i].qps_max()),
                );
                if desired != current {
                    // A full cluster is not fatal: keep serving as-is.
                    let _ = self
                        .cluster
                        .scale_deployment(id, desired, SimTime::from_secs(now));
                }
            }
        }
        let next = now + HPA_INTERVAL_SECS;
        if next <= self.cfg.duration_secs {
            self.queue
                .schedule(SimTime::from_secs(next), Event::HpaTick);
        }
    }

    fn event_loop(mut self) -> SimulationOutcome {
        self.schedule_arrival(0.0);
        // Drain the event queue; in-flight queries past the horizon still
        // complete so their latencies are counted.
        while let Some((t, ev)) = self.queue.pop() {
            let now = t.as_secs();
            match ev {
                Event::Arrival => self.on_arrival(now),
                // lint::allow(hot_alloc): cold failure-recovery path
                Event::NodeFailure => self.on_node_failure(now),
                Event::SparseArrive { qid, group } => self.on_sparse_arrive(now, qid, group),
                Event::FanIn { qid } => self.on_fan_in(now, qid),
                Event::TopDone { qid } => self.on_top_done(now, qid),
                // lint::allow(hot_alloc): cold control-plane tick
                Event::MetricsTick => self.on_metrics_tick(now),
                // lint::allow(hot_alloc): cold control-plane tick
                Event::HpaTick => self.on_hpa_tick(now),
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan, Strategy};
    use er_model::configs;

    /// A small model so tests stay fast.
    fn small_model() -> er_model::ModelConfig {
        configs::rm1().with_num_tables(2)
    }

    fn run(strategy: Strategy, qps: f64, secs: f64) -> SimulationOutcome {
        let calib = Calibration::cpu_only();
        let p = plan(&small_model(), Platform::CpuOnly, strategy, &calib);
        let cfg = SimulationConfig::new(TrafficSchedule::constant(qps), secs, 42);
        Simulation::run(&p, &calib, &cfg)
    }

    #[test]
    fn steady_traffic_is_served_at_rate() {
        let out = run(Strategy::Elastic, 50.0, 20.0);
        assert!(out.total_queries > 0);
        // Nearly everything completes.
        assert!(
            out.completed_queries as f64 >= 0.95 * out.total_queries as f64,
            "{}/{}",
            out.completed_queries,
            out.total_queries
        );
        // Later intervals achieve roughly the offered rate.
        let tail: Vec<f64> = out
            .achieved_qps
            .points()
            .iter()
            .filter(|p| p.time > 10.0)
            .map(|p| p.value)
            .collect();
        let mean = er_tensor::reduce::mean_f64(&tail);
        assert!((mean - 50.0).abs() < 12.0, "mean={mean}");
    }

    #[test]
    fn model_wise_also_serves() {
        let out = run(Strategy::ModelWise, 30.0, 15.0);
        assert!(out.completed_queries > 100);
        assert!(out.mean_latency_secs() > 0.0);
    }

    #[test]
    fn latencies_meet_sla_under_light_load() {
        let out = run(Strategy::Elastic, 20.0, 15.0);
        assert!(
            out.latency.percentile(0.95) < 0.4,
            "p95={}",
            out.latency.percentile(0.95)
        );
    }

    #[test]
    fn elastic_latency_includes_rpc_overhead() {
        // Elastic pays extra network hops vs model-wise (Section VI-B
        // reports ~31 ms added latency).
        let el = run(Strategy::Elastic, 20.0, 10.0);
        let mw = run(Strategy::ModelWise, 20.0, 10.0);
        assert!(
            el.mean_latency_secs() > mw.mean_latency_secs(),
            "elastic={} mw={}",
            el.mean_latency_secs(),
            mw.mean_latency_secs()
        );
    }

    #[test]
    fn traffic_step_triggers_scale_out() {
        let calib = Calibration::cpu_only();
        let p = plan(&small_model(), Platform::CpuOnly, Strategy::Elastic, &calib);
        let schedule = TrafficSchedule::steps(&[(0.0, 20.0), (15.0, 120.0)]).unwrap();
        let cfg = SimulationConfig::new(schedule, 45.0, 7);
        let out = Simulation::run(&p, &calib, &cfg);
        // Memory allocation grows after the step.
        let early = out.memory_gib.value_at(10.0).unwrap();
        let late = out.memory_gib.value_at(44.0).unwrap();
        assert!(late > early, "early={early} late={late}");
        // Achieved QPS eventually tracks the higher target.
        let final_qps = out.achieved_qps.value_at(44.0).unwrap();
        assert!(final_qps > 80.0, "final_qps={final_qps}");
    }

    #[test]
    fn outcome_accounting_is_consistent() {
        let out = run(Strategy::Elastic, 40.0, 10.0);
        assert_eq!(out.latency.count(), out.completed_queries);
        assert!(out.metric_intervals > 0);
        assert!(out.violation_fraction() <= 1.0);
        assert!(out.peak_memory_gib >= out.memory_gib.value_at(1.0).unwrap());
        assert!(out.final_nodes_used >= 1);
        assert!(out.total_replicas.value_at(1.0).unwrap() >= 1.0);
    }

    #[test]
    fn stage_breakdown_accounts_for_latency() {
        let out = run(Strategy::Elastic, 20.0, 10.0);
        let st = &out.stages;
        assert_eq!(st.frontend_service.count(), out.total_queries);
        assert_eq!(st.client_rtt.count(), out.completed_queries);
        // Reconstructed mean latency: wait + max(bottom, sparse phase)
        // approximated by the recorded means, + top wait + top + rtt.
        let approx = st.frontend_wait.mean()
            + st.frontend_service.mean().max(st.sparse_phase.mean())
            + st.top_wait.mean()
            + st.top_service.mean()
            + st.client_rtt.mean();
        let actual = out.mean_latency_secs();
        assert!(
            (approx - actual).abs() / actual < 0.25,
            "approx {approx:.4} vs actual {actual:.4}"
        );
        // The sparse fan-out dominates the bottom phase for RM1.
        assert!(st.sparse_phase.mean() > st.frontend_service.mean());
    }

    #[test]
    fn monolith_has_no_sparse_stages() {
        let out = run(Strategy::ModelWise, 20.0, 10.0);
        assert_eq!(out.stages.sparse_phase.count(), 0);
        assert_eq!(out.stages.top_service.count(), 0);
        assert!(out.stages.frontend_service.mean() > 0.0);
    }

    #[test]
    fn cpu_gpu_platform_serves_within_sla() {
        let calib = Calibration::cpu_gpu();
        let p = plan(&small_model(), Platform::CpuGpu, Strategy::Elastic, &calib);
        let cfg = SimulationConfig::new(TrafficSchedule::constant(60.0), 15.0, 9);
        let out = Simulation::run(&p, &calib, &cfg);
        assert!(out.completed_queries > 500);
        assert!(
            out.latency.percentile(0.95) < 0.4,
            "p95={}",
            out.latency.percentile(0.95)
        );
    }

    #[test]
    fn node_failure_recovers() {
        let calib = Calibration::cpu_only();
        let p = plan(&small_model(), Platform::CpuOnly, Strategy::Elastic, &calib);
        let mut cfg = SimulationConfig::new(TrafficSchedule::constant(40.0), 60.0, 5);
        cfg.fail_node_at = Some(20.0);
        let out = Simulation::run(&p, &calib, &cfg);
        // Everything injected still completes, and the tail of the run is
        // healthy again.
        assert!(out.completed_queries as f64 > 0.95 * out.total_queries as f64);
        let late_p95 = out
            .p95_ms
            .points()
            .iter()
            .filter(|pt| pt.time > 50.0)
            .map(|pt| pt.value)
            .fold(0.0, f64::max);
        assert!(late_p95 < 400.0, "late p95 {late_p95} ms");
    }

    /// FNV-1a fold over every observable in the outcome, bit-exact: any
    /// reordering of any event anywhere in the run changes this value.
    fn digest(out: &SimulationOutcome) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x100_0000_01b3);
        fold(out.total_queries);
        fold(out.completed_queries);
        fold(out.sla_violation_intervals as u64);
        fold(out.metric_intervals as u64);
        fold(out.final_nodes_used as u64);
        fold(out.peak_memory_gib.to_bits());
        fold(out.latency.count());
        fold(out.latency.mean().to_bits());
        for p in [0.5, 0.95, 0.99] {
            fold(out.latency.percentile(p).to_bits());
        }
        for series in [
            &out.achieved_qps,
            &out.target_qps,
            &out.memory_gib,
            &out.p95_ms,
            &out.total_replicas,
        ] {
            for pt in series.points() {
                fold(pt.time.to_bits());
                fold(pt.value.to_bits());
            }
        }
        for hist in [
            &out.stages.frontend_wait,
            &out.stages.frontend_service,
            &out.stages.sparse_phase,
            &out.stages.top_wait,
            &out.stages.top_service,
            &out.stages.client_rtt,
        ] {
            fold(hist.count());
            if hist.count() > 0 {
                fold(hist.mean().to_bits());
            }
        }
        h
    }

    /// One group per embedding shard: one `SparseArrive` per shard, the
    /// ungrouped fan-out the grouping must reproduce.
    fn per_shard(delays: &[(usize, f64)]) -> Vec<FanOutGroup> {
        delays
            .iter()
            .map(|&(shard, req_secs)| FanOutGroup {
                req_secs,
                shards: vec![shard],
            })
            .collect()
    }

    /// Asserts that `p` under `cfg` gives the same outcome digest when
    /// fanned out as `grouped` as when fanned out shard by shard with the
    /// same delays, and returns the outcome.
    fn assert_grouping_is_exact(
        p: &ServingPlan,
        calib: &Calibration,
        cfg: &SimulationConfig,
        delays: &[(usize, f64)],
        grouped: Vec<FanOutGroup>,
    ) -> SimulationOutcome {
        let reference = Engine::with_groups(p, calib, cfg, per_shard(delays)).event_loop();
        let out = Engine::with_groups(p, calib, cfg, grouped).event_loop();
        assert_eq!(digest(&out), digest(&reference));
        assert!(out.completed_queries > 0);
        out
    }

    fn assert_computed_groups_are_exact(
        p: &ServingPlan,
        calib: &Calibration,
        cfg: &SimulationConfig,
    ) -> SimulationOutcome {
        let delays = request_delays(p);
        assert_grouping_is_exact(p, calib, cfg, &delays, fan_out_groups(&delays))
    }

    #[test]
    fn fan_out_groups_partition_shards_by_delay_bits_in_plan_order() {
        let d = 0.25f64;
        let next = f64::from_bits(d.to_bits() + 1);
        let delays = [(1, d), (2, 0.5), (4, next), (5, d), (7, 0.5), (8, -0.0)];
        let groups = fan_out_groups(&delays);
        let expect = |req_secs: f64, shards: &[usize]| FanOutGroup {
            req_secs,
            shards: shards.to_vec(),
        };
        // Adjacent floats and the two zeros differ in bits, so they stay
        // apart; each group is ordered by its first shard.
        assert_eq!(
            groups,
            vec![
                expect(d, &[1, 5]),
                expect(0.5, &[2, 7]),
                expect(next, &[4]),
                expect(-0.0, &[8]),
            ]
        );
        assert!(fan_out_groups(&[]).is_empty());

        // RM1 Elastic: four shard shapes, each repeated across ten tables.
        // Every embedding shard lands in exactly one group, in plan order.
        let calib = Calibration::cpu_only();
        let p = plan(
            &configs::rm1(),
            Platform::CpuOnly,
            Strategy::Elastic,
            &calib,
        );
        let delays = request_delays(&p);
        assert_eq!(delays.len(), 40);
        let groups = fan_out_groups(&delays);
        assert_eq!(groups.len(), 4);
        let mut covered: Vec<usize> = Vec::new();
        for g in &groups {
            assert_eq!(g.shards.len(), 10);
            assert!(g.shards.windows(2).all(|w| w[0] < w[1]));
            for &shard in &g.shards {
                let (_, req) = delays.iter().find(|&&(s, _)| s == shard).unwrap();
                assert_eq!(req.to_bits(), g.req_secs.to_bits());
            }
            covered.extend(&g.shards);
        }
        assert!(groups.windows(2).all(|w| w[0].shards[0] < w[1].shards[0]));
        covered.sort_unstable();
        let embedding: Vec<usize> = delays.iter().map(|&(s, _)| s).collect();
        assert_eq!(covered, embedding);
    }

    #[test]
    fn grouped_fan_out_matches_per_shard_fan_out() {
        // Small model, steady traffic.
        let calib = Calibration::cpu_only();
        let small = plan(&small_model(), Platform::CpuOnly, Strategy::Elastic, &calib);
        let cfg = SimulationConfig::new(TrafficSchedule::constant(50.0), 20.0, 42);
        assert_computed_groups_are_exact(&small, &calib, &cfg);

        // RM1's Figure 19 ramp under a node cap, with a node failure.
        let rm1 = plan(
            &configs::rm1(),
            Platform::CpuOnly,
            Strategy::Elastic,
            &calib,
        );
        let mut cfg = SimulationConfig::new(TrafficSchedule::figure19(40.0, 4.0), 24.0, 3);
        cfg.max_nodes = Some(2);
        cfg.fail_node_at = Some(9.0);
        let out = assert_computed_groups_are_exact(&rm1, &calib, &cfg);
        assert!(out.final_nodes_used <= 2);

        // The CPU-GPU platform.
        let calib = Calibration::cpu_gpu();
        let gpu = plan(&small_model(), Platform::CpuGpu, Strategy::Elastic, &calib);
        let cfg = SimulationConfig::new(TrafficSchedule::constant(60.0), 10.0, 9);
        assert_computed_groups_are_exact(&gpu, &calib, &cfg);
    }

    #[test]
    fn grouping_is_exact_when_distinct_delays_land_at_one_instant() {
        // Two delays one ulp apart: added to a start past the run's first
        // few milliseconds they round to the same instant, so shards of the
        // two groups, alternating in plan order, land together.
        let calib = Calibration::cpu_only();
        let p = plan(
            &configs::rm1().with_num_tables(3),
            Platform::CpuOnly,
            Strategy::Elastic,
            &calib,
        );
        let near = 0.002f64;
        let far = f64::from_bits(near.to_bits() + 1);
        assert_ne!(near.to_bits(), far.to_bits());
        assert_eq!(1.0 + near, 1.0 + far);
        let delays: Vec<(usize, f64)> = request_delays(&p)
            .iter()
            .enumerate()
            .map(|(k, &(shard, _))| (shard, if k % 2 == 0 { near } else { far }))
            .collect();
        assert!(delays.len() >= 3);
        let grouped = fan_out_groups(&delays);
        assert_eq!(grouped.len(), 2);
        let cfg = SimulationConfig::new(TrafficSchedule::constant(80.0), 15.0, 11);
        assert_grouping_is_exact(&p, &calib, &cfg, &delays, grouped);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(Strategy::Elastic, 30.0, 8.0);
        let b = run(Strategy::Elastic, 30.0, 8.0);
        assert_eq!(digest(&a), digest(&b));

        // HPA reconfigurations under a traffic step plus a node failure:
        // the whole outcome still repeats bit for bit.
        let calib = Calibration::cpu_only();
        let p = plan(&small_model(), Platform::CpuOnly, Strategy::Elastic, &calib);
        let schedule = TrafficSchedule::steps(&[(0.0, 20.0), (10.0, 90.0)]).unwrap();
        let mut cfg = SimulationConfig::new(schedule, 30.0, 7);
        cfg.fail_node_at = Some(13.0);
        let a = Simulation::run(&p, &calib, &cfg);
        let b = Simulation::run(&p, &calib, &cfg);
        assert_eq!(digest(&a), digest(&b));
        let replicas: Vec<f64> = a
            .total_replicas
            .points()
            .iter()
            .map(|pt| pt.value)
            .collect();
        assert!(
            replicas.windows(2).any(|w| w[0] != w[1]),
            "the scenario never rescaled: {replicas:?}"
        );
    }
}
