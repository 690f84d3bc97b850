//! The composed control-plane model: HPA × balancer × scheduler × pod
//! startup, explored over message interleavings.
//!
//! Scaling decisions, pod placement and routing call the *production*
//! pure handlers the simulation engine runs — `HpaPolicy::step`,
//! `er_cluster::place_pod` and `er_cluster::soonest_start`. Routing feeds
//! the pick the model's own ground truth: a starting pod is ready one tick
//! from now, and a pod with `k` requests in flight is free `k` ticks from
//! now. All of it runs over a quantized state:
//! time advances in 30-second ticks (so the 60 s scale-down stabilization
//! window is exactly 2 ticks) and traffic is scripted in replica-units of
//! the HPA target (1 unit = 100 QPS = one replica's capacity).
//!
//! Nondeterminism = the interleavings the real system exhibits: when the
//! controller's scale decision is delivered relative to routing and
//! completions, and how fast traffic steps arrive. Fairness is encoded
//! in action guards: a tick cannot fire while a scale decision is
//! undelivered (bounded message delay), routing stops at the horizon so
//! in-flight work can drain, and traffic steps leave enough ticks for the
//! HPA to converge.
//!
//! Safety violations are *latched* into the state (`flags`) rather than
//! panicking, so the checker reports them as ordinary invariant failures
//! with minimized replayable traces.

use er_cluster::{
    clamp_scale_to_load, place_pod, soonest_start, HpaPolicy, HpaState, NodeView, Placement,
    PoolView, ResourceRequest, ScalingTarget, SCALE_DOWN_STABILIZATION,
};
use er_sim::SimTime;
use er_units::Qps;

use crate::checker::{Model, Property, PropertyKind};

/// Seconds per model tick: half the stabilization window.
pub const TICK_SECS: f64 = 30.0;
/// The HPA target: one replica serves 100 QPS.
pub const TARGET_QPS: f64 = 100.0;
/// Scale-down stabilization window, in ticks.
pub const STABILIZATION_TICKS: u8 = (SCALE_DOWN_STABILIZATION.raw() / TICK_SECS) as u8;
// The tick grid must land exactly on the window's end, or the quantized
// model would check a different window than the handler enforces.
const _: () = assert!(STABILIZATION_TICKS as f64 * TICK_SECS == SCALE_DOWN_STABILIZATION.raw());
/// Ticks of headroom a traffic step must leave before the horizon so the
/// HPA can converge (rate-limited scale-up plus a stabilization window).
const CONVERGE_TICKS: u8 = 4;
/// One pod's resource request in the placement submodel.
const POD_REQUEST: ResourceRequest = ResourceRequest {
    cpu_millicores: 1000,
    memory_bytes: 1 << 30,
    gpus: 0,
};
/// Node capacity: two pods per node.
const NODE_CAPACITY: ResourceRequest = ResourceRequest {
    cpu_millicores: 2000,
    memory_bytes: 4 << 30,
    gpus: 0,
};

/// Latched safety-violation bits.
mod flag {
    /// A scale-down was applied below serving capacity (P1).
    pub(crate) const DOWN_BELOW_CAPACITY: u8 = 1 << 0;
    /// Two scale-downs were applied within the stabilization window (P2).
    pub(crate) const THRASH: u8 = 1 << 1;
    /// A node exceeded its capacity (P5).
    pub(crate) const NODE_OVERCOMMIT: u8 = 1 << 2;
    /// A request was routed to a pod that was not live, started before
    /// `now` or its pod's readiness, or could have started sooner
    /// elsewhere (P3).
    pub(crate) const MISROUTE: u8 = 1 << 3;
}

/// A deliberately broken handler variant, used to prove the checker
/// catches real control-plane bugs with minimized traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The handlers as shipped.
    None,
    /// The HPA evaluates against a fresh state every tick — the
    /// scale-down stabilization window is forgotten. Caught by P2.
    ForgetStabilization,
    /// Routing treats starting pods as ready, so a request can be sent
    /// to a pod before its startup completes. Caught by P3.
    IgnoreReadiness,
    /// Scale-downs remove one replica more than decided. Caught by P1.
    OverDrain,
    /// Scale-up decisions are silently dropped. Caught by P4.
    StuckHpa,
    /// The apply path skips [`er_cluster::clamp_scale_to_load`] — the
    /// stale-decision race this checker originally *found* (a scale-down
    /// decided before a traffic step, delivered after it). Caught by P1.
    NoApplyClamp,
}

/// Model bounds and the seeded mutation.
#[derive(Debug, Clone)]
pub struct CpConfig {
    /// Per-traffic-step, per-deployment load in replica-units of
    /// [`TARGET_QPS`]. `traffic[s][d]` is deployment `d`'s load at step
    /// `s`; every inner vector fixes the deployment count.
    pub traffic: Vec<Vec<u8>>,
    /// Replica ceiling per deployment (the floor is always 1).
    pub max_replicas: u8,
    /// Exploration horizon in ticks.
    pub max_ticks: u8,
    /// In-flight request cap per deployment.
    pub inflight_budget: u8,
    /// Node-provisioning cap for the placement submodel.
    pub max_nodes: u8,
    /// Which (if any) seeded bug to explore.
    pub mutation: Mutation,
}

impl CpConfig {
    /// The documented CI bound: 2 deployments × 3 max replicas × 6
    /// traffic steps, 12 ticks, 4 in-flight per deployment.
    ///
    /// Deployment 0's script rises to 3 then steps down through 2 to 1 —
    /// the double scale-down that arms the stabilization property;
    /// deployment 1 oscillates to interleave independent scale traffic.
    pub fn ci() -> Self {
        Self {
            traffic: vec![
                vec![1, 1],
                vec![3, 2],
                vec![3, 2],
                vec![2, 1],
                vec![1, 2],
                vec![1, 1],
            ],
            max_replicas: 3,
            max_ticks: 12,
            inflight_budget: 4,
            max_nodes: 3,
            mutation: Mutation::None,
        }
    }

    /// A small bound for fast smoke tests (`er-mc --smoke`).
    pub fn smoke() -> Self {
        Self {
            traffic: vec![vec![1, 1], vec![3, 1], vec![1, 2], vec![1, 1]],
            max_ticks: 8,
            ..Self::ci()
        }
    }

    /// Number of deployments in the script.
    pub fn deployments(&self) -> usize {
        self.traffic[0].len()
    }

    /// The HPA policy every modeled deployment runs.
    pub fn policy(&self) -> HpaPolicy {
        HpaPolicy::new(
            self.max_replicas as usize,
            ScalingTarget::QpsPerReplica(Qps::of(TARGET_QPS)),
        )
    }
}

/// One deployment's slice of the control-plane state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeployCp {
    /// Node index of each scheduled pod, oldest first (`len` = replicas).
    pub pod_nodes: Vec<u8>,
    /// Newest pods still inside their startup window.
    pub starting: u8,
    /// The HPA's pure state, quantized: tick of the last scale-down
    /// decision (`HpaState::last_scale_down` on the tick grid).
    pub last_down_tick: Option<u8>,
    /// Tick at which the last scale-down was *applied* — the model's own
    /// ground truth for the thrash property, independent of the handler.
    pub last_applied_down_tick: Option<u8>,
    /// An HPA decision in flight to the cluster, if any.
    pub pending: Option<u8>,
    /// True per-replica in-flight counts (the ground truth).
    pub inflight: Vec<u32>,
}

impl DeployCp {
    fn replicas(&self) -> usize {
        self.pod_nodes.len()
    }

    fn ready(&self) -> usize {
        self.replicas() - self.starting as usize
    }

    fn total_inflight(&self) -> u32 {
        self.inflight.iter().sum()
    }
}

/// The whole control-plane state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpState {
    /// Current tick (0-based; time = `tick × TICK_SECS`).
    pub tick: u8,
    /// Position in the traffic script.
    pub traffic_idx: u8,
    /// Nodes provisioned so far (monotonic, like the real cluster).
    pub nodes: u8,
    /// Latched safety-violation bits (see `flag`).
    pub flags: u8,
    /// Per-deployment state.
    pub deploys: Vec<DeployCp>,
}

/// One atomic control-plane event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpAction {
    /// Time advances one tick: startups complete, then every deployment's
    /// HPA evaluates the current traffic (the engine's periodic HpaTick).
    Tick,
    /// The offered load moves to the next scripted step.
    TrafficStep,
    /// The pending scale decision for deployment `d` reaches the cluster.
    DeliverScale {
        /// Target deployment.
        d: u8,
    },
    /// One request is routed to deployment `d` (soonest-start pick).
    Route {
        /// Target deployment.
        d: u8,
    },
    /// A request in flight at deployment `d`, replica `r`, completes.
    Complete {
        /// Target deployment.
        d: u8,
        /// Completing replica.
        r: u8,
    },
}

/// The control-plane model.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    /// Bounds, script, and mutation switches.
    pub cfg: CpConfig,
    policy: HpaPolicy,
}

impl ControlPlane {
    /// Builds the model for a config.
    ///
    /// # Panics
    ///
    /// Panics if the traffic script is empty or ragged.
    pub fn new(cfg: CpConfig) -> Self {
        assert!(!cfg.traffic.is_empty(), "traffic script must be non-empty");
        let d = cfg.traffic[0].len();
        assert!(d > 0, "need at least one deployment");
        assert!(
            cfg.traffic.iter().all(|s| s.len() == d),
            "ragged traffic script"
        );
        let policy = cfg.policy();
        Self { cfg, policy }
    }

    fn qps_units(&self, state: &CpState, d: usize) -> u8 {
        self.cfg.traffic[state.traffic_idx as usize][d]
    }

    /// Builds the placement views for the current state and places one pod
    /// of deployment `d`, returning the chosen node (provisioning if
    /// needed) or `None` when the cluster is full.
    fn place_one(&self, state: &mut CpState, d: usize) -> Option<u8> {
        let nodes: Vec<NodeView> = (0..state.nodes)
            .map(|i| {
                let pods_on = state
                    .deploys
                    .iter()
                    .flat_map(|dep| dep.pod_nodes.iter())
                    .filter(|&&n| n == i)
                    .count() as u64;
                NodeView {
                    pool: 0,
                    allocated: ResourceRequest {
                        cpu_millicores: POD_REQUEST.cpu_millicores * pods_on,
                        memory_bytes: POD_REQUEST.memory_bytes * pods_on,
                        gpus: 0,
                    },
                    failed: false,
                    same_deployment_pods: state.deploys[d]
                        .pod_nodes
                        .iter()
                        .filter(|&&n| n == i)
                        .count(),
                }
            })
            .collect();
        let pools = [PoolView {
            capacity: NODE_CAPACITY,
            max_nodes: Some(self.cfg.max_nodes as usize),
            live_nodes: state.nodes as usize,
        }];
        match place_pod(&nodes, &pools, &POD_REQUEST) {
            Ok(Placement::Existing(i)) => Some(i as u8),
            Ok(Placement::Provision { pool: _ }) => {
                state.nodes += 1;
                Some(state.nodes - 1)
            }
            Err(_) => None,
        }
    }

    /// Runs the (possibly mutated) HPA handler for deployment `d` at the
    /// state's current tick; stores the successor HPA state and queues the
    /// decision as a pending message.
    fn hpa_evaluate(&self, state: &mut CpState, d: usize) {
        let units = self.qps_units(state, d);
        let dep = &state.deploys[d];
        let hpa_in = match self.cfg.mutation {
            Mutation::ForgetStabilization => HpaState::default(),
            _ => hpa_state_at(dep.last_down_tick),
        };
        let now = SimTime::from_secs(f64::from(state.tick) * TICK_SECS);
        let obs = er_cluster::Observation {
            qps: Qps::of(f64::from(units) * TARGET_QPS),
            p95_latency: None,
        };
        let (hpa_out, decision) = self.policy.step(&hpa_in, now, dep.replicas(), obs);
        let dep = &mut state.deploys[d];
        if self.cfg.mutation != Mutation::ForgetStabilization {
            dep.last_down_tick = tick_of(hpa_out);
        }
        if let Some(n) = decision {
            if self.cfg.mutation == Mutation::StuckHpa && n > dep.replicas() {
                return;
            }
            dep.pending = Some(n as u8);
        }
    }

    /// Applies a delivered scale decision to deployment `d`.
    fn apply_scale(&self, state: &mut CpState, d: usize) {
        let Some(n) = state.deploys[d].pending.take() else {
            return;
        };
        let current = state.deploys[d].replicas() as u8;
        let units = self.qps_units(state, d);
        let mut target = n;
        if self.cfg.mutation != Mutation::NoApplyClamp {
            // The fix for the stale-decision race this checker found: the
            // load may have stepped up between decision and delivery, so
            // the apply path re-validates against the load offered *now* —
            // the same `clamp_scale_to_load` the engine routes through.
            target = clamp_scale_to_load(
                target as usize,
                current as usize,
                Qps::of(f64::from(units) * TARGET_QPS),
                Qps::of(TARGET_QPS),
            ) as u8;
        }
        if self.cfg.mutation == Mutation::OverDrain && target < current {
            target = target.saturating_sub(1).max(1);
        }
        if target < current {
            // P1: the applied capacity must still cover the offered load.
            if target < units {
                state.flags |= flag::DOWN_BELOW_CAPACITY;
            }
            // P2: no second scale-down within the stabilization window.
            if let Some(prev) = state.deploys[d].last_applied_down_tick {
                if state.tick - prev < STABILIZATION_TICKS {
                    state.flags |= flag::THRASH;
                }
            }
            let dep = &mut state.deploys[d];
            dep.last_applied_down_tick = Some(state.tick);
            // Victims are newest-first (Kubernetes default): starting pods
            // go before ready ones.
            let removed = current - target;
            dep.starting = dep.starting.saturating_sub(removed);
            dep.pod_nodes.truncate(target as usize);
            dep.inflight.truncate(target as usize);
        } else if target > current {
            for _ in current..target {
                // A full cluster is not fatal: scale as far as placement
                // allows, exactly like the engine's `scale_deployment`.
                let Some(node) = self.place_one(state, d) else {
                    break;
                };
                let dep = &mut state.deploys[d];
                dep.pod_nodes.push(node);
                // One-tick startup: the pod becomes ready at the next Tick.
                dep.starting += 1;
                dep.inflight.push(0);
            }
        }
        // P5: placement must never overcommit a node.
        let mut pods_per_node = vec![0u64; state.nodes as usize];
        for dep in &state.deploys {
            for &n in &dep.pod_nodes {
                pods_per_node[n as usize] += 1;
            }
        }
        let per_node = NODE_CAPACITY.cpu_millicores / POD_REQUEST.cpu_millicores;
        if pods_per_node.iter().any(|&p| p > per_node) {
            state.flags |= flag::NODE_OVERCOMMIT;
        }
    }

    /// Routes one request of deployment `d` with the engine's pick, and
    /// latches P3 if the pick disagrees with the model's ground truth.
    fn route(&self, state: &mut CpState, d: usize) {
        let now = f64::from(state.tick) * TICK_SECS;
        let dep = &state.deploys[d];
        let (live, ready) = (dep.replicas(), dep.ready());
        // Replica `r`'s true `(ready_at, free_at)`: the newest `starting`
        // pods come up at the next tick, and each in-flight request holds
        // its replica for one tick.
        let truth = |r: usize| {
            let ready_at = if r < ready { now } else { now + TICK_SECS };
            (ready_at, now + f64::from(dep.inflight[r]) * TICK_SECS)
        };
        let ignore_readiness = self.cfg.mutation == Mutation::IgnoreReadiness;
        let pick = soonest_start(
            now,
            (0..live).map(|r| {
                let (ready_at, free_at) = truth(r);
                let ready_at = if ignore_readiness { now } else { ready_at };
                (r as u64, ready_at, free_at)
            }),
        )
        .map(|(r, start)| (r as usize, start))
        .filter(|&(r, _)| r < live);
        // The model's own brute-force minimum over every live pod.
        let soonest = (0..live)
            .map(|r| {
                let (ready_at, free_at) = truth(r);
                now.max(ready_at).max(free_at)
            })
            .fold(f64::INFINITY, f64::min);
        let ok =
            pick.is_some_and(|(r, start)| start >= now && start >= truth(r).0 && start <= soonest);
        if !ok {
            state.flags |= flag::MISROUTE;
        }
        if let Some((r, _)) = pick {
            state.deploys[d].inflight[r] += 1;
        }
    }
}

/// Maps a quantized scale-down tick back onto the real `HpaState`.
fn hpa_state_at(last_down_tick: Option<u8>) -> HpaState {
    HpaState::with_last_scale_down(
        last_down_tick.map(|t| SimTime::from_secs(f64::from(t) * TICK_SECS)),
    )
}

/// Maps a real `HpaState` back onto the tick grid.
fn tick_of(state: HpaState) -> Option<u8> {
    state.last_scale_down().map(|t| {
        let ticks = t.as_secs() / TICK_SECS;
        // Exact on the grid: decisions only happen at tick boundaries.
        ticks as u8
    })
}

impl Model for ControlPlane {
    type State = CpState;
    type Action = CpAction;

    fn init(&self) -> CpState {
        let deploys = (0..self.cfg.deployments())
            .map(|_| DeployCp {
                pod_nodes: Vec::new(),
                starting: 0,
                last_down_tick: None,
                last_applied_down_tick: None,
                pending: None,
                inflight: Vec::new(),
            })
            .collect();
        let mut state = CpState {
            tick: 0,
            traffic_idx: 0,
            nodes: 0,
            flags: 0,
            deploys,
        };
        // Every deployment starts with one warm replica, like the
        // engine's warmed-up initial deployments.
        for d in 0..self.cfg.deployments() {
            #[expect(
                clippy::expect_used,
                reason = "the built-in bounds give every deployment's first replica a node"
            )]
            let node = self
                .place_one(&mut state, d)
                .expect("initial placement must fit");
            state.deploys[d].pod_nodes.push(node);
            state.deploys[d].inflight.push(0);
        }
        state
    }

    fn actions(&self, state: &CpState, out: &mut Vec<CpAction>) {
        let all_delivered = state.deploys.iter().all(|d| d.pending.is_none());
        // Bounded message delay (fairness): scale decisions are delivered
        // within the tick that issued them.
        if state.tick < self.cfg.max_ticks && all_delivered {
            out.push(CpAction::Tick);
        }
        // Traffic steps leave the HPA room to converge by the horizon.
        if (state.traffic_idx as usize) + 1 < self.cfg.traffic.len()
            && state.tick + CONVERGE_TICKS <= self.cfg.max_ticks
        {
            out.push(CpAction::TrafficStep);
        }
        for (d, dep) in state.deploys.iter().enumerate() {
            let d8 = d as u8;
            if dep.pending.is_some() {
                out.push(CpAction::DeliverScale { d: d8 });
            }
            if state.tick < self.cfg.max_ticks
                && dep.ready() > 0
                && dep.total_inflight() < u32::from(self.cfg.inflight_budget)
            {
                out.push(CpAction::Route { d: d8 });
            }
            // Work queued on a starting pod waits for the tick that makes
            // it ready; only ready pods complete requests.
            for (r, &inflight) in dep.inflight.iter().enumerate().take(dep.ready()) {
                if inflight > 0 {
                    out.push(CpAction::Complete { d: d8, r: r as u8 });
                }
            }
        }
    }

    fn next(&self, state: &CpState, action: &CpAction) -> Option<CpState> {
        let mut s = state.clone();
        match *action {
            CpAction::Tick => {
                if s.tick >= self.cfg.max_ticks || s.deploys.iter().any(|d| d.pending.is_some()) {
                    return None;
                }
                s.tick += 1;
                for d in 0..s.deploys.len() {
                    s.deploys[d].starting = 0;
                    self.hpa_evaluate(&mut s, d);
                }
            }
            CpAction::TrafficStep => {
                if (s.traffic_idx as usize) + 1 >= self.cfg.traffic.len()
                    || s.tick + CONVERGE_TICKS > self.cfg.max_ticks
                {
                    return None;
                }
                s.traffic_idx += 1;
            }
            CpAction::DeliverScale { d } => {
                let d = d as usize;
                if d >= s.deploys.len() || s.deploys[d].pending.is_none() {
                    return None;
                }
                self.apply_scale(&mut s, d);
            }
            CpAction::Route { d } => {
                let d = d as usize;
                if d >= s.deploys.len() {
                    return None;
                }
                let dep = &s.deploys[d];
                if s.tick >= self.cfg.max_ticks
                    || dep.ready() == 0
                    || dep.total_inflight() >= u32::from(self.cfg.inflight_budget)
                {
                    return None;
                }
                self.route(&mut s, d);
            }
            CpAction::Complete { d, r } => {
                let (d, r) = (d as usize, r as usize);
                if d >= s.deploys.len()
                    || r >= s.deploys[d].ready()
                    || s.deploys[d].inflight.get(r).copied().unwrap_or(0) == 0
                {
                    return None;
                }
                s.deploys[d].inflight[r] -= 1;
            }
        }
        Some(s)
    }
}

/// The property catalog: the four required control-plane properties plus
/// the node-capacity invariant the placement submodel makes checkable.
pub fn properties() -> Vec<Property<ControlPlane>> {
    vec![
        Property {
            name: "no_scale_down_below_capacity",
            kind: PropertyKind::Always,
            check: |_, s| s.flags & flag::DOWN_BELOW_CAPACITY == 0,
        },
        Property {
            name: "no_thrash_within_stabilization",
            kind: PropertyKind::Always,
            check: |_, s| s.flags & flag::THRASH == 0,
        },
        Property {
            name: "routes_to_soonest_start",
            kind: PropertyKind::Always,
            check: |_, s| s.flags & flag::MISROUTE == 0,
        },
        Property {
            name: "converges_to_target_replicas",
            kind: PropertyKind::EventuallyTerminal,
            check: |m, s| {
                s.deploys.iter().enumerate().all(|(d, dep)| {
                    let units = m.cfg.traffic[s.traffic_idx as usize][d];
                    let now = SimTime::from_secs(f64::from(s.tick) * TICK_SECS);
                    let obs = er_cluster::Observation {
                        qps: Qps::of(f64::from(units) * TARGET_QPS),
                        p95_latency: None,
                    };
                    let hpa = hpa_state_at(dep.last_down_tick);
                    // Converged = the real policy has nothing left to do.
                    let (_, decision) = m.cfg.policy().step(&hpa, now, dep.replicas(), obs);
                    decision.is_none()
                })
            },
        },
        Property {
            name: "no_node_overcommit",
            kind: PropertyKind::Always,
            check: |_, s| s.flags & flag::NODE_OVERCOMMIT == 0,
        },
    ]
}
