//! The actor shape: pure `on_msg` handlers over value states, plus
//! adapters wrapping the *real* control-plane handlers (the same
//! `HpaPolicy::step`, `er_rpc::pure` transitions, and `place_pod` the
//! simulation engine executes) so the model checker explores production
//! code, not a re-model.

use std::fmt;
use std::hash::{Hash, Hasher};

use er_cluster::{
    place_pod, HpaPolicy, HpaState, NodeView, Observation, PlaceError, Placement, PoolView,
    ResourceRequest,
};
use er_sim::SimTime;
use er_units::{Qps, Secs};

/// A pure actor: a state value and a total, deterministic message handler.
/// No clocks, no RNG, no ambient state — everything the handler needs
/// arrives in the message (the `impure_handler` lint enforces this shape
/// for all `handlers`-classed files).
pub trait Actor {
    /// The actor's state between messages.
    type State: Clone + fmt::Debug + Hash;
    /// Messages the actor consumes.
    type Msg: Clone + fmt::Debug;
    /// Messages/decisions the actor emits.
    type Out: Clone + fmt::Debug;

    /// The actor's initial state.
    fn init(&self) -> Self::State;

    /// Handles one message: successor state plus emitted outputs.
    fn on_msg(&self, state: &Self::State, msg: &Self::Msg) -> (Self::State, Vec<Self::Out>);
}

/// [`er_cluster::HpaState`] wrapped for fingerprinting: `SimTime` is
/// deliberately un-`Hash` (it is an ordered `f64`), so the wrapper hashes
/// the bit pattern of the wall-time seconds, which is exact for the
/// discrete tick grid the models use.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HpaActorState(pub HpaState);

impl Hash for HpaActorState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        match self.0.last_scale_down() {
            None => h.write_u8(0),
            Some(t) => {
                h.write_u8(1);
                h.write_u64(t.as_secs().to_bits());
            }
        }
    }
}

/// One HPA evaluation request: the periodic tick with its observation.
#[derive(Debug, Clone, Copy)]
pub struct HpaTick {
    /// Evaluation time.
    pub now: SimTime,
    /// Current replica count.
    pub current: usize,
    /// Observed load in QPS.
    pub qps: Qps,
    /// Observed p95 latency, for latency-target policies.
    pub p95_latency: Option<Secs>,
}

/// The HPA as an actor: wraps the pure [`HpaPolicy::step`] the simulation
/// engine calls.
#[derive(Debug, Clone)]
pub struct HpaActor {
    /// The policy under check.
    pub policy: HpaPolicy,
}

impl Actor for HpaActor {
    type State = HpaActorState;
    type Msg = HpaTick;
    type Out = usize;

    fn init(&self) -> HpaActorState {
        HpaActorState::default()
    }

    fn on_msg(&self, state: &HpaActorState, msg: &HpaTick) -> (HpaActorState, Vec<usize>) {
        let obs = Observation {
            qps: msg.qps,
            p95_latency: msg.p95_latency,
        };
        let (next, decision) = self.policy.step(&state.0, msg.now, msg.current, obs);
        (HpaActorState(next), decision.into_iter().collect())
    }
}

/// Messages a load balancer consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbMsg {
    /// Route one request, least-outstanding policy.
    PickLeast {
        /// Live replica count.
        n: usize,
    },
    /// Route one request, power-of-two-choices policy with the two
    /// sampled replicas passed in (the checker enumerates every pair the
    /// RNG could produce).
    PickBetween {
        /// First sampled replica.
        a: usize,
        /// Second sampled replica.
        b: usize,
    },
    /// A request previously routed to this replica completed.
    Complete {
        /// The completing replica.
        replica: usize,
    },
    /// The autoscaler resized the replica set.
    Scale {
        /// New replica count.
        n: usize,
    },
}

/// The balancer as an actor over its outstanding-request counters: wraps
/// the pure [`er_rpc::pure`] transitions the stateful balancers delegate
/// to.
#[derive(Debug, Clone, Default)]
pub struct BalancerActor;

impl Actor for BalancerActor {
    type State = Vec<u32>;
    type Msg = LbMsg;
    type Out = usize;

    fn init(&self) -> Vec<u32> {
        Vec::new()
    }

    fn on_msg(&self, state: &Vec<u32>, msg: &LbMsg) -> (Vec<u32>, Vec<usize>) {
        let mut counters = state.clone();
        match *msg {
            LbMsg::PickLeast { n } => {
                er_rpc::pure::sync_outstanding(&mut counters, n);
                let choice = er_rpc::pure::pick_least(&mut counters);
                (counters, vec![choice])
            }
            LbMsg::PickBetween { a, b } => {
                let choice = er_rpc::pure::pick_between(&mut counters, a, b);
                (counters, vec![choice])
            }
            LbMsg::Complete { replica } => {
                er_rpc::pure::complete(&mut counters, replica);
                (counters, Vec::new())
            }
            LbMsg::Scale { n } => {
                er_rpc::pure::sync_outstanding(&mut counters, n);
                (counters, Vec::new())
            }
        }
    }
}

/// The scheduler's node set, hashed componentwise for fingerprinting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedState {
    /// Current node snapshots.
    pub nodes: Vec<NodeView>,
}

impl Hash for SchedState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.nodes.len());
        for n in &self.nodes {
            h.write_usize(n.pool);
            n.allocated.hash(h);
            h.write_u8(u8::from(n.failed));
            h.write_usize(n.same_deployment_pods);
        }
    }
}

/// Scheduler messages: place one pod of the given request.
#[derive(Debug, Clone, Copy)]
pub struct PlacePod {
    /// The pod's resource request.
    pub request: ResourceRequest,
}

/// The outcome a placement emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedOut {
    /// The pod was placed on this node index.
    Placed(usize),
    /// No placement exists.
    Rejected(PlaceError),
}

/// The scheduler as an actor: wraps the pure [`er_cluster::place_pod`]
/// the cluster's `add_pod` delegates to, applying placements to a node
/// snapshot so successive messages see the packed state.
#[derive(Debug, Clone)]
pub struct SchedulerActor {
    /// The cluster's pools (capacity + budget per pool).
    pub pools: Vec<PoolView>,
}

impl Actor for SchedulerActor {
    type State = SchedState;
    type Msg = PlacePod;
    type Out = SchedOut;

    fn init(&self) -> SchedState {
        SchedState::default()
    }

    fn on_msg(&self, state: &SchedState, msg: &PlacePod) -> (SchedState, Vec<SchedOut>) {
        let mut next = state.clone();
        let mut pools = self.pools.clone();
        // Recompute live_nodes per pool from the snapshot.
        for (i, pool) in pools.iter_mut().enumerate() {
            pool.live_nodes = next
                .nodes
                .iter()
                .filter(|n| n.pool == i && !n.failed)
                .count();
        }
        match place_pod(&next.nodes, &pools, &msg.request) {
            Ok(Placement::Existing(i)) => {
                next.nodes[i].allocated = next.nodes[i].allocated.plus(&msg.request);
                next.nodes[i].same_deployment_pods += 1;
                (next, vec![SchedOut::Placed(i)])
            }
            Ok(Placement::Provision { pool }) => {
                next.nodes.push(NodeView {
                    pool,
                    allocated: msg.request,
                    failed: false,
                    same_deployment_pods: 1,
                });
                let i = next.nodes.len() - 1;
                (next, vec![SchedOut::Placed(i)])
            }
            Err(e) => (next, vec![SchedOut::Rejected(e)]),
        }
    }
}
