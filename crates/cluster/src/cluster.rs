//! The cluster: nodes, deployments, and the bin-packing scheduler.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use er_sim::SimTime;

use crate::schedule::{place_pod, NodeView, PlaceError, Placement, PoolView};
use crate::{HardwareProfile, Pod, PodSpec, ResourceRequest};

/// Why a pod could not be scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The pod's request exceeds a whole empty node — it can never fit.
    PodLargerThanNode {
        /// The deployment whose pod failed to schedule.
        deployment: String,
    },
    /// All provisioned nodes are full and the node budget is exhausted.
    ClusterFull {
        /// The deployment whose pod failed to schedule.
        deployment: String,
        /// The node-count cap that was hit.
        max_nodes: usize,
    },
    /// A deployment with this name already exists.
    DuplicateDeployment(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::PodLargerThanNode { deployment } => {
                write!(f, "pod of deployment '{deployment}' exceeds node capacity")
            }
            ScheduleError::ClusterFull {
                deployment,
                max_nodes,
            } => write!(
                f,
                "no room for deployment '{deployment}' within {max_nodes} nodes"
            ),
            ScheduleError::DuplicateDeployment(name) => {
                write!(f, "deployment '{name}' already exists")
            }
        }
    }
}

impl Error for ScheduleError {}

/// A homogeneous group of provisionable nodes within a cluster.
///
/// Single-pool clusters model the paper's testbeds; multi-pool clusters
/// support the heterogeneous extension where CPU-only embedding shards are
/// scheduled onto cheaper GPU-less nodes.
#[derive(Debug, Clone)]
pub struct NodePool {
    /// Hardware of every node in the pool.
    pub profile: HardwareProfile,
    /// Provisioning cap for the pool (None = unbounded).
    pub max_nodes: Option<usize>,
}

impl NodePool {
    /// A pool of `profile` nodes.
    pub fn new(profile: HardwareProfile, max_nodes: Option<usize>) -> Self {
        Self { profile, max_nodes }
    }

    fn capacity(&self) -> ResourceRequest {
        ResourceRequest {
            cpu_millicores: self.profile.cpu_millicores(),
            memory_bytes: self.profile.mem_bytes.whole(),
            gpus: u32::from(self.profile.has_gpu()),
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    pool: usize,
    allocated: ResourceRequest,
    pods: usize,
    failed: bool,
}

#[derive(Debug, Clone)]
struct DeploymentState {
    name: String,
    spec: PodSpec,
    pods: Vec<Pod>,
}

/// Dense handle to a deployment, returned by [`Cluster::create_deployment`]
/// and valid for the cluster's lifetime (deployments are never reindexed
/// or removed; scaling to zero drains one). Handle-based accessors are
/// plain `Vec` indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeployId(usize);

/// A homogeneous cluster of nodes managed like a Kubernetes cluster: pods
/// are placed first-fit onto nodes, and new nodes are provisioned on demand
/// up to an optional cap.
///
/// Auto-provisioning is the lens for the paper's cost experiments
/// (Figures 15/18): the number of nodes the scheduler ends up using *is*
/// the deployment cost.
///
/// # Examples
///
/// ```
/// use er_cluster::{Cluster, HardwareProfile, PodSpec, ResourceRequest};
/// use er_sim::SimTime;
///
/// let mut c = Cluster::new(HardwareProfile::cpu_only_node(), Some(4));
/// let spec = PodSpec::new("w", ResourceRequest::cpu(32_000, 64 << 30), 1.0);
/// let workers = c.create_deployment("workers", spec, 3, SimTime::ZERO)?;
/// assert_eq!(c.replicas_of(workers), 3);
/// assert_eq!(c.nodes_used(), 2); // two 32-core pods per 64-core node
/// # Ok::<(), er_cluster::ScheduleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    pools: Vec<NodePool>,
    nodes: Vec<Node>,
    /// Deployment storage, indexed by [`DeployId`].
    deployments: Vec<DeploymentState>,
    /// Deployments by name, values indexing `deployments`: rejects
    /// duplicate names, and its sorted order fixes `fail_node`'s loss
    /// order.
    by_name: BTreeMap<String, usize>,
    next_pod_id: u64,
}

impl Cluster {
    /// Creates a cluster of `node_profile` nodes, provisioned on demand up
    /// to `max_nodes` (unbounded when `None`).
    pub fn new(node_profile: HardwareProfile, max_nodes: Option<usize>) -> Self {
        Self::with_pools(vec![NodePool::new(node_profile, max_nodes)])
    }

    /// Creates a heterogeneous cluster from several node pools. Pods are
    /// placed on the first pool (in order) that can host them, so list
    /// cheaper pools first to prefer them.
    ///
    /// # Panics
    ///
    /// Panics if `pools` is empty.
    pub fn with_pools(pools: Vec<NodePool>) -> Self {
        assert!(!pools.is_empty(), "a cluster needs at least one node pool");
        Self {
            pools,
            nodes: Vec::new(),
            deployments: Vec::new(),
            by_name: BTreeMap::new(),
            next_pod_id: 0,
        }
    }

    /// The first pool's node hardware profile (the only profile for
    /// single-pool clusters).
    pub fn node_profile(&self) -> &HardwareProfile {
        &self.pools[0].profile
    }

    /// The cluster's node pools.
    pub fn pools(&self) -> &[NodePool] {
        &self.pools
    }

    /// Creates a deployment with `replicas` initial pods and returns its
    /// handle.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or the pods cannot be placed;
    /// in the latter case the deployment exists with the pods placed
    /// before the failure.
    pub fn create_deployment(
        &mut self,
        name: impl Into<String>,
        spec: PodSpec,
        replicas: usize,
        now: SimTime,
    ) -> Result<DeployId, ScheduleError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(ScheduleError::DuplicateDeployment(name));
        }
        let idx = self.deployments.len();
        self.deployments.push(DeploymentState {
            name: name.clone(),
            spec,
            pods: Vec::new(),
        });
        self.by_name.insert(name, idx);
        self.scale_deployment(DeployId(idx), replicas, now)?;
        Ok(DeployId(idx))
    }

    /// Creates a deployment whose *initial* pods are ready immediately —
    /// a warmed-up service, as at the start of a measurement run. Pods
    /// added by later [`Cluster::scale_deployment`] calls pay the spec's
    /// startup delay as usual.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cluster::create_deployment`].
    pub fn create_deployment_warm(
        &mut self,
        name: impl Into<String>,
        spec: PodSpec,
        replicas: usize,
        now: SimTime,
    ) -> Result<DeployId, ScheduleError> {
        let id = self.create_deployment(name, spec, replicas, now)?;
        for pod in &mut self.deployments[id.0].pods {
            pod.set_ready_at(now);
        }
        Ok(id)
    }

    /// The name a handle was created under.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this cluster.
    pub fn deployment_name(&self, id: DeployId) -> &str {
        &self.deployments[id.0].name
    }

    /// The pods of a deployment, by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this cluster.
    pub fn pods_of(&self, id: DeployId) -> &[Pod] {
        &self.deployments[id.0].pods
    }

    /// Desired (scheduled) replica count, by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this cluster.
    pub fn replicas_of(&self, id: DeployId) -> usize {
        self.deployments[id.0].pods.len()
    }

    /// Scales a deployment to exactly `replicas` pods. New pods become
    /// ready `startup_secs` after `now`; removed pods free their resources
    /// immediately (newest-first, Kubernetes' default victim order).
    ///
    /// # Errors
    ///
    /// Returns an error if a new pod cannot be placed; pods placed before
    /// the failure remain.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this cluster.
    pub fn scale_deployment(
        &mut self,
        id: DeployId,
        replicas: usize,
        now: SimTime,
    ) -> Result<(), ScheduleError> {
        let current = self.deployments[id.0].pods.len();
        if replicas > current {
            for _ in current..replicas {
                self.add_pod(id.0, now)?;
            }
        } else {
            for _ in replicas..current {
                self.remove_pod(id.0);
            }
        }
        Ok(())
    }

    fn add_pod(&mut self, idx: usize, now: SimTime) -> Result<(), ScheduleError> {
        let (request, startup) = {
            let d = &self.deployments[idx];
            (*d.spec.resources(), d.spec.startup_secs())
        };
        // The placement decision itself is the pure `place_pod` — the same
        // function the er-mc control-plane model explores. This method only
        // snapshots views, maps errors, and applies the returned placement.
        let mut same_dep_per_node = vec![0usize; self.nodes.len()];
        for pod in &self.deployments[idx].pods {
            same_dep_per_node[pod.node()] += 1;
        }
        let node_views: Vec<NodeView> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeView {
                pool: n.pool,
                allocated: n.allocated,
                failed: n.failed,
                same_deployment_pods: same_dep_per_node[i],
            })
            .collect();
        let pool_views: Vec<PoolView> = self
            .pools
            .iter()
            .enumerate()
            .map(|(pool, spec)| PoolView {
                capacity: spec.capacity(),
                max_nodes: spec.max_nodes,
                live_nodes: self
                    .nodes
                    .iter()
                    .filter(|n| n.pool == pool && !n.failed)
                    .count(),
            })
            .collect();
        let node_idx = match place_pod(&node_views, &pool_views, &request) {
            Ok(Placement::Existing(i)) => i,
            Ok(Placement::Provision { pool }) => {
                self.nodes.push(Node {
                    pool,
                    allocated: ResourceRequest::default(),
                    pods: 0,
                    failed: false,
                });
                self.nodes.len() - 1
            }
            Err(PlaceError::PodLargerThanNode) => {
                return Err(ScheduleError::PodLargerThanNode {
                    deployment: self.deployments[idx].name.clone(),
                });
            }
            Err(PlaceError::ClusterFull) => {
                return Err(ScheduleError::ClusterFull {
                    deployment: self.deployments[idx].name.clone(),
                    max_nodes: self
                        .pools
                        .iter()
                        .map(|p| p.max_nodes.unwrap_or(usize::MAX))
                        .fold(0usize, |a, b| a.saturating_add(b)),
                });
            }
        };
        self.nodes[node_idx].allocated = self.nodes[node_idx].allocated.plus(&request);
        self.nodes[node_idx].pods += 1;
        let pod = Pod::new(self.next_pod_id, node_idx, now + startup);
        self.next_pod_id += 1;
        self.deployments[idx].pods.push(pod);
        Ok(())
    }

    fn remove_pod(&mut self, idx: usize) {
        let d = &mut self.deployments[idx];
        let Some(pod) = d.pods.pop() else { return };
        let request = *d.spec.resources();
        let node = &mut self.nodes[pod.node()];
        node.allocated = ResourceRequest {
            cpu_millicores: node.allocated.cpu_millicores - request.cpu_millicores,
            memory_bytes: node.allocated.memory_bytes - request.memory_bytes,
            gpus: node.allocated.gpus - request.gpus,
        };
        node.pods -= 1;
    }

    /// Total memory requested by all pods of all deployments — the paper's
    /// "memory allocation size" metric.
    pub fn memory_allocated_bytes(&self) -> u64 {
        self.deployments
            .iter()
            .map(|d| d.spec.resources().memory_bytes * d.pods.len() as u64)
            .sum()
    }

    /// Number of provisioned nodes currently hosting at least one pod —
    /// the paper's server-count cost metric.
    pub fn nodes_used(&self) -> usize {
        self.nodes.iter().filter(|n| n.pods > 0).count()
    }

    /// Number of nodes ever provisioned (including now-empty ones).
    pub fn nodes_provisioned(&self) -> usize {
        self.nodes.len()
    }

    /// Fails a node: every pod on it vanishes (its deployments shrink —
    /// the autoscaler will notice and re-provision elsewhere) and the node
    /// stops accepting pods. Returns `(deployment, pods lost)` pairs in
    /// name-sorted order, so downstream recovery actions (and therefore
    /// pod-id assignment) are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn fail_node(&mut self, node: usize) -> Vec<(DeployId, usize)> {
        assert!(node < self.nodes.len(), "node {node} out of range");
        self.nodes[node].failed = true;
        let mut losses = Vec::new();
        for &idx in self.by_name.values() {
            let state = &mut self.deployments[idx];
            let before = state.pods.len();
            state.pods.retain(|p| p.node() != node);
            let lost = before - state.pods.len();
            if lost > 0 {
                losses.push((DeployId(idx), lost));
            }
        }
        self.nodes[node].allocated = ResourceRequest::default();
        self.nodes[node].pods = 0;
        losses
    }

    /// Per-node `(pool, allocated)` snapshots, for introspection and
    /// invariant checking.
    pub fn node_allocations(&self) -> Vec<(usize, ResourceRequest)> {
        self.nodes.iter().map(|n| (n.pool, n.allocated)).collect()
    }

    /// Nodes of pool `pool` currently hosting at least one pod.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is out of range.
    pub fn nodes_used_in_pool(&self, pool: usize) -> usize {
        assert!(pool < self.pools.len(), "pool {pool} out of range");
        self.nodes
            .iter()
            .filter(|n| n.pool == pool && n.pods > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(cpu: u64, mem: u64) -> PodSpec {
        PodSpec::new("p", ResourceRequest::cpu(cpu, mem), 2.0)
    }

    fn cluster(max: Option<usize>) -> Cluster {
        Cluster::new(HardwareProfile::cpu_only_node(), max)
    }

    #[test]
    fn pods_pack_first_fit() {
        let mut c = cluster(None);
        // 64-core nodes; 24-core pods -> 2 per node.
        let d = c
            .create_deployment("d", spec(24_000, 1 << 30), 5, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.nodes_used(), 3);
        assert_eq!(c.replicas_of(d), 5);
    }

    #[test]
    fn memory_is_the_binding_constraint_when_larger() {
        let mut c = cluster(None);
        // 384 GB nodes; 200 GB pods -> 1 per node despite tiny CPU.
        c.create_deployment("big", spec(1000, 200 << 30), 3, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.nodes_used(), 3);
    }

    fn ready(c: &Cluster, id: DeployId, now: f64) -> usize {
        let now = SimTime::from_secs(now);
        c.pods_of(id).iter().filter(|p| p.is_ready(now)).count()
    }

    #[test]
    fn startup_delay_gates_readiness() {
        let mut c = cluster(None);
        let d = c
            .create_deployment("d", spec(1000, 1 << 30), 2, SimTime::from_secs(10.0))
            .unwrap();
        assert_eq!(ready(&c, d, 10.0), 0);
        assert_eq!(ready(&c, d, 11.9), 0);
        assert_eq!(ready(&c, d, 12.0), 2);
    }

    #[test]
    fn scale_down_frees_resources() {
        let mut c = cluster(None);
        let d = c
            .create_deployment("d", spec(32_000, 1 << 30), 4, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.nodes_used(), 2);
        c.scale_deployment(d, 1, SimTime::ZERO).unwrap();
        assert_eq!(c.replicas_of(d), 1);
        assert_eq!(c.nodes_used(), 1);
        // Freed capacity is reused by a second deployment.
        c.create_deployment("e", spec(32_000, 1 << 30), 3, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.nodes_used(), 2);
    }

    #[test]
    fn node_cap_is_enforced() {
        let mut c = cluster(Some(1));
        let err = c
            .create_deployment("d", spec(40_000, 1 << 30), 2, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::ClusterFull { max_nodes: 1, .. }
        ));
        // The first pod stayed.
        assert_eq!(c.nodes_used(), 1);
        assert_eq!(c.memory_allocated_bytes(), 1 << 30);
    }

    #[test]
    fn oversized_pod_is_rejected() {
        let mut c = cluster(None);
        let err = c
            .create_deployment("d", spec(100_000, 1 << 30), 1, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::PodLargerThanNode { .. }));
    }

    #[test]
    fn gpu_pods_need_gpu_nodes() {
        let mut cpu_cluster = cluster(None);
        let gpu_spec = PodSpec::new("g", ResourceRequest::with_gpu(1000, 1 << 30, 1), 1.0);
        assert!(cpu_cluster
            .create_deployment("d", gpu_spec.clone(), 1, SimTime::ZERO)
            .is_err());

        let mut gpu_cluster = Cluster::new(HardwareProfile::cpu_gpu_node(), None);
        gpu_cluster
            .create_deployment("d", gpu_spec, 2, SimTime::ZERO)
            .unwrap();
        // One GPU per node -> two nodes.
        assert_eq!(gpu_cluster.nodes_used(), 2);
    }

    #[test]
    fn memory_accounting_tracks_pods() {
        let mut c = cluster(None);
        let a = c
            .create_deployment("a", spec(1000, 10 << 30), 2, SimTime::ZERO)
            .unwrap();
        c.create_deployment("b", spec(1000, 5 << 30), 1, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.memory_allocated_bytes(), (20 << 30) + (5 << 30));
        c.scale_deployment(a, 0, SimTime::ZERO).unwrap();
        assert_eq!(c.memory_allocated_bytes(), 5 << 30);
    }

    #[test]
    fn duplicate_and_unknown_names_error() {
        // Names are resolved only at creation, so a duplicate is the one
        // name error left.
        let mut c = cluster(None);
        let d = c
            .create_deployment("d", spec(1000, 1), 1, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.deployment_name(d), "d");
        assert!(matches!(
            c.create_deployment("d", spec(1000, 1), 1, SimTime::ZERO),
            Err(ScheduleError::DuplicateDeployment(_))
        ));
    }

    #[test]
    fn heterogeneous_pools_prefer_earlier_pools() {
        // CPU pool listed first: CPU pods land there; GPU pods spill to
        // the GPU pool.
        let mut c = Cluster::with_pools(vec![
            NodePool::new(HardwareProfile::cpu_only_node(), None),
            NodePool::new(HardwareProfile::cpu_gpu_node(), None),
        ]);
        c.create_deployment("cpu", spec(8_000, 1 << 30), 2, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.nodes_used_in_pool(0), 1);
        assert_eq!(c.nodes_used_in_pool(1), 0);

        let gpu_spec = PodSpec::new("g", ResourceRequest::with_gpu(1000, 1 << 30, 1), 1.0);
        c.create_deployment("gpu", gpu_spec, 2, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.nodes_used_in_pool(0), 1);
        assert_eq!(c.nodes_used_in_pool(1), 2); // one GPU per node
        assert_eq!(c.nodes_used(), 3);
    }

    #[test]
    fn pool_caps_are_independent() {
        let mut c = Cluster::with_pools(vec![
            NodePool::new(HardwareProfile::cpu_only_node(), Some(1)),
            NodePool::new(HardwareProfile::cpu_gpu_node(), Some(2)),
        ]);
        // 40-core pods: one per CPU node; overflow goes to 32-core GPU
        // nodes only if they fit — they don't (40 > 32), so the cluster
        // fills at one pod.
        let err = c
            .create_deployment("big", spec(40_000, 1 << 30), 2, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::ClusterFull { .. }));
        assert_eq!(c.nodes_used_in_pool(0), 1);
        assert_eq!(c.nodes_used_in_pool(1), 0);
        // Smaller pods spill over into the second pool (one per 32-core
        // node), until that pool's cap also fills.
        let small = c
            .create_deployment("small", spec(30_000, 1 << 30), 2, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.nodes_used_in_pool(1), 2);
        assert!(c.scale_deployment(small, 3, SimTime::ZERO).is_err());
    }

    #[test]
    fn pod_too_big_for_every_pool_is_rejected() {
        let mut c = Cluster::with_pools(vec![NodePool::new(HardwareProfile::cpu_gpu_node(), None)]);
        let err = c
            .create_deployment("huge", spec(64_000, 1 << 30), 1, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::PodLargerThanNode { .. }));
    }

    #[test]
    fn warm_deployments_skip_initial_startup_only() {
        let mut c = cluster(None);
        let now = SimTime::from_secs(100.0);
        let d = c
            .create_deployment_warm("d", spec(1000, 1 << 30), 2, now)
            .unwrap();
        assert_eq!(ready(&c, d, 100.0), 2);
        // Pods added later pay the 2 s startup.
        c.scale_deployment(d, 3, now).unwrap();
        assert_eq!(ready(&c, d, 100.0), 2);
        assert_eq!(ready(&c, d, 102.0), 3);
    }

    #[test]
    fn replicas_spread_across_nodes() {
        let mut c = cluster(None);
        // Force two nodes into existence with a filler deployment.
        c.create_deployment("filler", spec(40_000, 1 << 30), 2, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.nodes_used(), 2);
        // Small pods would all fit on node 0; spread puts one per node.
        let svc = c
            .create_deployment("svc", spec(4_000, 1 << 30), 2, SimTime::ZERO)
            .unwrap();
        let nodes: Vec<usize> = c.pods_of(svc).iter().map(|p| p.node()).collect();
        assert_ne!(nodes[0], nodes[1], "replicas must not share a node");
    }

    #[test]
    fn failed_node_loses_pods_and_stops_scheduling() {
        let mut c = cluster(None);
        // Two 24-core pods per 64-core node -> pods split across nodes.
        let d = c
            .create_deployment("d", spec(24_000, 1 << 30), 4, SimTime::ZERO)
            .unwrap();
        assert_eq!(c.nodes_used(), 2);
        let losses = c.fail_node(0);
        assert_eq!(losses, vec![(d, 2)]);
        assert_eq!(c.replicas_of(d), 2);
        // Re-scaling provisions around the failed node.
        c.scale_deployment(d, 4, SimTime::from_secs(1.0)).unwrap();
        assert_eq!(c.replicas_of(d), 4);
        assert!(c.pods_of(d).iter().all(|p| p.node() != 0));
    }

    #[test]
    fn failing_an_empty_node_is_harmless() {
        let mut c = cluster(None);
        let d = c
            .create_deployment("d", spec(1000, 1), 1, SimTime::ZERO)
            .unwrap();
        c.scale_deployment(d, 0, SimTime::ZERO).unwrap();
        let losses = c.fail_node(0);
        assert!(losses.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn failing_unknown_node_panics() {
        cluster(None).fail_node(0);
    }

    #[test]
    #[should_panic(expected = "at least one node pool")]
    fn empty_pools_panics() {
        Cluster::with_pools(vec![]);
    }

    #[test]
    fn scale_to_same_count_is_noop() {
        let mut c = cluster(None);
        let d = c
            .create_deployment("d", spec(1000, 1), 3, SimTime::ZERO)
            .unwrap();
        let pods_before: Vec<u64> = c.pods_of(d).iter().map(Pod::id).collect();
        c.scale_deployment(d, 3, SimTime::ZERO).unwrap();
        let pods_after: Vec<u64> = c.pods_of(d).iter().map(Pod::id).collect();
        assert_eq!(pods_before, pods_after);
    }
}
