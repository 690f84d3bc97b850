//! Kubernetes-substitute container orchestration for the ElasticRec
//! reproduction.
//!
//! The paper deploys model shards as containers managed by Kubernetes
//! (v1.26) with Horizontal Pod Autoscaling (Section II-B, IV-D). The
//! experiments rely on a specific slice of Kubernetes semantics, which this
//! crate reimplements over the `er-sim` virtual clock:
//!
//! * **Nodes** with finite CPU/memory/GPU capacity ([`HardwareProfile`]) —
//!   presets for the paper's Xeon CPU cluster and GKE `n1-standard-32 + T4`
//!   nodes;
//! * **Pods** with resource requests and startup delays ([`PodSpec`]) —
//!   startup is proportional to the model bytes a container loads, which is
//!   what makes monolithic model-wise pods slow to react in Figure 19;
//! * a first-fit bin-packing **scheduler** ([`Cluster`]) that provisions
//!   additional nodes on demand (the "how many servers do we need" metric of
//!   Figures 15/18);
//! * **HPA** ([`HpaPolicy::step`], a pure transition over [`HpaState`]) with
//!   Kubernetes' `desired = ceil(current × metric/target)` rule, tolerance
//!   band, scale-up rate limit, and scale-down stabilization.
//!
//! # Examples
//!
//! ```
//! use er_cluster::{Cluster, HardwareProfile, PodSpec, ResourceRequest};
//! use er_sim::SimTime;
//!
//! let mut cluster = Cluster::new(HardwareProfile::cpu_only_node(), None);
//! let spec = PodSpec::new(
//!     "dense-shard",
//!     ResourceRequest::cpu(8_000, 2 << 30),
//!     5.0, // startup seconds
//! );
//! let dense = cluster.create_deployment("dense", spec, 2, SimTime::ZERO).unwrap();
//! assert_eq!(cluster.replicas_of(dense), 2);
//! let ready = |t| cluster.pods_of(dense).iter().filter(|p| p.is_ready(t)).count();
//! assert_eq!(ready(SimTime::ZERO), 0); // still starting
//! assert_eq!(ready(SimTime::from_secs(5.0)), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

mod cluster;
mod hardware;
mod hpa;
mod pod;
mod resources;
mod schedule;

pub use cluster::{Cluster, DeployId, NodePool, ScheduleError};
pub use hardware::{GpuSpec, HardwareProfile};
pub use hpa::{
    bound_frontend_desired, clamp_scale_to_load, HpaPolicy, HpaState, Observation, ScalingTarget,
    SCALE_DOWN_STABILIZATION,
};
pub use pod::{Pod, PodSpec};
pub use resources::ResourceRequest;
pub use schedule::{place_pod, soonest_start, NodeView, PlaceError, Placement, PoolView};
