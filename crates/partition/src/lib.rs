//! Utility-based embedding-table partitioning — the core algorithms of
//! ElasticRec (paper Section IV-B and IV-C).
//!
//! Pipeline: a hotness-sorted table's access distribution
//! ([`er_distribution::AccessModel`]) plus a profiled gather-throughput
//! model ([`QpsModel`], paper Figure 9) feed the deployment-cost estimator
//! ([`CostModel`], Algorithm 1). A dynamic-programming partitioner
//! ([`partition_exact`] / [`partition_bucketed`], Algorithm 2) then finds
//! the shard boundaries minimizing total memory consumption, and
//! [`bucketize`] remaps each query's `(index, offset)` arrays onto the
//! resulting shards (Figure 11). For serving, a [`RouteTable`] precomputes
//! each original row's shard and local row as one `u32`, which
//! [`bucketize_routed_into`] decodes with no search over the cut points.
//!
//! # Examples
//!
//! ```
//! use er_distribution::LocalityTarget;
//! use er_partition::{partition_bucketed, AnalyticGatherModel, CostModel};
//! use er_units::{Bytes, BytesPerSec, Qps, Secs};
//!
//! let access = LocalityTarget::new(0.90).solve(1_000_000);
//! let qps = AnalyticGatherModel::new(
//!     Secs::of(2.0e-4),
//!     BytesPerSec::of(2.0e9),
//!     Bytes::of_u64(128),
//! );
//! let cost = CostModel::new(&access, &qps, 4096.0, Bytes::of_u64(128), Bytes::of_u64(64 << 20))
//!     .with_target_traffic(Qps::of(10_000.0));
//! let plan = partition_bucketed(1_000_000, 8, 64, |k, j| cost.cost(k, j).raw());
//! assert!(plan.num_shards() >= 2); // skewed tables get split
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

mod bucketize;
mod cost;
mod dp;
mod plan;
mod qps_model;

pub use bucketize::{
    bucketize, bucketize_into, bucketize_routed_into, BucketizedLookup, RouteTable,
};
pub use cost::{CostModel, DEFAULT_TARGET_TRAFFIC};
pub use dp::{partition_bucketed, partition_bucketed_k, partition_exact};
pub use plan::{PartitionPlan, PlanError};
pub use qps_model::{AnalyticGatherModel, ProfiledQpsModel, QpsModel};
