//! ElasticRec — a microservice-based model serving architecture enabling
//! elastic resource scaling for recommendation models.
//!
//! This crate is the paper's primary contribution, rebuilt on the simulated
//! substrates of this workspace:
//!
//! * [`plan`] turns a DLRM configuration into a [`ServingPlan`] under one of
//!   three strategies: the **model-wise** baseline (one monolithic
//!   container), **model-wise + GPU embedding cache** (Section VI-E), or
//!   **ElasticRec** (dense shard + DP-partitioned hot/cold embedding
//!   shards, Section IV);
//! * [`SteadyState`] sizes replica counts for a target QPS and reports the
//!   memory-allocation and server-count metrics of Figures 13/15/16/18;
//! * [`Simulation`] runs the plan against dynamic traffic on the simulated
//!   Kubernetes cluster with per-shard HPA — the Figure 19 experiment;
//! * [`utility`] measures per-shard memory utility (Figures 14/17);
//! * [`ShardedDlrm`] is the functional serving path (hotness sort →
//!   bucketize → per-shard gather → merge) checked against the monolithic
//!   model, allocation-free once its [`ForwardWorkspace`] is warm.
//!
//! # Examples
//!
//! ```
//! use elasticrec::{plan, Calibration, Platform, Strategy, SteadyState};
//! use er_model::configs;
//!
//! let calib = Calibration::cpu_only();
//! let elastic = plan(&configs::rm1(), Platform::CpuOnly, Strategy::Elastic, &calib);
//! let mw = plan(&configs::rm1(), Platform::CpuOnly, Strategy::ModelWise, &calib);
//!
//! let e = SteadyState::size(&elastic, 100.0, &calib).unwrap();
//! let m = SteadyState::size(&mw, 100.0, &calib).unwrap();
//! assert!(e.memory_bytes < m.memory_bytes); // the paper's headline result
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub)]

mod calib;
mod engine;
mod planning;
mod sharded;
mod shards;
mod sizing;
pub mod utility;
mod workspace;

pub use calib::Calibration;
pub use engine::{Simulation, SimulationConfig, SimulationOutcome, StageBreakdown};
pub use planning::{
    plan, plan_elastic_fixed_shards, plan_elastic_with_plans, Platform, ServingPlan, Strategy,
};
pub use sharded::ShardedDlrm;
pub use shards::{ShardRole, ShardService, ShardSpec};
pub use sizing::{SteadyState, STEADY_UTILIZATION};
pub use workspace::ForwardWorkspace;
